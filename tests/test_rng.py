"""Counter-based stream properties: determinism, key separation, range."""

import hashlib
import math
import struct
from array import array

import pytest

from oxequity.rng import _BLOCK, Channel, CounterRng, _pack
from oxequity.stats.special import normal_quantile

from oracles import channel_for_word, counter_word


def test_reproducible_across_instances():
    a = CounterRng(42)
    b = CounterRng(42)
    channels = (Channel.NOISE, Channel.TREAT, Channel.OUTCOME)
    draws_a = [a.uniform(i, ch) for i in range(50) for ch in channels]
    draws_b = [b.uniform(i, ch) for i in range(50) for ch in channels]
    assert draws_a == draws_b


def test_order_of_calls_is_irrelevant():
    rng = CounterRng(7)
    forward = [rng.uniform(i, Channel.TREAT) for i in range(20)]
    backward = [rng.uniform(i, Channel.TREAT) for i in reversed(range(20))]
    assert forward == list(reversed(backward))


def test_keys_separate_streams():
    rng = CounterRng(1)
    base = rng.uniform(3, Channel.SATURATION)
    assert rng.uniform(3, 5) != base
    assert rng.uniform(3, Channel.NOISE) != base
    assert rng.uniform(4, Channel.SATURATION) != base
    assert CounterRng(2).uniform(3, Channel.SATURATION) != base


def test_uniforms_live_in_open_interval():
    rng = CounterRng(123456789)
    draws = [rng.uniform(i, Channel.OUTCOME) for i in range(20000)]
    assert all(0.0 < u < 1.0 for u in draws)
    mean = sum(draws) / len(draws)
    assert mean == pytest.approx(0.5, abs=0.01)
    variance = sum((u - mean) ** 2 for u in draws) / len(draws)
    assert variance == pytest.approx(1.0 / 12.0, abs=0.005)


def test_normals_via_inverse_cdf():
    rng = CounterRng(99)
    draws = [normal_quantile(rng.uniform(i, Channel.NOISE)) for i in range(20000)]
    mean = sum(draws) / len(draws)
    sd = math.sqrt(sum((d - mean) ** 2 for d in draws) / len(draws))
    assert mean == pytest.approx(0.0, abs=0.03)
    assert sd == pytest.approx(1.0, abs=0.03)


def test_negative_keys_rejected():
    rng = CounterRng(5)
    with pytest.raises(ValueError):
        rng.uniform(-1, Channel.GROUP)
    with pytest.raises(ValueError):
        rng.uniform(0, -2)


def test_seed_masking_consistent():
    # seeds congruent mod 2^64 address the same stream
    assert CounterRng(1).uniform(0, Channel.GROUP) == CounterRng(1 + 2**64).uniform(
        0, Channel.GROUP
    )


# sha256 of packed little-endian doubles, recorded with the per-field loop
# mixer whose three rounds ``uniform`` runs.  The seed exceeds 2**64 to
# exercise the masking.
FROZEN_SEED = 2**64 + 0x5DEECE66D
COHORT_CHANNELS = (Channel.GROUP, Channel.SATURATION, Channel.NOISE, Channel.TREAT, Channel.OUTCOME)
# 2000 patients x the five cohort channels, patient-major
COHORT_WORDS_SHA256 = "3bf5cefeabfee0c7ccd546fc7c02ff58b40c318a5b2e7023d83c7fffc8a5c6c3"
# 1000 spread patient ids x channel 5 (once the Monte Carlo oracle's
# stream) x indices 0..9 of the key (seed, patient, channel, index) that
# draws had before the index became the constant 0; each of those words is
# now drawn through the channel that ``channel_for_word`` solves for
ORACLE_WORDS_SHA256 = "05723086d80d43eb9d89f106756084768cc4fd97da6832c7ff3e28efc79b4e98"


def _sha256(draws):
    return hashlib.sha256(struct.pack(f"<{len(draws)}d", *draws)).hexdigest()


def test_scalar_draws_match_frozen_digests():
    rng = CounterRng(FROZEN_SEED)
    cohort = [rng.uniform(i, ch) for i in range(2000) for ch in COHORT_CHANNELS]
    assert _sha256(cohort) == COHORT_WORDS_SHA256
    oracle = [
        rng.uniform(p, channel_for_word(FROZEN_SEED, p, counter_word(FROZEN_SEED, p, 5, r)))
        for p in range(0, 7919000, 7919)
        for r in range(10)
    ]
    assert _sha256(oracle) == ORACLE_WORDS_SHA256


def test_column_draws_match_frozen_digest():
    columns = CounterRng(FROZEN_SEED).uniform_columns(2000, COHORT_CHANNELS)
    assert _sha256([u for patient in zip(*columns) for u in patient]) == COHORT_WORDS_SHA256


def test_columns_follow_the_given_channel_order():
    rng = CounterRng(3)
    channels = [5, Channel.GROUP, 5]
    columns = rng.uniform_columns(40, channels)
    assert columns == [[rng.uniform(i, ch) for i in range(40)] for ch in channels]
    assert rng.uniform_columns(0, channels) == [[], [], []]
    assert rng.uniform_columns(40, ()) == []


def test_column_draw_rejects_negative_keys():
    rng = CounterRng(5)
    with pytest.raises(ValueError):
        rng.uniform_columns(-1, [Channel.GROUP])
    with pytest.raises(ValueError):
        rng.uniform_columns(3, [Channel.GROUP, -1])
    with pytest.raises(ValueError):
        rng.uniform(0, -1)


@pytest.mark.parametrize("n", (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3))
@pytest.mark.parametrize("seed", (0, 2**64 - 1, 2**64 + 1))
def test_column_draws_cross_block_edges(n, seed):
    # Block boundaries of the lane kernel; 5 is above every cohort channel,
    # and a repeated channel must give the same column twice.
    rng = CounterRng(seed)
    channels = [5, Channel.GROUP, 5]
    columns = rng.uniform_columns(n, channels)
    assert [len(column) for column in columns] == [n, n, n]
    assert columns == [[rng.uniform(i, ch) for i in range(n)] for ch in channels]


def test_lanes_are_little_endian_128_bit():
    assert _pack(array("Q", [1, 2**64 - 1, 3])) == 1 + ((2**64 - 1) << 128) + (3 << 256)


def test_top_word_maps_to_the_largest_float_below_one():
    # The channel whose draw for (seed 7, patient 0) is the 64-bit word
    # 2**64 - 1, whose top 53 bits w give (w + 0.5) * 2**-53 == 1.0.
    channel = channel_for_word(7, 0, 2**64 - 1)
    assert channel == 7904560541666585842
    rng = CounterRng(7)
    below_one = 1.0 - 2.0**-53
    assert rng.uniform(0, channel) == below_one
    column = rng.uniform_columns(3, [channel])[0]
    assert column == [below_one, rng.uniform(1, channel), rng.uniform(2, channel)]
    assert all(0.0 < u < 1.0 for u in column)
    # The word below it keeps the usual map, which rounds w + 0.5 to even.
    neighbour = channel_for_word(7, 0, 2**64 - 1 - 2**11)
    assert rng.uniform(0, neighbour) == 1.0 - 2.0**-52
    assert rng.uniform_columns(1, [neighbour]) == [[1.0 - 2.0**-52]]
