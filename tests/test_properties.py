"""Property checks over generated inputs (hypothesis, derandomized in conftest)."""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import strategies as st  # noqa: E402

from oxequity.rng import Channel, CounterRng  # noqa: E402

SEEDS = st.one_of(st.integers(0, 2**64 - 1), st.integers(2**64, 2**80))


@hypothesis.given(
    seed=SEEDS,
    n=st.integers(0, 300),
    channels=st.lists(st.sampled_from(list(Channel)), unique=True),
)
@hypothesis.example(seed=2**64 + 1, n=300, channels=list(Channel))
@hypothesis.example(seed=0, n=0, channels=[Channel.ORACLE])
def test_column_draws_equal_scalar_draws(seed, n, channels):
    rng = CounterRng(seed)
    expected = [[rng.uniform(i, channel) for i in range(n)] for channel in channels]
    assert rng.uniform_columns(n, channels) == expected
