"""Counter-based random number streams for common-random-numbers simulation.

Every draw is a pure 64-bit hash of (seed, patient_id, channel, index),
so a patient's draw on one channel never depends on how many draws any
other patient or channel consumed.  Toggling a bias flag therefore
changes deterministic mean shifts only, never the underlying randomness,
and regeneration is bit-identical on any execution schedule.

The mixer is the SplitMix64 finalizer applied after absorbing each key
field through a multiply-add; it is not cryptographic, but its
equidistribution is far beyond what these cohort sizes can detect (the
500-replication null-calibration suite doubles as an empirical check).

Because a draw depends only on its key, the same bits can be computed in
any order (the counter-based design of Salmon et al. 2011, Random123).
There are two entry points:

* ``uniform_columns`` draws index 0 of several channels for patients
  0..n-1.  The generator draws every cohort through it.
* ``uniform`` hashes one key.  It is the reference that
  ``uniform_columns`` matches bit for bit, and the draw whose cost the
  benchmark's ``rng.draw_ns`` measures.

Both map the 53-bit word w to (w + 0.5) / 2**53, except the top word,
for which that sum rounds to 2**53: it maps to ``_BELOW_ONE``, the
largest float below 1, so every draw lies in the open interval (0, 1).

``uniform_columns`` runs each absorb-and-mix round on a block of
``_BLOCK`` patients at once.  The block's 64-bit words are packed into
one Python integer, word i in bits 128*i .. 128*i+63: a 128-bit lane
whose high half starts at zero.  A round is then about a dozen C-level
operations on that integer, where the list form took a dozen Python
operations per word.  The lanes stay exact:

* a lane below 2**64 times a 64-bit constant is below 2**128, so no
  carry reaches the next lane, and masking with ``_MASK64`` in every
  lane keeps the low 64 bits of each product;
* ``z >> s`` moves the low s bits of lane i+1 into the top s bits of
  lane i's high half, never into a low half, and the mask clears them
  before the next multiply;
* adding a 64-bit constant to every lane carries at most into bit 64,
  which is zero at that point, so the sum stays in its lane and the
  mask reduces it mod 2**64.

Each low half therefore holds exactly the word ``uniform`` computes.
Ids are packed, and words unpacked, through ``array("Q")`` with the
lanes in little-endian order whatever the host's byte order.
"""

from __future__ import annotations

import sys
from array import array
from enum import IntEnum
from typing import Iterable

__all__ = ["Channel", "CounterRng"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB
# Patients per packed block of ``uniform_columns``: large enough that the
# integer operations dominate, small enough to bound their temporaries.
_BLOCK = 4096
_ONE_LANE = (1).to_bytes(16, "little")
_SWAP = sys.byteorder == "big"  # array("Q") is native-endian
_BELOW_ONE = 1.0 - 2.0**-53


class Channel(IntEnum):
    """Independent per-patient draw channels."""

    GROUP = 0
    SATURATION = 1
    NOISE = 2
    TREAT = 3
    OUTCOME = 4


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MULT) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return z ^ (z >> 31)


def _mix_lanes(z: int, lanes: int) -> int:
    """``_mix`` of every 128-bit lane of z whose high half is zero.

    ``lanes`` is ``_MASK64`` in every lane.  Bits 97..127 of each lane
    of the result hold bits of the next lane: mask, or read only the
    low halves, before the next multiply.
    """
    z = (((z ^ (z >> 30)) & lanes) * _MULT) & lanes
    z = (((z ^ (z >> 27)) & lanes) * _MULT2) & lanes
    return z ^ (z >> 31)


def _pack(words: array) -> int:
    """One little-endian 128-bit lane per 64-bit word, high halves zero."""
    lanes = array("Q", bytes(16 * len(words)))
    lanes[::2] = words
    if _SWAP:
        lanes.byteswap()
    return int.from_bytes(lanes, "little")


def _unpack(z: int, m: int) -> array:
    """The low 64 bits of each of the m lanes of z."""
    lanes = array("Q", z.to_bytes(16 * m, "little"))
    if _SWAP:
        lanes.byteswap()
    return lanes[::2]


class CounterRng:
    """Stateless uniform generator keyed by (patient, channel, index)."""

    __slots__ = ("_seed",)

    def __init__(self, seed: int):
        self._seed = _mix((int(seed) & _MASK64) + _GOLDEN & _MASK64)

    def uniform(self, patient_id: int, channel: Channel, index: int = 0) -> float:
        """Uniform draw on the open interval (0, 1)."""
        if patient_id < 0 or channel < 0 or index < 0:
            raise ValueError("stream keys must be non-negative")
        # Three absorb-and-mix rounds, one per key field, unrolled.
        z = (self._seed + patient_id * _MULT + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MULT) & _MASK64
        z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
        z = ((z ^ (z >> 31)) + channel * _MULT + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MULT) & _MASK64
        z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
        z = ((z ^ (z >> 31)) + index * _MULT + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MULT) & _MASK64
        z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
        u = (((z ^ (z >> 31)) >> 11) + 0.5) * 2.0**-53
        return u if u < 1.0 else _BELOW_ONE

    def uniform_columns(self, n: int, channels: Iterable[Channel]) -> list[list[float]]:
        """Index-0 uniforms of patients 0..n-1, one list per channel.

        ``uniform_columns(n, chs)[k][i] == uniform(i, chs[k])`` bit for
        bit.  Each block of patient ids is absorbed and mixed once; the
        packed keys stay alive while each channel's two rounds run on
        them in turn, so besides the finished columns memory holds only
        one block's keys and one channel in progress.
        """
        channels = list(channels)
        if n < 0 or any(channel < 0 for channel in channels):
            raise ValueError("stream keys must be non-negative")
        columns = [[] for _ in channels]
        for start in range(0, n, _BLOCK):
            m = min(_BLOCK, n - start)
            ones = int.from_bytes(_ONE_LANE * m, "little")
            lanes = _MASK64 * ones
            # id * _MULT + seed + _GOLDEN stays below 2**128 for any
            # 64-bit id, since _MULT < 0.75 * 2**64.
            ids = _pack(array("Q", range(start, start + m)))
            keys = _mix_lanes(
                (ids * _MULT + ((self._seed + _GOLDEN) & _MASK64) * ones) & lanes, lanes
            )
            golden = _GOLDEN * ones
            for column, channel in zip(columns, channels):
                z = (keys + ((channel * _MULT + _GOLDEN) & _MASK64) * ones) & lanes
                z = _mix_lanes((_mix_lanes(z, lanes) + golden) & lanes, lanes)
                # (word >> 11) of every lane, then the float step of ``uniform``
                draws = [(w + 0.5) * 2.0**-53 for w in _unpack(z >> 11, m)]
                if 1.0 in draws:  # the top word, once in 2**53 draws
                    draws = [u if u < 1.0 else _BELOW_ONE for u in draws]
                column += draws
        return columns
