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

* ``uniform`` hashes one key.  Use it for scattered draws, such as the
  replicate index of ``cohort.oracle_tau``.
* ``uniform_columns`` draws index 0 of several channels for patients
  0..n-1.  It mixes each patient id once and then runs the channel and
  index rounds as list comprehensions over that key column, one channel
  at a time.  Use it to draw a whole cohort: it gives the same bits as
  ``uniform`` at about two thirds of the cost per draw.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable

__all__ = ["Channel", "CounterRng"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MULT = 0xBF58476D1CE4E5B9
_MULT2 = 0x94D049BB133111EB


class Channel(IntEnum):
    """Independent per-patient draw channels."""

    GROUP = 0
    SATURATION = 1
    NOISE = 2
    TREAT = 3
    OUTCOME = 4
    # Auxiliary stream for Monte Carlo replicates outside the cohort proper.
    ORACLE = 5


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MULT) & _MASK64
    z = ((z ^ (z >> 27)) * _MULT2) & _MASK64
    return z ^ (z >> 31)


def _absorb_column(column: Iterable[int], add: int) -> list[int]:
    """``_mix((z + add) & _MASK64)`` for every z of the column."""
    zs = [(z + add) & _MASK64 for z in column]
    zs = [((z ^ (z >> 30)) * _MULT) & _MASK64 for z in zs]
    zs = [((z ^ (z >> 27)) * _MULT2) & _MASK64 for z in zs]
    return [z ^ (z >> 31) for z in zs]


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
        return (((z ^ (z >> 31)) >> 11) + 0.5) * 2.0**-53

    def uniform_columns(self, n: int, channels: Iterable[Channel]) -> list[list[float]]:
        """Index-0 uniforms of patients 0..n-1, one list per channel.

        ``uniform_columns(n, chs)[k][i] == uniform(i, chs[k])`` bit for
        bit.  Each patient id is absorbed and mixed once; the key column
        stays alive while each channel's two rounds run over it in turn,
        so besides the finished columns memory holds only the keys and
        one channel in progress.
        """
        channels = list(channels)
        if n < 0 or any(channel < 0 for channel in channels):
            raise ValueError("stream keys must be non-negative")
        keys = _absorb_column(range(0, n * _MULT, _MULT), self._seed + _GOLDEN)
        columns = []
        for channel in channels:
            words = _absorb_column(_absorb_column(keys, channel * _MULT + _GOLDEN), _GOLDEN)
            columns.append([((z >> 11) + 0.5) * 2.0**-53 for z in words])
        return columns
