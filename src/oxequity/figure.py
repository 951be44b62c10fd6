"""Box-plot style summary of true saturation within measured-value bins.

Produces the data behind an accuracy-by-group figure: for each
measured-saturation bin and group, a five-number summary of the true
saturations.  The bins are those of the audit's CMH test
(``cohort.wstar_bins``).  This module only computes: no plotting, and
``reports.figure_to_csv`` renders the summary as CSV for any plotting
front end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .cohort import W_HIGH, W_LOW, Cohort, wstar_bins

__all__ = ["FigureBin", "FigureSummary", "figure_summary"]


@dataclass(frozen=True, slots=True)
class FigureBin:
    bin_center: float
    group_a: int
    count: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


@dataclass(slots=True)
class FigureSummary:
    bins: list[FigureBin]
    out_of_range: int


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    # linear interpolation between order statistics (type-7)
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = (len(sorted_values) - 1) * q
    lower = math.floor(position)
    upper = min(lower + 1, len(sorted_values) - 1)
    weight = position - lower
    return sorted_values[lower] * (1.0 - weight) + sorted_values[upper] * weight


def figure_summary(
    cohort: Cohort,
    bin_width: float = 1.0,
    value_range: tuple[float, float] = (W_LOW, W_HIGH),
) -> FigureSummary:
    """Five-number summaries of w_true per (measured-value bin, group).

    Bins are centered on multiples of ``bin_width`` (integer percent by
    default, matching device display precision).  Patients whose measured
    value falls outside ``value_range`` are excluded from bins but
    counted, so bin counts plus ``out_of_range`` equal the cohort size.
    Empty bins are omitted.  Raises ValueError on a width that is not
    finite and positive, a range that is not two finite values in
    increasing order, an empty cohort or one that is not ``gold``, or a
    width too small for finite bins.
    """
    if not (math.isfinite(bin_width) and bin_width > 0.0):
        raise ValueError(f"bin_width must be finite and positive, got {bin_width!r}")
    lo, hi = value_range
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"value_range must be finite with low < high, got {value_range!r}")
    if not cohort:
        raise ValueError("cannot summarize an empty cohort")
    if not cohort.gold:
        raise ValueError("figure data needs gold-standard true saturations")
    in_range = [lo <= w <= hi for w in cohort.w_star]
    keys = wstar_bins(compress(cohort.w_star, in_range), bin_width)
    grouped: dict[tuple[int, int], list[float]] = {}
    groups, w_true = compress(cohort.group_a, in_range), compress(cohort.w_true, in_range)
    for key, group_a, w in zip(keys, groups, w_true):
        grouped.setdefault((key, group_a), []).append(w)
    bins = []
    for (bin_index, group_a), values in sorted(grouped.items()):
        values.sort()
        bins.append(
            FigureBin(
                bin_center=bin_index * bin_width,
                group_a=group_a,
                count=len(values),
                minimum=values[0],
                q1=_quantile(values, 0.25),
                median=_quantile(values, 0.5),
                q3=_quantile(values, 0.75),
                maximum=values[-1],
            )
        )
    return FigureSummary(bins=bins, out_of_range=len(cohort) - len(keys))

