"""Mann-Whitney AUC and the Hanley-McNeil standard error."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import compress, repeat
from operator import not_
from typing import Sequence

__all__ = ["auc_mann_whitney", "hanley_mcneil_se"]


def auc_mann_whitney(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the Mann-Whitney U normalization.

    Equals (concordant pairs + 0.5 * tied pairs) / (positives * negatives).
    Each positive score is bisected into the sorted negatives from both
    sides: ``bisect_left`` counts the negatives below it and
    ``bisect_right`` those below or tied, so their sum over the positives
    is 2U, an exact integer, and ties are handled exactly.

    Raises:
        ValueError: mismatched lengths, a NaN or infinite score, labels
            other than 0 and 1, or single-class labels.
    """
    if len(scores) != len(labels):
        raise ValueError("scores and labels have different lengths")
    if not all(map(math.isfinite, scores)):
        raise ValueError("scores must be finite")
    # Check the raw values: int() would truncate 0.7 to 0 and 1.9 to 1.
    if any(v not in (0, 1) for v in labels):
        raise ValueError("labels must be binary")
    # Sorted positives only keep the bisections' memory access local.
    positives = sorted(compress(scores, labels))
    negatives = sorted(compress(scores, map(not_, labels)))
    n_pos = len(positives)
    n_neg = len(negatives)
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    twice_u = sum(map(bisect_left, repeat(negatives), positives)) + sum(
        map(bisect_right, repeat(negatives), positives)
    )
    return twice_u * 0.5 / (n_pos * n_neg)


def hanley_mcneil_se(auc: float, n_pos: int, n_neg: int) -> float:
    """Hanley-McNeil standard error of a single AUC estimate.

    Uses the exponential-model placement approximations
    Q1 = A/(2-A) and Q2 = 2A^2/(1+A).
    """
    if n_pos < 1 or n_neg < 1:
        raise ValueError("need at least one positive and one negative")
    q1 = auc / (2.0 - auc)
    q2 = 2.0 * auc * auc / (1.0 + auc)
    var = (
        auc * (1.0 - auc)
        + (n_pos - 1) * (q1 - auc * auc)
        + (n_neg - 1) * (q2 - auc * auc)
    ) / (n_pos * n_neg)
    return math.sqrt(max(var, 0.0))
