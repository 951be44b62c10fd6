"""Mann-Whitney AUC and the Hanley-McNeil standard error."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["auc_mann_whitney", "hanley_mcneil_se"]


def auc_mann_whitney(scores: Sequence[float], labels: Sequence[int]) -> float:
    """Area under the ROC curve via the Mann-Whitney U normalization.

    Equals (concordant pairs + 0.5 * tied pairs) / (positives * negatives),
    computed from midranks so ties are handled exactly.

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
    lab = [int(v) for v in labels]
    n_pos = sum(lab)
    n_neg = len(lab) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs at least one positive and one negative label")
    order = sorted(range(len(scores)), key=lambda i: scores[i])
    ranks = [0.0] * len(scores)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        midrank = 0.5 * (i + j) + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = midrank
        i = j + 1
    rank_sum = math.fsum(r for r, v in zip(ranks, lab) if v == 1)
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


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
