"""Mann-Whitney AUC equals the trapezoid ROC area; tie and error handling."""

import math
import random

import pytest

from oxequity.stats.auc import auc_mann_whitney, hanley_mcneil_se

from oracles import auc_midrank_oracle, trapezoid_roc_auc


def test_perfect_separation():
    assert auc_mann_whitney([1, 2, 3, 10, 11], [0, 0, 0, 1, 1]) == 1.0


def test_all_ties():
    assert auc_mann_whitney([5.0] * 8, [0, 1, 0, 1, 1, 0, 0, 1]) == 0.5


def test_enumerated_pairs():
    # positives score {3, 2}; negatives {1, 4}; concordant pairs: 2 of 4
    assert auc_mann_whitney([1, 3, 2, 4], [0, 1, 1, 0]) == 0.5


def test_reversed_scores_complement():
    scores = [0.1, 0.9, 0.4, 0.7, 0.2]
    labels = [0, 1, 0, 1, 1]
    auc = auc_mann_whitney(scores, labels)
    flipped = auc_mann_whitney([-s for s in scores], labels)
    assert auc + flipped == pytest.approx(1.0, abs=1e-12)


def test_matches_trapezoid_roc_on_random_instances():
    rng = random.Random(20260810)
    for _ in range(100):
        n = rng.randint(4, 25)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        # coarse scores so ties occur often
        scores = [rng.randint(0, 6) / 2.0 for _ in range(n)]
        assert auc_mann_whitney(scores, labels) == pytest.approx(
            trapezoid_roc_auc(scores, labels), abs=1e-12
        )


def _tie_heavy_cases(count):
    rng = random.Random(20261018)
    for case in range(count):
        n = rng.randint(2, 200)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        top = (1, 2, 5, 30, 10**6)[case % 5]
        yield [float(rng.randint(0, top)) for _ in range(n)], labels


def test_matches_midrank_oracle_bit_for_bit():
    for scores, labels in _tie_heavy_cases(300):
        assert auc_mann_whitney(scores, labels).hex() == auc_midrank_oracle(
            scores, labels
        ).hex()


def test_matches_scipy_mannwhitneyu():
    mannwhitneyu = pytest.importorskip("scipy.stats").mannwhitneyu
    for scores, labels in _tie_heavy_cases(60):
        positives = [s for s, v in zip(scores, labels) if v]
        negatives = [s for s, v in zip(scores, labels) if not v]
        u = mannwhitneyu(positives, negatives, method="asymptotic").statistic
        assert auc_mann_whitney(scores, labels) == u / (len(positives) * len(negatives))


def test_single_class_rejected():
    with pytest.raises(ValueError):
        auc_mann_whitney([1, 2, 3], [1, 1, 1])
    with pytest.raises(ValueError):
        auc_mann_whitney([1, 2, 3], [0, 0, 0])


def test_label_validation():
    with pytest.raises(ValueError):
        auc_mann_whitney([1, 2], [0, 2])
    with pytest.raises(ValueError):
        auc_mann_whitney([1, 2, 3], [0, 1])


def test_fractional_labels_rejected_not_truncated():
    # int() would read [0.7, 1.9, 0] as [0, 1, 0] and return 0.5
    with pytest.raises(ValueError, match="binary"):
        auc_mann_whitney([1.0, 2.0, 3.0], [0.7, 1.9, 0])
    assert auc_mann_whitney([1.0, 2.0, 3.0], [0.0, 1.0, True]) == 1.0


@pytest.mark.parametrize(
    "scores",
    ([math.nan, 1.0, 2.0, 0.5], [1.0, 2.0, 0.5, math.nan], [1.0, math.inf, 0.5, 0.0]),
)
def test_non_finite_scores_rejected(scores):
    # A NaN has no sort position: the first two gave 0.5 and 0.0.
    with pytest.raises(ValueError, match="finite"):
        auc_mann_whitney(scores, [1, 0, 1, 0])


def test_hanley_mcneil_se_behaviour():
    # shrinks with sample size, zero at a perfect area
    small = hanley_mcneil_se(0.8, 20, 40)
    large = hanley_mcneil_se(0.8, 200, 400)
    assert large < small
    assert hanley_mcneil_se(1.0, 50, 50) == 0.0
    with pytest.raises(ValueError):
        hanley_mcneil_se(0.7, 0, 10)
