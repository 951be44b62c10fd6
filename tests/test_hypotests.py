"""Hypothesis-test correctness: closed forms, oracles, and identities."""

import math
import random

import pytest

from oxequity.stats.hypotests import (
    ONE_SIDED_LOWER,
    ONE_SIDED_UPPER,
    TWO_SIDED,
    chi_square_independence,
    chi_square_tail,
    cmh_conditional_independence,
    student_t_tail,
    two_proportion_one_sided,
    welch_t_one_sided,
)
from oxequity.stats.special import normal_cdf

from oracles import chi_square_tail_oracle, cmh_statistic_oracle, student_t_tail_oracle

# frozen from the adaptive-integration oracles
T_TAIL_4_2449 = 0.0352605884618  # P(T_4 > 2.449)
WELCH_P = 0.0352419984551        # P(T_4 > 2 / sqrt(2/3))
PROP_Z = -2.72375046273
PROP_P = 0.00322726269952
CHI2_2X2 = 20.0 / 3.0
CHI2_2X2_P = 0.00982327450752


class TestDistributionTails:
    def test_chi_square_tail_at_zero_is_one(self):
        assert chi_square_tail(0.0, 1.0) == 1.0
        assert chi_square_tail(0.0, 3.0) == 1.0

    def test_chi_square_df1_equals_two_sided_normal(self):
        for stat in [0.01 * k for k in range(1, 11)] + [1.0, 4.0, 9.0, 16.0, 25.0, 40.0]:
            z = math.sqrt(stat)
            expected = 2.0 * (1.0 - normal_cdf(z))
            assert chi_square_tail(stat, 1.0) == pytest.approx(expected, rel=1e-9)

    def test_chi_square_against_integration_oracle(self):
        for stat, df in ((1.3, 2.0), (6.6667, 1.0), (15.0, 7.0), (3.2, 4.5)):
            assert chi_square_tail(stat, df) == pytest.approx(
                chi_square_tail_oracle(stat, df), rel=1e-9
            )

    def test_student_t_tail_frozen_value(self):
        assert student_t_tail_oracle(2.449, 4.0) == pytest.approx(T_TAIL_4_2449, rel=1e-9)
        assert student_t_tail(2.449, 4.0) == pytest.approx(T_TAIL_4_2449, rel=1e-9)

    def test_student_t_symmetry(self):
        assert student_t_tail(0.0, 7.0) == 0.5
        for t in (0.4, 1.7, 3.1):
            assert student_t_tail(-t, 6.0) == pytest.approx(
                1.0 - student_t_tail(t, 6.0), abs=1e-14
            )

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            chi_square_tail(1.0, 0.0)
        with pytest.raises(ValueError):
            chi_square_tail(-1.0, 2.0)
        with pytest.raises(ValueError):
            student_t_tail(1.0, -1.0)


class TestWelch:
    def test_identical_samples(self):
        result = welch_t_one_sided([3, 4, 5], [3, 4, 5])
        assert result.statistic == 0.0
        assert result.p_value == 0.5
        assert result.direction == ONE_SIDED_UPPER

    def test_hand_computed_case(self):
        result = welch_t_one_sided([3, 4, 5], [1, 2, 3])
        assert result.statistic == pytest.approx(2.449489742783178, rel=1e-12)
        assert result.df == pytest.approx(4.0, rel=1e-12)
        assert result.p_value == pytest.approx(WELCH_P, rel=1e-9)

    def test_order_invariance_within_samples(self):
        a = [1.4, 2.2, 0.9, 3.3, 2.8]
        b = [0.2, 1.1, 0.7, 0.4]
        ref = welch_t_one_sided(a, b)
        shuffled = welch_t_one_sided(list(reversed(a)), [0.7, 0.2, 0.4, 1.1])
        assert shuffled == ref

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            welch_t_one_sided([1.0], [1.0, 2.0])

    def test_double_degenerate_rejected(self):
        with pytest.raises(ValueError):
            welch_t_one_sided([2.0, 2.0], [1.0, 1.0])

    @pytest.mark.parametrize("sample_hi", ([1e308, 0.0, 2.0], [1e200, -1e200, 2.0]))
    def test_overflowing_squared_deviations_raise(self, sample_hi):
        # finite values whose squared deviations exceed the float range
        with pytest.raises(OverflowError):
            welch_t_one_sided(sample_hi, [0.0, 1.0, 3.0])

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_samples_rejected(self, bad):
        # a NaN sample gave a NaN statistic, df and p-value
        with pytest.raises(ValueError, match="finite"):
            welch_t_one_sided([bad, 1.0, 2.0], [0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="finite"):
            welch_t_one_sided([0.0, 1.0, 3.0], [1.0, bad, 2.0])

    def test_single_degenerate_sample_is_fine(self):
        result = welch_t_one_sided([2.0, 2.0, 2.0], [0.0, 1.0, 2.0])
        assert result.p_value < 0.5


class TestTwoProportion:
    def test_equal_rates(self):
        result = two_proportion_one_sided(30, 100, 30, 100)
        assert result.statistic == 0.0
        assert result.p_value == 0.5
        assert result.direction == ONE_SIDED_LOWER
        assert not result.degenerate

    def test_hand_computed_case(self):
        result = two_proportion_one_sided(65, 100, 82, 100)
        assert result.statistic == pytest.approx(PROP_Z, rel=1e-10)
        assert result.p_value == pytest.approx(PROP_P, rel=1e-9)

    def test_monotone_in_first_count(self):
        previous = 1.0
        for x1 in range(82, -1, -1):
            p = two_proportion_one_sided(x1, 100, 82, 100).p_value
            assert p <= previous + 1e-15
            previous = p

    def test_degenerate_pooled_proportion(self):
        for x in (0, 1):
            result = two_proportion_one_sided(x * 10, 10, x * 20, 20)
            assert result.degenerate
            assert result.p_value == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            two_proportion_one_sided(5, 0, 1, 10)
        with pytest.raises(ValueError):
            two_proportion_one_sided(11, 10, 1, 10)


class TestChiSquare:
    def test_exact_independence(self):
        result = chi_square_independence([[10, 10], [10, 10]])
        assert result.statistic == 0.0
        assert result.p_value == 1.0
        assert result.direction == TWO_SIDED

    def test_closed_form_2x2(self):
        result = chi_square_independence([[20, 10], [10, 20]])
        assert result.statistic == pytest.approx(CHI2_2X2, rel=1e-12)
        assert result.df == 1.0
        assert result.p_value == pytest.approx(CHI2_2X2_P, rel=1e-9)

    def test_row_and_column_swap_invariance(self):
        base = chi_square_independence([[20, 10], [10, 20]])
        swapped_rows = chi_square_independence([[10, 20], [20, 10]])
        swapped_cols = chi_square_independence([[10, 20], [20, 10]][::-1])
        assert swapped_rows.statistic == pytest.approx(base.statistic, rel=1e-12)
        assert swapped_cols.statistic == pytest.approx(base.statistic, rel=1e-12)

    def test_wider_table(self):
        result = chi_square_independence([[12, 7, 11], [8, 13, 9]])
        assert result.df == 2.0
        assert 0.0 < result.p_value < 1.0

    def test_zero_margin_identified(self):
        with pytest.raises(ValueError, match="row 1"):
            chi_square_independence([[5, 5], [0, 0]])
        with pytest.raises(ValueError, match="column 0"):
            chi_square_independence([[0, 5], [0, 5]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            chi_square_independence([[1, 2]])
        with pytest.raises(ValueError):
            chi_square_independence([[1, 2], [3]])
        with pytest.raises(ValueError):
            chi_square_independence([[1, -2], [3, 4]])


class TestCmh:
    def test_single_stratum_identity(self):
        result = cmh_conditional_independence([[[20, 10], [10, 20]]])
        assert result.statistic == pytest.approx(59.0 / 60.0 * CHI2_2X2, rel=1e-12)
        assert result.df == 1.0

    def test_two_identical_strata(self):
        stratum = [[20, 10], [10, 20]]
        result = cmh_conditional_independence([stratum, stratum])
        assert result.statistic == pytest.approx(13.111111111111, rel=1e-10)

    def test_degenerate_stratum_contributes_nothing(self):
        base = cmh_conditional_independence([[[20, 10], [10, 20]]])
        padded = cmh_conditional_independence(
            [[[20, 10], [10, 20]], [[0, 0], [5, 7]], [[3, 0], [9, 0]]]
        )
        assert padded.statistic == pytest.approx(base.statistic, rel=1e-12)

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError):
            cmh_conditional_independence([[[0, 0], [1, 2]], [[4, 5], [0, 0]]])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            cmh_conditional_independence([[[1, 2, 3], [4, 5, 6]]])

    def test_matches_scaled_pearson_on_random_tables(self):
        rng = random.Random(20260810)
        checked = 0
        while checked < 200:
            table = [
                [rng.randint(1, 30), rng.randint(1, 30)],
                [rng.randint(1, 30), rng.randint(1, 30)],
            ]
            n = sum(sum(row) for row in table)
            pearson = chi_square_independence(table)
            cmh = cmh_conditional_independence([table])
            assert cmh.statistic == pytest.approx(
                (n - 1) / n * pearson.statistic, rel=1e-9, abs=1e-12
            )
            checked += 1


def _random_strata(rng):
    """1-8 integer 2x2 strata; about a third have a zero row or column margin."""
    strata = []
    for _ in range(rng.randint(1, 8)):
        table = [[rng.randint(0, 12) for _ in range(2)] for _ in range(2)]
        if rng.random() < 1 / 3:
            if rng.random() < 0.5:
                table[rng.randint(0, 1)] = [0, 0]
            else:
                column = rng.randint(0, 1)
                table[0][column] = table[1][column] = 0
        strata.append(table)
    return strata


def test_cmh_matches_exact_rational_oracle():
    rng = random.Random(20261018)
    checked = degenerate = 0
    for _ in range(500):
        strata = _random_strata(rng)
        exact = cmh_statistic_oracle(strata)
        if exact is None:
            with pytest.raises(ValueError, match="every stratum is degenerate"):
                cmh_conditional_independence(strata)
            degenerate += 1
            continue
        result = cmh_conditional_independence(strata)
        assert result.statistic == pytest.approx(float(exact), rel=1e-12, abs=1e-12)
        assert result.p_value == pytest.approx(
            chi_square_tail_oracle(float(exact), 1.0), rel=1e-9, abs=1e-15
        )
        checked += 1
    assert checked > 400 and degenerate > 0


def test_welch_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(7)
    for _ in range(200):
        hi = [rng.gauss(0.3, rng.uniform(0.1, 3.0)) for _ in range(rng.randint(2, 40))]
        lo = [rng.gauss(0.0, rng.uniform(0.1, 3.0)) for _ in range(rng.randint(2, 40))]
        result = welch_t_one_sided(hi, lo)
        ref = stats.ttest_ind(hi, lo, equal_var=False, alternative="greater")
        assert result.statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert result.df == pytest.approx(ref.df, rel=1e-12)
        assert result.p_value == pytest.approx(ref.pvalue, rel=1e-9)
