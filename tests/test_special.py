"""Special-function accuracy against independent oracles."""

import math

import pytest

from oxequity.stats.special import (
    normal_cdf,
    normal_quantile,
    normal_quantiles,
    regularized_beta,
    regularized_gamma_q,
    sigmoids,
)

from oracles import normal_cdf_oracle, normal_quantile_oracle

# frozen from the bisection-on-erf-series oracle
Q_975 = 1.9599639845400542
# edge of Acklam's lower-tail branch
P_LOW = 0.02425


def test_quantile_at_half_is_zero():
    assert abs(normal_quantile(0.5)) < 1e-12


def test_quantile_975_matches_oracle():
    assert normal_quantile_oracle(0.975) == pytest.approx(Q_975, abs=1e-12)
    assert normal_quantile(0.975) == pytest.approx(Q_975, abs=1e-9)


@pytest.mark.parametrize("p", [i / 100 for i in range(1, 100)])
def test_cdf_quantile_inverse_pair(p):
    assert normal_cdf(normal_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_quantile_is_inverse_in_x():
    for x in [-3.0 + 0.25 * i for i in range(25)]:
        assert normal_quantile(normal_cdf(x)) == pytest.approx(x, abs=1e-8)


def test_cdf_absolute_accuracy():
    for x in [-8.0 + 0.5 * i for i in range(33)]:
        assert normal_cdf(x) == pytest.approx(normal_cdf_oracle(x), abs=1e-10)


def test_cdf_relative_accuracy():
    # Down to x = -37, where the tail is 5.7e-300, near the float range's end.
    for x in [-37.0 + 0.25 * i for i in range(181)]:
        assert normal_cdf(x) == pytest.approx(normal_cdf_oracle(x), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
def test_quantile_rejects_out_of_domain(p):
    with pytest.raises(ValueError):
        normal_quantile(p)


def test_column_quantiles_equal_scalar_at_branch_edges():
    ps = [2.0**-54, 0.5, 1.0 - 2.0**-53]
    for edge in (P_LOW, 1.0 - P_LOW):
        ps += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 1.0)]
    assert normal_quantiles(ps) == [normal_quantile(p) for p in ps]
    assert normal_quantiles(iter(ps)) == normal_quantiles(ps)
    assert normal_quantiles([]) == []


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, math.nan])
def test_column_quantiles_reject_any_out_of_domain_entry(bad):
    with pytest.raises(ValueError):
        normal_quantiles([0.3, bad, 0.7])
    with pytest.raises(ValueError):
        normal_quantile(bad)


def test_quantile_against_scipy():
    norm = pytest.importorskip("scipy.stats").norm
    # log-spaced lower tail from 1e-300, an even grid through the body, and
    # an upper tail to 1 - 1e-6; above that p carries too few digits.
    ps = [10.0 ** (-300.0 + k * 0.1) for k in range(2998)]
    ps += [k / 1000 for k in range(1, 1000)]
    ps += [1.0 - 10.0 ** (-0.3 - k * 0.01) for k in range(571)]
    for p, x in zip(ps, normal_quantiles(ps)):
        expected = float(norm.ppf(p))
        assert abs(x - expected) <= 1e-11 * max(1.0, abs(expected)), p


def test_quantile_extreme_tails_monotone():
    values = [normal_quantile(p) for p in (1e-12, 1e-8, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-8)]
    assert values == sorted(values)
    assert normal_quantile(1e-12) == pytest.approx(-7.034484, abs=1e-4)


def test_gamma_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for a in (0.5, 1.0, 3.0, 12.0, 50.0):
        for x in (0.05, 0.8, 4.0, 20.0, 80.0):
            expected = float(mp.gammainc(a, x, mp.inf, regularized=True))
            assert regularized_gamma_q(a, x) == pytest.approx(expected, rel=1e-11, abs=1e-300)


def test_beta_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for a, b in ((0.5, 0.5), (2.0, 3.0), (10.0, 0.5), (25.0, 25.0)):
        for x in (0.01, 0.2, 0.5, 0.9, 0.999):
            expected = float(mp.betainc(a, b, 0, x, regularized=True))
            assert regularized_beta(x, a, b) == pytest.approx(expected, rel=1e-10, abs=1e-300)


def test_beta_edge_values():
    assert regularized_beta(0.0, 2.0, 3.0) == 0.0
    assert regularized_beta(1.0, 2.0, 3.0) == 1.0
    with pytest.raises(ValueError):
        regularized_beta(0.5, -1.0, 2.0)


def test_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        regularized_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        regularized_gamma_q(1.0, -0.5)


def test_sigmoid_stability_and_symmetry():
    assert sigmoids([0.0, 800.0]) == [0.5, 1.0]
    assert sigmoids([-800.0])[0] == pytest.approx(0.0, abs=1e-300)
    xs = [-5.0, -1.3, 0.7, 4.2]
    for p, q in zip(sigmoids(xs), sigmoids([-x for x in xs])):
        assert p + q == pytest.approx(1.0, abs=1e-15)


def test_sigmoid_matches_closed_form():
    p16, p085, m3 = sigmoids([1.6, 0.85, -3.0])
    assert p16 == pytest.approx(0.832018385134, abs=1e-10)
    assert p085 == pytest.approx(0.700567142474, abs=1e-10)
    assert m3 == pytest.approx(1.0 / (1.0 + math.exp(3.0)), abs=1e-15)
