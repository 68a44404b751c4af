import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.utilities.iterables import partitions

from enriques_gw import qseries
from enriques_gw.qseries import (
    MAX_DIVISOR_ARG,
    MAX_ORDER,
    QSeries,
    bernoulli,
    c_coefficients,
    divisors,
    eisenstein,
    inv_even_eta_product,
    p2_discrepancy_report,
    p_series,
    p_series_substituted,
    s_polynomial,
    sigma_pow,
)

F = Fraction


# ---------------------------------------------------------------------------
# QSeries ring laws
# ---------------------------------------------------------------------------

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@st.composite
def series(draw, max_trunc=8):
    offset = draw(st.integers(min_value=-2, max_value=2))
    trunc = draw(st.integers(min_value=offset, max_value=max_trunc))
    size = trunc - offset + 1
    coeffs = draw(st.lists(rationals, min_size=size, max_size=size))
    return QSeries(offset, coeffs)


@given(series(), series())
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(series(), series())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@given(series(), series(), series())
def test_distributive_law(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(series())
def test_additive_inverse(a):
    zero = QSeries.zero(a.trunc, a.offset)
    assert a - a == zero


@given(series(), st.integers(min_value=-3, max_value=3))
def test_shift_is_multiplication_by_monomial(a, k):
    shifted = a.shift(k)
    assert shifted.offset == a.offset + k
    for n in range(shifted.offset, shifted.trunc + 1):
        assert shifted.coeff(n) == a.coeff(n - k)


def test_coefficients_beyond_truncation_raise():
    a = QSeries(0, [1, 2, 3])
    assert a.coeff(2) == 3
    with pytest.raises(ValueError):
        a.coeff(3)
    assert a.coeff(-5) == 0


# ---------------------------------------------------------------------------
# number-theoretic ingredients
# ---------------------------------------------------------------------------

def test_bernoulli_anchors():
    assert bernoulli(2) == F(1, 6)
    assert bernoulli(4) == F(-1, 30)
    assert bernoulli(12) == F(-691, 2730)


@given(st.integers(min_value=1, max_value=20))
def test_bernoulli_matches_sympy(n):
    want = sympy.bernoulli(2 * n)
    assert bernoulli(2 * n) == F(int(want.p), int(want.q))


def test_sigma_pow():
    assert sigma_pow(1, 6) == 12
    assert sigma_pow(3, 4) == 1 + 8 + 64
    assert sigma_pow(1, 0) == F(-1, 24)
    with pytest.raises(ValueError):
        sigma_pow(3, 0)
    with pytest.raises(ValueError):
        sigma_pow(1, -1)


@settings(max_examples=200)
@given(st.sampled_from([-1, 1, 3, 5, 7]), st.integers(min_value=1, max_value=2000))
def test_sigma_pow_matches_sympy_divisor_sums(n, k):
    assert sigma_pow(n, k) == sum(F(d) ** n for d in sympy.divisors(k))


@settings(max_examples=200)
@given(st.one_of(st.integers(min_value=1, max_value=5000),
                 st.integers(min_value=1, max_value=1000).map(lambda n: n * n)))
def test_divisors_match_sympy(k):
    assert divisors(k) == sympy.divisors(k)


def test_divisor_sums_past_the_cap_are_refused_before_the_walk():
    assert divisors(MAX_DIVISOR_ARG)[-2:] == [MAX_DIVISOR_ARG // 2, MAX_DIVISOR_ARG]
    cap = "%d exceeds the divisor cap %d" % (MAX_DIVISOR_ARG + 1, MAX_DIVISOR_ARG)
    for call in (lambda: divisors(MAX_DIVISOR_ARG + 1),
                 lambda: sigma_pow(1, MAX_DIVISOR_ARG + 1),
                 lambda: sigma_pow(-1, MAX_DIVISOR_ARG + 1)):
        with pytest.raises(ValueError, match=cap):
            call()


def test_eisenstein_expansions():
    e2 = eisenstein(2, 5)
    assert [e2.coeff(n) for n in range(4)] == [1, -24, -72, -96]
    e4 = eisenstein(4, 3)
    assert [e4.coeff(n) for n in range(3)] == [1, 240, 2160]
    e6 = eisenstein(6, 2)
    assert [e6.coeff(n) for n in range(2)] == [1, -504]
    with pytest.raises(ValueError):
        eisenstein(3, 5)
    with pytest.raises(ValueError, match="truncation order must be >= 0"):
        eisenstein(2, -1)


def test_inv_even_eta_product_anchors():
    eta = inv_even_eta_product(10)
    want = [1, 12, 90, 520, 2535, 10908]
    assert [eta.coeff(2 * n) for n in range(6)] == want
    # only even exponents appear
    assert all(eta.coeff(2 * n + 1) == 0 for n in range(5))


def _eta_product_oracle(trunc):
    """prod (1 - q^(2n))^(-12) multiplied out factor by factor, each
    (1 - x)^(-12) = sum_k C(k+11, 11) x^k at x = q^(2n)."""
    out = QSeries.constant(1, trunc)
    for n in range(1, trunc // 2 + 1):
        coeffs = [F(0)] * (trunc + 1)
        for k in range(trunc // (2 * n) + 1):
            coeffs[2 * n * k] = F(math.comb(k + 11, 11))
        out = out * QSeries(0, coeffs)
    return out


@pytest.mark.parametrize("trunc", list(range(0, 21)) + [41, 60])
def test_inv_even_eta_product_matches_the_product_oracle(trunc):
    assert inv_even_eta_product(trunc) == _eta_product_oracle(trunc)


def test_orders_past_the_cap_are_refused_before_any_coefficient(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a coefficient")

    monkeypatch.setattr(qseries, "sigma_pow", refuse)
    monkeypatch.setattr(qseries, "_divisor_power_sum", refuse)
    cap = "truncation order %d exceeds the cap %d" % (MAX_ORDER + 1, MAX_ORDER)
    for build in (lambda t: eisenstein(2, t), inv_even_eta_product,
                  lambda t: p_series(2, t), lambda t: p_series_substituted(3, t),
                  lambda t: c_coefficients(2, t)):
        with pytest.raises(ValueError, match=cap):
            build(MAX_ORDER + 1)
        with pytest.raises(ValueError, match="truncation order must be >= 0"):
            build(-1)


# ---------------------------------------------------------------------------
# the quasimodular P_g ladder
# ---------------------------------------------------------------------------

def test_s_polynomial_small_genus():
    assert s_polynomial(0) == {(): 1}
    assert s_polynomial(1) == {(1,): 1}
    # S_2 = x_1^2/2 + x_2
    assert s_polynomial(2) == {(2, 0): F(1, 2), (0, 1): 1}


@pytest.mark.parametrize("g", range(1, 11))
def test_s_polynomial_matches_sympy_partitions(g):
    want = {}
    for part in partitions(g):
        coeff = F(1)
        for m in part.values():
            coeff /= math.factorial(m)
        want[tuple(part.get(k, 0) for k in range(1, g + 1))] = coeff
    assert s_polynomial(g) == want
    assert len(want) == sympy.partition(g)


def test_p1_is_e2_over_12():
    p1 = p_series(1, 20)
    e2 = eisenstein(2, 20)
    assert p1 == e2 * F(1, 12)
    assert p_series_substituted(1, 20) == p1


def test_p2_printed_vs_substituted():
    printed = p_series(2, 12)
    substituted = p_series_substituted(2, 12)
    assert printed.coeff(0) == F(1, 240)
    assert substituted.coeff(0) == F(7, 1440)
    report = p2_discrepancy_report(12)
    assert not report["agree"]
    assert report["differences"][0]["exponent"] == 0


def test_c1_anchors():
    c1 = c_coefficients(1, 8)
    want = {-1: F(-1, 6), 0: 4, 1: 10, 2: 64, 3: 157, 4: 576, 5: F(4132, 3)}
    for n, value in want.items():
        assert c1.coeff(n) == value


def test_c2_anchors():
    c2 = c_coefficients(2, 8)
    assert c2.coeff(-1) == F(-1, 120)
    assert c2.coeff(0) == 0
    assert c2.coeff(2) == -32
    assert c2.coeff(4) == -576


def test_c2_even_part_tracks_c1():
    # at even exponents c_2(n) = -(n/4) c_1(n); odd exponents break this
    c1 = c_coefficients(1, 12)
    c2 = c_coefficients(2, 12)
    for n in range(0, 11, 2):
        assert c2.coeff(n) == -F(n, 4) * c1.coeff(n)
    assert c2.coeff(1) != -F(1, 4) * c1.coeff(1)


def test_c_coefficients_rejects_bad_genus():
    with pytest.raises(ValueError):
        c_coefficients(0, 5)

