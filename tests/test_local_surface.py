from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enriques_gw import local_surface
from enriques_gw.local_surface import (
    MAX_LOCAL_INPUT,
    DescendentSpec,
    dimension_check,
    local_degree1,
    local_degree2,
    s2n_numerics,
    taubes_sign_from_chi,
    universality_map,
)

F = Fraction


def test_degree1_anchor_values():
    assert local_degree1([]) == 1
    assert local_degree1([], sign=-1) == -1
    assert local_degree1([0]) == 1
    assert local_degree1([1]) == F(-1, 12)
    assert local_degree1([2]) == F(1, 240)
    assert local_degree1([1, 1]) == F(1, 144)
    assert local_degree1([1], sign=-1) == F(1, 12)


def test_degree2_anchor_values():
    assert local_degree2([], g_C=2) == 2
    assert local_degree2([], g_C=0) == F(1, 2)
    assert local_degree2([1], g_C=0) == F(-1, 3)
    assert local_degree2([1], g_C=1) == F(-2, 3)
    assert local_degree2([2], g_C=0) == F(1, 15)
    assert local_degree2([1, 1], g_C=0) == F(2, 9)
    assert local_degree2([], g_C=1, sign=-1) == -1


def test_degree2_alpha_zero_matches_pure_doubling():
    # appending a weight-0 descendent only doubles the prefactor
    for alphas, g_C in [((), 0), ((1,), 1), ((2, 1), 0)]:
        base = local_degree2(alphas, g_C)
        assert local_degree2(alphas + (0,), g_C) == 2 * base


def test_input_validation():
    with pytest.raises(ValueError):
        local_degree1([1], sign=0)
    with pytest.raises(ValueError):
        local_degree1([-1])
    with pytest.raises(ValueError):
        local_degree2([1], g_C=-1)
    with pytest.raises(ValueError):
        local_degree2([-2], g_C=0)
    with pytest.raises(ValueError):
        DescendentSpec(alphas=(1, -1), m=0, g=1, d=1, g_C=0, sign=1)
    with pytest.raises(ValueError):
        DescendentSpec(alphas=(1,), m=0, g=1, d=1, g_C=0, sign=2)


# the largest inputs the cap admits, one for each of sum(alphas),
# len(alphas) and g_C, as (alphas, g_C)
LARGEST_LOCAL_INPUTS = [([1000], 0), ([500, 500], 0), ([0] * 1000, 0), ([], 1000),
                        ([1000], 1000), ([1] * 1000, 1000)]


@pytest.mark.parametrize("alphas, g_C", LARGEST_LOCAL_INPUTS)
def test_local_cap_admits_its_largest_inputs(alphas, g_C):
    assert MAX_LOCAL_INPUT == 1000
    value = local_degree2(alphas, g_C)
    if g_C == 0:
        # the two formulas differ by 2^(g_C + n - 1) 4^sum(alphas)
        assert value == local_degree1(alphas) * F(2) ** (len(alphas) - 1) * F(4) ** sum(alphas)
    for part in (value.numerator, value.denominator):
        assert len(str(abs(part))) < 3500


@pytest.mark.parametrize("alphas, g_C", [([1001], 0), ([500, 501], 0), ([0] * 1001, 0),
                                         ([], 1001), ([], 10 ** 12)])
def test_local_cap_refuses_before_any_factorial(monkeypatch, alphas, g_C):
    def refuse(n):
        raise AssertionError("factorial(%d) formed" % n)

    monkeypatch.setattr(local_surface, "factorial", refuse)
    with pytest.raises(ValueError, match="at most 1000"):
        local_degree2(alphas, g_C)
    if g_C == 0:
        with pytest.raises(ValueError, match="at most 1000"):
            local_degree1(alphas)


def test_descendent_spec_is_not_capped():
    spec = DescendentSpec(alphas=(5000, 5000), m=0, g=10001, d=1, g_C=1, sign=1)
    assert dimension_check(spec, [])


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5))
def test_degree1_is_permutation_invariant(alphas):
    want = local_degree1(alphas)
    assert local_degree1(sorted(alphas)) == want
    assert local_degree1(list(reversed(alphas))) == want


@given(
    st.lists(st.integers(min_value=0, max_value=6), min_size=0, max_size=5),
    st.integers(min_value=0, max_value=3),
)
def test_degree2_is_permutation_invariant(alphas, g_C):
    want = local_degree2(alphas, g_C)
    assert local_degree2(list(reversed(alphas)), g_C) == want
    assert local_degree2(sorted(alphas), g_C) == want


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_degree_values_relate_by_powers_of_four(alphas):
    # the two product formulas differ per insertion by (-2)^(2a) = 4^a
    n = len(alphas)
    ratio = local_degree2(alphas, g_C=1) / local_degree1(alphas)
    assert ratio == F(2) ** n * F(4) ** sum(alphas)


def test_dimension_check_cases():
    spec = DescendentSpec(alphas=(), m=0, g=1, d=1, g_C=1, sign=1)
    assert dimension_check(spec, [])
    spec = DescendentSpec(alphas=(1,), m=1, g=2, d=1, g_C=2, sign=1)
    assert dimension_check(spec, [])
    assert not dimension_check(spec, [1])
    spec = DescendentSpec(alphas=(1,), m=0, g=1, d=1, g_C=1, sign=1)
    assert not dimension_check(spec, [])
    assert dimension_check(spec, []) == (spec.g - 1 + spec.m == 1)


def test_universality_map():
    assert universality_map([3], 2, F(-1, 12)) == F(-1, 2)
    assert universality_map([2, 3], 1, F(1, 2)) == 3
    assert universality_map([], 5, F(7)) == 7
    with pytest.raises(ValueError):
        universality_map([1], 0, F(1))


def test_taubes_sign():
    assert taubes_sign_from_chi(0) == 1
    assert taubes_sign_from_chi(4) == 1
    assert taubes_sign_from_chi(7) == -1
    assert taubes_sign_from_chi(-3) == -1


def test_s2n_table():
    want = {
        4: (2, 4, 3, 1),
        5: (8, 7, 9, -1),
        6: (18, 11, 19, -1),
    }
    for n, (k2, chi, g_k, sign) in want.items():
        got = s2n_numerics(n)
        assert got == {"n": n, "K2": k2, "chi": chi, "g_K": g_k, "sign": sign}
    for n in range(4, 30):
        got = s2n_numerics(n)
        assert got["g_K"] == got["K2"] + 1
        assert got["sign"] == taubes_sign_from_chi(got["chi"])


def test_s2n_rejects_low_degree():
    for n in (3, 2, 0, -1):
        with pytest.raises(ValueError, match="general type"):
            s2n_numerics(n)
