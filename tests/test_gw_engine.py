import time
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from enriques_gw.gw_engine import (
    CurveClassQ,
    e2_corollary_check,
    enriques_genus1,
    enriques_genus2_lambda1,
    invariant_record,
    isotropic_genus1,
    n1_fiber,
    n2_fiber,
    n_invariant,
    value_rule,
)
from enriques_gw.lattice import (
    LatticeVector,
    basis_vector,
    decompositions_box_oracle,
    enumerate_decompositions,
    pair,
    square,
)

F = Fraction
V1 = basis_vector(1)
V2 = basis_vector(2)
ZERO = LatticeVector((0,) * 10)
ROOT = LatticeVector((0, 0, 1, 0, 0, 0, 0, 0, 0, 0))


def vec(*coords):
    return LatticeVector(coords)


def sigma_minus1(n):
    return sum(F(1, d) for d in sympy.divisors(n))


# ---------------------------------------------------------------------------
# genus 1 on the surface
# ---------------------------------------------------------------------------

def test_primitive_isotropic_value():
    assert enriques_genus1(V1) == 2
    assert enriques_genus1(V2) == 2


def test_isotropic_multiples_match_divisor_sums():
    for n in range(1, 21):
        want = 2 * sigma_minus1(n)
        if n % 2 == 0:
            want -= sigma_minus1(n // 2)
        assert enriques_genus1(n * V1) == want
        assert isotropic_genus1(n) == want


def test_isotropic_spot_values():
    got = [enriques_genus1(n * V1) for n in (1, 2, 3, 4)]
    assert got == [2, 2, F(8, 3), 2]


def test_first_recursive_values():
    assert enriques_genus1(V1 + V2) == 32
    assert enriques_genus1(2 * V1 + V2) == 288
    assert enriques_genus1(V1 + 2 * V2) == 288


def test_root_shifted_class():
    # (1,1,root) is isotropic: 2*1*1 - 2 = 0, divisibility 1
    beta = V1 + V2 + ROOT
    assert square(beta) == 0
    assert enriques_genus1(beta) == 2


def test_unstable_class_raises():
    with pytest.raises(ValueError, match="unstable"):
        enriques_genus1(ZERO)


def test_nonpositive_classes_vanish():
    assert enriques_genus1(-1 * V1) == 0
    assert enriques_genus1(vec(1, 0, 1, 0, 0, 0, 0, 0, 0, 0)) == 0


@settings(max_examples=200)
@given(st.tuples(*[st.integers(min_value=-4, max_value=4)] * 10))
def test_negative_square_classes_vanish(coords):
    beta = LatticeVector(coords)
    assume(square(beta) < 0)
    assert enriques_genus1(beta, memo={}) == 0


def test_enumerations_agree_on_every_class_the_recursion_read():
    # the recursion reads the decompositions of exactly the memo classes
    # of positive square; where both enumerations agree on all of them,
    # the recursion over the box oracle would give the same values
    memo = {}
    for beta in (V1 + V2, 2 * V1 + V2, V1 + V2 + ROOT, 2 * V2 + V1):
        enriques_genus1(beta, memo=memo)
    read = [coords for coords in memo if square(LatticeVector(coords)) > 0]
    assert sorted(read) == [(1, 1) + (0,) * 8, (1, 2) + (0,) * 8, (2, 1) + (0,) * 8]
    for coords in read:
        assert enumerate_decompositions(coords) == decompositions_box_oracle(coords)


def test_isotropic_genus1_rejects_nonpositive():
    with pytest.raises(ValueError):
        isotropic_genus1(0)


# ---------------------------------------------------------------------------
# threefold invariants
# ---------------------------------------------------------------------------

def test_fiber_invariants():
    assert n1_fiber(V1) == 8
    assert n1_fiber(V1 + V2) == 128
    assert n2_fiber(V1 + V2) == -16
    assert n2_fiber(2 * V1 + V2) == -288
    # isotropic classes have square 0, so the genus-2 fiber value vanishes
    assert n2_fiber(3 * V1) == 0


def test_lambda1_insertion():
    beta = V1 + V2
    assert enriques_genus2_lambda1(beta) == F(1, 16) * enriques_genus1(beta) * square(beta)
    assert enriques_genus2_lambda1(beta) == 4
    assert n2_fiber(beta) == -F(1, 16) * n1_fiber(beta) * square(beta)


def test_genus2_core_drives_positive_degrees():
    # the core 4 <1> s + 16 sum <1><1><b1,b2>, summed here per decomposition
    beta = V1 + V2
    memo = {}
    core = 4 * enriques_genus1(beta, memo=memo) * square(beta)
    for beta1, beta2 in enumerate_decompositions(beta):
        core += 16 * (enriques_genus1(beta1, memo=memo)
                      * enriques_genus1(beta2, memo=memo) * pair(beta1, beta2))
    value1 = lambda: enriques_genus1(beta, memo=memo)
    for d in (1, 2, 3, 7):
        sig = int(sympy.divisor_sigma(d, 1))
        assert n_invariant(2, (beta, d)) / sig == core
        assert value_rule(2, d, square(beta), value1) == (sig * core, "degree series")
    assert n_invariant(2, (beta, 1)) == 384
    for zero in (V1, vec(1, 1, 1, 1, 0, 0, 0, 0, 0, 0)):
        for d in (1, 2, 3):
            assert n_invariant(2, (zero, d)) == 0


def test_degree_only_classes():
    # genus 1: N_{1,(0,d)} = 12 sigma_{-1}(d)
    for d, want in [(1, 12), (2, 18), (3, 16), (4, 21)]:
        assert n_invariant(1, (ZERO, d)) == want
        assert n_invariant(1, (ZERO, d)) == 12 * sigma_minus1(d)
    # genus 2 collapses on the fiber ray
    assert n_invariant(2, (ZERO, 5)) == 0


def test_n_invariant_vanishing_and_errors():
    assert n_invariant(0, (V1 + V2, 3)) == 0
    assert n_invariant(1, (V1 + V2, 2)) == 0
    assert n_invariant(2, (-1 * V1, 2)) == 0
    with pytest.raises(ValueError, match="unstable"):
        n_invariant(1, (ZERO, 0))
    with pytest.raises(ValueError, match="genus"):
        n_invariant(3, (V1, 0))
    with pytest.raises(ValueError, match="genus"):
        n_invariant(-1, (V1, 0))


def test_curve_class_validation():
    cls = CurveClassQ(V1 + V2, 2)
    assert cls.beta == V1 + V2 and cls.d == 2
    with pytest.raises(ValueError):
        CurveClassQ(V1, -1)


def test_invariant_record_rules():
    assert invariant_record(1, (V1, 0)).rule == "isotropic base"
    assert invariant_record(1, (V1 + V2, 0)).rule == "recursion"
    assert invariant_record(1, (V1 + V2, 3)).rule == "vanishing"
    assert invariant_record(2, (V1 + V2, 0)).rule == "fiber"
    assert invariant_record(2, (V1 + V2, 4)).rule == "degree series"
    assert invariant_record(0, (V1, 0)).rule == "vanishing"
    record = invariant_record(2, (V1 + V2, 1))
    assert (record.genus, record.cls, record.value, record.rule) == (
        2, CurveClassQ(V1 + V2, 1), F(384), "degree series")


def test_e2_corollary_check_reports():
    report = e2_corollary_check(V1 + V2, order=12)
    assert report["equal"]
    assert report["first_mismatch"] is None
    with pytest.raises(ValueError):
        e2_corollary_check(ZERO)
    with pytest.raises(ValueError):
        e2_corollary_check(-1 * V1)


def test_e2_corollary_check_refuses_a_long_order_before_any_value():
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the cap"):
        e2_corollary_check(V1 + V2, order=10**6)
    assert time.perf_counter() - t0 < 0.1
