from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from enriques_gw.gw_engine import n_invariant
from enriques_gw.lattice import basis_vector
from enriques_gw.relative_calculus import (
    genus2_contributions,
    lemma_d5_value,
    lemma_d6_d7_prefactor,
    p1_relative_coeff,
    solve_I_recursion,
)

F = Fraction
V1 = basis_vector(1)
V2 = basis_vector(2)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=64
).filter(lambda x: x != 0)


def test_coefficient_anchors():
    assert p1_relative_coeff("full", 1) == F(1, 2)
    assert p1_relative_coeff("full", 2) == F(1, 24)
    assert p1_relative_coeff("full", 3) == F(1, 720)
    assert p1_relative_coeff("mixed", 2, 1) == F(1, 6)
    assert p1_relative_coeff("mixed", 3, 1) == F(1, 48)
    assert p1_relative_coeff("mixed", 3, 2) == F(1, 120)
    # the mixed formula at the excluded endpoint r = d would collapse
    # to the full pattern value
    assert F(1, factorial(2 + 2) * factorial(0)) == p1_relative_coeff("full", 2)


def test_coefficient_bounds():
    with pytest.raises(ValueError):
        p1_relative_coeff("full", 0)
    with pytest.raises(ValueError):
        p1_relative_coeff("full", 2, r=1)
    with pytest.raises(ValueError):
        p1_relative_coeff("mixed", 3)
    with pytest.raises(ValueError):
        p1_relative_coeff("mixed", 3, 0)
    with pytest.raises(ValueError):
        p1_relative_coeff("mixed", 3, 3)
    with pytest.raises(ValueError):
        p1_relative_coeff("maximal", 3)


def test_coefficients_to_degree_4():
    # every pattern of degree d <= 4: the full one and the mixed r < d
    mixed = {(d, r) for d in range(1, 5) for r in range(1, d)}
    assert mixed == {(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)}
    for d in range(1, 5):
        assert p1_relative_coeff("full", d) == F(1, factorial(2 * d))
    for d, r in mixed:
        assert p1_relative_coeff("mixed", d, r) == F(1, factorial(d + r) * factorial(d - r))
    assert p1_relative_coeff("full", 3) == F(1, 720)
    assert p1_relative_coeff("mixed", 4, 2) == F(1, factorial(6) * factorial(2))


def test_d5_value():
    assert lemma_d5_value(1, 1) == 2
    assert lemma_d5_value(2, 1) == 1
    assert lemma_d5_value(3, F(1, 2)) == F(1, 12)
    with pytest.raises(ValueError):
        lemma_d5_value(0, 1)


@given(rationals, st.integers(min_value=1, max_value=25))
def test_recursion_solution_is_twice_the_base(base, d_max):
    solution = solve_I_recursion(d_max, base)
    assert len(solution) == d_max
    assert all(entry == 2 * base for entry in solution)


@given(rationals)
def test_recursion_solution_satisfies_the_system(base):
    d_max = 8
    solution = solve_I_recursion(d_max, base)
    for d in range(1, d_max + 1):
        lhs = solution[d - 1] / factorial(2 * d - 1)
        for r in range(1, d):
            lhs += 2 * r * solution[r - 1] * p1_relative_coeff("mixed", d, r)
        assert lhs == lemma_d5_value(d, base)


def test_recursion_rejects_bad_bound():
    with pytest.raises(ValueError):
        solve_I_recursion(0, 1)


def test_prefactor_anchors():
    assert lemma_d6_d7_prefactor("odd", 0, 0) == 2
    assert lemma_d6_d7_prefactor("odd", 1, 2) == F(1, 2)
    assert lemma_d6_d7_prefactor("odd", 2, 2) == F(1, 8)
    assert lemma_d6_d7_prefactor("even", 1, 1) == 2
    assert lemma_d6_d7_prefactor("even", 1, 2) == F(1, 1)
    assert lemma_d6_d7_prefactor("even", 3, 2) == F(2 * 6, 36 * 4)


def test_prefactor_validation():
    with pytest.raises(ValueError):
        lemma_d6_d7_prefactor("odd", -1, 0)
    with pytest.raises(ValueError):
        lemma_d6_d7_prefactor("even", 0, 1)
    with pytest.raises(ValueError):
        lemma_d6_d7_prefactor("mixed", 1, 1)


def test_genus2_split_anchor():
    split = genus2_contributions(V1 + V2, 1)
    assert split == {"type_i": F(256), "type_ii": F(128)}
    assert sum(split.values()) == n_invariant(2, (V1 + V2, 1)) == 384


def test_genus2_split_sums_to_the_invariant():
    for beta in (V1 + V2, 2 * V1 + V2):
        for d in (1, 2, 3):
            split = genus2_contributions(beta, d)
            assert sum(split.values()) == n_invariant(2, (beta, d))


def test_genus2_split_isotropic_class():
    # square zero kills the first contribution and decomposition sums
    split = genus2_contributions(2 * V1, 3)
    assert split["type_i"] == 0
    assert sum(split.values()) == n_invariant(2, (2 * V1, 3)) == 0


def test_genus2_split_validation():
    with pytest.raises(ValueError):
        genus2_contributions(V1, 0)
    with pytest.raises(ValueError):
        genus2_contributions(V1 - V1, 1)
    with pytest.raises(ValueError):
        genus2_contributions(-1 * V1, 2)
