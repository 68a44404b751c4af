"""Relative-invariant bookkeeping for degenerations along an elliptic
fiber: the coefficients of the two relative-insertion patterns, the
triangular recursion those coefficients force on the unknown relative
invariants, and the split of the genus-2 degree-d invariant into its
two degeneration contributions.

The punchline of the recursion is structural: whatever rational `base`
value seeds the right-hand side, the unique solution is I_d = 2 * base
for every d.  solve_I_recursion computes the solution independently by
forward substitution so that tests can confirm the closed form rather
than assume it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import List

import numpy as np

from .gw_engine import ENGINE
from .lattice import RANK, _CARTAN_NP, as_vector, enumerate_decompositions, is_positive, square
from .qseries import sigma_pow
from .sweeps import orbit_ids


def p1_relative_coeff(kind: str, d: int, r: int = None) -> Fraction:
    """Coefficient of one relative insertion pattern in degree d.

    kind "full": the single maximal-contact pattern, 1/(2d)!.
    kind "mixed": the split pattern with contact orders d+r and d-r,
    1/((d+r)! (d-r)!), defined for 1 <= r <= d-1.
    """
    if d < 1:
        raise ValueError("degree must be positive")
    if kind == "full":
        if r is not None:
            raise ValueError("full pattern takes no split parameter")
        return Fraction(1, factorial(2 * d))
    if kind == "mixed":
        if r is None or not 1 <= r <= d - 1:
            raise ValueError("mixed pattern requires 1 <= r <= d-1")
        return Fraction(1, factorial(d + r) * factorial(d - r))
    raise ValueError("unknown pattern kind")


def lemma_d5_value(d: int, base) -> Fraction:
    """Right-hand side of the degree-d relative relation: (2d/(d!)^2) * base.
    The paper's lemma formula, kept as library API; solve_I_recursion
    reads it."""
    if d < 1:
        raise ValueError("degree must be positive")
    return Fraction(2 * d, factorial(d) ** 2) * Fraction(base)


def solve_I_recursion(d_max: int, base) -> List[Fraction]:
    """Solve the triangular system

        I_d / (2d-1)! + sum_{r=1}^{d-1} 2r * I_r / ((d+r)! (d-r)!)
            = (2d/(d!)^2) * base

    for I_1..I_d_max by forward substitution.  Returns the list
    [I_1, ..., I_d_max]."""
    if d_max < 1:
        raise ValueError("degree bound must be positive")
    base = Fraction(base)
    solution: List[Fraction] = []
    for d in range(1, d_max + 1):
        rhs = lemma_d5_value(d, base)
        for r in range(1, d):
            rhs -= 2 * r * solution[r - 1] * p1_relative_coeff("mixed", d, r)
        solution.append(rhs * factorial(2 * d - 1))
    return solution


def lemma_d6_d7_prefactor(parity: str, m1: int, m2: int) -> Fraction:
    """Combinatorial prefactor of the two section-pattern families:
    odd pattern 2/((m1!)^2 (m2!)^2), even pattern 2*m1*m2/((m1!)^2 (m2!)^2).
    The even pattern needs both multiplicities positive.  The paper's
    lemma formula, kept as library API; no computation here reads it."""
    if parity == "odd":
        if m1 < 0 or m2 < 0:
            raise ValueError("multiplicities must be nonnegative")
        return Fraction(2, factorial(m1) ** 2 * factorial(m2) ** 2)
    if parity == "even":
        if m1 < 1 or m2 < 1:
            raise ValueError("even pattern requires positive multiplicities")
        return Fraction(2 * m1 * m2, factorial(m1) ** 2 * factorial(m2) ** 2)
    raise ValueError("parity must be 'odd' or 'even'")


@lru_cache(maxsize=64)
def _decomposition_sum(coords) -> Fraction:
    """sum <1>_b1 <1>_b2 <b1,b2> over enumerate_decompositions, <1> from
    the engine, one term per decomposition.  The parts' squares and the
    pairings <b1,b2> are formed in int64 from the Gram matrix.  A part of
    square >= 0 has E8 norm n <= 2 b1 b2, and |f_j|**2 <= 30 n,
    |(C f)_j|**2 <= 2 n, so every int64 sum stays below 128 b1 b2: exact
    for any class whose b1 b2 cells can be walked.  All parts with
    b2' >= 1 are keyed in one orbit_ids call, one modulus b2' per row, and
    are the roots of one ENGINE.evaluate call, which reads the values held
    in ENGINE.values and evaluates the misses on one schedule.  The
    products are summed in integers, one numerator per denominator, into
    one Fraction.  The sums of the 64 most recently used classes are
    cached."""
    pairs = enumerate_decompositions(as_vector(coords))
    parts = [p for both in pairs for p in both]
    x = np.array([p.coords for p in parts], dtype=np.int64).reshape(-1, RANK)
    xc = x[:, 2:] @ _CARTAN_NP
    squares = (2 * x[:, 0] * x[:, 1] - np.einsum("ij,ij->i", x[:, 2:], xc)).tolist()
    u, v = x[0::2], x[1::2]
    pairings = (u[:, 0] * v[:, 1] + u[:, 1] * v[:, 0]
                - np.einsum("ij,ij->i", xc[0::2], v[:, 2:])).tolist()
    keyed = x[:, 1] > 0
    b2s = x[:, 1].tolist()
    names = iter(orbit_ids(x[keyed, 1], x[keyed, 2:]))
    got = iter(ENGINE.evaluate([((b2, s, next(names)), p.b1, p.e8)
                                for p, b2, s in zip(parts, b2s, squares) if b2]))
    values = [next(got) if b2 else ENGINE.class_value(p.b1, 0, p.e8)
              for p, b2 in zip(parts, b2s)]
    sums = {}  # denominator -> numerator
    for v1, v2, pairing in zip(values[0::2], values[1::2], pairings):
        if v1 and v2:
            d = v1.denominator * v2.denominator
            sums[d] = sums.get(d, 0) + v1.numerator * v2.numerator * pairing
    den = lcm(*sums)
    return Fraction(sum(n * (den // d) for d, n in sums.items()), den)


def genus2_contributions(beta, d: int) -> dict:
    """Split N_{2,(beta,d)} into its two degeneration contributions:

        type_i  = 4 * sigma_1(d) * <1>_beta * <beta,beta>
        type_ii = 16 * sigma_1(d) * sum <1>_b1 <1>_b2 <b1,b2>

    over ordered positive decompositions beta = b1 + b2.  Their sum is
    the full degree-d invariant, which gw_engine.value_rule gives as
    6 * sigma_1(d) * <1>_beta * <beta,beta>.  <1> comes from the engine;
    the sum runs here, per decomposition, over enumerate_decompositions,
    so the split checks the recursion identity <1>_beta <beta,beta> = 8 *
    sum that the rule relies on."""
    beta = as_vector(beta)
    if d < 1:
        raise ValueError("degree must be positive")
    if beta.is_zero() or not is_positive(beta):
        raise ValueError("split requires a nonzero positive class")
    sig = sigma_pow(1, d)
    type_i = 4 * sig * ENGINE.class_value(beta.b1, beta.b2, beta.e8) * square(beta)
    type_ii = 16 * sig * _decomposition_sum(beta.coords)
    return {"type_i": type_i, "type_ii": type_ii}
