"""Conjectural local invariants of a surface inside a Calabi-Yau
3-fold along curves in low degree, plus the numerology of the standard
general-type testing family.

Everything here is exact rational arithmetic.  The two closed product
formulas are conjectural; they are exposed so that their consequences
(signs, dimension constraints, specializations) can be probed against
the rest of the package and against any external count.  Every input
passes one check, `_checked_alphas`; the two formulas also refuse inputs
past MAX_LOCAL_INPUT there, before any factorial or power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Sequence, Tuple

# cap on each of sum(alphas), len(alphas) and g_C in the two formulas; at
# the cap a value's numerator and denominator stay under 3,500 digits
MAX_LOCAL_INPUT = 1000


def _checked_alphas(alphas: Sequence[int], sign: int, g_C=None) -> Tuple[int, ...]:
    """alphas as a tuple of ints, after refusing a negative exponent or a
    sign other than +1 or -1; given a base genus (the two formulas), also
    a negative g_C and inputs past MAX_LOCAL_INPUT."""
    alphas = tuple(int(a) for a in alphas)
    if any(a < 0 for a in alphas):
        raise ValueError("descendent exponents must be nonnegative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if g_C is not None and g_C < 0:
        raise ValueError("base genus must be nonnegative")
    if g_C is not None and max(sum(alphas), len(alphas), g_C) > MAX_LOCAL_INPUT:
        raise ValueError("the exponents' sum, their number and the base genus "
                         "must each be at most %d" % MAX_LOCAL_INPUT)
    return alphas


@dataclass(frozen=True)
class DescendentSpec:
    """Shape of a local descendent invariant: point-descendent exponents
    alphas, m marked divisor insertions, domain genus g, curve degree d
    over a base curve of genus g_C, and an overall sign."""

    alphas: Tuple[int, ...]
    m: int
    g: int
    d: int
    g_C: int
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "alphas", _checked_alphas(self.alphas, self.sign))


def dimension_check(spec: DescendentSpec, alphas_tilde: Sequence[int]) -> bool:
    """Whether the insertions saturate the virtual dimension:
    g - 1 - d*(g_C - 1) + m == sum(alphas) + sum(alphas_tilde)."""
    lhs = spec.g - 1 - spec.d * (spec.g_C - 1) + spec.m
    return lhs == sum(spec.alphas) + sum(int(a) for a in alphas_tilde)


def _alpha_factor(alpha: int, two_power: int) -> Fraction:
    return Fraction(factorial(alpha), factorial(2 * alpha + 1)) * Fraction(-2) ** two_power


def local_degree1(alphas: Sequence[int], sign: int = 1) -> Fraction:
    """Degree-1 local descendent value:
    sign * prod_i alpha_i! / (2 alpha_i + 1)! * (-2)^(-alpha_i).

    The empty product gives sign * 1.  Inputs past MAX_LOCAL_INPUT are refused.
    """
    value = Fraction(sign)
    for a in _checked_alphas(alphas, sign, 0):
        value *= _alpha_factor(a, -a)
    return value


def local_degree2(alphas: Sequence[int], g_C: int, sign: int = 1) -> Fraction:
    """Degree-2 local descendent value over a genus g_C base:
    sign * 2^(g_C + n - 1) * prod_i alpha_i! / (2 alpha_i + 1)! * (-2)^(alpha_i)
    with n = len(alphas).  The empty product at g_C = 2 gives sign * 2.
    Inputs past MAX_LOCAL_INPUT are refused.
    """
    alphas = _checked_alphas(alphas, sign, g_C)
    value = Fraction(sign) * Fraction(2) ** (g_C + len(alphas) - 1)
    for a in alphas:
        value *= _alpha_factor(a, a)
    return value


def universality_map(divisor_pairings: Sequence[int], d: int, local_value) -> Fraction:
    """Push a local value to a global one: d^n * prod_i (K_S . D_i) * local_value,
    where divisor_pairings lists the canonical pairings K_S . D_i."""
    if d <= 0:
        raise ValueError("degree must be positive")
    pairings = [int(p) for p in divisor_pairings]
    value = Fraction(local_value) * Fraction(d) ** len(pairings)
    for p in pairings:
        value *= p
    return value


def taubes_sign_from_chi(chi: int) -> int:
    """Overall sign (-1)^chi attached to an embedded curve of Euler
    characteristic chi."""
    return -1 if chi % 2 else 1


def s2n_numerics(n: int) -> dict:
    """Invariants of the degree-n cyclic branched double plane S_n:
    canonical square K^2 = 2(n-3)^2, holomorphic Euler characteristic
    chi = 2 + n(n-3)/2, canonical-curve genus g_K = K^2 + 1, and the
    sign (-1)^chi.  Defined for n >= 4; below that the surface is not
    of general type and the numerology does not apply."""
    if n < 4:
        raise ValueError("surface is not of general type for n < 4")
    k2 = 2 * (n - 3) ** 2
    chi_num = 2 * 2 + n * (n - 3)
    if chi_num % 2 != 0:
        raise ValueError("nonintegral Euler characteristic")
    chi = chi_num // 2
    return {
        "n": n,
        "K2": k2,
        "chi": chi,
        "g_K": k2 + 1,
        "sign": taubes_sign_from_chi(chi),
    }
