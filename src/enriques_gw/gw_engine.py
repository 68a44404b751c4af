"""Gromov-Witten invariants of the Enriques surface X and of the
Enriques Calabi-Yau 3-fold Q in genus <= 2.

The surface-level quantity is the genus-1 invariant <1>_{1,beta}; it is
pinned down by three facts:

  * it vanishes for non-positive classes and for classes of negative
    square;
  * on positive isotropic classes n*F (F primitive isotropic) it equals
    2*sigma_{-1}(n) for odd n and 2*sigma_{-1}(n) - sigma_{-1}(n/2) for
    even n;
  * for positive beta of positive square it satisfies the recursion
    <1>_beta * <beta,beta> = 8 * sum over ordered decompositions
    beta = beta1 + beta2 into positive classes of square >= 0 of
    <1>_beta1 * <1>_beta2 * <beta1,beta2>.

Everything else here (fiber invariants N_{g,(beta,d)} of Q, the genus-2
lambda_1 integral, the degree-d genus-2 formula and the packaging of
its degree series by an E_2 factor) is a closed-form consequence of
that one function.  In particular the recursion turns the genus-2
core 4 <1>_beta s + 16 sum <1><1><beta1,beta2> into 6 <1>_beta s, so
N_{2,(beta,d)} = (3/2) sigma_1(d) N_{1,(beta,0)} s for d >= 1 needs
<1>_beta alone.

The production functions evaluate <1>_beta on the one process-wide,
orbit-keyed engine sweeps.ENGINE, re-exported here as ENGINE, which
stores only <1>; enriques_genus1 keeps the per-class recursion over
enumerated decompositions as the independent oracle the engine is
checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    LatticeVector,
    as_vector,
    divisibility,
    enumerate_decompositions,
    is_positive,
    pair,
    square,
)
from .qseries import eisenstein, sigma_pow
from .sweeps import ENGINE, isotropic_genus1


@dataclass(frozen=True)
class CurveClassQ:
    """Curve class (beta, d) on Q: an Enriques class plus a fiber degree."""

    beta: LatticeVector
    d: int

    def __post_init__(self):
        object.__setattr__(self, "beta", as_vector(self.beta))
        object.__setattr__(self, "d", int(self.d))
        if self.d < 0:
            raise ValueError("fiber degree must be nonnegative")


@dataclass(frozen=True)
class InvariantRecord:
    genus: int
    cls: CurveClassQ
    value: Fraction
    rule: str


def as_curve_class(cls) -> CurveClassQ:
    if isinstance(cls, CurveClassQ):
        return cls
    beta, d = cls
    return CurveClassQ(as_vector(beta), int(d))


def _genus1(beta, memo):
    if not is_positive(beta):
        return Fraction(0)
    s = square(beta)
    if s < 0:
        return Fraction(0)
    cached = memo.get(beta.coords)
    if cached is not None:
        return cached
    if s == 0:
        value = isotropic_genus1(divisibility(beta))
    else:
        total = Fraction(0)
        for beta1, beta2 in enumerate_decompositions(beta):
            v1 = _genus1(beta1, memo)
            if v1:
                v2 = _genus1(beta2, memo)
                if v2:
                    total += v1 * v2 * pair(beta1, beta2)
        value = Fraction(8, s) * total
    memo[beta.coords] = value
    return value


def enriques_genus1(beta, memo=None) -> Fraction:
    """<1>_{1,beta} on the Enriques surface, exact, by the per-class
    recursion over lattice.enumerate_decompositions.

    This is the independent oracle for the engine behind the production
    functions below.  `memo` (a fresh dict per call by default) can be
    shared between calls; it gathers every class of square >= 0 met, and
    those of positive square are the ones whose decompositions were read.
    """
    beta = as_vector(beta)
    if beta.is_zero():
        raise ValueError("unstable class")
    if memo is None:
        memo = {}
    return _genus1(beta, memo)


def _stable(beta):
    beta = as_vector(beta)
    if beta.is_zero():
        raise ValueError("unstable class")
    return beta.coords


def n1_fiber(beta) -> Fraction:
    """N_{1,(beta,0)} on Q: four times the surface genus-1 invariant."""
    return n_invariant(1, (_stable(beta), 0))


def enriques_genus2_lambda1(beta) -> Fraction:
    """The genus-2 lambda_1 Hodge integral: (1/16) <1>_{1,beta} <beta,beta>."""
    c = _stable(beta)
    return Fraction(1, 16) * ENGINE.class_value(c[0], c[1], c[2:]) * square(beta)


def n2_fiber(beta) -> Fraction:
    """N_{2,(beta,0)} = -(1/16) N_{1,(beta,0)} <beta,beta>."""
    return n_invariant(2, (_stable(beta), 0))


def n_invariant(genus: int, cls) -> Fraction:
    """N_{g,(beta,d)} for g <= 2; total on honest curve classes.

    Vanishing cases return exact zero; only the unstable class (0,0) in
    genus <= 1 and genus >= 3 are errors.
    """
    return invariant_record(genus, cls).value


def value_rule(genus: int, d: int, s: int, value1):
    """(N_{g,(beta,d)}, rule) for a nonzero positive class beta of square s.

    `value1` is a zero-argument callable giving <1>_beta, called only
    when the rule reads it.  For d >= 1 the genus-2 value is the degree
    series (3/2) sigma_1(d) N_{1,(beta,0)} s = 6 sigma_1(d) <1>_beta s.
    """
    if genus == 0:
        return Fraction(0), "vanishing"
    if genus == 1:
        if d > 0 or s < 0:
            return Fraction(0), "vanishing"
        return 4 * value1(), ("isotropic base" if s == 0 else "recursion")
    if d == 0:
        return Fraction(-1, 4) * value1() * s, "fiber"
    return sigma_pow(1, d) * 6 * value1() * s, "degree series"


def invariant_record(genus: int, cls) -> InvariantRecord:
    if genus not in (0, 1, 2):
        raise ValueError("genus out of supported range")
    cls = as_curve_class(cls)
    beta, d = cls.beta, cls.d
    if genus <= 1 and beta.is_zero() and d == 0:
        raise ValueError("unstable class")
    if genus == 1 and beta.is_zero():
        return InvariantRecord(genus, cls, 12 * sigma_pow(-1, d), "isotropic base")
    if beta.is_zero() or not is_positive(beta):
        return InvariantRecord(genus, cls, Fraction(0), "vanishing")
    c = beta.coords
    value, rule = value_rule(genus, d, square(beta),
                             lambda: ENGINE.class_value(c[0], c[1], c[2:]))
    return InvariantRecord(genus, cls, value, rule)


def e2_corollary_check(beta, order: int = 20) -> dict:
    """Check sum_d N_{2,(beta,d)} q^d = E_2(q) * N_{2,(beta,0)} to the
    given order, coefficient by coefficient, exactly, on the values
    n_invariant gives.
    """
    beta = as_vector(beta)
    if beta.is_zero() or not is_positive(beta):
        raise ValueError("check requires a nonzero positive class")
    e2 = eisenstein(2, order)
    lhs = [n_invariant(2, (beta, d)) for d in range(0, order + 1)]
    rhs = [e2.coeff(d) * lhs[0] for d in range(0, order + 1)]
    first_mismatch = None
    for d, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            first_mismatch = d
            break
    return {
        "beta": list(beta.coords),
        "order": order,
        "lhs": [str(c) for c in lhs],
        "rhs": [str(c) for c in rhs],
        "equal": first_mismatch is None,
        "first_mismatch": first_mismatch,
    }
