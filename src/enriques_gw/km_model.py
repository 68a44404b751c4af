"""Heterotic-model predictions for fiber invariants and the comparison
harness against the recursion engine.

The prediction organizes fiber invariants into a generating function
whose building blocks are the Laurent coefficients c_g(n) produced by
qseries.c_coefficients.  Extracting the coefficient of a single class
beta gives a finite divisor sum:

    sum over n >= 1, n | div(beta):   c_g(idx(beta/n)) * 2^(3-2g) / n^(3-2g)
  - sum over n >= 1, 2n | div(beta):  c_g(idx(beta/(2n)))          / n^(3-2g)

where idx is the argument fed to c_g.  The source formula writes
c_g(<beta,beta>), but the c_g series is supported in odd exponents off
the pole while every lattice square is even, so the literal reading
annihilates everything.  Two conventions are therefore implemented:

    full: idx = <beta,beta>        half: idx = <beta,beta> / 2

Neither is asserted as ground truth; compare_engine_vs_km reports the
engine value side by side with both predictions, and km_f56_check tests
which convention satisfies the genus-2/genus-1 consistency relation.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from types import MappingProxyType

from .gw_engine import n1_fiber, n2_fiber, value_rule
from .lattice import as_vector, divisibility, is_positive, square
from .qseries import c_coefficients, divisors, sigma_pow
from .sweeps import genus1_box_groups


class KMConvention(enum.Enum):
    FULL = "full"
    HALF = "half"


def _as_convention(conv) -> KMConvention:
    if isinstance(conv, KMConvention):
        return conv
    return KMConvention(str(conv).lower())


def _index_of(s, conv):
    if conv is KMConvention.FULL:
        return s
    if s % 2 != 0:
        raise ValueError("odd square cannot be halved")
    return s // 2


def km_fiber_prediction(g, beta, conv, order=None):
    """Predicted N_{g,(beta,0)} for one class under one index convention.

    `order` sets the truncation of the c_g series; it defaults to
    square(beta) + 2 which covers every index the divisor sum can read.
    """
    if g not in (1, 2):
        raise ValueError("genus out of supported range")
    beta = as_vector(beta)
    if beta.is_zero() or not is_positive(beta):
        raise ValueError("prediction requires a nonzero positive class")
    conv = _as_convention(conv)
    s = square(beta)
    if order is None:
        order = max(s + 2, 2)
    c = c_coefficients(g, order)
    div = divisibility(beta)
    weight = 3 - 2 * g
    total = Fraction(0)

    def c_at(idx):
        if idx > c.trunc:
            raise ValueError("c series truncated below requested index")
        return c.coeff(idx)

    for n in divisors(div):
        idx = _index_of(s // (n * n), conv)
        total += c_at(idx) * Fraction(2) ** weight * Fraction(n) ** -weight
        if div % (2 * n) == 0:
            idx2 = _index_of(s // (4 * n * n), conv)
            total -= c_at(idx2) * Fraction(n) ** -weight
    return total


def _f56_rhs(km1, s):
    """The genus-2/genus-1 consistency relation's genus-2 value for a class of
    square s and genus-1 value km1: (3/2) * sigma_1(0) * km1 * s, sigma_1(0) = -1/24."""
    return Fraction(3, 2) * sigma_pow(1, 0) * km1 * s


def km_f56_check(beta, conv, order=None):
    """Test the genus-2/genus-1 consistency relation of _f56_rhs on the
    predictions for beta.  Requires square(beta) > 0."""
    beta = as_vector(beta)
    s = square(beta)
    if s <= 0:
        raise ValueError("check requires square(beta) > 0")
    conv = _as_convention(conv)
    lhs = km_fiber_prediction(2, beta, conv, order)
    rhs = _f56_rhs(km_fiber_prediction(1, beta, conv, order), s)
    return {
        "beta": list(beta.coords),
        "square": s,
        "convention": conv.value,
        "lhs": str(lhs),
        "rhs": str(rhs),
        "holds": lhs == rhs,
    }


def compare_engine_vs_km(g, beta, order=None):
    """Side-by-side exact values: recursion engine vs both prediction
    conventions, with a match verdict per convention.  The report never
    asserts which side is ground truth.
    """
    if g not in (1, 2):
        raise ValueError("genus out of supported range")
    beta = as_vector(beta)
    if beta.is_zero() or not is_positive(beta):
        raise ValueError("comparison requires a nonzero positive class")
    # the predictions first: an order past the series cap is refused
    # before the engine runs
    preds = {conv.value: km_fiber_prediction(g, beta, conv, order)
             for conv in (KMConvention.FULL, KMConvention.HALF)}
    engine = n1_fiber(beta) if g == 1 else n2_fiber(beta)
    verdicts = {conv: "match" if value == engine else "mismatch"
                for conv, value in preds.items()}
    return {
        "class": list(beta.coords),
        "genus": g,
        "engine_value": str(engine),
        "prediction_full": str(preds["full"]),
        "prediction_half": str(preds["half"]),
        "verdicts": verdicts,
    }


def box_verdict_groups(max_b1, max_b2, norm_bound, max_square=None):
    """The km_verdicts groups of the coordinate box of
    sweeps.genus1_box_rows, of square <= max_square if it is given: one
    (square, divisibility, <1>, members) per group of a
    sweeps.genus1_box_groups slice, in its order, with the member
    classes' coordinates in box order.

    A group has one divisibility.  The parts e of a group lie in one
    W(E8)-orbit, and W(E8) acts by unimodular integer matrices, so gcd(e)
    is constant on the group, and every class of the group has the
    divisibility gcd(b1, b2, e) of its first part."""
    for b1, b2, sliced, idx, groups in genus1_box_groups(max_b1, max_b2, norm_bound):
        members = [[] for _ in groups]
        for e, j in zip(sliced, idx):
            members[j].append((b1, b2) + e)
        for (e, s, value), classes in zip(groups, members):
            if max_square is None or s <= max_square:
                yield s, math.gcd(b1, b2, *e), value, classes


def km_verdicts(groups, order):
    """Engine vs both prediction conventions over many classes.

    `groups` is an iterable of (square, divisibility, <1>, members)
    tuples, `members` the coordinate tuples of positive classes sharing
    that square, divisibility and <1>; two groups may share all three.
    The engine side is N_{g,(beta,0)} by gw_engine.value_rule.
    Predictions depend only on (genus, square, divisibility, convention),
    so each is computed once per (square, divisibility), at truncation
    `order`, on the first member met, and each verdict once per group.
    Returns (verdicts, counts, consistency): verdicts has one entry per
    member, mapping its coords to a read-only map of (genus, convention)
    to "match" or "mismatch", shared by its group; counts maps (genus,
    convention) to the number of each; and consistency maps each
    convention to whether the genus-2/genus-1 relation of km_f56_check
    holds on every probed class of positive square.
    """
    conventions = ("full", "half")
    counts = {(g, conv): {"match": 0, "mismatch": 0} for g in (1, 2) for conv in conventions}
    consistency = dict.fromkeys(conventions, True)
    verdicts = {}
    preds = {}  # (square, divisibility) -> {(genus, convention): prediction}
    for s, div, value, members in groups:
        pred = preds.get((s, div))
        if pred is None:
            pred = preds[(s, div)] = {(g, conv): km_fiber_prediction(g, members[0], conv, order)
                                      for g in (1, 2) for conv in conventions}
            if s > 0:
                for conv in conventions:
                    if pred[(2, conv)] != _f56_rhs(pred[(1, conv)], s):
                        consistency[conv] = False
        row = {}
        for g in (1, 2):
            engine = value_rule(g, 0, s, lambda: value)[0]
            for conv in conventions:
                row[(g, conv)] = "match" if pred[(g, conv)] == engine else "mismatch"
                counts[(g, conv)][row[(g, conv)]] += len(members)
        verdicts.update(dict.fromkeys(members, MappingProxyType(row)))
    return verdicts, counts, consistency
