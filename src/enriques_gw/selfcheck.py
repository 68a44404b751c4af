"""Acceptance criteria for the whole package, runnable as a batch.

Each criterion is a standalone callable returning a CriterionResult with
an exact pass/fail verdict, wall-clock seconds, and a human-readable
detail line.  The batch is shared by the command line (`selfcheck`
subcommand) and the test suite, so there is exactly one definition of
what "the package works" means.  Every <1> the criteria read comes from
gw_engine.ENGINE, the engine the production functions run, or from an
independent oracle.

Oracles are recomputed inside the runners from independent ingredients
(sympy divisor sums, brute-force enumeration, the heterotic closed form,
forward substitution) rather than read back from the modules under test
wherever the checked statement is nontrivial.  Criterion 2 holds the
engine's box values to the closed form's "full" index convention;
criterion 9 compares both conventions and only reports.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import gw_engine, km_model, lattice, local_surface, qseries, relative_calculus, sweeps

BOX = {"max_b1": 4, "max_b2": 4, "norm_bound": 4}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    seconds: float
    detail: str
    budget: float
    data: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "criterion %d [%s] %s (%.2fs, budget %.0fs): %s" % (
            self.number, self.name, status, self.seconds, self.budget, self.detail)


# sympy is the independent oracle of criteria 1 and 4; it is imported
# only here, so criteria that do not use it never load it
def _sigma_minus1(n: int) -> Fraction:
    import sympy
    return sum(Fraction(1, d) for d in sympy.divisors(n))


def _sigma1(n: int) -> int:
    import sympy
    return int(sympy.divisor_sigma(n, 1))


ALL_CRITERIA = []


def _criterion(number, name, budget):
    """Register the decorated body as criterion `number`, which must be
    the next in numeric order.  The body returns (ok, detail) or
    (ok, detail, data); the criterion passes when ok within `budget`
    seconds, timed around the whole body."""
    def register(body):
        @functools.wraps(body)
        def run():
            t0 = time.perf_counter()
            ok, detail, *data = body()
            seconds = time.perf_counter() - t0
            return CriterionResult(number, name, ok and seconds < budget, seconds,
                                   detail, budget, *data)
        if number != len(ALL_CRITERIA) + 1:
            raise ValueError("criterion %d registered out of order" % number)
        ALL_CRITERIA.append(run)
        return run
    return register


def _root_vector():
    parts, norms = lattice.short_vector_table(2)
    row = parts[norms == 2][0]
    return tuple(int(x) for x in row)


def _genus2_series(order):
    """(classes, series) for the square > 0 classes of the acceptance box:
    classes lists (coords, engine key), series maps each key to (square,
    <1>, [N_{2,(beta,d)} for d <= order]), by gw_engine.value_rule once
    per key with <1> read from gw_engine.ENGINE."""
    classes = []
    series = {}
    for coords, s, key in sweeps.box_classes(**BOX):
        if key is None or s <= 0:
            continue
        classes.append((coords, key))
        if key not in series:
            value = gw_engine.ENGINE.class_value(coords[0], coords[1], coords[2:], key)
            series[key] = (s, value, [gw_engine.value_rule(2, d, s, lambda: value)[0]
                                      for d in range(order + 1)])
    return classes, series


@_criterion(1, "isotropic multiples", 1.0)
def criterion_1():
    """Genus-1 invariants of isotropic multiples match the divisor-sum
    closed form, recomputed here from sympy divisors, on the oracle and
    on the production engine (N_{1,(beta,0)} = 4 <1>)."""
    root = _root_vector()
    rays = [lattice.basis_vector(1), lattice.basis_vector(2),
            lattice.as_vector((1, 1) + root)]
    failures = []
    for prim in rays:
        for n in range(1, 21):
            beta = n * prim
            want = 2 * _sigma_minus1(n)
            if n % 2 == 0:
                want -= _sigma_minus1(n // 2)
            for got in (gw_engine.enriques_genus1(beta),
                        gw_engine.n_invariant(1, (beta, 0)) / 4):
                if got != want:
                    failures.append((tuple(beta.coords), str(got), str(want)))
    spots = [gw_engine.enriques_genus1(n * lattice.basis_vector(1)) for n in (1, 2, 3, 4)]
    spots_ok = spots == [Fraction(2), Fraction(2), Fraction(8, 3), Fraction(2)]
    detail = "3 rays, n <= 20, spot values %s" % ", ".join(str(s) for s in spots)
    if failures:
        detail += "; mismatches %r" % failures[:3]
    return not failures and spots_ok, detail


@_criterion(2, "enumeration agreement", 30.0)
def criterion_2():
    """The engine's cell scan agrees with a brute-force walk of the
    smaller ball on every cell shape of the box, and gw_engine.ENGINE's
    box table equals the heterotic closed form in the "full" convention,
    km_fiber_prediction(1, beta, "full") / 4, on every keyed class (the
    verdicts of criterion 9 stay diagnostic).  One shared-memo oracle
    recursion gives ENGINE's value on a sample, and
    enumerate_decompositions equals the box oracle on the sample and on
    every class whose decompositions it read."""
    report = sweeps.decomposition_agreement(**BOX)
    table = sweeps.genus1_box_table(**BOX)
    # the closed form depends on the square and the divisibility alone:
    # one prediction per pair, at the last class met with it
    keyed = [(c, (s, math.gcd(*c))) for c, s, key in sweeps.box_classes(**BOX) if key is not None]
    beta = {pair: c for c, pair in keyed}
    closed_form = {pair: km_model.km_fiber_prediction(1, c, "full") / 4 for pair, c in beta.items()}
    off = [c for c, pair in keyed if table[c] != closed_form[pair]]
    v1 = (1, 1) + (0,) * 8
    v2 = (2, 1) + (0,) * 8
    spots_ok = table[v1] == Fraction(32) and table[v2] == Fraction(288)
    root = _root_vector()
    sample = [v1, v2, (1, 2) + (0,) * 8, (1, 1) + root, (2, 2) + root]
    memo = {}
    values_ok = all(gw_engine.enriques_genus1(c, memo=memo) == table[c] for c in sample)
    read = set(sample).union(c for c in memo if lattice.square(lattice.as_vector(c)) > 0)
    sample_ok = values_ok and all(
        lattice.enumerate_decompositions(c) == lattice.decompositions_box_oracle(c)
        for c in sorted(read))
    detail = ("%d classes, %d of %d cell shapes agree, %d ordered pairs; "
              "%d of %d keyed classes equal the full closed form (%d pairs)" % (
                  report["classes"], report["cell_shapes"] - len(report["mismatches"]),
                  report["cell_shapes"], report["ordered_pairs_including_multiplicity"],
                  len(keyed) - len(off), len(keyed), len(closed_form)))
    if off:
        detail += "; first off %r" % off[:3]
    return (report["all_agree"] and not off and spots_ok and sample_ok,
            detail, {"report": report})


@_criterion(3, "negative squares vanish", 5.0)
def criterion_3():
    """Classes of negative square all have vanishing genus-1 invariant,
    on the oracle and on the production engine."""
    rng = random.Random(20260814)
    memo = {}
    bad = []
    count = 0
    while count < 1000:
        coords = (rng.randint(-4, 5), rng.randint(-4, 5)) + tuple(
            rng.randint(-3, 3) for _ in range(8))
        beta = lattice.as_vector(coords)
        if lattice.square(beta) >= 0:
            continue
        count += 1
        if (gw_engine.enriques_genus1(beta, memo=memo) != 0
                or gw_engine.ENGINE.class_value(coords[0], coords[1], coords[2:]) != 0):
            bad.append(coords)
    detail = "1000 sampled classes with square < 0 all vanish"
    if bad:
        detail = "nonzero at %r" % bad[:3]
    return not bad, detail


@_criterion(4, "series anchors", 1.0)
def criterion_4():
    """Series anchors: E2 against sympy divisor sums, P1 = E2/12, the
    printed P2 constant term, and a nonempty P2 discrepancy report."""
    order = 30
    e2 = qseries.eisenstein(2, order)
    e2_ok = e2.coeff(0) == 1 and all(
        e2.coeff(n) == -24 * _sigma1(n) for n in range(1, order + 1))
    p1 = qseries.p_series(1, order)
    p1_ok = all(p1.coeff(n) == e2.coeff(n) * Fraction(1, 12) for n in range(order + 1))
    p2_ok = qseries.p_series(2, order).coeff(0) == Fraction(1, 240)
    report = qseries.p2_discrepancy_report(order)
    report_ok = bool(report["differences"])
    detail = ("E2 to order %d: %s; P1 = E2/12: %s; P2[0] = 1/240: %s; "
              "discrepancies: %d (first at q^%d)" % (
                  order, e2_ok, p1_ok, p2_ok, len(report["differences"]),
                  report["differences"][0]["exponent"] if report["differences"] else -1))
    return e2_ok and p1_ok and p2_ok and report_ok, detail


@_criterion(5, "degree series factorization", 60.0)
def criterion_5():
    """The degree generating series of genus-2 invariants equals
    E2 times the degree-0 value, coefficientwise to order 20, for every
    box class of positive square."""
    order = 20
    e2 = [qseries.eisenstein(2, order).coeff(n) for n in range(order + 1)]
    classes, series = _genus2_series(order)
    bad_keys = {key for key, (_, _, n2) in series.items()
                if any(n2[d] != e2[d] * n2[0] for d in range(order + 1))}
    bad = [coords for coords, key in classes if key in bad_keys]
    sample_ok = True
    root = _root_vector()
    for coords in [(1, 1) + (0,) * 8, (2, 1) + (0,) * 8, (2, 2) + root]:
        rep = gw_engine.e2_corollary_check(coords, order=order)
        if not rep["equal"]:
            sample_ok = False
    detail = "%d classes with square > 0, orders 0..%d" % (len(classes), order)
    if bad:
        detail += "; first failures %r" % bad[:3]
    return not bad and sample_ok, detail


@_criterion(6, "genus-2 core identity", 60.0)
def criterion_6():
    """The genus-2 degree-d identity
    N_{2,(beta,d)} = (3/2) * sigma_1(d) * N1 * s for the same classes,
    and the two-part split, whose decomposition sum runs over
    enumerate_decompositions, reproducing N_{2,(beta,d)} on a sample."""
    order = 20
    sig = [qseries.sigma_pow(1, d) for d in range(order + 1)]
    classes, series = _genus2_series(order)
    bad_keys = {key for key, (s, value, n2) in series.items()
                if any(n2[d] != Fraction(3, 2) * sig[d] * (4 * value) * s
                       for d in range(1, order + 1))}
    bad = [coords for coords, key in classes if key in bad_keys]
    root = _root_vector()
    sample = [(b1, b2) + e for b1 in (1, 2, 3) for b2 in (1, 2, 3)
              for e in ((0,) * 8, root)]
    sample += [(4, 2) + (0,) * 8, (2, 4) + (0,) * 8]
    split_ok = True
    for coords in sample:
        for d in (1, 2, 3):
            parts = relative_calculus.genus2_contributions(coords, d)
            total = parts["type_i"] + parts["type_ii"]
            if total != gw_engine.n_invariant(2, (coords, d)):
                split_ok = False
    detail = ("%d classes, d <= %d; split sample of %d classes, d = 1..3: %s" %
              (len(classes), order, len(sample), split_ok))
    if bad:
        detail += "; first failures %r" % bad[:3]
    return not bad and split_ok, detail


@_criterion(7, "relative recursion", 1.0)
def criterion_7():
    """The triangular relative recursion solves to I_d = 2 * base."""
    rng = random.Random(7)
    bad = []
    for _ in range(20):
        base = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        sol = relative_calculus.solve_I_recursion(30, base)
        if any(x != 2 * base for x in sol):
            bad.append(str(base))
    detail = "20 random bases, d <= 30"
    if bad:
        detail += "; failed at base %s" % bad[:3]
    return not bad, detail


@_criterion(8, "local theory anchors", 1.0)
def criterion_8():
    """Local theory anchors: empty-insertion values and the dimension
    constraint on its three reference cases."""
    deg1_ok = (local_surface.local_degree1([], 1) == 1
               and local_surface.local_degree1([], -1) == -1)
    deg2_ok = (local_surface.local_degree2([], 2, 1) == 2
               and local_surface.local_degree2([], 2, -1) == -2)
    mk = lambda alphas, g: local_surface.DescendentSpec(
        alphas=tuple(alphas), m=0, g=g, d=1, g_C=1, sign=1)
    dim_ok = (local_surface.dimension_check(mk([], 1), [])
              and local_surface.dimension_check(mk([1], 2), [])
              and not local_surface.dimension_check(mk([1], 1), []))
    detail = "degree-1 empty: %s; degree-2 empty: %s; dimension cases: %s" % (
        deg1_ok, deg2_ok, dim_ok)
    return deg1_ok and deg2_ok and dim_ok, detail


@_criterion(9, "prediction comparison", 30.0)
def criterion_9():
    """Engine vs heterotic predictions over all box classes of square
    at most 12 plus isotropic multiples, both index conventions, with a
    complete verdict table; the genus-2/genus-1 consistency relation must
    hold for at least one convention across the probed classes.

    The verdict table is diagnostic; the criterion does not require the
    predictions to match the engine."""
    order = 16

    engine = gw_engine.ENGINE
    probes = [(coords, s, engine.class_value(coords[0], coords[1], coords[2:], key))
              for coords, s, key in sweeps.box_classes(**BOX) if s <= 12]
    for n in range(5, 11):
        for coords in ((n, 0) + (0,) * 8, (0, n) + (0,) * 8):
            probes.append((coords, 0, engine.class_value(coords[0], coords[1], coords[2:])))

    verdict_map, counts, f56_ok = km_model.km_verdicts(probes, order)

    # exercise the literal per-class reports on a small sample and check
    # they tell the same story as the bulk pass
    sample_ok = True
    root = _root_vector()
    sample = [(1, 1) + (0,) * 8, (2, 1) + (0,) * 8, (1, 1) + root,
              (2, 0) + (0,) * 8, (0, 3) + (0,) * 8]
    for coords in sample:
        for g in (1, 2):
            rep = km_model.compare_engine_vs_km(g, coords)
            for conv in ("full", "half"):
                if rep["verdicts"][conv] != verdict_map[(coords, g, conv)]:
                    sample_ok = False
    f56_sample = km_model.km_f56_check((1, 1) + (0,) * 8, "full")
    sample_ok = sample_ok and f56_sample["holds"]

    complete = len(verdict_map) == 4 * len(probes)
    some_f56 = any(f56_ok.values())
    count_str = "; ".join(
        "g=%d %s: %d match / %d mismatch" % (g, conv, c["match"], c["mismatch"])
        for (g, conv), c in sorted(counts.items()))
    detail = ("%d probed classes; %s; consistency relation holds under: %s" % (
        len(probes), count_str,
        ", ".join(k for k, v in f56_ok.items() if v) or "none"))
    return (complete and some_f56 and sample_ok, detail,
            {"counts": {str(k): v for k, v in counts.items()}, "f56": f56_ok})


def run_all(numbers=None):
    results = []
    for i, fn in enumerate(ALL_CRITERIA, start=1):
        if numbers is None or i in numbers:
            results.append(fn())
    return results


def format_results(results) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append("%d/%d criteria passed" % (n_pass, len(results)))
    return "\n".join(lines)
