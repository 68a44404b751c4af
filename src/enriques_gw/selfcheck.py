"""Acceptance criteria for the whole package, runnable as a batch.

Each criterion is a standalone callable returning a CriterionResult with
an exact pass/fail verdict, wall-clock seconds, and a human-readable
detail line.  The batch is shared by the command line (`selfcheck`
subcommand) and the test suite, so there is exactly one definition of
what "the package works" means.

Oracles are recomputed inside the runners from independent ingredients
(sympy divisor sums, brute-force enumeration, forward substitution)
rather than read back from the modules under test wherever the checked
statement is nontrivial.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import sympy

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


def _sigma_minus1(n: int) -> Fraction:
    return sum(Fraction(1, d) for d in sympy.divisors(n))


def _sigma1(n: int) -> int:
    return int(sympy.divisor_sigma(n, 1))


_shared_tables = {}


def _box_tables():
    """Genus-1 box tables under both scan strategies, built once.

    Returns (table_optimized, table_oracle, engine_optimized, seconds)."""
    if "tables" not in _shared_tables:
        t0 = time.perf_counter()
        table_opt, engine_opt = sweeps.genus1_box_table(scan="optimized", **BOX)
        table_orc, _ = sweeps.genus1_box_table(scan="oracle", **BOX)
        _shared_tables["tables"] = (table_opt, table_orc, engine_opt,
                                    time.perf_counter() - t0)
    return _shared_tables["tables"]


def _root_vector():
    parts, norms = sweeps.box_e8_parts(2)
    row = parts[norms == 2][0]
    return tuple(int(x) for x in row)


def _box_class_cores():
    """Per-class data for the square > 0 classes of the acceptance box:
    list of (coords, square, value, core) where value is <1> and
    core = 4*value*square + 16 * sum <1><1><,> over decompositions."""
    if "cores" in _shared_tables:
        return _shared_tables["cores"]
    _, _, engine, _ = _box_tables()
    out = []
    for coords, s, key in sweeps.box_classes(**BOX):
        if key is None or s <= 0:
            continue
        b1, b2, e = coords[0], coords[1], coords[2:]
        out.append((coords, s, engine.class_value(b1, b2, e, key),
                    engine.genus2_core(b1, b2, e, key)))
    _shared_tables["cores"] = out
    return out


def criterion_1() -> CriterionResult:
    """Genus-1 invariants of isotropic multiples match the divisor-sum
    closed form, recomputed here from sympy divisors."""
    t0 = time.perf_counter()
    root = _root_vector()
    rays = [lattice.basis_vector(1), lattice.basis_vector(2),
            lattice.as_vector((1, 1) + root)]
    failures = []
    for prim in rays:
        for n in range(1, 21):
            got = gw_engine.enriques_genus1(n * prim)
            want = 2 * _sigma_minus1(n)
            if n % 2 == 0:
                want -= _sigma_minus1(n // 2)
            if got != want:
                failures.append((tuple((n * prim).coords), str(got), str(want)))
    spots = [gw_engine.enriques_genus1(n * lattice.basis_vector(1)) for n in (1, 2, 3, 4)]
    spots_ok = spots == [Fraction(2), Fraction(2), Fraction(8, 3), Fraction(2)]
    seconds = time.perf_counter() - t0
    passed = not failures and spots_ok and seconds < 1.0
    detail = "3 rays, n <= 20, spot values %s" % ", ".join(str(s) for s in spots)
    if failures:
        detail += "; mismatches %r" % failures[:3]
    return CriterionResult(1, "isotropic multiples", passed, seconds, detail, 1.0)


def criterion_2() -> CriterionResult:
    """Decomposition enumeration agrees with brute force everywhere in the
    box, and the genus-1 values are identical under both strategies."""
    t0 = time.perf_counter()
    report = sweeps.decomposition_agreement(**BOX)
    table_opt, table_orc, _, _ = _box_tables()
    tables_equal = table_opt == table_orc
    v1 = (1, 1) + (0,) * 8
    v2 = (2, 1) + (0,) * 8
    spots_ok = table_opt[v1] == Fraction(32) and table_opt[v2] == Fraction(288)
    root = _root_vector()
    sample_ok = True
    for coords in [v1, v2, (1, 2) + (0,) * 8, (1, 1) + root, (2, 2) + root]:
        beta = lattice.as_vector(coords)
        fast = lattice.enumerate_decompositions(beta)
        slow = lattice.decompositions_box_oracle(beta)
        val_fast = gw_engine.enriques_genus1(beta, memo={})
        val_slow = gw_engine.enriques_genus1(
            beta, memo={}, enumerator=lattice.decompositions_box_oracle)
        if fast != slow or val_fast != val_slow or val_fast != table_opt[coords]:
            sample_ok = False
    seconds = time.perf_counter() - t0
    passed = (report["all_agree"] and tables_equal and spots_ok and sample_ok
              and seconds < 30.0)
    detail = ("%d classes, %d cell shapes agree, %d ordered pairs; "
              "value tables identical: %s" % (
                  report["classes"], report["cell_shapes"],
                  report["ordered_pairs_including_multiplicity"], tables_equal))
    return CriterionResult(2, "enumeration agreement", passed, seconds, detail, 30.0,
                           data={"report": report})


def criterion_3() -> CriterionResult:
    """Classes of negative square all have vanishing genus-1 invariant."""
    t0 = time.perf_counter()
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
        if gw_engine.enriques_genus1(beta, memo=memo) != 0:
            bad.append(coords)
    seconds = time.perf_counter() - t0
    passed = not bad and seconds < 5.0
    detail = "1000 sampled classes with square < 0 all vanish"
    if bad:
        detail = "nonzero at %r" % bad[:3]
    return CriterionResult(3, "negative squares vanish", passed, seconds, detail, 5.0)


def criterion_4() -> CriterionResult:
    """Series anchors: E2 against sympy divisor sums, P1 = E2/12, the
    printed P2 constant term, and a nonempty P2 discrepancy report."""
    t0 = time.perf_counter()
    order = 30
    e2 = qseries.eisenstein(2, order)
    e2_ok = e2.coeff(0) == 1 and all(
        e2.coeff(n) == -24 * _sigma1(n) for n in range(1, order + 1))
    p1 = qseries.p_series(1, order)
    p1_ok = all(p1.coeff(n) == e2.coeff(n) * Fraction(1, 12) for n in range(order + 1))
    p2_ok = qseries.p_series(2, order).coeff(0) == Fraction(1, 240)
    report = qseries.p2_discrepancy_report(order)
    report_ok = bool(report["differences"])
    seconds = time.perf_counter() - t0
    passed = e2_ok and p1_ok and p2_ok and report_ok and seconds < 1.0
    detail = ("E2 to order %d: %s; P1 = E2/12: %s; P2[0] = 1/240: %s; "
              "discrepancies: %d (first at q^%d)" % (
                  order, e2_ok, p1_ok, p2_ok, len(report["differences"]),
                  report["differences"][0]["exponent"] if report["differences"] else -1))
    return CriterionResult(4, "series anchors", passed, seconds, detail, 1.0)


def criterion_5() -> CriterionResult:
    """The degree generating series of genus-2 invariants equals
    E2 times the degree-0 value, coefficientwise to order 20, for every
    box class of positive square."""
    t0 = time.perf_counter()
    order = 20
    e2 = [qseries.eisenstein(2, order).coeff(n) for n in range(order + 1)]
    sig = [qseries.sigma_pow(1, d) for d in range(order + 1)]
    cores = _box_class_cores()
    bad = []
    for coords, s, value, core in cores:
        base = -value * s * Fraction(1, 4)
        if base != e2[0] * base:
            bad.append(coords)
            continue
        for d in range(1, order + 1):
            if sig[d] * core != e2[d] * base:
                bad.append(coords)
                break
    sample_ok = True
    root = _root_vector()
    for coords in [(1, 1) + (0,) * 8, (2, 1) + (0,) * 8, (2, 2) + root]:
        rep = gw_engine.e2_corollary_check(coords, order=order)
        if not rep["equal"]:
            sample_ok = False
    seconds = time.perf_counter() - t0
    passed = not bad and sample_ok and seconds < 60.0
    detail = "%d classes with square > 0, orders 0..%d" % (len(cores), order)
    if bad:
        detail += "; first failures %r" % bad[:3]
    return CriterionResult(5, "degree series factorization", passed, seconds, detail, 60.0)


def criterion_6() -> CriterionResult:
    """The genus-2 degree-d core identity
    sigma_1(d) * (N1 * s + sum N1 N1 <,>) = (3/2) * sigma_1(d) * N1 * s
    for the same classes, with the two-part split reproducing the sum."""
    t0 = time.perf_counter()
    order = 20
    sig = [qseries.sigma_pow(1, d) for d in range(order + 1)]
    cores = _box_class_cores()
    bad = []
    for coords, s, value, core in cores:
        n1 = 4 * value
        rhs_core = Fraction(3, 2) * n1 * s
        for d in range(1, order + 1):
            if sig[d] * core != sig[d] * rhs_core:
                bad.append(coords)
                break
    root = _root_vector()
    split_ok = True
    for coords in [(1, 1) + (0,) * 8, (2, 1) + (0,) * 8, (1, 1) + root]:
        for d in (1, 2, 3):
            parts = relative_calculus.genus2_contributions(coords, d)
            total = parts["type_i"] + parts["type_ii"]
            if total != gw_engine.n_invariant(2, (coords, d)):
                split_ok = False
    seconds = time.perf_counter() - t0
    passed = not bad and split_ok and seconds < 60.0
    detail = ("%d classes, d <= %d; split sample: %s" %
              (len(cores), order, split_ok))
    if bad:
        detail += "; first failures %r" % bad[:3]
    return CriterionResult(6, "genus-2 core identity", passed, seconds, detail, 60.0)


def criterion_7() -> CriterionResult:
    """The triangular relative recursion solves to I_d = 2 * base."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    bad = []
    for _ in range(20):
        base = Fraction(rng.randint(-99, 99), rng.randint(1, 40))
        sol = relative_calculus.solve_I_recursion(30, base)
        if any(x != 2 * base for x in sol):
            bad.append(str(base))
    seconds = time.perf_counter() - t0
    passed = not bad and seconds < 1.0
    detail = "20 random bases, d <= 30"
    if bad:
        detail += "; failed at base %s" % bad[:3]
    return CriterionResult(7, "relative recursion", passed, seconds, detail, 1.0)


def criterion_8() -> CriterionResult:
    """Local theory anchors: empty-insertion values and the dimension
    constraint on its three reference cases."""
    t0 = time.perf_counter()
    deg1_ok = (local_surface.local_degree1([], 1) == 1
               and local_surface.local_degree1([], -1) == -1)
    deg2_ok = (local_surface.local_degree2([], 2, 1) == 2
               and local_surface.local_degree2([], 2, -1) == -2)
    mk = lambda alphas, g: local_surface.DescendentSpec(
        alphas=tuple(alphas), m=0, g=g, d=1, g_C=1, sign=1)
    dim_ok = (local_surface.dimension_check(mk([], 1), [])
              and local_surface.dimension_check(mk([1], 2), [])
              and not local_surface.dimension_check(mk([1], 1), []))
    seconds = time.perf_counter() - t0
    passed = deg1_ok and deg2_ok and dim_ok and seconds < 1.0
    detail = "degree-1 empty: %s; degree-2 empty: %s; dimension cases: %s" % (
        deg1_ok, deg2_ok, dim_ok)
    return CriterionResult(8, "local theory anchors", passed, seconds, detail, 1.0)


def criterion_9() -> CriterionResult:
    """Engine vs heterotic predictions over all box classes of square
    at most 12 plus isotropic multiples, both index conventions, with a
    complete verdict table; the genus-2/genus-1 consistency relation must
    hold for at least one convention across the probed classes.

    The verdict table is diagnostic; the criterion does not require the
    predictions to match the engine."""
    t0 = time.perf_counter()
    table_opt, _, _, _ = _box_tables()
    parts, norms = sweeps.box_e8_parts(BOX["norm_bound"])
    rows = [tuple(int(x) for x in row) for row in parts]
    norm_of = dict(zip(rows, (int(x) for x in norms)))
    order = 16

    probes = []
    for coords, value in table_opt.items():
        b1, b2 = coords[0], coords[1]
        s = 2 * b1 * b2 - (norm_of[coords[2:]] if b2 > 0 else 0)
        if s <= 12:
            probes.append((coords, s, value))
    for n in range(5, 11):
        iso = gw_engine.isotropic_genus1(n)
        probes.append(((n, 0) + (0,) * 8, 0, iso))
        probes.append(((0, n) + (0,) * 8, 0, iso))

    # predictions depend only on (genus, square, divisibility, convention),
    # so each signature is computed once through the public function and
    # reused for every class sharing it
    pred_cache = {}
    counts = {(g, conv): {"match": 0, "mismatch": 0}
              for g in (1, 2) for conv in ("full", "half")}
    f56_ok = {"full": True, "half": True}
    verdict_map = {}
    for coords, s, value in probes:
        div = lattice.divisibility(lattice.as_vector(coords))
        n1 = 4 * value
        engine = {1: n1, 2: -Fraction(1, 16) * n1 * s}
        for g in (1, 2):
            for conv in ("full", "half"):
                key = (g, s, div, conv)
                if key not in pred_cache:
                    pred_cache[key] = km_model.km_fiber_prediction(
                        g, coords, conv, order)
                verdict = "match" if pred_cache[key] == engine[g] else "mismatch"
                counts[(g, conv)][verdict] += 1
                verdict_map[(coords, g, conv)] = verdict
        if s > 0:
            for conv in ("full", "half"):
                km1 = pred_cache[(1, s, div, conv)]
                km2 = pred_cache[(2, s, div, conv)]
                if km2 != Fraction(3, 2) * qseries.sigma_pow(1, 0) * km1 * s:
                    f56_ok[conv] = False

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
    seconds = time.perf_counter() - t0
    passed = complete and some_f56 and sample_ok and seconds < 30.0
    count_str = "; ".join(
        "g=%d %s: %d match / %d mismatch" % (g, conv, c["match"], c["mismatch"])
        for (g, conv), c in sorted(counts.items()))
    detail = ("%d probed classes; %s; consistency relation holds under: %s" % (
        len(probes), count_str,
        ", ".join(k for k, v in f56_ok.items() if v) or "none"))
    return CriterionResult(9, "prediction comparison", passed, seconds, detail, 30.0,
                           data={"counts": {str(k): v for k, v in counts.items()},
                                 "f56": f56_ok})


ALL_CRITERIA = [criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
                criterion_6, criterion_7, criterion_8, criterion_9]


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
