"""Acceptance gate: every criterion of the self-check suite must pass
within its time budget.  Results are computed once per session; each
test prints the one-line verdict for its criterion so the full report
appears in the pytest output (run with -s or look at captured stdout).
"""

import hashlib
import json
from fractions import Fraction

import pytest

from enriques_gw import gw_engine, km_model, lattice, qseries, selfcheck, sweeps

# criterion 2's survivors per cell shape (r1, r2) on the acceptance box
CRITERION_2_SURVIVORS = {
    "(0, 0)": 1, "(0, 2)": 241, "(0, 4)": 2401,
    "(0, 6)": 2401, "(0, 8)": 2401, "(0, 12)": 2401,
    "(0, 16)": 2401, "(0, 18)": 2401, "(0, 24)": 2401,
    "(2, 0)": 241, "(2, 2)": 44401, "(2, 4)": 215041,
    "(2, 6)": 409921, "(2, 8)": 548401, "(2, 12)": 578641,
    "(2, 18)": 578641, "(4, 0)": 2401, "(4, 2)": 215041,
    "(4, 4)": 1130881, "(4, 6)": 2474881, "(4, 8)": 3991441,
    "(4, 12)": 5624401, "(6, 0)": 2401, "(6, 2)": 409921,
    "(6, 4)": 2474881, "(6, 6)": 6002881, "(8, 0)": 2401,
    "(8, 2)": 548401, "(8, 4)": 3991441, "(8, 8)": 21936721,
    "(12, 0)": 2401, "(12, 2)": 578641, "(12, 4)": 5624401,
    "(16, 0)": 2401, "(18, 0)": 2401, "(18, 2)": 578641,
    "(24, 0)": 2401,
}


@pytest.fixture(scope="module")
def results():
    res = selfcheck.run_all()
    print()
    print(selfcheck.format_results(res))
    return {r.number: r for r in res}


def test_suite_is_complete(results):
    assert len(selfcheck.ALL_CRITERIA) == 9
    assert sorted(results) == list(range(1, 10))


@pytest.mark.parametrize("number", range(1, 10))
def test_criterion(results, number):
    result = results[number]
    print(result.line())
    assert result.passed, result.line()
    assert result.seconds <= result.budget, result.line()


def test_criterion_2_report(results):
    report = results[2].data["report"]
    assert report["classes"] == 48024
    assert report["cell_shapes"] == 37
    assert report["ordered_pairs_including_multiplicity"] == 94146416
    assert {k: v["survivors"] for k, v in report["per_shape"].items()} == CRITERION_2_SURVIVORS
    assert all(v["agree"] for v in report["per_shape"].values())
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == "99e6b4f2b015543010e9dd20c15d2f655e15ccbc50461e1e5137a9a09e3180a9"


def test_criterion_2_detail(results):
    assert results[2].detail == (
        "48024 classes, 37 of 37 cell shapes agree, 94146416 ordered pairs; "
        "36260 of 36260 keyed classes equal the full closed form (21 pairs)")


def _off_by_one(wrong):
    """FiberSweepEngine.evaluate with the value of each root (key, b1, e)
    for which wrong(b1, b2, e) holds off by one."""
    evaluate = sweeps.FiberSweepEngine.evaluate

    def off(self, roots):
        roots = list(roots)
        return [value + 1 if wrong(b1, key[0], e) else value
                for (key, b1, e), value in zip(roots, evaluate(self, roots))]
    return off


def _group_2_3_norm_2(b1, b2, e):
    return (b1, b2) == (2, 3) and lattice.e8_norm(e) == 2


def test_criterion_2_fails_on_one_wrong_box_value(monkeypatch):
    # genus1_box_rows binds ENGINE as its default engine when it is
    # defined, so the engine's answer is changed on its class instead: one
    # keyed class outside the recursion sample is off by one
    off = (4, 4) + (0,) * 8
    monkeypatch.setattr(sweeps.FiberSweepEngine, "evaluate",
                        _off_by_one(lambda b1, b2, e: (b1, b2) + tuple(e) == off))
    result = selfcheck.criterion_2()
    assert not result.passed
    assert "36259 of 36260 keyed classes" in result.detail
    assert "first off [%r]" % (off,) in result.detail
    assert result.data["report"]["all_agree"]


def test_criterion_2_counts_a_wrong_group_on_every_row(monkeypatch):
    # the norm-2 group of slice (b1, b2) = (2, 3), 240 classes, is off by
    # one; the count and the first off classes must equal those of a walk
    # row by row against the closed form
    monkeypatch.setattr(sweeps.FiberSweepEngine, "evaluate", _off_by_one(_group_2_3_norm_2))
    keyed, off = 0, []
    for c, s, key, value in sweeps.genus1_box_rows(**selfcheck.BOX):
        if key is not None:
            keyed += 1
            if value != km_model.km_fiber_prediction(1, c, "full") / 4:
                off.append(c)
    assert (keyed, len(off)) == (36260, 240)
    result = selfcheck.criterion_2()
    assert not result.passed
    assert "; 36020 of 36260 keyed classes equal the full closed form (21 pairs)" in result.detail
    assert result.detail.endswith("; first off %r" % off[:3])
    assert result.data["report"]["all_agree"]


def test_criterion_2_builds_the_c1_series_at_one_order(monkeypatch):
    # the box's largest square is 2*4*4 = 32, and each prediction reads
    # the series at most there; every coefficient of the order-34 series
    # equals that of the series built at its own order plus one
    order = 2 * selfcheck.BOX["max_b1"] * selfcheck.BOX["max_b2"] + 2
    assert order == 34
    top = qseries.c_coefficients(1, order)
    assert all(top.coeff(n) == qseries.c_coefficients(1, n + 1).coeff(n) for n in range(order))
    built = []
    c_coefficients = km_model.c_coefficients
    monkeypatch.setattr(km_model, "c_coefficients",
                        lambda g, n: built.append((g, n)) or c_coefficients(g, n))
    assert selfcheck.criterion_2().passed
    assert set(built) == {(1, order)}


def test_criterion_2_builds_no_ball_past_norm_8(monkeypatch):
    # the sweep walks the smaller ball of each shape, and the engine reads
    # the smaller ball of each mirror pair: from an empty table, no ball
    # past norm 8, the largest min(r1, r2) of the box, is built, and the
    # whole ball (J = ()) is built once, at norm 8, for every shape.  The
    # sweep builds each target's cone once, at norm 8, before any scan,
    # so every J is built exactly once.  The engine's own evaluations ask
    # a cone at growing bounds, so the box values are read first
    list(sweeps.genus1_box_groups(**selfcheck.BOX))
    built = []
    build = lattice._short_vector_array
    monkeypatch.setattr(lattice, "_CONES", {})
    monkeypatch.setattr(lattice, "_short_vector_array",
                        lambda bound, J=(): built.append((bound, J)) or build(bound, J))
    assert selfcheck.criterion_2().passed
    assert max(bound for bound, _ in built) == 8
    assert [bound for bound, J in built if J == ()] == [8]
    assert len({J for _, J in built}) == len(built) == 4


def test_criteria_5_6_and_9_details(results):
    assert results[5].detail == "31696 classes with square > 0, orders 0..20"
    assert results[6].detail == (
        "31696 classes, d <= 20; split sample of 20 classes, d = 1..3: True")
    assert results[9].detail == (
        "37950 probed classes; g=1 full: 37950 match / 0 mismatch; "
        "g=1 half: 13220 match / 24730 mismatch; g=2 full: 37950 match / 0 mismatch; "
        "g=2 half: 13220 match / 24730 mismatch; consistency relation holds under: full")


def _genus2_rule_off_at_square_28(monkeypatch):
    # the degree-1 genus-2 value of every class of square 28, the norm-4
    # group of slice (4, 4) (2160 classes, none in a criterion's sample),
    # is off by one; returns the rule the criteria now read
    value_rule = gw_engine.value_rule

    def off(genus, d, s, value1):
        value, rule = value_rule(genus, d, s, value1)
        return (value + 1 if (genus, d, s) == (2, 1, 28) else value), rule

    monkeypatch.setattr(gw_engine, "value_rule", off)
    return off


@pytest.mark.parametrize("number", [5, 6])
def test_criteria_5_and_6_count_a_wrong_group_on_every_row(monkeypatch, number):
    # the first failures must equal those of a walk of the box row by row,
    # each row's degree series formed here from the patched rule
    rule = _genus2_rule_off_at_square_28(monkeypatch)
    order = 20
    e2 = [qseries.eisenstein(2, order).coeff(d) for d in range(order + 1)]
    classes, bad = 0, []
    for c, s, key, value in sweeps.genus1_box_rows(**selfcheck.BOX):
        if key is None or s <= 0:
            continue
        classes += 1
        n2 = [rule(2, d, s, lambda: value)[0] for d in range(order + 1)]
        if number == 5:
            wrong = any(n2[d] != e2[d] * n2[0] for d in range(order + 1))
        else:
            wrong = any(n2[d] != Fraction(3, 2) * qseries.sigma_pow(1, d) * 4 * value * s
                        for d in range(1, order + 1))
        if wrong:
            bad.append(c)
    assert (classes, len(bad)) == (31696, 2160)
    result = selfcheck.ALL_CRITERIA[number - 1]()
    assert not result.passed
    head = ("31696 classes with square > 0, orders 0..20" if number == 5 else
            "31696 classes, d <= 20; split sample of 20 classes, d = 1..3: True")
    assert result.detail == head + "; first failures %r" % bad[:3]


def test_criterion_9_counts_a_wrong_group_on_every_row(monkeypatch):
    # the norm-2 group of slice (2, 3), 240 classes, is off by one on the
    # engine; the verdict counts must equal those of a walk of the probes
    # row by row, one prediction per (genus, convention, square,
    # divisibility) memoized here
    monkeypatch.setattr(sweeps.FiberSweepEngine, "evaluate", _off_by_one(_group_2_3_norm_2))
    probes = [(c, s, value) for c, s, _, value in sweeps.genus1_box_rows(**selfcheck.BOX)
              if s <= 12]
    for n in range(5, 11):
        for c in ((n, 0) + (0,) * 8, (0, n) + (0,) * 8):
            probes.append((c, 0, gw_engine.ENGINE.class_value(c[0], c[1], c[2:])))
    counts, preds = {}, {}
    for c, s, value in probes:
        for g in (1, 2):
            engine = gw_engine.value_rule(g, 0, s, lambda: value)[0]
            for conv in ("full", "half"):
                at = (g, conv, s, lattice.divisibility(c))
                if at not in preds:
                    preds[at] = km_model.km_fiber_prediction(g, c, conv, 16)
                tally = counts.setdefault((g, conv), [0, 0])
                tally[preds[at] != engine] += 1
    assert counts[(1, "full")] == [37950 - 240, 240]
    want = "37950 probed classes; %s; consistency relation holds under: full" % "; ".join(
        "g=%d %s: %d match / %d mismatch" % (g, conv, *counts[(g, conv)])
        for g, conv in sorted(counts))
    result = selfcheck.criterion_9()
    assert result.detail == want
