"""Acceptance gate: every criterion of the self-check suite must pass
within its time budget.  Results are computed once per session; each
test prints the one-line verdict for its criterion so the full report
appears in the pytest output (run with -s or look at captured stdout).
"""

import hashlib
import json

import pytest

from enriques_gw import lattice, selfcheck, sweeps

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


def test_criterion_2_fails_on_one_wrong_box_value(monkeypatch):
    # genus1_box_table binds ENGINE as its default engine when it is
    # defined, so the engine's answer is changed on its class instead: one
    # keyed class outside the recursion sample is off by one
    off = (4, 4) + (0,) * 8
    class_value = sweeps.FiberSweepEngine.class_value

    def one_off(self, b1, b2, e, key=None):
        value = class_value(self, b1, b2, e, key)
        return value + 1 if (b1, b2) + tuple(e) == off else value

    monkeypatch.setattr(sweeps.FiberSweepEngine, "class_value", one_off)
    result = selfcheck.criterion_2()
    assert not result.passed
    assert "36259 of 36260 keyed classes" in result.detail
    assert "first off [%r]" % (off,) in result.detail
    assert result.data["report"]["all_agree"]


def test_criterion_2_builds_no_ball_past_norm_8(monkeypatch):
    # the sweep walks the smaller ball of each shape, and the engine reads
    # the smaller ball of each mirror pair: from an empty table, no ball
    # past norm 8, the largest min(r1, r2) of the box, is built
    built = []
    build = lattice._short_vector_array
    monkeypatch.setattr(lattice, "_TABLE", [None])
    monkeypatch.setattr(lattice, "_short_vector_array",
                        lambda bound: built.append(bound) or build(bound))
    assert selfcheck.criterion_2().passed
    assert max(built) == 8
