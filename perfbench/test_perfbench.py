"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402


def _e8_norm(e):
    return sum(e[i] * run._CARTAN[i][j] * e[j] for i in range(8) for j in range(8))


def test_weyl_word_is_an_isometry():
    rng = random.Random(3)
    for e in ([1, 0, 0, 0, 0, 0, 0, 0], [0, 2, -1, 0, 0, 1, 0, 0]):
        for _ in range(20):
            assert _e8_norm(run.weyl_word(e, rng)) == _e8_norm(e)


def test_same_seed_same_inputs():
    spec = run.SPEC["workloads"]["invariant-cold"]["full"]
    a = [op.argv for op in run.pass_ops("invariant-cold", spec, random.Random(7))]
    b = [op.argv for op in run.pass_ops("invariant-cold", spec, random.Random(7))]
    assert a == b and len(a) == len(spec["queries"])


def test_timing_summary_tail_needs_ten_samples_beyond():
    assert run.timing_summary([1.0] * 19)["tail"] is None
    summary = run.timing_summary([float(i) for i in range(1, 101)])
    assert summary["tail"] == {"p": 90.0, "value": 90.0}
    assert summary["median"] == 50.5 and summary["n"] == 100


def test_self_times_add_up_to_root_busy_time():
    tracer = tracing.Tracer()

    def fib(n):
        tracer.enter("fib")
        try:
            return n if n < 2 else fib(n - 1) + fib(n - 2)
        finally:
            tracer.exit()

    tracer.call(tracing.ROOT, lambda: fib(12))
    totals = tracer.totals()
    self_total = sum(t["self_s"] for t in totals.values())
    assert abs(self_total - totals[tracing.ROOT]["busy_s"]) < 1e-6
    # busy time counts only outermost calls of a recursive boundary
    assert totals["fib"]["busy_s"] <= totals[tracing.ROOT]["busy_s"]
    assert totals["fib"]["calls"] == 465


def test_check_output_flags_bad_results():
    digest = run.Op(["table"], ("digest", "ab", 3))
    assert run.check_output(digest, {"rc": 0, "sha256": "ab", "lines": 3}) is None
    assert run.check_output(digest, {"rc": 0, "sha256": "cd", "lines": 3})
    assert run.check_output(digest, {"rc": 2, "sha256": "ab", "lines": 3})
    verdict = run.Op(["selfcheck"], ("verdict", 1))
    fail = "criterion 2 [x] FAIL (1.00s, budget 30s): y\n0/1 criteria passed\n"
    assert run.check_output(verdict, {"rc": 0, "text": fail})
    ok = "criterion 2 [x] PASS (1.50s, budget 30s): y\n1/1 criteria passed\n"
    assert run.check_output(verdict, {"rc": 0, "text": ok}) is None
    assert run.budget_frac(ok) == 0.05


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "table-g1-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == [] and proc.returncode == 0
