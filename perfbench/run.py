"""End-to-end benchmark of the enriques-gw command line.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --smoke [--workload NAME]

Each workload is a closed loop with one client: one `enriques-gw`
command at a time, each in a fresh interpreter that enters through
`enriques_gw.cli.main`, so cold caches are paid as a command-line user
pays them.  A pass runs the workload's commands once; passes repeat
until `--seconds` is (about) used up.  Every command's output is checked
against the golden outputs in workloads.json; a nonzero exit, a digest
or value mismatch or a FAIL verdict counts as a failed operation.

With --trace 0 the last line of stdout carries the end-to-end metrics.
Their times are in reference seconds: measured seconds scaled by
REF_S / (median time of a fixed pure-Python loop that the benchmark runs
before each command of the run).  The host of this benchmark drifts in
speed by up to a fifth for minutes at a time; the scale takes that drift
out, so runs at different times compare.  With --trace 1 the last line
carries the per-layer metrics of one traced pass (tracer.py), one
untraced pass for the tracing overhead, and the layer probes
(probes.py); these are raw seconds.  The line before the last is the
full record: raw timings with sample counts, the scale, error rate,
the environment and notes.

--smoke runs every workload (or the one named) on tiny inputs, once
per trace mode, and checks that each metric in BENCHMARK.json is
printed with its unit.
"""

from __future__ import annotations

import argparse
import collections
import compileall
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))

SETUP_PROBES = 4          # import-only interpreters per untraced run, at least
REF_LOOPS = 1_500_000
REF_S = 0.12              # typical reference_loop() time on the 2-vCPU Xeon VM
RUN_LIMIT_S = 170.0       # a run never starts work it cannot finish by then
CHILD_TIMEOUT_S = 165.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "rows_per_s": "1/s", "peak_rss_mb": "MB"}

# per-layer metric -> (boundary, field) summed over the traced pass
LAYER_FIELDS = {
    "lattice.short_vectors.busy_s": ("lattice.short_vectors", "busy_s"),
    "lattice.short_vectors.misses": ("lattice.short_vectors", "misses"),
    "lattice.short_vectors.vectors": ("lattice.short_vectors", "vectors"),
    "lattice.decompositions.calls": ("lattice.decompositions", "calls"),
    "lattice.decompositions.busy_s": ("lattice.decompositions", "busy_s"),
    "lattice.decompositions.pairs": ("lattice.decompositions", "pairs"),
    "lattice.box_oracle.busy_s": ("lattice.box_oracle", "busy_s"),
    "gw_engine.invariant_record.busy_s": ("gw_engine.invariant_record", "busy_s"),
    "gw_engine.invariant_record.self_s": ("gw_engine.invariant_record", "self_s"),
    "gw_engine.genus2_core.busy_s": ("gw_engine.genus2_core", "busy_s"),
    "sweeps.orbit_labels.busy_s": ("sweeps.orbit_labels", "busy_s"),
    "sweeps.orbit_labels.builds": ("sweeps.orbit_labels", "misses"),
    "sweeps.evals": ("sweeps.eval", "calls"),
    "sweeps.eval.self_s": ("sweeps.eval", "self_s"),
    "sweeps.scan_cell.calls": ("sweeps.scan_cell", "calls"),
    "sweeps.scan_cell.busy_s": ("sweeps.scan_cell", "busy_s"),
    "sweeps.scan_cell.candidates": ("sweeps.scan_cell", "candidates"),
    "sweeps.class_value.calls": ("sweeps.class_value", "calls"),
    "sweeps.class_value.busy_s": ("sweeps.class_value", "busy_s"),
    "sweeps.agreement.busy_s": ("sweeps.agreement", "busy_s"),
    "sweeps.agreement.oracle_busy_s": ("sweeps.agreement.oracle", "busy_s"),
    "sweeps.agreement.optimized_busy_s": ("sweeps.agreement.optimized", "busy_s"),
    "sweeps.box_table.busy_s": ("sweeps.box_table", "busy_s"),
    "qseries.sigma_pow.calls": ("qseries.sigma_pow", "calls"),
    "qseries.sigma_pow.busy_s": ("qseries.sigma_pow", "busy_s"),
    "cli.rows.count": ("cli.rows", "count"),
    "cli.rows.self_s": ("cli.rows", "self_s"),
    "cli.emit.self_s": ("cli.emit", "self_s"),
}
PROBE_NAMES = [name for name, _, _ in SPEC["probes"]["full"]]
OTHER_LAYER_UNITS = {
    "cli.bytes_out": "bytes", "selfcheck.budget_frac": "frac",
    "trace.wall_s": "s", "trace.overhead_frac": "frac",
    "trace.unattributed_s": "s",
}


def layer_unit(name):
    if name in OTHER_LAYER_UNITS:
        return OTHER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


PER_LAYER = {name: layer_unit(name)
             for name in list(LAYER_FIELDS) + PROBE_NAMES + list(OTHER_LAYER_UNITS)}


# -- statistics ----------------------------------------------------------


def _rank(p, n):
    """1-based nearest rank of percentile p (in tenths of a percent) of n samples."""
    return max(1, -(-p * n // 1000))


def percentile(values, p):
    """Nearest-rank percentile of a nonempty sample; p in percent."""
    xs = sorted(values)
    return xs[_rank(round(p * 10), len(xs)) - 1]


def timing_summary(values):
    """Median, the highest of p90/p99/p99.9 with at least ten samples
    beyond it (None when the sample is too small), and the count."""
    out = {"n": len(values), "median": statistics.median(values), "tail": None}
    for p in (999, 990, 900):
        if len(values) - _rank(p, len(values)) >= 10:
            out["tail"] = {"p": p / 10, "value": percentile(values, p / 10)}
            break
    return out


def reference_loop():
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


# -- environment ---------------------------------------------------------


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def _git_commit():
    head = _read(ROOT / ".git" / "HEAD").strip()
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref).strip()
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or None
    return head or None


def _version(dist):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _openblas_version():
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return "%s %s" % (blas.get("name"), blas.get("version"))


def environment(seed, nproc, blas_threads):
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "nproc": nproc, "cpu_model": cpu, "ram_gb": round(mem_kb / 1048576.0, 2),
        "python": platform.python_version(), "numpy": _version("numpy"),
        "sympy": _version("sympy"), "blas": _openblas_version(),
        "blas_threads": blas_threads, "git_commit": _git_commit(), "seed": seed,
        "loadavg_before": list(os.getloadavg()),
    }


# -- workload inputs -----------------------------------------------------

_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))
_CARTAN = [[2 if i == j else 0 for j in range(8)] for i in range(8)]
for _a, _b in _E8_EDGES:
    _CARTAN[_a - 1][_b - 1] = _CARTAN[_b - 1][_a - 1] = -1


def weyl_word(e, rng):
    """Apply a random word of E8 simple reflections, an isometry fixing
    the hyperbolic part, so the invariant of the class is unchanged."""
    e = list(e)
    for _ in range(rng.randint(4, 16)):
        i = rng.randrange(8)
        e[i] -= sum(_CARTAN[i][j] * e[j] for j in range(8))
    return e


# one command of a pass and the check of its output
Op = collections.namedtuple("Op", "argv check")


def pass_ops(workload, spec, rng):
    if workload == "invariant-cold":
        ops = []
        for q in spec["queries"]:
            beta = q["beta"][:2] + weyl_word(q["beta"][2:], rng)
            argv = ["invariant", "--genus", str(q["genus"]),
                    "--beta", ",".join(map(str, beta)), "--degree", str(q["degree"])]
            want = {"genus": q["genus"], "beta": beta, "d": q["degree"],
                    "value": q["value"], "rule": q["rule"]}
            ops.append(Op(argv, ("record", want)))
        rng.shuffle(ops)
        return ops
    if "sha256" in spec:
        return [Op(spec["argv"], ("digest", spec["sha256"], spec["lines"]))]
    return [Op(spec["argv"], ("verdict", spec["criteria"]))]


def check_output(op, rep):
    """None if the command's output is right, else why not."""
    if rep.get("rc") != 0:
        return "exit code %r" % rep.get("rc")
    kind = op.check[0]
    if kind == "record":
        try:
            got = json.loads(rep["text"])
        except (KeyError, ValueError):
            return "unparsable invariant output"
        return None if got == op.check[1] else "invariant %r != %r" % (got, op.check[1])
    if kind == "digest":
        if rep["sha256"] != op.check[1] or rep["lines"] != op.check[2]:
            return "digest %s (%d lines) != golden" % (rep["sha256"], rep["lines"])
        return None
    lines = rep.get("text", "").splitlines()
    n = op.check[1]
    verdicts = [line for line in lines if line.startswith("criterion ")]
    if len(verdicts) != n or any(" PASS " not in v for v in verdicts) \
            or lines[-1:] != ["%d/%d criteria passed" % (n, n)]:
        return "self-check verdict: %r" % lines
    return None


def budget_frac(text):
    """Largest criterion seconds / budget in self-check output."""
    fracs = []
    for line in text.splitlines():
        if line.startswith("criterion ") and "budget " in line:
            inner = line.split("(", 1)[1].split(")", 1)[0]
            secs, budget = inner.split(", budget ")
            fracs.append(float(secs.rstrip("s")) / float(budget.rstrip("s")))
    return max(fracs) if fracs else None


# -- child processes -----------------------------------------------------


class Runner:
    def __init__(self, workdir, env, deadline):
        self.workdir = workdir
        self.env = env
        self.deadline = deadline
        self.n = 0
        self.refs = []          # reference_loop() seconds, one per child and one at the end

    def child(self, job):
        """Run child.py on one job; returns its report or raises."""
        self.refs.append(reference_loop())
        self.n += 1
        tag = "%d" % self.n
        job = dict(job, src=str(SRC), report=str(self.workdir / ("rep%s.json" % tag)),
                   stdout=str(self.workdir / ("out%s" % tag)))
        job_path = self.workdir / ("job%s.json" % tag)
        err_path = self.workdir / ("err%s.txt" % tag)
        timeout = min(CHILD_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout <= 0:
            raise TimeoutError("run time limit reached")
        with open(err_path, "w", encoding="utf-8") as err:
            job["t_spawn"] = time.monotonic()
            job_path.write_text(json.dumps(job), encoding="utf-8")
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(job_path)],
                                  stdin=subprocess.DEVNULL, stdout=err, stderr=err,
                                  env=self.env, cwd=str(ROOT), timeout=timeout)
        if proc.returncode != 0:
            tail = _read(err_path)[-2000:]
            raise RuntimeError("child exited %d: %s" % (proc.returncode, tail))
        rep = json.loads(Path(job["report"]).read_text(encoding="utf-8"))
        for p in (job_path, err_path, Path(job["report"])):
            p.unlink()
        return rep

    def run_pass(self, ops, trace):
        """Run each op once; returns (records, failures)."""
        records, failures = [], []
        for op in ops:
            try:
                rep = self.child({"kind": "command", "argv": op.argv, "trace": trace})
            except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
                failures.append("%s: %s" % (" ".join(op.argv[:3]), exc))
                records.append(None)
                continue
            why = check_output(op, rep)
            if why:
                failures.append("%s: %s" % (" ".join(op.argv[:5]), why))
            records.append(rep)
        return records, failures


# -- one benchmark run ---------------------------------------------------


def measure(runner, workload, spec, rng, seconds):
    """Untraced run: setup probes, then passes until `seconds` is used."""
    setups, notes, failures = [], [], []
    attempted = probes_run = 0

    def setup_probe():
        nonlocal attempted, probes_run
        attempted += 1
        probes_run += 1
        try:
            setups.append(runner.child({"kind": "setup"})["setup_s"])
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
            failures.append("setup: %s" % exc)

    passes, query_walls, rows, rss, loads, fracs = [], [], 0, [], [], []
    start = time.monotonic()
    pass_durations = []
    while True:
        # one setup probe per pass, spread over the run like the passes
        setup_probe()
        ops = pass_ops(workload, spec, rng)
        loads.append(os.getloadavg()[0])
        t0 = time.monotonic()
        records, fails = runner.run_pass(ops, trace=False)
        pass_durations.append(time.monotonic() - t0)
        attempted += len(ops)
        failures += fails
        good = [r for r in records if r is not None]
        if len(good) == len(ops):
            passes.append(sum(r["wall_s"] for r in good))
        query_walls += [r["wall_s"] for r in good]
        setups += [r["setup_s"] for r in good]
        rows += sum(r["lines"] for r in good)
        if good:
            rss.append(max(r["peak_rss_mb"] for r in good))
        fracs += [f for f in (budget_frac(r.get("text", "")) for r in good) if f is not None]
        elapsed = time.monotonic() - start
        typical = statistics.median(pass_durations)
        if fails or elapsed >= seconds - typical / 2 \
                or time.monotonic() + typical > runner.deadline:
            break
    while probes_run < SETUP_PROBES and not failures:
        setup_probe()
    runner.refs.append(reference_loop())
    scale = REF_S / statistics.median(runner.refs)
    metrics, record = {}, {"passes": len(passes), "loadavg_per_pass": loads,
                           "speed": {"reference_s": statistics.median(runner.refs),
                                     "samples": len(runner.refs), "scale": scale}}
    if passes and setups:
        metrics = {
            "setup_s": statistics.median(setups) * scale,
            # mean of the run's few passes: host slowdowns hit single
            # passes, and the mean was steadier across seeds than the median
            "wall_s": statistics.mean(passes) * scale,
            "rows_per_s": rows / sum(query_walls) / scale,
            "peak_rss_mb": statistics.median(rss),
        }
        record["raw_timings"] = {"setup_s": timing_summary(setups),
                                 "wall_s": timing_summary(passes),
                                 "query_s": timing_summary(query_walls)}
        # with a few queries per run these two rest on one or two query
        # types each, too unsteady for a bound; printed here, not bounded
        record["query_p50_s"] = {"value": statistics.median(query_walls) * scale,
                                 "unit": "s", "n": len(query_walls)}
        record["query_p90_s"] = {"value": percentile(query_walls, 90) * scale,
                                 "unit": "s", "n": len(query_walls)}
    if fracs:
        record["budget_frac"] = {"value": statistics.median(fracs), "unit": "frac"}
    else:
        notes.append("budget_frac: this workload runs no budgeted criterion")
    return metrics, attempted, failures, record, notes


def _sum_field(reports, boundary, field):
    return sum(r["trace"]["totals"].get(boundary, {}).get(field, 0) for r in reports)


def measure_traced(runner, workload, spec, rng, probe_specs):
    """Traced run: one untraced pass, the same inputs traced, then the
    layer probes in a fresh interpreter."""
    ops = pass_ops(workload, spec, rng)
    failures, notes = [], []
    plain, fails = runner.run_pass(ops, trace=False)
    failures += fails
    traced, fails = runner.run_pass(ops, trace=True)
    failures += fails
    attempted = 2 * len(ops) + 1
    metrics = {}
    record = {}
    if None in plain or None in traced:
        return metrics, attempted, failures, record, notes
    plain_wall = sum(r["wall_s"] for r in plain)
    traced_wall = sum(r["wall_s"] for r in traced)
    for name, (boundary, field) in LAYER_FIELDS.items():
        metrics[name] = _sum_field(traced, boundary, field)
    missing = sorted({m for r in traced for m in r["trace"]["missing"]})
    for boundary in missing:
        notes.append("boundary %s is absent; its metrics read 0" % boundary)
    root_self = _sum_field(traced, "cli.main", "self_s")
    self_total = sum(t["self_s"] for r in traced for t in r["trace"]["totals"].values())
    if self_total > traced_wall * 1.001 + 1e-4:
        failures.append("trace: self times %.4f s exceed traced wall %.4f s"
                        % (self_total, traced_wall))
    fracs = [budget_frac(r.get("text", "")) for r in plain]
    fracs = [f for f in fracs if f is not None]
    metrics.update({
        "cli.bytes_out": sum(r["bytes"] for r in traced),
        "selfcheck.budget_frac": max(fracs) if fracs else 0,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1,
        "trace.unattributed_s": root_self,
    })
    try:
        probes = runner.child({"kind": "probes", "probes": probe_specs})["probes"]
    except (RuntimeError, TimeoutError, subprocess.TimeoutExpired) as exc:
        failures.append("probes: %s" % exc)
        probes = {"values": {}, "notes": []}
    notes += probes["notes"]
    for name, _, _ in probe_specs:
        value = probes["values"].get(name)
        metrics[name] = value if value is not None else 0
    record = {"untraced_wall_s": plain_wall,
              "self_s_total": self_total,
              "by_parent": [row for r in traced for row in r["trace"]["by_parent"]],
              "dropped_spans": sum(r["trace"]["dropped_spans"] for r in traced)}
    spans = [s for r in traced for s in r["trace"]["spans"]]
    trace_path = WORK / ("trace-%s.json" % workload)
    trace_path.write_text(json.dumps({"workload": workload, "spans": spans}),
                          encoding="utf-8")
    record["spans_file"] = str(trace_path.relative_to(ROOT))
    record["spans"] = len(spans)
    return metrics, attempted, failures, record, notes


def run_once(workload, seed, seconds, trace, mode="full"):
    """One benchmark run; returns (summary, record)."""
    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc)
    env.pop("PYTHONPATH", None)
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc)
    record = {"workload": workload, "mode": mode, "trace": trace,
              "env": environment(seed, nproc, nproc)}
    rng = random.Random(seed)
    spec = SPEC["workloads"][workload][mode]
    WORK.mkdir(exist_ok=True)
    workdir = WORK / ("run-%d" % os.getpid())
    workdir.mkdir()
    try:
        runner = Runner(workdir, env, started + RUN_LIMIT_S)
        if trace:
            metrics, attempted, failures, detail, notes = measure_traced(
                runner, workload, spec, rng, SPEC["probes"][mode])
            units = PER_LAYER
        else:
            metrics, attempted, failures, detail, notes = measure(
                runner, workload, spec, rng, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record.update(detail)
    record["error_rate"] = {"value": len(failures) / max(attempted, 1), "unit": "frac"}
    record["failures"] = failures[:20]
    record["notes"] = notes
    record["run_s"] = time.monotonic() - started
    summary = {
        "correct": not failures and set(metrics) == set(units),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units if name in metrics},
    }
    return summary, record


# -- smoke ---------------------------------------------------------------


def smoke(workloads):
    """Tiny inputs, one run per workload and trace mode; checks that
    every metric named in BENCHMARK.json is printed with its unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in workloads:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            summary, record = run_once(workload, 1, 1, trace, mode="smoke")
            if not summary["correct"]:
                problems.append("%s trace=%d: incorrect: %s" % (workload, trace, record["failures"]))
            printed = summary["metrics"]
            for m in bench[key]:
                got = printed.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s trace=%d: %s missing or wrong unit (%r)"
                                    % (workload, trace, m["name"], got))
    print(json.dumps({"smoke": workloads, "problems": problems}))
    return 0 if not problems else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every trace mode, metric names checked")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "enriques_gw" / "cli.py").is_file():
        sys.stderr.write("perfbench: no enriques_gw sources under %s\n" % SRC)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    if args.smoke:
        return smoke([args.workload] if args.workload else list(SPEC["workloads"]))
    if args.workload is None:
        parser.error("--workload is required")
    summary, record = run_once(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"perfbench": record}))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
