"""One fresh interpreter of the benchmark: set up, then one job.

Usage: python3 perfbench/child.py <job.json>

The job file names the checkout's source directory, the monotonic time
at which the parent started this process, where to write the report,
and what to do:

  "setup"   import enriques_gw.cli and stop;
  "command" run enriques_gw.cli.main(argv) with stdout sent to a file,
            optionally under the layer tracer;
  "probes"  time single cold layer calls (see probes.py).

The report is one JSON object: setup seconds (interpreter start to
`enriques_gw.cli` imported), the job's own figures, and the peak
resident memory of this process.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time


def _digest(path):
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
            lines += block.count(b"\n")
    return h.hexdigest(), lines


def _main(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def _run_command(job, cli):
    tracer = None
    if job.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    out_path = job["stdout"]
    real_stdout = sys.stdout
    sink = open(out_path, "w", encoding="utf-8")
    sys.stdout = sink
    try:
        t0 = time.perf_counter()
        if tracer is not None:
            rc = tracer.call(tracing.ROOT, lambda: _main(cli, job["argv"]), coarse=True)
        else:
            rc = _main(cli, job["argv"])
        sink.flush()
        wall = time.perf_counter() - t0
    finally:
        sys.stdout = real_stdout
        sink.close()
    digest, lines = _digest(out_path)
    report = {"rc": rc, "wall_s": wall, "sha256": digest, "lines": lines,
              "bytes": os.path.getsize(out_path)}
    if report["bytes"] <= 65536:
        with open(out_path, encoding="utf-8") as f:
            report["text"] = f.read()
    os.remove(out_path)
    if tracer is not None:
        report["trace"] = tracer.report()
    return report


def main():
    with open(sys.argv[1], encoding="utf-8") as f:
        job = json.load(f)
    sys.path.insert(0, job["src"])
    import enriques_gw.cli as cli
    setup = time.monotonic() - job["t_spawn"]
    report = {"setup_s": setup}
    if job["kind"] == "command":
        report.update(_run_command(job, cli))
    elif job["kind"] == "probes":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import probes
        report["probes"] = probes.run(job["probes"], job["stdout"])
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["report"], "w", encoding="utf-8") as f:
        json.dump(report, f)


if __name__ == "__main__":
    main()
