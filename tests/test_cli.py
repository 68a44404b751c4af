import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

import enriques_gw
from enriques_gw import cli, km_model, lattice, qseries, sweeps
from enriques_gw.gw_engine import enriques_genus1, invariant_record, n_invariant
from enriques_gw.lattice import (
    CARTAN_E8,
    LatticeVector,
    enumerate_decompositions,
    pair,
    parse_vector,
    square,
)
from enriques_gw.sweeps import FiberSweepEngine

FIBER = "1,0,0,0,0,0,0,0,0,0"
SECTION_SUM = "1,1,0,0,0,0,0,0,0,0"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariant_json(capsys):
    code, out, _ = run(capsys, "invariant", "--genus", "1", "--beta", SECTION_SUM)
    assert code == 0
    record = json.loads(out)
    assert record == {
        "genus": 1,
        "beta": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        "d": 0,
        "value": "128",
        "rule": "recursion",
    }


def test_invariant_csv(capsys):
    code, out, _ = run(capsys, "invariant", "--genus", "2", "--beta", SECTION_SUM,
                       "--degree", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.CSV_HEADER
    assert rows[1] == ["2", "1", "1"] + ["0"] * 8 + ["1", "384", "degree series"]


def test_invariant_fractional_value_round_trips(capsys):
    beta = "3,0,0,0,0,0,0,0,0,0"
    code, out, _ = run(capsys, "invariant", "--genus", "1", "--beta", beta)
    assert code == 0
    record = json.loads(out)
    assert Fraction(record["value"]) == n_invariant(1, (parse_vector(beta), 0))
    assert record["value"] == "32/3"


def test_invariant_compute_error_exit(capsys):
    code, _, err = run(capsys, "invariant", "--genus", "1", "--beta",
                       "0,0,0,0,0,0,0,0,0,0")
    assert code == 2
    assert "unstable" in err
    code, _, err = run(capsys, "invariant", "--genus", "1", "--beta", "1,2,3")
    assert code == 2


# invariant's exact stdout, recorded from the csv.writer / json.dumps
# emitter the table line templates replace: (genus, beta, degree, JSON
# line, CSV row); genus 0, 1 and 2, isotropic classes, the zero class in
# positive degree, negative squares, a non-positive class, a fraction
INVARIANT_BYTES = [
    (0, '1,1,0,0,0,0,0,0,0,0', 0,
     '{"genus": 0, "beta": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "0", "rule": "vanishing"}',
     '0,1,1,0,0,0,0,0,0,0,0,0,0,vanishing'),
    (1, '1,1,0,0,0,0,0,0,0,0', 0,
     '{"genus": 1, "beta": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "128", "rule": "recursion"}',
     '1,1,1,0,0,0,0,0,0,0,0,0,128,recursion'),
    (1, '3,0,0,0,0,0,0,0,0,0', 0,
     '{"genus": 1, "beta": [3, 0, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "32/3", "rule": "isotropic base"}',
     '1,3,0,0,0,0,0,0,0,0,0,0,32/3,isotropic base'),
    (1, '1,1,1,0,0,0,0,0,0,0', 0,
     '{"genus": 1, "beta": [1, 1, 1, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "8", "rule": "isotropic base"}',
     '1,1,1,1,0,0,0,0,0,0,0,0,8,isotropic base'),
    (1, '0,2,0,0,0,0,0,0,0,0', 0,
     '{"genus": 1, "beta": [0, 2, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "8", "rule": "isotropic base"}',
     '1,0,2,0,0,0,0,0,0,0,0,0,8,isotropic base'),
    (1, '0,0,0,0,0,0,0,0,0,0', 3,
     '{"genus": 1, "beta": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "d": 3, "value": "16", "rule": "isotropic base"}',
     '1,0,0,0,0,0,0,0,0,0,0,3,16,isotropic base'),
    (1, '2,1,0,0,0,0,0,0,0,0', 2,
     '{"genus": 1, "beta": [2, 1, 0, 0, 0, 0, 0, 0, 0, 0], "d": 2, "value": "0", "rule": "vanishing"}',
     '1,2,1,0,0,0,0,0,0,0,0,2,0,vanishing'),
    (1, '0,1,1,0,0,0,0,0,0,0', 0,
     '{"genus": 1, "beta": [0, 1, 1, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "0", "rule": "vanishing"}',
     '1,0,1,1,0,0,0,0,0,0,0,0,0,vanishing'),
    (1, '-1,0,0,0,0,0,0,0,0,0', 0,
     '{"genus": 1, "beta": [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "0", "rule": "vanishing"}',
     '1,-1,0,0,0,0,0,0,0,0,0,0,0,vanishing'),
    (2, '2,1,0,0,0,0,0,0,0,0', 0,
     '{"genus": 2, "beta": [2, 1, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "-288", "rule": "fiber"}',
     '2,2,1,0,0,0,0,0,0,0,0,0,-288,fiber'),
    (2, '1,1,0,0,0,0,0,0,0,0', 4,
     '{"genus": 2, "beta": [1, 1, 0, 0, 0, 0, 0, 0, 0, 0], "d": 4, "value": "2688", "rule": "degree series"}',
     '2,1,1,0,0,0,0,0,0,0,0,4,2688,degree series'),
    (2, '2,2,-1,0,1,0,0,0,0,0', 3,
     '{"genus": 2, "beta": [2, 2, -1, 0, 1, 0, 0, 0, 0, 0], "d": 3, "value": "1536", "rule": "degree series"}',
     '2,2,2,-1,0,1,0,0,0,0,0,3,1536,degree series'),
    (2, '0,1,1,0,0,0,0,0,0,0', 2,
     '{"genus": 2, "beta": [0, 1, 1, 0, 0, 0, 0, 0, 0, 0], "d": 2, "value": "0", "rule": "degree series"}',
     '2,0,1,1,0,0,0,0,0,0,0,2,0,degree series'),
    (2, '0,0,0,0,0,0,0,0,0,0', 5,
     '{"genus": 2, "beta": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0], "d": 5, "value": "0", "rule": "vanishing"}',
     '2,0,0,0,0,0,0,0,0,0,0,5,0,vanishing'),
    (2, '4,0,0,0,0,0,0,0,0,0', 0,
     '{"genus": 2, "beta": [4, 0, 0, 0, 0, 0, 0, 0, 0, 0], "d": 0, "value": "0", "rule": "fiber"}',
     '2,4,0,0,0,0,0,0,0,0,0,0,0,fiber'),
]


@pytest.mark.parametrize("genus,beta,degree,json_line,csv_row", INVARIANT_BYTES,
                         ids=["g%d-%s-d%d" % case[:3] for case in INVARIANT_BYTES])
def test_invariant_bytes_are_pinned(capsys, genus, beta, degree, json_line, csv_row):
    argv = ["invariant", "--genus", str(genus), "--beta=" + beta, "--degree", str(degree)]
    assert run(capsys, *argv) == (0, json_line + "\n", "")
    header = "genus,b1,b2,b3,b4,b5,b6,b7,b8,b9,b10,d,value,rule\n"
    assert run(capsys, *argv, "--format", "csv") == (0, header + csv_row + "\n", "")


def test_invariant_refuses_a_runaway_ball_at_once(capsys):
    # (10, 10, 0^8) needs the norm-50 ball: 27,334,081 vectors
    t0 = time.perf_counter()
    code, out, err = run(capsys, "invariant", "--genus", "1", "--beta", "10,10,0,0,0,0,0,0,0,0")
    assert time.perf_counter() - t0 < 1.0
    assert (code, out) == (2, "") and "norm <= 50" in err


def test_main_builds_only_the_subparser_argv_names(capsys, monkeypatch):
    # a command builds its own subparser alone; --help, an empty argv and
    # an unknown name build all six, and every usage line lists them all
    built = []
    for name, (text, add_args) in list(cli._COMMANDS.items()):
        def spy(p, name=name, add_args=add_args):
            built.append(name)
            add_args(p)
        monkeypatch.setitem(cli._COMMANDS, name, (text, spy))
    every = "{invariant,table,series,km-check,local,selfcheck}"
    code, out, _ = run(capsys, "invariant", "--genus", "1", "--beta", SECTION_SUM)
    assert (code, built) == (0, ["invariant"]) and '"value": "128"' in out
    for argv in (["--help"], [], ["no-such-command"], ["table", "--genus", "1", "--bogus"]):
        built.clear()
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert built == (["table"] if argv[:1] == ["table"] else list(cli._COMMANDS)), argv
        assert exc.value.code == (0 if argv == ["--help"] else 1)
        assert "usage: enriques-gw [-h] %s ..." % every in captured.out + captured.err


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["invariant", "--genus", "1"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_table_small_box_values_and_order(capsys):
    code, out, _ = run(capsys, "table", "--genus", "1", "--max-b1", "2",
                       "--max-b2", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == cli.CSV_HEADER
    body = rows[1:]
    coords = [tuple(int(x) for x in row[1:11]) for row in body]
    assert coords == sorted(coords)
    values = {tuple(int(x) for x in row[1:3]): (row[12], row[13]) for row in body}
    assert values[(1, 0)] == ("8", "isotropic base")
    assert values[(2, 0)] == ("8", "isotropic base")
    assert values[(0, 1)] == ("8", "isotropic base")
    assert values[(1, 1)] == ("128", "recursion")
    assert values[(2, 1)] == ("1152", "recursion")


def test_table_matches_single_invariant_records(capsys):
    code, out, _ = run(capsys, "table", "--genus", "2", "--max-b1", "2",
                       "--max-b2", "2", "--max-e8-norm", "2", "--max-degree", "2")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows
    for row in rows[::7]:
        beta = parse_vector(",".join(str(x) for x in row["beta"]))
        want = n_invariant(row["genus"], (beta, row["d"]))
        assert Fraction(row["value"]) == want


def test_table_genus0_all_vanishing(capsys):
    code, out, _ = run(capsys, "table", "--genus", "0", "--max-b1", "1",
                       "--max-b2", "1", "--max-degree", "1")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(r["value"] == "0" and r["rule"] == "vanishing" for r in rows)


def test_table_output_is_deterministic(capsys):
    argv = ["table", "--genus", "2", "--max-b1", "2", "--max-b2", "2",
            "--max-e8-norm", "2", "--max-degree", "1", "--format", "csv"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_table_json_and_csv_agree(capsys):
    base = ["table", "--genus", "1", "--max-b1", "1", "--max-b2", "1",
            "--max-e8-norm", "2"]
    _, jout, _ = run(capsys, *base)
    _, cout, _ = run(capsys, *base, "--format", "csv")
    jrows = [json.loads(line) for line in jout.splitlines()]
    crows = list(csv.reader(io.StringIO(cout)))[1:]
    assert len(jrows) == len(crows)
    for jrow, crow in zip(jrows, crows):
        assert [str(jrow["genus"])] + [str(x) for x in jrow["beta"]] + \
            [str(jrow["d"]), jrow["value"], jrow["rule"]] == crow


def test_table_refusals(capsys):
    code, _, err = run(capsys, "table", "--genus", "1", "--max-b1", "7")
    assert code == 2 and "cap" in err
    code, _, err = run(capsys, "table", "--genus", "1", "--max-b1", "-1")
    assert code == 2
    code, _, err = run(capsys, "table", "--genus", "1", "--max-b1", "2",
                       "--max-b2", "2", "--max-e8-norm", "4", "--limit", "10")
    assert code == 2 and "limit" in err


# the smoke tables of the benchmark's workloads and two more boxes; the
# digests were recorded from the per-row emitter these lines replace
TABLE_DIGESTS = [
    (["--genus", "1", "--max-b1", "2", "--max-b2", "2", "--max-e8-norm", "2",
      "--format", "csv"],
     "2c9a4b356feda3f191ef2276a9374243db056549ca72d5548ba5e77165543d08"),
    (["--genus", "2", "--max-b1", "1", "--max-b2", "1", "--max-e8-norm", "2",
      "--max-degree", "2", "--format", "json"],
     "1e9a5da8226b0b5c0caa3bd62bc725637a77b71e16f9a8a612e30197ec67bf45"),
    (["--genus", "0", "--max-b1", "2", "--max-b2", "2", "--max-e8-norm", "2",
      "--max-degree", "2", "--format", "json"],
     "f3b984e5371d6b4d6800f9c08d8a7779e9d66a21e7d432c2807293dd78922839"),
    (["--genus", "2", "--max-b1", "2", "--max-b2", "2", "--max-e8-norm", "2",
      "--max-degree", "3", "--format", "csv"],
     "8c6d7c18bcf696567c444756c42dd68286d5a8b6d1945d4bcab1db687bf0ccb7"),
    # the full output of the benchmark's table-g2-wide workload
    (["--genus", "2", "--max-b1", "3", "--max-b2", "3", "--max-e8-norm", "4",
      "--max-degree", "5", "--format", "json"],
     "546a163d18ef7bab064334310c83136b3021ecff38f32839cb3ea0e094badea0"),
]


@pytest.mark.parametrize("argv,digest", TABLE_DIGESTS)
def test_table_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "table", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_table_builds_its_largest_ball_once(capsys, monkeypatch):
    # on a fresh cache and engine, the benchmark's table-g1-deep box builds
    # one whole ball, the norm-4 ball of its E8 parts, and its cells read
    # only cones (see lattice.orbit_representatives); a genus-0 table reads
    # no <1> and builds only that ball; a table refused by --limit builds
    # nothing
    build = lattice._short_vector_array
    builds = []

    def spy(bound, J=()):
        builds.append((bound, J))
        return build(bound, J)

    calls = {"orbit_ids": 0, "alcove_points": 0}
    for name in calls:
        def count(*args, name=name, fn=getattr(sweeps, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(sweeps, name, count)
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    monkeypatch.setattr(lattice, "_short_vector_array", spy)
    argv = ["--max-b1", "6", "--max-b2", "6", "--max-e8-norm", "4", "--format", "csv"]
    for genus in ("1", "0"):
        monkeypatch.setattr(lattice, "_CONES", {})
        monkeypatch.setattr(cli, "ENGINE", FiberSweepEngine())
        builds.clear()
        code, out, _ = run(capsys, "table", "--genus", genus, *argv)
        assert code == 0 and [bound for bound, J in builds if not J] == [4]
        if genus == "1":
            # each cone J is built once, at the largest ball the schedule's
            # level asks of it; each level's part rows are named in calls
            # of at most sweeps._BATCH_ROWS rows, and its dominant E8 parts
            # found in one alcove_points call (the depth-first engine
            # before it made 54 builds for these 11 cones and the ball, 313
            # orbit_ids calls and 91 alcove_points calls)
            cones = [J for _, J in builds if J]
            assert len(cones) == len(set(cones)) == 11
            assert calls == {"orbit_ids": 54, "alcove_points": 46}
            digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
            assert digest == "f19ccde1853ae2652dc1afd5d05bb40061ebea73967da89101b88d2b5147b8ae"
        else:
            assert len(builds) == 1
    # the row count checked against --limit comes from the theta series
    monkeypatch.setattr(lattice, "_CONES", {})
    builds.clear()
    code, _, err = run(capsys, "table", "--genus", "1", *argv, "--limit", "1")
    assert code == 2 and "exceed the limit" in err and builds == []


WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "workloads.json").read_text(encoding="utf-8"))["workloads"]


@pytest.mark.parametrize("workload", ["table-g1-deep", "table-g2-wide"])
def test_table_chunks_of_an_odd_size_keep_the_goldens(capsys, monkeypatch, workload):
    # with 7-line chunks a chunk holds 7 one-line classes of the genus-1
    # smoke table, or 2 three-line classes of the genus-2 one (--max-degree
    # 2): never a split class, and the bytes stay the benchmark's goldens
    monkeypatch.setattr(cli, "_CHUNK_LINES", 7)
    smoke = WORKLOADS[workload]["smoke"]
    args = cli.build_parser().parse_args(smoke["argv"])
    per_class = args.max_degree + 1
    chunks = list(cli._table_rows(args))
    counts = [chunk.count("\n") for chunk in chunks]
    assert sum(counts) == smoke["lines"] - (args.format == "csv")  # less the header
    assert all(n % per_class == 0 and n <= 7 // per_class * per_class for n in counts)
    assert counts.count(7 // per_class * per_class) > len(counts) // 2
    code, out, _ = run(capsys, *smoke["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == smoke["sha256"]


def test_table_workloads_evaluate_the_pinned_number_of_classes(capsys, monkeypatch):
    # a fresh engine evaluates each engine key of a benchmark table once
    for workload, evals in [("table-g1-deep", 178), ("table-g2-wide", 24)]:
        eng = FiberSweepEngine()
        monkeypatch.setattr(cli, "ENGINE", eng)
        full = WORKLOADS[workload]["full"]
        code, out, _ = run(capsys, *full["argv"])
        assert code == 0 and eng.evals == len(eng.values) == evals
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == full["sha256"]


@pytest.mark.parametrize("genus", [1, 2])
def test_table_rows_match_independent_ingredients(capsys, genus):
    # every row against <1> from the per-class recursion, sympy's sigma_1
    # and a core summed here over enumerate_decompositions
    code, out, _ = run(capsys, "table", "--genus", str(genus), "--max-b1", "2",
                       "--max-b2", "2", "--max-e8-norm", "2", "--max-degree", "3")
    assert code == 0
    memo = {}
    cores = {}

    def genus1(beta):
        return enriques_genus1(beta, memo=memo)

    def core(beta):
        if beta.coords not in cores:
            total = 4 * genus1(beta) * square(beta)
            for beta1, beta2 in enumerate_decompositions(beta):
                total += 16 * genus1(beta1) * genus1(beta2) * pair(beta1, beta2)
            cores[beta.coords] = total
        return cores[beta.coords]

    rows = [json.loads(line) for line in out.splitlines()]
    classes = []
    for row in rows:
        beta, d = LatticeVector(tuple(row["beta"])), row["d"]
        s = square(beta)
        if d == 0:
            classes.append(beta.coords)
        if genus == 1 and (d > 0 or s < 0):
            want = (0, "vanishing")
        elif genus == 1:
            want = (4 * genus1(beta), "isotropic base" if s == 0 else "recursion")
        elif d == 0:
            want = (Fraction(-1, 4) * genus1(beta) * s, "fiber")
        else:
            want = (int(sympy.divisor_sigma(d, 1)) * core(beta), "degree series")
        assert (row["genus"], Fraction(row["value"]), row["rule"]) == (genus,) + want, row
    n_parts = 1 + 240
    assert len(classes) == len(set(classes)) == 2 + 3 * 2 * n_parts
    assert [row["d"] for row in rows] == [0, 1, 2, 3] * len(classes)


def _roots_by_reflection():
    """The 240 roots of E8 in simple-root coordinates, closed under the
    simple reflections x -> x - (C x)_i alpha_i from the simple roots."""
    roots = set()
    todo = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    while todo:
        x = todo.pop()
        if x in roots:
            continue
        roots.add(x)
        for i in range(8):
            c = sum(CARTAN_E8[i][j] * x[j] for j in range(8))
            todo.append(tuple(x[j] - c * (i == j) for j in range(8)))
    return roots


@pytest.mark.parametrize("genus", [0, 1, 2])
def test_table_bytes_equal_serialized_invariant_records(capsys, genus):
    # the box holds n*v1 rows (n <= 3), negative-square classes (b1 = 0 and
    # a root) and three degrees; every byte must equal the rows built here
    # from invariant_record, in lexicographic class order, written by
    # csv.writer and json.dumps
    roots = _roots_by_reflection()
    assert len(roots) == 240
    parts = [(0,) * 8] + sorted(roots)
    classes = sorted([(b1, 0) + (0,) * 8 for b1 in range(1, 4)]
                     + [(b1, b2) + e for b1 in range(4) for b2 in (1, 2) for e in parts])
    records = [invariant_record(genus, (LatticeVector(c), d))
               for c in classes for d in range(3)]
    assert any(square(r.cls.beta) < 0 for r in records)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["genus"] + ["b%d" % i for i in range(1, 11)] + ["d", "value", "rule"])
    for r in records:
        writer.writerow([r.genus, *r.cls.beta.coords, r.cls.d, str(r.value), r.rule])
    want = {
        "csv": buf.getvalue(),
        "json": "".join(json.dumps({"genus": r.genus, "beta": list(r.cls.beta.coords),
                                    "d": r.cls.d, "value": str(r.value), "rule": r.rule}) + "\n"
                        for r in records),
    }
    for fmt, text in want.items():
        code, out, _ = run(capsys, "table", "--genus", str(genus), "--max-b1", "3",
                           "--max-b2", "2", "--max-e8-norm", "2", "--max-degree", "2",
                           "--format", fmt)
        assert code == 0
        assert out == text, fmt


def test_table_isotropic_ray_rows_follow_the_multiplicity(capsys):
    # n*v1 rows share no engine key; <1> on the ray first differs at n = 3
    code, out, _ = run(capsys, "table", "--genus", "1", "--max-b1", "6",
                       "--max-b2", "0", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [int(row[1]) for row in rows] == [1, 2, 3, 4, 5, 6]
    for row in rows:
        beta = LatticeVector((int(row[1]),) + (0,) * 9)
        assert Fraction(row[12]) == 4 * enriques_genus1(beta, memo={})
        assert row[13] == "isotropic base"


def test_cli_import_leaves_sympy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(enriques_gw.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, enriques_gw.cli\n"
            "print([m for m in ('sympy', 'enriques_gw.selfcheck') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_selfcheck_divisor_sum_criteria_leave_sympy_unloaded():
    # criteria 1 and 4 take their divisor sums by trial division, so the
    # self-check runs without sympy
    src = os.path.dirname(os.path.dirname(os.path.abspath(enriques_gw.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys\n"
            "from enriques_gw import cli\n"
            "code = cli.main(['selfcheck', '--only', '1,4'])\n"
            "print(code, 'sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-2:] == ["2/2 criteria passed", "0 False"]


@pytest.mark.parametrize("b1,b2", [(1, 3000), (3000, 1), (1, 4096)])
def test_invariant_long_chain_exits_2_at_the_cell_cap_in_a_fresh_process(b1, b2):
    # every cell of a chain (b1 = 1 or b2 = 1) is radius-zero, so no ball
    # stops it: the cell cap refuses it before its first evaluation
    src = os.path.dirname(os.path.dirname(os.path.abspath(enriques_gw.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    argv = ["invariant", "--genus", "1", "--beta", "%d,%d,0,0,0,0,0,0,0,0" % (b1, b2)]
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "enriques_gw.cli"] + argv, env=env,
                          capture_output=True, text=True)
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("invariant: a class with b1*b2 = %d > 495 recursion cells is refused\n"
                           % (b1 * b2))


@pytest.mark.parametrize("argv,err", [
    # every ball of (1, b2, 0^8) has radius 0: the chain, not a ball, runs away
    (("invariant", "--genus", "1", "--beta", "1,10000000,0,0,0,0,0,0,0,0"),
     "invariant: a class with b1*b2 = 10000000 > 495 recursion cells is refused\n"),
    (("invariant", "--genus", "2", "--beta", SECTION_SUM, "--degree", str(10 ** 14)),
     "invariant: %d exceeds the divisor cap %d\n" % (10 ** 14, qseries.MAX_DIVISOR_ARG)),
    (("invariant", "--genus", "1", "--beta", "%d,0,0,0,0,0,0,0,0,0" % 10 ** 15),
     "invariant: %d exceeds the divisor cap %d\n" % (10 ** 15, qseries.MAX_DIVISOR_ARG)),
    (("km-check", "--genus", "1", "--beta", "%d,0,0,0,0,0,0,0,0,0" % 10 ** 13),
     "km-check: %d exceeds the divisor cap %d\n" % (10 ** 13, qseries.MAX_DIVISOR_ARG)),
])
def test_runaway_inputs_exit_2_at_once(capsys, argv, err):
    t0 = time.perf_counter()
    assert run(capsys, *argv) == (2, "", err)
    assert time.perf_counter() - t0 < 1.0


BIG = 10 ** 20


@pytest.mark.parametrize("argv", [
    ("invariant", "--genus", "1", "--beta", "3,%d,0,0,0,0,0,0,0,0" % BIG),
    ("invariant", "--genus", "1", "--beta", "%d,%d,%d,0,0,0,0,0,0,0" % (BIG, BIG, BIG // 10)),
    ("invariant", "--genus", "2", "--degree", "1", "--beta", "3,%d,0,0,0,0,0,0,0,0" % BIG),
    ("km-check", "--genus", "1", "--beta", "3,%d,0,0,0,0,0,0,0,0" % BIG),
])
def test_coordinates_past_int64_exit_2_at_once(capsys, argv):
    # the first coordinate past int64 is named, with the limit
    beta = argv[argv.index("--beta") + 1].split(",")
    first = next(i for i, x in enumerate(beta, 1) if abs(int(x)) >= 2 ** 63)
    err = ("%s: coordinate %d exceeds the int64 limit 9223372036854775807 in absolute value\n"
           % (argv[0], first))
    t0 = time.perf_counter()
    assert run(capsys, *argv) == (2, "", err)
    assert time.perf_counter() - t0 < 1.0


def test_km_check_walks_only_the_divisors_of_a_large_multiple(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "km-check", "--genus", "1", "--beta",
                       "%d,0,0,0,0,0,0,0,0,0" % 10 ** 7)
    assert time.perf_counter() - t0 < 1.0
    report = json.loads(out)
    assert code == 0 and report["engine_value"] == report["prediction_full"]


def _script(name):
    return os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", name)


def test_km_probe_default_stdout_is_pinned():
    out = subprocess.run([sys.executable, _script("km_probe.py")], check=True,
                         capture_output=True).stdout
    assert hashlib.sha256(out).hexdigest() == (
        "7e8033afccb2156d73586fc8c4a616ee72bc935ff89b4ee844543ad8f3cb460a")


def test_km_probe_norm_8_stdout_is_pinned():
    # a norm-8 box holds 2 * roots, whose classes of even b1 and b2 have
    # divisibility 2
    argv = ["--max-b1", "2", "--max-b2", "4", "--max-e8-norm", "8"]
    out = subprocess.run([sys.executable, _script("km_probe.py")] + argv, check=True,
                         capture_output=True).stdout
    assert hashlib.sha256(out).hexdigest() == (
        "6ad5d8e71d10fd730af84995735f3b775e45009565673e609b8aef927dd7a2d6")


def test_build_table_script_prints_the_smoke_table():
    # the genus-1 smoke table of the benchmark, with its digest
    argv = ["--genus", "1", "--max-b1", "2", "--max-b2", "2", "--max-e8-norm", "2"]
    proc = subprocess.run([sys.executable, _script("build_table.py")] + argv,
                          check=True, capture_output=True)
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "2c9a4b356feda3f191ef2276a9374243db056549ca72d5548ba5e77165543d08")
    assert re.fullmatch(rb"table in \d+\.\d\ds; \d+ genus-1 evaluations\n", proc.stderr)


def test_p2_report_script_json_is_the_report():
    out = subprocess.run([sys.executable, _script("p2_report.py"), "--json"], check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == qseries.p2_discrepancy_report(12)


def test_src_lines_script_counts_total_and_code_only_lines(tmp_path):
    # blank lines, comments and docstrings are not code; a string that is
    # a value is, and a file that is not Python is not counted
    (tmp_path / "a.py").write_text('"""Doc\nstring."""\n\n# comment\nx = 1  # trailing\n'
                                   'y = """not\na docstring"""\n\n\ndef f():\n'
                                   '    """Doc."""\n    return x\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    out = subprocess.run([sys.executable, _script("src_lines.py"), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    assert [line.split() for line in out.splitlines()] == [
        ["module", "total", "code"], ["a.py", "12", "5"], ["total", "12", "5"]]
    # by default it counts every module of the package, and the totals add up
    out = subprocess.run([sys.executable, _script("src_lines.py")], check=True,
                         capture_output=True, text=True).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert "sweeps.py" in [r[0] for r in rows] and rows[-1][0] == "total"
    assert [sum(int(r[i]) for r in rows[:-1]) for i in (1, 2)] == [int(x) for x in rows[-1][1:]]


def test_series_text(capsys):
    code, out, _ = run(capsys, "series", "--what", "E2", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t-24", "2\t-72", "3\t-96"]
    code, out, _ = run(capsys, "series", "--what", "P1", "--order", "2")
    assert code == 0
    assert out.splitlines() == ["0\t1/12", "1\t-2", "2\t-6"]


def test_series_laurent_offset(capsys):
    code, out, _ = run(capsys, "series", "--what", "c2", "--order", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("-1\t")
    assert lines[1] == "0\t0"


def test_series_json(capsys):
    code, out, _ = run(capsys, "series", "--what", "E4", "--order", "2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["what"] == "E4"
    assert payload["coefficients"][:2] == [[0, "1"], [1, "240"]]


@pytest.mark.parametrize("what", sorted(cli._SERIES))
def test_series_negative_order_exits_2(capsys, what):
    code, out, err = run(capsys, "series", "--what", what, "--order", "-1")
    assert code == 2 and out == ""
    assert err == "series: truncation order must be >= 0\n"


@pytest.mark.parametrize("what", sorted(cli._SERIES))
def test_series_order_past_the_cap_exits_2(capsys, what):
    order = qseries.MAX_ORDER + 1
    code, out, err = run(capsys, "series", "--what", what, "--order", str(order))
    assert code == 2 and out == ""
    assert err == "series: truncation order %d exceeds the cap %d\n" % (order, qseries.MAX_ORDER)


@pytest.mark.parametrize("argv", [
    ("--genus", "1", "--beta", SECTION_SUM, "--order", "1001"),
    ("--beta", SECTION_SUM, "--f56", "--order", "1001"),
    # (1, 600, 0^8) has square 1200, so the default order is 1202
    ("--genus", "2", "--beta", "1,600,0,0,0,0,0,0,0,0"),
])
def test_km_check_order_past_the_cap_exits_2(capsys, monkeypatch, argv):
    def refuse(beta):
        raise AssertionError("ran the engine on %s" % (beta,))

    # refused before the engine runs
    monkeypatch.setattr(km_model, "n1_fiber", refuse)
    monkeypatch.setattr(km_model, "n2_fiber", refuse)
    code, out, err = run(capsys, "km-check", *argv)
    assert code == 2 and out == ""
    assert re.fullmatch(r"km-check: truncation order \d+ exceeds the cap %d\n"
                        % qseries.MAX_ORDER, err)


def test_km_check_comparison(capsys):
    code, out, _ = run(capsys, "km-check", "--genus", "2", "--beta", SECTION_SUM)
    assert code == 0
    report = json.loads(out)
    assert report["engine_value"] == report["prediction_full"] == "-16"
    assert report["verdicts"] == {"full": "match", "half": "mismatch"}


def test_km_check_f56(capsys):
    code, out, _ = run(capsys, "km-check", "--beta", SECTION_SUM, "--f56")
    assert code == 0
    assert json.loads(out)["holds"] is True
    code, out, _ = run(capsys, "km-check", "--beta", SECTION_SUM, "--f56",
                       "--convention", "half")
    assert code == 0
    assert json.loads(out)["holds"] is False
    code, _, err = run(capsys, "km-check", "--beta", FIBER, "--f56")
    assert code == 2 and "square" in err


def test_local_command(capsys):
    code, out, _ = run(capsys, "local", "--local-degree", "1", "--alphas", "1")
    assert code == 0
    assert json.loads(out)["value"] == "-1/12"
    code, out, _ = run(capsys, "local", "--local-degree", "2", "--alphas", "1",
                       "--gc", "1")
    assert code == 0
    assert json.loads(out)["value"] == "-2/3"
    code, out, _ = run(capsys, "local", "--s2n", "5")
    assert code == 0
    assert json.loads(out) == {"n": 5, "K2": 8, "chi": 7, "g_K": 9, "sign": -1}
    code, _, err = run(capsys, "local", "--s2n", "3")
    assert code == 2 and "general type" in err


def test_local_dimension_flag(capsys):
    code, out, _ = run(capsys, "local", "--dimension", "--alphas", "",
                       "--genus", "1", "--ddeg", "1", "--gc", "1")
    assert code == 0
    assert json.loads(out) == {"satisfied": True}
    code, out, _ = run(capsys, "local", "--dimension", "--alphas", "1",
                       "--genus", "1", "--ddeg", "1", "--gc", "1")
    assert code == 0
    assert json.loads(out) == {"satisfied": False}


@pytest.mark.parametrize("argv", [
    ["--alphas", "1000"],
    ["--local-degree", "2", "--alphas", "1000", "--gc", "1000"],
    ["--alphas", "500,500"],
    ["--alphas", ",".join(["0"] * 1000)],
    ["--local-degree", "2", "--gc", "1000"],
])
def test_local_largest_admitted_inputs_print(capsys, argv):
    code, out, err = run(capsys, "local", *argv)
    assert code == 0 and err == ""
    assert json.loads(out)["value"]


@pytest.mark.parametrize("argv", [
    ["--alphas", "1400"],
    ["--alphas", "1000,1000"],
    ["--local-degree", "2", "--gc", "20000"],
    ["--alphas", "30000"],
    ["--alphas", "100000"],
    ["--local-degree", "2", "--gc", str(10 ** 12)],
    ["--alphas", ",".join(["0"] * 1001)],
])
def test_local_inputs_past_the_cap_exit_2_at_once(capsys, monkeypatch, argv):
    def refuse(n):
        raise AssertionError("factorial(%d) formed" % n)

    monkeypatch.setattr(cli.local_surface, "factorial", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, "local", *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "at most 1000" in err


@pytest.mark.parametrize("only", ["12", "0", "2,x", "1,", "-1"])
def test_selfcheck_only_without_a_criterion_is_a_usage_error(capsys, monkeypatch, only):
    def refuse(numbers):
        raise AssertionError("ran criteria %r" % (numbers,))

    monkeypatch.setattr("enriques_gw.selfcheck.run_all", refuse)
    assert run(capsys, "selfcheck", "--only", only) == (
        1, "", "selfcheck: --only takes criterion numbers 1..9, not %r\n" % only)


def test_selfcheck_fast_subset(capsys):
    code, out, _ = run(capsys, "selfcheck", "--only", "1,3,4,7,8")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert all("PASS" in line for line in lines[:-1])
    assert lines[0].startswith("criterion 1 ")
    assert lines[-1] == "5/5 criteria passed"
