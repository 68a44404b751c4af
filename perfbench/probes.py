"""Single cold calls into one layer each, timed from outside.

Run in a fresh interpreter (child.py, job kind "probes"), in the order
given, so each call is the first of its kind in the process.  A probe
whose target the package no longer has returns None and is named in the
returned notes; run.py prints it as 0 with that note.
"""

from __future__ import annotations

import os
from fractions import Fraction
from time import perf_counter

import enriques_gw.cli as cli
from enriques_gw import lattice, sweeps


def _rows(n):
    """Pre-built table rows shaped like `table --genus 2` output."""
    rows = []
    for i in range(n):
        beta = [i % 4, 1 + i % 3] + [(i >> k) % 3 - 1 for k in range(8)]
        rows.append({"genus": 2, "beta": beta, "d": i % 6,
                     "value": str(Fraction(7 * i - 3, 1 + i % 5)),
                     "rule": "degree series"})
    return rows


def _timed(fn):
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _short_vectors(bound):
    return _timed(lambda: lattice._short_vector_array(bound))


def _orbit_labels(m):
    return _timed(lambda: sweeps.coset_orbit_labels(m))


def _class_value(b2):
    engine = sweeps.FiberSweepEngine("optimized")
    return _timed(lambda: engine.class_value(2, b2, (0,) * 8))


def _emit(fmt, n, out_path):
    rows = _rows(n)
    with open(out_path, "w", encoding="utf-8") as out:
        seconds = _timed(lambda: cli._emit_rows(rows, fmt, out))
    os.remove(out_path)
    return seconds


def run(specs, out_path):
    """specs: list of [metric name, kind, argument]; returns
    {"values": {name: seconds or None}, "notes": [...]}."""
    kinds = {
        "short_vectors": _short_vectors,
        "orbit_labels": _orbit_labels,
        "class_value": _class_value,
        "emit": lambda arg: _emit(arg[0], arg[1], out_path),
    }
    values, notes = {}, []
    for name, kind, arg in specs:
        try:
            values[name] = kinds[kind](arg)
        except AttributeError as exc:
            values[name] = None
            notes.append("%s: target absent (%s)" % (name, exc))
    return {"values": values, "notes": notes}
