"""A ratchet on the functions perfbench times by name.

perfbench/tracer.py lists its trace points in BOUNDARIES as (module,
attribute path) pairs inside the package; a pair the package no longer
has is skipped, and its per-layer metrics read 0.  These tests look each
pair up the way the tracer does, without installing any wrapper, and fix
which pairs are absent, so a rename cannot zero another metric unseen.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

from enriques_gw import cli, lattice, sweeps

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# trace points whose functions the package no longer has
ABSENT = {
    "gw_engine.genus2_core",
    "sweeps.orbit_labels",
    "sweeps.agreement.oracle",
    "sweeps.agreement.optimized",
    "sweeps.box_table",
    "cli.emit",
}


def _boundaries():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


def _lookup(mod_name, attr):
    owner = importlib.import_module("enriques_gw." + mod_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner


def test_exactly_the_known_trace_points_are_absent():
    boundaries = _boundaries()
    assert len(boundaries) == 16
    absent = {name for name, mod_name, attr, _, _ in boundaries
              if not callable(_lookup(mod_name, attr))}
    assert absent == ABSENT


def test_live_probe_targets_exist_and_run():
    assert len(lattice._short_vector_array(2)) == 241
    engine = sweeps.FiberSweepEngine("optimized")
    assert engine.class_value(2, 2, (0,) * 8) > 0
    assert engine.evals > 0


def test_table_rows_stay_a_generator():
    # the tracer's "gen" wrapper drives cli._table_rows with next(); a
    # plain function returning an iterable would no longer be timed
    assert inspect.isgeneratorfunction(cli._table_rows)
