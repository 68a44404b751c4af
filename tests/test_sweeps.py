import hashlib
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques_gw import gw_engine, lattice, sweeps
from enriques_gw.km_model import km_fiber_prediction
from enriques_gw.lattice import (
    CARTAN_E8,
    LatticeVector,
    dominant,
    enumerate_decompositions,
    pair,
    short_vector_table,
    square,
)
from enriques_gw.sweeps import (
    _ROOTS2,
    FiberSweepEngine,
    alcove_points,
    box_class_count,
    box_slices,
    decomposition_agreement,
    genus1_box_rows,
    orbit_ids,
)

ZERO8 = (0,) * 8
ROOT = (1, 0, 0, 0, 0, 0, 0, 0)
CARTAN = np.array(CARTAN_E8, dtype=np.int64)


def as_vector(b1, b2, e):
    return LatticeVector((b1, b2) + tuple(e))


def reflection_matrices():
    """Integer matrices of the eight simple-root reflections of the E8
    block, acting on E8 coordinates: the independent orbit oracle.  Each
    preserves the Gram matrix."""
    mats = []
    for i in range(8):
        m = np.eye(8, dtype=np.int64)
        m[i, :] -= CARTAN[i, :]
        mats.append(m)
    return mats


def test_engine_matches_recursive_values():
    eng = FiberSweepEngine()
    cases = [
        (1, 1, ZERO8, Fraction(32)),
        (2, 1, ZERO8, Fraction(288)),
        (2, 2, ZERO8, Fraction(10528)),
        (3, 2, ROOT, Fraction(50112)),
        (2, 3, ZERO8, Fraction(213888)),
    ]
    for b1, b2, e, want in cases:
        assert eng.class_value(b1, b2, e) == want
        assert gw_engine.enriques_genus1(as_vector(b1, b2, e), memo={}) == want


def test_engine_edge_classes():
    eng = FiberSweepEngine()
    assert eng.class_value(3, 0, ZERO8) == Fraction(8, 3)
    assert eng.class_value(0, 2, ZERO8) == Fraction(2)
    assert eng.class_value(-1, 1, ZERO8) == 0
    assert eng.class_value(1, -1, ZERO8) == 0
    assert eng.class_value(0, 0, ROOT) == 0
    assert eng.class_value(1, 1, (1, 1, 0, 0, 0, 0, 0, 0)) == 0


def test_evaluate_answers_a_mixed_batch_in_order(monkeypatch):
    # plain classes of every kind in one call: the trivial ones answered
    # without a key, the others on one schedule that evaluates each key
    # once; ROOT and -ROOT share a key, and (2, 2, ROOT) comes twice
    minus = tuple(-x for x in ROOT)
    batch = [
        (1, -1, ZERO8),  # b2 < 0
        (3, 0, ZERO8),  # 3 v1
        (3, 0, ROOT),  # b2 = 0, e != 0
        (0, 0, ZERO8),  # b2 = 0, b1 <= 0
        (-2, 0, ZERO8),
        (1, 1, (1, 1, 0, 0, 0, 0, 0, 0)),  # square -2
        (2, 2, (2, 0, 0, 0, 0, 0, 0, 0)),  # isotropic, gcd 2
        (2, 2, ROOT),
        (2, 2, minus),
        (3, 2, ROOT),
        (2, 2, ROOT),
    ]
    schedules, evals = [], []
    schedule, eval_ = FiberSweepEngine._schedule, FiberSweepEngine._eval

    def count_schedule(self, todo):
        schedules.append(set(todo))
        return schedule(self, todo)

    def count_eval(self, key, *args):
        evals.append(key)
        return eval_(self, key, *args)

    monkeypatch.setattr(FiberSweepEngine, "_schedule", count_schedule)
    monkeypatch.setattr(FiberSweepEngine, "_eval", count_eval)
    eng = FiberSweepEngine()
    got = eng.evaluate(batch)
    assert len(schedules) == 1 and len(schedules[0]) == 3
    assert len(evals) == len(set(evals)) == eng.evals > 3
    # asked again, every key is a cache hit: no schedule, no evaluation
    assert eng.evaluate(batch) == got and len(schedules) == 1 and len(evals) == eng.evals
    assert got[:7] == [0, Fraction(8, 3), 0, 0, 0, 0, gw_engine.isotropic_genus1(2)]
    assert all(type(value) is Fraction for value in got)
    assert got[7] == got[8] == got[10]
    assert got == [FiberSweepEngine().class_value(*c) for c in batch]
    memo = {}
    for c, value in zip(batch[5:], got[5:]):
        assert value == gw_engine.enriques_genus1(as_vector(*c), memo=memo), c


def test_engine_refuses_a_runaway_ball_before_scanning(monkeypatch):
    def refuse(bound):
        raise AssertionError("built a ball of norm %d" % bound)

    monkeypatch.setattr(lattice, "_short_vector_array", refuse)
    eng = FiberSweepEngine()
    with pytest.raises(ValueError, match="norm <= 50 "):
        eng.class_value(10, 10, ZERO8)
    # refused where the class misses the cache, before its evaluation
    assert eng.evals == 0 and not eng.values


def test_engine_reads_cones_and_builds_no_whole_ball(monkeypatch):
    # a dominant centre of norm < 620 has a node with (C e)_j = 0, so every
    # scanned cell reads a cone with J nonempty: on an empty cache the
    # engine enumerates no whole ball, and its value and evaluations stay
    build = lattice._short_vector_array
    cones = []

    def spy(bound, J=()):
        cones.append(J)
        return build(bound, J)

    monkeypatch.setattr(lattice, "_CONES", {})
    monkeypatch.setattr(lattice, "_short_vector_array", spy)
    eng = FiberSweepEngine()
    value = eng.class_value(6, 6, ZERO8)
    assert cones and () not in cones
    assert hashlib.sha256(str(value).encode()).hexdigest().startswith("29450681")
    assert eng.evals == 115


def _full_prediction(coords):
    """<1> by the heterotic closed form, "full" convention: an oracle that
    shares no evaluation code with the engine."""
    return km_fiber_prediction(1, coords, "full") / 4


def test_engine_box_table_matches_the_full_prediction():
    # the classes the engine keys: b2 >= 1 and square >= 0
    keyed = [(coords, value) for coords, s, value in
             genus1_box_rows(3, 3, 2, engine=FiberSweepEngine()) if coords[1] and s >= 0]
    assert len(keyed) == 3 + 3 * 3 * 241
    for coords, value in keyed:
        assert value == _full_prediction(coords), coords
    # the engine has one scan: the oracle-scan mode is gone
    FiberSweepEngine("optimized")
    for scan in ("oracle", "fast"):
        with pytest.raises(ValueError, match="one scan"):
            FiberSweepEngine(scan)


def test_key_collapses_equal_square_classes_correctly():
    # (3, 1, e) with <e,e> = 4 and (1, 1, 0) both have square 2 and the
    # same aggregation key at b2 = 1; their values must genuinely agree
    # with the recursion run on each class separately.
    e = (1, 1, 0, 0, 0, 0, 0, 0)
    eng = FiberSweepEngine()
    v_shift = eng.class_value(3, 1, e)
    assert v_shift == eng.class_value(1, 1, ZERO8)
    assert v_shift == gw_engine.enriques_genus1(as_vector(3, 1, e), memo={})


def test_reflections_preserve_gram_and_values():
    mats = reflection_matrices()
    assert len(mats) == 8
    for m in mats:
        assert np.array_equal(m.T @ CARTAN @ m, CARTAN)
        assert np.array_equal(m @ m, np.eye(8, dtype=np.int64))
    reflected = tuple(int(x) for x in mats[3] @ np.array(ROOT))
    eng = FiberSweepEngine()
    assert eng.class_value(2, 2, reflected) == eng.class_value(2, 2, ROOT)
    assert gw_engine.enriques_genus1(as_vector(2, 2, reflected), memo={}) == eng.class_value(2, 2, ROOT)


E8_ROWS = st.lists(st.integers(-40, 40), min_size=8, max_size=8)
# affine marks of E8 in the node numbering of CARTAN_E8, alpha0 first
AFFINE_MARKS = (1, 2, 3, 4, 6, 5, 4, 3, 2)


def _alcove_solutions(m):
    """Dynkin labels (c1..c8) of the points of the closed alcove scaled
    by m: sum of marks * c = m with c0 >= 0 free."""
    ranges = [range(m // a + 1) for a in AFFINE_MARKS[1:]]
    return [c for c in itertools.product(*ranges)
            if sum(a * x for a, x in zip(AFFINE_MARKS[1:], c)) <= m]


def _reflection_closure_labels(m):
    """Brute-force orbit labels on (Z/m)^8: index -> smallest index of
    its orbit under the simple reflections acting mod m."""
    pows = m ** np.arange(8, dtype=np.int64)
    idx = np.arange(m ** 8, dtype=np.int64)
    coords = (idx[:, None] // pows) % m
    perms = [((coords @ mat.T) % m) @ pows for mat in reflection_matrices()]
    labels = idx.copy()
    while True:
        before = labels.copy()
        for p in perms:
            np.minimum(labels, labels[p], out=labels)
        np.minimum(labels, labels[labels], out=labels)
        if np.array_equal(labels, before):
            return coords, labels


def test_orthonormal_roots_have_the_cartan_gram():
    assert np.array_equal(_ROOTS2 @ _ROOTS2.T, 4 * CARTAN)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), row=E8_ROWS, shift=E8_ROWS)
def test_orbit_ids_are_reflection_and_translation_invariant(m, row, shift):
    e = np.array([row])
    want = orbit_ids(m, e)[0]
    for mat in reflection_matrices():
        assert orbit_ids(m, e @ mat.T)[0] == want
    assert orbit_ids(m, e + m * np.array(shift))[0] == want


@pytest.mark.parametrize("batch_first", [True, False, None])
def test_orbit_ids_are_stable_across_calls(monkeypatch, batch_first):
    # a batch and the same rows keyed one at a time (as evaluate keys one
    # class) must name every orbit alike, whichever call comes first and
    # whatever the residue memo held before; with batch_first None the
    # batches of every modulus are keyed first, in one call with one
    # modulus per row, and each modulus' share of it is compared
    base = np.random.default_rng(11).integers(-40, 41, size=(30, 8))
    # the second half reflects the first, in reverse row order
    rows = np.concatenate([base, base[::-1] @ reflection_matrices()[4].T])
    n = len(base)
    moduli = range(1, 13)
    # each modulus' batch holds every row twice, and then its translate
    # by m, which has the same residue
    batches = [np.concatenate([rows, rows, rows + m]) for m in moduli]
    k = len(batches[0])
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    if batch_first is None:
        mixed = orbit_ids(np.repeat(moduli, k), np.concatenate(batches))
    for i, (m, repeated) in enumerate(zip(moduli, batches)):
        monkeypatch.setattr(sweeps, "_ORBITS", {})
        if batch_first:
            batch = orbit_ids(m, repeated)
            single = [orbit_ids(m, row)[0] for row in rows]
        else:
            single = [orbit_ids(m, row)[0] for row in rows]
            batch = orbit_ids(m, repeated) if batch_first is False else mixed[i * k:(i + 1) * k]
        assert batch == 3 * single, m
        assert single[:n] == single[n:][::-1], m


def test_keying_one_row_allocates_no_residue_table(monkeypatch):
    # the residue memo grows by the rows keyed, not by m**8
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    tracemalloc.start()
    try:
        names = orbit_ids(8, ROOT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert names == [alcove_points(np.array([ROOT]), 8)[0].tobytes()]


def test_residues_of_one_orbit_keyed_in_one_call_share_one_name_object(monkeypatch):
    # ROOT and its reflection -ROOT have distinct residues mod 8 but one
    # orbit; the memo holds one name object for both, not one per residue
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    minus = tuple(-x for x in ROOT)
    names = orbit_ids(8, np.array([ROOT, minus, ROOT]))
    assert len(sweeps._ORBITS) == 2
    assert names[0] is names[1] is names[2]
    assert orbit_ids(8, minus)[0] is names[0]


def test_a_residue_memo_cleared_at_its_bound_changes_no_name(monkeypatch, capsys):
    # with the bound at 1,000 entries the memo is cleared many times over
    # a table-g1-deep run, and every name and every output byte stays
    from enriques_gw import cli

    rows = short_vector_table(4)[0]
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    want = {m: orbit_ids(m, rows) for m in range(1, 7)}
    monkeypatch.setattr(sweeps, "_ORBIT_MEMO_ENTRIES", 1000)
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    for m in range(1, 7):
        for start, stop in [(0, 600), (600, 1200), (0, len(rows)), (1200, 1300)]:
            assert orbit_ids(m, rows[start:stop]) == want[m][start:stop], (m, start)
    monkeypatch.setattr(cli, "ENGINE", FiberSweepEngine())
    sizes = []
    keyed = sweeps.orbit_ids

    def spy(m, e_arr):
        before = len(sweeps._ORBITS)
        names = keyed(m, e_arr)
        sizes.append((before, len(sweeps._ORBITS), len(names)))
        return names

    monkeypatch.setattr(sweeps, "orbit_ids", spy)
    assert cli.main(["table", "--genus", "1", "--max-b1", "6", "--max-b2", "6",
                     "--max-e8-norm", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f19ccde1853ae2652dc1afd5d05bb40061ebea73967da89101b88d2b5147b8ae")
    # a call that adds to the memo leaves at most the bound, or its own
    # rows when the memo was cleared for them; the engine's keying clears
    # some
    assert all(after <= max(1000, n) for before, after, n in sizes if after > before)
    assert any(after < before for before, after, _ in sizes)


def test_the_residue_memo_is_bounded_over_all_moduli_together(monkeypatch):
    # one bound for every modulus at once: keying a few rows at each of
    # 40 moduli under a bound of 16 entries never leaves more than 16
    monkeypatch.setattr(sweeps, "_ORBIT_MEMO_ENTRIES", 16)
    monkeypatch.setattr(sweeps, "_ORBITS", {})
    rows = np.random.default_rng(5).integers(-40, 41, size=(3, 8))
    for m in range(1, 41):
        orbit_ids(m, rows)
        assert len(sweeps._ORBITS) <= sweeps._ORBIT_MEMO_ENTRIES, m


@settings(max_examples=60, deadline=None)
@given(b2=st.integers(1, 12), row=E8_ROWS)
def test_an_orbit_is_named_by_its_canonical_point(b2, row):
    # the key names the orbit by the bytes of its one alcove point, so the
    # name does not depend on what was keyed before
    name = orbit_ids(b2, row)[0]
    assert name == alcove_points(np.array([row]), b2)[0].tobytes()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), row=E8_ROWS)
def test_alcove_points_are_dominant_below_the_affine_wall(m, row):
    y = alcove_points(np.array([row]), m)[0]
    # pairings <x, alpha_i> = (y . 2 alpha_i) / 4, <x, theta> = (y7 + y8) / 2
    assert (y @ _ROOTS2.T >= 0).all()
    assert y[6] + y[7] <= 2 * m
    assert np.array_equal(alcove_points(np.array([row]) + m, m)[0], y)


def test_orbit_counts_match_affine_mark_solutions():
    # one orbit of W x| m*Q per lattice point of the alcove scaled by m
    counts = [len(_alcove_solutions(m)) for m in range(1, 13)]
    assert counts == [1, 3, 5, 10, 15, 27, 39, 63, 90, 135, 187, 270]
    inv_cartan = np.linalg.inv(CARTAN).round().astype(np.int64)
    for m, count in zip(range(1, 13), counts):
        # the alcove points, in root coordinates, are their own canonical
        # points and name distinct orbits; the dominance test above puts
        # every canonical point among them
        points = np.array(_alcove_solutions(m), dtype=np.int64) @ inv_cartan.T
        assert np.array_equal(alcove_points(points, m), points @ _ROOTS2)
        assert len(set(orbit_ids(m, points))) == count


def test_dominant_conjugates_keep_the_orbit_ids_of_the_box_parts():
    parts, norms = short_vector_table(4)
    dom = np.array([dominant(e) for e in parts.tolist()], dtype=np.int64)
    assert (dom @ CARTAN >= 0).all()
    assert np.array_equal(np.einsum("ij,jk,ik->i", dom, CARTAN, dom), norms)
    # the dominant vectors of norm 0, 2 and 4: 0, the highest root, w1
    assert len(np.unique(dom, axis=0)) == 3
    for m in range(1, 13):
        assert orbit_ids(m, dom) == orbit_ids(m, parts), m
    # the engine's batched conjugation against the reference, also on a
    # sample of the norm-16 ball and on rows far from the origin
    rows = np.concatenate([parts, short_vector_table(16)[0][::97], 37 * parts[::50]])
    want = np.array([dominant(e) for e in rows.tolist()], dtype=np.int64)
    assert np.array_equal(sweeps.dominant_rows(rows), want)
    assert sweeps.dominant_rows(rows[:0]).shape == (0, 8)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbit_partition_equals_reflection_closure(m):
    coords, labels = _reflection_closure_labels(m)
    names = orbit_ids(m, coords)
    n_orbits = len(np.unique(labels))
    assert len(set(names)) == n_orbits
    assert len(set(zip(labels.tolist(), names))) == n_orbits


def test_classes_keyed_at_m_8_and_9_match_the_recursion():
    root = (1,) + (0,) * 7
    eng = FiberSweepEngine()
    for coords in [(1, 8) + ZERO8, (1, 9) + root]:
        want = gw_engine.enriques_genus1(LatticeVector(coords), memo={})
        assert eng.class_value(coords[0], coords[1], coords[2:]) == want


def test_genus2_core_matches_engine_module():
    # the core 4 <1> s + 16 sum <1><1><b1,b2>, summed here per decomposition,
    # against the positive-degree genus-2 rule on the engine's <1>
    eng = FiberSweepEngine()
    for b1, b2, e in [(1, 1, ZERO8), (2, 1, ZERO8), (2, 2, ROOT)]:
        beta = as_vector(b1, b2, e)
        memo = {}
        want = 4 * gw_engine.enriques_genus1(beta, memo=memo) * square(beta)
        for beta1, beta2 in enumerate_decompositions(beta):
            want += 16 * (gw_engine.enriques_genus1(beta1, memo=memo)
                          * gw_engine.enriques_genus1(beta2, memo=memo) * pair(beta1, beta2))
        value1 = lambda: eng.class_value(b1, b2, e)
        for d in (1, 2, 4):
            sig = int(sympy.divisor_sigma(d, 1))
            assert gw_engine.value_rule(2, d, square(beta), value1)[0] / sig == want
            assert gw_engine.n_invariant(2, (beta, d)) / sig == want
    for d in (1, 2):
        assert gw_engine.n_invariant(2, ((1, 0) + ZERO8, d)) == 0
        assert gw_engine.n_invariant(2, ((1, 1, 1, 1) + ZERO8[2:], d)) == 0


@pytest.mark.parametrize("box", [(0, 0, 0), (3, 0, 2), (0, 3, 2), (2, 3, 4), (1, 1, 0)])
def test_box_class_count_counts_box_classes(box):
    parts, slices = box_slices(*box)
    count = 0
    for _, _, cols, idx, _ in slices:
        assert len(idx) == len(parts[cols])
        count += len(idx)
    assert box_class_count(*box) == count


@pytest.mark.parametrize("box", [(2, 3, 4), (3, 3, 2), (2, 1, 4), (1, 5, 4)])
def test_box_slices_group_parts_by_norm_and_orbit_name(box):
    # a group is one W(E8)-orbit, so its parts share the head's norm and
    # orbit name for every b2; below norm 8 each shell is one orbit, so
    # no two heads share (norm, name)
    parts, slices = box_slices(*box)
    n_slices = 0
    for b1, b2, cols, idx, classes in slices:
        n_slices += 1
        sliced = parts[cols]
        if b2 == 0:
            assert sliced == [ZERO8] and idx == [0] and classes == [(ZERO8, 0)]
            continue
        names = orbit_ids(b2, np.array(sliced))
        first = {}
        for e, name, j in zip(sliced, names, idx):
            head = classes[j][0]
            assert lattice.e8_norm(e) == lattice.e8_norm(head)
            assert name == orbit_ids(b2, head)[0]
            first.setdefault(j, e)
        # every group is met, each at its head first
        assert [first[j] for j in range(len(classes))] == [head for head, _ in classes]
        assert len({(lattice.e8_norm(e), orbit_ids(b2, e)[0]) for e, _ in classes}) == len(classes)
        for head, s in classes:
            assert s == 2 * b1 * b2 - lattice.e8_norm(head)
    assert n_slices == box[0] + (box[0] + 1) * box[1]


@pytest.mark.parametrize("box", [(2, 1, 4), (1, 5, 4), (2, 3, 6), (1, 2, 8)])
def test_box_slices_equal_a_per_part_walk(box):
    # reference: the parts in lexicographic order, grouped by the
    # pure-Python lattice.dominant in part order.  (2, 1, 4) has b2 = 1
    # alone, where every part shares one name mod 1; at norm 8 two
    # W(E8)-orbits share a shell
    max_b1, max_b2, norm_bound = box
    ref_parts = sorted(tuple(row) for row in short_vector_table(norm_bound)[0].tolist())
    first = {}
    ref_idx = [first.setdefault(dominant(e), (len(first), e))[0] for e in ref_parts]
    heads = [e for _, e in first.values()]
    shells = {lattice.e8_norm(e) for e in heads}
    assert len(heads) == len(shells) + (norm_bound >= 8)
    parts, slices = box_slices(*box)
    assert parts == ref_parts
    n_slices, shared = 0, set()
    for b1, b2, cols, idx, classes in slices:
        n_slices += 1
        if b2 == 0:
            assert parts[cols] == [ZERO8] and idx == [0] and classes == [(ZERO8, 0)]
            continue
        assert parts[cols] == ref_parts and idx == ref_idx
        shared.add(id(idx))
        assert classes == [(e, 2 * b1 * b2 - lattice.e8_norm(e)) for e in heads]
        assert all(type(j) is int for j in idx)
        assert all(type(s) is int for _, s in classes)
    assert n_slices == max_b1 + (max_b1 + 1) * max_b2
    assert len(shared) == 1  # every b2 >= 1 slice shares one idx
    # the engine keys a group at its head: for every b2 of the box, all
    # parts of a group share the head's orbit name mod b2
    for b2 in range(1, max_b2 + 1):
        names = orbit_ids(b2, np.array(ref_parts))
        head_names = orbit_ids(b2, np.array(heads))
        assert all(name == head_names[j] for name, j in zip(names, ref_idx)), b2


@pytest.mark.parametrize("box", [(6, 6, 8), (3, 12, 8), (2, 30, 4)])
def test_a_box_group_has_one_gcd(box):
    # a group lies in one W(E8)-orbit, and W(E8) acts by unimodular
    # integer matrices, which keep gcd(e); the norm-8 parts include
    # 2 * roots, of gcd 2.  Every b2 >= 1 slice has the same groups
    parts, slices = box_slices(*box)
    gcds = np.gcd.reduce(np.array(parts), axis=1)
    assert (gcds == 2).sum() == (240 if box[2] >= 8 else 0)
    shared = {id(idx): (idx, classes) for _, b2, _, idx, classes in slices if b2}
    assert len(shared) == 1
    (idx, classes), = shared.values()
    group_gcds = {}
    for j, g in zip(idx, gcds.tolist()):
        group_gcds.setdefault(j, set()).add(g)
    assert [group_gcds[j] for j in range(len(classes))] == [{math.gcd(*e)} for e, _ in classes]


def test_box_rows_ask_the_engine_once_per_group():
    # every group of the box, b2 = 0 and negative squares included, is a
    # class of one evaluate call
    class Counting(FiberSweepEngine):
        def evaluate(self, classes):
            classes = list(classes)
            asked.append(classes)
            return super().evaluate(classes)

    asked = []
    box = (2, 3, 4)
    rows = list(genus1_box_rows(*box, engine=Counting()))
    slices = list(box_slices(*box)[1])
    groups = [(b1, b2, e) for b1, b2, _, _, classes in slices for e, _ in classes]
    assert asked == [groups]
    assert any(b2 == 0 for _, b2, _ in groups)
    assert any(s < 0 for *_, classes in slices for _, s in classes)
    assert len(rows) == box_class_count(*box) > 10 * len(groups)
    # every row against a fresh engine asked row by row
    eng = FiberSweepEngine()
    for coords, s, value in rows:
        if s < 0:
            assert value == 0
        else:
            assert value == eng.class_value(coords[0], coords[1], coords[2:]), coords


def test_engine_refuses_a_class_past_the_cell_cap_before_its_ball(monkeypatch):
    def refuse(self, b1, b2):
        raise AssertionError("walked the cells of (%d, %d)" % (b1, b2))

    monkeypatch.setattr(FiberSweepEngine, "largest_ball", refuse)
    with pytest.raises(ValueError, match="b1\\*b2 = 496 > 495"):
        FiberSweepEngine().class_value(1, 496, ZERO8)


PINNED = [
    (2, 16, ZERO8, "e1244f58", 124),
    (5, 7, ROOT, "f506a006", 153),
    (2, 24, ROOT, "a356bda3", 350),
    (1, 100, ZERO8, "29c5b915", 200),
    (100, 1, ZERO8, "29c5b915", 101),
]


@pytest.mark.parametrize("b1,b2,e,digest,evals", PINNED)
def test_engine_values_and_evaluation_counts_are_pinned(b1, b2, e, digest, evals):
    # deep classes: the SHA-256 prefix of str(<1>) and the evaluations a
    # fresh engine makes for it, chains (b1 = 1 or b2 = 1) among them,
    # and the heterotic closed form, which shares no code with the engine
    eng = FiberSweepEngine()
    value = eng.class_value(b1, b2, e)
    assert (hashlib.sha256(str(value).encode()).hexdigest()[:8], eng.evals) == (digest, evals)
    assert value == _full_prediction((b1, b2) + e)


def test_deep_classes_script_prints_a_pinned_row():
    # scripts/deep_classes.py evaluates each class in a fresh process
    b1, b2, e, digest, evals = PINNED[0]
    coords = ",".join(map(str, (b1, b2) + e))
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "deep_classes.py")
    out = subprocess.run([sys.executable, script, coords], check=True, capture_output=True,
                         text=True).stdout
    row = json.loads(out)
    assert out.count("\n") == 1 and set(row) == {"class", "seconds", "evals", "peak_rss_mb",
                                                  "sha256"}
    assert (row["class"], row["sha256"], row["evals"]) == ([b1, b2, *e], digest, evals)
    assert row["seconds"] >= 0 and row["peak_rss_mb"] > 0


def test_deep_class_schedules_stay_small_in_memory(monkeypatch):
    # the traced peak of a fresh engine on fresh cone and residue caches:
    # the schedule holds compact plans, regenerates its radius-zero terms
    # and names at most sweeps._BATCH_ROWS rows per orbit_ids call (the
    # depth-first engine it replaced peaked at 1.04 and 1.21 MB here)
    named = []
    keyed = sweeps.orbit_ids

    def spy(m, e_arr):
        names = keyed(m, e_arr)
        named.append(len(names))
        return names

    monkeypatch.setattr(sweeps, "orbit_ids", spy)
    for b1, b2, e in [(1, 300, ZERO8), (2, 24, ROOT)]:
        monkeypatch.setattr(lattice, "_CONES", {})
        monkeypatch.setattr(sweeps, "_ORBITS", {})
        eng = FiberSweepEngine()
        tracemalloc.start()
        try:
            eng.class_value(b1, b2, e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (b1, b2, peak)
    # the first level of (2, 24, 1, 0^7) alone names 1,843 part rows: in
    # calls of at most sweeps._BATCH_ROWS
    assert max(named) == sweeps._BATCH_ROWS


@pytest.mark.parametrize("b1,b2,e,digest,evals", PINNED)
def test_engine_yields_only_parts_missing_from_the_cache(monkeypatch, b1, b2, e, digest, evals):
    # the schedule evaluates each key once, and only keys the cache
    # misses: on a fresh engine every key the class needs, and after a
    # part class was asked, exactly the keys that part left missing
    seen = []  # (key, missing from the cache) of each evaluation
    evaluate = FiberSweepEngine._eval

    def spy(self, key, *args):
        seen.append((key, key not in self.values))
        return evaluate(self, key, *args)

    monkeypatch.setattr(FiberSweepEngine, "_eval", spy)
    eng = FiberSweepEngine()
    value = eng.class_value(b1, b2, e)
    assert hashlib.sha256(str(value).encode()).hexdigest()[:8] == digest
    fresh = [key for key, _ in seen]
    assert len(set(fresh)) == len(fresh) == eng.evals == evals
    assert all(missing for _, missing in seen) and set(eng.values) == set(fresh)
    eng = FiberSweepEngine()
    part = (b1, b2 - 1) if b2 > 1 else (b1 - 1, b2)
    eng.class_value(*part, e)
    held = set(eng.values)
    assert held < set(fresh)
    seen.clear()
    assert eng.class_value(b1, b2, e) == value
    assert sorted(key for key, _ in seen) == sorted(set(fresh) - held)
    assert all(missing for _, missing in seen)


def test_a_radius_zero_name_cache_cleared_at_its_bound_changes_nothing(monkeypatch, capsys):
    # radius-zero complements are named through the residue memo; with it
    # bounded at 8 entries it is cleared over and over, and the table, a
    # long chain's value and its evaluations stay
    from enriques_gw import cli

    class Memo(dict):
        clears = 0

        def clear(self):
            Memo.clears += 1
            super().clear()

    monkeypatch.setattr(sweeps, "_ORBIT_MEMO_ENTRIES", 8)
    monkeypatch.setattr(sweeps, "_ORBITS", Memo())
    # naming batches of 4 rows, so that calls fill the memo to its bound
    monkeypatch.setattr(sweeps, "_BATCH_ROWS", 4)
    sizes = []
    keyed = sweeps.orbit_ids

    def spy(m, e_arr):
        before = len(sweeps._ORBITS)
        names = keyed(m, e_arr)
        sizes.append((before, len(sweeps._ORBITS), len(names)))
        return names

    monkeypatch.setattr(sweeps, "orbit_ids", spy)
    monkeypatch.setattr(cli, "ENGINE", FiberSweepEngine())
    assert cli.main(["table", "--genus", "1", "--max-b1", "6", "--max-b2", "6",
                     "--max-e8-norm", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f19ccde1853ae2652dc1afd5d05bb40061ebea73967da89101b88d2b5147b8ae")
    eng = FiberSweepEngine()
    value = eng.class_value(1, 300, ZERO8)
    assert (hashlib.sha256(str(value).encode()).hexdigest()[:8], eng.evals) == ("3ade5b73", 600)
    # a call that adds to the memo leaves at most the bound, or its own
    # rows when the memo was cleared for them
    assert all(after <= max(8, n) for before, after, n in sizes if after > before)
    assert Memo.clears > 10 and any(after == 8 for _, after, _ in sizes)


def test_engine_values_cleared_at_their_bound_change_nothing(monkeypatch, capsys):
    # with the value cache bounded at 8 entries, each schedule whose roots
    # miss it clears it and evaluates them afresh: the table, asked after
    # a pinned class filled the cache, and the pinned values stay, and each
    # costs a fresh engine's evaluations
    from enriques_gw import cli

    class Values(dict):
        clears = 0

        def clear(self):
            Values.clears += 1
            super().clear()

    monkeypatch.setattr(sweeps, "_MAX_VALUES", 8)
    eng = FiberSweepEngine()
    eng.values = Values()
    eng.class_value(1, 100, ZERO8)
    monkeypatch.setattr(cli, "ENGINE", eng)
    before = eng.evals
    assert cli.main(["table", "--genus", "1", "--max-b1", "6", "--max-b2", "6",
                     "--max-e8-norm", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "f19ccde1853ae2652dc1afd5d05bb40061ebea73967da89101b88d2b5147b8ae")
    assert (Values.clears, eng.evals - before, len(eng.values)) == (1, 178, 178)
    for b1, b2, e, digest, evals in PINNED:
        before = eng.evals
        value = eng.class_value(b1, b2, e)
        assert (hashlib.sha256(str(value).encode()).hexdigest()[:8], eng.evals - before) == (
            digest, evals)
        assert len(eng.values) == evals
    assert Values.clears == 1 + len(PINNED)


def test_self_mirror_moduli_match_the_recursion():
    # the cell (b1/2, b2/2) names its parts e1 and e2 at one modulus b2/2,
    # in the evaluation's one orbit_ids call, read back by offset; the
    # oracle is the per-class recursion
    memo = {}
    for b1, b2, e in [(2, 2, ROOT), (2, 4, ROOT), (2, 4, ZERO8), (2, 6, ZERO8)]:
        want = gw_engine.enriques_genus1(as_vector(b1, b2, e), memo=memo)
        assert FiberSweepEngine().class_value(b1, b2, e) == want, (b1, b2, e)


def test_engine_evaluation_does_not_use_the_interpreter_stack():
    # (1, 200, 0^8) nests its parts 200 deep, past what nested calls could
    # reach under a recursion limit of 150
    code = ("import sys\n"
            "from enriques_gw.sweeps import FiberSweepEngine\n"
            "sys.setrecursionlimit(150)\n"
            "eng = FiberSweepEngine()\n"
            "print(eng.class_value(1, 200, (0,) * 8), eng.evals)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sweeps.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout
    eng = FiberSweepEngine()
    assert out == "%s %d\n" % (eng.class_value(1, 200, ZERO8), eng.evals)


@pytest.mark.parametrize("b1,b2", [(2, 33), (495, 1)])
def test_the_caps_checked_at_the_entry_hold_for_every_evaluation(monkeypatch, b1, b2):
    # only the class asked is checked; each evaluation below it is of a
    # part coordinatewise no larger, so within both caps (norm 32 is the
    # largest ball under lattice.MAX_BALL_VECTORS), and every part a sum
    # reads, of its plan or a radius-zero cell, was summed before it
    seen = []
    evaluate = FiberSweepEngine._eval

    def record(self, key, part_b1, e, plan, keys, names):
        seen.append((part_b1, key[0]))
        if key[1]:
            parts = [keys[i] for i in plan[:, 1:].ravel().tolist()]
            parts += [(m, key[1] - 2 * pairing, names[e][m])
                      for _, m, pairing in sweeps._zero_cells(part_b1, key[0], key[1])]
            assert parts and all(part in self.values for part in parts)
            assert all(part[:2] < key[:2] for part in parts)
        return evaluate(self, key, part_b1, e, plan, keys, names)

    monkeypatch.setattr(FiberSweepEngine, "_eval", record)
    eng = FiberSweepEngine()
    eng.class_value(b1, b2, ZERO8)
    assert len(seen) == eng.evals
    for part_b1, part_b2 in seen:
        assert part_b1 <= b1 and part_b2 <= b2
        assert part_b1 * part_b2 <= sweeps._MAX_CELLS
        assert eng.largest_ball(part_b1, part_b2) <= 32
    lattice.theta_shells(32)
    with pytest.raises(ValueError):
        lattice.theta_shells(34)


def test_box_table_covers_expected_classes():
    assert inspect.signature(genus1_box_rows).parameters["engine"].default is gw_engine.ENGINE
    eng = FiberSweepEngine()
    table = {coords: value for coords, _, value in
             genus1_box_rows(max_b1=2, max_b2=2, norm_bound=2, engine=eng)}
    vecs, _ = short_vector_table(2)
    assert len(table) == 2 + 3 * 2 * len(vecs)
    assert table[(1, 0) + ZERO8] == 2
    assert table[(1, 1) + ZERO8] == 32
    assert eng.evals <= len(table)


def _brute_cell_histograms(r1, r2, targets, t_norms):
    """{(target index * 64 + s1) * 64 + s2: count} over the whole ball of
    norm <= r1, in int64: the rows f with <t - f, t - f> <= r2,
    s1 = r1 - <f, f> and s2 = r2 - <t - f, t - f> (both below 64 here)."""
    vecs, norms = short_vector_table(r1)
    got = {}
    for lo in range(0, len(targets), 256):
        t = targets[lo:lo + 256]
        dist2 = norms[:, None] + t_norms[None, lo:lo + 256] - 2 * (vecs @ CARTAN @ t.T)
        rows, cols = np.nonzero(dist2 <= r2)
        keys, counts = np.unique(((lo + cols) * 64 + r1 - norms[rows]) * 64
                                 + r2 - dist2[rows, cols], return_counts=True)
        got.update(zip(keys.tolist(), counts.tolist()))
    return got


# cells (b1, b2, b1', b2'), named by their radii r1-r2: unshifted
# (r1 <= r2), r1 > r2 (the engine reads these off their mirrors, but its
# scan must hold on them as they stand) and the two radius-zero balls
SCAN_CELLS = {
    "unshifted-2-8": (3, 3, 1, 1),
    "self-mirror-2-2": (2, 2, 1, 1),
    "r1-above-r2-4-2": (3, 2, 2, 1),
    "r1-above-r2-6-2": (4, 2, 3, 1),
    "radius-zero-0-4": (2, 2, 0, 1),
    "radius-zero-4-0": (2, 2, 2, 1),
}


@pytest.mark.parametrize("cell", SCAN_CELLS.values(), ids=SCAN_CELLS.keys())
def test_scan_cell_matches_a_full_ball_brute_force_scan(cell):
    # at every E8 part of norm <= 4, dominant or not, the orbit-weighted
    # scan gives each pair of part squares the number of rows of the whole
    # r1 ball that a brute-force scan does, also for r1 > r2
    b1, b2, b1p, b2p = cell
    r1, r2 = 2 * b1p * b2p, 2 * (b1 - b1p) * (b2 - b2p)
    targets, t_norms = short_vector_table(4)
    want = _brute_cell_histograms(r1, r2, targets, t_norms)
    eng = FiberSweepEngine()
    got = {}
    for i, t in enumerate(targets):
        scan = eng._scan_cell(t, *cell)
        if scan is None:
            continue
        e1, e2, s1, s2, w = scan
        assert np.array_equal(e1 + e2, np.broadcast_to(t, e1.shape))
        for k, n in zip(((i * 64 + s1) * 64 + s2).tolist(), w.tolist()):
            got[k] = got.get(k, 0) + n
    assert got == want
    assert len({k // 4096 for k in want}) > 1


@pytest.mark.parametrize("cell", SCAN_CELLS.values(), ids=SCAN_CELLS.keys())
def test_smaller_ball_brute_force_matches_the_full_ball_scan(monkeypatch, cell):
    # the sweep's brute force walks only the smaller ball, each row at
    # weight 1; its histogram must equal the whole r1 ball's, also for
    # r1 > r2, where it walks t - f and the part squares swap
    b1, b2, b1p, b2p = cell
    r1, r2 = 2 * b1p * b2p, 2 * (b1 - b1p) * (b2 - b2p)
    targets, t_norms = short_vector_table(4)
    want, n_want = {}, 0
    for k, n in _brute_cell_histograms(r1, r2, targets, t_norms).items():
        s1, s2 = k // 64 % 64, k % 64
        key = s2 * (1 << 32) + s1 if r1 > r2 else s1 * (1 << 32) + s2
        want[key] = want.get(key, 0) + n
        n_want += n
    built = []
    table = lattice.short_vector_table
    monkeypatch.setattr(sweeps, "short_vector_table",
                        lambda bound: built.append(bound) or table(bound))
    got = sweeps._brute_force_histogram(min(r1, r2), max(r1, r2), targets, t_norms,
                                        np.ones(len(targets), dtype=np.int64))
    assert got == (want, n_want)
    assert built == [min(r1, r2)]


def test_add_histogram_is_exact_and_adds_nothing_for_no_rows():
    hist = {5: 1}
    empty = np.zeros(0, dtype=np.int64)
    sweeps._add_histogram(hist, empty, empty, empty)
    assert hist == {5: 1}
    # weights past 2**53, where a float sum would round, against a Counter
    rng = np.random.default_rng(3)
    s1, s2 = rng.integers(0, 4, size=(2, 500))
    w = rng.integers(2 ** 53, 2 ** 54, size=500)
    want = Counter()
    for a, b, x in zip(s1.tolist(), s2.tolist(), w.tolist()):
        want[a * 2 ** 32 + b] += x
    hist = {}
    sweeps._add_histogram(hist, s1, s2, w)
    sweeps._add_histogram(hist, s1[:1], s2[:1], w[:1])
    want[s1[0] * 2 ** 32 + s2[0]] += int(w[0])
    assert hist == dict(want)


def test_agreement_fails_when_the_engine_scan_drops_boundary_rows(monkeypatch):
    # the sweep runs the engine's own scan: one that loses the rows on the
    # mask's boundary (a part square of 0) must show as a mismatch
    scan_cell = FiberSweepEngine._scan_cell

    def drop_boundary(self, earr, b1, b2, b1p, b2p):
        got = scan_cell(self, earr, b1, b2, b1p, b2p)
        if got is None:
            return None
        keep = (got[2] != 0) & (got[3] != 0)
        return tuple(x[keep] for x in got)

    monkeypatch.setattr(FiberSweepEngine, "_scan_cell", drop_boundary)
    report = decomposition_agreement(2, 2, 2)
    assert not report["all_agree"]
    assert report["mismatches"]
    assert not all(v["agree"] for v in report["per_shape"].values())


def test_agreement_computes_each_mirror_pair_of_shapes_once(monkeypatch):
    # a shape (r1, r2) with r1 > r2 reads the ball and the cell of (r2, r1)
    # and takes its result: one brute-force walk and one scan per pair
    walked, scanned = [], []
    brute, scan_cell = sweeps._brute_force_histogram, FiberSweepEngine._scan_cell

    def walk(r, r_far, *args):
        walked.append((r, r_far))
        return brute(r, r_far, *args)

    def scan(self, earr, b1, b2, b1p, b2p):
        scanned.append((2 * b1p * b2p, 2 * (b1 - b1p) * (b2 - b2p)))
        return scan_cell(self, earr, b1, b2, b1p, b2p)

    monkeypatch.setattr(sweeps, "_brute_force_histogram", walk)
    monkeypatch.setattr(FiberSweepEngine, "_scan_cell", scan)
    per_shape = decomposition_agreement(max_b1=3, max_b2=3, norm_bound=2)["per_shape"]
    shapes = {tuple(int(x) for x in k.strip("()").split(",")) for k in per_shape}
    assert sorted(walked) == sorted({(a, b) for a, b in shapes if a <= b})
    assert len(walked) < len(shapes)
    assert set(scanned) == set(walked)


def test_decomposition_agreement_small_box():
    report = decomposition_agreement(max_b1=2, max_b2=2, norm_bound=2)
    assert report["all_agree"]
    assert report["mismatches"] == []
    vecs, _ = short_vector_table(2)
    assert report["classes"] == 2 + 3 * 2 * len(vecs)
    assert report["ordered_pairs_including_multiplicity"] > 0
    assert all(v["agree"] for v in report["per_shape"].values())


def test_cells_count_every_ordered_cell_once():
    # the cells with a ball, and the radius-zero cells of a class whose
    # complements all have square >= 0, each at weight 2
    eng = FiberSweepEngine()
    for b1 in range(1, 13):
        for b2 in range(1, 13):
            zero = [((n, 0) if m == b2 else (0, n)) + (2,)
                    for n, m, _ in sweeps._zero_cells(b1, b2, 2 * b1 * b2)]
            got = list(eng.cells(b1, b2)) + zero
            assert sum(w for _, _, w in got) == (b1 + 1) * (b2 + 1) - 2, (b1, b2)
            # a weight-2 cell stands for itself and its mirror
            covered = [(b1p, b2p) for b1p, b2p, _ in got]
            covered += [(b1 - b1p, b2 - b2p) for b1p, b2p, w in got if w == 2]
            every = [(b1p, b2p) for b2p in range(b2 + 1) for b1p in range(b1 + 1)]
            assert sorted(covered) == sorted(every[1:-1]), (b1, b2)
            assert all(b1p * b2p <= (b1 - b1p) * (b2 - b2p) for b1p, b2p, _ in got)


def test_largest_ball_matches_the_cell_loop():
    eng = FiberSweepEngine()
    for b1 in range(0, 41):
        for b2 in range(1, 41):
            want = max((2 * min(b1p * b2p, (b1 - b1p) * (b2 - b2p))
                        for b2p in range(1, b2) for b1p in range(b1 + 1)), default=0)
            assert eng.largest_ball(b1, b2) == want, (b1, b2)


def _assert_full_prediction(classes):
    eng = FiberSweepEngine()
    for b1, b2, e in classes:
        assert eng.class_value(b1, b2, e) == _full_prediction((b1, b2) + e), (b1, b2, e)


def test_radius_zero_cells_match_the_oracle():
    # every cell of (1, b2, 0^8) has a radius-zero ball, which the engine
    # answers without a scan; the oracle is the closed form
    _assert_full_prediction([(1, b2, ZERO8) for b2 in range(1, 11)])
    _assert_full_prediction([(b1, b2, ROOT) for b1 in range(1, 5) for b2 in range(1, 5)])


def test_self_mirror_cells_match_the_oracle():
    # (b1/2, b2/2) is its own mirror cell in each of these classes; from
    # (2, 10, ROOT) on, names read back out of order from its modulus'
    # batch change the value
    _assert_full_prediction([(2, 2, ZERO8), (4, 2, ROOT), (2, 4, ZERO8), (4, 4, ZERO8),
                             (2, 10, ROOT), (4, 6, ROOT)])


def test_engine_scans_each_mirror_pair_once(monkeypatch):
    evaluated, scanned = [], []
    eval_, scan_cell = FiberSweepEngine._eval, FiberSweepEngine._scan_cell

    def counting_eval(self, key, b1, e, *args):
        # the engine scans around the dominant conjugate of e
        if key[1]:
            evaluated.append((b1, key[0], dominant(e)))
        return eval_(self, key, b1, e, *args)

    def counting_scan(self, earr, b1, b2, b1p, b2p):
        scanned.append((b1, b2, tuple(earr.tolist()), b1p, b2p))
        return scan_cell(self, earr, b1, b2, b1p, b2p)

    monkeypatch.setattr(FiberSweepEngine, "_eval", counting_eval)
    monkeypatch.setattr(FiberSweepEngine, "_scan_cell", counting_scan)
    eng = FiberSweepEngine()
    for b1, b2, e in [(4, 4, ZERO8), (3, 4, ROOT), (4, 3, ZERO8), (2, 5, ROOT)]:
        eng.class_value(b1, b2, e)
    assert len(set(scanned)) == len(scanned)
    cells = {cls: set() for cls in evaluated}
    for b1, b2, e, b1p, b2p in scanned:
        cells[b1, b2, e].add((b1p, b2p))
    assert len(cells) > 20
    for (b1, b2, _), got in cells.items():
        every = {(b1p, b2p) for b2p in range(1, b2) for b1p in range(b1 + 1)}
        assert max((2 * b1p * b2p for b1p, b2p in got), default=0) == eng.largest_ball(b1, b2)
        # one cell of each mirror pair, the one with the smaller
        # (b1' b2', b2', b1'), none with a radius-zero ball
        want = {(b1p, b2p) for b1p, b2p in every if b1p > 0 and
                (b1p * b2p, b2p, b1p) <= ((b1 - b1p) * (b2 - b2p), b2 - b2p, b1 - b1p)}
        assert got == want, (b1, b2)
        assert all((b1 - b1p, b2 - b2p) not in got or (2 * b1p, 2 * b2p) == (b1, b2)
                   for b1p, b2p in got)


def _eta_quotient(top):
    """Coefficients a_0..a_top of 2 prod_{m>=1} (1 - q^(2m))^8 (1 - q^m)^(-16),
    exactly: with b_n = 16 (sigma_1(n) - sigma_1(n/2)), the second term only
    for even n, the logarithmic derivative gives a_0 = 2 and
    j a_j = sum_{n=1..j} b_n a_{j-n}.  A reference for checks only; the
    recursion stays the definition of <1>."""
    def sigma1(n):
        return sum(d for d in range(1, n + 1) if n % d == 0)

    b = [0] + [16 * (sigma1(n) - (sigma1(n // 2) if n % 2 == 0 else 0))
               for n in range(1, top + 1)]
    a = [2]
    for j in range(1, top + 1):
        total = sum(b[n] * a[j - n] for n in range(1, j + 1))
        assert total % j == 0
        a.append(total // j)
    return a


ETA_QUOTIENT = _eta_quotient(200)
# an E8 part of norm 30, so (k, 1, E30) has square 2 (k - 15)
E30 = (-3, -3, -3, -3, -3, -3, -2, 2)


def test_eta_quotient_recurrence_matches_the_product():
    top = 30
    series = [2] + [0] * top
    for m in range(1, top + 1):
        # times (1 - q^(2m))^8, then (1 - q^m)^(-16) as 16 geometric series
        for _ in range(8):
            for n in range(top, 2 * m - 1, -1):
                series[n] -= series[n - 2 * m]
        for _ in range(16):
            for n in range(m, top + 1):
                series[n] += series[n - m]
    assert ETA_QUOTIENT[:top + 1] == series
    assert lattice.e8_norm(E30) == 30


def test_b2_one_slice_matches_the_eta_quotient():
    # proved from the recursion: (j, 1, 0^8) has no cell with 0 < b2' < 1
    eng = FiberSweepEngine()
    assert [eng.class_value(j, 1, ZERO8) for j in range(201)] == ETA_QUOTIENT


def test_b1_one_slice_matches_the_eta_quotient():
    # observed, not proved: (1, j, 0^8) has the same values as (j, 1, 0^8)
    eng = FiberSweepEngine()
    assert [eng.class_value(1, j, ZERO8) for j in range(1, 201)] == ETA_QUOTIENT[1:]


def test_b2_one_slice_with_a_norm_30_part_matches_the_eta_quotient():
    eng = FiberSweepEngine()
    got = [eng.class_value(k, 1, E30) for k in range(15, 216)]
    assert got == ETA_QUOTIENT[:201]


def test_acceptance_box_keys_match_the_full_prediction():
    # one class per engine key (b2, square, name) of square > 0, the keys
    # formed here, all names in one orbit_ids call of modulus b2 per row
    rows = [row for row in genus1_box_rows(4, 4, 4, engine=FiberSweepEngine()) if row[1] > 0]
    names = orbit_ids([c[1] for c, _, _ in rows], [c[2:] for c, _, _ in rows])
    keys = {}
    for (coords, s, value), name in zip(rows, names):
        keys.setdefault((coords[1], s, name), (coords, value))
    assert len(keys) == 39
    for coords, value in keys.values():
        assert value == km_fiber_prediction(1, coords, "full") / 4, coords


@pytest.mark.parametrize("coords", [(6, 6) + ZERO8, (5, 7, 1) + ZERO8[1:], (1, 100) + ZERO8])
def test_deep_classes_match_the_full_prediction(coords):
    # balls of norm 16-18 from the short-vector table, and residue memos
    # of moduli up to 100 keyed one row at a time
    want = km_fiber_prediction(1, coords, "full") / 4
    assert FiberSweepEngine().class_value(coords[0], coords[1], coords[2:]) == want
