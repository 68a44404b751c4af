import inspect
import itertools
import tracemalloc
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
    box_classes,
    decomposition_agreement,
    genus1_box_table,
    orbit_ids,
    pack_rows,
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


def test_engine_refuses_a_runaway_ball_before_scanning(monkeypatch):
    def refuse(bound):
        raise AssertionError("built a ball of norm %d" % bound)

    monkeypatch.setattr(lattice, "_short_vector_array", refuse)
    eng = FiberSweepEngine()
    with pytest.raises(ValueError, match="norm <= 50 "):
        eng.class_value(10, 10, ZERO8)
    assert eng.evals == 1 and not eng.values


def _full_prediction(coords):
    """<1> by the heterotic closed form, "full" convention: an oracle that
    shares no evaluation code with the engine."""
    return km_fiber_prediction(1, coords, "full") / 4


def test_engine_box_table_matches_the_full_prediction():
    table = genus1_box_table(3, 3, 2, engine=FiberSweepEngine())
    keyed = [coords for coords, _, key in box_classes(3, 3, 2) if key is not None]
    assert len(keyed) == 3 + 3 * 3 * 241
    for coords in keyed:
        assert table[coords] == _full_prediction(coords), coords
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


@pytest.mark.parametrize("batch_first", [True, False])
def test_orbit_ids_are_stable_across_calls(monkeypatch, batch_first):
    # a batch and the same rows keyed one at a time (as key_for keys a
    # class) must name every orbit alike, whichever call comes first and
    # whatever the residue memo held before
    base = np.random.default_rng(11).integers(-40, 41, size=(30, 8))
    # the second half reflects the first, in reverse row order
    rows = np.concatenate([base, base[::-1] @ reflection_matrices()[4].T])
    n = len(base)
    for m in range(1, 13):
        monkeypatch.setattr(sweeps, "_ORBITS", {})
        # the batch holds every row twice, and then its translate by m,
        # which has the same residue
        repeated = np.concatenate([rows, rows, rows + m])
        if batch_first:
            batch = orbit_ids(m, repeated)
            single = [orbit_ids(m, row)[0] for row in rows]
        else:
            single = [orbit_ids(m, row)[0] for row in rows]
            batch = orbit_ids(m, repeated)
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
    assert len(sweeps._ORBITS[8]) == 2
    assert names[0] is names[1] is names[2]
    assert orbit_ids(8, minus)[0] is names[0]


@settings(max_examples=60, deadline=None)
@given(b2=st.integers(1, 12), s=st.integers(0, 40), row=E8_ROWS)
def test_an_orbit_is_named_by_its_canonical_point(b2, s, row):
    # the key names the orbit by the bytes of its one alcove point, so the
    # name does not depend on what was keyed before
    name = FiberSweepEngine.key_for(b2, s, row)[2]
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


def test_pack_rows_is_injective_and_bounded():
    vecs, _ = short_vector_table(4)
    packed = pack_rows(vecs)
    assert len(np.unique(packed)) == len(vecs)
    with pytest.raises(ValueError, match="packing range"):
        pack_rows(np.array([[40, 0, 0, 0, 0, 0, 0, 0]]))
    assert sweeps.pack_rows is lattice.pack_rows


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
    assert box_class_count(*box) == sum(1 for _ in box_classes(*box))


def test_engine_refuses_a_class_past_the_cell_cap_before_its_ball(monkeypatch):
    def refuse(self, b1, b2):
        raise AssertionError("walked the cells of (%d, %d)" % (b1, b2))

    monkeypatch.setattr(FiberSweepEngine, "largest_ball", refuse)
    with pytest.raises(ValueError, match="b1\\*b2 = 4097 > 4096"):
        FiberSweepEngine().class_value(1, 4097, ZERO8)


def test_box_table_covers_expected_classes():
    assert inspect.signature(genus1_box_table).parameters["engine"].default is gw_engine.ENGINE
    eng = FiberSweepEngine()
    table = genus1_box_table(max_b1=2, max_b2=2, norm_bound=2, engine=eng)
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


def test_agreement_survivors_are_symmetric_in_the_cell_shape():
    # e1 -> e - e1 maps the survivors of shape (a, b) onto those of (b, a)
    per_shape = decomposition_agreement(max_b1=2, max_b2=3, norm_bound=2)["per_shape"]
    shapes = {tuple(int(x) for x in k.strip("()").split(",")): v for k, v in per_shape.items()}
    assert any(a < b for a, b in shapes)
    for (a, b), v in shapes.items():
        assert v["survivors"] == shapes[(b, a)]["survivors"], (a, b)


def test_decomposition_agreement_small_box():
    report = decomposition_agreement(max_b1=2, max_b2=2, norm_bound=2)
    assert report["all_agree"]
    assert report["mismatches"] == []
    vecs, _ = short_vector_table(2)
    assert report["classes"] == 2 + 3 * 2 * len(vecs)
    assert report["ordered_pairs_including_multiplicity"] > 0
    assert all(v["agree"] for v in report["per_shape"].values())


def test_cells_count_every_ordered_cell_once():
    eng = FiberSweepEngine()
    for b1 in range(13):
        for b2 in range(1, 13):
            got = list(eng.cells(b1, b2))
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
    # (b1/2, b2/2) is its own mirror cell in each of these classes
    _assert_full_prediction([(2, 2, ZERO8), (4, 2, ROOT), (2, 4, ZERO8), (4, 4, ZERO8)])


def test_engine_scans_each_mirror_pair_once(monkeypatch):
    evaluated, scanned = [], []
    eval_, scan_cell = FiberSweepEngine._eval, FiberSweepEngine._scan_cell

    def counting_eval(self, key, b1, e):
        # the engine scans around the dominant conjugate of e
        if key[1]:
            evaluated.append((b1, key[0], dominant(e)))
        return eval_(self, key, b1, e)

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
    eng = FiberSweepEngine()
    keys = {}
    for coords, s, key in box_classes(4, 4, 4):
        if key is not None and s > 0:
            keys.setdefault(key, coords)
    assert len(keys) == 39
    for key, coords in keys.items():
        want = km_fiber_prediction(1, coords, "full") / 4
        assert eng.class_value(coords[0], coords[1], coords[2:], key=key) == want, coords


@pytest.mark.parametrize("coords", [(6, 6) + ZERO8, (5, 7, 1) + ZERO8[1:], (1, 100) + ZERO8])
def test_deep_classes_match_the_full_prediction(coords):
    # balls of norm 16-18 from the short-vector table, and residue memos
    # of moduli up to 100 keyed one row at a time
    want = km_fiber_prediction(1, coords, "full") / 4
    assert FiberSweepEngine().class_value(coords[0], coords[1], coords[2:]) == want
