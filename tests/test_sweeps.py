import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques_gw import gw_engine
from enriques_gw.lattice import CARTAN_E8, LatticeVector, enumerate_decompositions, pair, square
from enriques_gw.sweeps import (
    _ROOTS2,
    FiberSweepEngine,
    _grouped_oracle_records,
    _oracle_records,
    _optimized_records,
    alcove_points,
    box_classes,
    box_e8_parts,
    decomposition_agreement,
    genus1_box_table,
    orbit_ids,
    pack_part_keys,
    pack_rows,
    reflection_matrices,
)

ZERO8 = (0,) * 8
ROOT = (1, 0, 0, 0, 0, 0, 0, 0)
CARTAN = np.array(CARTAN_E8, dtype=np.int64)


def as_vector(b1, b2, e):
    return LatticeVector((b1, b2) + tuple(e))


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


def test_scan_modes_produce_identical_tables():
    table_opt, _ = genus1_box_table(max_b1=3, max_b2=3, norm_bound=2, scan="optimized")
    table_orc, _ = genus1_box_table(max_b1=3, max_b2=3, norm_bound=2, scan="oracle")
    assert table_opt == table_orc
    with pytest.raises(ValueError):
        FiberSweepEngine(scan="fast")


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


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), row=E8_ROWS)
def test_alcove_points_are_dominant_below_the_affine_wall(m, row):
    y = alcove_points(np.array([row]), m)[0]
    # pairings <x, alpha_i> = (y . 2 alpha_i) / 4, <x, theta> = (y7 + y8) / 2
    assert (y @ _ROOTS2.T >= 0).all()
    assert y[6] + y[7] <= 2 * m
    assert np.array_equal(alcove_points(np.array([row]) + m, m)[0], y)


def test_orbit_counts_match_affine_mark_solutions():
    counts = [len(_alcove_solutions(m)) for m in range(1, 9)]
    assert counts == [1, 3, 5, 10, 15, 27, 39, 63]
    inv_cartan = np.linalg.inv(CARTAN).round().astype(np.int64)
    for m, count in zip(range(1, 9), counts):
        # the alcove points, in root coordinates, are their own canonical
        # points and name distinct orbits; the dominance test above puts
        # every canonical point among them
        points = np.array(_alcove_solutions(m), dtype=np.int64) @ inv_cartan.T
        assert np.array_equal(alcove_points(points, m), points @ _ROOTS2)
        assert len(set(orbit_ids(m, points).tolist())) == count


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_orbit_partition_equals_reflection_closure(m):
    coords, labels = _reflection_closure_labels(m)
    ids = orbit_ids(m, coords)
    n_orbits = len(np.unique(labels))
    assert len(np.unique(ids)) == n_orbits
    assert len(np.unique(np.stack([labels, ids], axis=1), axis=0)) == n_orbits


def test_classes_beyond_the_residue_memo_match_the_recursion():
    root = (1,) + (0,) * 7
    eng = FiberSweepEngine()
    for coords in [(1, 8) + ZERO8, (1, 9) + root]:
        want = gw_engine.enriques_genus1(LatticeVector(coords), memo={})
        assert eng.class_value(coords[0], coords[1], coords[2:]) == want


def test_part_key_packing_is_injective_for_large_squares():
    s = np.arange(0, 300, 7, dtype=np.int64)
    ids = np.arange(1, 40, 3, dtype=np.int64)
    rows = np.array(list(itertools.product(s[s >= 128], ids, s, ids[:4])), dtype=np.int64)
    pk = pack_part_keys(rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3])
    assert len(np.unique(pk)) == len(rows)
    big = np.array([1 << 30], dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        pack_part_keys(big, big, big, big)


def test_pack_rows_is_injective_and_bounded():
    vecs, _ = box_e8_parts(4)
    packed = pack_rows(vecs)
    assert len(np.unique(packed)) == len(vecs)
    with pytest.raises(ValueError, match="packing range"):
        pack_rows(np.array([[40, 0, 0, 0, 0, 0, 0, 0]]))


def test_genus2_core_matches_engine_module():
    eng = FiberSweepEngine()
    for b1, b2, e in [(1, 1, ZERO8), (2, 1, ZERO8), (2, 2, ROOT)]:
        beta = as_vector(b1, b2, e)
        memo = {}
        want = 4 * gw_engine.enriques_genus1(beta, memo=memo) * square(beta)
        for beta1, beta2 in enumerate_decompositions(beta):
            want += 16 * (gw_engine.enriques_genus1(beta1, memo=memo)
                          * gw_engine.enriques_genus1(beta2, memo=memo) * pair(beta1, beta2))
        assert eng.genus2_core(b1, b2, e) == want
        assert gw_engine.genus2_core(beta) == want
    assert eng.genus2_core(1, 0, ZERO8) == 0
    assert eng.genus2_core(1, 1, (1, 1, 0, 0, 0, 0, 0, 0)) == 0


def test_box_table_covers_expected_classes():
    table, eng = genus1_box_table(max_b1=2, max_b2=2, norm_bound=2)
    vecs, _ = box_e8_parts(2)
    assert len(table) == 2 + 3 * 2 * len(vecs)
    assert table[(1, 0) + ZERO8] == 2
    assert table[(1, 1) + ZERO8] == 32
    assert eng.evals <= len(table)


def test_grouped_oracle_matches_single_shape_scans():
    targets, t_norms = box_e8_parts(4)
    shapes = [(0, 0), (2, 0), (4, 0), (2, 2), (4, 2), (2, 4), (6, 4)]
    grouped = _grouped_oracle_records(shapes, targets, t_norms)
    assert set(grouped) == set(shapes)
    for shape in shapes:
        recs, count = grouped[shape]
        direct, n_direct = _oracle_records(shape[0], shape[1], targets, t_norms)
        assert count == n_direct
        assert np.array_equal(recs, direct), shape


def test_optimized_records_match_oracle_per_shape():
    targets, t_norms = box_e8_parts(4)
    for shape in [(2, 2), (6, 2), (2, 6), (4, 0), (0, 4)]:
        oracle, _ = _oracle_records(shape[0], shape[1], targets, t_norms)
        assert np.array_equal(oracle, _optimized_records(shape[0], shape[1], targets, t_norms))


def test_decomposition_agreement_small_box():
    report = decomposition_agreement(max_b1=2, max_b2=2, norm_bound=2)
    assert report["all_agree"]
    assert report["mismatches"] == []
    vecs, _ = box_e8_parts(2)
    assert report["classes"] == 2 + 3 * 2 * len(vecs)
    assert report["ordered_pairs_including_multiplicity"] > 0
    assert all(v["agree"] for v in report["per_shape"].values())
