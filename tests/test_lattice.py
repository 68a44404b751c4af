import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enriques_gw.lattice import (
    CARTAN_E8,
    LatticeVector,
    as_vector,
    basis_vector,
    decompositions_box_oracle,
    divisibility,
    enumerate_decompositions,
    is_positive,
    pair,
    parse_vector,
    short_vector_table,
    square,
    _short_vector_array,
)
from enriques_gw import lattice
from enriques_gw.qseries import sigma_pow

V1 = basis_vector(1)
V2 = basis_vector(2)

coords = st.tuples(*[st.integers(min_value=-6, max_value=6)] * 10)
vectors = coords.map(LatticeVector)


def sigma3(m):
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def test_hyperbolic_block():
    assert pair(V1, V2) == 1
    assert square(V1) == 0
    assert square(V2) == 0
    assert square(V1 + V2) == 2


def test_e8_block_is_negative_definite_on_samples():
    for i in range(3, 11):
        e = basis_vector(i)
        assert square(e) == -2
        assert pair(e, V1) == 0


def test_e8_bourbaki_edges():
    # nonzero off-diagonal pairings of the E8 simple roots
    edges = set()
    for i in range(3, 11):
        for j in range(i + 1, 11):
            if pair(basis_vector(i), basis_vector(j)) != 0:
                assert pair(basis_vector(i), basis_vector(j)) == 1
                edges.add((i - 2, j - 2))
    assert edges == {(1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)}


def test_e8_norm_is_the_cartan_form_exactly():
    # the unrolled expression against sum x_i C_ij x_j in Python ints, on
    # entries up to 10**20, past int64, and on the whole norm-8 ball
    rng = random.Random(8)
    for _ in range(10000):
        x = tuple(rng.randint(-10 ** 20, 10 ** 20) for _ in range(8))
        want = sum(x[i] * CARTAN_E8[i][j] * x[j] for i in range(8) for j in range(8))
        assert lattice.e8_norm(x) == want, x
    rows, norms = short_vector_table(8)
    assert [lattice.e8_norm(e) for e in rows.tolist()] == norms.tolist()


@given(vectors, vectors)
def test_pair_symmetric(u, v):
    assert pair(u, v) == pair(v, u)


@given(vectors, vectors, vectors)
def test_pair_bilinear(u, v, w):
    assert pair(u + w, v) == pair(u, v) + pair(w, v)


@given(vectors)
def test_lattice_is_even(v):
    assert square(v) % 2 == 0


@given(vectors, st.integers(min_value=-5, max_value=5))
def test_square_scales_quadratically(v, n):
    assert square(n * v) == n * n * square(v)


def test_short_vector_counts():
    # theta series of E8: 1 + 240 sum sigma_3(m) q^(2m), up to norm 24,
    # the largest ball the decomposition agreement sweep scans
    assert len(short_vector_table(0)[0]) == 1
    arr = _short_vector_array(24).astype(np.int64)
    norms = np.einsum("ij,jk,ik->i", arr, np.array(CARTAN_E8), arr)
    total = 1
    for m in range(1, 13):
        total += 240 * sigma3(m)
        if m <= 6:
            assert len({tuple(row) for row in short_vector_table(2 * m)[0].tolist()}) == total
        assert int((norms <= 2 * m).sum()) == total
    assert len(arr) == total
    assert np.array_equal(short_vector_table(24)[1], norms)


def test_short_vectors_have_bounded_norm():
    for row in short_vector_table(4)[0].tolist():
        assert 0 <= -square(LatticeVector((0, 0) + tuple(row))) <= 4


def test_short_vector_array_prefix_nesting():
    small = _short_vector_array(6)
    large = _short_vector_array(12)
    assert np.array_equal(large[: len(small)], small)


@pytest.mark.parametrize("J", [(0,), (1, 2, 3), (0, 2, 4, 6), tuple(range(8))])
def test_short_vector_array_prefix_nesting_in_a_cone(J):
    large = _short_vector_array(16, J)
    for bound in (2, 5, 10, 16):
        small = _short_vector_array(bound, J)
        assert np.array_equal(large[: len(small)], small), bound


def test_short_vector_array_is_in_lexsort_order():
    # norm-major, and within a norm lexicographic in (y_7, .., y_0),
    # y = C x: the order in which the enumeration yields its rows
    cartan = np.array(CARTAN_E8)
    for bound in range(13):
        for J in ((), (0, 3), tuple(range(8))):
            x = _short_vector_array(bound, J)
            y = x @ cartan
            norms = np.einsum("ij,ij->i", x, y)
            assert np.array_equal(x, x[np.lexsort((*y.T, norms))]), (bound, J)


def test_short_vector_array_drops_candidates_outside_the_ball(monkeypatch):
    # candidate rows outside the ball, injected ahead of the enumeration's
    # own, are dropped by the exact norm filter, whatever their size
    # (the enumeration yields y = C x, so the injected rows are C x)
    want = _short_vector_array(6)
    fincke_pohst = lattice._fincke_pohst
    extra = np.array([[64, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, -64],
                      [128, 0, 0, 0, 0, 0, 0, 0], [2, 0, 0, 0, 0, 0, 0, 0]])
    monkeypatch.setattr(lattice, "_fincke_pohst", lambda bound, J=(): np.concatenate(
        [extra @ np.array(CARTAN_E8), fincke_pohst(bound, J)]))
    assert np.array_equal(_short_vector_array(6), want)


def test_the_norm_40_dominant_cone_is_sorted_and_fills_the_theta_shells():
    # its coordinates reach 34, and past norm 128 they pass 64; the
    # shells come from the theta series here, without the ball cap
    cartan = np.array(CARTAN_E8)
    for bound in (40, 160):
        rows = _short_vector_array(bound, ALL_NODES)
        assert int(np.abs(rows).max()) >= (32 if bound == 40 else 64)
        labels = rows @ cartan
        norms = np.einsum("ij,ij->i", rows, labels)
        assert np.array_equal(rows, rows[np.lexsort((*labels.T, norms))])
        assert (labels >= 0).all()
        sizes = [lattice.weyl_order(ALL_NODES) // lattice.weyl_order(tuple(np.flatnonzero(k == 0)))
                 for k in labels]
        shells = [1] + [240 * int(sigma_pow(3, k)) for k in range(1, bound // 2 + 1)]
        assert np.bincount(norms // 2, weights=sizes, minlength=len(shells)).tolist() == shells


def test_short_vector_table_keeps_one_table_and_serves_prefixes(monkeypatch):
    builds = []

    def build(bound, J=()):
        builds.append(bound)
        return _short_vector_array(bound, J)

    monkeypatch.setattr(lattice, "_CONES", {})
    monkeypatch.setattr(lattice, "_short_vector_array", build)
    large = short_vector_table(12)
    small = short_vector_table(6)
    assert builds == [12]
    assert lattice._CONES[()][0] == 12
    fresh = _short_vector_array(6)
    assert np.array_equal(small[0], fresh)
    assert np.array_equal(small[1], np.einsum("ij,jk,ik->i", fresh, np.array(CARTAN_E8), fresh))
    assert len(small) == 2
    for s_arr, l_arr in zip(small, large):
        assert np.shares_memory(s_arr, l_arr) and not s_arr.flags.writeable
        assert np.array_equal(l_arr[: len(s_arr)], s_arr)
    short_vector_table(14)
    assert builds == [12, 14] and lattice._CONES[()][0] == 14


def test_ball_cap_is_the_theta_count_at_norm_32(monkeypatch):
    assert lattice.MAX_BALL_VECTORS == 1 + 240 * sum(sigma3(m) for m in range(1, 17))
    builds = []

    def fake(bound, J=()):
        # a stand-in for the 4.8 million vectors of norm <= 32
        builds.append(bound)
        return np.zeros((1, 8), dtype=np.int64)

    monkeypatch.setattr(lattice, "_CONES", {})
    monkeypatch.setattr(lattice, "_short_vector_array", fake)
    with pytest.raises(ValueError, match=r"J = \(\) do not add up to the theta shells of norm <= 33"):
        short_vector_table(33)
    assert lattice._CONES == {}
    for bound in (34, 50, 100):
        with pytest.raises(ValueError, match="norm <= %d holds more than 4845121" % bound):
            short_vector_table(bound)
    assert builds == [33]


def test_table_refuses_a_build_that_misses_a_vector(monkeypatch):
    fincke_pohst = lattice._fincke_pohst
    gram = np.rint(np.linalg.inv(np.array(CARTAN_E8))).astype(np.int64)

    def drop_one(bound, J=()):
        # the enumeration yields y = C x, of norm y.C^-1.y
        y = fincke_pohst(bound, J)
        inside = np.einsum("ij,jk,ik->i", y, gram, y) <= bound
        return np.delete(y, np.flatnonzero(inside)[-1], axis=0)

    monkeypatch.setattr(lattice, "_CONES", {})
    monkeypatch.setattr(lattice, "_fincke_pohst", drop_one)
    with pytest.raises(ValueError, match=r"J = \(\) do not add up to the theta shells of norm <= 8"):
        short_vector_table(8)
    assert lattice._CONES == {}


def test_positivity():
    assert is_positive(V1)
    assert is_positive(3 * V1)
    assert not is_positive(-1 * V1)
    assert is_positive(V2)
    assert is_positive(V1 + V2)
    assert not is_positive(LatticeVector((0,) * 10))
    # nonzero E8 part disqualifies the b2 = 0 ray
    root = (1, 0, -1, 0, 0, 0, 0, 0, 0, 0)
    assert not is_positive(LatticeVector(root))
    # negative square does not disqualify by itself
    assert is_positive(LatticeVector((0, 1, 1, 0, 0, 0, 0, 0, 0, 0)))


def test_divisibility():
    assert divisibility(V1) == 1
    assert divisibility(2 * V1 + 2 * V2) == 2
    assert divisibility(LatticeVector((6, 9, 0, 3, 0, 0, 0, 0, 0, 0))) == 3
    with pytest.raises(ValueError):
        divisibility(LatticeVector((0,) * 10))


@given(coords)
def test_parse_format_round_trip(c):
    v = LatticeVector(c)
    assert parse_vector(",".join(str(x) for x in c)) == v


def test_parse_vector_rejects_garbage():
    with pytest.raises(ValueError):
        parse_vector("1,2,3")
    with pytest.raises(ValueError):
        parse_vector("a,b,c,d,e,f,g,h,i,j")


def test_parse_vector_refuses_coordinates_past_int64():
    top = (1 << 63) - 1
    assert parse_vector("0,0,0,0,0,0,0,0,0,%d" % -top).coords[-1] == -top
    for x in (top + 1, -top - 1):
        with pytest.raises(ValueError, match="coordinate 10 exceeds the int64 limit %d" % top):
            parse_vector("0,0,0,0,0,0,0,0,0,%d" % x)


small_positive_classes = st.tuples(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=2),
    st.sampled_from(sorted(tuple(row) for row in short_vector_table(2)[0].tolist())),
).map(lambda t: LatticeVector((t[0], t[1]) + t[2]))


@settings(max_examples=30, deadline=None)
@given(small_positive_classes)
def test_enumeration_matches_box_oracle(beta):
    fast = enumerate_decompositions(beta)
    slow = decompositions_box_oracle(beta)
    assert fast == slow


# the lexicographically least root, as selfcheck takes it
E8_ROOT = min(map(tuple, short_vector_table(2)[0][1:].tolist()))
E8_ZERO = (0,) * 8


def _per_candidate_filter(beta):
    """The box oracle's reference: every candidate of the box built as a
    LatticeVector pair and kept when _part_ok holds on both parts."""
    found = []
    for b2p in range(beta.b2 + 1):
        for b1p in range(beta.b1 + 1):
            for row in short_vector_table(2 * b1p * b2p)[0].tolist():
                beta1 = lattice.from_parts(b1p, b2p, row)
                beta2 = beta - beta1
                if lattice._part_ok(beta1) and lattice._part_ok(beta2):
                    found.append((beta1, beta2))
    found.sort(key=lambda p: p[0].coords)
    return found


def test_box_oracle_matches_the_per_candidate_filter():
    neg_root = tuple(-x for x in E8_ROOT)
    negative = LatticeVector((2, 2, 2, 1, 0, 0, 0, 0, 0, 0))
    assert square(negative) < 0
    classes = [n * V1 for n in (1, 2, 3)] + [
        LatticeVector(c) for c in ((0, 2) + E8_ZERO, (1, 1) + E8_ROOT,
                                   (2, 1) + neg_root, (2, 2) + E8_ROOT)] + [negative]
    counts = []
    for beta in classes:
        got = decompositions_box_oracle(beta)
        assert got == _per_candidate_filter(beta), beta
        counts.append(len(got))
    # the b2' = 0 edges (n*v1) and the cross term (2, 2, root) are met
    assert counts[:3] == [0, 1, 2] and counts[6] == 62
    for beta in ((-1, 0) + E8_ZERO, (1, 0) + E8_ROOT, (0,) * 10, (2, -1) + E8_ZERO):
        with pytest.raises(ValueError, match="positive classes"):
            decompositions_box_oracle(beta)


def test_box_oracle_raises_on_a_survivor_failing_part_ok(monkeypatch):
    monkeypatch.setattr(lattice, "_part_mask", lambda c1, c2, zero, nrm: np.ones_like(zero))
    with pytest.raises(RuntimeError, match="masks kept"):
        decompositions_box_oracle(2 * V1)


def test_box_oracle_refuses_past_the_int64_bound(monkeypatch):
    # e = k * (first simple root coordinate): <e,e> = 2k^2, max|Ce| = 2k
    max_f = int(np.abs(short_vector_table(2)[0]).max())
    k = 2 ** 62
    bound = 4 + 2 * k * k + 16 * max_f * 2 * k
    monkeypatch.setattr(lattice, "_part_mask",
                        lambda *args: pytest.fail("a mask was formed past the bound"))
    with pytest.raises(ValueError, match=r"int64 bound %d exceeds 2\*\*63" % bound):
        decompositions_box_oracle((1, 1, k) + (0,) * 7)
    monkeypatch.undo()
    # just under the bound, the masks agree with the per-candidate filter
    k = 2 * 10 ** 9
    assert 4 + 2 * k * k + 16 * max_f * 2 * k < 2 ** 63
    beta = LatticeVector((1, 1, k) + (0,) * 7)
    assert decompositions_box_oracle(beta) == _per_candidate_filter(beta)


def test_enumeration_refuses_past_the_int64_bound(monkeypatch):
    # the masks share the oracle's bound; with b2 = 2 there are cells, and
    # the smaller ball of each is a radius-zero ball (|f_j| <= 0)
    k = 2 ** 62
    monkeypatch.setattr(lattice, "_part_mask",
                        lambda *args: pytest.fail("a mask was formed past the bound"))
    with pytest.raises(ValueError, match=r"the enumeration's int64 bound %d exceeds 2\*\*63"
                       % (8 + 2 * k * k)):
        enumerate_decompositions((1, 2, k) + (0,) * 7)
    monkeypatch.undo()
    k = 2 * 10 ** 9
    beta = LatticeVector((1, 2, k) + (0,) * 7)
    assert enumerate_decompositions(beta) == decompositions_box_oracle(beta) == []


@pytest.mark.parametrize("coords", [(3, 2) + E8_ROOT, (2, 3) + E8_ROOT,
                                    (3, 3) + E8_ROOT, (3, 3) + E8_ZERO])
def test_enumeration_matches_box_oracle_on_larger_classes(monkeypatch, coords):
    # the oracle reads balls up to norm 18; an empty cone cache drops them
    # with the test
    monkeypatch.setattr(lattice, "_CONES", {})
    fast = enumerate_decompositions(coords)
    assert fast
    assert fast == decompositions_box_oracle(coords)


@settings(max_examples=30, deadline=None)
@given(small_positive_classes)
def test_decomposition_postconditions(beta):
    seen = set()
    for b1, b2 in enumerate_decompositions(beta):
        assert b1 + b2 == beta
        assert is_positive(b1) and is_positive(b2)
        assert square(b1) >= 0 and square(b2) >= 0
        assert not b1.is_zero() and not b2.is_zero()
        seen.add((b1.coords, b2.coords))
    # ordered pairs are listed exactly once
    assert len(seen) == len(enumerate_decompositions(beta))


def test_decompositions_of_isotropic_multiples():
    # n*v1 splits only into k*v1 + (n-k)*v1
    got = enumerate_decompositions(3 * V1)
    want = [(V1, 2 * V1), (2 * V1, V1)]
    assert got == want


def test_decompositions_require_positive_class():
    with pytest.raises(ValueError):
        enumerate_decompositions(LatticeVector((-1, 0) + (0,) * 8))


# -- W(E8): dominant vectors, parabolic orders and orbit representatives ----

CARTAN = np.array(CARTAN_E8, dtype=np.int64)
ALL_NODES = tuple(range(8))


def _reflect(rows, j):
    """The simple reflection s_j on rows of E8 coordinates."""
    out = rows.copy()
    out[:, j] -= rows @ CARTAN[j]
    return out


def _orbit_size(start, J):
    """Brute-force size of the orbit of `start` under the simple
    reflections of J, by closure."""
    seen = {start.tobytes()}
    frontier = start[None, :]
    while J and len(frontier):
        images = np.unique(np.concatenate([_reflect(frontier, j) for j in J]), axis=0)
        new = [row for row in images if row.tobytes() not in seen]
        seen.update(row.tobytes() for row in new)
        frontier = np.array(new, dtype=np.int64).reshape(-1, 8)
    return len(seen)


def test_weyl_orders_match_the_orbit_of_rho():
    # rho, the sum of the fundamental weights, has C rho = 1: it is
    # regular, so its orbit under W_J has |W_J| elements
    rho = np.linalg.solve(CARTAN, np.ones(8)).round().astype(np.int64)
    assert np.array_equal(CARTAN @ rho, np.ones(8, dtype=np.int64))
    assert lattice.weyl_order(()) == 1 and lattice.weyl_order(ALL_NODES) == 696729600
    assert lattice.weyl_order((0, 2, 3, 4, 5, 6, 7)) == 40320          # A7
    assert lattice.weyl_order((1, 2, 3, 4, 5, 6, 7)) == 322560         # D7
    assert lattice.weyl_order((0, 1, 2, 3, 4, 5, 6)) == 2903040        # E7
    # every J but E8, E7, D7 and E6 x A1
    checked = 0
    for r in range(9):
        for J in itertools.combinations(range(8), r):
            if lattice.weyl_order(J) <= 51840:
                assert _orbit_size(rho, J) == lattice.weyl_order(J), J
                checked += 1
    assert checked == 252


def _row_positions(a, rows):
    """The position in the int64 array a of each of the rows, by a binary
    search of a's rows read as 64-byte strings."""
    void = np.dtype((np.void, 64))
    keys = np.ascontiguousarray(a).view(void).ravel()
    order = np.argsort(keys)
    return order[np.searchsorted(keys[order], np.ascontiguousarray(rows).view(void).ravel())]


def _ball_orbit_labels(bound, J):
    """Brute-force W_J-orbit labels of the rows of the ball of norm <=
    bound: each row's smallest row index over its orbit, found by closing
    the simple reflections of J as permutations of the ball."""
    a, _ = short_vector_table(bound)
    perms = [_row_positions(a, _reflect(a, j)) for j in J]
    labels = np.arange(len(a))
    while True:
        before = labels.copy()
        for p in perms:
            np.minimum(labels, labels[p], out=labels)
        np.minimum(labels, labels[labels], out=labels)
        if np.array_equal(labels, before):
            return labels


def _stabilizer(e):
    labels = CARTAN @ np.array(lattice.dominant(e))
    return tuple(np.flatnonzero(labels == 0).tolist())


ROOT_J = _stabilizer((1, 0, 0, 0, 0, 0, 0, 0))
NORM4_J = _stabilizer((1, 1, 0, 0, 0, 0, 0, 0))


def _ball_index(bound, rows, norms):
    """Positions of the rows (with their norms) in the ball of norm <=
    bound."""
    a, nrm = short_vector_table(bound)
    idx = _row_positions(a, rows)
    assert np.array_equal(a[idx], rows) and np.array_equal(nrm[idx], norms)
    return idx


@pytest.mark.parametrize("J", [(), *((j,) for j in range(8)), ALL_NODES, ROOT_J, NORM4_J])
def test_orbit_representative_weights_are_brute_force_orbit_sizes(J):
    assert len(ROOT_J) == len(NORM4_J) == 7 and ROOT_J != NORM4_J
    labels = _ball_orbit_labels(8, J)
    rows, norms, w = lattice.orbit_representatives(8, J)
    idx = _ball_index(8, rows, norms)
    # one representative per orbit, counted with the orbit's size
    assert np.array_equal(np.sort(labels[idx]), np.unique(labels))
    assert np.array_equal(w, np.bincount(labels)[labels[idx]])
    assert (rows @ CARTAN[:, list(J)] >= 0).all()


def _labelled_cone(bound, J):
    """The cone of J read off the whole ball by labels: the ball rows f
    with (C f)_j >= 0 for j in J, in the ball's order, their norms, and
    the weights |W_J| / |W_K|, K the nodes of J with (C f)_j = 0."""
    a, nrm = short_vector_table(bound)
    labels = a @ CARTAN[:, list(J)]
    keep = (labels >= 0).all(axis=1)
    ks, which = np.unique(labels[keep] == 0, axis=0, return_inverse=True)
    sizes = [lattice.weyl_order(J) // lattice.weyl_order(tuple(np.compress(k, J).tolist()))
             for k in ks]
    return a[keep], nrm[keep], np.array(sizes, dtype=np.int64)[which.ravel()]


def test_every_cone_at_norm_8_is_the_labelled_ball(monkeypatch):
    monkeypatch.setattr(lattice, "_CONES", {})
    subsets = [J for r in range(9) for J in itertools.combinations(range(8), r)]
    assert len(subsets) == 256
    for J in subsets:
        got = lattice.orbit_representatives(8, J)
        want = _labelled_cone(8, J)
        assert all(np.array_equal(g, w) for g, w in zip(got, want)), J


def test_orbit_representatives_keep_each_cone_at_its_largest_bound(monkeypatch):
    monkeypatch.setattr(lattice, "_CONES", {})
    J = (0, 3, 4)
    small = lattice.orbit_representatives(4, J)
    large = lattice.orbit_representatives(8, J)
    assert lattice._CONES[J][0] == 8
    again = lattice.orbit_representatives(4, J)
    for s_arr, l_arr, a_arr in zip(small, large, again):
        assert np.array_equal(l_arr[: len(s_arr)], s_arr) and np.array_equal(a_arr, s_arr)
        assert np.shares_memory(a_arr, l_arr) and not a_arr.flags.writeable
    monkeypatch.setattr(lattice, "_CONES", {})
    fresh = lattice.orbit_representatives(8, J)
    assert all(np.array_equal(f, l) for f, l in zip(fresh, large))
    # the whole ball is one more entry beside the cones
    short_vector_table(10)
    assert list(lattice._CONES) == [J, ()]


def test_cones_held_together_stay_under_the_ball_cap(monkeypatch):
    # with the cap lowered to 30000 rows, the norm-8 ball (26641 rows) and
    # one half-space cone of it do not fit together: after each build the
    # oldest other cones go; a cone asked at a larger bound drops its old
    # entry before it builds, and a refused bound keeps it
    monkeypatch.setattr(lattice, "MAX_BALL_VECTORS", 30000)
    monkeypatch.setattr(lattice, "_CONES", {})
    build = lattice._short_vector_array
    builds = []

    def spy(bound, J=()):
        builds.append((bound, J, J in lattice._CONES))
        return build(bound, J)

    monkeypatch.setattr(lattice, "_short_vector_array", spy)

    def held():
        return sum(len(c[1]) for c in lattice._CONES.values())

    lattice.orbit_representatives(4, (0,))
    lattice.orbit_representatives(8, (1, 2))
    assert list(lattice._CONES) == [(0,), (1, 2)] and held() <= 30000
    lattice.orbit_representatives(8, (0,))
    assert builds[-1] == (8, (0,), False)
    assert list(lattice._CONES) == [(1, 2), (0,)] and held() <= 30000
    short_vector_table(8)
    assert list(lattice._CONES) == [()] and held() == 26641
    lattice.orbit_representatives(8, (0,))
    assert list(lattice._CONES) == [(0,)] and held() <= 30000
    with pytest.raises(ValueError, match="norm <= 10 holds more than 30000 vectors"):
        lattice.orbit_representatives(10, (0,))
    assert list(lattice._CONES) == [(0,)] and len(builds) == 5


@pytest.mark.parametrize("corrupt", ["filter", "weight"])
def test_orbit_representatives_refuse_weights_off_the_theta_shells(monkeypatch, corrupt):
    monkeypatch.setattr(lattice, "_CONES", {})
    J = (2, 3)
    lattice.orbit_representatives(4, J)
    if corrupt == "filter":
        # a clip that misses node 2 keeps rows outside the cone; the check
        # is necessary, not sufficient: any one half-space at weights 2
        # and 1 (on its wall) passes it on a ball symmetric under -1
        fincke_pohst = lattice._fincke_pohst
        monkeypatch.setattr(lattice, "_fincke_pohst",
                            lambda bound, J=(): fincke_pohst(bound, J[1:]))
    else:
        order = lattice.weyl_order
        monkeypatch.setattr(lattice, "weyl_order", lambda J: order(J) * (1 + (len(J) == 1)))
    with pytest.raises(ValueError, match="do not add up to the theta shells of norm <= 8"):
        lattice.orbit_representatives(8, J)
    assert lattice._CONES == {}
