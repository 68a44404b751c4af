"""Exact arithmetic and enumeration in the rank-10 even lattice U + E8(-1).

Vectors are stored in a fixed basis v1..v10: v1, v2 span the hyperbolic
plane U (Gram [[0,1],[1,0]]) and v3..v10 span E8(-1), the negated E8
Cartan matrix with node numbering such that the adjacency edges are
{1-3, 2-4, 3-4, 4-5, 5-6, 6-7, 7-8}.

A class beta = (b1, b2, e1..e8) is *positive* when b2 > 0, or when b2 = 0
and beta is a positive multiple of v1.  Effective curve classes on the
Enriques surface are positive in this sense; the reference isotropic
vector v1 is fixed once and for all (the recursion below depends on this
choice of reference, which we document rather than vary).

E8 balls and their W_J cones come from one enumeration.  E8 is
unimodular, so in the coordinates y = C f the cone of the f with
(C f)_j >= 0 for j in J is a sign clip on the layers of one Fincke-Pohst
search (Fincke-Pohst, Math. Comp. 44, 1985).  orbit_representatives
keeps each cone at the largest norm bound asked, and a smaller bound
reads a prefix; J = () gives the whole ball, short_vector_table.  The E8
theta series (Conway-Sloane, SPLAG, Ch. 4 section 8.1) gives each ball's
shell sizes: a ball past the cap is refused, and a built cone whose
orbit sizes do not add up to them raises.  Every ball and cone is
norm-major, in the enumeration's own order within a norm, so no row is
ever encoded for a sort.  The Weyl group W(E8) enters through
dominant vectors, the orders of its parabolic subgroups W_J, and the
cones, which hold one representative per W_J-orbit of a ball.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .qseries import sigma_pow

RANK = 10

_E8_EDGES = ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8))


def _cartan_e8():
    c = [[0] * 8 for _ in range(8)]
    for i in range(8):
        c[i][i] = 2
    for a, b in _E8_EDGES:
        c[a - 1][b - 1] = -1
        c[b - 1][a - 1] = -1
    return tuple(tuple(row) for row in c)


#: positive-definite E8 Cartan matrix (the negated Gram block of E8(-1))
CARTAN_E8 = _cartan_e8()


class LatticeVector:
    """An element of U + E8(-1), held as a 10-tuple of integers."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = tuple(map(int, coords))
        if len(coords) != RANK:
            raise ValueError("expected 10 coordinates, got %d" % len(coords))
        self.coords = coords

    @property
    def b1(self):
        return self.coords[0]

    @property
    def b2(self):
        return self.coords[1]

    @property
    def e8(self):
        return self.coords[2:]

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        other = as_vector(other)
        return LatticeVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = as_vector(other)
        return LatticeVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return LatticeVector(tuple(-a for a in self.coords))

    def __mul__(self, n):
        n = int(n)
        return LatticeVector(tuple(n * a for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, LatticeVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return "LatticeVector(%s)" % (self.coords,)


def as_vector(v) -> LatticeVector:
    """Coerce a LatticeVector or a 10-sequence of integers."""
    if isinstance(v, LatticeVector):
        return v
    return LatticeVector(v)


def basis_vector(i: int) -> LatticeVector:
    """Return v_i for 1 <= i <= 10 (v1, v2 hyperbolic; v3..v10 the E8 block)."""
    if not 1 <= i <= RANK:
        raise ValueError("basis index out of range: %r" % (i,))
    return LatticeVector(tuple(1 if j == i - 1 else 0 for j in range(RANK)))


def from_parts(b1: int, b2: int, e8=(0,) * 8) -> LatticeVector:
    e8 = tuple(int(c) for c in e8)
    if len(e8) != 8:
        raise ValueError("E8 part needs 8 coordinates")
    return LatticeVector((int(b1), int(b2)) + e8)


def e8_norm(e) -> int:
    """Positive-definite norm of an 8-tuple under the E8 Cartan form.

    This equals minus the E8(-1) self-pairing, so squares in the full
    lattice read 2*b1*b2 - e8_norm(e8 part).  One integer expression,
    sum e_i^2 less one product per edge of _E8_EDGES, doubled: exact on
    Python ints of any size.
    """
    a, b, c, d, f, g, h, k = e
    return 2 * (a * (a - c) + b * (b - d) + c * (c - d) + d * (d - f)
                + f * (f - g) + g * (g - h) + h * (h - k) + k * k)


def pair(u, v) -> int:
    """Symmetric bilinear pairing under the block Gram matrix of U + E8(-1)."""
    u = as_vector(u)
    v = as_vector(v)
    total = u.coords[0] * v.coords[1] + u.coords[1] * v.coords[0]
    ue, ve = u.coords[2:], v.coords[2:]
    for i in range(8):
        if ue[i]:
            total -= 2 * ue[i] * ve[i]
    for a, b in _E8_EDGES:
        total += ue[a - 1] * ve[b - 1] + ue[b - 1] * ve[a - 1]
    return total


def square(beta) -> int:
    """Self-pairing <beta, beta>; always even since the lattice is even."""
    beta = as_vector(beta)
    return 2 * beta.coords[0] * beta.coords[1] - e8_norm(beta.coords[2:])


def is_positive(beta) -> bool:
    """True iff b2 > 0, or b2 = 0 and beta = n*v1 with n > 0."""
    beta = as_vector(beta)
    if beta.b2 > 0:
        return True
    if beta.b2 == 0 and beta.b1 > 0:
        return all(c == 0 for c in beta.e8)
    return False


def divisibility(beta) -> int:
    """gcd of the coordinates; a class is primitive iff this is 1."""
    g = math.gcd(*as_vector(beta).coords)
    if g == 0:
        raise ValueError("zero class has no divisibility")
    return g


# ---------------------------------------------------------------------------
# Short vector enumeration in the E8 block (Fincke-Pohst style)
# ---------------------------------------------------------------------------

_CARTAN_NP = np.array(CARTAN_E8, dtype=np.int64)
#: C^-1, the Gram matrix of the fundamental weights: an integer matrix,
#: since E8 is unimodular, so y = C f is integral exactly when f is
_CARTAN_INV = np.rint(np.linalg.inv(_CARTAN_NP)).astype(np.int64)
assert (_CARTAN_INV @ _CARTAN_NP == np.eye(8, dtype=np.int64)).all()


def _ldl(gram):
    """float64 LDL data of a positive-definite 8x8 Gram matrix, by Schur
    complements: Q(y) = sum_i d[i]*(y[i] + sum_{j>i} mu[i][j]y[j])^2."""
    a = np.array(gram, dtype=np.float64)
    d = np.empty(8)
    mu = np.zeros((8, 8))
    for i in range(8):
        d[i] = a[i, i]
        mu[i, i + 1:] = a[i, i + 1:] / d[i]
        a[i + 1:, i + 1:] -= np.outer(mu[i, i + 1:], a[i, i + 1:])
    return d, mu


_LDL_D, _LDL_MU = _ldl(_CARTAN_INV)


def _short_vector_array(bound: int, J=()) -> np.ndarray:
    """The integer x in the E8 coordinate lattice with Cartan norm <= bound
    and (C x)_j >= 0 for the nodes j of the tuple J: the whole ball for
    J = ().

    Returns an uncached (N, 8) int64 array: x = y C^-1 for the rows y of
    _fincke_pohst, after an exact integer filter that removes any
    overshoot; orbit_representatives checks that no vector is missed.

    Rows are in norm-major order and, within a norm, in the lexicographic
    order of (y_7, .., y_0) in which _fincke_pohst yields them; the filter
    and one stable argsort of the norms keep it.  That order within a norm
    does not depend on the bound, so the array for a smaller bound is a
    prefix of the one for a larger.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound < 2:
        return np.zeros((1, 8), dtype=np.int64)

    y = _fincke_pohst(bound, J)
    x = y @ _CARTAN_INV
    # the Cartan norm x.C.x is x.y, as y = C x
    norms = np.einsum("ij,ij->i", x, y)
    del y
    keep = norms <= bound
    x, norms = x[keep], norms[keep]
    return x[np.argsort(norms, kind="stable")]


def _fincke_pohst(bound: int, J=()) -> np.ndarray:
    """Candidate rows y = C x for _short_vector_array(bound, J), a
    superset of the y with y.C^-1.y <= bound and y_j >= 0 for j in J, in
    lexicographic order of (y_7, .., y_0): each layer expands its parents
    in order, the new coordinate ascending.  The per-row temporaries die
    on return.  Layer-by-layer branch and bound on the float64 LDL of
    C^-1, with interval bounds padded by a small slack; the layer of each
    j in J starts at max(lo, 0)."""
    d, mu = _LDL_D, _LDL_MU
    slack = 1e-7

    # suffix holds coordinates (y_{i+1}, .., y_7); part holds the accumulated
    # quadratic value of the already-fixed layers
    suffix = np.zeros((1, 0), dtype=np.int64)
    part = np.zeros(1)
    for i in range(7, -1, -1):
        t = suffix @ mu[i, i + 1:] if suffix.shape[1] else np.zeros(len(part))
        radius = np.sqrt(np.maximum(bound - part, 0.0) / d[i]) + slack
        lo = np.ceil(-t - radius).astype(np.int64)
        hi = np.floor(-t + radius).astype(np.int64)
        if i in J:
            np.maximum(lo, 0, out=lo)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        rows = np.repeat(np.arange(len(part)), counts)
        # first new coordinate value per row, then a running offset
        starts = np.repeat(lo, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        yi = starts + offsets
        part = part[rows] + d[i] * (yi + (t[rows] if len(t) else 0.0)) ** 2
        # one new column-major layer, the old coordinates gathered one
        # contiguous column at a time: no full-size gathered copy
        layer = np.empty((total, 8 - i), dtype=np.int64, order="F")
        layer[:, 0] = yi
        for j in range(7 - i):
            layer[:, j + 1] = suffix[rows, j]
        suffix = layer
    return suffix


#: the most vectors an E8 ball may hold: the count at norm 32
MAX_BALL_VECTORS = 4845121


def theta_shells(bound: int):
    """Sizes of the shells of norm 0, 2, 4, .. <= bound of the E8 ball,
    from the theta series 1 + 240 sum_k sigma_3(k) q^(2k), without
    building it.  Raises ValueError at the first partial sum past
    MAX_BALL_VECTORS."""
    shells = [1]
    while len(shells) <= bound // 2:
        shells.append(240 * int(sigma_pow(3, len(shells))))
        if sum(shells) > MAX_BALL_VECTORS:
            raise ValueError("the E8 ball of norm <= %d holds more than %d vectors"
                             % (bound, MAX_BALL_VECTORS))
    return shells


def short_vector_table(bound: int):
    """(A, NRM) for the E8 coordinate vectors of Cartan norm <= bound:
    int64 coordinates and norms, read-only, in the norm-major order of
    _short_vector_array.  Readers needing the pairings A C e form the
    8-vector C e themselves.  This is the whole ball, the J = () cone of
    orbit_representatives, with its cache and its refusals."""
    return orbit_representatives(bound, ())[:2]


# ---------------------------------------------------------------------------
# W(E8): dominant vectors, parabolic subgroups and their orbits in a ball
# ---------------------------------------------------------------------------

def dominant(e):
    """The dominant vector of the W(E8)-orbit of E8 coordinates e, the one
    with C e >= 0, as a tuple: while some label (C e)_i is negative, apply
    the simple reflection s_i, which subtracts (C e)_i from e_i."""
    e = list(e)
    ce = [sum(c * x for c, x in zip(row, e)) for row in CARTAN_E8]
    while True:
        i = next((i for i, c in enumerate(ce) if c < 0), None)
        if i is None:
            return tuple(e)
        c = ce[i]
        e[i] -= c
        for j, cij in enumerate(CARTAN_E8[i]):
            ce[j] -= c * cij


def _component_order(nodes):
    # a connected subdiagram of E8 branches only at node 3 (0-based), when
    # it holds the neighbours 1, 2 and 4; its arms there have lengths
    # 1, 2, n - 4 with node 0 (E_n, or D5 for n = 5) and 1, 1, n - 3
    # without it (D_n); Bourbaki, Lie Groups VI, Plates I-VII
    n = len(nodes)
    if not {1, 2, 3, 4} <= nodes:
        return math.factorial(n + 1)
    if 0 in nodes and n >= 6:
        return {6: 51840, 7: 2903040, 8: 696729600}[n]
    return 2 ** (n - 1) * math.factorial(n)


@lru_cache(maxsize=256)
def weyl_order(J):
    """|W_J| for a tuple J of E8 nodes (0-based, CARTAN_E8 numbering):
    the product of the Weyl group orders of the components of J, of
    types A_n, D_n and E_n.  One value per subset of the 8 nodes is
    cached."""
    left, order = set(J), 1
    while left:
        comp, todo = set(), [left.pop()]
        while todo:
            i = todo.pop()
            comp.add(i)
            nbrs = {j for j in left if CARTAN_E8[i][j]}
            left -= nbrs
            todo.extend(nbrs)
        order *= _component_order(comp)
    return order


# J -> (bound, rows, norms, weights), the cone of J at the largest bound
# asked; see orbit_representatives
_CONES = {}


def orbit_representatives(bound, J):
    """(rows, norms, weights) for the ball of norm <= bound and a tuple J
    of E8 nodes: the rows f of the ball with (C f)_j >= 0 for j in J, in
    the order of _short_vector_array, which hold exactly one vector of
    each orbit of the parabolic subgroup W_J; their int64 norms; and the
    int64 orbit sizes |W_J| / |W_K|, K = {j in J : (C f)_j = 0} the
    nodes of J fixing f (Humphreys, Reflection Groups and Coxeter Groups,
    1.12).  J = () gives the whole ball, every row at weight 1.  The
    arrays are read-only.

    Raises ValueError, before building, if the ball holds more than
    MAX_BALL_VECTORS vectors (see theta_shells); and, keeping nothing for
    J, if the weights of some theta shell do not add up to the shell's
    size.  For J = () that is the ball's size, shell by shell.

    Each J keeps one cone, built at the largest bound asked, and a
    smaller bound reads a prefix.  A J asked at a larger bound drops its
    old cone before it builds; after a build, the oldest other cones are
    dropped until those held hold at most MAX_BALL_VECTORS rows together."""
    got = _CONES.get(J)
    if got is None or got[0] < bound:
        shells = theta_shells(bound)
        _CONES.pop(J, None)
        a = _short_vector_array(bound, J)
        nrm = np.einsum("ij,ij->i", a, a @ _CARTAN_NP)
        if J:
            # the nodes K of J fixing each row, as a bit mask, and the
            # orbit size of each mask met
            masks, which = np.unique((a @ _CARTAN_NP[:, list(J)] == 0) @ (1 << np.arange(len(J))),
                                     return_inverse=True)
            sizes = [weyl_order(J) // weyl_order(tuple(j for b, j in enumerate(J) if k >> b & 1))
                     for k in masks.tolist()]
            w = np.array(sizes, dtype=np.int64)[which]
        else:
            w = np.ones(len(a), dtype=np.int64)
        if np.bincount(nrm // 2, weights=w, minlength=len(shells)).tolist() != shells:
            raise ValueError("the W_J-orbit sizes of J = %s do not add up to the "
                             "theta shells of norm <= %d" % (J, bound))
        for arr in (a, nrm, w):
            arr.setflags(write=False)
        got = _CONES[J] = (bound, a, nrm, w)
        held = sum(len(c[1]) for c in _CONES.values())
        for old in [k for k in _CONES if k != J]:
            if held <= MAX_BALL_VECTORS:
                break
            held -= len(_CONES.pop(old)[1])
    n = int(np.searchsorted(got[2], bound, side="right"))
    return got[1][:n], got[2][:n], got[3][:n]


# ---------------------------------------------------------------------------
# Decompositions beta = beta1 + beta2 into positive classes of square >= 0
# ---------------------------------------------------------------------------

def _part_ok(beta1: LatticeVector) -> bool:
    # a positive class is nonzero
    return is_positive(beta1) and square(beta1) >= 0


def _part_mask(c1, c2, zero, nrm):
    """Rows where the part (c1, c2, g) is nonzero, positive and of square
    >= 0, for ints c1, c2 and per-row arrays: `zero` marks g = 0 and
    `nrm` holds the Cartan norm of g."""
    nonzero = ~zero | (c1 != 0) | (c2 != 0)
    positive = (c2 > 0) | ((c2 == 0) & (c1 > 0) & zero)
    return nonzero & positive & (2 * c1 * c2 - nrm >= 0)


def _mask_terms(b1, b2, e, max_f, who):
    """(e, Ce, <e,e>) for the int64 masks of a decomposition scan of the
    class (b1, b2, e) over E8 parts f with |f_j| <= max_f: e and Ce as
    int64 arrays, <e,e> an int.  The masks form the norm of e - f as
    <e,e> - 2 f.Ce + <f,f>, so every int64 intermediate is at most
    4*b1*b2 + <e,e> + 16 * max_f * max|Ce| in absolute value, and
    ValueError, naming `who`, is raised unless this bound is below 2**63.
    Below it, e and Ce fit int64 too, as |e_j|**2 <= 30<e,e> and
    |(Ce)_j|**2 <= 2<e,e>."""
    ce = [sum(c * x for c, x in zip(row, e)) for row in CARTAN_E8]
    ee = sum(x * y for x, y in zip(e, ce))
    bound = 4 * b1 * b2 + ee + 16 * max_f * max(abs(y) for y in ce)
    if bound >= 1 << 63:
        raise ValueError("%s's int64 bound %d exceeds 2**63" % (who, bound))
    return np.array(e, dtype=np.int64), np.array(ce, dtype=np.int64), ee


def enumerate_decompositions(beta):
    """All ordered pairs (beta1, beta2) with beta1 + beta2 = beta, both
    positive, nonzero and of square >= 0, sorted lexicographically by the
    coordinates of beta1.

    Finiteness: positivity forces 0 <= b2' <= b2; for 0 < b2' < b2 the two
    square conditions force 0 <= b1' <= b1 and pin the E8 part of beta1 to
    the intersection of a ball around 0 (radius^2 = 2*b1'*b2') and a ball
    around the E8 part of beta (radius^2 = 2*(b1-b1')*(b2-b2')); the scan
    walks the smaller ball, shifted by e -> e - g when it is the second.
    The b2' = 0 and b2' = b2 edges only admit multiples of v1 on one side.

    Each cell's ball rows are filtered with the int64 masks of _part_mask
    before any LatticeVector is built, and every survivor pair is checked
    again with _part_ok.  The masks are exact under the bound of
    _mask_terms, with |g_j| <= sqrt(30 r) on the largest ball r walked;
    past it ValueError is raised before any cell is scanned.  Unlike
    decompositions_box_oracle, which walks the whole box, this walks one
    ball per cell, the smaller one.
    """
    beta = as_vector(beta)
    if not is_positive(beta):
        raise ValueError("decompositions are only defined for positive classes")
    b1, b2 = beta.b1, beta.b2
    found = []

    def keep(beta1, beta2):
        if _part_ok(beta1) and _part_ok(beta2):
            found.append((beta1, beta2))

    for n in range(1, b1 + 1):
        keep(n * basis_vector(1), beta - n * basis_vector(1))     # b2' = 0 side
        if b2 > 0:
            keep(beta - n * basis_vector(1), n * basis_vector(1))  # b2' = b2 side
    cells = [(b1p, b2p, 2 * b1p * b2p, 2 * (b1 - b1p) * (b2 - b2p))
             for b2p in range(1, b2) for b1p in range(0, b1 + 1)]
    if cells:
        r_max = max(min(r1, r2) for _, _, r1, r2 in cells)
        e, ce, ee = _mask_terms(b1, b2, beta.e8, math.isqrt(30 * r_max), "the enumeration")
    for b1p, b2p, r1, r2 in cells:
        g, nrm = short_vector_table(min(r1, r2))
        zero, at_e = ~g.any(axis=1), (g == e).all(axis=1)
        far = ee - 2 * (g @ ce) + nrm  # <e - g, e - g>
        if r1 <= r2:
            # g is the E8 part of beta1 and e - g that of beta2
            mask = _part_mask(b1p, b2p, zero, nrm) & _part_mask(b1 - b1p, b2 - b2p, at_e, far)
            f = g[mask]
        else:
            # shifted ball: g is the E8 part of beta2 and e - g that of beta1
            mask = _part_mask(b1p, b2p, at_e, far) & _part_mask(b1 - b1p, b2 - b2p, zero, nrm)
            f = e - g[mask]
        for f1, f2 in zip(f.tolist(), (e - f).tolist()):
            keep(LatticeVector((b1p, b2p, *f1)), LatticeVector((b1 - b1p, b2 - b2p, *f2)))
    found.sort(key=lambda p: p[0].coords)
    return found


def decompositions_box_oracle(beta):
    """Brute-force reference for enumerate_decompositions, used for
    agreement tests.

    Scans the whole box 0 <= b2' <= b2, 0 <= b1' <= b1, reading the whole
    ball short_vector_table(2*b1'*b2') as the E8 parts f of beta1 =
    (b1', b2', f); no cone, orbit, mirror or smaller-ball rule enters.
    Each slice is filtered by int64 masks requiring both beta1 and beta2 =
    beta - beta1 to be nonzero, positive and of square >= 0, the norm of
    the E8 part e - f of beta2 taken as <e,e> - 2 f.Ce + <f,f>.  Only the
    survivors become LatticeVector pairs, and each is checked again with
    _part_ok; a survivor failing it raises RuntimeError.

    The masks are exact under the int64 bound of _mask_terms, f over the
    largest ball (norm 2*b1*b2); past it ValueError is raised before any
    product.
    """
    beta = as_vector(beta)
    if not is_positive(beta):
        raise ValueError("decompositions are only defined for positive classes")
    b1, b2 = beta.b1, beta.b2
    max_f = int(np.abs(short_vector_table(2 * b1 * b2)[0]).max())
    e_np, ce_np, ee = _mask_terms(b1, b2, beta.e8, max_f, "the box oracle")
    found = []
    for b2p in range(0, b2 + 1):
        for b1p in range(0, b1 + 1):
            a, nrm = short_vector_table(2 * b1p * b2p)
            keep = (_part_mask(b1p, b2p, ~a.any(axis=1), nrm)
                    & _part_mask(b1 - b1p, b2 - b2p, (a == e_np).all(axis=1),
                                 ee - 2 * (a @ ce_np) + nrm))
            for row in a[keep].tolist():
                beta1 = from_parts(b1p, b2p, row)
                beta2 = beta - beta1
                if not (_part_ok(beta1) and _part_ok(beta2)):
                    raise RuntimeError("the box oracle's masks kept %r" % (beta1,))
                found.append((beta1, beta2))
    found.sort(key=lambda p: p[0].coords)
    return found


def parse_vector(text: str) -> LatticeVector:
    """Parse the wire format 'b1,b2,e1,...,e8' used by the CLI and JSON.
    Every coordinate must be at most 2**63 - 1 in absolute value, so that
    it fits the int64 arrays of the engine."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != RANK:
        raise ValueError("expected 10 comma-separated integers, got %d" % len(parts))
    try:
        coords = [int(p) for p in parts]
    except ValueError:
        raise ValueError("malformed lattice vector: %r" % (text,))
    for i, x in enumerate(coords, 1):
        if abs(x) >= 1 << 63:
            raise ValueError("coordinate %d exceeds the int64 limit %d in absolute value"
                             % (i, (1 << 63) - 1))
    return LatticeVector(coords)
