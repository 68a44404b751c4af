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

E8 balls are prefixes of one short-vector table of coordinates and
norms, kept at the largest norm bound asked.  A ball whose exact size,
by the E8 theta series (Conway-Sloane, SPLAG, Ch. 4 section 8.1), passes
the cap is refused.
"""

from __future__ import annotations

import math
from fractions import Fraction

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
        coords = tuple(int(c) for c in coords)
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
    lattice read 2*b1*b2 - e8_norm(e8 part).
    """
    e = tuple(e)
    total = 0
    for i in range(8):
        if e[i]:
            total += 2 * e[i] * e[i]
    for a, b in _E8_EDGES:
        total -= 2 * e[a - 1] * e[b - 1]
    return total


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

def _ldl_e8():
    """Exact LDL data for the Cartan form: Q(x) = sum_i d[i]*(x[i] + sum_{j>i} mu[i][j]x[j])^2."""
    n = 8
    a = [[Fraction(CARTAN_E8[i][j]) for j in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    mu = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        d[i] = a[i][i]
        for j in range(i + 1, n):
            mu[i][j] = a[i][j] / a[i][i]
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / a[i][i]
                a[k][j] = a[j][k]
    return d, mu


_LDL_D, _LDL_MU = _ldl_e8()
_CARTAN_NP = np.array(CARTAN_E8, dtype=np.int64)
_KEY_WEIGHTS = 1 << 7 * np.arange(7, -1, -1, dtype=np.int64)


def _short_vector_array(bound: int) -> np.ndarray:
    """All integer x in the E8 coordinate lattice with Cartan norm <= bound.

    Returns an uncached (N, 8) int64 array.  Enumeration is layer-by-layer
    branch and bound on the exact LDL factorization, run with float64
    interval bounds padded by a small slack; an exact integer filter at
    the end removes any overshoot, so no inexact value is ever emitted.

    Rows are in norm-major order, lexicographic within a norm shell, so
    the array for a smaller bound is a prefix of the one for a larger.
    The order comes from one argsort of single int64 keys (see
    _norm_major_keys), exact for norms below 128 and coordinates below
    64 in absolute value; ValueError is raised before sorting otherwise.
    Every ball the table admits (norm <= 32) is well inside both.
    """
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    if bound < 2:
        return np.zeros((1, 8), dtype=np.int64)

    x = _fincke_pohst(bound)
    norms = np.einsum("ij,jk,ik->i", x, _CARTAN_NP, x)
    keep = norms <= bound
    x, norms = x[keep], norms[keep]
    return x[np.argsort(_norm_major_keys(x, norms))]


def _fincke_pohst(bound: int) -> np.ndarray:
    """Unordered candidate rows for _short_vector_array(bound), a superset
    of the ball; the per-row temporaries die on return."""
    d = np.array([float(x) for x in _LDL_D])
    mu = np.array([[float(x) for x in row] for row in _LDL_MU])
    slack = 1e-7

    # suffix holds coordinates (x_{i+1}, .., x_7); part holds the accumulated
    # quadratic value of the already-fixed layers
    suffix = np.zeros((1, 0), dtype=np.int64)
    part = np.zeros(1)
    for i in range(7, -1, -1):
        t = suffix @ mu[i, i + 1:] if suffix.shape[1] else np.zeros(len(part))
        radius = np.sqrt(np.maximum(bound - part, 0.0) / d[i]) + slack
        lo = np.ceil(-t - radius).astype(np.int64)
        hi = np.floor(-t + radius).astype(np.int64)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        rows = np.repeat(np.arange(len(part)), counts)
        # first new coordinate value per row, then a running offset
        starts = np.repeat(lo, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        xi = starts + offsets
        part = part[rows] + d[i] * (xi + (t[rows] if len(t) else 0.0)) ** 2
        # one new column-major layer, the old coordinates gathered one
        # contiguous column at a time: no full-size gathered copy
        layer = np.empty((total, 8 - i), dtype=np.int64, order="F")
        layer[:, 0] = xi
        for j in range(7 - i):
            layer[:, j + 1] = suffix[rows, j]
        suffix = layer
    return suffix


def _norm_major_keys(x, norms):
    """int64 keys norm << 56 | sum_j (x_j + 64) << 7 (7 - j) of the rows
    of x (norms nonnegative), ordered as (norm, x_0, .., x_7) is.
    Raises ValueError unless every norm and every x_j + 64 fits its
    7-bit field: norm < 128 and |x_j| < 64."""
    if len(x) and (int(norms.max()) >= 128 or int(x.max()) >= 64 or int(x.min()) <= -64):
        raise ValueError("norms or coordinates leave the 7-bit fields of the sort key")
    # (x + 64) @ _KEY_WEIGHTS, without a shifted copy of x
    return (norms << 56) | (x @ _KEY_WEIGHTS + 64 * int(_KEY_WEIGHTS.sum()))


#: the most vectors an E8 ball may hold: the count at norm 32
MAX_BALL_VECTORS = 4845121


# the one short-vector table: (bound, coordinates, norms)
_TABLE = [None]


def short_vector_table(bound: int):
    """(A, NRM) for the E8 coordinate vectors of Cartan norm <= bound:
    int64 coordinates and norms, read-only, in the norm-major order of
    _short_vector_array.  Readers needing the pairings A C e form the
    8-vector C e themselves.  Only the table at the largest bound asked
    so far is kept; a smaller bound reads a prefix.

    Raises ValueError, before building, if the ball holds more than
    MAX_BALL_VECTORS vectors, counted as 1 + 240 sum_{k <= bound/2}
    sigma_3(k) up to the first partial sum past the cap."""
    tab = _TABLE[0]
    if tab is None or tab[0] < bound:
        count = 1
        for k in range(1, bound // 2 + 1):
            count += 240 * sigma_pow(3, k)
            if count > MAX_BALL_VECTORS:
                raise ValueError("the E8 ball of norm <= %d holds more than %d vectors"
                                 % (bound, MAX_BALL_VECTORS))
        # the smaller table is let go first, so the two are never held
        # together (views callers keep stay valid)
        tab = _TABLE[0] = None
        a = _short_vector_array(bound)
        tab = (bound, a, np.einsum("ij,ij->i", a, a @ _CARTAN_NP))
        for arr in tab[1:]:
            arr.setflags(write=False)
        _TABLE[0] = tab
    n = int(np.searchsorted(tab[2], bound, side="right"))
    return tab[1][:n], tab[2][:n]


# ---------------------------------------------------------------------------
# Decompositions beta = beta1 + beta2 into positive classes of square >= 0
# ---------------------------------------------------------------------------

def _part_ok(beta1: LatticeVector) -> bool:
    return (not beta1.is_zero()) and is_positive(beta1) and square(beta1) >= 0


def enumerate_decompositions(beta):
    """All ordered pairs (beta1, beta2) with beta1 + beta2 = beta, both
    positive, nonzero and of square >= 0, sorted lexicographically by the
    coordinates of beta1.

    Finiteness: positivity forces 0 <= b2' <= b2; for 0 < b2' < b2 the two
    square conditions force 0 <= b1' <= b1 and pin the E8 part of beta1 to
    the intersection of a ball around 0 (radius^2 = 2*b1'*b2') and a ball
    around the E8 part of beta (radius^2 = 2*(b1-b1')*(b2-b2')); the scan
    walks the smaller ball.  The b2' = 0 and b2' = b2 edges only admit
    multiples of v1 on one side.
    """
    beta = as_vector(beta)
    if not is_positive(beta):
        raise ValueError("decompositions are only defined for positive classes")
    b1, b2 = beta.b1, beta.b2
    e = beta.e8
    found = []

    def emit(beta1):
        beta2 = beta - beta1
        if _part_ok(beta1) and _part_ok(beta2):
            found.append((beta1, beta2))

    for n in range(1, b1 + 1):
        emit(n * basis_vector(1))                      # b2' = 0 side
        if b2 > 0:
            emit(beta - n * basis_vector(1))           # b2' = b2 side
    for b2p in range(1, b2):
        for b1p in range(0, b1 + 1):
            r1 = 2 * b1p * b2p
            r2 = 2 * (b1 - b1p) * (b2 - b2p)
            if r1 <= r2:
                for row in short_vector_table(r1)[0].tolist():
                    emit(from_parts(b1p, b2p, row))
            else:
                for row in short_vector_table(r2)[0].tolist():
                    # shifted ball: e' with e8_norm(e - e') <= r2
                    emit(from_parts(b1p, b2p, tuple(a - c for a, c in zip(e, row))))
    found.sort(key=lambda p: p[0].coords)
    return found


def decompositions_box_oracle(beta):
    """Brute-force reference for enumerate_decompositions.

    Scans the whole box 0 <= b2' <= b2, 0 <= b1' <= b1 with the E8 part of
    beta1 drawn from short_vector_table(2*b1'*b2'), and filters each candidate
    with the public predicates.  Slow on purpose; used for agreement tests.
    """
    beta = as_vector(beta)
    if not is_positive(beta):
        raise ValueError("decompositions are only defined for positive classes")
    found = []
    for b2p in range(0, beta.b2 + 1):
        for b1p in range(0, beta.b1 + 1):
            for row in short_vector_table(2 * b1p * b2p)[0].tolist():
                beta1 = from_parts(b1p, b2p, row)
                beta2 = beta - beta1
                if _part_ok(beta1) and _part_ok(beta2):
                    found.append((beta1, beta2))
    found.sort(key=lambda p: p[0].coords)
    return found


def parse_vector(text: str) -> LatticeVector:
    """Parse the wire format 'b1,b2,e1,...,e8' used by the CLI and JSON."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != RANK:
        raise ValueError("expected 10 comma-separated integers, got %d" % len(parts))
    try:
        return LatticeVector(int(p) for p in parts)
    except ValueError:
        raise ValueError("malformed lattice vector: %r" % (text,))
