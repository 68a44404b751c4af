"""Vectorized large-box evaluation of the genus-1 recursion.

The per-class recursion in gw_engine is exact but slow when the box of
classes is large (tens of thousands of classes, each with tens of
thousands of decompositions).  Two observations make full boxes cheap:

1.  The value <1>_beta is constant on orbits of lattice isometries that
    fix v1.  Two families of such isometries are used here:

      * transvections along v1: for any a in the E8 block they preserve
        b2 and the square and translate the E8 part by b2 * a;
      * isometries of the E8 block (generated by its simple-root
        reflections), extended by the identity on the hyperbolic part.

    Hence (b2, square, orbit of the E8 part) is a sound cache key, the
    orbit taken under the affine Weyl group W x| b2*Q generated by both
    families: classes sharing it share their value.  The induction
    proving this runs over (b2, square) in lexicographic order, which
    strictly decreases for every part in the recursion.

    The orbit is named by its alcove canonical form.  The closed
    fundamental alcove scaled by m is a strict fundamental domain for
    W x| m*Q (Humphreys, Reflection Groups and Coxeter Groups, 4.3 and
    4.8), so every orbit meets it in exactly one lattice point, found by
    reflecting in violated walls until none is left.  In the orthonormal
    model of E8 (Bourbaki, Lie Groups VI, Plate VII, whose node
    numbering CARTAN_E8 uses) the walls of the W(D7) subgroup amount to
    sorting absolute values, so a batch of rows is reduced with a few
    vectorized rounds.  That point, as 64 bytes, is the orbit's name in
    every key.  orbit_ids reduces each residue row mod m once and keeps
    its name in one memo for all moduli; the rows of a batch new to it,
    of one modulus or one a row, are reduced together, and one class is
    keyed as a batch of one row.  The memo is cleared past one entry
    bound for all moduli together (see orbit_ids); that changes no name.
    A box of classes (box_slices) names its E8 parts once per W(E8)-orbit:
    parts of norm <= N sharing a name mod m, m^2 > 2N, share a W-orbit,
    so each b2 names one part of each.

2.  The decomposition sum itself is, cell by cell in (b1', b2'), a scan
    over the lattice points e1 of the ball of norm r1 = 2 b1' b2' around
    0, keeping those with <e - e1, e - e1> <= r2 = 2 (b1 - b1') (b2 - b2').
    Grouping each cell's candidates by the keys of their parts leaves
    only a handful of products per cell, of integers: an evaluation sums
    one numerator per denominator of its parts' values and forms one
    exact Fraction at the end.  Its cells are scanned first, and all their
    part rows are named in one orbit_ids call, read back by offset.  Each cell
    forms, over the rows it reads, the distances
    <e - a, e - a> = <e,e> + <a,a> - 2 a.Ce to the class E8 part e, from
    the rows' norms and the 8-vector Ce.

    The stabilizer of e in W(E8) maps a cell's candidates to candidates
    with the same part squares and orbit names, so the scan
    reads one ball row per orbit of a subgroup of it, counted with the
    orbit's size.  The simple reflections s_j with (C e)_j = 0 fix e, so
    their parabolic subgroup W_J does; the evaluation first conjugates e
    to be dominant, C e >= 0, which keeps its key and makes W_J the whole
    stabilizer (Humphreys 1.12).  The ball rows read are the cone
    lattice.orbit_representatives(r1, J), enumerated directly and
    weighted |W_J| / |W_K|.  J is empty only for a dominant centre of
    norm >= |rho|^2 = 620, whose cone is the whole ball at weight 1.

    The summand <1>_beta1 <1>_beta2 <beta1, beta2> is symmetric, and the
    cell (b1 - b1', b2 - b2') holds the candidates of (b1', b2') with the
    parts, so r1 and r2, swapped: FiberSweepEngine.cells reads one cell
    of each mirror pair, the one with the smaller ball.  A cell with
    b1' b2' = 0 has a radius-zero ball, keyed without a scan: its
    complement keeps the E8 part, and takes the class's name if b2' = 0;
    the other complements are named together in one orbit_ids call.

The parts of a class are evaluated before it, depth first, on an
explicit stack of generators (FiberSweepEngine._value), so no chain of
parts meets the interpreter's recursion limit.  Only the class asked is
checked, once, where it misses the cache: it is refused if it has more
than _MAX_CELLS cells b1*b2, or if the largest ball its cells scan,
counted by lattice.theta_shells, is past the ball cap.  No part has more
cells or a larger ball than its class, so that check covers every
evaluation on the stack, and nothing is scanned before it.

The one production engine is ENGINE, defined here beside its class and
re-exported by gw_engine: every entry point (invariant records, tables,
box rows, the self-check and scripts) evaluates <1> on it.

The module also contains the decomposition agreement sweep of the
acceptance checks, which holds the engine's own cell scan against brute
force.  Per cell shape (r1, r2) and per W(E8)-orbit of the box's E8
parts, the brute-force side walks the whole of the smaller ball in
int64, every row at weight 1, and the other side is _scan_cell, the
orbit-weighted scan, on the cell with that ball; their part squares must
agree with their weights.  Cells whose
complement is a multiple of v1 reduce to scalar predicates and are
counted analytically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .lattice import (
    _CARTAN_NP,
    dominant,
    e8_norm,
    orbit_representatives,
    short_vector_table,
    theta_shells,
)
from .qseries import sigma_pow

# twice the simple roots alpha1..alpha8 in orthonormal coordinates
# (Bourbaki, Plate VII); E8 coordinates e map to doubled orthonormal
# coordinates e @ _ROOTS2, which are integers
_ROOTS2 = np.array([
    [1, -1, -1, -1, -1, -1, -1, 1],
    [2, 2, 0, 0, 0, 0, 0, 0],
    [-2, 2, 0, 0, 0, 0, 0, 0],
    [0, -2, 2, 0, 0, 0, 0, 0],
    [0, 0, -2, 2, 0, 0, 0, 0],
    [0, 0, 0, -2, 2, 0, 0, 0],
    [0, 0, 0, 0, -2, 2, 0, 0],
    [0, 0, 0, 0, 0, -2, 2, 0],
], dtype=np.int64)
_ALPHA1 = _ROOTS2[0]

# most recursion cells b1 * b2 of a class the engine evaluates.  The ball
# cap already bounds the classes with b1, b2 >= 2 (at most 75 cells, 3,25);
# this bounds the chains, b1 = 1 or b2 = 1, whose cells are all radius-zero
# and whose work grows faster than b1 b2: 1,495 answers in about 0.6 s,
# 1,1000 took 2.4 s
_MAX_CELLS = 495

# values FiberSweepEngine.values holds at most when a class asked misses
# it; at this many it is cleared first.  About 3.5 MB at the 210 bytes an
# entry measured on deep classes, plus what one class adds (990 values for
# 1,495, the most measured).  The largest table within the CLI's caps
# stores 215 values and a full selfcheck 65
_MAX_VALUES = 1 << 14

# a canonical point as 64 bytes; a modulus and a residue row as 72 bytes
_ROW_BYTES = np.dtype((np.void, 64))
_KEY_BYTES = np.dtype((np.void, 72))
# (modulus, residue row) bytes -> canonical point bytes, for every modulus
_ORBITS = {}
# entries the memo may hold, over all moduli, before it is cleared: at
# most about 15 MB, 242 bytes an entry if no two share an orbit
_ORBIT_MEMO_ENTRIES = 1 << 16


@lru_cache(maxsize=1024)
def isotropic_genus1(n: int) -> Fraction:
    """<1> on n times a positive primitive isotropic class.  Values of
    the 1024 most recently used n are cached."""
    if n <= 0:
        raise ValueError("multiple of an isotropic class must be positive")
    value = 2 * sigma_pow(-1, n)
    if n % 2 == 0:
        value -= sigma_pow(-1, n // 2)
    return value


def alcove_points(e_arr, m):
    """Canonical points of the orbits of W x| m*Q through the rows of
    e_arr (E8 coordinates), in doubled orthonormal coordinates: the one
    point of each orbit in the closed fundamental alcove scaled by m,
    i.e. dominant with <x, theta> <= m for the highest root
    theta = e7 + e8.  m is one modulus, or one modulus per row."""
    m = np.broadcast_to(m, len(e_arr))[:, None]
    y = (np.mod(np.asarray(e_arr, dtype=np.int64) + m // 2, m) - m // 2) @ _ROOTS2
    out = np.empty_like(y)
    rows = np.arange(len(y))
    while len(rows):
        # W(D7) on coordinates 1..7: sorted absolute values, with the
        # sign parity (even sign changes only) carried by coordinate 1
        odd = (y[:, :7] < 0).sum(axis=1) % 2 == 1
        head = np.sort(np.abs(y[:, :7]), axis=1)
        head[odd, 0] *= -1
        y[:, :7] = head
        # simple reflection in alpha1 where <x, alpha1> = p/4 < 0
        p = y @ _ALPHA1
        neg = p < 0
        y[neg] -= (p[neg] // 4)[:, None] * _ALPHA1
        # affine reflection x -> x - (<x, theta> - m) theta
        over = (y[:, 6] + y[:, 7]) // 2 - m[rows, 0]
        far = over > 0
        y[far, 6:] -= 2 * over[far, None]
        done = ~(neg | far)
        out[rows[done]] = y[done]
        rows = rows[~done]
        y = y[~done]
    return out


def orbit_ids(m, e_arr):
    """Names of the orbits of the E8 coordinate rows of e_arr under
    W x| m*Q (m one modulus, or one per row), i.e. of their residues mod
    m under the reflection group: a list of one 64-byte string per row,
    the int64 bytes of the orbit's canonical point (alcove_points).  The
    memo _ORBITS holds the name of every (modulus, residue row) keyed
    before; the rows new to it are reduced in one alcove_points call, and
    the residues of one orbit among them share one name object.  The memo
    grows by one entry per distinct (modulus, residue row) keyed; when
    adding a call's new rows would take it past _ORBIT_MEMO_ENTRIES
    (65,536) entries for all moduli together, it is cleared first and
    the call's rows are reduced afresh.  A name is the canonical point,
    so clearing changes none."""
    e = np.asarray(e_arr, dtype=np.int64).reshape(-1, 8)
    res = np.empty((len(e), 9), dtype=np.int64)
    res[:, 0] = m
    np.mod(e, res[:, :1], out=res[:, 1:])
    rows = res.view(_KEY_BYTES).ravel().tolist()
    new = dict.fromkeys([r for r in rows if r not in _ORBITS])
    if new and len(_ORBITS) + len(new) > _ORBIT_MEMO_ENTRIES:
        _ORBITS.clear()
        new = dict.fromkeys(rows)
    if new:
        keyed = np.frombuffer(b"".join(new), dtype=np.int64).reshape(-1, 9)
        points = alcove_points(keyed[:, 1:], keyed[:, 0]).view(_ROW_BYTES).ravel().tolist()
        canon = {}  # one name object per orbit met in this call, not per residue
        _ORBITS.update(zip(new, [canon.setdefault(p, p) for p in points]))
    return list(map(_ORBITS.__getitem__, rows))


class FiberSweepEngine:
    """Genus-1 surface invariants over large class boxes.

    An evaluation reads one recursion cell of each mirror pair, the one
    with the smaller ball (see cells), answers radius-zero cells without
    a scan, and in every other cell reads one ball row per orbit of the
    stabilizer of the dominant conjugate of the class E8 part, counted
    with the orbit's size (see _scan_cell).  Evaluations run on an
    explicit stack, after one check of the cell and ball caps where the
    class asked misses the cache (see _value).  The acceptance checks hold
    that scan against a brute-force walk of the smaller ball
    (decomposition_agreement) and the values against the heterotic
    closed form.  ENGINE, below, is the process-wide instance.

    Only the values <1> are stored, by key (b2, square, orbit name), see
    key_for; an evaluation names its parts in at most two orbit_ids
    calls.  The genus-2 invariants need nothing else
    (gw_engine.value_rule).  `values` is cleared where a class asked
    misses it holding _MAX_VALUES (16,384) values, before that class's
    stack starts, so no evaluation loses a part it has read.
    Methods taking a `key` expect exactly that key of the class they are
    given.
    """

    def __init__(self, scan="optimized"):
        # the engine has one scan, still named by perfbench/probes.py
        if scan != "optimized":
            raise ValueError("scan must be 'optimized', the engine's one scan")
        self.values = {}
        self.evals = 0

    @staticmethod
    def key_for(b2, s, e):
        """Cache key of a class with b2 >= 1, square s and E8 part e."""
        return (b2, s, orbit_ids(b2, e)[0])

    def class_value(self, b1, b2, e, key=None):
        """<1> for the class with coordinates (b1, b2, e1..e8)."""
        if key is not None:
            return self._value(key, b1, e)
        b1 = int(b1)
        b2 = int(b2)
        e = tuple(int(x) for x in e)
        ne = e8_norm(e)
        if b2 == 0:
            if b1 > 0 and ne == 0:
                return isotropic_genus1(b1)
            return Fraction(0)
        if b2 < 0:
            return Fraction(0)
        s = 2 * b1 * b2 - ne
        if s < 0:
            return Fraction(0)
        return self._value(self.key_for(b2, s, e), b1, e)

    def _value(self, key, b1, e):
        """<1> of the class (b1, b2, e) with key (b2, s, name).  A miss is
        checked against the caps once, then evaluated on an explicit stack
        of _eval generators: each yields the (key, b1, e) of a part it
        needs that is missing from `values`, and the part is evaluated on
        top of it, depth first, before the evaluation that needs it reads
        on.  `values` is cleared before the stack starts if it holds
        _MAX_VALUES values; a clear changes no value."""
        got = self.values.get(key)
        if got is not None:
            return got
        b2, s, _ = key
        if s:
            # every part (b1', b2') is coordinatewise <= (b1, b2), and
            # largest_ball is monotone in both: the caps checked here hold
            # for every evaluation on the stack, before its first scan
            if b1 * b2 > _MAX_CELLS:
                raise ValueError("a class with b1*b2 = %d > %d recursion cells is refused"
                                 % (b1 * b2, _MAX_CELLS))
            theta_shells(self.largest_ball(b1, b2))
        if len(self.values) >= _MAX_VALUES:
            self.values.clear()
        stack = [self._eval(key, b1, e)]
        while stack:
            try:
                part = stack[-1].send(got)
            except StopIteration as done:
                stack.pop()
                got = done.value
                continue
            stack.append(self._eval(*part))
            got = None
        return got

    @staticmethod
    def cells(b1, b2):
        """The cells (b1', b2', weight) a class (b1, b2, e) reads, with
        0 <= b2' < b2, 0 <= b1' <= b1 and (0, 0) left out: of each mirror
        pair (b1', b2'), (b1 - b1', b2 - b2') the cell with the smaller
        (b1' b2', b2', b1'), at weight 2, or 1 if it is its own mirror.
        The weight counts the ordered cells of the sum it stands for."""
        for b2p in range(b2):
            for b1p in range(0 if b2p else 1, b1 + 1):
                cell = (b1p * b2p, b2p, b1p)
                mirror = ((b1 - b1p) * (b2 - b2p), b2 - b2p, b1 - b1p)
                if cell <= mirror:
                    yield b1p, b2p, 1 if cell == mirror else 2

    def largest_ball(self, b1, b2):
        """Norm bound 2 b1' b2' of the largest ball whose cone the cells
        of a class (b1, b2, e) scan (see cells and _scan_cell); _value
        refuses a class whose ball is past the cap of theta_shells."""
        return max((2 * b1p * b2p for b1p, b2p, _ in self.cells(b1, b2)), default=0)

    def _eval(self, key, b1, e):
        """Generator of one evaluation, run by _value: it reads each part
        it needs from `values`, yields the (key, b1, e) of a part missing
        there and is sent the part's value; it stores and returns the
        class value.  The sum runs in integers, one numerator per
        denominator, and the value is one Fraction."""
        b2, s, name = key
        self.evals += 1
        if s == 0:
            value = isotropic_genus1(math.gcd(b1, b2, *(abs(x) for x in e)))
            self.values[key] = value
            return value
        values = self.values
        sums = {}  # denominator -> numerator of the sum over the cells
        # scan around the dominant W(E8)-conjugate of e (see _scan_cell);
        # it keeps the key, as orbit names are W-invariant
        e = dominant(e)
        earr = np.asarray(e, dtype=np.int64)
        # the radius-zero cells are read first, so that no scan is held
        # while their complements, the longest chains, are evaluated.  A
        # complement keeps e; the cells (0, b2') with s2 >= 0 are those
        # with b2' <= top, their complements named at names[b2' - 1]
        top = min(b2 - 1, s // (2 * b1))
        names = orbit_ids(b2 - np.arange(1, top + 1), earr[None].repeat(top, 0))
        scanned = []
        for b1p, b2p, weight in self.cells(b1, b2):
            m2 = b2 - b2p
            if b1p * b2p:
                scanned.append((b1p, b2p, weight))
                continue
            # a radius-zero ball holds only 0: the part is (b1' + b2')
            # times v1 or v2; for b2' = 0 the complement has the class's name
            pairing = b1p * m2 + b2p * (b1 - b1p)
            s2 = s - 2 * pairing
            if s2 < 0:
                continue
            k2 = (m2, s2, names[b2p - 1] if b2p else name)
            v2 = values.get(k2)
            if v2 is None:
                v2 = yield k2, b1 - b1p, e
            iso = isotropic_genus1(b1p + b2p)
            d = iso.denominator * v2.denominator
            sums[d] = sums.get(d, 0) + weight * pairing * iso.numerator * v2.numerator
        # scan every other cell, then name all their part rows, e1 of
        # modulus b2' and e2 of b2 - b2', in one orbit_ids call
        cells, rows, moduli = [], [], []
        for b1p, b2p, weight in scanned:
            got = self._scan_cell(earr, b1, b2, b1p, b2p)
            if got is not None:
                cells.append((b1p, b2p, weight) + got)
                rows += got[:2]
                moduli += [b2p, b2 - b2p]
        if rows:
            names = orbit_ids(np.repeat(moduli, [len(r) for r in rows]), np.concatenate(rows))
        at = 0
        for b1p, b2p, weight, e1, e2, s1, s2, w in cells:
            m2 = b2 - b2p
            # the cell's names at its offset in the batch, e1's then e2's
            n1, n2 = names[at:at + len(e1)], names[at + len(e1):at + 2 * len(e1)]
            at += 2 * len(e1)
            # part keys -> [first row, summed weight], in the order met
            groups = {}
            for i, part in enumerate(zip(s1.tolist(), n1, s2.tolist(), n2, w.tolist())):
                groups.setdefault(part[:4], [i, 0])[1] += part[4]
            for (sa, na, sb, nb), (fi, cnt) in groups.items():
                fac = (s - sa - sb) // 2
                if fac == 0:
                    continue
                ka = (b2p, sa, na)
                va = values.get(ka)
                if va is None:
                    va = yield ka, b1p, tuple(e1[fi].tolist())
                if not va:
                    continue
                kb = (m2, sb, nb)
                vb = values.get(kb)
                if vb is None:
                    vb = yield kb, b1 - b1p, tuple(e2[fi].tolist())
                if not vb:
                    continue
                d = va.denominator * vb.denominator
                sums[d] = sums.get(d, 0) + weight * cnt * fac * va.numerator * vb.numerator
        den = math.lcm(*sums)
        value = Fraction(8 * sum(n * (den // d) for d, n in sums.items()), s * den)
        values[key] = value
        return value

    def _scan_cell(self, earr, b1, b2, b1p, b2p):
        """Candidate E8 splittings e = e1 + e2 for one recursion cell,
        restricted to candidates with both part squares nonnegative: the
        rows e1 of the ball of norm r1 = 2 b1' b2' around 0 with
        <e - e1, e - e1> <= r2 = 2 (b1 - b1') (b2 - b2'), formed as
        <e,e> + <e1,e1> - 2 e1.Ce in place in one int64 array.  Only the
        rows of the cone lattice.orbit_representatives(r1, J), for the
        nodes J with (C e)_j = 0, whose reflections fix e, are scanned
        (the whole ball when J is empty); _eval makes e dominant, so that
        W_J is its whole stabilizer.  Returns (e1, e2, s1, s2, w) arrays,
        w the int64 number of candidates each row stands for, or None
        for an empty cell."""
        r1 = 2 * b1p * b2p
        r2 = 2 * (b1 - b1p) * (b2 - b2p)
        ce = _CARTAN_NP @ earr
        a, nrm, w = orbit_representatives(r1, tuple(np.flatnonzero(ce == 0).tolist()))
        d = a @ ce
        d *= -2
        d += nrm
        d += int(earr @ ce)
        mask = d <= r2
        if not mask.any():
            return None
        f = a[mask]
        return f, earr[None, :] - f, r1 - nrm[mask], r2 - d[mask], w[mask]


#: the process-wide engine behind every production entry point
ENGINE = FiberSweepEngine()


def box_slices(max_b1, max_b2, norm_bound):
    """The coordinate box of genus1_box_rows as (parts, slices), one
    walk that genus1_box_rows, genus1_box_groups and the table share.
    `parts` lists the E8 parts of norm <= norm_bound as tuples in
    lexicographic order.  `slices` yields the (b1, b2) slices of the box
    in lexicographic order, each as (b1, b2, cols, idx, classes): `cols`
    is the slice object picking the slice's E8 parts out of `parts`,
    `classes` holds one (e, square, key) per group of those parts, and
    `idx` gives, for each part, the index of its group in `classes`.  A
    slice with b2 = 0 is the one class b1*v1, 1 <= b1 <= max_b1, with key
    None.  A slice with b2 >= 1 holds every part, grouped by (E8 norm,
    orbit_ids(b2, e) name), which is the engine key up to b1: a group's e
    is its first part, its square 2 b1 b2 - norm and its key
    (b2, square, name), or None where the square is negative; groups are
    numbered in the order of their first parts.  A group lies in one
    orbit of W x| b2*Q, so its parts share gcd(b2, e) too
    (km_model.box_verdict_groups says why).

    The parts are sorted once, by np.lexsort, and named once per
    W(E8)-orbit.  A label
    (norm, orbit_ids(m, e)) with m*m > 2 norm_bound is one W-orbit: two
    parts of one W x| m*Q orbit differ, after some w in W, by a vector of
    m*Q of norm <= 4 norm_bound < 2 m^2, the least nonzero norm in m*Q,
    so by 0.  W lies in every W x| b2*Q, so a label lies in one group of
    each b2: each b2 names one head part per label in one orbit_ids call,
    and its idx is a gather of the labels' group indices."""
    a, norms = short_vector_table(norm_bound)
    order = np.lexsort(a.T[::-1])
    a = a[order]
    parts = [tuple(row) for row in a.tolist()]
    norms = norms[order].tolist()
    m = math.isqrt(2 * norm_bound) + 1
    assert m * m > 2 * norm_bound
    labels = {}  # (norm, name mod m) -> (label index, index of its first part)
    label = np.array([labels.setdefault(g, (len(labels), i))[0]
                      for i, g in enumerate(zip(norms, orbit_ids(m, a)))])
    heads = [i for _, i in labels.values()]  # each label's first part
    groups = {}  # b2 -> (idx, [(first part, norm, name)] per group)
    for b2 in range(1, max_b2 + 1):
        first = {}  # (norm, name) -> (group index, index of its first part)
        of_label = [first.setdefault((norms[i], name), (len(first), i))[0]
                    for i, name in zip(heads, orbit_ids(b2, a[heads]))]
        groups[b2] = (np.array(of_label)[label].tolist(),
                      [(parts[i], ne, name) for (ne, name), (_, i) in first.items()])
    k = parts.index((0,) * 8)
    zero, every = slice(k, k + 1), slice(None)

    def slices():
        for b1 in range(0, max_b1 + 1):
            if b1:
                yield b1, 0, zero, [0], [(parts[k], 0, None)]
            for b2 in range(1, max_b2 + 1):
                idx, heads = groups[b2]
                classes = []
                for e, ne, name in heads:
                    s = 2 * b1 * b2 - ne
                    classes.append((e, s, (b2, s, name) if s >= 0 else None))
                yield b1, b2, every, idx, classes

    return parts, slices()


def box_class_count(max_b1, max_b2, norm_bound):
    """The number of classes of genus1_box_rows, without building a ball."""
    n_parts = sum(theta_shells(norm_bound))
    return max_b1 + (max_b1 + 1) * max_b2 * n_parts


def genus1_box_groups(max_b1, max_b2, norm_bound, engine=ENGINE):
    """The coordinate box of genus1_box_rows per (b1, b2) slice of
    box_slices, in its lexicographic order: (b1, b2, sliced, idx, groups)
    with `sliced` the slice's E8 parts as tuples, `groups` one
    (e, square, key, <1>) per group of the slice, e its first part, and
    `idx` each part's group index.  <1> is 0 where the square is
    negative; otherwise it is evaluated on `engine` (the process-wide
    ENGINE by default) once per group, at e, and holds for every part of
    it."""
    parts, slices = box_slices(max_b1, max_b2, norm_bound)
    for b1, b2, cols, idx, classes in slices:
        yield b1, b2, parts[cols], idx, [
            (e, s, key, Fraction(0) if s < 0 else engine.class_value(b1, b2, e, key))
            for e, s, key in classes]


def genus1_box_rows(max_b1, max_b2, norm_bound, engine=ENGINE):
    """(coords, square, key, <1>) for every class of the coordinate box,
    the rows of genus1_box_groups in its lexicographic order: n*v1 for
    1 <= n <= max_b1, and (b1, b2, e) with 0 <= b1 <= max_b1,
    1 <= b2 <= max_b2, e a short vector of norm <= norm_bound.  `key` is
    the engine key of the class, or None when b2 = 0 or the square is
    negative; square, key and <1> are those of the class's group."""
    for b1, b2, sliced, idx, groups in genus1_box_groups(max_b1, max_b2, norm_bound, engine):
        for e, j in zip(sliced, idx):
            yield ((b1, b2) + e,) + groups[j][1:]


# -- brute-force vs engine-scan decomposition agreement -----------------


def _add_histogram(hist, s1, s2, w):
    """Add the (s1, s2) -> summed w histogram of one scan's rows to the
    dict `hist`, keyed by s1 * 2**32 + s2: the keys are sorted once and
    each run of equal keys summed with np.add.reduceat, exactly in int64.
    Empty rows add nothing."""
    keys = s1 * (1 << 32) + s2
    if not len(keys):
        return
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(np.asarray(w, dtype=np.int64)[order], starts)
    for k, v in zip(keys[starts].tolist(), sums.tolist()):
        hist[k] = hist.get(k, 0) + v


def _brute_force_histogram(r, r_far, targets, t_norms, weights):
    """(hist, survivors) of a cell shape read off its smaller ball, of norm
    r <= r_far: the g of the whole r ball with <t - g, t - g> <= r_far,
    each row at weight 1, at the target rows t counted by the int64 array
    `weights`; hist is the _add_histogram of
    (r - <g, g>, r_far - <t - g, t - g>) and survivors their number."""
    a, nrm = short_vector_table(r)
    # d[g, t] = <t - g, t - g>
    d = nrm[:, None] + t_norms - 2 * (a @ (_CARTAN_NP @ targets.T))
    g, t = np.nonzero(d <= r_far)
    w = weights[t]
    hist = {}
    _add_histogram(hist, r - nrm[g], r_far - d[g, t], w)
    return hist, int(w.sum())


def decomposition_agreement(max_b1=4, max_b2=4, norm_bound=4):
    """Compare brute-force decomposition enumeration with the engine's own
    cell scan for every positive class in the box, recursion cell by
    recursion cell.

    Cells with both parts of positive v1-degree pairing reduce to ball
    scans depending only on (r1, r2) and the class E8 part t, and their
    survivors are W(E8)-invariant in t: each shape is scanned at one
    dominant t per orbit of the box's E8 parts, weighted by the orbit's
    size.  Both sides read a shape off its smaller ball, as _eval does:
    for r1 > r2, f -> t - f maps the f of the r1 ball with
    <t - f, t - f> <= r2 onto the candidates of the mirror shape (r2, r1),
    with the part squares swapped, so a shape with r1 > r2 takes the
    survivors and the verdict of its mirror, and no ball past norm
    min(r1, r2) is built.  Brute force walks the whole smaller ball
    (_brute_force_histogram); ENGINE._scan_cell scans one cell of the
    shape (radius-zero ones too, which _eval keys without a scan).  The
    largest of these balls, the cone of the targets and each target's
    own cone (those _scan_cell reads) are built first, each once at the
    largest bound read, so every shape reads prefixes of these builds.
    A shape agrees when both give each part-square pair the same weight,
    each side's histogram summed exactly in int64 (_add_histogram).
    Cells with an n*v1 part admit at most one candidate, kept when the
    complement square is nonnegative; these are counted analytically.
    Returns a report dict.
    """
    cell_shapes = {}
    for b1 in range(0, max_b1 + 1):
        for b2 in range(1, max_b2 + 1):
            for b1p in range(0, b1 + 1):
                for b2p in range(1, b2):
                    r1 = 2 * b1p * b2p
                    r2 = 2 * (b1 - b1p) * (b2 - b2p)
                    cell_shapes.setdefault((r1, r2), []).append((b1, b2, b1p, b2p))
    # the largest ball read, the targets' cone and each target's own cone,
    # each built once at the largest bound read: every later scan reads a
    # prefix
    top = max((min(shape) for shape in cell_shapes), default=0)
    short_vector_table(top)
    orbit_representatives(max(top, norm_bound), tuple(range(8)))
    reps, rep_norms, t_weights = orbit_representatives(norm_bound, tuple(range(8)))
    for t in reps:
        orbit_representatives(top, tuple(np.flatnonzero(_CARTAN_NP @ t == 0).tolist()))
    mismatches = []
    total_pairs = 0
    per_shape = {}
    mirrored = {}  # (r1, r2) with r1 <= r2 -> (survivors, agree)
    for (r1, r2), cells in sorted(cell_shapes.items()):
        if r1 > r2:
            # read off the same ball and cell as (r2, r1), sorted before it
            n_surv, agree = mirrored[r2, r1]
        else:
            brute, n_surv = _brute_force_histogram(r1, r2, reps, rep_norms, t_weights)
            b1, b2, b1p, b2p = cells[0]
            scanned = {}
            for j, weight in enumerate(t_weights):
                got = ENGINE._scan_cell(reps[j], b1, b2, b1p, b2p)
                if got is not None:
                    _add_histogram(scanned, got[2], got[3], weight * got[4])
            agree = brute == scanned
            mirrored[r1, r2] = n_surv, agree
        if not agree:
            mismatches.append({"shape": (r1, r2), "cells": cells})
        total_pairs += n_surv * len(cells)
        per_shape[(r1, r2)] = {
            "cells": len(cells),
            "survivors": n_surv,
            "agree": bool(agree),
        }
    # edge cells: part n*v1 on either side, complement (b1-n, b2, e);
    # the pair survives exactly when the complement square s - 2*n*b2
    # is nonnegative (ordered pairs: factor 2), counted per dominant e
    # with its orbit's size
    edge_pairs = 0
    for b1 in range(0, max_b1 + 1):
        for b2 in range(1, max_b2 + 1):
            s_arr = 2 * b1 * b2 - rep_norms
            for n in range(1, b1 + 1):
                edge_pairs += 2 * int(t_weights[s_arr - 2 * n * b2 >= 0].sum())
    total_pairs += edge_pairs
    for n in range(2, max_b1 + 1):
        total_pairs += n - 1
    return {
        "box": {"max_b1": max_b1, "max_b2": max_b2, "norm_bound": norm_bound},
        "classes": box_class_count(max_b1, max_b2, norm_bound),
        "cell_shapes": len(cell_shapes),
        "all_agree": not mismatches,
        "mismatches": mismatches,
        "ordered_pairs_including_multiplicity": total_pairs,
        "per_shape": {str(k): v for k, v in per_shape.items()},
    }
