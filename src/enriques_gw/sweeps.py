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
    of one modulus or one a row, are reduced together, and the classes
    of one evaluate call are keyed as one batch.  The memo is cleared
    past one entry bound for all moduli together (see orbit_ids); that
    changes no name.
    A box of classes (box_slices) groups its E8 parts by W(E8)-orbit,
    which lies in one orbit of every W x| b2*Q; evaluate keys the groups.

2.  The decomposition sum itself is, cell by cell in (b1', b2'), a scan
    over the lattice points e1 of the ball of norm r1 = 2 b1' b2' around
    0, keeping those with <e - e1, e - e1> <= r2 = 2 (b1 - b1') (b2 - b2').
    Grouping each cell's candidates by the keys of their parts leaves
    only a handful of products per cell, of integers: an evaluation sums
    one numerator per denominator of its parts' values and forms one
    exact Fraction at the end.  Each cell forms, over the rows it reads,
    the distances
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
    b1' b2' = 0 has a radius-zero ball, keyed without a scan
    (_zero_cells): its complement keeps the E8 part, and takes the class's
    name if b2' = 0.

FiberSweepEngine.evaluate is the one way into the engine.  It takes any
number of plain classes (b1, b2, e), answers those the recursion never
reaches (b2 <= 0, or a negative square) itself, keys the others, and
runs one level-wise schedule for their keys, in two phases and with no
nested calls, so no chain of parts meets the interpreter's recursion
limit.  Discovery runs level by level from the classes asked: each
class's E8 part is made dominant, each cone J the level reads is built
once at the largest ball the level asks of it, the cells are scanned,
and their part rows, with the radius-zero complements new to the
schedule, are named in orbit_ids calls of at most _BATCH_ROWS rows; the
parts that neither the cache nor the schedule holds form the next level.
A class waits as a compact plan, int64 rows (coefficient, part, part)
over interned part keys; its radius-zero terms, the long chains, are
regenerated when it is summed, not stored.  Then every key is summed
once, in ascending (b2, square): each part lies strictly below its class
in that order, as a part has a smaller b2, or the same b2 and a smaller
square, so its value is known when its class is summed.  Only the
classes asked are checked, before anything is scanned: one is refused
if it has more than _MAX_CELLS cells b1*b2, or if the largest ball its
cells scan, counted by lattice.theta_shells, is past the ball cap.  No
part has more cells or a larger ball than its class, so that check
covers every evaluation of the schedule.  A table or box passes every
group of every slice, at its first part, to one evaluate call.

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
    _CARTAN_INV,
    _CARTAN_NP,
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
# a modulus past every affine wall of the rows dominant_rows is given
_FAR = 1 << 40

# most recursion cells b1 * b2 of a class the engine evaluates.  The ball
# cap already bounds the classes with b1, b2 >= 2 (at most 75 cells, 3,25);
# this bounds the chains, b1 = 1 or b2 = 1, whose cells are all radius-zero
# and whose work grows faster than b1 b2: 1,495 answers in about 0.6 s,
# 1,1000 took 2.4 s
_MAX_CELLS = 495

# values FiberSweepEngine.values holds at most when the classes asked miss
# it; at this many it is cleared first.  About 3.5 MB at the 210 bytes an
# entry measured on deep classes, plus what one schedule adds (990 values
# for 1,495, the most measured).  The largest table within the CLI's caps
# stores 215 values and a full selfcheck 65
_MAX_VALUES = 1 << 14

# part rows, radius-zero complements included, that discovery names in one
# orbit_ids call: a batch of classes holds at most this many, or one class
# whose rows are named in calls of this many.  A row named costs about 650
# traced bytes while the call runs.  The table-g1-deep benchmark names in
# 54 calls at this bound; at 1024 and 2048 it made 31 and 18 calls, no
# faster, but its peak RSS rose 0.25 and 0.6 MB past the depth-first
# engine's, which named one evaluation at a time
_BATCH_ROWS = 1 << 9

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


def dominant_rows(e_arr):
    """The dominant W(E8)-conjugates, C e >= 0, of the E8 coordinate rows
    of e_arr, as int64 rows: alcove_points at a modulus _FAR, where no
    affine wall binds, taken back through (C e)_j = <x, alpha_j>.  Each is
    lattice.dominant of its row, the one dominant point of its orbit."""
    e = np.asarray(e_arr, dtype=np.int64).reshape(-1, 8)
    # the mod in alcove_points keeps rows with |e_i| < _FAR / 2, and the
    # affine wall <x, theta> <= 2 sum |e_i| <= _FAR never binds
    assert not len(e) or np.abs(e).max() < _FAR // 32
    return (alcove_points(e, _FAR) @ _ROOTS2.T // 4) @ _CARTAN_INV


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


def _zero_cells(b1, b2, s):
    """The cells with a radius-zero ball of a class (b1, b2, e), b1 >= 1,
    of square s > 0 whose complement has square >= 0, as (n, m, pairing):
    the part n v1, complement (b1 - n, b2, e), of the cells (n, 0), and
    the part n v2, complement (b1, b2 - n, e), of the cells (0, n).  A
    part is isotropic, the complement (b1', m, e) keeps e and has square
    s - 2 pairing, and each cell stands for itself and its mirror."""
    for n in range(1, min(b1, s // (2 * b2)) + 1):
        yield n, b2, n * b2
    for n in range(1, min(b2 - 1, s // (2 * b1)) + 1):
        yield n, b2 - n, n * b1


class FiberSweepEngine:
    """Genus-1 surface invariants over large class boxes.

    An evaluation reads one recursion cell of each mirror pair, the one
    with the smaller ball (see cells), answers radius-zero cells without
    a scan (_zero_cells), and in every other cell reads one ball row per
    orbit of the stabilizer of the dominant conjugate of the class E8
    part, counted with the orbit's size (see _scan_cell).  Evaluations run
    on one schedule per call of evaluate, which takes any number of
    classes: discovered level by level (_discover), each cell of each
    class scanned once, then summed in ascending (b2, square) (_eval),
    after one check of the cell and ball caps on the classes asked that
    miss the cache.  The acceptance checks hold that scan against a
    brute-force walk of the smaller ball (decomposition_agreement) and the
    values against the heterotic closed form.  ENGINE, below, is the
    process-wide instance.

    Only the values <1> are stored, by key (b2, square, orbit name), which
    evaluate forms itself.  The genus-2 invariants need nothing else
    (gw_engine.value_rule).  `values` is cleared where the classes asked
    miss it holding _MAX_VALUES (16,384) values, before their schedule
    starts, so no evaluation loses a part it has read.
    """

    def __init__(self, scan="optimized"):
        # the engine has one scan, still named by perfbench/probes.py
        if scan != "optimized":
            raise ValueError("scan must be 'optimized', the engine's one scan")
        self.values = {}
        self.evals = 0

    def class_value(self, b1, b2, e):
        """<1> for the class with coordinates (b1, b2, e1..e8)."""
        return self.evaluate([(int(b1), int(b2), tuple(int(x) for x in e))])[0]

    def evaluate(self, classes):
        """<1> of each class (b1, b2, e), Python ints with e an 8-tuple,
        as a list in the classes' order.  A class the recursion never
        reaches is answered here: 0 where b2 < 0 or the square
        s = 2 b1 b2 - e8_norm(e) is negative, and at b2 = 0
        isotropic_genus1(b1) for b1 v1, b1 >= 1, else 0.  Every other
        class is keyed (b2, s, name), its names found in one orbit_ids
        call with one modulus b2 per row.  The keys missing from `values`
        are checked against the caps and evaluated on one schedule
        (_schedule).  `values` is cleared first if it holds _MAX_VALUES
        values, and then every key is evaluated afresh; a clear changes
        no value."""
        out, keyed = [], []  # out: a value, or None for the next keyed class
        for b1, b2, e in classes:
            s = 2 * b1 * b2 - e8_norm(e)
            if b2 > 0 and s >= 0:
                out.append(None)
                keyed.append((b1, b2, s, e))
            # at b2 = 0, s = -e8_norm(e) is 0 only for e = 0
            elif b2 == 0 and b1 > 0 and s == 0:
                out.append(isotropic_genus1(b1))
            else:
                out.append(Fraction(0))
        names = orbit_ids([b2 for _, b2, _, _ in keyed], [e for _, _, _, e in keyed])
        roots = [((b2, s, name), b1, e) for (b1, b2, s, e), name in zip(keyed, names)]
        values = self.values
        todo = {key: (b1, e) for key, b1, e in roots if key not in values}
        if todo and len(values) >= _MAX_VALUES:
            values.clear()
            todo = {key: (b1, e) for key, b1, e in roots}
        if todo:
            # every part (b1', b2') is coordinatewise <= its class, and
            # largest_ball is monotone in both: the caps checked here hold
            # for every evaluation of the schedule, before its first scan
            asked = [(b1, b2) for (b2, s, _), (b1, _) in todo.items() if s]
            for b1, b2 in asked:
                if b1 * b2 > _MAX_CELLS:
                    raise ValueError("a class with b1*b2 = %d > %d recursion cells is refused"
                                     % (b1 * b2, _MAX_CELLS))
            theta_shells(max((self.largest_ball(b1, b2) for b1, b2 in asked), default=0))
            self._schedule(todo)
        got = (values[key] for key, _, _ in roots)
        return [next(got) if value is None else value for value in out]

    def _schedule(self, todo):
        """Evaluate the keys of `todo`, key -> (b1, e), and every part they
        need that `values` misses, in two phases.  Discovery runs level by
        level (_discover): a level's classes are scanned and their parts
        named, and the parts new to the schedule form the next level.
        Then each key is summed once (_eval), in ascending (b2, s): every
        part lies strictly below its class in that order, so its value is
        in `values` when the class's sum reads it."""
        run = {key: [b1, e, None] for key, (b1, e) in todo.items()}
        ids, names = {}, {}
        level = list(run)
        while level:
            level = self._discover(level, run, ids, names)
        keys = list(ids)
        for key in sorted(run, key=lambda k: (k[0], k[1])):
            b1, e, plan = run.pop(key)  # each plan is dropped once summed
            self._eval(key, b1, e, plan, keys, names)

    @staticmethod
    @lru_cache(maxsize=256)
    def cells(b1, b2):
        """The cells (b1', b2', weight) with a ball to scan that a class
        (b1, b2, e) reads, as a tuple: 1 <= b1' < b1 and 1 <= b2' < b2,
        and of each mirror pair (b1', b2'), (b1 - b1', b2 - b2') the cell
        with the smaller (b1' b2', b2', b1'), at weight 2, or 1 if it is
        its own mirror.  The weight counts the ordered cells of the sum it
        stands for.  The pairs left, but for (0, 0) and (b1, b2), hold a
        cell with a radius-zero ball (_zero_cells).  The 256 most recently
        used (b1, b2) are cached."""
        return tuple((b1p, b2p, 1 if cell == mirror else 2)
                     for b2p in range(1, b2) for b1p in range(1, b1)
                     for cell, mirror in [((b1p * b2p, b2p, b1p),
                                           ((b1 - b1p) * (b2 - b2p), b2 - b2p, b1 - b1p))]
                     if cell <= mirror)

    def largest_ball(self, b1, b2):
        """Norm bound 2 b1' b2' of the largest ball whose cone the cells
        of a class (b1, b2, e) scan (see cells and _scan_cell); evaluate
        refuses a class whose ball is past the cap of theta_shells."""
        return max((2 * b1p * b2p for b1p, b2p, _ in self.cells(b1, b2)), default=0)

    def _discover(self, level, run, ids, names):
        """One level of discovery for _schedule, of the keys `level` of
        `run`, key -> [b1, e, plan].  Each class of square s > 0 is given
        its dominant W(E8)-conjugate e, which keeps its key (see
        _scan_cell), and each cone J the level reads is built once, at the
        largest ball the level asks of it.  Then the classes are scanned,
        and named in batches of about _BATCH_ROWS part rows, radius-zero
        complements included (_name_batch).  Returns the parts new to the
        schedule: the next level."""
        classes, bounds = [], {}
        level = [key for key in level if key[1]]  # an isotropic class has no parts
        dom = dominant_rows([run[key][1] for key in level])
        for key, e, earr, fixed in zip(level, dom.tolist(), dom, dom @ _CARTAN_NP == 0):
            entry = run[key]
            b1, e = entry[0], tuple(e)
            entry[1] = e
            r1 = self.largest_ball(b1, key[0])
            if r1:
                J = tuple(np.flatnonzero(fixed).tolist())
                bounds[J] = max(bounds.get(J, 0), r1)
            classes.append((key, b1, e, earr))
        for J, r1 in bounds.items():
            orbit_representatives(r1, J)
        ahead, batch, wanted, size = [], [], {}, 0
        for key, b1, e, earr in classes:
            b2, s, _ = key
            scans = []
            for b1p, b2p, weight in self.cells(b1, b2):
                got = self._scan_cell(earr, b1, b2, b1p, b2p)
                if got is not None:
                    scans.append((b1p, b2p, weight) + got)
            # the moduli m of the radius-zero complements (b1, m, e) that
            # the batch does not name yet
            zero = set(range(b2 - min(b2 - 1, s // (2 * b1)), b2)).difference(wanted.get(e, ()))
            rows = len(zero) + sum(2 * len(scan[3]) for scan in scans)
            if batch and size + rows > _BATCH_ROWS:
                self._name_batch(batch, wanted, run, ids, names, ahead)
                batch, wanted, size = [], {}, 0
            wanted.setdefault(e, set()).update(zero)
            batch.append((key, b1, e, scans))
            size += rows
        if batch:
            self._name_batch(batch, wanted, run, ids, names, ahead)
        return ahead

    def _name_batch(self, batch, wanted, run, ids, names, ahead):
        """Name a batch of scanned classes for _discover, in orbit_ids
        calls of at most _BATCH_ROWS rows: the rows (m, e) of `wanted`,
        e -> moduli, missing from `names`, e -> {modulus: name}, and every
        scanned part row, e1 of modulus b2' and e2 of b2 - b2'.  Each class's plan goes to `run`
        as int64 rows (coefficient, part id, part id) over the interned
        part keys `ids`, one row per group of a cell's candidates sharing
        both part keys; the radius-zero cells get none, _eval regenerates
        them.  A part that `values` and `run` miss is added to `run` and
        to `ahead`."""
        values = self.values
        zero, rows, moduli = [], [], []
        for e, want in wanted.items():
            named = names.setdefault(e, {})
            new = sorted(want.difference(named))
            if new:
                zero.append((named, new))
                rows.append(np.tile(np.asarray(e, dtype=np.int64), (len(new), 1)))
                moduli.append(new)
        for (b2, _, _), _, _, scans in batch:
            for b1p, b2p, _, e1, e2, *_ in scans:
                rows += [e1, e2]
                moduli += [np.full(len(e1), b2p), np.full(len(e1), b2 - b2p)]
        got = []
        if rows:
            moduli, rows = np.concatenate(moduli), np.concatenate(rows)
            for lo in range(0, len(rows), _BATCH_ROWS):
                got += orbit_ids(moduli[lo:lo + _BATCH_ROWS], rows[lo:lo + _BATCH_ROWS])
        at = 0
        for named, new in zero:
            named.update(zip(new, got[at:at + len(new)]))
            at += len(new)
        for key, b1, e, scans in batch:
            b2, s, name = key
            named = names[e]
            named[b2] = name
            for n, m, pairing in _zero_cells(b1, b2, s):
                part = (m, s - 2 * pairing, named[m])
                if part not in run and part not in values:
                    run[part] = [b1 - n if m == b2 else b1, e, None]
                    ahead.append(part)
            plan = []
            for b1p, b2p, weight, e1, e2, s1, s2, w in scans:
                n = len(e1)
                n1, n2 = got[at:at + n], got[at + n:at + 2 * n]
                at += 2 * n
                # part keys -> [first row, summed weight], in the order met
                groups = {}
                for i, part in enumerate(zip(s1.tolist(), n1, s2.tolist(), n2, w.tolist())):
                    groups.setdefault(part[:4], [i, 0])[1] += part[4]
                for (sa, na, sb, nb), (fi, cnt) in groups.items():
                    fac = (s - sa - sb) // 2
                    if fac == 0:
                        continue
                    pair = []
                    for part, pb1, pe in (((b2p, sa, na), b1p, e1), ((b2 - b2p, sb, nb), b1 - b1p, e2)):
                        if part not in run and part not in values:
                            run[part] = [pb1, tuple(pe[fi].tolist()), None]
                            ahead.append(part)
                        pair.append(ids.setdefault(part, len(ids)))
                    plan.append((weight * cnt * fac, *pair))
            run[key][2] = np.array(plan, dtype=np.int64).reshape(-1, 3)

    def _eval(self, key, b1, e, plan, keys, names):
        """One evaluation, run by _schedule once every part of the key is in
        `values`: the radius-zero cells, regenerated by _zero_cells with
        their complements' names from `names`, and the plan's rows
        (coefficient, part id, part id), part ids indexing `keys`, are
        summed in integers, one numerator per denominator; the class value
        is one Fraction, stored and returned."""
        b2, s, _ = key
        self.evals += 1
        values = self.values
        if s == 0:
            value = isotropic_genus1(math.gcd(b1, b2, *(abs(x) for x in e)))
        else:
            sums = {}  # denominator -> numerator of the sum over the cells
            named = names[e]
            for n, m, pairing in _zero_cells(b1, b2, s):
                iso, v2 = isotropic_genus1(n), values[m, s - 2 * pairing, named[m]]
                d = iso.denominator * v2.denominator
                sums[d] = sums.get(d, 0) + 2 * pairing * iso.numerator * v2.numerator
            for coef, ia, ib in plan.tolist():
                va, vb = values[keys[ia]], values[keys[ib]]
                d = va.denominator * vb.denominator
                sums[d] = sums.get(d, 0) + coef * va.numerator * vb.numerator
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
        (the whole ball when J is empty); _discover makes e dominant, so
        that W_J is its whole stabilizer.  Returns (e1, e2, s1, s2, w) arrays,
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
    `classes` holds one (e, square) per group of those parts, and `idx`
    gives, for each part, the index of its group in `classes`.  A slice
    with b2 = 0 is the one class b1*v1, 1 <= b1 <= max_b1.  A slice with
    b2 >= 1 holds every part, grouped by W(E8)-orbit: a group's e is its
    first part and its square 2 b1 b2 - <e, e>.  Every such slice shares
    one idx, and groups are numbered in the order of their first parts.

    The parts are sorted once, by np.lexsort, and grouped once by their
    dominant conjugates (dominant_rows), the one dominant point of each
    W-orbit (Humphreys 1.12).  W lies in every W x| b2*Q and keeps the
    norm, so the classes of a group share square and <1>."""
    a, norms = short_vector_table(norm_bound)
    order = np.lexsort(a.T[::-1])
    a = a[order]
    parts = [tuple(row) for row in a.tolist()]
    norms = norms[order].tolist()
    first = {}  # dominant conjugate -> (group index, index of its first part)
    idx = [first.setdefault(d, (len(first), i))[0]
           for i, d in enumerate(dominant_rows(a).view(_ROW_BYTES).ravel().tolist())]
    heads = [(parts[i], norms[i]) for _, i in first.values()]
    k = parts.index((0,) * 8)
    zero, every = slice(k, k + 1), slice(None)

    def slices():
        for b1 in range(0, max_b1 + 1):
            if b1:
                yield b1, 0, zero, [0], [(parts[k], 0)]
            for b2 in range(1, max_b2 + 1):
                yield b1, b2, every, idx, [(e, 2 * b1 * b2 - ne) for e, ne in heads]

    return parts, slices()


def box_class_count(max_b1, max_b2, norm_bound):
    """The number of classes of genus1_box_rows, without building a ball."""
    n_parts = sum(theta_shells(norm_bound))
    return max_b1 + (max_b1 + 1) * max_b2 * n_parts


def genus1_box_groups(max_b1, max_b2, norm_bound, engine=ENGINE):
    """The coordinate box of genus1_box_rows per (b1, b2) slice of
    box_slices, in its lexicographic order: (b1, b2, sliced, idx, groups)
    with `sliced` the slice's E8 parts as tuples, `groups` one
    (e, square, <1>) per group of the slice, e its first part, and `idx`
    each part's group index.  <1> holds for every part of the group;
    every group of the box, at its first part, is a class of one
    evaluate call on `engine` (the process-wide ENGINE by default), made
    before the first slice is yielded."""
    parts, slices = box_slices(max_b1, max_b2, norm_bound)
    slices = list(slices)
    values = iter(engine.evaluate([(b1, b2, e) for b1, b2, _, _, classes in slices
                                   for e, _ in classes]))
    for b1, b2, cols, idx, classes in slices:
        yield b1, b2, parts[cols], idx, [(e, s, value) for (e, s), value in zip(classes, values)]


def genus1_box_rows(max_b1, max_b2, norm_bound, engine=ENGINE):
    """(coords, square, <1>) for every class of the coordinate box, the
    rows of genus1_box_groups in its lexicographic order: n*v1 for
    1 <= n <= max_b1, and (b1, b2, e) with 0 <= b1 <= max_b1,
    1 <= b2 <= max_b2, e a short vector of norm <= norm_bound.  Square
    and <1> are those of the class's group."""
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
