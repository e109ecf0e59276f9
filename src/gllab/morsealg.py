"""Combinatorial handle algebra for surgery schedules.

A :class:`MorseDescription` is a purely combinatorial record of critical
points (id, index, level) together with declared intersection matrices
between adjacent indices and declared bool flags.  No trajectory geometry
is ever computed here: intersection numbers are inputs, and the module
checks the algebra that makes a cancellation schedule possible —
admissibility (all indices at most n-2, i.e. surgery codimension at least
3), well-indexing, chain-complex consistency (integer boundary with
d^2 = 0), exactness (the cylinder condition), unimodular cancelling bases,
and finally an ordered cancellation plan with a unit intersection
certificate per pair.

All matrix arithmetic is exact and in Python integers: fraction-free
(Bareiss) elimination for ranks, growth-controlled unimodular row/column
operations with unit pivots for cancelling bases (whose determinants are
the signs of their swaps and negations); a pairing that covers every point
proves exactness.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from .errors import (HypothesisViolationError, InconsistentBoundaryError,
                     InvalidSpecError, NoIntegralBasisError,
                     NotACylinderError, _check_ints, _finite_reals, _is_int)

__all__ = [
    "CriticalPoint",
    "MorseDescription",
    "ChainComplex",
    "CancellationPlan",
    "check_admissible",
    "well_index",
    "build_chain_complex",
    "check_cylinder_exactness",
    "choose_cancelling_bases",
    "cancellation_plan",
    "rational_rank",
]


# ---------------------------------------------------------------------------
# exact integer matrix helpers
# ---------------------------------------------------------------------------

def _as_int_matrix(m, rows, cols, what):
    """Validate and normalize a nested sequence to a rows x cols int matrix.

    Each entry is read as n and an index are: an integer (``_is_int``) or
    an integral float (JSON's 1.0, ``_integral``), never a bool.
    """
    try:
        m = [[_integral(val) for val in r] for r in m]
    except TypeError:
        raise InvalidSpecError(f"{what}: not a matrix") from None
    if len(m) != rows or any(len(r) != cols for r in m):
        raise InvalidSpecError(
            f"{what}: expected shape {rows} x {cols}, got "
            f"{len(m)} x {[len(r) for r in m]}")
    for i, r in enumerate(m):
        for j, val in enumerate(r):
            if not _is_int(val):
                raise InvalidSpecError(
                    f"{what}: non-integer entry {val!r} at [{i}][{j}]")
    return [[int(val) for val in r] for r in m]


def _mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _nearest(a, b):
    """The integer nearest a / b (halves round up), so |a - q b| <= |b| / 2."""
    return (2 * a + b) // (2 * b)


def _bareiss(m):
    """(rank, determinant) of an integer matrix by fraction-free elimination.

    Bareiss elimination: each update divides exactly by the previous pivot,
    so every entry stays an integer minor of m and nothing swells.  The
    determinant is 0 unless m is square of full rank (1 for the empty one).
    """
    a = [list(r) for r in m]
    rows, cols = len(a), len(a[0]) if a else 0
    sign, prev, r = 1, 1, 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        p = a[r][c]
        for i in range(r + 1, rows):
            f = a[i][c]
            a[i] = [(x * p - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
        if r == rows:
            break
    return r, (sign * prev if r == rows == cols else 0)


def rational_rank(m):
    """Rank over the rationals (exact, by fraction-free elimination)."""
    return _bareiss(m)[0]


def _least(values):
    """Position of the first value of least nonzero magnitude, or None if
    every value is 0; the scan stops at a unit, the least there is."""
    best, at = 0, None
    for n, v in enumerate(values):
        if v and (not best or abs(v) < best):
            best, at = abs(v), n
            if best == 1:
                break
    return at


def _unit_reduction(m, degree):
    """(r, s_inv, t, det_s, det_t) with  m @ t = s_inv @ e  for the boundary
    d_degree = m, e holding 1 in its first r diagonal places and 0
    elsewhere; s_inv and t are unimodular, each given as the list of its
    columns, and s_inv inverts the row transform s of s @ m @ t = e, which
    is never formed.  det_s = det s_inv = det s and det_t = det t multiply
    the signs of the swaps and negations (adds keep them).  Step k starts
    from the smallest nonzero entry of the remaining block; each pass then
    re-picks the pivot as the smallest nonzero entry of column k (then of
    row k) and reduces the others by nearest-integer quotients, so every
    remainder is at most half the pivot.  Ties go to the lowest index.  A
    cleared pivot p splits off a 1 x 1 block, so the invariant factors of
    m multiply to a multiple of p: one that is not +-1 raises
    ``NoIntegralBasisError``.
    """
    rows, cols = len(m), len(m[0])
    d = [list(r) for r in m]
    # s_inv and t take only column operations: keep their transposes
    s_inv, t = _identity(rows), _identity(cols)
    det_s = det_t = 1

    def row_swap(i, j):
        nonlocal det_s
        d[i], d[j] = d[j], d[i]
        s_inv[i], s_inv[j] = s_inv[j], s_inv[i]
        det_s = -det_s

    def col_swap(i, j):
        nonlocal det_t
        for r in d:
            r[i], r[j] = r[j], r[i]
        t[i], t[j] = t[j], t[i]
        det_t = -det_t

    k = 0
    while k < min(rows, cols):
        at = _least(v for r in d[k:] for v in r[k:])
        if at is None:
            break
        bi, bj = divmod(at, cols - k)
        if bi:
            row_swap(k, k + bi)
        if bj:
            col_swap(k, k + bj)
        # clear column k, then row k, until both are clear; the pivot
        # shrinks on every pass that leaves a remainder (a unit pivot is
        # already the least entry of its column and of its row)
        while True:
            if abs(d[k][k]) != 1:
                bi = k + _least([r[k] for r in d[k:]])
                if bi != k:
                    row_swap(k, bi)
            # row i -= q * row k (s_inv: column k += q * column i)
            top = d[k]
            for i in range(k + 1, rows):
                if d[i][k]:
                    q = _nearest(d[i][k], top[k])
                    d[i] = [x - q * y for x, y in zip(d[i], top)]
                    s_inv[k] = [x + q * y for x, y in zip(s_inv[k], s_inv[i])]
            if abs(d[k][k]) != 1:
                bj = k + _least(d[k][k:])
                if bj != k:
                    col_swap(k, bj)
            # column j -= q_j * column k for every j at once, a row at a time
            qs = [(j, _nearest(top[j], top[k])) for j in range(k + 1, cols)
                  if top[j]]
            for r in d[k:]:
                if r[k]:
                    for j, q in qs:
                        r[j] -= q * r[k]
            for j, q in qs:
                t[j] = [x - q * y for x, y in zip(t[j], t[k])]
            if not any(d[i][k] for i in range(k + 1, rows)) and \
                    not any(d[k][j] for j in range(k + 1, cols)):
                break
        if abs(d[k][k]) != 1:
            raise NoIntegralBasisError(
                f"d_{degree} has a non-unit invariant factor (pivot "
                f"{d[k][k]}): no integral cancelling basis exists")
        if d[k][k] < 0:     # row k is read no more: negate s_inv's column
            s_inv[k] = [-x for x in s_inv[k]]
            det_s = -det_s
        k += 1
    return k, s_inv, t, det_s, det_t


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    """Critical point: string id, integer index >= 0, real level in (0, 1)."""

    id: str
    index: int
    level: float

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise InvalidSpecError(
                f"a point id must be a string, got {self.id!r}")
        _check_ints(0, "a point index must be >= 0", index=self.index)
        if not (_finite_reals(self.level) and 0.0 < self.level < 1.0):
            raise InvalidSpecError(
                f"point {self.id!r}: level must lie strictly in (0, 1)")

    def to_json(self):
        return {"id": self.id, "index": self.index, "level": self.level}


@dataclass
class MorseDescription:
    """Critical points plus declared intersection matrices.

    ``boundary`` maps an adjacent index pair (k+1, k) to an integer matrix of
    intersection numbers with one row per index-k point and one column per
    index-(k+1) point (both in point-list order).  ``flags`` carries declared
    manifold-level hypotheses the algebra cannot see (e.g. simply_connected),
    each a bool, else ``InvalidSpecError``.
    """

    n: int
    points: list
    boundary: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_ints(1, "n must be a positive dimension", n=self.n)
        ids = [pt.id for pt in self.points]
        if len(set(ids)) != len(ids):
            raise InvalidSpecError("duplicate point ids")
        for name, val in self.flags.items():
            if not isinstance(val, bool):
                raise InvalidSpecError(
                    f"flag {name!r} must be a bool, got {val!r}")
        for pt in self.points:
            if not 0 <= pt.index <= self.n + 1:
                raise InvalidSpecError(
                    f"point {pt.id!r}: index {pt.index} outside [0, n+1]")
        norm = {}
        for key, mat in self.boundary.items():
            try:
                hi, lo = key
                if hi != lo + 1:
                    raise InvalidSpecError(
                        f"boundary key {key}: indices must be adjacent")
            except (TypeError, ValueError):
                raise InvalidSpecError(f"malformed boundary key {key}") from None
            rows = len(self.points_of_index(lo))
            cols = len(self.points_of_index(hi))
            norm[(hi, lo)] = _as_int_matrix(mat, rows, cols,
                                            f"boundary {hi}->{lo}")
        self.boundary = norm

    def points_of_index(self, k):
        return [pt for pt in self.points if pt.index == k]

    def counts(self):
        out = {}
        for pt in self.points:
            out[pt.index] = out.get(pt.index, 0) + 1
        return out

    def matrix(self, hi, lo):
        """Boundary matrix for (hi, lo); zeros when undeclared."""
        if (hi, lo) in self.boundary:
            return [list(r) for r in self.boundary[(hi, lo)]]
        rows = len(self.points_of_index(lo))
        cols = len(self.points_of_index(hi))
        return [[0] * cols for _ in range(rows)]

    def to_json(self):
        return {
            "n": self.n,
            "points": [pt.to_json() for pt in self.points],
            "boundary": {f"{hi}->{lo}": [list(r) for r in mat]
                         for (hi, lo), mat in sorted(self.boundary.items())},
            **({"flags": dict(self.flags)} if self.flags else {}),
        }

    @classmethod
    def from_json(cls, data):
        """Read the JSON form, parsed or as text or bytes; a malformed one,
        or text that is not JSON, raises ``InvalidSpecError``."""
        if isinstance(data, (str, bytes)):
            try:
                data = json.loads(data)
            except (json.JSONDecodeError, UnicodeDecodeError) as err:
                raise InvalidSpecError(f"not a JSON document: {err}") from None
        if not (isinstance(data, dict) and isinstance(data.get("points"), list)
                and all(isinstance(x, dict) for x in [
                    data.get("boundary", {}), data.get("flags", {}),
                    *data["points"]])):
            raise InvalidSpecError(
                "a description is an object holding a list of point objects "
                "and optional boundary and flags objects")
        for p in data["points"]:
            for key in ("id", "index", "level"):
                if key not in p:
                    raise InvalidSpecError(f"a point has no {key!r} field")
        points = [CriticalPoint(p["id"], _integral(p["index"]), p["level"])
                  for p in data["points"]]
        boundary = {}
        for key, mat in data.get("boundary", {}).items():
            try:
                hi, lo = (int(x) for x in key.split("->"))
            except ValueError:
                raise InvalidSpecError(
                    f"malformed boundary key {key!r}") from None
            boundary[(hi, lo)] = mat
        if "n" not in data:
            raise InvalidSpecError("a description has no 'n' field")
        return cls(_integral(data["n"]), points, boundary,
                   dict(data.get("flags", {})))


def _integral(val):
    """JSON's integer: a float such as 3.0 as the int 3, else ``val``."""
    return int(val) if isinstance(val, float) and val.is_integer() else val


def check_admissible(desc):
    """True iff every critical index is at most n - 2 (codimension >= 3)."""
    return all(pt.index <= desc.n - 2 for pt in desc.points)


def well_index(desc):
    """Reassign levels so levels are shared within an index and ordered by it.

    Point order (hence boundary data) is unchanged; the m distinct indices
    present get the levels (i + 1)/(m + 1) in increasing index order.
    """
    idxs = sorted({pt.index for pt in desc.points})
    level_of = {k: (i + 1) / (len(idxs) + 1) for i, k in enumerate(idxs)}
    pts = [CriticalPoint(pt.id, pt.index, level_of[pt.index])
           for pt in desc.points]
    return MorseDescription(desc.n, pts, dict(desc.boundary),
                            dict(desc.flags))


# ---------------------------------------------------------------------------
# chain complexes
# ---------------------------------------------------------------------------

@dataclass
class ChainComplex:
    """Free integer chain complex with verified d o d = 0."""

    ranks: dict            # degree -> rank
    boundary: dict         # degree k -> matrix of d_k: C_k -> C_{k-1}

    def __post_init__(self):
        for k, mat in self.boundary.items():
            rows = self.ranks.get(k - 1, 0)
            cols = self.ranks.get(k, 0)
            self.boundary[k] = _as_int_matrix(mat, rows, cols, f"d_{k}")
        self._check_square()

    @classmethod
    def _described(cls, ranks, boundary):
        """The complex of matrices a description normalised; checks d o d."""
        cc = cls.__new__(cls)
        cc.ranks, cc.boundary = ranks, boundary
        cc._check_square()
        return cc

    def _check_square(self):
        for k in sorted(self.boundary):
            if k + 1 in self.boundary and self.ranks.get(k - 1, 0):
                prod = _mat_mul(self.boundary[k], self.boundary[k + 1])
                if any(any(row) for row in prod):
                    raise InconsistentBoundaryError(
                        f"d_{k} o d_{k + 1} != 0")

    def d(self, k):
        if k in self.boundary:
            return [list(r) for r in self.boundary[k]]
        return [[0] * self.ranks.get(k, 0)
                for _ in range(self.ranks.get(k - 1, 0))]

    def degrees(self):
        return sorted(k for k, r in self.ranks.items() if r > 0)


def build_chain_complex(desc):
    """Ranks from point counts per index, boundaries from declared matrices
    (normalised by the description, so only d o d = 0 is checked)."""
    ranks = desc.counts()
    boundary = {}
    for k in list(ranks):
        if ranks.get(k, 0) and ranks.get(k - 1, 0):
            boundary[k] = desc.matrix(k, k - 1)
    return ChainComplex._described(ranks, boundary)


def check_cylinder_exactness(cc):
    """Exactness at every degree: rank d_k + rank d_{k+1} = rank C_k."""
    rank = {}
    for k in cc.degrees():
        for j in (k, k + 1):
            if j not in rank:
                rank[j] = rational_rank(cc.d(j))
        if rank[k] + rank[k + 1] != cc.ranks.get(k, 0):
            return False
    return True


def choose_cancelling_bases(cc):
    """Per adjacent degree, integer bases b, z with d(b_i) = z_i.

    Unit pivots reduce each boundary map d: C_{k+1} -> C_k to s d t = e,
    ones on the first r diagonal places and zeros elsewhere
    (``_unit_reduction``); then b_i is the i-th column of t and z_i the
    i-th column of s^{-1}, and d(b_i) = z_i holds exactly.  A map with an
    invariant factor other than +-1 has no such bases: it raises
    ``NoIntegralBasisError`` naming its degree.  Returns
    {k+1: {"b", "z", "t", "s_inv", "det_s", "det_t"}}, where det s =
    det s^{-1} = +-1 and det t = +-1 are the reduction's own signs.
    """
    out = {}
    for k in sorted(cc.boundary):
        mat = cc.d(k)
        if not mat or not mat[0]:
            continue
        r, s_inv, t, det_s, det_t = _unit_reduction(mat, k)
        out[k] = {"b": t[:r], "z": s_inv[:r],
                  "t": [list(c) for c in zip(*t)],
                  "s_inv": [list(c) for c in zip(*s_inv)],
                  "det_s": det_s, "det_t": det_t}
    return out


# ---------------------------------------------------------------------------
# cancellation planning
# ---------------------------------------------------------------------------

_NOT_EXACT = "chain complex is not exact: description is not a cylinder"

@dataclass
class CancellationPlan:
    """Ordered pairing steps, each with a unit intersection certificate."""

    steps: list                       # {"pair": (hi_id, lo_id), ...}
    auxiliary_points: list = field(default_factory=list)

    def covered_ids(self):
        out = []
        for st in self.steps:
            out.extend(st["pair"])
        return out

    def to_json(self):
        return {"steps": [dict(st) for st in self.steps],
                "auxiliary_points": list(self.auxiliary_points)}


def _unit_pivot_pairing(mat, row_ids, col_ids):
    """Pair every row with a column through +-1 pivots, sliding columns.

    Integer column elimination: choose the smallest-magnitude nonzero entry;
    if it is not a unit, Euclidean column steps shrink it (handle slides).
    A pivot p that divides its whole row is stuck: every maximal minor of
    the remaining rows is then a multiple of p, slides of rows or columns
    keep the gcd of those minors, and a unit pairing needs it to be 1, so
    no integral pairing exists.  Each unit pivot lowers the rational row
    rank of the remaining rows by exactly one, so rows of full row rank, as
    exactness leaves the rows ``cancellation_plan`` hands over, always keep
    a nonzero entry; rows left with none show the complex is not exact.
    Rows and columns keep their original identities throughout.

    Returns (pairs, col_ops) where pairs is a list of (col_id, row_id,
    certificate) and col_ops the elementary column operations performed
    (for propagation one degree up).
    """
    mat = [list(r) for r in mat]
    rows = list(range(len(mat)))
    cols = list(range(len(mat[0]) if mat else 0))
    pairs = []
    col_ops = []  # (dst, src, c): column dst += c * column src

    def col_adds(ops):
        # column operations act on each row alone: one pass over the rows
        for i in rows:
            r = mat[i]
            for dst, src, c in ops:
                r[dst] += c * r[src]
        col_ops.extend(ops)

    while rows:
        at = _least(mat[i][j] for i in rows for j in cols)
        if at is None:
            raise NotACylinderError(_NOT_EXACT)
        bi, bj = rows[at // len(cols)], cols[at % len(cols)]
        while abs(mat[bi][bj]) != 1:
            # shrink with a euclidean step in the pivot row
            j = next((j for j in cols
                      if j != bj and mat[bi][j] % mat[bi][bj]), None)
            if j is None:
                raise NoIntegralBasisError(
                    f"intersection number {mat[bi][bj]} is not a unit and "
                    "cannot be reduced by slides")
            col_adds([(j, bj, -(mat[bi][j] // mat[bi][bj]))])
            bj = j          # the nonzero remainder is smaller than the pivot
        cert = mat[bi][bj]
        # clear the pivot row so later pairings are independent
        ops = [(j, bj, -mat[bi][j] * cert) for j in cols
               if j != bj and mat[bi][j]]
        if ops:
            col_adds(ops)
        pairs.append((col_ids[bj], row_ids[bi], cert))
        rows.remove(bi)
        cols.remove(bj)
    return pairs, col_ops


def cancellation_plan(desc):
    """Ordered cancellation of every critical point through unit pairings.

    Requires an admissible description whose chain complex is exact (the
    cylinder condition).  Degree by degree, upward, the index-k points not
    yet paired downward pair with the index-(k+1) points through +-1
    pivots of d_{k+1}; each column slide of C_{k+1} is carried to the rows
    of d_{k+2}.  Exactness leaves those rows full rational row rank, so
    every point is paired.  Conversely, pairing every point proves exactness
    over Q: with p_k pairs between degrees k and k+1, the unit pivots give
    rank d_{k+1} >= p_k and d o d = 0 gives rank d_k + rank d_{k+1} <= n_k
    = p_{k-1} + p_k, so equality holds at every degree.  Ranks are taken
    only for a stuck non-unit pivot, which is a ``NotACylinderError`` in a
    complex that is not exact.  Index-0 points pair with index-1 points;
    excess index-1 points are handled by inserting a symbolic auxiliary
    (2, 3) pair each: the auxiliary index-2 point cancels the excess
    index-1 point under a declared unit intersection, and the auxiliary
    index-3 point takes over the cancellation its index-2 partner would
    have performed.  Pair i is named aux2_i and aux3_i, its numbering
    skipping every i whose aux2_i or aux3_i is a described id.
    """
    if not check_admissible(desc):
        raise HypothesisViolationError(
            "description is not admissible (some index exceeds n - 2)")
    if not desc.points:
        return CancellationPlan(steps=[])
    if desc.n < 5:
        raise HypothesisViolationError(
            "cancellation planning requires declared dimension n >= 5")
    has_low = any(pt.index == 1 for pt in desc.points)
    if has_low and not desc.flags.get("simply_connected"):
        raise HypothesisViolationError(
            "index <= 1 points present: the simply_connected flag must be "
            "declared for repositioning arguments to apply")
    cc = build_chain_complex(desc)
    steps = []
    aux_points = []
    degrees = cc.degrees()
    ids = {k: [pt.id for pt in desc.points_of_index(k)] for k in degrees}
    # d_{k+1} by its lower degree k, its rows slid as pairings propagate up
    mats = {k: cc.d(k + 1) for k in degrees}
    paired = set()          # ids already paired downward
    described = {pt.id for pt in desc.points}
    fresh = (i for i in itertools.count()
             if not {f"aux2_{i}", f"aux3_{i}"} & described)
    for k in degrees:
        rows = [i for i, pid in enumerate(ids[k]) if pid not in paired]
        try:
            pairs, col_ops = _unit_pivot_pairing(
                [mats[k][i] for i in rows], [ids[k][i] for i in rows],
                ids.get(k + 1, []))
        except NoIntegralBasisError:
            # a stuck pivot in a complex that is not exact: report that
            if check_cylinder_exactness(cc):
                raise
            raise NotACylinderError(_NOT_EXACT) from None
        # carry column slides of C_{k+1} to row slides of d_{k+2}
        if col_ops and k + 2 in mats:
            up = mats[k + 1]
            for dst, src, c in col_ops:
                up[src] = [x - c * y for x, y in zip(up[src], up[dst])]
        for hi_id, lo_id, cert in pairs:
            if k == 1:
                # excess index-1 points route through auxiliary (2, 3) pairs
                i = next(fresh)
                a2, a3 = f"aux2_{i}", f"aux3_{i}"
                aux_points.append({"id": a2, "index": 2})
                aux_points.append({"id": a3, "index": 3})
                steps.append({"pair": (a2, lo_id), "certificate": 1,
                              "kind": "auxiliary-inserted"})
                steps.append({"pair": (a3, hi_id), "certificate": 1,
                              "kind": "auxiliary-inserted"})
            else:
                steps.append({"pair": (hi_id, lo_id), "certificate": cert,
                              "kind": "direct"})
            paired.add(hi_id)
    return CancellationPlan(steps=steps, auxiliary_points=aux_points)
