"""Combinatorial handle algebra for surgery schedules.

A :class:`MorseDescription` is a purely combinatorial record of critical
points (id, index, level) together with declared intersection matrices
between adjacent indices.  No trajectory geometry is ever computed here:
intersection numbers are inputs, and the module checks the algebra that
makes a cancellation schedule possible — admissibility (all indices at most
n-2, i.e. surgery codimension at least 3), well-indexing, index reversal,
chain-complex consistency (integer boundary with d^2 = 0), exactness (the
cylinder condition), unimodular cancelling bases, and finally an ordered
cancellation plan with a unit intersection certificate per pair.

All matrix arithmetic is exact and in Python integers: fraction-free
(Bareiss) elimination for ranks and determinants, growth-controlled
unimodular row/column operations for normal forms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import (HypothesisViolationError, InconsistentBoundaryError,
                     InvalidSpecError, NoIntegralBasisError,
                     NotACylinderError)

__all__ = [
    "CriticalPoint",
    "MorseDescription",
    "ChainComplex",
    "CancellationPlan",
    "check_admissible",
    "well_index",
    "reverse",
    "build_chain_complex",
    "check_cylinder_exactness",
    "choose_cancelling_bases",
    "cancellation_plan",
    "smith_normal_form",
    "rational_rank",
]


# ---------------------------------------------------------------------------
# exact integer matrix helpers
# ---------------------------------------------------------------------------

def _as_int_matrix(m, rows, cols, what):
    """Validate and normalize a nested sequence to a rows x cols int matrix."""
    try:
        m = [list(r) for r in m]
        out = [[int(val) for val in r] for r in m]
    except (TypeError, ValueError, OverflowError):
        raise InvalidSpecError(f"{what}: not a matrix of finite numbers") \
            from None
    if len(m) != rows or any(len(r) != cols for r in m):
        raise InvalidSpecError(
            f"{what}: expected shape {rows} x {cols}, got "
            f"{len(m)} x {[len(r) for r in m]}")
    if out != m:
        val = next(v for r, o in zip(m, out) for v, iv in zip(r, o) if iv != v)
        raise InvalidSpecError(f"{what}: non-integer entry {val!r}")
    return out


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


def smith_normal_form(m):
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (d, s, s_inv, t) with  s @ m @ t = d  diagonal (invariant factors
    along the diagonal, each non-negative and dividing the next), s and t
    unimodular, and s_inv the exact integer inverse of s.  Step k starts
    from the smallest nonzero entry of the remaining block; each pass then
    re-picks the pivot as the smallest nonzero entry of column k (then of
    row k) and reduces the others by nearest-integer quotients, so every
    remainder is at most half the pivot.  Ties go to the lowest index.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [list(r) for r in m]
    s = _identity(rows)
    s_inv = _identity(rows)
    t = _identity(cols)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        s[i], s[j] = s[j], s[i]
        for r in s_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in t:
            r[i], r[j] = r[j], r[i]

    def row_add(dst, src, c):
        # row dst += c * row src; inverse tracked as a column op on s_inv
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        for r in s_inv:
            r[src] -= c * r[dst]

    def col_add(dst, src, c):
        for r in d:
            r[dst] += c * r[src]
        for r in t:
            r[dst] += c * r[src]

    def row_neg(i):
        d[i] = [-x for x in d[i]]
        s[i] = [-x for x in s[i]]
        for r in s_inv:
            r[i] = -r[i]

    k = 0
    while k < min(rows, cols):
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                v = abs(d[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            row_swap(k, bi)
        if bj != k:
            col_swap(k, bj)
        # clear column k, then row k, until both are clear; the pivot
        # shrinks on every pass that leaves a remainder
        while True:
            bi = min((i for i in range(k, rows) if d[i][k]),
                     key=lambda i: abs(d[i][k]))
            if bi != k:
                row_swap(k, bi)
            for i in range(k + 1, rows):
                if d[i][k]:
                    row_add(i, k, -_nearest(d[i][k], d[k][k]))
            bj = min((j for j in range(k, cols) if d[k][j]),
                     key=lambda j: abs(d[k][j]))
            if bj != k:
                col_swap(k, bj)
            for j in range(k + 1, cols):
                if d[k][j]:
                    col_add(j, k, -_nearest(d[k][j], d[k][k]))
            if not any(d[i][k] for i in range(k + 1, rows)) and \
                    not any(d[k][j] for j in range(k + 1, cols)):
                break
        if d[k][k] < 0:
            row_neg(k)
        # divisibility: fold in any remaining entry the pivot does not divide
        bad = next(((i, j) for i in range(k + 1, rows)
                    for j in range(k + 1, cols)
                    if d[i][j] % d[k][k]), None)
        if bad is not None:
            row_add(k, bad[0], 1)
            continue  # re-run elimination at the same k
        k += 1
    return d, s, s_inv, t


# ---------------------------------------------------------------------------
# descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriticalPoint:
    """Combinatorial critical point: identity token, index, interior level."""

    id: str
    index: int
    level: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
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
    manifold-level hypotheses the algebra cannot see (e.g. simply_connected).
    """

    n: int
    points: list
    boundary: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n < 1:
            raise InvalidSpecError("n must be a positive dimension")
        ids = [pt.id for pt in self.points]
        if len(set(ids)) != len(ids):
            raise InvalidSpecError("duplicate point ids")
        for pt in self.points:
            if not 0 <= pt.index <= self.n + 1:
                raise InvalidSpecError(
                    f"point {pt.id!r}: index {pt.index} outside [0, n+1]")
        norm = {}
        for key, mat in self.boundary.items():
            hi, lo = key
            if hi != lo + 1:
                raise InvalidSpecError(
                    f"boundary key {key}: indices must be adjacent")
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
        """Read the JSON form; a malformed one raises ``InvalidSpecError``."""
        if isinstance(data, str):
            data = json.loads(data)
        if not (isinstance(data, dict) and isinstance(data.get("points"), list)
                and all(isinstance(x, dict) for x in [
                    data.get("boundary", {}), data.get("flags", {}),
                    *data["points"]])):
            raise InvalidSpecError(
                "a description is an object holding a list of point objects "
                "and optional boundary and flags objects")
        points = [CriticalPoint(p["id"], _number(p["index"], "index", True),
                                _number(p["level"], "level"))
                  for p in data["points"]]
        boundary = {}
        for key, mat in data.get("boundary", {}).items():
            hi, lo = (int(x) for x in key.split("->"))
            boundary[(hi, lo)] = mat
        return cls(_number(data["n"], "n", True), points, boundary,
                   dict(data.get("flags", {})))


def _number(val, what, integral=False):
    """A JSON number, as an int if ``integral``; anything else, or a
    fraction where an integer is due, raises ``InvalidSpecError``."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) or (
            integral and isinstance(val, float) and not val.is_integer()):
        noun = "an integer" if integral else "a number"
        raise InvalidSpecError(f"{what} must be {noun}, got {val!r}")
    return int(val) if integral else val


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


def reverse(desc):
    """Turn the description upside down: index k -> n+1-k, level c -> 1-c.

    Boundary matrices transpose across the flip.  The result's flags record
    whether it is still admissible (it need not be).
    """
    pts = [CriticalPoint(pt.id, desc.n + 1 - pt.index, 1.0 - pt.level)
           for pt in desc.points]
    boundary = {}
    for (hi, lo) in desc.boundary:
        # old d: C_hi -> C_lo becomes new d: C_{n+1-lo} -> C_{n-lo}
        mat = desc.matrix(hi, lo)
        rows, cols = len(mat), len(mat[0]) if mat else 0
        boundary[(desc.n + 1 - lo, desc.n - lo)] = \
            [[mat[i][j] for i in range(rows)] for j in range(cols)]
    out = MorseDescription(desc.n, pts, boundary, dict(desc.flags))
    out.flags = dict(out.flags)
    out.flags["admissible"] = check_admissible(out)
    return out


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
    """Ranks from point counts per index, boundaries from declared matrices."""
    ranks = desc.counts()
    boundary = {}
    for k in list(ranks):
        if ranks.get(k, 0) and ranks.get(k - 1, 0):
            boundary[k] = desc.matrix(k, k - 1)
    return ChainComplex(ranks, boundary)


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

    For each boundary map d: C_{k+1} -> C_k the normal form s d t = diag
    must have all invariant factors equal to 1; then b_i is the i-th column
    of t and z_i the i-th column of s^{-1}, and d(b_i) = z_i holds exactly.
    Returns {k+1: {"b": [...], "z": [...], "t": t, "s_inv": s_inv}}.
    """
    out = {}
    for k in sorted(cc.boundary):
        mat = cc.d(k)
        if not mat or not mat[0]:
            continue
        d, s, s_inv, t = smith_normal_form(mat)
        r = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i])
        factors = [d[i][i] for i in range(r)]
        if any(abs(f) != 1 for f in factors):
            raise NoIntegralBasisError(
                f"d_{k} has non-unit invariant factors {factors}: no "
                "integral cancelling basis exists")
        det_s = _bareiss(s)[1]
        det_t = _bareiss(t)[1]
        if abs(det_s) != 1 or abs(det_t) != 1:
            raise InconsistentBoundaryError(
                "normal-form transforms are not unimodular")
        b = [[t[i][j] for i in range(len(t))] for j in range(r)]
        z = [[s_inv[i][j] for i in range(len(s_inv))] for j in range(r)]
        out[k] = {"b": b, "z": z, "t": t, "s_inv": s_inv,
                  "det_s": det_s, "det_t": det_t}
    return out


# ---------------------------------------------------------------------------
# cancellation planning
# ---------------------------------------------------------------------------

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

    Integer column elimination: choose the smallest-magnitude nonzero
    entry; if it is not a unit, Euclidean column steps shrink it (handle
    slides).  A pivot p that divides its whole row is stuck: every maximal
    minor of the remaining rows is then a multiple of p, slides of rows or
    columns keep the gcd of those minors, and a unit pairing needs it to be
    1, so no integral pairing exists.  Rows and columns keep their original
    identities throughout.

    Returns (pairs, leftover_col_ids, col_ops) where pairs is a list of
    (col_id, row_id, certificate) and col_ops the elementary column
    operations performed (for propagation one degree up).
    """
    mat = [list(r) for r in mat]
    rows = list(range(len(mat)))
    cols = list(range(len(mat[0]) if mat else 0))
    pairs = []
    col_ops = []  # ("add", dst, src, c) with original column indices

    def col_add(dst, src, c):
        for r in mat:
            r[dst] += c * r[src]
        col_ops.append((dst, src, c))

    while rows:
        best = None
        for i in rows:
            for j in cols:
                v = abs(mat[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            raise NoIntegralBasisError(
                "rows remain with zero intersection against all columns")
        v, bi, bj = best
        while abs(mat[bi][bj]) != 1:
            # shrink with a euclidean step in the pivot row
            j = next((j for j in cols
                      if j != bj and mat[bi][j] % mat[bi][bj]), None)
            if j is None:
                raise NoIntegralBasisError(
                    f"intersection number {mat[bi][bj]} is not a unit and "
                    "cannot be reduced by slides")
            col_add(j, bj, -(mat[bi][j] // mat[bi][bj]))
            bj = j          # the nonzero remainder is smaller than the pivot
        cert = mat[bi][bj]
        # clear the pivot row so later pairings are independent
        for j in cols:
            if j != bj and mat[bi][j]:
                col_add(j, bj, -mat[bi][j] * cert)
        pairs.append((col_ids[bj], row_ids[bi], cert))
        rows.remove(bi)
        cols.remove(bj)
    return pairs, [col_ids[j] for j in cols], col_ops


def cancellation_plan(desc):
    """Ordered cancellation of every critical point through unit pairings.

    Requires an admissible description whose chain complex is exact (the
    cylinder condition).  Index-0 points pair with index-1 points; excess
    index-1 points are handled by inserting a symbolic auxiliary (2, 3)
    pair each: the auxiliary index-2 point cancels the excess index-1 point
    under a declared unit intersection, and the auxiliary index-3 point
    takes over the cancellation its index-2 partner would have performed.
    All other degrees pair directly via +-1 pivots.
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
    if not check_cylinder_exactness(cc):
        raise NotACylinderError(
            "chain complex is not exact: description is not a cylinder")

    steps = []
    aux_points = []
    aux_counter = 0
    degrees = sorted(desc.counts())
    # working matrices, updated as column operations propagate upward
    mats = {k: desc.matrix(k, k - 1) for k in degrees}
    unpaired = {k: [pt.id for pt in desc.points_of_index(k)] for k in degrees}
    # ids of index-(k+1) points paired *downward*, to drop their rows above
    for k in degrees:
        low = unpaired.get(k, [])
        if not low:
            continue
        hi_ids = [pt.id for pt in desc.points_of_index(k + 1)]
        mat = mats.get(k + 1, [[0] * len(hi_ids) for _ in low])
        # restrict to still-unpaired rows
        all_low = [pt.id for pt in desc.points_of_index(k)]
        keep = [i for i, pid in enumerate(all_low) if pid in low]
        sub = [mat[i] for i in keep]
        pairs, leftover_hi, col_ops = _unit_pivot_pairing(sub, low, hi_ids)
        # propagate column ops on C_{k+1} to row ops on d_{k+2}
        if k + 2 in mats:
            up = mats[k + 2]
            for dst, src, c in col_ops:
                up[src] = [x - c * y for x, y in zip(up[src], up[dst])]
        if k == 1:
            # excess index-1 points route through auxiliary (2, 3) pairs
            for hi_id, lo_id, cert in pairs:
                a2 = f"aux2_{aux_counter}"
                a3 = f"aux3_{aux_counter}"
                aux_counter += 1
                aux_points.extend([
                    {"id": a2, "index": 2},
                    {"id": a3, "index": 3},
                ])
                steps.append({"pair": (a2, lo_id), "certificate": 1,
                              "kind": "auxiliary-inserted"})
                steps.append({"pair": (a3, hi_id), "certificate": 1,
                              "kind": "auxiliary-inserted"})
                unpaired[k + 1].remove(hi_id)
        else:
            for hi_id, lo_id, cert in pairs:
                steps.append({"pair": (hi_id, lo_id), "certificate": cert,
                              "kind": "direct"})
                unpaired[k + 1].remove(hi_id)
        unpaired[k] = []
    remaining = [pid for ids in unpaired.values() for pid in ids]
    if remaining:
        raise NotACylinderError(
            f"points left unpaired after planning: {remaining}")
    plan = CancellationPlan(steps=steps, auxiliary_points=aux_points)
    n_points = len(desc.points)
    n_aux = len(aux_points)
    assert len(plan.steps) == (n_points + n_aux) // 2
    return plan
