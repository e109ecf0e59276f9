"""Piecewise-analytic 1-D profile functions and their membership predicates.

Profiles are C^2 functions on (0, b) carrying derivative evaluation up to
order 3.  They are the carriers for every rotationally symmetric metric in the
toolkit: cap/tube ("torpedo") profiles, whose layout ``TorpedoSpec`` alone
decides, round-sphere profiles, and the deformation families built from them.

Three families of membership predicates are provided:

* ``check_F_membership``  -- profiles closing a sphere at both ends,
* ``check_U_membership``  -- profiles positive at 0 and closing at b,
* ``check_V_membership``  -- profiles closing at 0 and positive at b.

All three run one table of end conditions, on profiles from outside the
program (``curvature.WarpedSphereMetric`` and ``DoublyWarpedMetric``): the
program builds members by construction.  The families are convex, which is
what makes linear homotopies between members useful; see
``linear_homotopy``.  Every linear family's jets (a ``LinearCombination``,
a homotopy's lambdas, a slowdown path) come from one rule, ``_family_jets``.

Every profile in the toolkit (``SmoothFn1D`` and ``LinearCombination`` here,
and the composite and blended profiles of ``hypersurface`` and ``glbend``) has
the same contract: a domain length ``b`` and ``jet(t, k)``, which returns
(f, f', ..., f^(k)) for k <= 3 from one evaluation pass.  Each analytic
piece is compiled to plain data when it is built; ``_run_jet`` reads it in
one array pass for all orders, to the bit as numpy evaluates each order;
``_piecewise`` reads a batch inside one piece in place, else gathers each
piece's run of sorted points, as for a ``glbend.Curve2D``.  Only
``SmoothFn1D`` serialises.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .certify import _frozen, _Memo, write_csv
from .errors import (ConstructionFailedError, DomainMismatchError,
                     InvalidSpecError, _finite_reals)

__all__ = [
    "SmoothFn1D",
    "LinearCombination",
    "TorpedoSpec",
    "MembershipReport",
    "ConditionResult",
    "PolyPiece",
    "SinePiece",
    "ConstPiece",
    "ReflectPiece",
    "make_torpedo",
    "make_double_torpedo",
    "check_F_membership",
    "check_U_membership",
    "check_V_membership",
    "linear_homotopy",
    "reflect",
    "sample_grid",
    "write_profile_csv",
]

DEFAULT_JUNCTION_TOL = 1e-9
DEFAULT_GRID_DENSITY = 1024  # points per unit length
_CSV_DENSITY = 256  # points per unit length of the profile and curvature CSVs
_SHIFTS = (np.arange(4) * np.pi / 2.0)[:, None]  # j pi/2 shifts order j's sine


def sample_grid(b, density=DEFAULT_GRID_DENSITY, interior=False):
    """Uniform grid on [0, b] (or its open interior), >= 16 intervals; b and
    density must be finite reals > 0, else ``InvalidSpecError``."""
    if not (_finite_reals(b, density) and b > 0 and density > 0):
        raise InvalidSpecError(f"sample_grid needs a finite b > 0 and "
                               f"density > 0, got {b!r} and {density!r}")
    n = max(int(np.ceil(b * density)), 16)
    if interior:
        return np.linspace(0.0, b, n + 2)[1:-1]
    return np.linspace(0.0, b, n + 1)


# ---------------------------------------------------------------------------
# analytic pieces
# ---------------------------------------------------------------------------

def _run_jet(compiled, u, k):
    """Orders 0..k as rows of one array pass at 1-D points u of a piece
    compiled as (each reflection's b, outermost first; origin; (first, later
    Horner columns) of orders 0..3, or None; None or (A w^j, w, phase))."""
    bs, origin, poly, sine = compiled
    for b in bs:
        u = b - u
    if sine:
        amps, w, phase = sine
        vals = amps[:k + 1] * np.sin((w * u + phase) + _SHIFTS[:k + 1])
    else:
        # numpy's Horner recurrence, its bits: an order not entered is +0.0
        u = u - origin if origin else u
        top, steps = poly
        vals = top[:k + 1] + u * 0.0
        for c in steps:
            entered = vals[:len(c)]
            entered *= u
            entered += c[:k + 1]
    if len(bs) % 2:
        vals[1::2] *= -1.0
    return vals


def _finite_interval(kind, interval, *params):
    """The piece's (lo, hi) as floats; non-finite data is InvalidSpecError."""
    if not _finite_reals(interval[0], interval[1], *params):
        raise InvalidSpecError(f"{kind} piece data must be finite")
    return float(interval[0]), float(interval[1])


class _Piece:
    """An analytic piece: ``_compiled`` is what ``_run_jet`` reads."""

    def jet(self, t, k):
        t = np.asarray(t, dtype=float)
        return tuple(_run_jet(self._compiled, t.reshape(-1), k).reshape(
            (k + 1,) + t.shape))

    def end_jets(self, k):
        """Orders 0..k at the piece's own start and end: the two columns."""
        return _run_jet(self._compiled, np.array(self.interval), k)


class PolyPiece(_Piece):
    """Polynomial sum c_k (t - origin)^k on an interval."""

    kind = "poly"

    def __init__(self, interval, coeffs, origin=0.0):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.interval = _finite_interval(self.kind, interval, origin,
                                         *self.coeffs.ravel().tolist())
        self.origin = float(origin)
        # orders 0..3 as repeated numpy polyder gives them; [] is 0
        cols = [self.coeffs.tolist() or [0.0]]
        for _ in range(3):
            c = cols[-1]
            cols.append([j * c[j] for j in range(1, len(c))] or [c[0] * 0])
        m = len(cols[0])  # order j's top coefficient enters at min(j, m - 1)
        pad = np.array([[0.0] * (m - len(c)) + c[::-1] for c in cols])
        self._compiled = ((), self.origin, (pad[:, :1], [
            pad[:4 if s == m - 1 else s + 1, s:s + 1] for s in range(1, m)]),
            None)

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "coeffs": self.coeffs.tolist(), "origin": self.origin}


class SinePiece(_Piece):
    """A * sin(w*t + phase)."""

    kind = "sine"

    def __init__(self, interval, amplitude, frequency, phase=0.0):
        self.interval = _finite_interval(self.kind, interval, amplitude,
                                         frequency, phase)
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self._compiled = ((), 0.0, None, (
            np.array([[self.amplitude * self.frequency ** j]
                      for j in range(4)]), self.frequency, self.phase))

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "coeffs": [self.amplitude, self.frequency, self.phase]}


class ConstPiece(_Piece):
    kind = "const"

    def __init__(self, interval, value):
        self.interval = _finite_interval(self.kind, interval, value)
        self.value = float(value)
        self._compiled = ((), 0.0, (np.array([[self.value], [0.0], [0.0],
                                              [0.0]]), ()), None)

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "coeffs": [self.value]}


class ReflectPiece(_Piece):
    """Evaluates inner(b - t); reflection about the domain midpoint."""

    kind = "reflect"

    def __init__(self, interval, inner, b):
        self.inner = inner
        self.interval = _finite_interval(self.kind, interval, b)
        self.b = float(b)
        bs, *leaf = inner._compiled
        self._compiled = ((self.b, *bs), *leaf)

    def end_jets(self, k):
        """The inner piece's end jets, mirrored, odd orders negated: exact,
        where evaluating at b - t would round."""
        jets = self.inner.end_jets(k)[:, ::-1]
        jets[1::2] *= -1.0
        return jets

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "b": self.b, "of": self.inner.to_json()}


def _piece_from_json(d):
    kind = d["kind"]
    if kind == "poly":
        return PolyPiece(d["interval"], d["coeffs"], d.get("origin", 0.0))
    if kind == "sine":
        a, w, ph = d["coeffs"]
        return SinePiece(d["interval"], a, w, ph)
    if kind == "const":
        return ConstPiece(d["interval"], d["coeffs"][0])
    if kind == "reflect":
        return ReflectPiece(d["interval"], _piece_from_json(d["of"]), d["b"])
    raise InvalidSpecError(f"unknown piece kind {kind!r}")


# ---------------------------------------------------------------------------
# the profile carriers
# ---------------------------------------------------------------------------

def _jet_points(t, k, b):
    """(t as a float array, its least point, its largest) after checking k
    and that t lies in [0, b] (up to rounding); NaN lies nowhere, empty t
    at 0."""
    if k not in (0, 1, 2, 3):
        raise InvalidSpecError(f"jet order must be 0..3, got {k!r}")
    t = np.asarray(t, dtype=float)
    lo, hi = (float(t.min()), float(t.max())) if t.size else (0.0, 0.0)
    # asks that both bounds hold: NaN compares false with either
    if not (lo >= -1e-9 * max(1.0, b) and hi <= b * (1 + 1e-9) + 1e-9):
        raise InvalidSpecError(
            f"evaluation outside [0, {b}]: range [{lo}, {hi}]")
    return t, lo, hi


def _piecewise(x, lo, hi, breaks, part, tails):
    """Gather ``part(i, xi)``: new arrays, of shape xi.shape + tail per
    entry of ``tails``, of piece i at its share xi of the point array x, into
    one array of shape x.shape + tail each (tail for scalar x).  Piece i
    owns [breaks[i-1], breaks[i]) of the increasing float tuple ``breaks``.
    If x's least and largest points lo and hi bisect into one piece, it
    reads x in place; else one searchsorted of sorted x finds each run."""
    xv, shape = x.ravel(), x.shape
    i = bisect.bisect_right(breaks, lo)
    if i == bisect.bisect_right(breaks, hi):
        outs = part(i, xv)
    else:
        order = (None if (xv[1:] >= xv[:-1]).all() else
                 np.argsort(xv, kind="stable"))
        xv = xv if order is None else xv[order]
        ends = [0, *np.searchsorted(xv, breaks).tolist(), xv.size]
        outs = [np.empty(xv.shape + tail) for tail in tails]
        for i, run in enumerate(map(slice, ends, ends[1:])):
            if run.start < run.stop:
                for out, val in zip(outs, part(i, xv[run])):
                    out[run] = val
        if order is not None:
            for out in outs:
                out[order] = out.copy()
    return tuple(out.reshape(shape + out.shape[1:]) if shape else out[0]
                 for out in outs)


class SmoothFn1D:
    """Piecewise-analytic C^2 function on (0, b), derivatives up to order 3.

    ``pieces`` must tile [0, b] with strictly increasing breakpoints.  At every
    interior breakpoint the adjacent pieces must agree in value and in the
    derivative orders listed in ``junction_orders`` (default: 0, 1, 2 -- the
    C^2 contract) to within ``DEFAULT_JUNCTION_TOL``, each piece read at its
    own end (``end_jets``), so a mirror passes when its source does.  ``jet``
    reads the pieces' compiled data: they are the four piece classes here.
    """

    def __init__(self, b, pieces, junction_orders=(0, 1, 2)):
        if not (_finite_reals(b) and b > 0):
            raise InvalidSpecError("domain length must be positive and finite")
        self._lay(b, pieces, junction_orders)
        if not self.pieces:
            raise InvalidSpecError("need at least one piece")
        self._validate_partition()
        self._validate_junctions()

    def _lay(self, b, pieces, junction_orders):
        self.b = float(b)
        self.pieces = list(pieces)
        self.junction_orders = tuple(junction_orders)
        # interior breakpoints for piece lookup
        self._breaks = tuple(p.interval[1] for p in self.pieces[:-1])

    @classmethod
    def _assembled(cls, b, pieces, junction_orders):
        """The profile of ``pieces`` without ``__init__``'s checks, which
        its callers' pieces pass by how they were made: ``make_torpedo``
        adds a tube to a ``_torpedo_head`` checked with one (a tube's jet is
        (delta, 0, 0) at any length); a mirror's end jets are its source's,
        mirrored exactly (``ReflectPiece.end_jets``), so ``reflect`` keeps
        f's junctions and a double torpedo's tube meets its own mirror."""
        f = cls.__new__(cls)
        f._lay(b, pieces, junction_orders)
        return f

    def _validate_partition(self):
        tol = DEFAULT_JUNCTION_TOL * max(1.0, self.b)
        if not abs(self.pieces[0].interval[0]) <= tol:
            raise InvalidSpecError("first piece must start at 0")
        if not abs(self.pieces[-1].interval[1] - self.b) <= tol:
            raise InvalidSpecError("last piece must end at b")
        for left, right in zip(self.pieces, self.pieces[1:]):
            if not abs(left.interval[1] - right.interval[0]) <= tol:
                raise InvalidSpecError("pieces must tile (0, b) contiguously")
            if not right.interval[1] > left.interval[1]:
                raise InvalidSpecError("breakpoints must strictly increase")

    def _validate_junctions(self):
        k = max(self.junction_orders, default=0)
        ends = [p.end_jets(k) for p in self.pieces]
        for left, ljet, rjet in zip(self.pieces, ends, ends[1:]):
            t = left.interval[1]
            for order in self.junction_orders:
                lv, rv = float(ljet[order, 1]), float(rjet[order, 0])
                scale_ = max(1.0, abs(lv), abs(rv))
                if not abs(lv - rv) <= DEFAULT_JUNCTION_TOL * scale_:
                    raise InvalidSpecError(
                        f"junction at t={t:.6g} fails C{order} contract: "
                        f"{lv!r} vs {rv!r}")

    def jet(self, t, k=2):
        """(f, f', ..., f^(k))(t) for k <= 3; scalars for scalar t."""
        return _piecewise(
            *_jet_points(t, k, self.b), self._breaks,
            lambda i, u: _run_jet(self.pieces[i]._compiled, u, k),
            ((),) * (k + 1))

    def __call__(self, t):
        return self.jet(t, 0)[0]

    # -- serialization ------------------------------------------------------

    def to_json(self):
        """JSON form; ``junction_orders`` is written only when not C^2."""
        out = {"b": self.b, "pieces": [p.to_json() for p in self.pieces]}
        if self.junction_orders != (0, 1, 2):
            out["junction_orders"] = list(self.junction_orders)
        return out

    @classmethod
    def from_json(cls, d):
        return cls(d["b"], [_piece_from_json(p) for p in d["pieces"]],
                   d.get("junction_orders", (0, 1, 2)))


def _same_domain(b0, b1):
    """Whether domain lengths b0 and b1 agree to 1e-9 relative."""
    return abs(b0 - b1) <= 1e-9 * max(1.0, b0)


def _family_jets(weights, terms, t, k, high=slice(None)):
    """The (members, *t.shape) values and the (k, high members, *t.shape)
    orders 1..k of the members ``high`` selects, at points t, of the family
    of profiles sum_i weights[m, i] f_i of ``terms`` f_i.

    Each term with a nonzero weight in some member is evaluated once, to
    order k, for every member; a zero weight is skipped entry by entry and
    the weighted jets added in term order onto 0.0, so member m has the
    bits of its own ``LinearCombination.jet``.
    """
    w = np.reshape(weights, np.shape(weights) + (1,) * t.ndim)
    values = np.zeros((len(w),) + t.shape)
    derivs = np.zeros((k, len(w[high])) + t.shape)
    for wi, f in zip(w.swapaxes(0, 1), terms):
        if wi.any():
            jet, wh = f.jet(t, k), wi[high]
            np.add(values, wi * jet[0], out=values, where=wi != 0.0)
            for o, d in zip(derivs, jet[1:]):
                np.add(o, wh * d, out=o, where=wh != 0.0)
    return values, derivs


class LinearCombination:
    """The profile sum_i w_i f_i of ``terms`` (w_i, f_i) on one domain.

    Each term is any profile (``b`` and ``jet``); the combination reads
    nothing else of it.  ``jet`` is the one-member ``_family_jets``.
    No terms, or a weight that is not a finite real number
    (``_finite_reals``), raise ``InvalidSpecError``, terms whose domain
    lengths differ by more than 1e-9 relative ``DomainMismatchError``.
    """

    def __init__(self, terms):
        terms = list(terms)
        if not _finite_reals(*(w for w, _ in terms)):
            raise InvalidSpecError("a weight is not a finite real number")
        self.terms = [(float(w), f) for w, f in terms]
        if not self.terms:
            raise InvalidSpecError("a linear combination needs a term")
        self.b = float(self.terms[0][1].b)
        for _, f in self.terms[1:]:
            if not _same_domain(self.b, f.b):
                raise DomainMismatchError(
                    f"domain lengths differ: {self.b} vs {f.b}")

    def jet(self, t, k=2):
        """(f, f', ..., f^(k))(t) for k <= 3; scalars for scalar t."""
        weights, terms = zip(*self.terms)
        values, derivs = _family_jets([weights], terms,
                                      _jet_points(t, k, self.b)[0], k)
        return (values[0], *derivs[:, 0])

    def __call__(self, t):
        return self.jet(t, 0)[0]


def write_profile_csv(f, path_or_buf):
    """CSV sampling export with columns t, f, f', f''."""
    t = sample_grid(f.b, _CSV_DENSITY)
    write_csv(path_or_buf, "t,f,d1,d2", np.column_stack([t, *f.jet(t, 2)]))


# ---------------------------------------------------------------------------
# structural operations
# ---------------------------------------------------------------------------

def _mirrored(pieces, b):
    """The pieces t -> p(b - t) of ``pieces`` mirrored about b/2, in order."""
    return [ReflectPiece((b - p.interval[1], b - p.interval[0]), p, b)
            for p in reversed(pieces)]


def reflect(f):
    """The profile t -> f(b - t) of a ``SmoothFn1D``: f's pieces mirrored,
    whose junctions are f's, so not checked again (``_assembled``)."""
    return SmoothFn1D._assembled(f.b, _mirrored(f.pieces, f.b),
                                 f.junction_orders)


def linear_homotopy(f0, f1, s):
    """(1-s) * f0 + s * f1 on the shared domain.

    Membership in any of the convex families is preserved for every s in
    [0, 1] whenever both endpoints are members.  A non-finite s raises
    ``InvalidSpecError``, unequal domain lengths ``DomainMismatchError``.
    """
    if not _finite_reals(s):
        raise InvalidSpecError(f"s must be a finite number, got {s!r}")
    return LinearCombination([(1.0 - s, f0), (s, f1)])


# ---------------------------------------------------------------------------
# torpedo constructors
# ---------------------------------------------------------------------------

@dataclass
class TorpedoSpec:
    """Cap radius, straight tube length, and the C^2 blend window half-width.

    Along (0, b) the profile follows delta*sin(t/delta) up to
    cap - 2*blend_width (``cap`` = delta*pi/2), is a quintic interpolant
    (matched to order 2 at both ends) up to ``flat_from`` = cap + blend_width,
    and the constant delta from there to ``b`` = flat_from + tube_length.  The
    2:1 window split is what keeps the interpolant concave; a symmetric window
    overshoots.

    ``blend_width = 0``, or any width below 1e-6 of ``cap``, produces the
    classical merely-C^1 cap/tube junction.  Every size must be finite.
    """

    delta: float
    tube_length: float = 1.0
    blend_width: float | None = None

    def __post_init__(self):
        if not (_finite_reals(self.delta) and self.delta > 0):
            raise InvalidSpecError("delta must be positive and finite")
        if not (_finite_reals(self.tube_length) and self.tube_length >= 0):
            raise InvalidSpecError("tube_length must be finite and >= 0")
        if self.blend_width is None:
            self.blend_width = 0.25 * self.delta * np.pi / 2.0
        if not (_finite_reals(self.blend_width) and self.blend_width >= 0):
            raise InvalidSpecError("blend_width must be finite and >= 0")
        if self.blend_width >= 0.499 * self.delta * np.pi / 2.0:
            raise InvalidSpecError("blend_width must be below delta*pi/4")

    @property
    def cap(self):
        """End of the sine cap, where delta*sin(t/delta) reaches delta."""
        return self.delta * np.pi / 2.0

    @property
    def flat_from(self):
        """Where the profile becomes the constant delta."""
        return self.cap + self.blend_width

    @property
    def b(self):
        return self.flat_from + self.tube_length


def _quintic_match(t0, y0, t1, y1):
    """Quintic polynomial matching (value, d1, d2) = y0 at t0 and y1 at t1.

    Coefficients are returned in powers of (t - t0).
    """
    # row (x, k): the k-th derivative of each (t - t0)^j at t = t0 + x
    rows = [[math.perm(j, k) * x ** (j - k) if j >= k else 0.0
             for j in range(6)] for x in (0.0, t1 - t0) for k in range(3)]
    return np.linalg.solve(np.array(rows, dtype=float), np.array([*y0, *y1]))


@_Memo
def _torpedo_head(d, w, cap, te, tube):
    """(read-only cap and blend pieces up to te, junction orders) of a
    delta-torpedo of blend half-width w (0: none), checked (make_torpedo)."""
    ts = cap - 2.0 * w
    pieces = [SinePiece((0.0, ts), d, 1.0 / d)]
    if w:
        y0 = (d * np.sin(ts / d), np.cos(ts / d), -np.sin(ts / d) / d)
        coeffs = _quintic_match(ts, y0, te, (d, 0.0, 0.0))
        pieces.append(PolyPiece((ts, te), coeffs, origin=ts))
        _, d1, d2 = pieces[1].jet(np.linspace(ts, te, 257), 2)
        if d2.max() > 1e-10 / d:
            raise ConstructionFailedError(
                f"blend lost concavity: max d2 = {d2.max():.3e}")
        if d1.min() < -1e-10:
            raise ConstructionFailedError("blend must be nondecreasing")
    orders = (0, 1, 2) if w else (0, 1)
    # checks every junction, with a tube's if one follows (any length)
    tail = [ConstPiece((te, te + d), d)] if tube else []
    SmoothFn1D(te + d if tube else te, pieces + tail, orders)
    _frozen([[*vars(p).values()] for p in pieces])
    return pieces, orders


def make_torpedo(spec):
    """Cap/tube profile: sine cap of radius delta, constant tube, quintic blend.

    The blend joins them with C^2 junctions; one narrower than 1e-6 of the
    cap leaves their C^1 junction at ``spec.cap``.  The cap (f'' =
    -sin(t/delta)/delta <= 0, f' = cos(t/delta) >= 0) and the tube are
    concave and nondecreasing as written; ConstructionFailedError unless
    f'' <= 1e-10/delta and f' >= -1e-10 on 257 points of the blend.

    So it is in V by construction (at 0 f = f'' = 0, f' = 1, f''' < 0; at
    b f = delta, all derivatives 0; f'' <= 0, and < 0 on the cap), and its
    ``reflect`` is in U.  Per call it appends a tube to the cap and blend,
    built and checked, junctions too, once per shape (``_torpedo_head``).
    """
    if not isinstance(spec, TorpedoSpec):
        raise InvalidSpecError("make_torpedo expects a TorpedoSpec")
    d, cap, b = spec.delta, spec.cap, spec.b
    # below 1e-6 of the cap the quintic solve loses the blend's concavity
    w = spec.blend_width if spec.blend_width >= 1e-6 * cap else 0.0
    te = spec.flat_from if w else cap
    head, orders = _torpedo_head(d, w, cap, te, bool(b > te))
    tube = [ConstPiece((te, b), d)] if b > te else []
    return SmoothFn1D._assembled(b, head + tube, orders)


def _torpedo_on(delta, total):
    """The one layout of a delta-torpedo on (0, total): the default blend
    and the rest of the domain as tube.  No tube left raises."""
    tube = total - TorpedoSpec(delta).flat_from
    if not tube > 0:
        raise InvalidSpecError(f"domain too short: {total:.6g} leaves no "
                               f"tube after the cap of delta = {delta:.6g}")
    return TorpedoSpec(delta, tube_length=tube)


def make_double_torpedo(delta, b):
    """Mirror-symmetric profile: cap/tube on [0, b/2] reflected onto [b/2, b].

    Requires a finite real b with b/2 > cap + blend (``flat_from``) so each
    half keeps a tube; the mirror joins as the half does (``_assembled``).
    """
    if not _finite_reals(b):
        raise InvalidSpecError(f"b must be a finite real number, got {b!r}")
    half = make_torpedo(_torpedo_on(delta, b / 2.0))
    return SmoothFn1D._assembled(b, half.pieces + _mirrored(half.pieces, b),
                                 half.junction_orders)


# ---------------------------------------------------------------------------
# membership predicates
# ---------------------------------------------------------------------------

@dataclass
class ConditionResult:
    """One membership condition; every recorded condition can fail."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class MembershipReport:
    space: str
    conditions: list = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.conditions.append(ConditionResult(name, passed, detail))

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def failures(self):
        return [c for c in self.conditions if not c.passed]


# space -> (profile letter, kind of the end at 0, kind of the end at b).
# An end kind of +1 or -1 closes a fiber sphere there with f' = +-1; 0 is an
# open end where the profile stays positive.
_SPACES = {"F": ("f", 1, -1), "U": ("u", 0, -1), "V": ("v", 1, 0)}

# tolerances of the membership conditions: |value| at an end, max f'' on the
# grid, and the near-end windows' width as a fraction of b and samples each
_END_TOL = 1e-8
_CONCAVITY_SLACK = 1e-12
_END_WINDOW = 0.05
_WINDOW_SAMPLES = 32


def _check_membership(f, space):
    """Membership of a profile ``f`` on (0, b) in one of the ``_SPACES``,
    read from one ``f.jet(., 3)`` call on the uniform grid, the near-end
    windows, then the ends 0 and b.

    A closing end needs f = 0, f' = +-1, f'' = 0, the sign of f''' that
    rounds off the closing fiber, and f'' < 0 nearby; an open end needs
    f > 0 and vanishing odd derivatives.  Every space asks for f'' <= 0 on
    the uniform grid.  The report lists only these conditions: derivatives
    above order 3 are not representable, so none is recorded.
    """
    letter, kind0, kindb = _SPACES[space]
    b = f.b
    t = sample_grid(b)
    w = _END_WINDOW * b
    lo = np.linspace(0.0, w, _WINDOW_SAMPLES + 1)[1:]   # not the ends
    hi = np.linspace(b - w, b, _WINDOW_SAMPLES + 1)[:-1]
    jet = f.jet(np.concatenate([t, lo, hi, [0.0, b]]), 3)
    rep = MembershipReport(f"{space}(0,{b:g})")
    d2 = jet[2][:-2]
    near = {"0": d2[t.size:t.size + _WINDOW_SAMPLES],
            "b": d2[t.size + _WINDOW_SAMPLES:]}
    for e, kind, end in (("0", kind0, -2), ("b", kindb, -1)):
        v0, v1, v2, v3 = (float(x[end]) for x in jet)
        if kind:
            rep.add(f"{letter}({e})=0", abs(v0) <= _END_TOL, f"value {v0:.3e}")
            rep.add(f"d1({e})={kind}", abs(v1 - kind) <= _END_TOL,
                    f"value {v1:.6g}")
            rep.add(f"d2({e})=0", abs(v2) <= _END_TOL)
            rep.add(f"d3({e}) {'<' if kind > 0 else '>'} 0", kind * v3 < 0.0,
                    f"value {v3:.6g}")
            rep.add(f"d2 < 0 near {e}", bool((near[e] < 0).all()))
        else:
            rep.add(f"{letter}({e}) > 0", v0 > 0.0, f"value {v0:.6g}")
            rep.add(f"d1({e})=0", abs(v1) <= _END_TOL)
            rep.add(f"d3({e})=0", abs(v3) <= _END_TOL)
    m = float(d2[:t.size].max())
    rep.add("d2 <= 0 on grid", m <= _CONCAVITY_SLACK, f"max d2 = {m:.3e}")
    return rep


def check_F_membership(f):
    """Conditions for dt^2 + f^2 * (round fiber) to close at both ends."""
    return _check_membership(f, "F")


def check_U_membership(u):
    """Conditions for a profile positive at 0 that closes a fiber at b."""
    return _check_membership(u, "U")


def check_V_membership(v):
    """Mirror of ``check_U_membership``: closes at 0, positive at b."""
    return _check_membership(v, "V")
