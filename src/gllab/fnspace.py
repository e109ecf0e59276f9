"""Piecewise-analytic 1-D profile functions and their membership predicates.

Profiles are C^2 functions on (0, b) carrying derivative evaluation up to
order 3.  They are the carriers for every rotationally symmetric metric in the
toolkit: cap/tube ("torpedo") profiles, whose layout ``TorpedoSpec`` alone
decides, round-sphere profiles, and the deformation families built from them.

Three families of membership predicates are provided:

* ``check_F_membership``  -- profiles closing a sphere at both ends,
* ``check_U_membership``  -- profiles positive at 0 and closing at b,
* ``check_V_membership``  -- profiles closing at 0 and positive at b.

All three run one table of end conditions.  The families are convex, which
is what makes linear homotopies between members useful; see
``linear_homotopy``.

Every profile in the toolkit (``SmoothFn1D`` and ``LinearCombination`` here,
and the composite and blended profiles of ``hypersurface`` and ``glbend``) has
the same contract: a domain length ``b`` and ``jet(t, k)``, which returns
(f, f', ..., f^(k)) for k <= 3 from one evaluation pass.  Each analytic
piece is compiled to plain data when it is built; ``_run_jet`` reads it, to
the bit as numpy's polynomial evaluation would, and ``_piecewise`` gathers
each piece's run of the sorted points, found by one ``searchsorted``, as it
gathers the segments of a ``glbend.Curve2D``.  Only ``SmoothFn1D`` serialises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .certify import write_csv
from .errors import ConstructionFailedError, DomainMismatchError, InvalidSpecError

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


def sample_grid(b, density=DEFAULT_GRID_DENSITY, interior=False):
    """Uniform sample grid on [0, b] (or its open interior)."""
    n = max(int(np.ceil(b * density)), 16)
    if interior:
        return np.linspace(0.0, b, n + 2)[1:-1]
    return np.linspace(0.0, b, n + 1)


# ---------------------------------------------------------------------------
# analytic pieces
# ---------------------------------------------------------------------------

def _run_jet(compiled, u, k):
    """Orders 0..k at points u of a piece compiled as (the b of each t -> b - t
    around it, outermost first; origin; each order's coefficients or None;
    None or a sine's (A w^j, w, phase))."""
    bs, origin, cols, sine = compiled
    for b in bs:
        u = b - u
    if sine:
        amps, w, phase = sine
        arg = w * u + phase
        vals = [a * np.sin(arg + j * np.pi / 2.0)
                for j, a in enumerate(amps[:k + 1])]
    else:
        # numpy's Horner recurrence (c[-1] + u*0, then c + out*u): its bits
        u = u - origin if origin else u
        zero = u * 0.0
        vals = [reduce(lambda out, ci: ci + out * u, c[-2::-1], c[-1] + zero)
                for c in cols[:k + 1]]
    return [-v if j % 2 and len(bs) % 2 else v for j, v in enumerate(vals)]


def _finite_interval(kind, interval, *params):
    """The piece's (lo, hi) as floats; non-finite data is InvalidSpecError."""
    interval = (float(interval[0]), float(interval[1]))
    if not all(map(math.isfinite, interval + params)):
        raise InvalidSpecError(f"{kind} piece data must be finite")
    return interval


class _Piece:
    """An analytic piece: ``_compiled`` is what ``_run_jet`` reads."""

    def jet(self, t, k):
        return tuple(_run_jet(self._compiled, np.asarray(t, dtype=float), k))

    def end_jet(self, side, k):
        """The jet at the piece's own start (side 0) or end (side 1)."""
        return self.jet(self.interval[side], k)


class PolyPiece(_Piece):
    """Polynomial sum c_k (t - origin)^k on an interval."""

    kind = "poly"

    def __init__(self, interval, coeffs, origin=0.0):
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.origin = float(origin)
        self.interval = _finite_interval(self.kind, interval, self.origin,
                                         *self.coeffs.ravel().tolist())
        # orders 0..3 as repeated numpy polyder gives them; [] is 0
        cols = [self.coeffs.tolist() or [0.0]]
        for _ in range(3):
            c = cols[-1]
            cols.append([j * c[j] for j in range(1, len(c))] or [c[0] * 0])
        self._compiled = ((), self.origin, cols, None)

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "coeffs": self.coeffs.tolist(), "origin": self.origin}


class SinePiece(_Piece):
    """A * sin(w*t + phase)."""

    kind = "sine"

    def __init__(self, interval, amplitude, frequency, phase=0.0):
        self.amplitude = float(amplitude)
        self.frequency = float(frequency)
        self.phase = float(phase)
        self.interval = _finite_interval(self.kind, interval, self.amplitude,
                                         self.frequency, self.phase)
        self._compiled = ((), 0.0, None, (
            [self.amplitude * self.frequency ** j for j in range(4)],
            self.frequency, self.phase))

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "coeffs": [self.amplitude, self.frequency, self.phase]}


class ConstPiece(_Piece):
    kind = "const"

    def __init__(self, interval, value):
        self.value = float(value)
        self.interval = _finite_interval(self.kind, interval, self.value)
        self._compiled = ((), 0.0, [[self.value], [0.0], [0.0], [0.0]], None)

    def to_json(self):
        return {"kind": self.kind, "interval": list(self.interval),
                "coeffs": [self.value]}


class ReflectPiece(_Piece):
    """Evaluates inner(b - t); reflection about the domain midpoint."""

    kind = "reflect"

    def __init__(self, interval, inner, b):
        self.inner = inner
        self.b = float(b)
        self.interval = _finite_interval(self.kind, interval, self.b)
        bs, *leaf = inner._compiled
        self._compiled = ((self.b, *bs), *leaf)

    def end_jet(self, side, k):
        """The inner piece's jet at its mirrored end, odd orders negated:
        exact, where evaluating at b - t would round."""
        return tuple(-v if j % 2 else v
                     for j, v in enumerate(self.inner.end_jet(1 - side, k)))

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
    """t as a float array after checking the jet order k and that t lies
    in [0, b] (up to rounding); a NaN point lies nowhere."""
    if k not in (0, 1, 2, 3):
        raise InvalidSpecError(f"jet order must be 0..3, got {k!r}")
    t = np.asarray(t, dtype=float)
    # asks that both bounds hold: NaN compares false with either
    if t.size and not (t.min() >= -1e-9 * max(1.0, b)
                       and t.max() <= b * (1 + 1e-9) + 1e-9):
        raise InvalidSpecError(
            f"evaluation outside [0, {b}]: range [{t.min()}, {t.max()}]")
    return t


def _piecewise(x, breaks, part, tails):
    """Gather ``part(i, xi)``, the arrays of piece i at its share xi of the
    points x, into one array of shape x.shape + tail per entry of ``tails``
    (shape tail for scalar x).  Piece i owns [breaks[i-1], breaks[i]) of
    the increasing interior ``breaks``; with the points in increasing order
    (argsorted if not), one searchsorted finds each piece's run."""
    xv = np.ravel(x)
    order = None
    if len(breaks) and xv.size > 1 and not (xv[1:] >= xv[:-1]).all():
        order = np.argsort(xv, kind="stable")
        xv = xv[order]
    ends = [0, *np.searchsorted(xv, breaks).tolist(), xv.size]
    outs = [np.empty(xv.shape + tail) for tail in tails]
    for i, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if lo < hi:
            for out, val in zip(outs, part(i, xv[lo:hi])):
                out[lo:hi] = val
    if order is not None:
        for out in outs:
            out[order] = out.copy()
    return tuple(out.reshape(np.shape(x) + out.shape[1:]) if np.ndim(x)
                 else out[0] for out in outs)


class SmoothFn1D:
    """Piecewise-analytic C^2 function on (0, b), derivatives up to order 3.

    ``pieces`` must tile [0, b] with strictly increasing breakpoints.  At every
    interior breakpoint the adjacent pieces must agree in value and in the
    derivative orders listed in ``junction_orders`` (default: 0, 1, 2 -- the
    C^2 contract) to within ``DEFAULT_JUNCTION_TOL``, each piece read at its
    own end (``end_jet``), so a mirror passes when its source does.  ``jet``
    reads the pieces' compiled data: they are the four piece classes here.
    """

    def __init__(self, b, pieces, junction_orders=(0, 1, 2)):
        self.b = float(b)
        self.pieces = list(pieces)
        self.junction_orders = tuple(junction_orders)
        if not 0 < self.b < np.inf:
            raise InvalidSpecError("domain length must be positive and finite")
        if not self.pieces:
            raise InvalidSpecError("need at least one piece")
        self._validate_partition()
        self._validate_junctions()
        # interior breakpoints for piece lookup
        self._breaks = np.array([p.interval[1] for p in self.pieces[:-1]])

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
        for left, right in zip(self.pieces, self.pieces[1:]):
            t = left.interval[1]
            ljet, rjet = left.end_jet(1, k), right.end_jet(0, k)
            for order in self.junction_orders:
                lv, rv = float(ljet[order]), float(rjet[order])
                scale_ = max(1.0, abs(lv), abs(rv))
                if not abs(lv - rv) <= DEFAULT_JUNCTION_TOL * scale_:
                    raise InvalidSpecError(
                        f"junction at t={t:.6g} fails C{order} contract: "
                        f"{lv!r} vs {rv!r}")

    def jet(self, t, k=2):
        """(f, f', ..., f^(k))(t) for k <= 3; scalars for scalar t."""
        return _piecewise(
            _jet_points(t, k, self.b), self._breaks,
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


def _combine_jets(terms, term_jet, t, k):
    """sum_i w_i f_i^(j)(t), j <= k, of ``terms`` (w_i, f_i).

    ``term_jet(f)`` gives f's jet at t to order k or more.  Zero weights
    are skipped and the weighted jets added in term order onto 0.0, so any
    caller that supplies the same term jets gets the same bits.
    """
    outs = [np.zeros_like(t)] * (k + 1)
    for w, f in terms:
        if w != 0.0:
            outs = [o + w * d for o, d in zip(outs, term_jet(f))]
    return tuple(o[()] for o in outs)


class LinearCombination:
    """The profile sum_i w_i f_i of ``terms`` (w_i, f_i) on one domain.

    Each term is any profile (``b`` and ``jet``); the combination reads
    nothing else of it.  ``jet`` is ``_combine_jets`` over the term jets.
    No terms raise ``InvalidSpecError``, terms whose domain lengths differ
    by more than 1e-9 relative ``DomainMismatchError``.
    """

    def __init__(self, terms):
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
        t = _jet_points(t, k, self.b)
        return _combine_jets(self.terms, lambda f: f.jet(t, k), t, k)

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
    """The profile t -> f(b - t) on the same domain."""
    return SmoothFn1D(f.b, _mirrored(f.pieces, f.b), f.junction_orders)


def linear_homotopy(f0, f1, s):
    """(1-s) * f0 + s * f1 on the shared domain.

    Membership in any of the convex families is preserved for every s in
    [0, 1] whenever both endpoints are members.
    Endpoints whose domain lengths differ raise ``DomainMismatchError``.
    """
    s = float(s)
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
        if not 0 < self.delta < np.inf:
            raise InvalidSpecError("delta must be positive and finite")
        if not 0 <= self.tube_length < np.inf:
            raise InvalidSpecError("tube_length must be finite and >= 0")
        if self.blend_width is None:
            self.blend_width = 0.25 * self.delta * np.pi / 2.0
        if not 0 <= self.blend_width < np.inf:
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
    h = t1 - t0
    fact = [1.0, 1.0, 2.0]
    rows = []
    rhs = []
    for k in range(3):
        row = np.zeros(6)
        row[k] = fact[k]
        rows.append(row)
        rhs.append(y0[k])
    for k in range(3):
        row = np.zeros(6)
        for j in range(k, 6):
            c = 1.0
            for m in range(k):
                c *= (j - m)
            row[j] = c * h ** (j - k)
        rows.append(row)
        rhs.append(y1[k])
    coeffs = np.linalg.solve(np.array(rows), np.array(rhs))
    return coeffs


def make_torpedo(spec):
    """Cap/tube profile: sine cap of radius delta, constant tube, quintic blend.

    The blend joins them with C^2 junctions; one narrower than 1e-6 of the
    cap leaves their C^1 junction at ``spec.cap``.  The cap (f'' =
    -sin(t/delta)/delta <= 0, f' = cos(t/delta) >= 0) and the tube are
    concave and nondecreasing as written; ConstructionFailedError unless
    f'' <= 1e-10/delta and f' >= -1e-10 on 257 points of the blend.
    """
    if not isinstance(spec, TorpedoSpec):
        raise InvalidSpecError("make_torpedo expects a TorpedoSpec")
    d, cap, b = spec.delta, spec.cap, spec.b
    # below 1e-6 of the cap the quintic solve loses the blend's concavity
    w = spec.blend_width if spec.blend_width >= 1e-6 * cap else 0.0
    ts, te = cap - 2.0 * w, (spec.flat_from if w else cap)
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
    if b > te:
        pieces.append(ConstPiece((te, b), d))
    return SmoothFn1D(b, pieces, (0, 1, 2) if w else (0, 1))


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

    Requires b/2 > cap + blend (``flat_from``) so each half keeps a tube.
    """
    half = make_torpedo(_torpedo_on(delta, b / 2.0))
    return SmoothFn1D(b, half.pieces + _mirrored(half.pieces, b),
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

    def __repr__(self):
        status = "pass" if self.passed else "FAIL"
        return f"<MembershipReport {self.space}: {status} ({len(self.conditions)} conditions)>"


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


def _membership_points(b):
    """The points at which a membership check reads a profile on (0, b):
    the uniform grid, the near-end windows, then the ends 0 and b."""
    t = sample_grid(b)
    w = _END_WINDOW * b
    lo = np.linspace(0.0, w, _WINDOW_SAMPLES + 1)[1:]   # not the ends
    hi = np.linspace(b - w, b, _WINDOW_SAMPLES + 1)[:-1]
    return np.concatenate([t, lo, hi, [0.0, b]])


def _membership_report(jet, space, b):
    """Membership in one of the ``_SPACES`` of a profile on (0, b), read
    from its jet to order 3 at ``_membership_points(b)``.

    A closing end needs f = 0, f' = +-1, f'' = 0, the sign of f''' that
    rounds off the closing fiber, and f'' < 0 nearby; an open end needs
    f > 0 and vanishing odd derivatives.  Every space asks for f'' <= 0 on
    the uniform grid.  The report lists only these conditions: derivatives
    above order 3 are not representable, so none is recorded.
    """
    letter, kind0, kindb = _SPACES[space]
    rep = MembershipReport(f"{space}(0,{b:g})")
    d2 = jet[2][:-2]
    n_grid = d2.size - 2 * _WINDOW_SAMPLES
    near = {"0": d2[n_grid:n_grid + _WINDOW_SAMPLES],
            "b": d2[n_grid + _WINDOW_SAMPLES:]}
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
    m = float(d2[:n_grid].max())
    rep.add("d2 <= 0 on grid", m <= _CONCAVITY_SLACK, f"max d2 = {m:.3e}")
    return rep


def _check_membership(f, space):
    """Membership of ``f`` in one of the ``_SPACES``: one ``f.jet(., 3)``
    call at ``_membership_points``, read by ``_membership_report``."""
    return _membership_report(f.jet(_membership_points(f.b), 3), space, f.b)


def check_F_membership(f):
    """Conditions for dt^2 + f^2 * (round fiber) to close at both ends."""
    return _check_membership(f, "F")


def check_U_membership(u):
    """Conditions for a profile positive at 0 that closes a fiber at b."""
    return _check_membership(u, "U")


def check_V_membership(v):
    """Mirror of ``check_U_membership``: closes at 0, positive at b."""
    return _check_membership(v, "V")
