"""Synthesis and certification of the bending curve gamma.

The curve lives in the (t, r) half plane, starts on the r-axis pointing
straight down, bends twice (an initial small-angle bend, then a transition
back to horizontal), and finishes in a cap/tube ("torpedo") tail meeting the
t-axis.  Rotating the ambient product metric around it produces the surgery
metric; positivity of the induced scalar curvature reduces to a pointwise
inequality along the curve relating its curvature k, its height r, and the
angle theta of the outward normal against the horizontal.  Its margin is
taken by ``check_cureqn``, and the least sampled margin is certified: a NaN
sample is the least and fails, and a concave-down sample (+inf) is the
least only if every sample is.

The geometry of a bend depends only on its scales and its bend angle, not
on the constants of the inequality.  So the prefix with its bump's terms
for each (r1, theta0), the transition shape for each (r0, theta0) and the
curve glued from each prefix and transition are kept in small LRU memos
(``certify._Memo``), a curve keeps its own arc-length samples and their
terms, and all of them are shared by every call with the same key; the
margin (``_cureqn_margin``), and every check of a build, is taken again on
each call against its own constants.

A curve (``Curve2D``) is a chain of unit-speed segments.  Each segment's
``eval(s, k)`` gives position, tangent and curvature, and with k = 3 also
the curvature's arc-length derivative, from one pass; the curve gathers
them with ``fnspace._piecewise``, one run of sorted arc lengths each.

The inequality ledger is, from strongest to weakest assumption:

* ``check_cureqn``   k (1 + C' r^2) < R0 r/sin(theta) + (q-1) sin(theta)/r
                     - C r sin(theta)   (always true when k <= 0)
* ``check_diffkeqn`` f'' < (1 + f'^2)/(2 f), the graph form of
                     k < sin(theta)/(2 r)  (valid for r <= r0, theta >= theta0)

Conventions (fixed throughout): unit-speed curves with tangent
T = (sin(theta), -cos(theta)), so theta = atan2(T_t, -T_r) (``_normal_angle``);
k = dtheta/ds is the standard planar signed curvature; for a graph r = f(t)
traversed with increasing t this gives k = f''/(1 + f'^2)^(3/2) and
sin(theta) = 1/sqrt(1 + f'^2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .certify import (IsotopyCertificate, _family_grid, _frozen,
                      _halving_search, _Memo, family_certificate, write_csv)
from .errors import (AssemblyError, ConstructionFailedError, InvalidBendError,
                     InvalidSpecError, InversionError, NoFeasibleBendError,
                     OutOfRegimeError, TiltTooLargeError, _check_ints,
                     _finite_reals)
from .fnspace import (PolyPiece, SmoothFn1D, TorpedoSpec, _jet_points,
                      _piecewise, _quintic_match, make_torpedo, reflect)

__all__ = [
    "BendConstants",
    "TransitionParams",
    "Curve2D",
    "LineSeg",
    "ArcSeg",
    "BumpSeg",
    "GraphSeg",
    "BendProfile",
    "check_cureqn",
    "check_diffkeqn",
    "mu_inequality",
    "initial_bend",
    "synth_transition",
    "assemble_gamma",
    "final_bending_tilt",
    "final_isotopy",
    "quarter_bend_curve",
    "write_bend_csv",
]


@dataclass
class BendConstants:
    """Constants entering the curve inequality.

    R0 is (inf of the ambient scalar curvature)/(2q); C bounds the O(1)
    ambient correction, Cp the O(r) one (both zero in the exact product
    model); q >= 2 is the fiber sphere dimension (codimension >= 3).
    """

    R0: float
    C: float = 0.0
    Cp: float = 0.0
    q: int = 2

    def __post_init__(self):
        _check_ints(2, "q must be >= 2 (codimension >= 3)", q=self.q)
        if not (_finite_reals(self.R0, self.C, self.Cp)
                and min(self.R0, self.C, self.Cp) >= 0):
            raise InvalidSpecError("R0, C, Cp must be nonnegative and finite")

    def r0_bound(self):
        """Upper bound on r0 for the keqn regime: min(1/sqrt(4C), 1/sqrt(2C'))."""
        vals = []
        if self.C > 0:
            vals.append(1.0 / np.sqrt(4.0 * self.C))
        if self.Cp > 0:
            vals.append(1.0 / np.sqrt(2.0 * self.Cp))
        return min(vals) if vals else np.inf


# ---------------------------------------------------------------------------
# the inequality ledger
# ---------------------------------------------------------------------------

def _cureqn_terms(k, r, theta):
    """The margin's inputs at samples (k, r, theta): k and r, then, new and
    read-only, sin(theta) with 1 for 0, where it was 0 (rhs +inf) and
    where k <= 0 (margin +inf)."""
    k, r, s = np.broadcast_arrays(
        np.asarray(k, dtype=float), np.asarray(r, dtype=float),
        np.sin(np.asarray(theta, dtype=float)))
    return (k, r, *_frozen(np.where(s == 0.0, 1.0, s), s == 0.0, k <= 0.0))


def _cureqn_margin(consts, terms):
    """The margin on ``terms`` (``_cureqn_terms``) under ``consts``: the
    right-hand side R0 r/s + (q-1) s/r - C r s at heights r and sines s
    (+inf where sin(theta) = 0), less k (1 + C' r^2)."""
    k, r, s, zero, concave = terms
    with np.errstate(divide="ignore"):
        rhs = np.where(zero, np.inf, consts.R0 * r / s
                       + (consts.q - 1) * s / r - consts.C * r * s)
    return np.where(concave, np.inf, rhs - k * (1.0 + consts.Cp * r ** 2))


def check_cureqn(consts, k, r, theta):
    """Margin of the curve inequality; pass iff > 0.

    Concave-down data (k <= 0) always passes and reports +inf.  It is
    ``_cureqn_margin`` on terms built on each call; a curve keeps its own
    (``Curve2D.arc_samples``), a bend's bump its own (``_bump_geometry``).
    """
    margin = _cureqn_margin(consts, _cureqn_terms(k, r, theta))
    return float(margin) if margin.ndim == 0 else margin


def _normal_angle(tan):
    """theta = atan2(T_t, -T_r): the normal angle of a unit tangent T."""
    return np.arctan2(tan[..., 0], -tan[..., 1])


def _graph_margin(jet):
    """(1 + f'^2)/(2 f) - f'' from the jet (f, f', f'')."""
    F, d1, d2 = jet
    return (1.0 + d1 ** 2) / (2.0 * F) - d2


def check_diffkeqn(f):
    """Min of (1 + f'^2)/(2 f) - f'' on 10001 points of [0, b]; pass iff > 0.

    A profile that is not positive on the grid reads -inf.
    """
    jet = f.jet(np.linspace(0.0, f.b, 10001), 2)
    if np.min(jet[0]) <= 0:
        return -np.inf
    return float(np.min(_graph_margin(jet)))


def mu_inequality(mu, b):
    """mu^3 b - mu b - mu + 1; nonnegative on [0,1] x [0, 1/4), zero at mu=1."""
    mu = np.asarray(mu, dtype=float)
    b = np.asarray(b, dtype=float)
    return mu ** 3 * b - mu * b - mu + 1.0


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

# Newton/bisection steps allowed per point in _invert_monotone
_INVERT_MAX_ITER = 100


def _monotone_table(xs, Fs):
    """The checked table ``_invert_monotone`` reads: (nodes, sign * F, sign,
    1e-12 max |F|); InversionError unless finite, increasing and monotone."""
    xs, Fs = np.asarray(xs, dtype=float), np.asarray(Fs, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(Fs))):
        raise InversionError("inverted function is not finite on its table")
    sign = 1.0 if Fs[-1] > Fs[0] else -1.0
    if not (np.all(np.diff(xs) > 0) and np.all(sign * np.diff(Fs) > 0)):
        raise InversionError("inverted function is not strictly monotone "
                             f"on [{xs[0]}, {xs[-1]}]")
    return xs, sign * Fs, sign, 1e-12 * float(np.abs(Fs).max())


def _invert_monotone(F, y, table):
    """Solve F(x) = y for every entry of y at once.

    ``F`` maps an array x to the pair (F(x), F'(x)) from one evaluation;
    ``table`` is a ``_monotone_table`` of F, whose first and last nodes are
    the interval searched.  Each x is seeded by linear interpolation in the
    table and bracketed by its table cell.  Safeguarded Newton steps follow;
    a step that would leave the bracket, or that fails to halve the one
    before, is replaced by bisection, and every evaluation shrinks the
    bracket.  A point stops when its step or bracket is within a few ulps
    of the interval scale (x_tol, about 1e-15 relative); a Newton step
    within x_tol has converged, even one that rounds onto the end of its
    bracket.

    Raises InversionError, carrying the worst residual |F(x) - y| where one
    exists, if some y lies outside the table's range of F (the residual is
    then its distance to that range), if F turns non-finite during the
    search, or if some point is unconverged after ``_INVERT_MAX_ITER`` steps
    or converged with a residual far above rounding (a jump in F).
    """
    y = np.asarray(y, dtype=float)
    shape = y.shape
    y = y.ravel()
    # residuals up to y_tol count as rounding: a y that far outside the
    # range is clamped to its end, and a converged x may leave that much
    xs, Gs, sign, y_tol = table
    yy = sign * y
    outside = ~((yy >= Gs[0] - y_tol) & (yy <= Gs[-1] + y_tol))
    if outside.any():
        miss = float(np.max(np.maximum(Gs[0] - yy, yy - Gs[-1])))
        raise InversionError(
            f"target {y[outside][0]!r} outside the range "
            f"{sorted(sign * Gs[[0, -1]])}", residual=miss)
    yy = np.clip(yy, Gs[0], Gs[-1])
    cell = np.clip(np.searchsorted(Gs, yy), 1, xs.size - 1)
    x_lo, x_hi = xs[cell - 1], xs[cell]
    x = np.interp(yy, Gs, xs)
    last = x_hi - x_lo
    x_tol = 4.0 * np.finfo(float).eps * max(abs(xs[0]), abs(xs[-1]))
    g = np.zeros_like(x)
    act = np.arange(x.size)
    for _ in range(_INVERT_MAX_ITER):
        if act.size == 0:
            break
        xa = x[act]
        Fa, dFa = F(xa)
        ga = sign * np.asarray(Fa, dtype=float) - yy[act]
        if not np.all(np.isfinite(ga)):
            raise InversionError(
                "inverted function turned non-finite during the search")
        g[act] = ga
        lo_a = np.where(ga < 0, xa, x_lo[act])
        hi_a = np.where(ga > 0, xa, x_hi[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            xn = xa - ga / (sign * np.asarray(dFa, dtype=float))
        converged = np.abs(xn - xa) <= x_tol
        bisect = ~converged & (~((xn > lo_a) & (xn < hi_a))
                               | (np.abs(xn - xa) > 0.5 * np.abs(last[act])))
        xn = np.where(bisect, 0.5 * (lo_a + hi_a), np.clip(xn, lo_a, hi_a))
        step = xn - xa
        x[act] = np.where(ga == 0, xa, xn)
        x_lo[act], x_hi[act], last[act] = lo_a, hi_a, step
        done = (ga == 0) | (np.abs(step) <= x_tol) | (hi_a - lo_a <= x_tol)
        act = act[~done]
    if act.size:
        worst = float(np.abs(g[act]).max())
        raise InversionError(
            f"{act.size} points unconverged after {_INVERT_MAX_ITER} steps; "
            f"worst residual {worst:.3e}", residual=worst)
    worst = float(np.abs(g).max()) if g.size else 0.0
    if worst > y_tol:
        raise InversionError(
            f"inversion residual {worst:.3e} exceeds {y_tol:.3e} "
            f"(inverted function not continuous?)", residual=worst)
    return x.reshape(shape)


def brentq(F, y, lo, hi):
    """The x in [lo, hi] with F(x) = y, by ``_invert_monotone`` on 65 nodes.
    Nothing in the package calls it; it keeps the name of scipy's root
    finder, which it replaced, because perfbench's tracer and self-check
    look up ``glbend.brentq``."""
    xs = np.linspace(lo, hi, 65)
    return float(_invert_monotone(F, y, _monotone_table(xs, F(xs)[0])))


class _HermiteTable:
    """F0 + the integral of dF from edges[0], as a cubic Hermite table.

    Node values are cumulative 8-point Gauss-Legendre integrals over the
    cells between ``edges``; node slopes are dF itself, so no spline system
    is solved.  On a cell of width h where dF is smooth the table is off by
    at most h^4/384 max|dF'''|, so the edges must hold every point where dF
    is less smooth.  Calling the table returns (F, F').
    """

    # 8-point Gauss-Legendre rule on [-1, 1]
    GL_X, GL_W = np.polynomial.legendre.leggauss(8)

    def __init__(self, dF, edges, F0=0.0):
        self.x = np.asarray(edges, dtype=float)
        half = 0.5 * np.diff(self.x)
        gauss = dF(self.x[:-1, None] + half[:, None] * (1 + self.GL_X))
        self.F = F0 + np.cumsum(np.r_[0.0, half * (gauss @ self.GL_W)])
        self.dF = dF(self.x)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        i = np.searchsorted(self.x[1:-1], x, side="right")
        h = self.x[i + 1] - self.x[i]
        u = (x - self.x[i]) / h
        v, jump = 1.0 - u, self.F[i + 1] - self.F[i]
        m0, m1 = h * self.dF[i], h * self.dF[i + 1]
        return (self.F[i] + u * u * (3.0 - 2.0 * u) * jump
                + u * v * (v * m0 - u * m1),
                (6.0 * u * v * jump + v * (1.0 - 3.0 * u) * m0
                 + u * (3.0 * u - 2.0) * m1) / h)


# ---------------------------------------------------------------------------
# curve segments
# ---------------------------------------------------------------------------

# cells of a BumpSeg's position tables and per piece of a GraphSeg's table:
# the least powers of two within 1e-13 of adaptive quad on the tested bends
_BUMP_CELLS = 1024
_GRAPH_CELLS = 512


class LineSeg:
    kind = "line"

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        if not np.isfinite([self.p0, self.p1]).all():
            raise InvalidSpecError("line segment needs finite endpoints")
        d = self.p1 - self.p0
        self.length = float(np.linalg.norm(d))
        if self.length <= 0:
            raise InvalidSpecError("degenerate line segment")
        self.dir = d / self.length

    def eval(self, s, k=2):
        shape = np.shape(s)
        out = (self.p0 + np.multiply.outer(np.asarray(s, dtype=float),
                                           self.dir),
               np.tile(self.dir, shape + (1,)), np.zeros(shape))
        return out + (np.zeros(shape),) if k == 3 else out


class ArcSeg:
    """Circular arc; ``ccw`` decides the traversal (and the curvature sign)."""

    kind = "arc"

    def __init__(self, center, radius, ang0, ang1):
        self.center = np.asarray(center, dtype=float)
        if not (_finite_reals(radius, ang0, ang1) and radius > 0
                and ang0 != ang1 and np.isfinite(self.center).all()):
            raise InvalidSpecError("degenerate or non-finite arc")
        self.radius, self.ang0, self.ang1 = map(float, (radius, ang0, ang1))
        self.length = self.radius * abs(self.ang1 - self.ang0)
        self.orient = 1.0 if self.ang1 > self.ang0 else -1.0

    def eval(self, s, k=2):
        ang = self.ang0 + self.orient * np.asarray(s, dtype=float) / self.radius
        pt = self.center + self.radius * np.stack(
            [np.cos(ang), np.sin(ang)], axis=-1)
        tan = self.orient * np.stack([-np.sin(ang), np.cos(ang)], axis=-1)
        out = pt, tan, np.full(np.shape(s), self.orient / self.radius)
        return out + (np.zeros(np.shape(s)),) if k == 3 else out


class BumpSeg:
    """Curvature-defined segment: raised-cosine curvature bump.

    k(s) = k_max (1 - cos(2 pi s / L)) / 2 on [0, L]; the turning angle is
    theta(s) = k_max/2 (s - (L/2 pi) sin(2 pi s/L)), total k_max L / 2.
    Starting tangent is (sin theta_in, -cos theta_in); the positions t(s)
    and r(s) are ``_HermiteTable``s of the tangent on _BUMP_CELLS equal
    cells, each off by at most h^4/384 max|d^3 T/ds^3|.
    """

    kind = "bump"

    def __init__(self, start, theta_in, k_max, length):
        self.start = np.asarray(start, dtype=float)
        if not (_finite_reals(theta_in, k_max, length) and length > 0
                and k_max >= 0):
            raise InvalidSpecError("bump needs positive length, k_max >= 0")
        self.theta_in, self.k_max, self.length = (float(theta_in),
                                                  float(k_max), float(length))
        edges = np.linspace(0.0, self.length, _BUMP_CELLS + 1)
        self._t = _HermiteTable(lambda s: np.sin(self.theta(s)), edges,
                                self.start[0])
        self._r = _HermiteTable(lambda s: -np.cos(self.theta(s)), edges,
                                self.start[1])

    def theta(self, s):
        s, L = np.asarray(s, dtype=float), self.length
        return self.theta_in + 0.5 * self.k_max * (
            s - (L / (2 * np.pi)) * np.sin(2 * np.pi * s / L))

    def eval(self, s, k=2):
        s = np.asarray(s, dtype=float)
        th = self.theta(s)
        pt = np.stack([self._t(s)[0], self._r(s)[0]], axis=-1)
        tan = np.stack([np.sin(th), -np.cos(th)], axis=-1)
        kap = 0.5 * self.k_max * (1.0 - np.cos(2 * np.pi * s / self.length))
        if k < 3:
            return pt, tan, kap
        w = 2 * np.pi / self.length
        return pt, tan, kap, 0.5 * self.k_max * w * np.sin(w * s)

    @property
    def end(self):
        return np.array([self._t.F[-1], self._r.F[-1]])


class GraphSeg:
    """Arc-length parameterization of the graph r = prof(t - t_offset).

    ``prof`` is a piecewise profile (``b``, ``pieces``, ``jet``); the
    segment covers t in [t_offset, t_offset + b].  The arc length S(t) is a
    ``_HermiteTable`` of S' = sqrt(1 + prof'^2) on _GRAPH_CELLS equal cells
    per piece of ``prof`` (a profile is only C^2 at its breakpoints), off by
    at most h^4/384 max|S''''| on a cell of width h.  Since S' >= 1, S is
    strictly increasing, and t(s) is found for all s at once by
    ``_invert_monotone`` on the table's own nodes and values, checked once
    here.
    """

    kind = "graph"

    def __init__(self, prof, t_offset=0.0):
        if not _finite_reals(t_offset):
            raise InvalidSpecError("graph offset must be a finite number")
        self.prof = prof
        self.t_offset = float(t_offset)
        knots = [p.interval[0] for p in prof.pieces] + [prof.b]
        cells = np.arange((len(knots) - 1) * _GRAPH_CELLS + 1) / _GRAPH_CELLS
        self._table = _HermiteTable(
            lambda t: np.sqrt(1.0 + prof.jet(t, 1)[1] ** 2),
            np.interp(cells, np.arange(len(knots)), knots))
        self.length = float(self._table.F[-1])
        self._inverse_table = _monotone_table(self._table.x, self._table.F)

    def _t_of_s(self, s):
        """Graph parameter t at arc length s; exact at both ends."""
        s = np.clip(np.asarray(s, dtype=float), 0.0, self.length)
        xs = self._inverse_table[0]
        out = np.where(s <= 0.0, xs[0], xs[-1])
        inner = (s > 0.0) & (s < self.length)
        if inner.any():
            out[inner] = _invert_monotone(self._table, s[inner],
                                          self._inverse_table)
        return out[()]

    def eval(self, s, k=2):
        """(P, T, kappa) at t(s), from one solve for t(s); with k = 3 also
        dkappa/ds = (f''' - 3 f' f''^2/(1 + f'^2))/(1 + f'^2)^2."""
        tl = self._t_of_s(s)
        F, d1, d2, *d3 = self.prof.jet(tl, 3 if k == 3 else 2)
        sp2 = 1.0 + d1 ** 2
        sp = np.sqrt(sp2)
        pt = np.stack([tl + self.t_offset, F], axis=-1)
        tan = np.stack([1.0 / sp, d1 / sp], axis=-1)
        kap = d2 / sp ** 3
        if k < 3:
            return pt, tan, kap
        return pt, tan, kap, (d3[0] - 3.0 * d1 * d2 ** 2 / sp2) / sp2 ** 2


class Curve2D:
    """Unit-speed piecewise curve in the (t, r) plane."""

    def __init__(self, segments):
        self.segments = list(segments)
        if not self.segments:
            raise InvalidSpecError("need at least one segment")
        self.cum = np.concatenate(
            [[0.0], np.cumsum([seg.length for seg in self.segments])])
        self.length = float(self.cum[-1])
        self._breaks = tuple(self.cum[1:-1].tolist())
        self._samples = None  # (n, the arrays of arc_samples(n))

    def eval(self, s, k=2):
        """(P, T, kappa)(s): position, unit tangent and signed curvature,
        and with k = 3 also kappa' = dkappa/ds.  s must lie in [0, length]
        and k in 0..3 (``fnspace._jet_points``)."""
        return _piecewise(
            *_jet_points(s, k, self.length), self._breaks,
            lambda i, sl: self.segments[i].eval(sl - self.cum[i], k),
            ((2,), (2,), ()) + (((),) if k == 3 else ()))

    def jet(self, s, k=2):
        """(P, P', ..., P^(k))(s) for k <= 3, each with a trailing (t, r)
        axis: P' = T, P'' = kappa N, P''' = kappa' N - kappa^2 T, with
        N = (-T_r, T_t) the left normal, all from one ``eval(s, k)``."""
        pt, tan, kap, *dk = self.eval(s, k)
        nrm = np.stack([-tan[..., 1], tan[..., 0]], axis=-1)
        out = (pt, tan, kap[..., None] * nrm)[:k + 1]
        if k < 3:
            return out
        return out + (dk[0][..., None] * nrm - (kap ** 2)[..., None] * tan,)

    def arc_samples(self, n):
        """(P, k, theta, terms) at n equal arc-length steps from one
        evaluation, read-only, kept with the curve for the last n asked;
        ``terms`` (``_cureqn_terms``) skip the last, where a bend closes."""
        if self._samples is None or self._samples[0] != n:
            pt, tan, k = self.eval(np.linspace(0.0, self.length, n))
            theta = _normal_angle(tan)
            self._samples = (n, (*_frozen(pt, k, theta), _cureqn_terms(
                k[:-1], pt[:-1, 1], theta[:-1])))
        return self._samples[1]

    def unit_speed_residual(self, n_samples=1000):
        h = 1e-6
        s = np.linspace(2 * h, self.length - 2 * h, n_samples)
        # skip samples straddling segment junctions, where the FD is biased
        keep = np.ones(len(s), dtype=bool)
        for c in self.cum[1:-1]:
            keep &= np.abs(s - c) > 3 * h
        s = s[keep]
        # fourth-order stencil: small-radius caps have position derivatives
        # growing like 1/r^3, so a second-order difference is too noisy
        p2, p1, m1, m2 = np.split(self.eval(np.concatenate(
            [s + 2 * h, s + h, s - h, s - 2 * h]))[0], 4)
        d = (-p2 + 8 * p1 - 8 * m1 + m2) / (12.0 * h)
        return float(np.abs(np.linalg.norm(d, axis=-1) - 1.0).max())

    def junction_residual(self):
        gaps = [0.0]
        for i in range(len(self.segments) - 1):
            pa, ta, _ = self.segments[i].eval(self.segments[i].length)
            pb, tb, _ = self.segments[i + 1].eval(0.0)
            gaps += [np.abs(pa - pb).max(), np.abs(ta - tb).max()]
        return float(np.max(gaps))


# ---------------------------------------------------------------------------
# bend profile
# ---------------------------------------------------------------------------

@dataclass
class BendProfile:
    """The full bending curve with its landmarks and certification data.

    Plain data: the landmarks' order follows from ``assemble_gamma``'s
    gluing once r0 < r1/2 holds (``_check_transition_level``)."""

    curve: Curve2D
    consts: BendConstants
    theta0: float
    landmarks: dict
    certificate: IsotopyCertificate = None

    def margins(self, n_samples=10000):
        """(s, t, r, k, theta, margin) arrays along the curve.

        t, r, k and theta are read-only views of the curve's own samples
        (``Curve2D.arc_samples``); the closing sample at the cap tip (r,
        k ~ 0, concave down) gets margin +inf.
        """
        if not n_samples >= 2:
            raise InvalidSpecError(
                f"need at least 2 arc-length samples, got {n_samples}")
        s = np.linspace(0.0, self.curve.length, n_samples)
        pt, k, theta, terms = self.curve.arc_samples(n_samples)
        margin = np.full(n_samples, np.inf)
        margin[:-1] = _cureqn_margin(self.consts, terms)
        return s, pt[:, 0], pt[:, 1], k, theta, margin

    def certify(self, n_samples=10000):
        """Certificate of the curve inequality under ``consts``, with
        ``argmin_s`` and ``argmin_t`` (``family_certificate``)."""
        s, t, _r, _k, _theta, margin = self.margins(n_samples)
        self.certificate = family_certificate(
            margin, {"s": s, "t": t}, "curve inequality",
            f"{n_samples} arc-length samples")
        return self.certificate


def write_bend_csv(profile, path_or_buf, n_samples=2048):
    """CSV emission of (s, t, r, k, theta, margin) along the curve."""
    write_csv(path_or_buf, "s,t,r,k,theta,margin",
              np.column_stack(profile.margins(n_samples)))


# ---------------------------------------------------------------------------
# the initial bend
# ---------------------------------------------------------------------------

# halvings of theta0 that initial_bend tries
_BEND_HALVINGS = 40


@_Memo
def _bump_geometry(r1, theta0):
    """(prefix curve, k_max, terms) of the bend to angle theta0 at scale r1,
    with terms (``_cureqn_terms``) at 2001 arc-length samples of its bump."""
    k_max = 4.0 * theta0 / r1
    bump = BumpSeg((0.0, r1), 0.0, k_max, r1 / 2.0)
    pt, tan, k = bump.eval(np.linspace(0.0, bump.length, 2001))
    prefix = Curve2D([LineSeg((0.0, 1.25 * r1), (0.0, r1)), bump])
    return prefix, k_max, _cureqn_terms(k, pt[:, 1], _normal_angle(tan))


def initial_bend(consts, r1):
    """Bend the vertical line to a small angle theta0 with a curvature bump.

    The curve starts at (0, r_bar), r_bar = 1.25 r1, and runs straight down
    to (0, r1).  The bump k(s) = k_max (1 - cos(4 pi s / r1))/2 has support
    length r1/2 and integral k_max r1/4 = theta0.  theta0 starts at the
    largest value allowed by the arcsin(sqrt(R0/C)) bound and
    tan^2(theta0) < 1/4, and is halved until the curve inequality holds with
    positive margin along the bump (2001 samples; a NaN fails).  Returns
    (prefix curve, theta0, k_max); an exhausted search raises
    NoFeasibleBendError with its best margin.

    The prefix curve and the bump's inequality terms of each (r1, theta0)
    are built once (``_bump_geometry``); only the margin under ``consts``
    is taken on every call.  The returned curve is shared by every call
    with the same (r1, theta0) and must not be mutated.
    """
    if consts.R0 <= 0:
        raise NoFeasibleBendError(
            "R0 must be strictly positive: with R0 = 0 no bend angle "
            "can satisfy the curve inequality near theta = 0")
    if not (_finite_reals(r1) and r1 > 0):
        raise InvalidSpecError("r1 must be positive and finite")
    cap = np.arctan(0.5) * 0.99  # tan^2(theta0) < 1/4
    if consts.C > 0:
        cap = min(cap, 0.99 * np.arcsin(min(1.0, np.sqrt(consts.R0 / consts.C))))

    def bend(theta0):
        # r >= r1/2 > 0: the bump starts at height r1, unit speed, length r1/2
        prefix, k_max, terms = _bump_geometry(float(r1), theta0)
        margin = float(np.min(_cureqn_margin(consts, terms)))
        return margin, (prefix, theta0, k_max)

    best, found = _halving_search(cap, bend, _BEND_HALVINGS)
    if found is None:
        raise NoFeasibleBendError(
            f"no feasible bend angle after {_BEND_HALVINGS} halvings "
            f"(best margin {best})", best_margin=best)
    return found


# ---------------------------------------------------------------------------
# the transition function
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransitionParams:
    """The six numbers the search of ``synth_transition`` chooses, shared by
    every call with its (r0, theta0), so frozen.  The landmarks t0 = 0, t0' =
    delta0, c = 1/(2 C1) and tinf' = C2 - delta_inf/2 are read where used."""

    r0: float
    m0: float
    delta0: float
    delta_inf: float
    C1: float
    C2: float

    def __post_init__(self):
        if not (self.C1 > 0 and self.C2 > 0):
            raise InvalidSpecError("C1 and C2 must be positive")

    @property
    def tinf(self):
        """Where the graph ends, turning horizontal."""
        return self.C2 + 0.5 * self.delta_inf

    @property
    def r_inf(self):
        """The graph's value at t_inf."""
        return 1.0 / (2.0 * self.C1) - self.C1 * self.delta_inf ** 2 / 48.0


def _transition_pieces(p):
    """The three polynomial pieces on [t0, t0'], [t0', tinf'], [tinf', tinf]."""
    c1, t0p, tinfp = p.C1, p.delta0, p.C2 - 0.5 * p.delta_inf
    piece1 = PolyPiece((0.0, t0p),
                       [p.r0, p.m0, 0.0, c1 / (12.0 * p.delta0)],
                       origin=0.0)
    # parabola c + (C1/4)(t - C2)^2 with c = 1/(2 C1), re-centered at t0'
    d = t0p - p.C2
    piece2 = PolyPiece((t0p, tinfp),
                       [1.0 / (2.0 * c1) + 0.25 * c1 * d ** 2, 0.5 * c1 * d,
                        0.25 * c1],
                       origin=t0p)
    piece3 = PolyPiece((tinfp, p.tinf),
                       [p.r_inf, 0.0, 0.0, -c1 / (12.0 * p.delta_inf)],
                       origin=p.tinf)
    return [piece1, piece2, piece3]


# halvings of delta0, and of delta_inf per delta0, that synth_transition tries
_TRANSITION_HALVINGS = 30


def synth_transition(consts, r0, theta0):
    """Three-piece C^2 graph bending slope m0 = -1/tan(theta0) to horizontal.

    Pieces (cubic-in, parabola, cubic-out) are glued with C^2 junctions made
    automatic by the parameter equation

        C1 (r0 - c) - m0^2 + (C1/2) delta0 m0 + C1^2 delta0^2 / 48 = 0

    with c = 1/(2 C1).  delta0 is halved from r0/2 and, for each, delta_inf
    from delta0 until the landmarks are ordered and the strict graph
    inequality f'' < (1 + f'^2)/(2 f) holds with positive margin on a
    10001-point grid where the profile is positive.  The graph is
    parameterized from t0 = 0.

    Returns (TransitionParams, SmoothFn1D on (0, t_inf)); an exhausted
    search raises ConstructionFailedError with its best margin.

    ``consts`` enters only the regime check r0 < ``r0_bound()``, made on
    every call with the theta0 check.  The search itself runs once per
    (r0, theta0) (``_transition_shape``): the returned pair is shared by
    every call with the same key and must not be mutated.
    """
    bound = consts.r0_bound()
    if not (_finite_reals(r0) and 0 < r0 < bound):
        raise OutOfRegimeError(f"need r0 in (0, {bound:.6g}), got {r0}")
    if not (_finite_reals(theta0) and 0 < theta0 < np.pi / 2):
        raise InvalidSpecError("theta0 must lie in (0, pi/2)")
    return _transition_shape(float(r0), float(theta0))


def _transition_root(r0, m0, delta0):
    """C1 > 0 with (delta0^2/48) C1^2 + (r0 + delta0 m0/2) C1 = 1/2 + m0^2,
    in a form that does not cancel for delta0 << r0 (a0 < 0 < a2)."""
    a2, a1, a0 = delta0 ** 2 / 48.0, r0 + 0.5 * delta0 * m0, -(0.5 + m0 ** 2)
    return 2.0 * a0 / (-a1 - np.sqrt(a1 ** 2 - 4.0 * a2 * a0))


@_Memo
def _transition_shape(r0, theta0):
    """The (delta0, delta_inf) search of ``synth_transition``."""
    m0 = -1.0 / np.tan(theta0)

    def shape(delta0):
        C1 = _transition_root(r0, m0, delta0)
        C2 = delta0 - 2.0 * m0 / C1 - 0.5 * delta0  # t0' - 2 m0/C1 - delta0/2

        def graph(delta_inf):
            params = TransitionParams(r0, m0, delta0, delta_inf, C1, C2)
            # the landmarks must be ordered: t0' < tinf'
            if C2 - 0.5 * delta_inf <= delta0 or params.r_inf <= 0:
                return None, None
            f = SmoothFn1D(params.tinf, _transition_pieces(params))
            return check_diffkeqn(f), (params, f)

        return _halving_search(delta0, graph, _TRANSITION_HALVINGS)

    best, found = _halving_search(0.5 * r0, shape, _TRANSITION_HALVINGS)
    if found is None:
        raise ConstructionFailedError(
            f"transition search exhausted (best margin {best})",
            best_margin=best)
    return found


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

# the torpedo tail runs for at least this many cap radii r_inf
_TAIL_FACTOR = 10.0


def _check_transition_level(r0, r1):
    """The one landmark the caller chooses: the transition must start at a
    level r0 below r1/2, under the bump that ends above r1/2."""
    if not r0 < r1 / 2.0:
        raise InvalidSpecError(
            f"need r0 < r1/2, got r0 = {r0:.6g}, r1 = {r1:.6g}")


# largest position or tangent jump _glued_curve accepts between segments
_JUNCTION_TOL = 1e-8


def assemble_gamma(consts, prefix, transition):
    """Glue prefix bend, straight slope, transition graph, and torpedo tail.

    ``prefix`` is the (curve, theta0, k_max) output of initial_bend under
    ``consts``; ``transition`` the (params, f) output of synth_transition for
    the same theta0; the tail is the torpedo of cap radius r_inf = f(t_inf)
    and tube _TAIL_FACTOR * r_inf.  Returns a BendProfile certified on 10000
    arc-length samples.

    The curve is glued, and its junctions checked, once per prefix curve
    and transition (``_glued_curve``); it is shared, with its arc-length
    samples, by every profile built from them and must not be mutated.  The
    bump, r0 < r1/2 and certificate checks run on every call: r0 >= r1/2 is
    an InvalidSpecError raised before anything is glued.  A tail torpedo
    that r_inf (derived data) cannot carry is a ConstructionFailedError; a
    failing curve's AssemblyError carries its least margin if finite.
    """
    curve_prefix, theta0, _k_max = prefix
    if not (_finite_reals(theta0) and 0 < theta0 < np.pi / 2):
        raise InvalidSpecError("theta0 must lie in (0, pi/2)")
    params, f = transition
    bump = curve_prefix.segments[-1]
    if not isinstance(bump, BumpSeg):
        raise AssemblyError("prefix must end in a curvature bump")
    _check_transition_level(params.r0, float(curve_prefix.segments[0].p1[1]))
    r1p = float(bump.end[1])
    if r1p <= params.r0:
        raise AssemblyError(
            f"bump already below r0: r1' = {r1p:.6g} <= r0 = {params.r0:.6g}")
    if abs(float(bump.theta(bump.length)) - theta0) > 1e-9:
        raise AssemblyError("bump exit angle does not match theta0")
    curve, landmarks = _glued_curve(curve_prefix, float(theta0), params, f)
    profile = BendProfile(curve, consts, theta0, dict(landmarks))
    cert = profile.certify()
    if not cert.passed:
        least = cert.min_scalar
        raise AssemblyError(
            f"assembled curve fails the inequality: min margin {least:.3e}",
            best_margin=least)
    return profile


@_Memo
def _glued_curve(curve_prefix, theta0, params, f):
    """Junction-checked (curve, landmarks) of ``assemble_gamma``: the prefix,
    the line of angle theta0 down to r0, the transition graph and the tail."""
    bump = curve_prefix.segments[-1]
    p1 = bump.end
    t1p, r1p = float(p1[0]), float(p1[1])
    r0 = params.r0
    t0_global = t1p + (r1p - r0) * np.tan(theta0)
    line = LineSeg(p1, (t0_global, r0))
    # transition graph shifted to start at t0_global
    trans_seg = GraphSeg(f, t_offset=t0_global)
    t_inf_global = t0_global + params.tinf
    try:
        tail_prof = make_torpedo(
            TorpedoSpec(params.r_inf, tube_length=_TAIL_FACTOR * params.r_inf))
    except InvalidSpecError as err:
        raise ConstructionFailedError(
            f"tail torpedo of r_inf = {params.r_inf:.6g} cannot be built: "
            f"{err}") from None
    tail_seg = GraphSeg(reflect(tail_prof), t_offset=t_inf_global)
    curve = Curve2D(list(curve_prefix.segments) + [line, trans_seg, tail_seg])
    residual = curve.junction_residual()
    if not residual <= _JUNCTION_TOL:
        raise AssemblyError(
            f"segment junction residual {residual:.3e} exceeds "
            f"{_JUNCTION_TOL}")
    landmarks = {"r_bar": float(curve_prefix.segments[0].p0[1]),
                 "r1": float(curve_prefix.segments[0].p1[1]), "r1p": r1p,
                 "r0": r0, "r_inf": params.r_inf, "t1p": t1p,
                 "t0": t0_global, "t_inf": t_inf_global,
                 "t_bar": t_inf_global + tail_prof.b}
    return curve, landmarks


# ---------------------------------------------------------------------------
# isotopies
# ---------------------------------------------------------------------------

# relative margin loss final_bending_tilt tolerates at matched r-levels
_TILT_SLACK = 1e-9


def final_bending_tilt(transition, t_inf_pp):
    """Straighten the transition tail from t_inf'' on, tilting it downward.

    The profile is f, its own pieces truncated, up to cut0 = t_inf'' -
    delta_inf/8.  On the window [cut0, t_inf''], where f is at most cubic
    (inside a transition's cubic-out piece), f'' is the line through
    f''(cut0) of slope f'''(cut0); the window piece is that line scaled to
    zero by a quintic, so the result is exactly C^2, and integrated twice
    from f's jet at cut0.  The profile then continues as a straight line
    of small negative slope.  At matched r-levels in the window, the graph
    inequality margin must not drop below the unmodified margin by more
    than ``_TILT_SLACK`` (relative, floored at 1).

    With t_inf'' = t_inf the profile is returned unchanged.  Otherwise the
    straight tail descends exactly to the graph's end value r_inf = f(t_inf),
    so the tilted profile covers the same r-range as the input; a profile
    that is not positive on its whole domain is rejected, and so, as a
    ConstructionFailedError, is a cut-off that already lies below r_inf.
    """
    params, f = transition
    if not (_finite_reals(t_inf_pp) and params.C2 <= t_inf_pp <= params.tinf):
        raise InvalidSpecError(
            f"t_inf'' must lie in [C2, t_inf] = "
            f"[{params.C2:.6g}, {params.tinf:.6g}]")
    if t_inf_pp == params.tinf:
        return f
    cut0 = t_inf_pp - params.delta_inf / 8.0
    pieces = [PolyPiece((p.interval[0], min(p.interval[1], cut0)), p.coeffs,
                        origin=p.origin)
              for p in f.pieces if p.interval[0] < cut0]
    # on the window f'' = f2 + f3 (t - cut0), scaled to zero by a quintic
    f0, f1, f2, f3 = f.jet(cut0, 3)
    sq = _quintic_match(cut0, (1.0, 0.0, 0.0), t_inf_pp, (0.0, 0.0, 0.0))
    d1c = npoly.polyint(npoly.polymul([f2, f3], sq), 1, k=[f1])
    fc = npoly.polyint(d1c, 1, k=[f0])
    pieces.append(PolyPiece((cut0, t_inf_pp), fc, origin=cut0))
    h = t_inf_pp - cut0
    val = float(npoly.polyval(h, fc))
    slope = float(npoly.polyval(h, d1c))
    if slope >= 0:
        raise ConstructionFailedError("tilted tail slope must be negative")
    # descend to the original end value so the r-range is preserved
    end = t_inf_pp + (val - params.r_inf) / (-slope)
    if end < t_inf_pp:
        raise ConstructionFailedError(
            f"cut-off profile already lies below f(t_inf) at t_inf'' = "
            f"{t_inf_pp:.6g}")
    if end > t_inf_pp:
        pieces.append(PolyPiece((t_inf_pp, end), [val, slope],
                                origin=t_inf_pp))
    f_new = SmoothFn1D(end, pieces)
    grid = np.linspace(0.0, end, 4001)
    if f_new(grid).min() <= 0:
        raise TiltTooLargeError(
            "tilted profile loses positivity before the end of its domain")
    # margins compared at matched r-levels against the unmodified profile;
    # below cut0 the profile is f, so only the window's levels are read
    tm = np.linspace(0.0, t_inf_pp, 513)[1:-1]
    jet_new = f_new.jet(tm[tm > cut0], 2)
    r_new, m_new = jet_new[0], _graph_margin(jet_new)
    inside = (r_new > params.r_inf) & (r_new < params.r0)
    r_in, m_in = r_new[inside], m_new[inside]
    xs = np.linspace(0.0, params.tinf, 65)
    t_old = _invert_monotone(lambda t: f.jet(t, 1), r_in,
                             _monotone_table(xs, f(xs)))
    m_old = _graph_margin(f.jet(t_old, 2))
    worse = m_in < m_old - _TILT_SLACK * np.maximum(1.0, np.abs(m_old))
    if worse.any():
        raise ConstructionFailedError(
            f"tilt decreased the graph-inequality margin at "
            f"r = {r_in[np.argmax(worse)]:.6g}")
    return f_new


def final_isotopy(f, l_line, s_grid=None, n_t=201):
    """Linear homotopy of inverses from the graph of f to its start line.

    ``f`` decreases strictly from r0 at t = 0 and ``l_line`` is the pair
    (r0, m0) of the line l through its start.  For each s in ``s_grid``
    (default 21 values from 0 to 1), h_s^{-1} = (1-s) f^{-1} + s l^{-1}, so
    h_s(t) = f(tau) where T(tau) = (1-s) tau + s (f(tau) - r0)/m0 = t, one
    monotone solve for all t.  One 4097-point scan of f serves the family:
    it checks that f decreases to an end value f(b) > 0, and its nodes are
    each s's table of T, the interval, seeds and brackets of that s's solve.

    Returns (family, margins): ``family[i]`` is (t, (h, h', h'')) of the
    i-th s on n_t equally spaced t in [0, T(b)], and ``margins[i]`` the
    least graph-inequality margin over the interior n_t - 2 of them; h_0 is
    f and h_1 the line.  n_t must be an integer >= 3, ``l_line`` a pair of
    finite numbers (``_finite_reals``) through f(0), ``s_grid`` a family grid
    (``certify._family_grid``) and f(b) > 0, else InvalidSpecError; a slope
    m0 >= 0 or an f that does not decrease raises InversionError.
    """
    _check_ints(3, f"n_t must be >= 3, got {n_t!r}", n_t=n_t)
    try:
        r0_line, m0 = l_line
    except (TypeError, ValueError) as err:
        raise InvalidSpecError(f"l_line must be two numbers: {err}") from None
    if not _finite_reals(r0_line, m0):
        raise InvalidSpecError(f"l_line must be two finite numbers: {l_line}")
    if not abs(r0_line - float(f(0.0))) <= 1e-9:
        raise InvalidSpecError("line must pass through the start of f")
    if m0 >= 0:
        raise InversionError("line slope must be negative")
    grid = _family_grid(np.linspace(0.0, 1.0, 21) if s_grid is None
                        else s_grid, "s_grid")

    tau = np.linspace(0.0, f.b, 4097)
    F, d1 = f.jet(tau, 1)
    if d1.max() >= 0:
        raise InversionError("profile must be strictly decreasing")
    r0, r_end = float(F[0]), float(F[-1])
    if not r_end > 0:
        raise InvalidSpecError(f"profile must end above r = 0, got {r_end}")

    def T(s, x, r):
        return (1.0 - s) * x + s * (r - r0) / m0

    family = []
    margins = []
    for s in grid.tolist():
        def T_jet(x):
            f0, f1 = f.jet(x, 1)
            return T(s, x, f0), (1.0 - s) + s * f1 / m0

        t = np.linspace(0.0, T(s, f.b, r_end), n_t)
        r, f1, f2 = f.jet(_invert_monotone(
            T_jet, t, _monotone_table(tau, T(s, tau, F))), 2)
        # h' = 1/hinv'(r) and h'' = -hinv''(r)/hinv'(r)^3
        hinv1 = (1.0 - s) / f1 + s / m0
        hinv2 = -(1.0 - s) * f2 / f1 ** 3
        jet = (r, 1.0 / hinv1, -hinv2 / hinv1 ** 3)
        family.append((t, jet))
        margins.append(float(np.min(_graph_margin(jet)[1:-1])))
    return family, margins


# ---------------------------------------------------------------------------
# quarter bend (used by the embedding identities)
# ---------------------------------------------------------------------------

def quarter_bend_curve(c1, c2, bend_radius):
    """Unit-speed curve from (c1, 0) to (0, c2) in the first quadrant.

    Vertical line up to (c1, c2 - R), a quarter circular arc, then a
    horizontal line to the a2-axis.  Finite c1, c2 > R > 0
    (``_finite_reals``), else InvalidBendError.
    """
    if not (_finite_reals(bend_radius) and bend_radius > 0):
        raise InvalidBendError("bend radius must be positive")
    R = float(bend_radius)
    if not (_finite_reals(c1, c2) and c1 > R and c2 > R):
        raise InvalidBendError("bend radius must fit inside the corner")
    segs = [
        LineSeg((c1, 0.0), (c1, c2 - R)),
        ArcSeg((c1 - R, c2 - R), R, 0.0, np.pi / 2.0),
        LineSeg((c1 - R, c2), (0.0, c2)),
    ]
    return Curve2D(segs)
