"""Induced metrics on the rotation hypersurface of a bending curve.

Rotating the curve gamma inside the exact product ambient

    N x R,   g_N = eps^2 ds_p^2 + (dr^2 + r^2 ds_q^2)   (flat normal disk)

produces a hypersurface M whose induced metric is the doubly warped product
ds^2 + eps^2 ds_p^2 + r(s)^2 ds_q^2 in the curve's arc length s.  In this
model the O(1) and O(r) ambient correction terms vanish identically, so the
Gauss-equation scalar curvature is an exact closed form that can be checked
against the intrinsic doubly-warped formula.

The module also provides the sphere embedding J into (R^{n+1}, h) with
h = d rho^2 + f_eps(rho)^2 ds_p^2 + dr^2 + f_delta(r)^2 ds_q^2, whose
pullback along a corner curve reproduces the mixed torpedo metric exactly,
and the leaf family foliating the region between such an embedded sphere and
a small geodesic sphere (the connected-sum isotopy).

Curves exist only as ``Curve2D`` segments.  A coordinate of a curve, read
through ``Curve2D.jet``, is the induced radius r(s) or, composed with a
torpedo (``CompositeProfile``), a warping function of a leaf.  The
foliation reads all its leaves in one (nu, t) pass: their curve jets
stacked, one jet per torpedo over every leaf's samples and one read of
the closed form's quotients.  The torpedoes and the leaves are
members of U and V by construction, so no membership is sampled here.
(p, q) enter only the closed form, so the foliation's and the mixed
torpedo's geometry is built once per shape, keyed on the floats that fix
it (``certify._Memo``); a foliation call takes all its leaves' (p, q)
scalar curvature in one (nu, t) pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .certify import _family_grid, _frozen, _Memo, family_certificate
from .curvature import WarpedProduct, _quotients_from_jets, _scalar
from .errors import (CertificationFailedError, InvalidBendError,
                     InvalidSpecError, _check_ints, _finite_reals)
from .fnspace import (ConstPiece, SmoothFn1D, TorpedoSpec, _torpedo_on,
                      make_torpedo, reflect)
from .glbend import ArcSeg, BendProfile, Curve2D, quarter_bend_curve

__all__ = [
    "ModelAmbient",
    "FoliationFamily",
    "PairSumCoefficientNote",
    "induced_metric_on_M",
    "gauss_scalar_on_M",
    "mixed_torpedo_via_J",
    "connected_sum_foliation",
]


class PairSumCoefficientNote(UserWarning):
    """Emitted once per run by gauss_scalar_on_M (see the note text)."""


_COEFFICIENT_NOTE = (
    "gauss_scalar_on_M uses q(q-1) sin^2(theta)/r^2 for the pure fiber "
    "pair-sum term, the value given by the direct doubly-warped computation "
    "and confirmed by the finite-difference oracle; a commonly quoted closed "
    "form carries 2q(q-1) instead.  This note is emitted once per run.")

_note_emitted = False


def _emit_coefficient_note():
    global _note_emitted
    if not _note_emitted:
        warnings.warn(_COEFFICIENT_NOTE, PairSumCoefficientNote, stacklevel=3)
        _note_emitted = True


@dataclass
class ModelAmbient:
    """Exact product ambient eps^2 ds_p^2 + flat disk (dr^2 + r^2 ds_q^2).

    The correction terms that are merely O(1)/O(r) in a general ambient are
    identically zero here, so asymptotic curvature statements become exact
    identities.  epsilon must be a finite real number > 0.
    """

    p: int
    q: int
    epsilon: float

    def __post_init__(self):
        _check_ints(2, "q must be >= 2 (codimension >= 3)", q=self.q)
        _check_ints(0, "p must be nonnegative", p=self.p)
        if not (_finite_reals(self.epsilon) and self.epsilon > 0):
            raise InvalidSpecError("epsilon must be positive and finite")

    @property
    def n(self):
        return self.p + self.q + 1

    def ambient_scalar(self):
        """Scalar curvature of N = S^p(eps) x flat disk: p(p-1)/eps^2."""
        return self.p * (self.p - 1) / self.epsilon ** 2


class _CurveCoordinate:
    """One coordinate (0 = t, 1 = r) of a unit-speed ``Curve2D`` as a
    profile of arc length: its jet is that component of ``Curve2D.jet``."""

    def __init__(self, curve, axis):
        self.curve = curve
        self.axis = axis
        self.b = curve.length

    def jet(self, s, k=2):
        return tuple(d[..., self.axis] for d in self.curve.jet(s, k))


def _curve_of(bend):
    """The curve of a BendProfile whose certificate passed."""
    if not isinstance(bend, BendProfile):
        raise InvalidSpecError("expected a certified bend profile")
    if bend.certificate is None or not bend.certificate.passed:
        raise InvalidSpecError("bend profile carries no passing certificate")
    return bend.curve


def induced_metric_on_M(bend, amb):
    """Doubly warped metric induced on the rotation hypersurface of the bend.

    Returns ds^2 + eps^2 ds_p^2 + r(s)^2 ds_q^2 with s the curve arc length;
    the S^p factor never closes.
    """
    curve = _curve_of(bend)
    u = SmoothFn1D(curve.length,
                   [ConstPiece((0.0, curve.length), amb.epsilon)])
    v = _CurveCoordinate(curve, 1)
    return WarpedProduct((amb.p, amb.q), (u, v))


def gauss_scalar_on_M(bend, amb, s):
    """Scalar curvature of the induced metric from the Gauss equation.

    In the exact product ambient the second fundamental form has principal
    curvatures (k, 0 x p, -sin(theta)/r x q), the ambient scalar curvature
    is p(p-1)/eps^2, and the Gauss equation collapses to

        R = p(p-1)/eps^2 - 2 q k sin(theta)/r + q(q-1) sin^2(theta)/r^2.
    """
    curve = _curve_of(bend)
    pt, tan, k = curve.eval(s)
    _emit_coefficient_note()
    r = pt[..., 1]
    sin_theta = tan[..., 0]
    q = amb.q
    return (amb.ambient_scalar()
            - 2.0 * q * k * sin_theta / r
            + q * (q - 1) * sin_theta ** 2 / r ** 2)


# ---------------------------------------------------------------------------
# the J-embedding mixed-torpedo identity
# ---------------------------------------------------------------------------

# samples of the corner curve on which mixed_torpedo_via_J checks the identity
_J_SAMPLES = 2001


@_Memo
def _mixed_torpedo_geometry(eps, delta, c1, c2, bend_radius):
    """(reflect(f_eps), f_delta, identity report) of ``mixed_torpedo_via_J``,
    after its checks on the corner curve.  The pair is in U x V by
    construction (``fnspace.make_torpedo``)."""
    curve = quarter_bend_curve(c1, c2, bend_radius)
    # the profiles must already be constant where the curve leaves the
    # respective straight piece, else the pointwise identity degrades; as
    # b > c - bend_radius for c = c1, c2, each torpedo then keeps a tube
    flat_eps = TorpedoSpec(eps).flat_from
    flat_del = TorpedoSpec(delta).flat_from
    if c1 - bend_radius <= flat_eps:
        raise InvalidBendError(
            f"need c1 - bend_radius > {flat_eps:.6g} so the S^p "
            "profile is constant before the bend")
    if c2 - bend_radius <= flat_del:
        raise InvalidBendError(
            f"need c2 - bend_radius > {flat_del:.6g} so the S^q "
            "profile is constant beyond the bend")
    b = curve.length
    f_eps = make_torpedo(_torpedo_on(eps, b))
    f_del = make_torpedo(_torpedo_on(delta, b))
    s = np.linspace(0.0, b, _J_SAMPLES)
    pt, tan, _ = curve.eval(s)
    x, y = pt[:, 0], pt[:, 1]
    speed_res = float(np.abs(np.hypot(tan[:, 0], tan[:, 1]) - 1.0).max())
    dev_u = float(np.abs(f_eps(np.clip(x, 0.0, b)) - f_eps(b - s)).max())
    dev_v = float(np.abs(f_del(np.clip(y, 0.0, b)) - f_del(s)).max())
    report = {
        "samples": _J_SAMPLES,
        "max_deviation": float(np.max([dev_u, dev_v, speed_res])),
        "p_factor_deviation": dev_u,
        "q_factor_deviation": dev_v,
        "unit_speed_residual": speed_res,
    }
    return reflect(f_eps), f_del, report


def mixed_torpedo_via_J(eps, delta, c1, c2, bend_radius, p=2, q=2):
    """Pull the product-of-torpedoes metric back along the corner embedding.

    The embedding J sends (t, phi, theta) to ((x(t), phi), (y(t), theta))
    where (x, y) is the unit-speed corner curve from (c1, 0) to (0, c2).
    Because the curve is unit speed and both torpedo profiles are constant
    wherever the curve is not running parallel to the respective axis, the
    pullback equals dt^2 + f_eps(b-t)^2 ds_p^2 + f_delta(t)^2 ds_q^2 exactly.

    The curve, its checks, the profiles (in U x V by construction) and the
    report are built once per (eps, delta, c1, c2, bend_radius); a call
    makes its own (p, q) metric.  ``quarter_bend_curve`` checks the corner
    and ``TorpedoSpec`` eps, delta.

    Returns (mixed torpedo metric, identity report); the report's
    max_deviation is the sampled defect of that equality.
    """
    u, v, report = _mixed_torpedo_geometry(eps, delta, c1, c2, bend_radius)
    return WarpedProduct((p, q), (u, v)), dict(report)


# ---------------------------------------------------------------------------
# the connected-sum foliation
# ---------------------------------------------------------------------------

def _corner_curve(edge, radius):
    """The corner curve with edge length e and bend radius R.

    It runs from (e + R, 0) vertically to (e + R, e), around a quarter arc
    centered at (e, e), then horizontally to (0, e + R): the quarter bend
    with c1 = c2 = e + R.  With e = 0 it is the circular arc of radius R
    about the origin.
    """
    if edge == 0:
        return Curve2D([ArcSeg((0.0, 0.0), radius, 0.0, np.pi / 2.0)])
    return quarter_bend_curve(edge + radius, edge + radius, radius)


def _compose(prof, x, k):
    """(f, f', ..., f^(k)) of prof(x(t)) for k <= 3, by the chain rule
    from x's jet ``x`` (to order k or more) and one jet of ``prof``."""
    f = prof.jet(x[0], k)
    out = [f[0]]
    if k >= 1:
        out.append(f[1] * x[1])
    if k >= 2:
        out.append(f[2] * x[1] ** 2 + f[1] * x[2])
    if k >= 3:
        # x'^2 x', not x'^3: numpy's ** 3 calls pow per point, ~40x
        # slower.  The two may differ in the last bit, but the checks
        # read third derivatives only at a leaf's ends, where x' is 0,
        # +-1 or cos(pi/2) ~ 6e-17, whose cube is below the sum's ulp
        out.append(f[3] * (x[1] ** 2 * x[1]) + 3.0 * f[2] * x[1] * x[2]
                   + f[1] * x[3])
    return tuple(out)


class CompositeProfile:
    """prof(coord(t)) with derivatives from the chain rule (``_compose``).

    ``prof`` and ``coord`` are profiles (``b`` and ``jet``); the composite
    lives on the domain of ``coord``.  A foliation leaf's u and v are two
    composites; the foliation certifies them with ``_compose`` too.
    """

    def __init__(self, prof, coord):
        self.prof = prof
        self.coord = coord
        self.b = coord.b

    def jet(self, t, k=2):
        """(f, f', ..., f^(k))(t) for k <= 3, from one coordinate jet."""
        return _compose(self.prof, self.coord.jet(t, k), k)


@dataclass
class FoliationFamily:
    """Leaves (x_nu, y_nu) sweeping from the corner curve to a small arc.

    Plain data: each leaf curve (line, quarter arc, line) has unit speed,
    x' in [-1, 0], y' in [0, 1] and k >= 0 by construction.
    """

    nu_grid: list
    curves: list
    tau: float
    leaves: list = field(default_factory=list)  # (u, v) profile pairs


# samples per leaf on which connected_sum_foliation checks positivity
_LEAF_SAMPLES = 401


@_Memo
def _foliation_geometry(edge, radius, tau, nu_grid, eps, delta_p):
    """(f_eps, f_delta, leaf curves, (t, (A, B, C))) of
    ``connected_sum_foliation``: every leaf's samples t and closed-form
    quotients, stacked as (leaf, sample) arrays (A and B with a profile
    axis first) and read-only, neither depending on (p, q).  The cold scan
    is one (nu, t) pass: the leaves' curve jets stacked, one jet per
    torpedo over all leaves (``_compose``) and one ``_quotients_from_jets``
    read, so a singular leaf reports as that reader orders its ends.

    Each leaf (u, v) = (f_eps(x), f_delta(y)) is in U x V by construction:
    its unit-speed curve meets each axis at a right angle with constant
    curvature k >= 0 there, so the chain rule keeps the torpedoes' end
    values (f''' gains k^2 of the sign it needs), and the quarter turn's
    x'', y'' <= 0 with f'' <= 0 <= f' give u'' = f''x'^2 + f'x'' <= 0.
    """
    c = edge + radius
    f_eps = make_torpedo(_torpedo_on(eps, c))
    f_del = make_torpedo(_torpedo_on(delta_p, c))
    curves = []
    for nu in nu_grid:
        if nu >= 0.5:
            curves.append(_corner_curve(edge * (2.0 * nu - 1.0), radius))
        else:
            curves.append(_corner_curve(0.0, tau + 2.0 * nu * (radius - tau)))
    # one (nu, t) pass: each leaf's own samples, its ends in columns 0 and -1
    t = np.stack([np.linspace(0.0, curve.length, _LEAF_SAMPLES)
                  for curve in curves])
    ends = (t == 0.0) | (t == t[:, -1:])
    x = np.empty((4, *t.shape, 2))
    for k, (curve, row) in enumerate(zip(curves, t)):
        x[:, k] = curve.jet(row, 3)
    A, B, C = _quotients_from_jets(t, ends, [
        _compose(f, tuple(d[..., axis] for d in x), 3)
        for f, axis in ((f_eps, 0), (f_del, 1))])
    t, A, B, C = _frozen(t, A, B, C[0, 1])
    return f_eps, f_del, tuple(curves), (t, (A, B, {(0, 1): C}))


def connected_sum_foliation(c, radius, tau, nu_grid, eps, delta_p, p=2, q=2):
    """Leaf metrics interpolating the corner sphere down to a geodesic sphere.

    The corner is ``quarter_bend_curve(c, c, radius)``: c and radius must be
    finite numbers with 0 < radius < c, else InvalidBendError.  Each leaf
    nu carries h_nu = dt^2 + f_eps(x(t))^2 ds_p^2 + f_{delta'}(y(t))^2
    ds_q^2.  For nu in [1/2, 1] the straight edges shrink linearly to zero;
    for nu in [0, 1/2] the bend radius shrinks linearly down to tau.  Every
    leaf is in U x V by construction and is checked for positive scalar
    curvature; the first failing leaf aborts with its nu.  Both torpedoes
    keep the default blend, so c must exceed each cap + blend (else
    InvalidSpecError).

    The torpedoes, the leaf curves and every leaf's closed-form quotients
    are built once per shape (``_foliation_geometry``); each call takes its
    own (p, q) scalar curvature from the stacked quotients in one (nu, t)
    pass, and the first failing leaf from the row minima: each row is
    ``WarpedProduct.scalar`` on that leaf's profiles, bit for bit.
    ``p`` and ``q`` must be integers >= 0, tau, eps and delta_p finite
    numbers (``_finite_reals``) and ``nu_grid`` a family grid
    (``certify._family_grid``), else InvalidSpecError, raised first.

    Returns (FoliationFamily, IsotopyCertificate).  The certificate's
    ``extra`` holds ``per_leaf_min`` and where the least sample sits: its
    leaf ``argmin_nu`` and arc length ``argmin_t`` (``family_certificate``).
    """
    if not (_finite_reals(c, radius) and 0 < radius < c):
        raise InvalidBendError(
            "need a finite corner c above a positive bend radius")
    if not (_finite_reals(tau, eps, delta_p) and 0 < tau <= radius):
        raise InvalidSpecError(
            "need numbers tau, eps and delta_p with 0 < tau <= bend radius")
    _check_ints(0, "fiber dimensions must be nonnegative", p=p, q=q)
    grid = _family_grid(nu_grid, "nu_grid")
    nu_grid = grid.tolist()
    f_eps, f_del, curves, (t, quotients) = _foliation_geometry(
        float(c) - float(radius), float(radius), tau, tuple(nu_grid), eps,
        delta_p)
    R = _scalar([p, q], *quotients)
    least = R.min(axis=1).tolist()
    for nu, m in zip(nu_grid, least):
        if not m > 0:
            raise CertificationFailedError(
                f"leaf nu = {nu} loses scalar positivity", best_margin=m)
    family = FoliationFamily(
        nu_grid, list(curves), tau,
        leaves=[(CompositeProfile(f_eps, _CurveCoordinate(curve, 0)),
                 CompositeProfile(f_del, _CurveCoordinate(curve, 1)))
                for curve in curves])
    cert = family_certificate(
        R, {"nu": grid[:, None], "t": t}, "connected-sum foliation",
        f"{len(nu_grid)} leaves x {_LEAF_SAMPLES} samples",
        per_leaf_min=least)
    return family, cert
