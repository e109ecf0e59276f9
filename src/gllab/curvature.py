"""Closed-form curvature evaluators for rotationally symmetric metrics.

Two metric types are covered:

* ``WarpedProduct``    dt^2 + sum_i f_i(t)^2 ds_{d_i}^2 (``WarpedSphereMetric``
  and ``DoublyWarpedMetric`` build its one- and two-factor forms and alone
  sample membership, on profiles from outside the program)
* ``CylFamilyMetric``  ds^2 + dt^2 + phi(s,t)^2 ds_q^2  (2-D base)

Scalar and Ricci curvature come from the standard warped-product formulas,
read off one jet per warping function (``Phi2D.jet`` for the cylinder
family).  R is written once, over A_i = lap f_i/f_i, B_i = (1 -
|grad f_i|^2)/f_i^2 (``_open_quotients``, over a flat base of one or two
coordinates) and C_ij = f_i'f_j'/(f_i f_j), and Ricci once, over A and B;
one rule (``_check_positive``) keeps phi positive on a cylinder.  At an end
where a factor f_c closes (f_c = 0, |f_c'| = 1) one l'Hospital rule
replaces the 0/0 quotients, whichever factor closes at whichever end:
A_c = f_c'''/f_c', B_c = -A_c and C_cj = f_j''/f_j.  A cone point
(|f_c'| != 1), a factor left open there with f_j' != 0, and interior zeros
raise ``SingularProfileError``.  The evaluator is one reading of the jets at
the caller's own samples as quotients (``_quotients_from_jets``: open
quotients over the whole array, the limits written wherever a mask of end
samples finds a closing factor) and the formula over them, so a caller that
already holds the jets, the foliation's stacked leaves or a profile
homotopy combined from its end jets (``schedule._certify_homotopy``), gets
the same bits without evaluating a profile.

``slowdown_concordance`` runs a psc path of warped metrics as a psc
cylinder metric, slowed down over a smoothstep whose length L is taken in
closed form: the cylinder's R at length L is R_sigma - Q/L^2; a
``linear_homotopy`` path is one ``fnspace._family_jets`` family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import family_certificate, write_csv
from .errors import (CertificationFailedError, DomainMismatchError,
                     InvalidSpecError, SingularProfileError, _check_ints,
                     _finite_reals)
from .fnspace import (_CSV_DENSITY, _END_TOL, ConstPiece, LinearCombination,
                      PolyPiece, SmoothFn1D, _check_membership, _family_jets,
                      _same_domain, sample_grid)

__all__ = [
    "WarpedProduct",
    "WarpedSphereMetric",
    "DoublyWarpedMetric",
    "CylFamilyMetric",
    "Phi2D",
    "scalar_warped",
    "ricci_warped",
    "scalar_doubly_warped",
    "scalar_cyl_family",
    "slowdown_concordance",
    "make_smoothstep",
    "write_curvature_csv",
]

# below this fraction of the domain length an evaluation point counts as "at"
# an endpoint for the purpose of the l'Hospital limit formulas
_END_SNAP = 1e-12

# a warping function smaller than this away from the endpoints is treated as
# an interior zero
_INTERIOR_ZERO = 1e-13

# a warping function at most this large at an endpoint closes there
_END_ZERO = 1e-9


@dataclass
class WarpedProduct:
    """dt^2 + sum_i f_i(t)^2 ds_{d_i}^2 on a shared (0, b).

    ``profiles[i]`` warps a round sphere of dimension ``dims[i]``; no
    membership is sampled (see ``WarpedSphereMetric``).  No factor, unequal
    lengths or a dimension that is not an integer >= 0 raise
    ``InvalidSpecError``, profiles on unequal domains ``DomainMismatchError``.
    """

    dims: tuple
    profiles: tuple

    def __post_init__(self):
        try:
            self.dims, self.profiles = tuple(self.dims), tuple(self.profiles)
        except TypeError:
            raise InvalidSpecError("dims/profiles must be sequences") from None
        if not self.dims or len(self.profiles) != len(self.dims):
            raise InvalidSpecError(
                f"need one profile per dimension, at least one: dims "
                f"{self.dims}, {len(self.profiles)} profiles")
        _check_ints(0, "fiber dimensions must be nonnegative",
                    **{f"dims[{i}]": d for i, d in enumerate(self.dims)})
        for f in self.profiles[1:]:
            if not _same_domain(self.b, f.b):
                raise DomainMismatchError(
                    f"profile domain lengths differ: {self.b} vs {f.b}")

    @property
    def n(self):
        return sum(self.dims) + 1

    @property
    def b(self):
        return self.profiles[0].b

    def scalar(self, t):
        """Scalar curvature at t (scalar or array), ``_scalar`` over the
        jets ``_closed_form`` reads, with its limits at a closing end."""
        return _closed_form(self.dims, self.profiles, t, _scalar)


def _check_spaces(m, spaces):
    """``m`` after the membership gate: profile i must pass membership in
    the ``fnspace._SPACES`` space ``spaces[i]``, else ``InvalidSpecError``."""
    for i, (f, space) in enumerate(zip(m.profiles, spaces)):
        bad = [c.name for c in _check_membership(f, space).failures()]
        if bad:
            raise InvalidSpecError(
                f"profile {i} fails {space} membership: {bad}")
    return m


def WarpedSphereMetric(n, f, open_profile=False):
    """dt^2 + f(t)^2 ds_{n-1}^2, n >= 3, f in F unless ``open_profile``."""
    _check_ints(3, "sphere dimension n must be >= 3", n=n)
    return _check_spaces(WarpedProduct((n - 1,), (f,)),
                         () if open_profile else ("F",))


def DoublyWarpedMetric(p, q, u, v, open_profile=False):
    """dt^2 + u^2 ds_p^2 + v^2 ds_q^2, (u, v) in U x V unless
    ``open_profile``."""
    return _check_spaces(WarpedProduct((p, q), (u, v)),
                         () if open_profile else ("U", "V"))


class Phi2D:
    """Positive function of (s, t) with its pure partials through order 2.

    ``jet(s, t, k)`` returns (phi, (phi_s, phi_t), (phi_ss, phi_tt))[:k + 1]
    for k <= 2.  The mixed partial is never needed: the base (s, t) is flat,
    so only the Laplacian phi_ss + phi_tt and |grad phi|^2 = phi_s^2 +
    phi_t^2 enter the scalar curvature.
    """

    def __init__(self, jet):
        self.jet = jet

    @classmethod
    def from_profile(cls, f):
        """phi = f(t), s-partials zeros in the broadcast shape of (s, t)."""
        def jet(s, t, k=2):
            F = f.jet(t, k)
            return (F[0], *((np.zeros(np.broadcast(s, d).shape), d)
                            for d in F[1:]))
        return cls(jet)


@dataclass
class CylFamilyMetric:
    """ds^2 + dt^2 + phi(s, t)^2 ds_qtilde^2 over a flat rectangle base."""

    qtilde: int
    phi: Phi2D

    def __post_init__(self):
        _check_ints(1, "fiber sphere dimension must be >= 1",
                    qtilde=self.qtilde)


# ---------------------------------------------------------------------------
# scalar / Ricci evaluation
# ---------------------------------------------------------------------------

def _open_quotients(f, lap, grad2):
    """A = lap/f and B = (1 - grad2)/f^2 of a nonzero warping f over a flat
    base: lap is f'' or phi_ss + phi_tt, grad2 f'^2 or phi_s^2 + phi_t^2."""
    return lap / f, (1.0 - grad2) / f ** 2


def _check_positive(P, where):
    """Raise ``SingularProfileError`` unless every P is at least 1e-13 (a
    NaN fails)."""
    if not np.min(P) >= _INTERIOR_ZERO:
        raise SingularProfileError(f"phi must stay positive on the {where}")


def _quotients_from_jets(t, ends, all_jets):
    """The quotients (A, B, C) at samples t, in t's shape.

    ``ends`` masks the samples of t at an end of the domain, exactly 0 or
    b (None: no sample is), and ``all_jets`` holds each profile's jet at
    t, to order 3 when an end is present, else to order 2.  A curvature
    formula sees profile i (warping a round sphere of dimension
    ``dims[i]``) only through A_i = f_i''/f_i and B_i = (1 - f_i'^2)/f_i^2,
    and each pair i < j through C[i, j] = f_i' f_j'/(f_i f_j).  At an end
    where profile c closes (f_c = 0) these are 0/0, and their l'Hospital
    limits take their place:

        A_c = f_c'''/f_c',   B_c = -f_c'''/f_c',   C_cj = f_j''/f_j = A_j.

    The rule needs |f_c'| = 1 there (any other slope is a cone point) and
    f_j' = 0 for every factor j that stays open; either failing raises
    ``SingularProfileError``, as do two factors closing at one end and an
    interior zero.  An interior zero is reported first, then the ends at
    t = 0 before those at t = b, each in C order (leaf by leaf for a
    stacked family).  A and B are (profile, *t.shape) arrays, C a dict of
    t-shaped ones.
    """
    A, B, D = (np.empty((len(all_jets),) + np.shape(all_jets[0][0]))
               for _ in range(3))
    pairs = [(i, j) for i in range(len(A)) for j in range(i + 1, len(A))]
    if min(np.abs(jet[0] if ends is None else np.where(ends, 1.0, jet[0]))
           .min(initial=1.0) for jet in all_jets) < _INTERIOR_ZERO:
        raise SingularProfileError(
            "a warping function vanishes at an interior point")
    if ends is None:
        for i, (f, d1, d2, *_) in enumerate(all_jets):
            (A[i], B[i]), D[i] = _open_quotients(f, d2, d1 ** 2), d1 / f
        return A, B, {(i, j): D[i] * D[j] for i, j in pairs}
    closes = [ends & (np.abs(jet[0]) <= _END_ZERO) for jet in all_jets]
    _check_ends(t, closes, [jet[1] for jet in all_jets])
    for i, ((f, d1, d2, d3), c) in enumerate(zip(all_jets, closes)):
        f = np.where(c, 1.0, f)
        (A[i], B[i]), D[i] = _open_quotients(f, d2, d1 ** 2), d1 / f
        np.divide(d3, d1, out=A[i], where=c)
        np.negative(A[i], out=B[i], where=c)
    return A, B, {(i, j): np.where(closes[i], A[j], np.where(
        closes[j], A[i], D[i] * D[j])) for i, j in pairs}


def _check_ends(t, closes, slopes):
    """Raise ``SingularProfileError`` at the first end sample of t where
    two factors close (``closes[i]`` masks where factor i does), or factor
    i, closing or not, has the wrong slope ``slopes[i]`` (f_i'): t = 0
    before t = b, then in C order, the two-closing check first."""
    two = np.add.reduce(closes, dtype=int) > 1
    closing = np.logical_or.reduce(closes)
    bad = [np.where(c, np.abs(np.abs(d1) - 1.0) > _END_TOL,
                    closing & (np.abs(d1) > _END_TOL))
           for c, d1 in zip(closes, slopes)]
    fail = two | np.logical_or.reduce(bad)
    if not fail.any():
        return
    at0 = fail & (t == 0.0)
    s = np.flatnonzero(at0 if at0.any() else fail)[0]
    if two.flat[s]:
        raise SingularProfileError(
            "both warping functions vanish at the same endpoint")
    i = next(i for i, wrong in enumerate(bad) if wrong.flat[s])
    at = (f"at t = {float(t.flat[s]):.6g} with slope "
          f"{float(slopes[i].flat[s]):.6g}")
    raise SingularProfileError(
        f"a warping function closes {at}: a cone point" if closes[i].flat[s]
        else f"a warping function stays open {at} where another closes")


def _closed_form(dims, profiles, t, formula):
    """Evaluate ``formula(dims, A, B, C)`` for warping ``profiles`` at t.

    The profiles share one domain (0, b); profile i warps a round sphere of
    dimension ``dims[i]``.  A sample within ``_END_SNAP`` of an end reads
    as exactly 0 or b and is marked in the mask ``_quotients_from_jets``
    takes; each profile is evaluated once, at the samples in t's shape, to
    order 3 when an end is present, else to order 2.  Returns
    ``formula``'s value, floats for scalar t.
    """
    t = np.asarray(t, dtype=float)
    tv, b, ends = np.atleast_1d(t), profiles[0].b, None
    snap = _END_SNAP * max(1.0, b)
    # no t <= snap and no t >= b - snap: then neither mask below holds
    if np.abs(tv - 0.5 * b).max(initial=0.0) >= 0.5 * b - snap:
        at0, atb = np.abs(tv) <= snap, np.abs(tv - b) <= snap
        if (at0 | atb).any():
            tv, ends = np.where(atb, b, np.where(at0, 0.0, tv)), at0 | atb
    out = formula(dims, *_quotients_from_jets(
        tv, ends, [f.jet(tv, 2 if ends is None else 3) for f in profiles]))
    if t.ndim:
        return out
    out = np.asarray(out)[..., 0]
    return float(out) if out.ndim == 0 else tuple(map(float, out))


def _scalar(dims, A, B, C):
    """R of dt^2 (or a flat base) + sum_i f_i^2 ds_{q_i}^2:

        R = sum_i (-2 q_i A_i + q_i (q_i - 1) B_i) - 2 sum_{i<j} q_i q_j C_ij
    """
    R = sum(-2.0 * q * a + q * (q - 1) * b for q, a, b in zip(dims, A, B))
    return R - sum(2.0 * dims[i] * dims[j] * c for (i, j), c in C.items())


def _ricci(dims, A, B, C):
    """(Ric(d/dt), Ric(sphere direction)) = (-q A, (q - 1) B - A)."""
    (q,), (a,), (b,) = dims, A, B
    return -q * a, (q - 1) * b - a


def scalar_warped(m, t):
    """Scalar curvature of dt^2 + f^2 ds_{n-1}^2 at t: ``m.scalar(t)``."""
    return m.scalar(t)


def ricci_warped(m, t):
    """(Ric(d/dt), Ric(sphere direction)) for a one-factor warped product.

    Interior values are -(n-1) f''/f and (n-2)(1-f'^2)/f^2 - f''/f; at an
    end where f closes both tend to -(n-1) f'''/f' there.  A product of
    another number of factors raises ``InvalidSpecError``.
    """
    if len(m.dims) != 1:
        raise InvalidSpecError(
            f"ricci_warped needs one factor, got dims {m.dims}")
    return _closed_form(m.dims, m.profiles, t, _ricci)


def scalar_doubly_warped(m, t):
    """Scalar curvature of dt^2 + u^2 ds_p^2 + v^2 ds_q^2: ``m.scalar(t)``."""
    return m.scalar(t)


def scalar_cyl_family(m, s, t):
    """Scalar curvature of ds^2 + dt^2 + phi^2 ds_qtilde^2 at (s, t).

    ``_scalar`` over the ``_open_quotients`` of phi's Laplacian and squared
    gradient, in the broadcast shape of (s, t).  phi is checked positive
    on the whole rectangle (``_check_positive``): no endpoint limit applies.
    """
    P, (ps, pt), (pss, ptt) = m.phi.jet(s, t, 2)
    _check_positive(P, "rectangle")
    A, B = _open_quotients(P, pss + ptt, ps ** 2 + pt ** 2)
    return _scalar([m.qtilde], [A], [B], {})


# ---------------------------------------------------------------------------
# slowdown concordance
# ---------------------------------------------------------------------------

def make_smoothstep(L):
    """Quintic smoothstep on (0, L): 0 up to L/4, 1 from 3L/4, C^2 between.

    The ramp is 10y^3 - 15y^4 + 6y^5, y = (t - L/4)/(L/2), in powers of
    t - L/4.  For L = 2^k every breakpoint, coefficient and Horner step is
    the L = 1 one times a power of two, so eta_L(L x) == eta_1(x) exactly.
    """
    if not (_finite_reals(L) and L > 0.0):
        raise InvalidSpecError("need L > 0")
    k1, k2, w = 0.25 * L, 0.75 * L, 0.5 * L
    coeffs = [0.0, 0.0, 0.0, 10.0 / w ** 3, -15.0 / w ** 4, 6.0 / w ** 5]
    pieces = [ConstPiece((0.0, k1), 0.0),
              PolyPiece((k1, k2), coeffs, origin=k1),
              ConstPiece((k2, L), 1.0)]
    return SmoothFn1D(L, pieces)


# rows of the (x, t) grid per block, which keep a 200 x 200 slowdown's peak
# at 2.2 MB, not 5.0 MB (tracemalloc); the finite-difference step in x = s/L
_ROW_BLOCK = 32
_SLOWDOWN_STEP = 1e-4


def _check_path_metric(m, sig, n, b):
    """m = path(sig) after checking it has dims (n - 1,) and domain (0, b)."""
    if m.dims != (n - 1,):
        raise InvalidSpecError(
            f"path metric at sigma = {sig:.6g} has dimensions {m.dims}, not "
            f"the ({n - 1},) of a warped n = {n} sphere")
    if not _same_domain(b, m.b):
        raise DomainMismatchError(
            f"path profile at sigma = {sig:.6g} lives on (0, {m.b:.6g}), "
            f"not on the start metric's (0, {b:.6g})")
    return m


def _path_jets(profiles, centres, tgrid):
    """The (len(profiles), nt) values on ``tgrid`` of the sigma-profiles,
    and the (2, len(centres), nt) t-derivatives of those ``centres`` lists.

    When every profile is a ``LinearCombination`` over one term list (the
    same objects in order, as on a ``linear_homotopy`` path), they are one
    ``_family_jets`` family, each term evaluated once, to order 2, for all
    sigma, each profile with its own bits; any other is evaluated itself,
    to order 2 if a centre, else to order 0.
    """
    if all(isinstance(p, LinearCombination) for p in profiles) and len(
            {tuple(id(f) for _, f in p.terms) for p in profiles}) == 1:
        return _family_jets([[w for w, _ in p.terms] for p in profiles],
                            [f for _, f in profiles[0].terms], tgrid, 2,
                            centres)
    values = np.empty((len(profiles), tgrid.size))
    derivs = np.empty((2, len(centres), tgrid.size))
    row = {m: j for j, m in enumerate(centres.tolist())}
    for m, p in enumerate(profiles):
        values[m], *d = p.jet(tgrid, 2 if m in row else 0)
        if d:
            derivs[:, row[m]] = d
    return values, derivs


def _slowdown_grid(n, values, derivs, rows):
    """(R_sigma, Q) on the (x, t) grid, x = s/L, ``_ROW_BLOCK`` rows a time.

    Row i of ``rows`` indexes sigma at s_i - h, s_i, s_i + h in the values
    of ``_path_jets``, then s_i in its derivatives: the centre jet (P, d1,
    d2) and the central differences D1, D2 in x of the outer values.  For
    L = 2^k the s-grid, h = 1e-4 L and eta_L(L x) == eta_1(x) scale with
    L, so the s-partials are D1/L and D2/L^2; ``_scalar`` being linear in
    A and B, R at length L is R_sigma - Q/L^2, R_sigma at the row's own
    ``_open_quotients`` (its R) and Q at A = -D2/P, B = D1^2/P^2.  P is
    checked positive (``_check_positive``).
    """
    h = _SLOWDOWN_STEP
    R_sigma, Q = np.empty((2, len(rows), values.shape[-1]))
    for lo in range(0, len(rows), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        minus, centre, plus, deriv = rows[block].T
        P, Pm, Pp = values[centre], values[minus], values[plus]
        d1, d2 = derivs[:, deriv]
        _check_positive(P, "grid")
        D1, D2 = (Pp - Pm) / (2.0 * h), (Pp - 2.0 * P + Pm) / h ** 2
        # (A,) and (B,) as temporaries: no block array outlives this line
        R_sigma[block] = _scalar([n - 1], *zip(_open_quotients(
            P, d2, d1 ** 2)), {})
        Q[block] = _scalar([n - 1], [-D2 / P], [D1 ** 2 / P ** 2], {})
    return R_sigma, Q


def _slowdown_length(R_sigma, Q):
    """(L, L_star): L_star = sqrt(max(Q+/R_sigma)) where R_sigma > 0, and L
    the least power of two >= 1 above it, so R_sigma - Q/L^2 > 0 there.  A
    non-finite L_star raises ``CertificationFailedError``."""
    ratio = float(np.max(np.divide(Q, R_sigma, out=np.zeros_like(Q),
                                   where=R_sigma > 0)))
    if not math.isfinite(ratio):
        raise CertificationFailedError(f"no finite slowdown length: {ratio}")
    # 2^(e - 1) <= ratio < 2^e, so 4^k > ratio exactly when 2k >= e
    return 2.0 ** max(0, (math.frexp(ratio)[1] + 1) // 2), math.sqrt(ratio)


def slowdown_concordance(path, n, grid_shape=(200, 200)):
    """Find a slowdown factor making a psc path run as a psc cylinder metric.

    ``path`` maps sigma in [0, 1] to a one-factor ``WarpedProduct`` with
    dims (n - 1,) on a fixed (0, b), read once per distinct sigma (its
    profiles' jets: ``_path_jets``).  The smoothstep's length L is the
    ``_slowdown_length`` of the path's ``_slowdown_grid`` over the rows'
    sigma indices; min(R_sigma - Q/L^2) is certified once, a failure
    raising ``CertificationFailedError``.  Returns (1/L, eta on (0, L),
    certificate), whose ``extra`` holds ``argmin_s``, ``argmin_t``,
    ``L_star``, ``floor`` (a lower bound of the grid minimum at any L' >= L)
    and ``profiles`` (distinct sigma read).  Bad input raises
    ``InvalidSpecError`` (``grid_shape`` and n before the path is read), a
    path on another domain ``DomainMismatchError``.
    """
    try:
        ns, nt = grid_shape
    except (TypeError, ValueError):
        raise InvalidSpecError(
            f"grid_shape must be two integers, got {grid_shape!r}") from None
    _check_ints(1, f"slowdown needs a grid of at least 1x1, got "
                f"grid_shape={tuple(grid_shape)}", ns=ns, nt=nt)
    _check_ints(2, "slowdown needs n >= 2 (fiber dimension >= 1)", n=n)
    g0, g1 = path(0.0), path(1.0)
    b = g0.b
    for sv, g in ((0.0, g0), (1.0, g1)):
        _check_path_metric(g, sv, n, b)
    tgrid = np.linspace(0.0, b, nt + 2)[1:-1]
    for g, tag in ((g0, "start"), (g1, "end")):
        mn = float(np.min(g.scalar(tgrid)))
        if not mn > 0:
            raise CertificationFailedError(
                f"path {tag} metric is not psc (min R = {mn:.6g})",
                best_margin=mn)

    known = {0.0: g0.profiles[0], 1.0: g1.profiles[0]}
    xgrid = np.linspace(0.0, 1.0, ns + 2)[1:-1]
    sig = np.clip(make_smoothstep(1.0)(np.clip(
        xgrid[:, None] + [-_SLOWDOWN_STEP, 0.0, _SLOWDOWN_STEP], 0.0, 1.0)),
        0.0, 1.0)
    sigmas, rows = np.unique(sig, return_inverse=True)
    sigmas, rows = sigmas.tolist(), rows.reshape(sig.shape)
    profiles = [known[sv] if sv in known else
                _check_path_metric(path(sv), sv, n, b).profiles[0]
                for sv in sigmas]
    centres, deriv = np.unique(rows[:, 1], return_inverse=True)
    R_sigma, Q = _slowdown_grid(n, *_path_jets(profiles, centres, tgrid),
                                np.column_stack([rows, deriv]))
    L, L_star = _slowdown_length(R_sigma, Q)
    # floor: where Q > 0, R_sigma - Q/L'^2 grows with L', else it is >= R_sigma
    floor = R_sigma.min()
    # R takes Q's buffer: one more ns x nt array would raise the peak RSS
    R = np.subtract(R_sigma, np.divide(Q, L ** 2, out=Q), out=Q)
    cert = family_certificate(
        R, {"s": L * xgrid[:, None], "t": tgrid}, "slowdown",
        f"{ns}x{nt} interior grid, L={L:.6g}", L_star=L_star,
        floor=float(np.minimum(R.min(), floor)),
        profiles=len(set(sigmas) | known.keys()))
    if not cert.passed:
        raise CertificationFailedError(f"slowdown not psc: {cert!r}",
                                       best_margin=cert.min_scalar)
    return 1.0 / L, make_smoothstep(L), cert


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_curvature_csv(m, path_or_buf):
    """CSV curvature profile with columns t, R, Ric_t, Ric_sphere."""
    t = sample_grid(m.b, _CSV_DENSITY)
    write_csv(path_or_buf, "t,R,Ric_t,Ric_sphere",
              np.column_stack([t, m.scalar(t), *ricci_warped(m, t)]))
