"""Closed-form curvature evaluators for rotationally symmetric metrics.

Three metric shapes are covered:

* ``WarpedSphereMetric``   dt^2 + f(t)^2 ds_{n-1}^2
* ``DoublyWarpedMetric``   dt^2 + u(t)^2 ds_p^2 + v(t)^2 ds_q^2
* ``CylFamilyMetric``      ds^2 + dt^2 + phi(s,t)^2 ds_q^2  (2-D base)

Scalar and Ricci curvature come from the standard warped-product formulas,
read off one jet per warping function (``Phi2D.jet`` for the cylinder
family).  R is written once, over the quotients A_i = f_i''/f_i,
B_i = (1 - f_i'^2)/f_i^2 and C_ij = f_i'f_j'/(f_i f_j), and Ricci once,
over A and B.  At an end where a factor f_c closes (f_c = 0, |f_c'| = 1)
one l'Hospital rule replaces the 0/0 quotients, whichever factor closes at
whichever end: A_c = f_c'''/f_c', B_c = -A_c and C_cj = f_j''/f_j.  A cone
point (|f_c'| != 1), a factor left open there with f_j' != 0, and interior
zeros raise ``SingularProfileError``.  The evaluator is one point set
(``_closed_form_points``), one reading of the jets there as quotients
(``_quotients_from_jets``) and the formula over them, so a caller that
already holds the jets, a foliation leaf or a homotopy family
(``_family_scalar``), gets the same bits without evaluating a profile.

``slowdown_concordance`` certifies that a path of psc warped metrics can be
run as a psc metric on a cylinder after slowing the parameter down enough
(reparameterize by a smoothstep over a long enough interval), evaluating
the path once per distinct sigma, and a linear path's terms once, over the
whole search.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .certify import _halving_search, family_certificate, write_csv
from .errors import (CertificationFailedError, DomainMismatchError,
                     InvalidSpecError, SingularProfileError)
from .fnspace import (_CSV_DENSITY, _END_TOL, ConstPiece, LinearCombination,
                      PolyPiece, SmoothFn1D, _combine_jets, _same_domain,
                      check_F_membership, check_U_membership,
                      check_V_membership, sample_grid)

__all__ = [
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


def _check_dims(least, message, **dims):
    """Raise ``InvalidSpecError`` unless every sphere dimension in ``dims``
    is an integer (``numbers.Integral``, not a bool) of at least ``least``;
    ``message`` says what a too small one breaks."""
    for name, d in dims.items():
        if isinstance(d, bool) or not isinstance(d, numbers.Integral):
            raise InvalidSpecError(
                f"sphere dimension {name} must be an integer, got {d!r}")
        if d < least:
            raise InvalidSpecError(message)


@dataclass
class WarpedSphereMetric:
    """dt^2 + f(t)^2 ds_{n-1}^2 on (0, b).

    With ``open_profile=False`` the profile is required to close a round
    sphere smoothly at both ends; disk/cylinder profiles (tubes, caps, bend
    data) set ``open_profile=True`` and skip the membership gate.
    """

    n: int
    f: SmoothFn1D
    open_profile: bool = False

    def __post_init__(self):
        _check_dims(3, "sphere dimension n must be >= 3", n=self.n)
        if not self.open_profile:
            rep = check_F_membership(self.f)
            if not rep.passed:
                raise InvalidSpecError(
                    "profile fails closed-sphere membership: "
                    f"{[c.name for c in rep.failures()]}")

    @property
    def b(self):
        return self.f.b


@dataclass
class DoublyWarpedMetric:
    """dt^2 + u^2 ds_p^2 + v^2 ds_q^2 on a shared (0, b), p + q + 1 = n."""

    p: int
    q: int
    u: SmoothFn1D
    v: SmoothFn1D
    open_profile: bool = False

    def __post_init__(self):
        _check_dims(0, "fiber dimensions must be nonnegative",
                    p=self.p, q=self.q)
        if not _same_domain(self.u.b, self.v.b):
            raise DomainMismatchError(
                f"u and v domain lengths differ: {self.u.b} vs {self.v.b}")
        if not self.open_profile:
            ru = check_U_membership(self.u)
            rv = check_V_membership(self.v)
            if not (ru.passed and rv.passed):
                bad = [c.name for c in ru.failures() + rv.failures()]
                raise InvalidSpecError(
                    f"(u, v) fail smooth-sphere membership: {bad}")

    @property
    def n(self):
        return self.p + self.q + 1

    @property
    def b(self):
        return self.u.b


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
        """s-independent family: phi(s, t) = f(t)."""
        def jet(s, t, k=2):
            F = f.jet(t, k)
            return (F[0], *((np.zeros_like(d), d) for d in F[1:]))
        return cls(jet)


@dataclass
class CylFamilyMetric:
    """ds^2 + dt^2 + phi(s, t)^2 ds_qtilde^2 over a flat rectangle base."""

    qtilde: int
    phi: Phi2D

    def __post_init__(self):
        _check_dims(1, "fiber sphere dimension must be >= 1",
                    qtilde=self.qtilde)


# ---------------------------------------------------------------------------
# scalar / Ricci evaluation
# ---------------------------------------------------------------------------

def _open_quotients(f, d1, d2):
    """A = f''/f, B = (1 - f'^2)/f^2 and D = f'/f of a nonzero warping f."""
    return d2 / f, (1.0 - d1 ** 2) / f ** 2, d1 / f


def _closed_form_points(t, b):
    """Where ``_closed_form`` reads its profiles for samples t on (0, b).

    Returns (points, inner, ends): the interior samples in order followed
    by each end present (0 before b), the mask of interior samples, and
    one (mask, end) pair per end present, for ``_quotients_from_jets``.
    """
    tv = np.atleast_1d(t)
    snap = _END_SNAP * max(1.0, b)
    at0, atb = np.abs(tv) <= snap, np.abs(tv - b) <= snap
    inner = ~(at0 | atb)
    ends = [(mask, tend) for mask, tend in ((at0, 0.0), (atb, b))
            if mask.any()]
    return np.concatenate([tv[inner], [tend for _, tend in ends]]), inner, ends


def _quotients_from_jets(inner, ends_at, all_jets):
    """The quotients (A, B, C) at the samples of ``_closed_form_points``.

    ``all_jets`` holds each profile's jet at those points, to order 3 when
    an end is present, else to order 2.  A curvature formula sees profile
    i (warping a round sphere of dimension ``dims[i]``) only through
    A_i = f_i''/f_i and B_i = (1 - f_i'^2)/f_i^2, and each pair i < j
    through C[i, j] = f_i' f_j'/(f_i f_j).  At an end where profile c
    closes (f_c = 0) these are 0/0, and their l'Hospital limits take their
    place:

        A_c = f_c'''/f_c',   B_c = -f_c'''/f_c',   C_cj = f_j''/f_j = A_j.

    The rule needs |f_c'| = 1 there (any other slope is a cone point) and
    f_j' = 0 for every factor j that stays open; either failing raises
    ``SingularProfileError``, as do two factors closing at one end and an
    interior zero.  A and B are (profile, sample) arrays, C a dict of them.
    """
    # D_i = f_i'/f_i, left 0 where f_i closes; ``ends`` holds (mask, c)
    A, B, D = (np.zeros((len(all_jets),) + inner.shape) for _ in range(3))
    ends = []
    n_in = int(inner.sum())
    if n_in:
        jets = [[d[:n_in] for d in jet[:3]] for jet in all_jets]
        if min(np.abs(jet[0]).min() for jet in jets) < _INTERIOR_ZERO:
            raise SingularProfileError(
                "a warping function vanishes at an interior point")
        for i, jet in enumerate(jets):
            A[i][inner], B[i][inner], D[i][inner] = _open_quotients(*jet)
    for e, (mask, tend) in enumerate(ends_at, start=n_in):
        jets = [tuple(float(x[e]) for x in jet) for jet in all_jets]
        closing = [i for i, jet in enumerate(jets) if abs(jet[0]) <= _END_ZERO]
        if len(closing) > 1:
            raise SingularProfileError(
                "both warping functions vanish at the same endpoint")
        for i, (f, d1, d2, d3) in enumerate(jets):
            if i in closing:
                if abs(abs(d1) - 1.0) > _END_TOL:
                    raise SingularProfileError(
                        f"a warping function closes at t = {tend:.6g} with "
                        f"slope {d1:.6g}: a cone point")
                A[i][mask], B[i][mask] = d3 / d1, -d3 / d1
                ends.append((mask, i))
            elif closing and abs(d1) > _END_TOL:
                raise SingularProfileError(
                    f"a warping function stays open at t = {tend:.6g} with "
                    f"slope {d1:.6g} where another closes")
            else:
                A[i][mask], B[i][mask], D[i][mask] = _open_quotients(f, d1, d2)
    C = {(i, j): D[i] * D[j]
         for i in range(len(all_jets)) for j in range(i + 1, len(all_jets))}
    for mask, c in ends:
        for (i, j), Cij in C.items():
            if c in (i, j):
                Cij[mask] = A[j if i == c else i][mask]
    return A, B, C


def _closed_form(dims, profiles, t, formula):
    """Evaluate ``formula(dims, A, B, C)`` for warping ``profiles`` at t.

    The profiles share one domain (0, b); profile i warps a round sphere of
    dimension ``dims[i]``.  Each profile is evaluated once, at
    ``_closed_form_points``: to order 3 when an end is present, else to
    order 2.  ``_quotients_from_jets`` reads the jets.  Returns
    ``formula``'s value, floats for scalar t.
    """
    t = np.asarray(t, dtype=float)
    pts, inner, ends = _closed_form_points(t, profiles[0].b)
    k = 3 if ends else 2
    out = formula(dims, *_quotients_from_jets(
        inner, ends, [f.jet(pts, k) for f in profiles]))
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
    """Scalar curvature of dt^2 + f^2 ds_{n-1}^2 at t (scalar or array).

    R = -2(n-1) f''/f + (n-1)(n-2)(1 - f'^2)/f^2; at an end where f closes
    this tends to -n(n-1) f'''/f' there.
    """
    return _closed_form([m.n - 1], [m.f], t, _scalar)


def ricci_warped(m, t):
    """(Ric(d/dt), Ric(sphere direction)) for the warped metric.

    Interior values are -(n-1) f''/f and (n-2)(1-f'^2)/f^2 - f''/f; at an
    end where f closes both tend to -(n-1) f'''/f' there.
    """
    return _closed_form([m.n - 1], [m.f], t, _ricci)


def scalar_doubly_warped(m, t):
    """Scalar curvature of dt^2 + u^2 ds_p^2 + v^2 ds_q^2 at t.

        R = -2p u''/u - 2q v''/v + p(p-1)(1-u'^2)/u^2
            + q(q-1)(1-v'^2)/v^2 - 2pq u'v'/(uv),

    with ``_closed_form``'s limits at an end where either factor closes,
    whichever end that is.  Both factors vanishing at one end raises
    ``SingularProfileError``.
    """
    return _closed_form([m.p, m.q], [m.u, m.v], t, _scalar)


def scalar_cyl_family(m, s, t):
    """Scalar curvature of ds^2 + dt^2 + phi^2 ds_qtilde^2 at (s, t).

    ``_scalar`` with A = (phi_ss + phi_tt)/phi and
    B = (1 - phi_s^2 - phi_t^2)/phi^2.  phi must stay positive on the whole
    rectangle, so no endpoint limit applies.
    """
    P, (ps, pt), (pss, ptt) = m.phi.jet(s, t, 2)
    if np.min(np.abs(P)) < _INTERIOR_ZERO or np.min(P) <= 0:
        raise SingularProfileError("phi must stay positive on the rectangle")
    return _scalar([m.qtilde], [(pss + ptt) / P],
                   [(1.0 - (ps ** 2 + pt ** 2)) / P ** 2], {})


def _profile_jets(pts, k):
    """``jet(prof, j)``: the jet of profile ``prof`` on ``pts`` to order
    j <= k, for the profiles of one family read at the same points.

    The jet of a ``LinearCombination`` is ``_combine_jets`` over its terms'
    jets, and each distinct term (by identity) is evaluated once, to order
    k, however many combinations read it; the bits are those of the
    combination's own ``jet``.  Any other profile is evaluated itself.
    """
    # id(f) -> (f, jet): holding f keeps its id from being reused
    terms = {}

    def term_jet(f):
        if id(f) not in terms:
            terms[id(f)] = f, f.jet(pts, k)
        return terms[id(f)][1]

    def jet(prof, j=k):
        if isinstance(prof, LinearCombination):
            return _combine_jets(prof.terms, term_jet, pts, j)
        return prof.jet(pts, j)
    return jet


def _family_scalar(t, b):
    """``scalar(m, t)`` of the warped and doubly warped metrics of one
    family on (0, b), all read at these samples t.

    It gives ``scalar_warped``'s or ``scalar_doubly_warped``'s values bit
    for bit, with the warping profiles read through one ``_profile_jets``:
    a family of linear homotopies evaluates each of its end profiles once,
    not once per metric.  Its own t argument must be these samples.
    """
    pts, inner, ends = _closed_form_points(np.asarray(t, dtype=float), b)
    jet = _profile_jets(pts, 3 if ends else 2)

    def scalar(m, _t):
        if isinstance(m, WarpedSphereMetric):
            dims, profiles = [m.n - 1], [m.f]
        else:
            dims, profiles = [m.p, m.q], [m.u, m.v]
        return _scalar(dims, *_quotients_from_jets(
            inner, ends, [jet(f) for f in profiles]))
    return scalar


# ---------------------------------------------------------------------------
# slowdown concordance
# ---------------------------------------------------------------------------

def make_smoothstep(L):
    """Quintic smoothstep on (0, L): 0 up to L/4, 1 from 3L/4, C^2 between.

    The ramp is 10y^3 - 15y^4 + 6y^5, y = (t - L/4)/(L/2), in powers of
    t - L/4.  For L = 2^k every breakpoint, coefficient and Horner step is
    the L = 1 one times a power of two, so eta_L(L x) == eta_1(x) exactly.
    """
    L = float(L)
    if not L > 0.0:
        raise InvalidSpecError("need L > 0")
    k1, k2, w = 0.25 * L, 0.75 * L, 0.5 * L
    coeffs = [0.0, 0.0, 0.0, 10.0 / w ** 3, -15.0 / w ** 4, 6.0 / w ** 5]
    pieces = [ConstPiece((0.0, k1), 0.0),
              PolyPiece((k1, k2), coeffs, origin=k1),
              ConstPiece((k2, L), 1.0)]
    return SmoothFn1D(L, pieces)


# rows of the (s, t) grid per vectorised scalar_cyl_family call
_ROW_BLOCK = 32
_SLOWDOWN_BUDGET = 20  # lengths L = 1, 2, 4, ... tried before giving up


def _check_path_metric(m, sig, n, b):
    """m = path(sig) after checking it has dimension n and domain (0, b)."""
    if m.n != n:
        raise InvalidSpecError(
            f"path metric at sigma = {sig:.6g} has dimension {m.n}, not "
            f"n = {n}")
    if not _same_domain(b, m.f.b):
        raise DomainMismatchError(
            f"path profile at sigma = {sig:.6g} lives on (0, {m.f.b:.6g}), "
            f"not on the start metric's (0, {b:.6g})")
    return m


def _path_jets(profile_at, sig, tgrid):
    """t-jet on ``tgrid`` of ``profile_at(sigma)`` at each distinct sigma.

    Row i of ``sig`` holds sigma at s_i - h, s_i and s_i + h; the outer
    values need f only, the centre f, f' and f''.  A profile is dropped
    once its jet is taken.  The jets come from one ``_profile_jets``: a
    linear path reads each of its two end profiles once here, to order 2,
    not once per sigma.
    """
    order = {}
    for row in sig:
        for sv, k in zip(row, (0, 2, 0)):
            order[sv] = max(k, order.get(sv, 0))
    jet = _profile_jets(tgrid, 2)
    return {sv: jet(profile_at(sv), k) for sv, k in order.items()}


def _slowdown_grid(n, jets, sig, sgrid, tgrid, h):
    """R of ds^2 + dt^2 + phi^2 ds_{n-2}^2, phi(s, t) = path(sigma(s)).f(t).

    The s-partials are central differences of row i's outer jets, the
    t-partials the centre's jet; R is evaluated ``_ROW_BLOCK`` rows a call.
    """
    R = np.empty((len(sgrid), len(tgrid)))
    for lo in range(0, len(sgrid), _ROW_BLOCK):
        rows = sig[lo:lo + _ROW_BLOCK]
        Pm, P, Pp = (np.array([jets[row[c]][0] for row in rows])
                     for c in range(3))
        d1, d2 = (np.array([jets[row[1]][k] for row in rows]) for k in (1, 2))
        jet = (P, ((Pp - Pm) / (2.0 * h), d1),
               ((Pp - 2.0 * P + Pm) / h ** 2, d2))
        phi = Phi2D(lambda s, t, k=2, jet=jet: jet[:k + 1])
        R[lo:lo + len(rows)] = scalar_cyl_family(
            CylFamilyMetric(n - 1, phi), sgrid[lo:lo + len(rows), None], tgrid)
    return R


def slowdown_concordance(path, n, grid_shape=(200, 200)):
    """Find a slowdown factor making a psc path run as a psc cylinder metric.

    ``path`` maps sigma in [0, 1] to a WarpedSphereMetric of dimension ``n``
    on a fixed (0, b).  The path is reparameterized by a quintic smoothstep
    eta over an interval of length L (constant near both ends, so the
    cylinder metric is a product there), and L is doubled (Lambda = 1/L
    halved from 1) until the full (s, t) grid certifies min scalar > 0, at
    most ``_SLOWDOWN_BUDGET`` times; an exhausted search raises
    ``CertificationFailedError`` with its best margin.

    The path is evaluated once per distinct sigma over the whole search,
    not once per L.  This is exact: round L's s-grid and h = 1e-4 L are
    L times those of L = 1 and eta_L(L x) == eta_1(x) bit for bit, so every
    round samples the same sigma at s_i - h, s_i, s_i + h; only h changes.
    A sigma-profile that is a ``LinearCombination`` (``linear_homotopy``)
    is combined from its terms' jets, each term evaluated once on the
    t-grid for the whole search, with ``LinearCombination.jet``'s
    arithmetic, so the certificate is the same bit for bit.

    Returns (Lambda, eta profile on (0, L), certificate).  The certificate's
    ``extra`` holds ``argmin_s``, ``argmin_t`` (``family_certificate``),
    every L tried (``L_tried``) and the number of distinct sigma at which
    the path was evaluated (``profiles``).  ``grid_shape`` entries below 1
    raise ``InvalidSpecError``, as does a path metric whose dimension is
    not ``n``; a sigma-profile whose domain length is not g0's raises
    ``DomainMismatchError``.
    """
    ns, nt = grid_shape
    if min(ns, nt) < 1:
        raise InvalidSpecError(
            f"slowdown needs a grid of at least 1x1, got "
            f"grid_shape={tuple(grid_shape)}")
    g0, g1 = path(0.0), path(1.0)
    b = g0.f.b
    for sv, g in ((0.0, g0), (1.0, g1)):
        _check_path_metric(g, sv, n, b)
    tgrid = np.linspace(0.0, b, nt + 2)[1:-1]
    for g, tag in ((g0, "start"), (g1, "end")):
        mn = float(np.min(scalar_warped(g, tgrid)))
        if not mn > 0:
            raise CertificationFailedError(
                f"path {tag} metric is not psc (min R = {mn:.6g})",
                best_margin=mn)

    known = {0.0: g0.f, 1.0: g1.f}

    def profile_at(sv):
        if sv in known:
            return known[sv]
        return _check_path_metric(path(sv), sv, n, b).f

    tried = []
    sig = jets = None

    def attempt(lam):
        nonlocal sig, jets
        L = 1.0 / lam  # exact: lam is a power of two
        eta = make_smoothstep(L)
        h = L * 1e-4
        tried.append(L)
        sgrid = np.linspace(0.0, L, ns + 2)[1:-1]
        if jets is None:
            sig = np.clip(eta(np.clip(sgrid[:, None] + [-h, 0.0, h], 0.0, L)),
                          0.0, 1.0).tolist()
            jets = _path_jets(profile_at, sig, tgrid)
        cert = family_certificate(
            _slowdown_grid(n, jets, sig, sgrid, tgrid, h),
            {"s": sgrid[:, None], "t": tgrid}, "slowdown",
            f"{ns}x{nt} interior grid, L={L:.6g}", L_tried=tried,
            profiles=len(jets.keys() | known.keys()))
        return cert.min_scalar, (lam, eta, cert)

    best, found = _halving_search(1.0, attempt, _SLOWDOWN_BUDGET)
    if found is None:
        raise CertificationFailedError(
            f"no slowdown factor certified within budget {_SLOWDOWN_BUDGET} "
            f"(best margin {best})", best_margin=best)
    return found


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def write_curvature_csv(m, path_or_buf):
    """CSV curvature profile with columns t, R, Ric_t, Ric_sphere."""
    t = sample_grid(m.f.b, _CSV_DENSITY)
    write_csv(path_or_buf, "t,R,Ric_t,Ric_sphere",
              np.column_stack([t, scalar_warped(m, t), *ricci_warped(m, t)]))
