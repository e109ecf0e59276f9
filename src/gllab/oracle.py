"""Finite-difference coordinate tensor engine.

This module is the independent brute-force verifier for every closed-form
curvature formula in the toolkit.  A :class:`MetricChart` is nothing but a
callable returning the metric components g_ij at a batch of points on a
coordinate rectangle, one coordinate per range; one builder makes every
warped chart over a flat base (dt^2, or the cylinder's ds^2 + dt^2).
Christoffel symbols (one batched matmul), the Ricci tensor (contracted from
them, with no Riemann tensor) and scalar curvature are assembled from
central differences, one batched call per stencil of offsets built once per
chart.  The one extrinsic check, :func:`geodesic_sphere_fit`, takes the
principal curvatures of small coordinate spheres from finite differences of
their embeddings.

Everything here is second-order accurate in the step and deliberately free of
any symmetry assumptions, so agreement with the closed-form evaluators is a
genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, _check_ints, _finite_reals

__all__ = [
    "MetricChart",
    "scalar_from_chart",
    "geodesic_sphere_fit",
    "euclidean_chart",
    "perturbed_quadratic_chart",
    "round_sphere_normal_chart",
    "warped_chart",
    "doubly_warped_chart",
    "cyl_family_chart",
]


@dataclass
class MetricChart:
    """Coordinate metric evaluator on a rectangle.

    ``rectangle`` holds ``dim`` >= 2 ranges (lo, hi) of finite reals, lo < hi
    (``errors._finite_reals``).  ``g`` maps an ``(N, dim)`` array of points
    to their ``(N, dim, dim)`` symmetric positive-definite metric matrices;
    ``metric``, the one entry point, also takes one point as a batch of one.
    ``step`` is the finite-difference spacing of every derived quantity.
    """

    rectangle: list
    g: object
    step: float = 1e-4

    def __post_init__(self):
        try:
            ok = len(self.rectangle) >= 2 and all(
                len(r) == 2 and _finite_reals(*r) and r[0] < r[1]
                for r in self.rectangle)
        except TypeError:
            ok = False
        if not ok:
            raise InvalidSpecError("rectangle must hold >= 2 finite ranges "
                                   f"(lo, hi), lo < hi: {self.rectangle}")
        self.dim = len(self.rectangle)
        ext = min(hi - lo for lo, hi in self.rectangle)
        if not 0 < self.step <= 1e-2 * ext:
            raise InvalidSpecError(
                f"step must lie in (0, {1e-2 * ext:.3g}] for this rectangle")
        # the 2d + 1 stencil offsets as rows: 0, then +h e_i, then -h e_i
        eye = self.step * np.eye(self.dim)
        self._offsets = np.concatenate([np.zeros((1, self.dim)), eye, -eye])

    def with_step(self, step):
        return MetricChart(self.rectangle, self.g, step)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        G = np.asarray(self.g(np.atleast_2d(x)), dtype=float)
        return G[0] if x.ndim == 1 else G


# ---------------------------------------------------------------------------
# intrinsic curvature
# ---------------------------------------------------------------------------

def _gamma(G, h):
    """(Gamma, g^-1) at each centre; G[..., m, :, :] is g at offset m."""
    d = G.shape[-1]
    # dg[..., l, i, j] = g_ij,l by central differences
    dg = (G[..., 1:1 + d, :, :] - G[..., 1 + d:, :, :]) / (2.0 * h)
    # lowered symbol: Gamma_{l,ij} = 1/2 (g_{il,j} + g_{jl,i} - g_{ij,l})
    low = 0.5 * (dg.swapaxes(-1, -3) + dg.swapaxes(-1, -2).swapaxes(-2, -3)
                 - dg)
    ginv = np.linalg.inv(G[..., 0, :, :])
    # Gamma^k_ij = g^kl Gamma_{l,ij}: one matmul over the flattened (i, j)
    gamma = ginv @ low.reshape(low.shape[:-2] + (d * d,))
    return gamma.reshape(low.shape), ginv


def _christoffel(chart, x):
    """Gamma and g at x, from one metric call on the 2d + 1 points."""
    G = chart.metric(x + chart._offsets)
    return _gamma(G, chart.step)[0], G[0]


def _ricci(chart, x):
    """Ric_jk = d_i G^i_jk - d_j G^i_ik + G^i_im G^m_jk - G^i_jm G^m_ik and
    g^jk at x (G = Gamma), from one metric call on the nested stencil."""
    d, h, off = chart.dim, chart.step, chart._offsets
    points = (x + off)[:, None, :] + off[None, :, :]
    G = chart.metric(points.reshape(-1, d)).reshape(2 * d + 1, 2 * d + 1,
                                                    d, d)
    gammas, ginv = _gamma(G, h)
    gamma = gammas[0]
    # dgamma[i, l, j, k] = d_i Gamma^l_jk
    dgamma = (gammas[1:1 + d] - gammas[1 + d:]) / (2.0 * h)
    ric = (dgamma.trace() - dgamma.trace(axis1=1, axis2=2)
           + np.einsum("iim,mjk->jk", gamma, gamma)
           - np.einsum("ijm,mik->jk", gamma, gamma))
    return ric, ginv[0]


def scalar_from_chart(chart, x):
    """Scalar curvature g^{jk} Ric_jk at x of shape (dim,), to O(step^2)."""
    if np.shape(x) != (chart.dim,):
        raise InvalidSpecError(f"x needs shape ({chart.dim},): {np.shape(x)}")
    ric, ginv = _ricci(chart, x)
    return float(np.vdot(ginv, ric))


# ---------------------------------------------------------------------------
# extrinsic curvature
# ---------------------------------------------------------------------------

def _embedding_jet(embed, m, h):
    """Embedding value, Jacobian, and Hessian at u = 0 by central
    differences, one ``embed`` call per stencil point."""
    e = h * np.eye(m)
    x0 = embed(np.zeros(m))
    J = np.empty((x0.size, m))
    H = np.empty((x0.size, m, m))
    for a in range(m):
        xp, xm = embed(e[a]), embed(-e[a])
        J[:, a] = (xp - xm) / (2.0 * h)
        H[:, a, a] = (xp - 2.0 * x0 + xm) / h ** 2
    for a in range(m):
        for bb in range(a + 1, m):
            H[:, a, bb] = H[:, bb, a] = (
                embed(e[a] + e[bb]) - embed(e[a] - e[bb])
                - embed(e[bb] - e[a]) + embed(-e[a] - e[bb])) / (4.0 * h ** 2)
    return x0, J, H


def _principal_curvatures(chart, embed, center):
    """Eigenvalues (ascending) of the shape operator of the hypersurface
    ``embed`` at u = 0.

    The second fundamental form is taken with respect to the unit normal
    pointing away from ``center``, so a round sphere of radius eps about
    that point in a Euclidean chart yields -1/eps in every direction.
    """
    x0, J, H = _embedding_jet(embed, chart.dim - 1, chart.step)
    gamma, G = _christoffel(chart, x0)
    induced = J.T @ G @ J
    # unit normal: g-orthogonal complement of the tangent columns
    _, _, vt = np.linalg.svd((G @ J).T)
    eta = vt[-1]
    eta = eta / np.sqrt(eta @ G @ eta)
    if eta @ (x0 - center) < 0:
        eta = -eta
    # second fundamental form in the parameter basis, w.r.t. outward eta:
    # A_ab = g(-grad_a eta, t_b) = +g(eta, D_a t_b),
    # with D_a t_b = H_ab + Gamma(J_a, J_b)
    cov = H + np.einsum("lij,ia,jb->lab", gamma, J, J)
    A = np.einsum("l,lk,kab->ab", eta, G, cov)
    # orthonormalize the tangent frame w.r.t. the induced metric and read the
    # shape operator off as a symmetric eigenproblem
    L = np.linalg.cholesky(induced)
    Linv = np.linalg.inv(L)
    Asym = Linv @ A @ Linv.T
    return np.sort(np.linalg.eigvalsh(Asym))


def _sphere_patch(center, eps, direction):
    """Embedding of the coordinate eps-sphere near a direction.

    phi(u) = center + eps * unit(w + sum_a u_a E_a), with (E_a) a Euclidean
    orthonormal complement of the unit vector w, so at u = 0 the Jacobian
    is eps * E, of full rank.
    """
    w = np.asarray(direction, dtype=float)
    d = w.size
    w = w / np.linalg.norm(w)
    # complete w to an orthonormal basis
    basis = np.linalg.qr(np.column_stack(
        [w] + [np.eye(d)[:, i] for i in range(d)]))[0]
    E = basis[:, 1:d]

    def embed(u):
        vec = w + E @ u
        return center + eps * vec / np.linalg.norm(vec)

    return embed


_FIT_DIRECTIONS = [(1.0, 0.3, -0.2), (-0.4, 1.0, 0.5), (0.2, -0.6, 1.0)]


def _fit_directions(dim):
    out = []
    for seed in _FIT_DIRECTIONS:
        v = np.zeros(dim)
        k = min(dim, len(seed))
        v[:k] = seed[:k]
        out.append(v)
    return out


def geodesic_sphere_fit(chart, center, radii):
    """Least-squares fit lambda(eps) ~ c_{-1}/eps + c_1 * eps.

    Principal curvatures of the coordinate eps-spheres about ``center`` are
    sampled over a few fixed directions; in a normal-coordinate chart the
    model predicts c_{-1} = -1 with vanishing residual as the radii shrink.
    """
    center = np.asarray(center, dtype=float)
    rows, rhs = [], []
    for eps in radii:
        for w in _fit_directions(chart.dim):
            lams = _principal_curvatures(
                chart, _sphere_patch(center, eps, w), center)
            for lam in lams:
                rows.append([1.0 / eps, eps])
                rhs.append(lam)
    rows, rhs = np.asarray(rows), np.asarray(rhs)
    coef = np.linalg.lstsq(rows, rhs, rcond=None)[0]
    resid = float(np.sqrt(np.mean((rows @ coef - rhs) ** 2)))
    return {"c_m1": float(coef[0]), "c_1": float(coef[1]), "residual": resid}


# ---------------------------------------------------------------------------
# chart constructors
# ---------------------------------------------------------------------------

def _identities(shape):
    """(N, d, d) identities for (N, d) points of this ``shape``, and the
    (N, d) strided view of their diagonals, to write in place."""
    G = np.zeros(shape + shape[1:])
    D = G.reshape(shape[0], -1)[:, ::shape[1] + 1]
    D[...] = 1.0
    return G, D


def euclidean_chart(dim):
    """Flat R^dim on the cube [-2, 2]^dim."""
    return MetricChart([(-2.0, 2.0)] * dim, lambda X: _identities(X.shape)[0])


def perturbed_quadratic_chart():
    """delta_ij on [-1, 1]^3 plus the perturbation 0.1 x_0^2 of g_11."""
    def g(X):
        G, D = _identities(X.shape)
        D[:, 1] += 0.1 * X[:, 0] ** 2
        return G
    return MetricChart([(-1.0, 1.0)] * 3, g)


def round_sphere_normal_chart():
    """Unit round 3-sphere in geodesic normal coordinates about a point.

    g_ij(x) = xhat_i xhat_j + (sin^2 r / r^2)(delta_ij - xhat_i xhat_j),
    r = |x|; smooth at 0 with g_ij(0) = delta_ij, which rows with
    r^2 < 1e-24 take without dividing.  The chart is the cube [-1.2, 1.2]^3.
    """
    def g(X):
        out = _identities(X.shape)[0]
        r2 = np.einsum("ni,ni->n", X, X)
        away = r2 >= 1e-24
        r = np.sqrt(r2[away])
        xhat = X[away] / r[:, None]
        proj = xhat[:, :, None] * xhat[:, None, :]
        s = (np.sin(r) / r) ** 2
        out[away] = proj + s[:, None, None] * (np.eye(3) - proj)
        return out
    return MetricChart([(-1.2, 1.2)] * 3, g)


# range of every fiber angle in the charts below, clear of the poles where
# the nested-angle metric degenerates
_ANGLES = (0.3, np.pi - 0.3)


def _sphere_angle_metric(D, angles, scale):
    """Write scale^2 (N,) times the round S^m metrics in nested angles
    (N, m) into their (N, m) diagonals D, which hold ones."""
    np.cumprod(np.sin(angles[:, :-1]) ** 2, axis=1, out=D[:, 1:])
    D *= scale[:, None] ** 2


def _product_chart(base, dims, warps, step):
    """Chart for a flat base + sum_i w_i^2 ds_{dims[i]}^2: base coordinates
    on the ranges ``base``, then nested angles; ``warps`` maps (N, len(base))
    base points to each w_i's (N,) values.  Dimensions are integers >= 0."""
    _check_ints(0, "fiber dimensions must be >= 0",
                **{f"dims[{i}]": d for i, d in enumerate(dims)})
    cuts = np.cumsum([len(base), *dims])

    def g(X):
        G, D = _identities(X.shape)
        for w, lo, hi in zip(warps(X[:, :cuts[0]]), cuts[:-1], cuts[1:]):
            _sphere_angle_metric(D[:, lo:hi], X[:, lo:hi], w)
        return G
    return MetricChart([*base] + [_ANGLES] * sum(dims), g, step)


def _warped_chart(dims, profiles, step):
    """Chart for dt^2 + sum_i f_i(t)^2 ds_{dims[i]}^2, t on the shared
    domain less 5% at each end."""
    pad = 0.05 * profiles[0].b
    return _product_chart([(pad, profiles[0].b - pad)], dims,
                          lambda T: [f(T[:, 0]) for f in profiles], step)


def warped_chart(f, n, step=1e-4):
    """Full coordinate chart for dt^2 + f(t)^2 ds_{n-1}^2; n is an integer
    >= 2."""
    _check_ints(2, f"n must be >= 2, got {n!r}", n=n)
    return _warped_chart([n - 1], [f], step)


def doubly_warped_chart(u, v, p, q):
    """Chart for dt^2 + u^2 ds_p^2 + v^2 ds_q^2 in nested angles."""
    return _warped_chart([p, q], [u, v], 1e-4)


def cyl_family_chart(phi, qtilde, s_range, t_range, step=1e-4):
    """Chart for ds^2 + dt^2 + phi(s,t)^2 ds_qtilde^2 in nested angles."""
    return _product_chart([s_range, t_range], [qtilde],
                          lambda ST: [phi.jet(*ST.T, 0)[0]], step)
