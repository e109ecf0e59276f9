"""Finite-difference coordinate tensor engine.

This module is the independent brute-force verifier for every closed-form
curvature formula in the toolkit.  A :class:`MetricChart` is nothing but a
callable returning the metric components g_ij at a batch of points on a
coordinate rectangle; Christoffel symbols, the Riemann tensor, and scalar
curvature are then assembled from central differences, each from one
batched call on its whole stencil, and extrinsic data (second
fundamental form, principal curvatures) from finite differences of an
embedding map.

Everything here is second-order accurate in the step and deliberately free of
any symmetry assumptions, so agreement with the closed-form evaluators is a
genuine cross-check rather than a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEmbeddingError, InvalidSpecError

__all__ = [
    "MetricChart",
    "HypersurfaceParam",
    "christoffel",
    "riemann",
    "ricci_from_chart",
    "scalar_from_chart",
    "principal_curvatures",
    "geodesic_sphere_fit",
    "sphere_patch",
    "euclidean_chart",
    "polar_chart",
    "perturbed_quadratic_chart",
    "round_sphere_normal_chart",
    "warped_chart",
    "doubly_warped_chart",
    "cyl_family_chart",
]


@dataclass
class MetricChart:
    """Coordinate metric evaluator on a rectangle.

    ``g`` maps an ``(N, dim)`` array of points (rows) to the ``(N, dim, dim)``
    array of their symmetric positive-definite metric matrices.  ``metric``,
    the one entry point, also takes one length-``dim`` point as a batch of
    one.  ``step`` is the finite-difference spacing of every derived quantity.
    """

    dim: int
    rectangle: list
    g: object
    step: float = 1e-4

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidSpecError("chart dimension must be >= 2")
        if len(self.rectangle) != self.dim:
            raise InvalidSpecError("rectangle must give bounds per axis")
        ext = min(hi - lo for lo, hi in self.rectangle)
        if ext <= 0:
            raise InvalidSpecError("rectangle extents must be positive")
        if not 0 < self.step <= 1e-2 * ext:
            raise InvalidSpecError(
                f"step must lie in (0, {1e-2 * ext:.3g}] for this rectangle")

    def with_step(self, step):
        return MetricChart(self.dim, self.rectangle, self.g, step)

    def metric(self, x):
        x = np.asarray(x, dtype=float)
        G = np.asarray(self.g(np.atleast_2d(x)), dtype=float)
        return G[0] if x.ndim == 1 else G


@dataclass
class HypersurfaceParam:
    """Embedded hypersurface: (dim-1) parameters -> chart point."""

    chart: MetricChart
    embedding: object
    outward_from: np.ndarray

    def point(self, u):
        return np.asarray(self.embedding(np.asarray(u, dtype=float)),
                          dtype=float)


# ---------------------------------------------------------------------------
# intrinsic curvature
# ---------------------------------------------------------------------------

def _offsets(d, h):
    """The 2d + 1 stencil offsets as rows: 0, then +h e_i, then -h e_i."""
    eye = h * np.eye(d)
    return np.concatenate([np.zeros((1, d)), eye, -eye])


def _gamma(G, h):
    """(Gamma, g) at each centre; G[..., m, :, :] is g at centre + offset m."""
    d = G.shape[-1]
    g = G[..., 0, :, :]
    # dg[..., l, i, j] = g_ij,l by central differences
    dg = (G[..., 1:1 + d, :, :] - G[..., 1 + d:, :, :]) / (2.0 * h)
    # lowered symbol: Gamma_{l,ij} = 1/2 (g_{il,j} + g_{jl,i} - g_{ij,l})
    low = 0.5 * (np.einsum("...jil->...lij", dg)
                 + np.einsum("...ijl->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", np.linalg.inv(g), low), g


def _christoffel(chart, x):
    """Gamma and g at x, from one metric call on the 2d + 1 points."""
    return _gamma(chart.metric(x + _offsets(chart.dim, chart.step)),
                  chart.step)


def christoffel(chart, x):
    """Gamma^k_ij = 1/2 g^{kl} (g_{il,j} + g_{jl,i} - g_{ij,l})."""
    return _christoffel(chart, x)[0]


def _riemann(chart, x):
    """R^l_{ijk} and g at x, from one metric call on the nested stencil:
    each centre c in {x, x + h e_i, x - h e_i} with its own c +- h e_l."""
    d, h = chart.dim, chart.step
    off = _offsets(d, h)
    points = (x + off)[:, None, :] + off[None, :, :]
    G = chart.metric(points.reshape(-1, d)).reshape(2 * d + 1, 2 * d + 1,
                                                    d, d)
    gammas, g = _gamma(G, h)
    gamma = gammas[0]
    # dgamma[i, l, j, k] = d_i Gamma^l_jk
    dgamma = (gammas[1:1 + d] - gammas[1 + d:]) / (2.0 * h)
    quad = np.einsum("lim,mjk->lijk", gamma, gamma)
    R = (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
         + quad - np.einsum("ljik->lijk", quad))
    return R, g[0]


def riemann(chart, x):
    """R^l_{ijk} = d_i Gamma^l_jk - d_j Gamma^l_ik + Gamma*Gamma terms."""
    return _riemann(chart, x)[0]


def ricci_from_chart(chart, x):
    """Ric_jk = R^i_{ijk}."""
    return np.einsum("iijk->jk", riemann(chart, x))


def scalar_from_chart(chart, x):
    """Scalar curvature g^{jk} Ric_jk, second-order accurate in the step."""
    R, g = _riemann(chart, x)
    ric = np.einsum("iijk->jk", R)
    return float(np.einsum("jk,jk->", np.linalg.inv(g), ric))


# ---------------------------------------------------------------------------
# extrinsic curvature
# ---------------------------------------------------------------------------

def _embedding_jet(hs, u):
    """Embedding value, Jacobian, and Hessian by central differences."""
    h = hs.chart.step
    u = np.asarray(u, dtype=float)
    m = u.size
    x0 = hs.point(u)
    d = x0.size
    J = np.empty((d, m))
    H = np.empty((d, m, m))
    for a in range(m):
        ea = np.zeros(m)
        ea[a] = h
        xp, xm = hs.point(u + ea), hs.point(u - ea)
        J[:, a] = (xp - xm) / (2.0 * h)
        H[:, a, a] = (xp - 2.0 * x0 + xm) / h ** 2
    for a in range(m):
        for bb in range(a + 1, m):
            ea = np.zeros(m)
            eb = np.zeros(m)
            ea[a] = h
            eb[bb] = h
            mixed = (hs.point(u + ea + eb) - hs.point(u + ea - eb)
                     - hs.point(u - ea + eb) + hs.point(u - ea - eb)) \
                / (4.0 * h ** 2)
            H[:, a, bb] = mixed
            H[:, bb, a] = mixed
    return x0, J, H


def principal_curvatures(hs, u):
    """Eigenvalues (ascending) of the shape operator at parameter value u.

    The second fundamental form is taken with respect to the unit normal
    pointing away from ``hs.outward_from``, so a round sphere of radius eps
    about that point in a Euclidean chart yields -1/eps in every direction.
    """
    chart = hs.chart
    x0, J, H = _embedding_jet(hs, u)
    gamma, G = _christoffel(chart, x0)
    induced = J.T @ G @ J
    if np.linalg.matrix_rank(J, tol=1e-8) < J.shape[1]:
        raise DegenerateEmbeddingError(
            "embedding Jacobian is rank-deficient at the sample point")
    # unit normal: g-orthogonal complement of the tangent columns
    _, _, vt = np.linalg.svd((G @ J).T)
    eta = vt[-1]
    eta = eta / np.sqrt(eta @ G @ eta)
    if eta @ (x0 - hs.outward_from) < 0:
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


def sphere_patch(chart, center, eps, direction):
    """Local parameterization of the coordinate eps-sphere near a direction.

    phi(u) = center + eps * unit(w + sum_a u_a E_a), with (E_a) a Euclidean
    orthonormal complement of the unit vector w.  Immersive near u = 0.
    """
    d = chart.dim
    w = np.asarray(direction, dtype=float)
    w = w / np.linalg.norm(w)
    # complete w to an orthonormal basis
    basis = np.linalg.qr(np.column_stack(
        [w] + [np.eye(d)[:, i] for i in range(d)]))[0]
    E = basis[:, 1:d]
    center = np.asarray(center, dtype=float)

    def embed(u):
        vec = w + E @ np.asarray(u, dtype=float)
        return center + eps * vec / np.linalg.norm(vec)

    return HypersurfaceParam(chart, embed, outward_from=center)


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
    rows = []
    rhs = []
    for eps in radii:
        for w in _fit_directions(chart.dim):
            hs = sphere_patch(chart, center, eps, w)
            lams = principal_curvatures(hs, np.zeros(chart.dim - 1))
            for lam in lams:
                rows.append([1.0 / eps, eps])
                rhs.append(lam)
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    coef, res, _, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    resid = float(np.sqrt(np.mean((rows @ coef - rhs) ** 2)))
    return {"c_m1": float(coef[0]), "c_1": float(coef[1]), "residual": resid}


# ---------------------------------------------------------------------------
# chart constructors
# ---------------------------------------------------------------------------

def _diag(D):
    """(N, d, d) diagonal matrices from their (N, d) diagonals."""
    return D[:, :, None] * np.eye(D.shape[1])


def euclidean_chart(dim):
    """Flat R^dim on the cube [-2, 2]^dim."""
    return MetricChart(dim, [(-2.0, 2.0)] * dim,
                       lambda X: _diag(np.ones(X.shape)))


def polar_chart():
    """Flat plane in polar coordinates: dr^2 + r^2 dtheta^2."""
    def g(X):
        return _diag(np.column_stack([np.ones(len(X)), X[:, 0] ** 2]))
    return MetricChart(2, [(0.1, 3.0), (-np.pi, np.pi)], g)


def perturbed_quadratic_chart():
    """delta_ij on [-1, 1]^3 plus the perturbation 0.1 x_0^2 of g_11."""
    def g(X):
        D = np.ones(X.shape)
        D[:, 1] += 0.1 * X[:, 0] ** 2
        return _diag(D)
    return MetricChart(3, [(-1.0, 1.0)] * 3, g)


def round_sphere_normal_chart():
    """Unit round 3-sphere in geodesic normal coordinates about a point.

    g_ij(x) = xhat_i xhat_j + (sin^2 r / r^2)(delta_ij - xhat_i xhat_j),
    r = |x|; smooth at 0 with g_ij(0) = delta_ij, which rows with
    r^2 < 1e-24 take without dividing.  The chart is the cube [-1.2, 1.2]^3.
    """
    def g(X):
        out = _diag(np.ones(X.shape))
        r2 = np.einsum("ni,ni->n", X, X)
        away = r2 >= 1e-24
        r = np.sqrt(r2[away])
        xhat = X[away] / r[:, None]
        proj = xhat[:, :, None] * xhat[:, None, :]
        s = (np.sin(r) / r) ** 2
        out[away] = proj + s[:, None, None] * (np.eye(3) - proj)
        return out
    return MetricChart(3, [(-1.2, 1.2)] * 3, g)


# range of every fiber angle in the charts below, clear of the poles where
# the nested-angle metric degenerates
_ANGLES = (0.3, np.pi - 0.3)


def _sphere_angle_metric(angles):
    """Round S^m metrics in nested angles (N, m), as (N, m) diagonals."""
    diag = np.ones(angles.shape)
    diag[:, 1:] = np.cumprod(np.sin(angles[:, :-1]) ** 2, axis=1)
    return diag


def _warped_chart(dims, profiles, step):
    """Chart for dt^2 + sum_i f_i(t)^2 ds_{dims[i]}^2: coordinates t, 5% of
    the shared domain clear of each end, then each fiber's nested angles."""
    cuts = np.cumsum([1, *dims])

    def g(X):
        t = X[:, 0]
        fibers = [f(t)[:, None] ** 2 * _sphere_angle_metric(X[:, lo:hi])
                  for f, lo, hi in zip(profiles, cuts[:-1], cuts[1:])]
        return _diag(np.column_stack([np.ones(len(X)), *fibers]))
    pad = 0.05 * profiles[0].b
    rect = [(pad, profiles[0].b - pad)] + [_ANGLES] * sum(dims)
    return MetricChart(1 + sum(dims), rect, g, step)


def warped_chart(f, n, step=1e-4):
    """Full coordinate chart for dt^2 + f(t)^2 ds_{n-1}^2."""
    return _warped_chart([n - 1], [f], step)


def doubly_warped_chart(u, v, p, q):
    """Chart for dt^2 + u^2 ds_p^2 + v^2 ds_q^2 in nested angles."""
    return _warped_chart([p, q], [u, v], 1e-4)


def cyl_family_chart(phi, qtilde, s_range, t_range, step=1e-4):
    """Chart for ds^2 + dt^2 + phi(s,t)^2 ds_qtilde^2 in nested angles."""
    def g(X):
        val = phi.jet(X[:, 0], X[:, 1], 0)[0][:, None]
        fiber = val ** 2 * _sphere_angle_metric(X[:, 2:])
        return _diag(np.column_stack([np.ones((len(X), 2)), fiber]))
    rect = [tuple(s_range), tuple(t_range)] + [_ANGLES] * qtilde
    return MetricChart(2 + qtilde, rect, g, step)
