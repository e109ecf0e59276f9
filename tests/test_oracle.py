"""Finite-difference tensor engine vs closed forms and flat pins."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from gllab.curvature import (CylFamilyMetric, DoublyWarpedMetric, Phi2D,
                             WarpedProduct, WarpedSphereMetric,
                             scalar_cyl_family, scalar_doubly_warped,
                             scalar_warped)
from gllab.errors import InvalidSpecError
from gllab.fnspace import (PolyPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           make_torpedo, reflect)
from gllab.oracle import (_ANGLES, MetricChart, _christoffel, _gamma,
                          _identities, _ricci, _sphere_angle_metric,
                          _warped_chart, cyl_family_chart, doubly_warped_chart,
                          euclidean_chart, geodesic_sphere_fit,
                          perturbed_quadratic_chart, round_sphere_normal_chart,
                          scalar_from_chart, warped_chart)


def ricci(chart, x):
    """Ric_jk from the oracle's batched Ricci stencil."""
    return _ricci(chart, x)[0]


def polar_chart():
    """Flat plane in polar coordinates: dr^2 + r^2 dtheta^2."""
    def g(X):
        D = np.column_stack([np.ones(len(X)), X[:, 0] ** 2])
        return D[:, :, None] * np.eye(2)
    return MetricChart([(0.1, 3.0), (-np.pi, np.pi)], g)


def round_profile(radius=1.0):
    b = radius * np.pi
    return SmoothFn1D(b, [SinePiece((0.0, b), radius, 1.0 / radius)])


class TestFlatPins:
    def test_euclidean_zero(self):
        ch = euclidean_chart(3)
        x = np.array([0.3, -0.2, 0.7])
        assert abs(scalar_from_chart(ch, x)) < 1e-8
        assert np.max(np.abs(ricci(ch, x))) < 1e-8

    def test_polar_flat(self):
        ch = polar_chart()
        assert abs(scalar_from_chart(ch, np.array([1.3, 0.7]))) < 1e-6


class TestAgreement:
    def test_warped_round(self):
        f = round_profile()
        ch = warped_chart(f, 4)
        m = WarpedSphereMetric(4, f)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = np.array([rng.uniform(lo, hi)
                          for lo, hi in ch.rectangle])
            R_fd = scalar_from_chart(ch, x)
            R_cf = float(scalar_warped(m, x[0]))
            assert abs(R_fd - R_cf) < 1e-5 * max(1.0, abs(R_cf))

    def test_doubly_warped(self):
        b = np.pi / 2
        u = SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0, phase=np.pi / 2)])
        v = SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0)])
        ch = doubly_warped_chart(u, v, 2, 2)
        m = DoublyWarpedMetric(2, 2, u, v)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = np.array([rng.uniform(lo, hi)
                          for lo, hi in ch.rectangle])
            R_fd = scalar_from_chart(ch, x)
            R_cf = float(scalar_doubly_warped(m, x[0]))
            assert abs(R_fd - R_cf) < 1e-5 * max(1.0, abs(R_cf))

    def test_three_factor_product(self):
        # open, non-constant profiles on (0, 1): dt^2 + (1 + 0.3t)^2 ds_1^2
        # + cos(t)^2 ds_2^2 + (0.5 + 0.2t^2)^2 ds_1^2, at criterion 05's
        # tolerance
        b = 1.0
        profiles = [SmoothFn1D(b, [piece]) for piece in (
            PolyPiece((0.0, b), [1.0, 0.3]),
            SinePiece((0.0, b), 1.0, 1.0, phase=np.pi / 2),
            PolyPiece((0.0, b), [0.5, 0.0, 0.2]))]
        ch = _warped_chart((1, 2, 1), profiles, 1e-4)
        m = WarpedProduct((1, 2, 1), profiles)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = np.array([rng.uniform(lo, hi)
                          for lo, hi in ch.rectangle])
            R_fd = scalar_from_chart(ch, x)
            R_cf = float(m.scalar(x[0]))
            assert abs(R_fd - R_cf) < 1e-5 * max(1.0, abs(R_cf))

    def test_step_halving_second_order(self):
        f = round_profile()
        ch = warped_chart(f, 4, step=2e-3)
        m = WarpedSphereMetric(4, f)
        x = np.array([1.2, 0.9, 1.1, 0.8])
        exact = float(scalar_warped(m, x[0]))
        e1 = scalar_from_chart(ch, x) - exact
        e2 = scalar_from_chart(ch.with_step(1e-3), x) - exact
        assert 3.5 < abs(e1 / e2) < 4.5


class TestGeodesicFit:
    def test_euclidean(self):
        fit = geodesic_sphere_fit(euclidean_chart(3), np.zeros(3),
                                  [0.1, 0.15, 0.2])
        assert abs(fit["c_m1"] + 1.0) < 1e-4

    def test_perturbed(self):
        fit = geodesic_sphere_fit(perturbed_quadratic_chart(), np.zeros(3),
                                  [0.1, 0.15, 0.2])
        assert abs(fit["c_m1"] + 1.0) < 1e-4

    def test_round_sphere_series(self):
        ch = round_sphere_normal_chart()
        fit = geodesic_sphere_fit(ch, np.zeros(3), [0.05, 0.1, 0.2, 0.3])
        # mean curvature of the eps-sphere is -cot(eps) ~ -1/eps + eps/3
        assert abs(fit["c_m1"] + 1.0) < 1e-3
        assert abs(fit["c_1"] - 1.0 / 3.0) < 1e-2
        for eps in (0.05, 0.15, 0.3):
            model = fit["c_m1"] / eps + fit["c_1"] * eps
            assert abs(model - (-1.0 / np.tan(eps))) < 1e-3


def _flat(X):
    return np.broadcast_to(np.eye(2), (len(X), 2, 2))


# a chart's dimension is the number of its ranges
@pytest.mark.parametrize("args, message", [
    (([(0.0, 1.0)], _flat), "must hold >= 2 finite ranges"),
    (([(0.0, 1.0), (0.5, 0.5)], _flat), "lo < hi"),
    (([(0.0, 1.0), (0.0, 1.0)], _flat, 0.0), r"step must lie in \(0,"),
    (([(0.0, 1.0), (0.0, 1.0)], _flat, 0.02), r"step must lie in \(0,"),
], ids=["dim-1", "zero-extent", "zero-step", "step-above-1e-2-extent"])
def test_chart_checks_raise_typed(args, message):
    with pytest.raises(InvalidSpecError, match=message):
        MetricChart(*args)


def test_cyl_family_agreement():
    f = round_profile()
    phi = Phi2D.from_profile(f)
    cyl = CylFamilyMetric(2, phi)
    ch = cyl_family_chart(phi, 2, (0.0, 1.0), (0.5, np.pi - 0.5),
                          step=2e-4)
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = np.array([rng.uniform(lo, hi) for lo, hi in ch.rectangle])
        R_fd = scalar_from_chart(ch, x)
        R_cf = float(scalar_cyl_family(cyl, x[0], x[1]))
        assert abs(R_fd - R_cf) < 1e-4 * max(1.0, abs(R_cf))


# ---------------------------------------------------------------------------
# batched stencil vs the one-point-at-a-time reference
# ---------------------------------------------------------------------------

def _ref_dg(chart, x, i):
    h = chart.step
    e = np.zeros(chart.dim)
    e[i] = h
    return (chart.metric(x + e) - chart.metric(x - e)) / (2.0 * h)


def ref_christoffel(chart, x):
    """Gamma from 2d + 1 one-point metric calls (the per-point algorithm)."""
    d = chart.dim
    dg = np.stack([_ref_dg(chart, x, i) for i in range(d)])
    ginv = np.linalg.inv(chart.metric(x))
    low = 0.5 * (np.einsum("jil->lij", dg) + np.einsum("ijl->lij", dg)
                 - dg)
    return np.einsum("kl,lij->kij", ginv, low)


def ref_riemann(chart, x):
    d, h = chart.dim, chart.step
    gamma = ref_christoffel(chart, x)
    dgamma = np.empty((d, d, d, d))
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        dgamma[i] = (ref_christoffel(chart, x + e)
                     - ref_christoffel(chart, x - e)) / (2.0 * h)
    quad = np.einsum("lim,mjk->lijk", gamma, gamma)
    return (np.einsum("iljk->lijk", dgamma) - np.einsum("jlik->lijk", dgamma)
            + quad - np.einsum("ljik->lijk", quad))


def ref_ricci(chart, x):
    return np.einsum("iijk->jk", ref_riemann(chart, x))


def ref_scalar(chart, x):
    ginv = np.linalg.inv(chart.metric(x))
    return float(np.einsum("jk,jk->", ginv, ref_ricci(chart, x)))


def _torpedo():
    return make_torpedo(TorpedoSpec(0.5, tube_length=1.0))


def _round_join():
    b = np.pi / 2
    return (SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0, phase=np.pi / 2)]),
            SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0)]))


def _cyl_chart(f, qtilde):
    pad = 0.1 * f.b
    return cyl_family_chart(Phi2D.from_profile(f), qtilde, (0.0, 1.0),
                            (pad, f.b - pad), step=2e-4)


# every chart constructor, at the dimensions the benchmark pool uses
CHARTS = {
    "euclidean": lambda: euclidean_chart(3),
    "polar": polar_chart,
    "perturbed": perturbed_quadratic_chart,
    "round-sphere-normal": round_sphere_normal_chart,
    **{f"warped-round-n{n}": (lambda n=n: warped_chart(round_profile(), n))
       for n in (3, 4, 5)},
    **{f"warped-torpedo-n{n}": (lambda n=n: warped_chart(_torpedo(), n))
       for n in (3, 4, 5)},
    **{f"doubly-round-p{p}q{q}":
       (lambda p=p, q=q: doubly_warped_chart(*_round_join(), p, q))
       for p in (1, 2) for q in (1, 2)},
    **{f"doubly-torpedo-p{p}q{q}":
       (lambda p=p, q=q: doubly_warped_chart(reflect(_torpedo()), _torpedo(),
                                             p, q))
       for p in (1, 2) for q in (1, 2)},
    **{f"cyl-round-q{q}": (lambda q=q: _cyl_chart(round_profile(), q))
       for q in (1, 2, 3)},
    **{f"cyl-torpedo-q{q}": (lambda q=q: _cyl_chart(_torpedo(), q))
       for q in (1, 2, 3)},
}


def _random_points(chart, n, seed):
    rng = np.random.default_rng(seed)
    return np.array([[rng.uniform(lo, hi) for lo, hi in chart.rectangle]
                     for _ in range(n)])


def _close(got, ref, rel=1e-7):
    """Agreement relative to the reference's largest entry (at least 1)."""
    got, ref = np.asarray(got), np.asarray(ref)
    return np.max(np.abs(got - ref)) <= rel * max(1.0, np.max(np.abs(ref)))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_batched_stencil_matches_per_point_reference(name):
    chart = CHARTS[name]()
    for x in _random_points(chart, 3, seed=len(name)):
        assert _close(_christoffel(chart, x)[0], ref_christoffel(chart, x))
        assert _close(ricci(chart, x), ref_ricci(chart, x))
        assert _close(scalar_from_chart(chart, x), ref_scalar(chart, x))


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_one_metric_call_per_scalar(name, monkeypatch):
    # the whole nested stencil, (2d + 1)^2 points, in one batch
    chart = CHARTS[name]()
    calls, metric = [], MetricChart.metric
    monkeypatch.setattr(MetricChart, "metric", lambda self, x: (
        calls.append(len(np.atleast_2d(x))), metric(self, x))[1])
    for x in _random_points(chart, 2, seed=3):
        calls.clear()
        scalar_from_chart(chart, x)
        assert calls == [(2 * chart.dim + 1) ** 2]


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_metric_batch_equals_one_point_calls(name):
    chart = CHARTS[name]()
    X = _random_points(chart, 50, seed=7)
    G = chart.metric(X)
    assert G.shape == (50, chart.dim, chart.dim)
    np.testing.assert_array_equal(G, [chart.metric(x) for x in X])


def _einsum_gamma(G, h):
    """Gamma = g^-1 Gamma_low by the einsum contraction, the reference."""
    d = G.shape[-1]
    dg = (G[..., 1:1 + d, :, :] - G[..., 1 + d:, :, :]) / (2.0 * h)
    low = 0.5 * (np.einsum("...jil->...lij", dg)
                 + np.einsum("...ijl->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij",
                     np.linalg.inv(G[..., 0, :, :]), low)


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_gamma_matmul_equals_the_einsum_contraction(name):
    chart = CHARTS[name]()
    d, off = chart.dim, chart._offsets
    for x in _random_points(chart, 2, seed=5):
        points = (x + off)[:, None, :] + off[None, :, :]
        G = chart.metric(points.reshape(-1, d)).reshape(
            2 * d + 1, 2 * d + 1, d, d)
        got, want = _gamma(G, chart.step)[0], _einsum_gamma(G, chart.step)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


# scalar_from_chart at each chart's _random_points(chart, 1, seed=2024),
# as the einsum contraction and the per-call stencil computed it
_PINNED_SCALARS = {
    "cyl-round-q1": 2.000000019396304,
    "cyl-round-q2": 6.000000043860251,
    "cyl-round-q3": 12.00000029443456,
    "cyl-torpedo-q1": 8.926856486500713,
    "cyl-torpedo-q2": 26.1969361584584,
    "cyl-torpedo-q3": 51.810239703727106,
    "doubly-round-p1q1": 6.000000075498388,
    "doubly-round-p1q2": 12.000000030307149,
    "doubly-round-p2q1": 12.000000246876718,
    "doubly-round-p2q2": 20.000000216820165,
    "doubly-torpedo-p1q1": 6.2230600832128715,
    "doubly-torpedo-p1q2": 14.223060024076647,
    "doubly-torpedo-p2q1": 20.70877082841927,
    "doubly-torpedo-p2q2": 28.708770885031203,
    "euclidean": 0.0,
    "perturbed": -0.19514359945800358,
    "polar": 3.4221114179946603e-09,
    "round-sphere-normal": 5.999999966222039,
    "warped-round-n3": 5.999999978165187,
    "warped-round-n4": 11.99999997166865,
    "warped-round-n5": 20.000000062868356,
    "warped-torpedo-n3": 8.00000000373428,
    "warped-torpedo-n4": 23.999999962877013,
    "warped-torpedo-n5": 48.00000019969885,
}


@pytest.mark.parametrize("name", sorted(CHARTS))
def test_scalar_matches_pinned_values(name):
    chart = CHARTS[name]()
    x = _random_points(chart, 1, seed=2024)[0]
    assert scalar_from_chart(chart, x) == pytest.approx(
        _PINNED_SCALARS[name], rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# one chart builder: the former warped and cylinder chart bodies as references
# ---------------------------------------------------------------------------

def _former_warped(dims, profiles):
    """(rectangle, g) of the warped chart body before the shared builder."""
    cuts = np.cumsum([1, *dims])

    def g(X):
        G, D = _identities(X.shape)
        for f, lo, hi in zip(profiles, cuts[:-1], cuts[1:]):
            _sphere_angle_metric(D[:, lo:hi], X[:, lo:hi], f(X[:, 0]))
        return G
    pad = 0.05 * profiles[0].b
    return [(pad, profiles[0].b - pad)] + [_ANGLES] * sum(dims), g


def _former_cyl(phi, qtilde, s_range, t_range):
    """(rectangle, g) of the cylinder chart body before the shared builder."""
    def g(X):
        G, D = _identities(X.shape)
        _sphere_angle_metric(D[:, 2:], X[:, 2:], phi.jet(*X[:, :2].T, 0)[0])
        return G
    return [tuple(s_range), tuple(t_range)] + [_ANGLES] * qtilde, g


def _former_cyl_chart(f, qtilde):
    pad = 0.1 * f.b
    return _former_cyl(Phi2D.from_profile(f), qtilde, (0.0, 1.0),
                       (pad, f.b - pad))


# the former body of each chart in CHARTS that the shared builder makes
FORMER = {
    **{f"warped-round-n{n}": (lambda n=n: _former_warped(
        [n - 1], [round_profile()])) for n in (3, 4, 5)},
    **{f"warped-torpedo-n{n}": (lambda n=n: _former_warped(
        [n - 1], [_torpedo()])) for n in (3, 4, 5)},
    **{f"doubly-round-p{p}q{q}": (lambda p=p, q=q: _former_warped(
        [p, q], list(_round_join()))) for p in (1, 2) for q in (1, 2)},
    **{f"doubly-torpedo-p{p}q{q}": (lambda p=p, q=q: _former_warped(
        [p, q], [reflect(_torpedo()), _torpedo()]))
       for p in (1, 2) for q in (1, 2)},
    **{f"cyl-round-q{q}": (lambda q=q: _former_cyl_chart(round_profile(), q))
       for q in (1, 2, 3)},
    **{f"cyl-torpedo-q{q}": (lambda q=q: _former_cyl_chart(_torpedo(), q))
       for q in (1, 2, 3)},
}

_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"
POOL_CHARTS = json.loads(_POOL.read_text())["charts"]


def _pool_profile(spec):
    if spec["profile"] == "round":
        return round_profile(spec["radius"])
    return make_torpedo(TorpedoSpec(spec["delta"], tube_length=spec["tube"]))


def _pool_pair(spec):
    """(chart, former (rectangle, g)) of a benchmark pool chart spec, built
    as the benchmark builds it."""
    if spec["kind"] == "warped":
        f = _pool_profile(spec)
        return warped_chart(f, spec["n"]), _former_warped([spec["n"] - 1], [f])
    if spec["kind"] == "doubly":
        if spec["profile"] == "round":
            rad = spec["radius"]
            b = rad * np.pi / 2
            u, v = (SmoothFn1D(b, [SinePiece((0.0, b), rad, 1.0 / rad, phase)])
                    for phase in (np.pi / 2, 0.0))
        else:
            v = _pool_profile(spec)
            u = reflect(_pool_profile(spec))
        p, q = spec["p"], spec["q"]
        return doubly_warped_chart(u, v, p, q), _former_warped([p, q], [u, v])
    f = _pool_profile(spec)
    phi, pad = Phi2D.from_profile(f), 0.1 * f.b
    ranges = (0.0, 1.0), (pad, f.b - pad)
    return (cyl_family_chart(phi, spec["qtilde"], *ranges, step=2e-4),
            _former_cyl(phi, spec["qtilde"], *ranges))


def _same_bits(chart, former, seed):
    rect, g = former
    assert [tuple(r) for r in chart.rectangle] == rect
    X = _random_points(chart, 40, seed)
    got, want = chart.metric(X), g(X)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_former_bodies_cover_every_builder_chart():
    fixed = {"euclidean", "polar", "perturbed", "round-sphere-normal"}
    assert set(FORMER) == set(CHARTS) - fixed


@pytest.mark.parametrize("name", sorted(FORMER))
def test_builder_matches_the_former_chart_bodies(name):
    _same_bits(CHARTS[name](), FORMER[name](), seed=len(name))


@pytest.mark.parametrize("cid", sorted(POOL_CHARTS))
def test_pool_charts_match_the_former_chart_bodies(cid):
    _same_bits(*_pool_pair(POOL_CHARTS[cid]), seed=int(cid[1:]))


def test_step_change_rebuilds_the_stencil():
    chart = CHARTS["warped-torpedo-n3"]()
    for other in (chart.with_step(2e-4),
                  dataclasses.replace(chart, step=2e-4)):
        np.testing.assert_array_equal(other._offsets, 2.0 * chart._offsets)


class TestRoundSphereOrigin:
    def test_mixed_batch_takes_identity_at_origin(self):
        ch = round_sphere_normal_chart()
        X = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [1e-13, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            G = ch.metric(X)
        np.testing.assert_array_equal(G[0], np.eye(3))
        np.testing.assert_array_equal(G[2], np.eye(3))
        np.testing.assert_array_equal(G[1], ch.metric(X[1]))

    def test_scalar_at_origin(self):
        # the nested stencil about 0 holds the origin itself 2d + 1 times
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R = scalar_from_chart(round_sphere_normal_chart(), np.zeros(3))
        assert abs(R - 6.0) < 1e-5 * 6.0

    def test_geodesic_fit_about_origin_unchanged(self):
        # values of the one-point-at-a-time algorithm
        fit = geodesic_sphere_fit(round_sphere_normal_chart(), np.zeros(3),
                                  [0.05, 0.1, 0.2, 0.3])
        assert fit["c_m1"] == pytest.approx(-1.0000070272712138, rel=1e-9)
        assert fit["c_1"] == pytest.approx(0.3350716280726897, rel=1e-9)
        assert fit["residual"] == pytest.approx(9.90495116437e-05, rel=1e-9)
