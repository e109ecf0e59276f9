"""Closed-form curvature evaluators and the slowdown construction."""

import io

import numpy as np
import pytest

import gllab.curvature as curvature
from gllab.curvature import (CylFamilyMetric, DoublyWarpedMetric, Phi2D,
                             WarpedSphereMetric, make_smoothstep, ricci_warped,
                             scalar_cyl_family, scalar_doubly_warped,
                             scalar_warped, slowdown_concordance,
                             write_curvature_csv)
from gllab.errors import (CertificationFailedError, DomainMismatchError,
                          InvalidSpecError, SingularProfileError)
from gllab.fnspace import (_CSV_DENSITY, ConstPiece, LinearCombination,
                           PolyPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           _quintic_match, linear_homotopy,
                           make_double_torpedo, make_torpedo, reflect,
                           sample_grid, write_profile_csv)
from gllab.schedule import round_doubly_warped, round_metric


def round_profile(n=7, radius=1.0):
    b = radius * np.pi
    return SmoothFn1D(b, [SinePiece((0.0, b), radius, 1.0 / radius)])


def cos_profile(b=np.pi / 2):
    return SmoothFn1D(b, [SinePiece((0.0, b), 1.0, 1.0, phase=np.pi / 2)])


def sin_profile(b=np.pi / 2):
    return SmoothFn1D(b, [SinePiece((0.0, b), 1.0, 1.0)])


class TestWarped:
    def test_round_sphere_pin(self):
        m = WarpedSphereMetric(7, round_profile())
        t = np.linspace(0.0, np.pi, 1001)
        R = scalar_warped(m, t)
        assert np.allclose(R, 42.0, rtol=1e-9)

    @pytest.mark.parametrize("slope,cone", [(0.5, True), (1 + 2e-8, True),
                                            (1 + 5e-9, False)])
    def test_cone_point_end_raises(self, slope, cone):
        # slope * sin t closes at both ends with |f'| = slope
        m = WarpedSphereMetric(
            7, LinearCombination([(slope, round_profile())]),
            open_profile=True)
        assert np.isfinite(scalar_warped(m, 0.5))
        for t in (0.0, np.array([0.5, np.pi])):
            if cone:
                with pytest.raises(SingularProfileError, match="cone point"):
                    scalar_warped(m, t)
            else:
                assert np.isfinite(scalar_warped(m, t)).all()

    def test_round_sphere_ricci(self):
        m = WarpedSphereMetric(7, round_profile())
        t = np.linspace(0.0, np.pi, 101)      # both endpoint limits included
        rt, rs = ricci_warped(m, t)
        assert np.allclose(rt, 6.0, rtol=1e-9)
        assert np.allclose(rs, 6.0, rtol=1e-9)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_scaled_round(self, radius):
        m = WarpedSphereMetric(5, round_profile(5, radius))
        t = np.linspace(0.0, radius * np.pi, 201)
        assert np.allclose(scalar_warped(m, t), 20.0 / radius ** 2,
                           rtol=1e-9)

    def test_torpedo_tube_and_endpoint(self):
        delta = 0.5
        f = make_torpedo(TorpedoSpec(delta, tube_length=1.0))
        m = WarpedSphereMetric(7, f, open_profile=True)
        # tube: round cylinder value
        t_tube = np.linspace(f.b - 0.5, f.b, 50)
        assert np.allclose(scalar_warped(m, t_tube), 30.0 / delta ** 2,
                           rtol=1e-8)
        # endpoint limit at the cap tip
        assert np.isclose(scalar_warped(m, 0.0), 42.0 / delta ** 2,
                          rtol=1e-8)

    def test_endpoint_limits_match_interior(self):
        m = WarpedSphereMetric(7, round_profile())
        eps = 1e-5
        assert abs(scalar_warped(m, 0.0)
                   - scalar_warped(m, eps)) < 1e-6 * 42


class TestDoublyWarped:
    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (1, 5), (2, 3)])
    def test_round_join_pin(self, p, q):
        g = round_doubly_warped(p, q)
        # the reversed join swaps the roles: u closes at t = 0, v at t = b
        rev = DoublyWarpedMetric(q, p, g.v, g.u, open_profile=True)
        n = p + q + 1
        t = np.linspace(0.0, np.pi / 2, 501)
        for m in (g, rev):
            assert np.allclose(scalar_doubly_warped(m, t), n * (n - 1),
                               rtol=1e-9)
            for tend in (0.0, m.b):
                assert np.isclose(scalar_doubly_warped(m, tend), n * (n - 1),
                                  rtol=1e-9)

    @pytest.mark.parametrize("n", [4, 6])
    def test_zero_dimensional_factor_is_warped(self, n):
        # p = 0: dt^2 + v^2 ds_{n-1}^2, with v closing at both ends
        g = round_metric(n, 1.2)
        one = SmoothFn1D(g.b, [ConstPiece((0.0, g.b), 1.0)])
        m = DoublyWarpedMetric(0, n - 1, one, g.f, open_profile=True)
        t = np.array([0.0, g.b / 2, g.b])
        assert np.allclose(scalar_doubly_warped(m, t), scalar_warped(g, t),
                           rtol=1e-12)

    def test_mixed_torpedo_positive(self):
        b = np.pi / 2
        su = TorpedoSpec(0.25)
        tube = b - (su.delta * np.pi / 2 + su.blend_width)
        u = reflect(make_torpedo(TorpedoSpec(0.25, tube_length=tube)))
        v = make_torpedo(TorpedoSpec(0.25, tube_length=tube))
        m = DoublyWarpedMetric(2, 4, u, v)
        t = sample_grid(b, 1024, interior=True)
        assert float(np.min(scalar_doubly_warped(m, t))) > 0

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            DoublyWarpedMetric(2, 4, cos_profile(), sin_profile(np.pi / 3))

    def test_membership_gate(self):
        with pytest.raises(InvalidSpecError):
            DoublyWarpedMetric(2, 4, sin_profile(), sin_profile())

    def test_vanishing_factors_raise(self):
        # both factors close at t = 0
        m = DoublyWarpedMetric(2, 4, sin_profile(), sin_profile(),
                               open_profile=True)
        assert np.isfinite(scalar_doubly_warped(m, 0.5))
        with pytest.raises(SingularProfileError):
            scalar_doubly_warped(m, np.array([0.5, 0.0]))
        # u = cos t vanishes at the interior point pi/2 of (0, pi)
        m = DoublyWarpedMetric(2, 4, cos_profile(np.pi), sin_profile(np.pi),
                               open_profile=True)
        with pytest.raises(SingularProfileError):
            scalar_doubly_warped(m, np.array([0.5, np.pi / 2]))

    def test_open_factor_slope_at_closing_end_raises(self):
        # v = sin t closes at t = 0 where u = 1 + t/2 has slope 1/2: R blows
        # up like -6/t there, so no finite endpoint value exists
        b = np.pi / 2
        u = SmoothFn1D(b, [PolyPiece((0.0, b), [1.0, 0.5])])
        m = DoublyWarpedMetric(2, 3, u, sin_profile(), open_profile=True)
        assert scalar_doubly_warped(m, 1e-6) < -5e6
        assert np.isfinite(scalar_doubly_warped(m, np.array([0.5, b]))).all()
        for t in (0.0, np.array([0.5, 0.0])):
            with pytest.raises(SingularProfileError, match="stays open"):
                scalar_doubly_warped(m, t)

    def test_one_jet_call_per_profile(self, counted):
        # order 3 only when an end is among the points
        g = round_doubly_warped(2, 4)
        u, v = counted(g.u), counted(g.v)
        m = DoublyWarpedMetric(2, 4, u, v, open_profile=True)
        t = np.linspace(0.0, g.b, 33)
        for pts in (t, t[1:-1], t[:-1], t[1:], g.b):
            scalar_doubly_warped(m, pts)
        assert u.orders == v.orders == [3, 2, 3, 3, 3]

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (1, 5)])
    def test_ends_match_one_point_calls_bitwise(self, p, q):
        g = round_doubly_warped(p, q)
        rev = DoublyWarpedMetric(q, p, g.v, g.u, open_profile=True)
        t = np.linspace(0.0, g.b, 257)
        for m in (g, rev):
            joined = np.concatenate([[scalar_doubly_warped(m, 0.0)],
                                     scalar_doubly_warped(m, t[1:-1]),
                                     [scalar_doubly_warped(m, g.b)]])
            assert np.array_equal(scalar_doubly_warped(m, t), joined)


class TestCylFamily:
    def test_constant_family_matches_warped(self):
        f = round_profile(5)
        cyl = CylFamilyMetric(4, Phi2D.from_profile(f))
        t = np.linspace(0.3, np.pi - 0.3, 64)
        R_cyl = scalar_cyl_family(cyl, 0.0, t)
        m = WarpedSphereMetric(5, f)
        # the cylinder direction adds a flat factor: same fiber bending terms
        # with n-1 = 4 fiber dimension
        R_expected = scalar_warped(m, t) - 0.0
        # dt^2 + f^2 ds_4^2 sits inside ds^2 + dt^2 + f^2 ds_4^2; the scalar
        # curvature is unchanged by the flat s-factor
        assert np.array_equal(R_cyl, R_expected)



def round_to_double_torpedo(b=6.0, delta=0.5, n=7):
    f0 = SmoothFn1D(b, [SinePiece((0.0, b), b / np.pi, np.pi / b)])
    f1 = make_double_torpedo(delta, b)

    def path(sig):
        return WarpedSphereMetric(n, linear_homotopy(f0, f1, sig),
                                  open_profile=True)
    return path


def per_row_slowdown(path, n, grid_shape, budget):
    """Reference slowdown search that rebuilds phi's profiles per partial.

    Every s-row looks up path(eta(s)) anew for the value, for each of the
    central differences in s and for each t-partial (8 profiles a row), as
    the search once did.  Returns the R grid of every L tried, then
    (Lambda, L, min R) on success or the best minimum when the budget runs
    out.
    """
    b = path(0.0).f.b
    ns, nt = grid_shape
    tgrid = np.linspace(0.0, b, nt + 2)[1:-1]
    grids = []
    best = -np.inf
    L = 1.0
    for _ in range(budget):
        eta = make_smoothstep(L)
        h = L * 1e-4

        def profile_at(s):
            return path(float(np.clip(eta(np.clip(s, 0.0, L)), 0.0, 1.0))).f

        def val(s, t):
            return profile_at(float(s))(t)

        def ds(s, t):
            return (val(s + h, t) - val(s - h, t)) / (2.0 * h)

        def dss(s, t):
            return (val(s + h, t) - 2.0 * val(s, t) + val(s - h, t)) / h ** 2

        def jet(s, t, k=2):
            _, d1, d2 = profile_at(float(s)).jet(t, 2)
            return (val(s, t), (ds(s, t), d1), (dss(s, t), d2))[:k + 1]

        cyl = CylFamilyMetric(n - 1, Phi2D(jet))
        sgrid = np.linspace(0.0, L, ns + 2)[1:-1]
        R = np.empty((ns, nt))
        for i, sv in enumerate(sgrid):
            R[i] = scalar_cyl_family(cyl, sv, tgrid)
        grids.append(R)
        mn = float(R.min())
        if mn > 0.0:
            return grids, (1.0 / L, L, mn)
        best = max(best, mn)
        L *= 2.0
    return grids, best


def record_curvature(monkeypatch):
    """Flattened values of every scalar_cyl_family call slowdown makes."""
    values = []

    def recording(m, s, t):
        R = scalar_cyl_family(m, s, t)
        values.append(np.ravel(R))
        return R

    monkeypatch.setattr(curvature, "scalar_cyl_family", recording)
    return values


class TestSlowdown:
    def test_smoothstep_shape(self):
        eta = make_smoothstep(2.0)
        assert eta(0.2) == 0.0
        assert eta(1.9) == 1.0
        t = np.linspace(0.0, 2.0, 201)
        vals = eta(t)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_round_to_double_torpedo(self):
        lam, eta, cert = slowdown_concordance(round_to_double_torpedo(), 7,
                                              grid_shape=(60, 60))
        assert cert.passed
        assert lam > 0
        assert np.isclose(eta.b, 1.0 / lam)

    def test_matches_per_row_reference(self, monkeypatch):
        path = round_to_double_torpedo()
        values = record_curvature(monkeypatch)
        lam, eta, cert = slowdown_concordance(path, 7, grid_shape=(60, 60))
        grids, (ref_lam, ref_L, ref_min) = per_row_slowdown(
            path, 7, (60, 60), 20)
        assert (lam, eta.b, cert.min_scalar) == (ref_lam, ref_L, ref_min)
        assert np.array_equal(np.concatenate(values),
                              np.concatenate([R.ravel() for R in grids]))
        i, j = np.unravel_index(np.argmin(grids[-1]), (60, 60))
        assert cert.extra["argmin_s"] == np.linspace(0.0, ref_L, 62)[1 + i]
        assert cert.extra["argmin_t"] == np.linspace(0.0, 6.0, 62)[1 + j]
        assert cert.extra["L_tried"] == [2.0 ** k for k in range(len(grids))]
        assert cert.to_json()["extra"] == cert.extra

    def test_failure_matches_per_row_reference(self, monkeypatch):
        path = round_to_double_torpedo()
        values = record_curvature(monkeypatch)
        monkeypatch.setattr(curvature, "_SLOWDOWN_BUDGET", 2)
        with pytest.raises(CertificationFailedError) as err:
            slowdown_concordance(path, 7, grid_shape=(60, 60))
        grids, best = per_row_slowdown(path, 7, (60, 60), 2)
        assert err.value.best_margin == best < 0
        assert np.array_equal(np.concatenate(values),
                              np.concatenate([R.ravel() for R in grids]))

    def test_one_profile_per_distinct_sigma(self, monkeypatch):
        ns = 40
        inner = round_to_double_torpedo()
        calls, rounds = [], []

        def path(sig):
            calls.append(sig)
            return inner(sig)

        def smoothstep(L):
            rounds.append(L)
            return make_smoothstep(L)

        monkeypatch.setattr(curvature, "make_smoothstep", smoothstep)
        _lam, _eta, cert = slowdown_concordance(path, 7, grid_shape=(ns, 30))
        assert cert.passed
        # one smoothstep per L, one path call per distinct sigma overall
        assert rounds == cert.extra["L_tried"] and len(rounds) >= 2
        assert len(calls) <= 3 * ns + 2
        assert len(set(calls)) == len(calls) == cert.extra["profiles"]
        assert {0.0, 1.0} <= set(calls)

    def test_non_positive_middle_profile_raises(self):
        f = round_to_double_torpedo()(0.0).f

        def path(sig):
            # positive at both ends, negative around sigma = 1/2
            return WarpedSphereMetric(
                7, LinearCombination([(1.0 - 8.0 * sig * (1 - sig), f)]),
                open_profile=True)

        with pytest.raises(SingularProfileError):
            slowdown_concordance(path, 7, grid_shape=(20, 20))

    def test_non_psc_path_rejected(self, monkeypatch):
        b = np.pi / 3
        f = SmoothFn1D(b, [SinePiece((0.0, b), 0.5, 3.0)])

        def path(sig):
            return WarpedSphereMetric(7, f, open_profile=True)

        monkeypatch.setattr(curvature, "_SLOWDOWN_BUDGET", 2)
        with pytest.raises(CertificationFailedError):
            slowdown_concordance(path, 7, grid_shape=(10, 10))

    def test_nan_start_metric_rejected(self):
        # a NaN minimum must not pass the end metrics' psc check
        inner = round_to_double_torpedo()
        f = inner(0.0).f

        def path(sig):
            if sig == 0.0:
                return WarpedSphereMetric(
                    7, LinearCombination([(np.nan, f)]), open_profile=True)
            return inner(sig)

        with pytest.raises(CertificationFailedError,
                           match="path start metric is not psc") as err:
            slowdown_concordance(path, 7, grid_shape=(20, 20))
        assert np.isnan(err.value.best_margin)

    def test_each_path_term_is_evaluated_once(self, monkeypatch):
        path = round_to_double_torpedo()
        f0, f1 = (t for _, t in path(0.5).f.terms)
        calls = []
        jet = SmoothFn1D.jet

        def counting(f, t, k=2):
            calls.append((f, np.size(t), k))
            return jet(f, t, k)

        monkeypatch.setattr(SmoothFn1D, "jet", counting)
        _lam, _eta, cert = slowdown_concordance(path, 7, grid_shape=(60, 60))
        assert cert.extra["profiles"] > 50
        assert len(calls) <= 6
        for f in (f0, f1):
            # once in its end metric's psc check, once for every sigma
            reads = [(size, k) for g, size, k in calls if g is f]
            assert reads == [(60, 2)] * 2

    def test_opaque_profiles_give_the_same_certificate(self):
        path = round_to_double_torpedo()

        class Opaque:
            def __init__(self, f):
                self.b, self.jet = f.b, f.jet

        def opaque(sig):
            m = path(sig)
            return WarpedSphereMetric(m.n, Opaque(m.f), open_profile=True)

        got = slowdown_concordance(opaque, 7, grid_shape=(60, 60))
        want = slowdown_concordance(path, 7, grid_shape=(60, 60))
        assert (got[0], got[1].b) == (want[0], want[1].b)
        assert got[2].to_json() == want[2].to_json()
        assert got[2].extra["profiles"] == want[2].extra["profiles"] > 50

    @pytest.mark.parametrize("sig_bad", [0.0, 1.0, None])
    @pytest.mark.parametrize("n_path", [5, 12])
    def test_path_of_another_dimension_raises(self, sig_bad, n_path):
        # a path of dimension 7 used to certify at n = 5 and at n = 12
        inner = round_to_double_torpedo()

        def path(sig):
            m = inner(sig)
            if sig_bad is None or sig == sig_bad:
                m = WarpedSphereMetric(n_path, m.f, open_profile=True)
            return m

        with pytest.raises(InvalidSpecError, match="has dimension"):
            slowdown_concordance(path, 7, grid_shape=(20, 20))

    @pytest.mark.parametrize("b_bad", [7.0, 5.0, 6.0 * (1 + 2e-9)])
    @pytest.mark.parametrize("at_end", [True, False])
    def test_profile_on_another_domain_raises(self, b_bad, at_end):
        # a b = 7 profile used to be certified on g0's (0, 6) grid
        inner = round_to_double_torpedo()
        other = round_to_double_torpedo(b_bad)

        def path(sig):
            if (sig == 1.0) if at_end else (0.0 < sig < 1.0):
                return other(sig)
            return inner(sig)

        with pytest.raises(DomainMismatchError, match="start metric"):
            slowdown_concordance(path, 7, grid_shape=(20, 20))

    @pytest.mark.parametrize("grid_shape, budget", [
        ((0, 10), 20), ((10, 0), 20), ((-3, 10), 20)])
    def test_bad_grid_or_budget_raises_typed(self, grid_shape, budget,
                                             monkeypatch):
        # the grid is checked before the path is read, whatever the budget
        monkeypatch.setattr(curvature, "_SLOWDOWN_BUDGET", budget)
        calls = []

        def path(sig):
            calls.append(sig)
            return round_to_double_torpedo()(sig)

        with pytest.raises(InvalidSpecError):
            slowdown_concordance(path, 7, grid_shape=grid_shape)
        assert calls == []


class TestSmoothstep:
    x = np.linspace(0.0, 1.0, 1001)

    @pytest.mark.parametrize("k", range(11))
    def test_scales_exactly_by_powers_of_two(self, k):
        L = 2.0 ** k
        assert np.array_equal(make_smoothstep(L)(L * self.x),
                              make_smoothstep(1.0)(self.x))

    @pytest.mark.parametrize("k", range(11))
    def test_closed_form_matches_quintic_solve(self, k):
        L = 2.0 ** k
        ref = _quintic_match(0.25 * L, (0.0, 0.0, 0.0), 0.75 * L,
                             (1.0, 0.0, 0.0))
        coeffs = make_smoothstep(L).pieces[1].coeffs
        assert np.max(np.abs(coeffs - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_curvature_csv():
    m = WarpedSphereMetric(7, round_profile())
    buf = io.StringIO()
    write_curvature_csv(m, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,R,Ric_t,Ric_sphere"
    assert len(lines) > 64


def test_default_density_tables_share_t():
    f = round_profile()
    bufs = io.StringIO(), io.StringIO()
    write_profile_csv(f, bufs[0])
    write_curvature_csv(WarpedSphereMetric(7, f), bufs[1])
    t_profile, t_curvature = ([line.split(",")[0] for line in
                               buf.getvalue().splitlines()[1:]]
                              for buf in bufs)
    assert t_profile == t_curvature
    assert len(t_profile) == len(sample_grid(f.b, _CSV_DENSITY))
