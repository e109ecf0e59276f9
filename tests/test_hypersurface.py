"""Hypersurface geometry: Gauss identity, pullback identity, foliation."""

import warnings

import numpy as np
import pytest

import gllab.curvature as curvature
import gllab.hypersurface as hyp
from gllab.curvature import DoublyWarpedMetric, scalar_doubly_warped
from gllab.errors import (CertificationFailedError, DomainMismatchError,
                          InvalidBendError, InvalidSpecError,
                          SingularProfileError)
from gllab.fnspace import (LinearCombination, PolyPiece, SinePiece,
                           SmoothFn1D, check_U_membership,
                           check_V_membership, linear_homotopy)
from gllab.glbend import (ArcSeg, BendConstants, Curve2D, assemble_gamma,
                          initial_bend, quarter_bend_curve, synth_transition)
from gllab.hypersurface import (FoliationFamily, ModelAmbient,
                                PairSumCoefficientNote,
                                connected_sum_foliation, gauss_scalar_on_M,
                                induced_metric_on_M, mixed_torpedo_via_J)


@pytest.fixture(scope="module")
def certified_bend():
    consts = BendConstants(R0=1.5, q=3)
    prefix = initial_bend(consts, r1=0.5)
    trans = synth_transition(consts, r0=0.2, theta0=prefix[1])
    return assemble_gamma(consts, prefix, trans)


class TestGaussIdentity:
    def test_matches_induced_metric(self, certified_bend):
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        m = induced_metric_on_M(certified_bend, amb)
        L = certified_bend.curve.length
        s = np.linspace(0.0, L, 2000)[1:-1]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairSumCoefficientNote)
            Rg = gauss_scalar_on_M(certified_bend, amb, s)
        Ri = scalar_doubly_warped(m, s)
        rel = np.abs(Rg - Ri) / np.maximum(1.0, np.abs(Ri))
        assert float(rel.max()) < 1e-6

    def test_cone_point_end_raises(self, certified_bend):
        # the tail graph meets r = 0 at 45 degrees: r'(L) = -1/sqrt(2)
        m = induced_metric_on_M(certified_bend, ModelAmbient(2, 3, 0.3))
        L = certified_bend.curve.length
        assert m.v.jet(L, 1)[1] == pytest.approx(-np.sqrt(0.5), abs=1e-9)
        assert np.isfinite(scalar_doubly_warped(m, L - 1e-3))
        with pytest.raises(SingularProfileError, match="cone point"):
            scalar_doubly_warped(m, L)

    def test_note_emitted_once_per_run(self, certified_bend):
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        hyp._note_emitted = False
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            gauss_scalar_on_M(certified_bend, amb, 0.5)
            gauss_scalar_on_M(certified_bend, amb, 0.6)
        notes = [w for w in caught
                 if issubclass(w.category, PairSumCoefficientNote)]
        assert len(notes) == 1

    def test_domain_guard(self, certified_bend):
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        with pytest.raises(DomainMismatchError):
            gauss_scalar_on_M(certified_bend, amb,
                              certified_bend.curve.length + 1.0)

    def test_bare_curve_rejected(self, certified_bend):
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        with pytest.raises(InvalidSpecError, match="certified bend"):
            induced_metric_on_M(certified_bend.curve, amb)
        with pytest.raises(InvalidSpecError, match="certified bend"):
            gauss_scalar_on_M(certified_bend.curve, amb, 0.5)

    def test_ambient_scalar(self):
        amb = ModelAmbient(p=3, q=2, epsilon=0.5)
        assert np.isclose(amb.ambient_scalar(), 3 * 2 / 0.25)


class TestPullbackIdentity:
    @pytest.mark.parametrize("eps,delta,c1,c2,R", [
        (0.25, 0.25, 2.0, 2.0, 0.5),
        (0.3, 0.2, 2.5, 2.0, 0.6),
        (0.2, 0.3, 2.0, 2.5, 0.4),
        (0.15, 0.15, 1.5, 1.5, 0.3),
        (0.4, 0.25, 3.0, 2.0, 0.8),
    ])
    def test_deviation_tiny(self, eps, delta, c1, c2, R):
        m, rep = mixed_torpedo_via_J(eps, delta, c1, c2, R)
        assert rep["max_deviation"] < 1e-9
        assert rep["unit_speed_residual"] < 1e-8
        assert check_U_membership(m.u).passed
        assert check_V_membership(m.v).passed

    def test_bend_inside_cap_rejected(self):
        with pytest.raises(InvalidBendError):
            mixed_torpedo_via_J(0.5, 0.5, 0.9, 2.0, 0.05)


class TestProfileJets:
    def test_radius_jet_on_quarter_circle(self):
        # r(s) = cos s along the unit arc from angle pi/2 down to 0
        v = hyp._CurveCoordinate(Curve2D([ArcSeg((0.0, 0.0), 1.0,
                                                 np.pi / 2, 0.0)]), 1)
        s = np.linspace(0.0, np.pi / 2, 9)[1:-1]
        jet = v.jet(s, 3)
        exact = (np.cos(s), -np.sin(s), -np.cos(s), np.sin(s))
        for got, want in zip(jet, exact):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for lower, higher in zip(v.jet(s, 2), jet):
            assert np.array_equal(lower, higher)

    def test_composite_jet_matches_differences(self):
        # smooth case: a sine profile composed with a pure quarter arc
        corner = hyp._corner_curve(0.0, 0.4)
        prof = SmoothFn1D(0.4, [SinePiece((0.0, 0.4), 0.3, 1.0 / 0.3)])
        u = hyp.CompositeProfile(prof, hyp._CurveCoordinate(corner, 0))
        t = np.linspace(0.1, 0.9, 9) * corner.length
        jet, h = u.jet(t, 3), 1e-5
        for k in (1, 2, 3):
            fd = (u.jet(t + h, 3)[k - 1] - u.jet(t - h, 3)[k - 1]) / (2 * h)
            np.testing.assert_allclose(jet[k], fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())

    def test_homotopy_of_composite_leaves(self):
        # two leaves on one corner curve: profiles that are not SmoothFn1D
        corner = hyp._corner_curve(0.2, 0.4)
        x = hyp._CurveCoordinate(corner, 0)
        c = 0.6
        u0 = hyp.CompositeProfile(
            SmoothFn1D(c, [SinePiece((0.0, c), 0.5, 1.0 / 0.5)]), x)
        u1 = hyp.CompositeProfile(
            SmoothFn1D(c, [PolyPiece((0.0, c), [0.1, 0.5, -0.2])]), x)
        t = np.linspace(0.0, corner.length, 33)
        a, b = u0.jet(t, 3), u1.jet(t, 3)
        for got, j0, j1 in zip(linear_homotopy(u0, u1, 0.25).jet(t, 3), a, b):
            assert np.array_equal(got, 0.0 + 0.75 * j0 + 0.25 * j1)
        for got, j0 in zip(LinearCombination([(-2.0, u0)]).jet(t, 3), a):
            assert np.array_equal(got, 0.0 + -2.0 * j0)
        other = hyp.CompositeProfile(u0.prof, hyp._CurveCoordinate(
            hyp._corner_curve(0.1, 0.5), 0))
        with pytest.raises(DomainMismatchError):
            linear_homotopy(u0, other, 0.5)


@pytest.fixture(scope="module")
def family_cert():
    corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
    return connected_sum_foliation(
        corner, tau=0.05, nu_grid=np.linspace(0.0, 1.0, 21),
        eps=0.25, delta_p=0.25, p=2, q=4)


class TestFoliation:

    def test_certified(self, family_cert):
        family, cert = family_cert
        assert isinstance(family, FoliationFamily)
        assert cert.passed
        assert len(family.leaves) == 21
        assert all(mn > 0 for mn in cert.extra["per_leaf_min"])

    def test_leaf_membership(self, family_cert):
        family, _ = family_cert
        for u, v in family.leaves[::5]:
            assert check_U_membership(u).passed
            assert check_V_membership(v).passed

    def test_membership_checked_once_per_leaf(self, monkeypatch):
        calls = []
        for mod in (hyp, curvature):
            for name in ("check_U_membership", "check_V_membership"):
                def counted(f, _check=getattr(mod, name), _name=name):
                    calls.append(_name)
                    return _check(f)
                monkeypatch.setattr(mod, name, counted)
        corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
        family, _ = connected_sum_foliation(
            corner, tau=0.05, nu_grid=[0.0, 0.5, 1.0], eps=0.25,
            delta_p=0.25, p=2, q=4)
        assert len(family.leaves) == 3
        assert sorted(calls) == ["check_U_membership"] * 3 \
            + ["check_V_membership"] * 3

    def test_negative_tau_rejected(self):
        corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
        with pytest.raises(InvalidSpecError, match="tau"):
            connected_sum_foliation(corner, tau=-0.1,
                                    nu_grid=np.linspace(0, 1, 3),
                                    eps=0.25, delta_p=0.25)

    def test_empty_nu_grid_raises_typed(self):
        corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
        with pytest.raises(InvalidSpecError, match="nu_grid"):
            connected_sum_foliation(corner, tau=0.05, nu_grid=[],
                                    eps=0.25, delta_p=0.25)

    def test_corner_must_be_a_curve(self):
        with pytest.raises(InvalidSpecError, match="Curve2D"):
            connected_sum_foliation((1.0, 0.4), tau=0.05, nu_grid=[0.0],
                                    eps=0.25, delta_p=0.25)

    @pytest.mark.parametrize("eps, delta_p", [(0.7, 0.25), (0.25, 0.7)])
    def test_cap_too_long_raises_typed(self, eps, delta_p):
        # the corner's domain is 1.0 and 0.7 pi/2 > 1: no cap fits
        corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
        with pytest.raises(InvalidSpecError, match="domain too short"):
            connected_sum_foliation(corner, tau=0.05, nu_grid=[0.0],
                                    eps=eps, delta_p=delta_p)

    def test_certificate_says_where_its_minimum_is(self, family_cert):
        family, cert = family_cert
        ex = cert.extra
        assert type(ex["argmin_nu"]) is float
        assert type(ex["argmin_t"]) is float
        j = family.nu_grid.index(ex["argmin_nu"])
        assert j == ex["per_leaf_min"].index(min(ex["per_leaf_min"]))
        assert ex["per_leaf_min"][j] == cert.min_scalar
        u, v = family.leaves[j]
        m = DoublyWarpedMetric(2, 4, u, v, open_profile=True)
        t = np.linspace(0.0, family.curves[j].length, hyp._LEAF_SAMPLES)
        R = scalar_doubly_warped(m, t)
        assert ex["argmin_t"] == t[np.argmin(R)]
        assert R.min() == cert.min_scalar

    def test_nan_sample_fails_the_leaf(self, monkeypatch):
        def spoiled(m, t):
            R = scalar_doubly_warped(m, t)
            R[len(R) // 2] = np.nan
            return R
        monkeypatch.setattr(hyp, "scalar_doubly_warped", spoiled)
        corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
        with pytest.raises(CertificationFailedError, match="positivity"):
            connected_sum_foliation(corner, tau=0.05, nu_grid=[0.0, 1.0],
                                    eps=0.25, delta_p=0.25)


class TestLeafEvaluation:
    """Each leaf check reads its curve once, shared by u and v."""

    def test_leaf_reads_its_curve_at_most_twice(self, monkeypatch):
        corner = quarter_bend_curve(1.0, 1.0, 0.4, eps=0.25, delta=0.25)
        calls = {"jet": 0, "eval": 0}
        for name in calls:
            def counted(self, *args, _orig=getattr(Curve2D, name),
                        _name=name, **kw):
                calls[_name] += 1
                return _orig(self, *args, **kw)
            monkeypatch.setattr(Curve2D, name, counted)
        nu_grid = [0.0, 0.3, 0.5, 0.8, 1.0]
        family, _ = connected_sum_foliation(
            corner, tau=0.05, nu_grid=nu_grid, eps=0.25, delta_p=0.25,
            p=2, q=4)
        # two jets in the checks, two evaluations in FoliationFamily
        assert calls["jet"] <= 2 * len(nu_grid)
        assert calls["eval"] <= 2 * len(nu_grid)
        calls["eval"] = 0
        FoliationFamily(family.nu_grid, family.curves, family.tau)
        assert calls["eval"] <= 2 * len(nu_grid)

    @pytest.mark.parametrize("leaf", [0, 5, 12, 20])
    def test_leaf_checks_match_one_point_end_jets(self, family_cert, leaf,
                                                  one_point_ends):
        family, _ = family_cert
        u, v = family.leaves[leaf]
        for check, f in ((check_U_membership, u), (check_V_membership, v)):
            ref = one_point_ends(f)
            assert check(f).conditions == check(ref).conditions
            assert ref.ends_read >= 2
        m = DoublyWarpedMetric(2, 4, u, v, open_profile=True)
        t = np.linspace(0.0, u.b, hyp._LEAF_SAMPLES)
        joined = np.concatenate([[scalar_doubly_warped(m, 0.0)],
                                 scalar_doubly_warped(m, t[1:-1]),
                                 [scalar_doubly_warped(m, u.b)]])
        assert np.array_equal(scalar_doubly_warped(m, t), joined)

    def test_end_third_derivatives_match_pow_form(self, family_cert):
        # x'^2 x' in place of x'^3 changes no bit that a check reads
        family, _ = family_cert
        for u, v in family.leaves:
            for g in (u, v):
                ends = np.array([0.0, g.b])
                x = g.coord.jet(ends, 3)
                f = g.prof.jet(x[0], 3)
                want = (f[3] * x[1] ** 3 + 3.0 * f[2] * x[1] * x[2]
                        + f[1] * x[3])
                assert np.array_equal(g.jet(ends, 3)[3], want)

    def test_shared_curve_jet_is_read_only(self):
        rec = hyp._LastCurveJet(hyp._corner_curve(0.2, 0.4))
        s = np.linspace(0.0, rec.length, 9)
        for d in rec.jet(s, 3) + hyp._CurveCoordinate(rec, 1).jet(s, 3):
            with pytest.raises(ValueError, match="read-only"):
                d[0] = 1.0

    def test_shared_curve_jet_only_for_same_points_and_order(self):
        curve = hyp._corner_curve(0.2, 0.4)
        rec = hyp._LastCurveJet(curve)
        calls = []

        def counted(s, k=2):
            calls.append(k)
            return Curve2D.jet(curve, s, k)
        curve.jet = counted
        s = np.linspace(0.0, curve.length, 17)
        for pts, k, n_calls in ((s, 2, 1), (s.copy(), 1, 1), (s, 3, 2),
                                (s, 2, 2), (s[:-1], 2, 3), (s + 1e-12, 2, 4),
                                (s + 1e-12, 3, 5), (0.5, 3, 6), (0.5, 3, 6)):
            got = rec.jet(pts, k)
            assert len(calls) == n_calls
            assert len(got) == k + 1
            for d, want in zip(got, Curve2D.jet(curve, pts, k)):
                assert np.array_equal(d, want)
