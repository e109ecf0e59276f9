"""Hypersurface geometry: Gauss identity, pullback identity, foliation."""

import dataclasses
import warnings

import numpy as np
import pytest

import gllab.curvature as curvature
import gllab.fnspace as fnspace
import gllab.hypersurface as hyp
from gllab.certify import _MEMOS
from gllab.curvature import DoublyWarpedMetric, scalar_doubly_warped
from gllab.errors import (CertificationFailedError, DomainMismatchError,
                          InvalidBendError, InvalidSpecError,
                          SingularProfileError)
from gllab.fnspace import (LinearCombination, PolyPiece, SinePiece,
                           SmoothFn1D, check_U_membership,
                           check_V_membership, linear_homotopy)
from gllab.glbend import (ArcSeg, BendConstants, Curve2D, assemble_gamma,
                          initial_bend, synth_transition)
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
        assert m.profiles[1].jet(L, 1)[1] == pytest.approx(-np.sqrt(0.5),
                                                       abs=1e-9)
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
        # the curve's own arc-length rule (fnspace._jet_points)
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        for s in (certified_bend.curve.length + 1.0, -1.0):
            with pytest.raises(InvalidSpecError, match="evaluation outside"):
                gauss_scalar_on_M(certified_bend, amb, s)

    def test_rounding_below_zero_is_inside(self, certified_bend):
        # the curve accepts -1e-10 as 0, so the Gauss formula does too
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PairSumCoefficientNote)
            R = gauss_scalar_on_M(certified_bend, amb, -1e-10)
        assert np.isfinite(R)

    def test_bare_curve_rejected(self, certified_bend):
        amb = ModelAmbient(p=2, q=3, epsilon=0.3)
        with pytest.raises(InvalidSpecError, match="certified bend"):
            induced_metric_on_M(certified_bend.curve, amb)
        with pytest.raises(InvalidSpecError, match="certified bend"):
            gauss_scalar_on_M(certified_bend.curve, amb, 0.5)

    def test_ambient_scalar(self):
        amb = ModelAmbient(p=3, q=2, epsilon=0.5)
        assert np.isclose(amb.ambient_scalar(), 3 * 2 / 0.25)

    @pytest.mark.parametrize("p, q", [(2.5, 3.5), (2.0, 3), (2, 3.0),
                                      (np.nan, 3), (2, np.nan), (True, 3),
                                      (2, "3")])
    def test_non_integer_sphere_dimension_raises_typed(self, p, q):
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            ModelAmbient(p=p, q=q, epsilon=0.3)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -0.3])
    def test_epsilon_must_be_positive_and_finite(self, eps):
        with pytest.raises(InvalidSpecError, match="epsilon"):
            ModelAmbient(2, 3, epsilon=eps)

    def test_numpy_integer_sphere_dimensions_accepted(self):
        amb = ModelAmbient(np.int64(3), np.int32(2), 0.5)
        assert amb.n == 6 and np.isclose(amb.ambient_scalar(), 24.0)


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
        u, v = m.profiles
        assert check_U_membership(u).passed
        assert check_V_membership(v).passed

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
    return connected_sum_foliation(
        1.0, 0.4, tau=0.05, nu_grid=np.linspace(0.0, 1.0, 21),
        eps=0.25, delta_p=0.25, p=2, q=4)


class TestFoliation:

    def test_certified(self, family_cert):
        family, cert = family_cert
        assert isinstance(family, FoliationFamily)
        assert cert.passed
        assert len(family.leaves) == 21
        assert all(mn > 0 for mn in cert.extra["per_leaf_min"])

    def test_leaf_curves_keep_the_segment_invariants(self, family_cert):
        # unit speed, x' in [-1, 0], y' in [0, 1] and k >= 0 (the concavity
        # x'', y'' <= 0 of the quarter turn) hold by construction, up to
        # the rounding of the arc's cos and sin
        family, _ = family_cert
        assert len(family.curves) == 21
        tol = 1e-9
        for curve in family.curves:
            assert curve.unit_speed_residual(n_samples=200) <= 1e-8
            _, tan, k = curve.eval(np.linspace(0.0, curve.length, 257))
            assert np.all((-1 - tol <= tan[:, 0]) & (tan[:, 0] <= tol))
            assert np.all((-tol <= tan[:, 1]) & (tan[:, 1] <= 1 + tol))
            assert np.all(k >= -tol)

    def test_leaf_membership(self, family_cert):
        family, _ = family_cert
        for u, v in family.leaves[::5]:
            assert check_U_membership(u).passed
            assert check_V_membership(v).passed

    def test_leaves_are_not_sampled_for_membership(self, monkeypatch):
        # a leaf is in U x V by construction: no membership report is made
        calls = []

        class Counted(fnspace.MembershipReport):
            def __init__(self, space):
                calls.append(space)
                super().__init__(space)
        monkeypatch.setattr(fnspace, "MembershipReport", Counted)
        family, _ = connected_sum_foliation(
            1.0, 0.4, tau=0.05, nu_grid=[0.0, 0.5, 1.0], eps=0.25,
            delta_p=0.25, p=2, q=4)
        assert len(family.leaves) == 3
        assert calls == []

    def test_negative_tau_rejected(self):
        with pytest.raises(InvalidSpecError, match="tau"):
            connected_sum_foliation(1.0, 0.4, tau=-0.1,
                                    nu_grid=np.linspace(0, 1, 3),
                                    eps=0.25, delta_p=0.25)

    def test_empty_nu_grid_raises_typed(self):
        with pytest.raises(InvalidSpecError, match="nu_grid"):
            connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=[],
                                    eps=0.25, delta_p=0.25)

    @pytest.mark.parametrize("nu_grid, match", [
        (np.linspace(0, 1, 6).reshape(2, 3), "one-dimensional"),
        (0.5, "one-dimensional"),
        ([0.0, [0.5, 1.0]], "numbers"),
        (["a"], "numbers")], ids=["2-D", "scalar", "ragged", "string"])
    def test_malformed_nu_grid_raises_typed(self, nu_grid, match):
        with pytest.raises(InvalidSpecError, match=match):
            connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=nu_grid,
                                    eps=0.25, delta_p=0.25)

    @pytest.mark.parametrize("p, q", [(2.5, 3.5), (np.nan, 4), (2, 4.0),
                                      (True, 4), (2, "4")])
    def test_non_integer_fiber_dimension_raises_typed(self, p, q):
        # no S^2.5 fiber: a non-integer dimension is an input error, not a
        # passing (or failing) certificate
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=[0.0, 1.0],
                                    eps=0.25, delta_p=0.25, p=p, q=q)

    @pytest.mark.parametrize("eps, delta_p", [(0.7, 0.25), (0.25, 0.7)])
    def test_cap_too_long_raises_typed(self, eps, delta_p):
        # the corner's domain is 1.0 and 0.7 pi/2 > 1: no cap fits
        with pytest.raises(InvalidSpecError, match="domain too short"):
            connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=[0.0],
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
        # the leaf's scalar curvature is _scalar's over its quotients
        def spoiled(*args, _formula=hyp._scalar):
            R = _formula(*args)
            R[len(R) // 2] = np.nan
            return R
        monkeypatch.setattr(hyp, "_scalar", spoiled)
        with pytest.raises(CertificationFailedError, match="positivity"):
            connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=[0.0, 1.0],
                                    eps=0.25, delta_p=0.25)


def _foliate(c, radius, nu_grid=(0.0, 1.0)):
    return connected_sum_foliation(c, radius, tau=0.05, nu_grid=nu_grid,
                                   eps=0.05, delta_p=0.05)


@pytest.mark.parametrize("call, error, message", [
    (lambda bend: induced_metric_on_M(
        dataclasses.replace(bend, certificate=None), ModelAmbient(2, 3, 0.3)),
     InvalidSpecError, "no passing certificate"),
    (lambda bend: mixed_torpedo_via_J(0.25, 0.5, 2.0, 1.4, 0.5),
     InvalidBendError, "c2 - bend_radius"),
    (lambda bend: _foliate(1.0, 0.4, [1.5]),
     InvalidSpecError, r"nu_grid must be .* in \[0, 1\], got \[1.5\]"),
    # c = 0.3 <= R = 0.5: its edge c - R would be negative
    (lambda bend: _foliate(0.3, 0.5),
     InvalidBendError, "corner c above a positive bend radius"),
    (lambda bend: _foliate(1.0, 0.0),
     InvalidBendError, "corner c above a positive bend radius"),
    (lambda bend: _foliate(np.inf, 0.4),
     InvalidBendError, "finite corner c"),
    (lambda bend: _foliate(np.nan, 0.4),
     InvalidBendError, "finite corner c"),
    (lambda bend: _foliate("1", 0.4),
     InvalidBendError, "finite corner c"),
    (lambda bend: _foliate(1.0, "0.4"),
     InvalidBendError, "positive bend radius"),
    # a bool is no number: c = True would run as the corner c = 1
    (lambda bend: _foliate(True, 0.4),
     InvalidBendError, "finite corner c"),
    (lambda bend: connected_sum_foliation(1.0, 0.4, 0.05, [0.0], np.True_,
                                          0.25),
     InvalidSpecError, "need numbers tau, eps and delta_p"),
    (lambda bend: connected_sum_foliation(1.0, 0.4, "0.05", [0.0], 0.25,
                                          0.25),
     InvalidSpecError, "need numbers tau, eps and delta_p"),
    (lambda bend: connected_sum_foliation(1.0, 0.4, 0.05, [0.0], "0.25",
                                          0.25),
     InvalidSpecError, "need numbers tau, eps and delta_p"),
    (lambda bend: connected_sum_foliation(1.0, 0.4, 0.05, [0.0], 0.25,
                                          "0.25"),
     InvalidSpecError, "need numbers tau, eps and delta_p"),
], ids=["uncertified-bend", "c2-inside-cap", "nu-above-1", "corner-c-below-R",
        "corner-R-zero", "corner-c-infinite", "corner-c-nan",
        "corner-c-a-string", "corner-R-a-string", "corner-c-a-bool",
        "eps-a-bool", "tau-a-string", "eps-a-string", "delta-p-a-string"])
def test_argument_checks_raise_typed(certified_bend, call, error, message):
    with pytest.raises(error, match=message):
        call(certified_bend)


class TestLeafEvaluation:
    """Each leaf is certified from one curve jet and one jet per torpedo."""

    def test_leaf_reads_its_curve_once(self, monkeypatch):
        calls = {"jet": 0, "eval": 0}
        for name in calls:
            def counted(self, *args, _orig=getattr(Curve2D, name),
                        _name=name, **kw):
                calls[_name] += 1
                return _orig(self, *args, **kw)
            monkeypatch.setattr(Curve2D, name, counted)
        nu_grid = [0.0, 0.3, 0.5, 0.8, 1.0]
        connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=nu_grid, eps=0.25,
                                delta_p=0.25, p=2, q=4)
        # one jet per leaf, which is one curve evaluation pass
        assert calls["jet"] == len(nu_grid)
        assert calls["eval"] == len(nu_grid)

    def test_family_takes_one_jet_per_leaf_curve_and_torpedo(
            self, monkeypatch):
        calls = {Curve2D: 0, SmoothFn1D: 0}
        for cls in calls:
            def counted(self, *args, _orig=cls.jet, _cls=cls, **kw):
                calls[_cls] += 1
                return _orig(self, *args, **kw)
            monkeypatch.setattr(cls, "jet", counted)
        connected_sum_foliation(1.0, 0.4, tau=0.05,
                                nu_grid=np.linspace(0.0, 1.0, 21), eps=0.25,
                                delta_p=0.25, p=2, q=4)
        # per leaf: one curve jet, one jet per torpedo; make_torpedo's own
        # verification grid takes one more per torpedo
        assert calls[Curve2D] == 21
        assert calls[SmoothFn1D] <= 2 * 21 + 2

    def test_leaf_minima_match_the_profile_checks(self, family_cert):
        # the family's own CompositeProfile leaves, checked one profile at
        # a time, give the certificate's minima bit for bit
        family, cert = family_cert
        for (u, v), curve, mn in zip(family.leaves, family.curves,
                                     cert.extra["per_leaf_min"]):
            assert check_U_membership(u).passed
            assert check_V_membership(v).passed
            m = DoublyWarpedMetric(2, 4, u, v, open_profile=True)
            t = np.linspace(0.0, curve.length, hyp._LEAF_SAMPLES)
            assert float(np.min(scalar_doubly_warped(m, t))) == mn

    def test_leaves_are_members_by_construction(self):
        # the sampled reader passes every leaf of the demo's foliation and
        # of seeded corners whose torpedo caps outlast its 5% end window
        rng = np.random.default_rng(52)
        shapes = [(1.0, 0.4, 0.05, 0.25, 0.25)]
        while len(shapes) < 8:
            c = rng.uniform(0.5, 3.0)
            radius = rng.uniform(0.1, 0.9) * c
            longest = 2.0 * (c - radius) + radius * np.pi / 2.0
            # cap + blend = 1.25 delta pi/2, between the window and c
            eps, delta_p = rng.uniform(0.06 * longest, 0.9 * c, 2) / (
                1.25 * np.pi / 2.0)
            shapes.append((c, radius, rng.uniform(0.1, 1.0) * radius, eps,
                           delta_p))
        nu_grid = tuple(np.linspace(0.0, 1.0, 21).tolist())
        for c, radius, tau, eps, delta_p in shapes:
            f_eps, f_del, curves, _ = hyp._foliation_geometry(
                c - radius, radius, tau, nu_grid, eps, delta_p)
            for curve in curves:
                x, y = (hyp._CurveCoordinate(curve, i) for i in (0, 1))
                u, v = (hyp.CompositeProfile(f_eps, x),
                        hyp.CompositeProfile(f_del, y))
                assert check_U_membership(u).passed, (c, radius, eps)
                assert check_V_membership(v).passed, (c, radius, delta_p)

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


def _foliation(p, q, nu_grid=np.linspace(0.0, 1.0, 21)):
    return connected_sum_foliation(1.0, 0.4, tau=0.05, nu_grid=nu_grid,
                                   eps=0.25, delta_p=0.25, p=p, q=q)


class TestGeometryMemo:
    """The return chain's geometry is built once per shape; each call
    certifies its own (p, q) from it."""

    @pytest.mark.parametrize("p, q", [(2, 4), (1, 5), (3, 3)])
    def test_repeated_shape_evaluates_no_profile(self, monkeypatch, p, q):
        _foliation(2, 2)
        calls = {"curve": 0, "profile": 0}
        for owner, name, key in ((Curve2D, "jet", "curve"),
                                 (SmoothFn1D, "jet", "profile")):
            def counted(*args, _orig=getattr(owner, name), _key=key, **kw):
                calls[_key] += 1
                return _orig(*args, **kw)
            monkeypatch.setattr(owner, name, counted)
        _, warm = _foliation(p, q)
        assert calls == {"curve": 0, "profile": 0}
        monkeypatch.undo()
        for memo in _MEMOS:
            memo.entries.clear()
        _, cold = _foliation(p, q)
        assert warm.min_scalar == cold.min_scalar
        for key in ("per_leaf_min", "argmin_nu", "argmin_t"):
            assert warm.extra[key] == cold.extra[key]

    def test_first_failing_leaf_raises_cold_and_warm(self):
        # at (p, q) = (0, 1) leaf nu = 0.75 is the first to lose positivity
        # (R = 0 on the tube); the second call reads the memo
        nu_grid = [0.0, 0.25, 0.5, 0.75, 1.0]
        for _ in range(2):
            with pytest.raises(CertificationFailedError,
                               match=r"leaf nu = 0\.75 loses") as err:
                _foliation(0, 1, nu_grid)
            assert err.value.best_margin == 0.0
            assert len(hyp._foliation_geometry.entries) == 1

    @pytest.mark.parametrize("k", [0, 7, 20])
    def test_spoiled_leaf_is_the_first_to_fail(self, monkeypatch, k):
        # the cold scan's one stacked read, with rows k and k + 1 (when
        # there is one) spoiled to turn R negative at a few samples: the
        # error names leaf k with its own least R, that of its own row
        nu_grid = np.linspace(0.0, 1.0, 21)
        real, reads = hyp._quotients_from_jets, []

        def spoiled(*args):
            A, B, C = real(*args)
            for row in (k, k + 1)[:len(nu_grid) - k]:
                B[1, row, [3, 200]] = [-1e6, -1e6 * (3 + 2 * (row - k))]
            reads.append((A, B, C))
            return A, B, C
        monkeypatch.setattr(hyp, "_quotients_from_jets", spoiled)
        with pytest.raises(CertificationFailedError,
                           match=f"leaf nu = {nu_grid[k]} loses") as err:
            _foliation(2, 4, nu_grid)
        (A, B, C), = reads
        want = curvature._scalar(
            [2, 4], A[:, k], B[:, k], {ij: c[k] for ij, c in C.items()}).min()
        assert want < 0 and err.value.best_margin == want

    @pytest.mark.parametrize("seed", [None, 3, 11])
    def test_stacked_read_is_the_masked_reader_per_leaf(self, seed):
        # the demo's corner, then two seeded ones: a memo-empty foliation's
        # one stacked read equals, bit for bit, the masked reference reader
        # on each leaf's own jets at that leaf's own samples
        from test_curvature import _masked_points, _masked_quotients
        if seed is None:
            c, radius, tau, eps, delta_p = 1.0, 0.4, 0.05, 0.25, 0.25
        else:
            rng = np.random.default_rng(seed)
            radius = rng.uniform(0.2, 1.0)
            c = radius + rng.uniform(0.7, 1.5)
            tau = radius * rng.uniform(0.05, 0.9)
            eps, delta_p = rng.uniform(0.05, 0.3, 2)
        connected_sum_foliation(c, radius, tau, np.linspace(0.0, 1.0, 21),
                                eps, delta_p, p=2, q=4)
        (f_eps, f_del, curves, (t, (A, B, C))), = (
            hyp._foliation_geometry.entries.values())
        assert t.shape == (21, hyp._LEAF_SAMPLES)
        for k, curve in enumerate(curves):
            row = np.linspace(0.0, curve.length, hyp._LEAF_SAMPLES)
            pts, inner, ends = _masked_points(row, curve.length)
            x = curve.jet(pts, 3)
            want_A, want_B, want_C = _masked_quotients(inner, ends, [
                hyp._compose(f, tuple(d[..., axis] for d in x), 3)
                for f, axis in ((f_eps, 0), (f_del, 1))])
            assert t[k].tobytes() == row.tobytes()
            assert A[:, k].tobytes() == want_A.tobytes()
            assert B[:, k].tobytes() == want_B.tobytes()
            assert C.keys() == want_C.keys()
            assert C[0, 1][k].tobytes() == want_C[0, 1].tobytes()

    def test_cold_scan_reads_once(self, monkeypatch):
        # a memo-empty foliation reads its quotients once and each torpedo
        # once, over all 21 leaves (one leaf at a time took 21 and 42)
        calls = {"read": 0, "jet": 0}
        real = hyp._quotients_from_jets

        def read(*args):
            calls["read"] += 1
            return real(*args)

        def jet(*args, _orig=SmoothFn1D.jet, **kw):
            calls["jet"] += 1
            return _orig(*args, **kw)
        monkeypatch.setattr(hyp, "_quotients_from_jets", read)
        monkeypatch.setattr(SmoothFn1D, "jet", jet)
        _, cert = _foliation(2, 4)
        assert cert.passed and calls == {"read": 1, "jet": 2}

    def test_warm_call_takes_one_scalar_pass(self, monkeypatch):
        _foliation(2, 2)
        calls = []
        real = hyp._scalar

        def counted(dims, A, B, C):
            calls.append((A.shape, B.shape, {ij: c.shape
                                             for ij, c in C.items()}))
            return real(dims, A, B, C)
        monkeypatch.setattr(hyp, "_scalar", counted)
        _foliation(2, 4)
        shape = (21, hyp._LEAF_SAMPLES)
        assert calls == [((2, *shape), (2, *shape), {(0, 1): shape})]

    def test_stacked_quotients_are_read_only(self):
        _foliation(2, 4)
        (_, _, _, (t, (A, B, C))), = hyp._foliation_geometry.entries.values()
        for a in (t, A, B, *C.values()):
            assert not a.flags.writeable

    def test_failed_build_stores_nothing(self, monkeypatch):
        def singular(*args):
            raise SingularProfileError("spoiled")
        monkeypatch.setattr(hyp, "_quotients_from_jets", singular)
        with pytest.raises(SingularProfileError, match="spoiled"):
            _foliation(2, 4)
        assert not hyp._foliation_geometry.entries
        monkeypatch.undo()
        assert _foliation(2, 4)[1].passed

    def test_zero_dim_array_arguments_are_accepted(self):
        # an unhashable 0-d array enters the memo key as its numpy scalar
        _, want = _foliation(2, 4)
        _, got = connected_sum_foliation(
            np.array(1.0), np.array(0.4), tau=np.array(0.05),
            nu_grid=np.linspace(0.0, 1.0, 21), eps=np.array(0.25),
            delta_p=np.array(0.25), p=2, q=4)
        assert got.to_json() == want.to_json()
        _, rep = mixed_torpedo_via_J(np.array(0.5), 0.5, np.array(2.0), 2.0,
                                     0.5)
        assert rep == mixed_torpedo_via_J(0.5, 0.5, 2.0, 2.0, 0.5)[1]

    def test_mixed_torpedo_report_is_each_call_own(self):
        m, rep = mixed_torpedo_via_J(0.5, 0.5, 2.0, 2.0, 0.5, p=2, q=4)
        want = dict(rep)
        rep["max_deviation"] = np.inf
        rep.clear()
        m2, rep2 = mixed_torpedo_via_J(0.5, 0.5, 2.0, 2.0, 0.5, p=1, q=5)
        assert rep2 == want
        assert m2.dims == (1, 5)
        assert all(a is b for a, b in zip(m2.profiles, m.profiles))

    def test_mixed_torpedo_samples_no_membership(self, monkeypatch):
        calls = []
        for mod in (curvature, fnspace):
            def counted(f, space, _real=mod._check_membership):
                calls.append(space)
                return _real(f, space)
            monkeypatch.setattr(mod, "_check_membership", counted)
        for p, q in ((2, 4), (1, 5)):
            m, _ = mixed_torpedo_via_J(0.5, 0.5, 2.0, 2.0, 0.5, p=p, q=q)
            assert m.dims == (p, q)
        assert calls == []

    @pytest.mark.parametrize("eps, delta, small", [
        (0.02, 0.02, 0), (0.5, 0.02, 1)], ids=["U", "V"])
    def test_small_caps_build_members(self, eps, delta, small):
        # a cap + blend shorter than the sampled reader's 5% end window:
        # its one failure there is false, as f'' < 0 on the whole cap
        for _ in range(2):
            m, rep = mixed_torpedo_via_J(eps, delta, 2.0, 2.0, 0.5)
            assert rep["max_deviation"] < 1e-9
        assert len(hyp._mixed_torpedo_geometry.entries) == 1
        f, check, cap = (m.profiles[small], (check_U_membership,
                                             check_V_membership)[small],
                         0.02 * np.pi / 2.0)
        end = "b" if small == 0 else "0"
        assert [c.name for c in check(f).failures()] == [f"d2 < 0 near {end}"]
        t = np.linspace(0.0, cap, 65)[1:]
        assert f.jet(m.b - t if small == 0 else t, 2)[2].max() < 0
