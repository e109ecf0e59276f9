"""Bending curve synthesis: inequalities, segments, assembly, isotopies."""

import json
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from gllab import glbend, schedule
from gllab.certify import _MEMO_SIZE, _MEMOS, IsotopyCertificate
from gllab.errors import (AssemblyError, ConstructionFailedError,
                          InvalidBendError, InvalidSpecError, InversionError,
                          NoFeasibleBendError, OutOfRegimeError,
                          TiltTooLargeError)
from gllab.fnspace import (PolyPiece, SmoothFn1D, TorpedoSpec, _quintic_match,
                           make_torpedo, reflect)
from gllab.glbend import (ArcSeg, BendConstants, BumpSeg, Curve2D, GraphSeg,
                          LineSeg, _invert_monotone,
                          assemble_gamma, check_cureqn, check_diffkeqn,
                          final_bending_tilt, final_isotopy, initial_bend,
                          mu_inequality, quarter_bend_curve,
                          synth_transition)

MODEL = BendConstants(R0=1.5, q=3)

_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"


def _checked_table(F, lo, hi):
    """The ``_monotone_table`` of F on 65 equally spaced nodes of [lo, hi],
    the interval ``_invert_monotone`` then searches."""
    xs = np.linspace(lo, hi, 65)
    return glbend._monotone_table(xs, F(xs)[0])


class TestInequalityLedger:
    @pytest.mark.parametrize("kw", [
        {"R0": np.nan}, {"R0": np.inf}, {"R0": 1.5, "C": np.nan},
        {"R0": 1.5, "C": np.inf}, {"R0": 1.5, "Cp": np.nan},
        {"R0": 1.5, "Cp": np.inf}])
    def test_constants_must_be_finite(self, kw):
        with pytest.raises(InvalidSpecError, match="finite"):
            BendConstants(**kw)

    @pytest.mark.parametrize("q", [2.5, 3.0, np.nan, True, "3"])
    def test_fiber_dimension_must_be_an_integer(self, q):
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            BendConstants(R0=1.0, q=q)

    def test_rhs_pin(self):
        # frozen regression value of the right-hand side, computed
        # independently: with k = 1 and C' = 0 the margin is rhs - 1
        consts = BendConstants(R0=1.0, C=4.0, Cp=0.0, q=3)
        assert np.isclose(check_cureqn(consts, 1.0, 0.3, 0.2),
                          2.596105872648038 - 1.0, rtol=1e-12)

    def test_theta_zero_is_infinite(self):
        # the right-hand side is +inf at theta = 0, so the margin is too
        assert check_cureqn(MODEL, 1.0, 0.3, 0.0) == np.inf

    def test_concave_passes_unconditionally(self):
        assert check_cureqn(MODEL, -5.0, 0.3, 0.2) == np.inf
        assert check_cureqn(MODEL, 0.0, 0.3, 0.2) == np.inf

    @pytest.mark.parametrize("consts", [
        MODEL, BendConstants(R0=1.0, C=0.5, Cp=0.5, q=5),
        BendConstants(R0=0.2, C=4.0, Cp=2.0, q=2)])
    def test_margin_is_the_whole_array_formula_bitwise(self, consts):
        # check_cureqn's old whole-array expression, the +inf rows included,
        # on a bend's samples (its closing cap tip left out) and on data
        # with zero sines, k <= 0, r = 0 and NaN
        def whole(k, r, theta):
            s = np.sin(theta)
            with np.errstate(divide="ignore", invalid="ignore"):
                rhs = np.where(s == 0.0, np.inf,
                               consts.R0 * r / np.where(s == 0.0, 1.0, s)
                               + (consts.q - 1) * s / r - consts.C * r * s)
                return np.where(k <= 0.0, np.inf,
                                rhs - k * (1.0 + consts.Cp * r ** 2))
        pt, k, theta, terms = _bend(MODEL).curve.arc_samples(10000)
        r = pt[:, 1]
        want = whole(k[:-1], r[:-1], theta[:-1])
        assert glbend._cureqn_margin(consts, terms).tobytes() == \
            want.tobytes()
        assert check_cureqn(consts, k[:-1], r[:-1], theta[:-1]).tobytes() \
            == want.tobytes()
        rng = np.random.default_rng(53)
        k, r, theta = rng.normal(size=(3, 4000))
        k[::7], theta[::5], r[::11], k[::13] = 0.0, 0.0, 0.0, np.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            got = check_cureqn(consts, k, r, theta)
        np.testing.assert_array_equal(got, whole(k, r, theta))

    def test_profile_touching_zero_reads_minus_inf(self):
        # 1 - t^2 on (0, 1) is 0 at its last grid point
        f = SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, 0.0, -1.0])])
        assert check_diffkeqn(f) == -np.inf

    @given(mu=st.floats(0.0, 1.0), b=st.floats(0.0, 0.2499))
    @settings(max_examples=200, deadline=None)
    def test_mu_inequality_nonnegative(self, mu, b):
        assert mu_inequality(mu, b) >= -1e-15

    def test_mu_zero_only_at_one(self):
        mu = np.linspace(0.0, 1.0, 101)
        vals = mu_inequality(mu, 0.2)
        zero = np.isclose(vals, 0.0, atol=1e-12)
        assert zero.sum() == 1 and zero[-1]


class TestSegments:
    def test_unit_speed_all_kinds(self):
        segs = Curve2D([
            LineSeg((0.0, 1.0), (0.0, 0.5)),
            BumpSeg((0.0, 0.5), 0.0, 1.2, 0.25),
        ])
        assert segs.unit_speed_residual() < 1e-8
        arc = Curve2D([ArcSeg((1.0, 1.0), 0.5, 0.0, np.pi / 2)])
        assert arc.unit_speed_residual() < 1e-8

    def test_dk_matches_difference_of_curvature(self, transition):
        bend = assemble_gamma(MODEL, initial_bend(MODEL, r1=0.5), transition)
        tail = bend.curve.segments[-1]
        assert isinstance(tail, GraphSeg)
        # the tail's profile is only C^2 at its breakpoints: stay clear
        knots = tail._table([p.interval[1] for p in tail.prof.pieces[:-1]])[0]
        for seg, skip in ((BumpSeg((0.0, 0.5), 0.0, 1.2, 0.25), []),
                          (tail, knots)):
            L = seg.length
            s = np.linspace(0.0, L, 41)[1:-1]
            s = s[np.all(np.abs(s[:, None] - np.asarray(skip)) > 0.01 * L,
                         axis=1)]
            assert s.size > 20
            h = 1e-5 * L
            fd = (seg.eval(s + h)[2] - seg.eval(s - h)[2]) / (2 * h)
            np.testing.assert_allclose(seg.eval(s, 3)[3], fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())
            # the curve's third derivative dk N - k^2 T against a
            # difference of its second, k N
            curve = Curve2D([seg])
            fd = (curve.jet(s + h)[2] - curve.jet(s - h)[2]) / (2 * h)
            np.testing.assert_allclose(curve.jet(s, 3)[3], fd, rtol=1e-6,
                                       atol=1e-6 * np.abs(fd).max())

    def test_nan_junction_gap_is_kept(self):
        class NanSeg(LineSeg):
            def eval(self, s, k=2):
                p, *rest = super().eval(s, k)
                return np.full_like(p, np.nan), *rest

        curve = Curve2D([LineSeg((0.0, 1.0), (0.0, 0.5)),
                         NanSeg((0.0, 0.5), (0.0, 0.0))])
        assert np.isnan(curve.junction_residual())

    def test_nan_arc_length_raises_typed(self):
        with pytest.raises(InvalidSpecError, match="evaluation outside"):
            quarter_bend_curve(2.0, 2.0, 0.5).eval(np.nan)

    def test_quarter_bend_length_pin(self):
        c = quarter_bend_curve(2.0, 2.0, 0.5)
        assert np.isclose(c.length, 1.5 + 1.5 + np.pi / 4, rtol=1e-12)

    def test_quarter_bend_guards(self):
        # the bend radius must be positive and below both edges
        for c1, c2, radius in [(1.0, 1.0, 1.5), (1.0, 0.4, 0.4),
                               (0.4, 1.0, 0.4), (1.0, 1.0, 0.0),
                               (1.0, 1.0, -0.4), (np.nan, 1.0, 0.4),
                               (np.inf, 1.0, 0.4), (1.0, 1.0, np.nan)]:
            with pytest.raises(InvalidBendError, match="bend radius must"):
                quarter_bend_curve(c1, c2, radius)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_segments_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidSpecError):
                LineSeg((bad, 0.0), (bad, 0.6))
            with pytest.raises(InvalidSpecError):
                LineSeg((0.0, 0.0), (0.0, bad))
            with pytest.raises(InvalidSpecError):
                ArcSeg((0.0, 0.0), bad, 0.0, np.pi / 2)
            with pytest.raises(InvalidSpecError):
                ArcSeg((bad, 0.0), 0.5, 0.0, np.pi / 2)
            with pytest.raises(InvalidSpecError):
                ArcSeg((0.0, 0.0), 0.5, 0.0, bad)


class TestSynthesis:
    def test_initial_bend_certifies(self):
        prefix, theta0, k_max = initial_bend(MODEL, r1=0.5)
        assert 0 < theta0 < np.pi / 2
        assert k_max > 0

    def test_initial_bend_r0_zero_fails(self):
        with pytest.raises(NoFeasibleBendError):
            initial_bend(BendConstants(R0=0.0, q=2), r1=0.5)

    def test_exhausted_bend_search_reports_best_margin(self, monkeypatch):
        monkeypatch.setattr(glbend, "_BEND_HALVINGS", 1)
        with pytest.raises(NoFeasibleBendError) as err:
            initial_bend(BendConstants(R0=1.0, q=3), r1=0.5)
        best = err.value.best_margin
        assert isinstance(best, float) and -np.inf < best < 0
        assert f"best margin {best}" in str(err.value)

    def test_exhausted_transition_search_reports_best_margin(
            self, monkeypatch):
        monkeypatch.setattr(glbend, "_TRANSITION_HALVINGS", 1)
        # the one (delta0, delta_inf) attempt fails its landmarks: no margin
        with pytest.raises(ConstructionFailedError) as err:
            synth_transition(MODEL, r0=0.2, theta0=0.4)
        assert err.value.best_margin is None
        # the attempt reaches the graph inequality, which fails
        monkeypatch.setattr(glbend, "check_diffkeqn", lambda f: -0.25)
        with pytest.raises(ConstructionFailedError) as err:
            synth_transition(MODEL, r0=0.2, theta0=1.0)
        assert err.value.best_margin == -0.25

    def test_transition_junctions_and_diffkeqn(self):
        _, theta0, _ = initial_bend(MODEL, r1=0.5)
        params, f = synth_transition(MODEL, r0=0.2, theta0=theta0)
        # C2 junction residuals: adjacent pieces evaluated at the breakpoint
        for left, right in zip(f.pieces, f.pieces[1:]):
            t = left.interval[1]
            for lv, rv in zip(left.jet(t, 2), right.jet(t, 2)):
                lv, rv = float(lv), float(rv)
                assert abs(lv - rv) < 1e-8 * max(1.0, abs(lv), abs(rv))
        assert check_diffkeqn(f) > 0
        # the landmarks of the three-piece construction, from its six numbers:
        # t0 = 0, t0' = delta0 and tinf' = C2 - delta_inf/2 are its breaks
        assert [pc.interval for pc in f.pieces] == [
            (0.0, params.delta0),
            (params.delta0, params.C2 - 0.5 * params.delta_inf),
            (params.C2 - 0.5 * params.delta_inf, params.tinf)]
        assert params.tinf == params.C2 + 0.5 * params.delta_inf == f.b
        assert np.isclose(params.C2,
                          params.delta0 - 2 * params.m0 / params.C1
                          - params.delta0 / 2)
        # the parabola's vertex c = 1/(2 C1) at C2, and the graph's end value
        assert np.isclose(float(f.pieces[1].jet(params.C2, 0)[0]),
                          1.0 / (2.0 * params.C1))
        assert float(f(params.tinf)) == params.r_inf
        assert np.isclose(params.r_inf, 1.0 / (2.0 * params.C1)
                          - params.C1 * params.delta_inf ** 2 / 48)

    def test_tiny_bend_angle_transition_builds(self):
        # the parameter equation's terms scale like cot^2(theta0), so at
        # theta0 = 1e-3 its rounding residual is above 1e-10
        params, f = synth_transition(MODEL, r0=0.2, theta0=1e-3)
        assert params.delta0 == 1.953125e-4
        assert check_diffkeqn(f) > 0

    def test_transition_evaluates_each_candidate_once(self, monkeypatch):
        prefix = initial_bend(MODEL, r1=0.5)
        candidates, full_jets = [], []
        pieces, jet = glbend._transition_pieces, SmoothFn1D.jet

        def counted_pieces(params):
            candidates.append(params)
            return pieces(params)

        def counted_jet(self, t, k=2):
            if np.size(t) == 10001:
                full_jets.append(k)
            return jet(self, t, k)

        monkeypatch.setattr(glbend, "_transition_pieces", counted_pieces)
        monkeypatch.setattr(SmoothFn1D, "jet", counted_jet)
        synth_transition(MODEL, r0=0.2, theta0=prefix[1])
        assert candidates
        assert full_jets == [2] * len(candidates)

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_assemble_gamma_certifies(self, q):
        consts = BendConstants(R0=1.5, q=q)
        prefix = initial_bend(consts, r1=0.5)
        trans = synth_transition(consts, r0=0.2, theta0=prefix[1])
        profile = assemble_gamma(consts, prefix, trans)
        cert = profile.certificate
        assert cert.passed and cert.min_scalar > 0
        assert profile.curve.junction_residual() < 1e-8

    def test_nan_junction_residual_raises(self, monkeypatch):
        prefix = initial_bend(MODEL, r1=0.5)
        trans = synth_transition(MODEL, r0=0.2, theta0=prefix[1])
        monkeypatch.setattr(Curve2D, "junction_residual",
                            lambda self: np.nan)
        with pytest.raises(AssemblyError, match="junction residual"):
            assemble_gamma(MODEL, prefix, trans)

    @pytest.mark.parametrize("r0", [0.15, 0.2])
    def test_r0_not_below_half_r1_raises_before_gluing(self, r0):
        # r1/2 = 0.15 exactly; the input error comes before any glued curve
        prefix = initial_bend(MODEL, r1=0.3)
        trans = synth_transition(MODEL, r0=r0, theta0=prefix[1])
        with pytest.raises(InvalidSpecError, match="need r0 < r1/2"):
            assemble_gamma(MODEL, prefix, trans)
        assert not glbend._glued_curve.entries

    def test_failing_curve_reports_its_least_margin(self):
        # a bend certified under R0 = 1.5 fails the weaker R0 = 0.01
        weak = BendConstants(R0=0.01, q=3)
        prefix = initial_bend(MODEL, r1=0.5)
        trans = synth_transition(weak, r0=0.2, theta0=prefix[1])
        with pytest.raises(AssemblyError, match="fails the inequality") \
                as err:
            assemble_gamma(weak, prefix, trans)
        assert err.value.best_margin == pytest.approx(-1.279, abs=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_margin_sample_fails(self, monkeypatch, bad):
        # one interior sample of the curve inequality turns NaN or -inf
        prefix = initial_bend(MODEL, r1=0.5)
        profile = assemble_gamma(MODEL, prefix, synth_transition(
            MODEL, r0=0.2, theta0=prefix[1]))
        real = glbend._cureqn_margin

        def spoiled(*args):
            margin = np.array(real(*args), dtype=float)
            margin[margin.size // 2] = bad
            return margin
        monkeypatch.setattr(glbend, "_cureqn_margin", spoiled)
        cert = profile.certify()
        assert not cert.passed
        np.testing.assert_equal(cert.min_scalar, bad)
        # no bump with such a sample is accepted, and none gives a best margin
        with pytest.raises(NoFeasibleBendError) as err:
            initial_bend(MODEL, r1=0.5)
        assert err.value.best_margin is None

    @pytest.mark.parametrize("R0, q", [(1.5, 3), (3.0, 5)])
    def test_closing_sample_reports_its_r_and_passes(self, R0, q):
        # at the cap tip r and k are rounding noise about 0 (r is exactly 0
        # for R0 = 3, q = 5); the table shows that r and a margin of +inf
        consts = BendConstants(R0=R0, q=q)
        prefix = initial_bend(consts, r1=0.5)
        profile = assemble_gamma(consts, prefix, synth_transition(
            consts, r0=0.2, theta0=prefix[1]))
        s, _t, r, _k, _theta, margin = profile.margins(2048)
        assert r[-1] == profile.curve.eval(s)[0][-1, 1]
        assert abs(r[-1]) < 1e-9
        assert margin[-1] == np.inf
        assert profile.certificate.min_scalar == \
            profile.margins()[5][:-1].min()

    @pytest.mark.parametrize("e", [1, 13, 26, 30])
    def test_transition_root_is_stable_for_small_delta0(self, e):
        # at theta0 = pi/2 and delta0 = r0 2^-26, a1^2 - 4 a2 a0 rounds to
        # a1^2, so -a1 + sqrt(...) is 0; the root is evaluated exactly here
        r0, m0 = 0.2, -1.0 / np.tan(np.pi / 2)
        delta0 = r0 * 2.0 ** -e  # the search tries e = 1..30
        C1 = glbend._transition_root(r0, m0, delta0)
        with localcontext() as ctx:
            ctx.prec = 80
            r, m, d = (Decimal(x) for x in (r0, m0, delta0))
            a2, a1, a0 = d * d / 48, r + d * m / 2, -(Decimal("0.5") + m * m)
            exact = (-a1 + (a1 * a1 - 4 * a2 * a0).sqrt()) / (2 * a2)
        assert np.isfinite(C1) and C1 > 0
        assert abs(Decimal(float(C1)) - exact) <= Decimal("1e-14") * exact


def _bend(consts, r1=0.5, r0=0.2):
    prefix = initial_bend(consts, r1=r1)
    return assemble_gamma(consts, prefix, synth_transition(
        consts, r0=r0, theta0=prefix[1]))


# the cap 0.99 arctan(1/2) of theta0, and bends that reach it or its half
CAP = 0.99 * np.arctan(0.5)
AT_CAP = [BendConstants(R0=2.0, q=3), BendConstants(R0=1.2, q=4),
          BendConstants(R0=1.0, q=5, C=0.5, Cp=0.5)]
HALVED = [BendConstants(R0=1.5, q=3), BendConstants(R0=1.0, q=2),
          BendConstants(R0=0.8, q=3, C=0.25)]


BEND_MEMOS = (glbend._bump_geometry, glbend._transition_shape,
              glbend._glued_curve)


class TestGeometryMemo:
    """Each (r1, r0, theta0) is built once; the constants enter only the
    margins, taken again on every call."""

    def test_memos_stay_within_their_bound(self, monkeypatch):
        # a miss drops the least recently used entries before it builds
        held = {memo: [] for memo in BEND_MEMOS}
        for memo in BEND_MEMOS:
            def counted(*args, _memo=memo, _build=memo.build):
                held[_memo].append(len(_memo.entries))
                return _build(*args)
            monkeypatch.setattr(memo, "build", counted)
        n = 2 * _MEMO_SIZE + 1
        for r1 in np.linspace(0.4, 0.6, n):
            _bend(MODEL, r1=r1, r0=0.3 * r1)
            for memo in BEND_MEMOS:
                assert 0 < len(memo.entries) <= _MEMO_SIZE
        # every geometry was new: one transition search and one glued
        # curve each, each built beside at most _MEMO_SIZE - 1 others
        assert held[glbend._transition_shape] == \
            held[glbend._glued_curve] == \
            [min(i, _MEMO_SIZE - 1) for i in range(n)]
        assert max(held[glbend._bump_geometry]) == _MEMO_SIZE - 1

    def test_warm_assembly_builds_no_inequality_terms(self, monkeypatch):
        # the bump's terms are kept per (r1, theta0) and the curve's with
        # its samples: a second bend under new constants only takes margins
        weak = BendConstants(R0=1.0, q=3)
        prefix = initial_bend(MODEL, r1=0.5)
        trans = synth_transition(MODEL, r0=0.2, theta0=prefix[1])
        first = assemble_gamma(MODEL, prefix, trans)
        built = []
        real = glbend._cureqn_terms

        def counted(*args):
            built.append(len(args[0]))
            return real(*args)
        monkeypatch.setattr(glbend, "_cureqn_terms", counted)
        assert initial_bend(weak, r1=0.5)[1] == prefix[1]
        second = assemble_gamma(weak, prefix, trans)
        assert built == []
        assert second.curve is first.curve
        assert second.certificate.min_scalar < first.certificate.min_scalar
        # a new sample count is a new set of terms, kept for the next call
        second.certify(2048)
        second.certify(2048)
        assert built == [2047]

    def test_junctions_checked_once_per_glued_curve(self, monkeypatch):
        prefix = initial_bend(MODEL, r1=0.5)
        trans = synth_transition(MODEL, r0=0.2, theta0=prefix[1])
        calls = []
        real = Curve2D.junction_residual

        def counted(self):
            calls.append(self)
            return real(self)
        monkeypatch.setattr(Curve2D, "junction_residual", counted)
        first = assemble_gamma(MODEL, prefix, trans)
        second = assemble_gamma(MODEL, prefix, trans)
        assert first.curve is second.curve
        assert calls == [first.curve]

    def test_second_attach_with_the_same_angle_builds_nothing(
            self, monkeypatch):
        # R0 = 1.0 and 1.5 at q = 3 both settle on theta0 = CAP/2 after
        # one halving, so the test at CAP is shared too
        first = schedule._handle_attach(IsotopyCertificate("", 6.0), 3)
        assert first.theta0 == 0.5 * CAP
        built, evals = [], []
        for cls in (BumpSeg, GraphSeg, glbend._HermiteTable):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        real_eval = Curve2D.eval

        def counted_eval(self, s, k=2):
            evals.append(np.size(s))
            return real_eval(self, s, k)

        monkeypatch.setattr(Curve2D, "eval", counted_eval)
        second = schedule._handle_attach(IsotopyCertificate("", 9.0), 3)
        assert second.theta0 == first.theta0
        assert built == []
        # the profile is plain data and the curve keeps its samples: a
        # second attach evaluates no curve at all
        assert evals == []
        assert second.curve is first.curve
        assert second.landmarks == first.landmarks
        assert second.landmarks is not first.landmarks
        # the certificate is the second attach's own
        assert second.certificate is not first.certificate
        assert second.certificate.min_scalar > first.certificate.min_scalar

    def test_shared_geometry_certifies_like_a_fresh_build(self):
        shared = [_bend(c) for c in AT_CAP + HALVED]
        assert [b.theta0 for b in shared] == [CAP] * 3 + [0.5 * CAP] * 3
        assert all(b.curve is shared[0].curve for b in shared[:3])
        assert all(b.curve is shared[3].curve for b in shared[3:])
        for consts, bend in zip(AT_CAP + HALVED, shared):
            for memo in _MEMOS:
                memo.entries.clear()
            fresh = _bend(consts)
            assert fresh.curve is not bend.curve
            assert fresh.certificate.to_json() == bend.certificate.to_json()
            assert fresh.landmarks == bend.landmarks
            for a, b in zip(fresh.margins(), bend.margins()):
                assert np.array_equal(a, b)

    def test_array_scales_share_the_float_geometry(self):
        # a 0-d array is no memo key: the scales and angle enter as floats
        bend = _bend(MODEL)
        prefix = initial_bend(MODEL, r1=np.array(0.5))
        trans = synth_transition(MODEL, r0=np.array(0.2),
                                 theta0=np.array(prefix[1]))
        again = assemble_gamma(MODEL, (prefix[0], np.array(prefix[1]),
                                       prefix[2]), trans)
        assert again.curve is bend.curve

    def test_shared_samples_are_read_only(self):
        bend = _bend(MODEL)
        _s, t, r, k, theta, margin = bend.margins()
        for shared in (t, r, k, theta):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 1.0
        margin[0] = 1.0  # each call's own
        prefix, _theta0, _k_max = initial_bend(MODEL, r1=0.5)
        params, _f = synth_transition(MODEL, r0=0.2, theta0=bend.theta0)
        with pytest.raises(AttributeError):
            params.r0 = 0.1
        assert prefix is initial_bend(MODEL, r1=0.5)[0]


class TestBendCertificate:

    def test_says_where_its_minimum_sits(self):
        bend = _bend(MODEL)
        s, t, _r, _k, _theta, margin = bend.margins()
        cert = bend.certificate
        i = int(np.flatnonzero(s == cert.extra["argmin_s"])[0])
        assert margin[i] == cert.min_scalar == margin.min()
        assert cert.extra["argmin_t"] == t[i]
        assert 0 < i < s.size - 1
        assert cert.to_json()["extra"] == cert.extra

    @pytest.mark.parametrize("tie", [True, False])
    def test_first_minimum_wins_and_a_nan_is_the_minimum(self, monkeypatch,
                                                          tie):
        bend = _bend(MODEL)
        s, t, *_, margin = bend.margins()
        lo = int(np.argmin(margin))
        # two samples tie with the minimum before it, or two turn NaN after
        spoilt = [lo - 5, lo - 2] if tie else [lo + 7, lo + 3]
        real = glbend._cureqn_margin

        def spoiled(*args):
            out = np.array(real(*args), dtype=float)
            out[spoilt] = margin[lo] if tie else np.nan
            return out

        monkeypatch.setattr(glbend, "_cureqn_margin", spoiled)
        cert = bend.certify()
        first = min(spoilt)
        assert cert.extra == {"argmin_s": float(s[first]),
                              "argmin_t": float(t[first])}
        np.testing.assert_equal(cert.min_scalar,
                                margin[lo] if tie else np.nan)

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_raise_typed(self, n):
        with pytest.raises(InvalidSpecError, match="at least 2"):
            _bend(MODEL).certify(n)


@pytest.fixture(scope="module")
def transition():
    prefix = initial_bend(MODEL, r1=0.5)
    return synth_transition(MODEL, r0=0.2, theta0=prefix[1])


class TestIsotopies:

    def test_tilt_identity_at_tinf(self, transition):
        params, f = transition
        assert final_bending_tilt(transition, params.tinf) is f

    def test_tilt_out_of_window(self, transition):
        params, _ = transition
        with pytest.raises(InvalidSpecError):
            final_bending_tilt(transition, params.C2 - 0.01)

    @pytest.mark.parametrize("frac", [0.75, 0.8, 0.95])
    def test_tilt_below_end_value_is_a_construction_error(self, transition,
                                                          frac):
        # from about 0.75 of [C2, t_inf] on, the cut-off profile already
        # lies below f(t_inf) at t_inf'', so no tail can descend to it
        params, _ = transition
        t_inf_pp = params.C2 + frac * (params.tinf - params.C2)
        with pytest.raises(ConstructionFailedError, match="t_inf''"):
            final_bending_tilt(transition, t_inf_pp)

    def test_tilt_inside_window_still_builds(self, transition):
        params, f = transition
        g = final_bending_tilt(
            transition, params.C2 + 0.7 * (params.tinf - params.C2))
        assert np.isclose(float(g(g.b)), float(f(params.tinf)), atol=1e-9)

    def test_tilt_preserves_range_and_margin(self, transition):
        params, f = transition
        g = final_bending_tilt(transition, params.C2)
        assert np.isclose(float(g(g.b)), float(f(params.tinf)), atol=1e-9)
        assert check_diffkeqn(g) > 0

    def test_final_isotopy_margins_positive(self, transition):
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        family, margins = final_isotopy(g, (params.r0, params.m0))
        assert len(family) == len(margins) == 21
        assert min(margins) > 0
        # endpoints: h_0 = f on [0, b], h_1 = line
        t, (r, _d1, _d2) = family[0]
        assert t.size == 201 and t[-1] == g.b
        assert np.allclose(r, g(t), atol=1e-8)
        t, (r, d1, d2) = family[-1]
        assert np.allclose(r, params.r0 + params.m0 * t, atol=1e-8)
        assert np.allclose(d1, params.m0) and np.allclose(d2, 0.0)

    def test_final_isotopy_inversion_invariant(self, transition):
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        s_grid = [0.0, 0.5, 1.0]
        family, _ = final_isotopy(g, (params.r0, params.m0), s_grid,
                                  n_t=33)
        for s, (t, (r, _d1, _d2)) in zip(s_grid, family):
            # the defining blend (1-s) f^{-1}(r) + s (r - r0)/m0 gives t
            F = lambda x: g.jet(x, 1)
            tau = _invert_monotone(F, r, _checked_table(F, 0.0, g.b))
            t_back = (1.0 - s) * tau + s * (r - params.r0) / params.m0
            np.testing.assert_allclose(t_back, t, rtol=0, atol=1e-12)

    def test_final_isotopy_guards(self, transition):
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        with pytest.raises(InvalidSpecError):
            final_isotopy(g, (params.r0 + 1.0, params.m0))
        with pytest.raises(InversionError):
            final_isotopy(g, (params.r0, 0.5))

    @pytest.mark.parametrize("r0, m0, s_grid", [
        (np.nan, None, [0.5]), (None, np.nan, [0.5]),
        (None, -np.inf, [0.5]), ("x", None, [0.5]), (None, None, []),
        (None, None, [[0.5]]), (None, None, ["x"])],
        ids=["r0-nan", "m0-nan", "m0-minus-inf", "r0-not-a-number",
             "s-grid-empty", "s-grid-nested", "s-grid-not-numbers"])
    def test_final_isotopy_rejects_bad_line_and_grid(self, transition, r0,
                                                      m0, s_grid):
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        line = (params.r0 if r0 is None else r0,
                params.m0 if m0 is None else m0)
        with pytest.raises(InvalidSpecError):
            final_isotopy(g, line, s_grid)

    @pytest.mark.parametrize("n_t", [2, 0, -5, 11.0, 2.5, True, "11"])
    def test_final_isotopy_rejects_bad_n_t(self, transition, n_t):
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        with pytest.raises(InvalidSpecError):
            final_isotopy(g, (params.r0, params.m0), [0.5], n_t=n_t)

    def test_final_isotopy_least_n_t(self, transition):
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        _, margins = final_isotopy(g, (params.r0, params.m0), [0.5], n_t=3)
        assert len(margins) == 1 and np.isfinite(margins[0])

    @pytest.mark.parametrize("s", [-0.5, 1.5, np.nan],
                             ids=lambda s: f"final_isotopy-{s}")
    def test_s_outside_the_homotopy_raises_typed(self, transition, s):
        # s = -0.5 would blend to a curve outside the family, and 1.5 and
        # NaN are input errors, not failed inversions
        params, _ = transition
        g = final_bending_tilt(transition, params.C2)
        with pytest.raises(InvalidSpecError, match=r"s_grid must .* in \[0, 1\]"):
            final_isotopy(g, (params.r0, params.m0), [0.0, s])


@pytest.fixture(scope="module")
def tilted(transition):
    params, _ = transition
    return final_bending_tilt(transition, params.C2)


def _blend_jet_reference(f, m0, s, t):
    """(h_s, h_s', h_s'') at scalar t by the nested scalar root finds of the
    definition: r solves hinv(r) = t, where hinv calls f^{-1} by brentq;
    f must stay positive, so that h_s ends at r = f(b)."""
    r0, r_end = float(f(0.0)), float(f(f.b))

    def finv(r):
        return brentq(lambda tt: float(f(tt)) - r, 0.0, f.b,
                      xtol=1e-15, rtol=1e-15)

    def hinv(r):
        return (1.0 - s) * finv(r) + s * (r - r0) / m0

    if t <= 0.0:
        r = r0
    elif t >= hinv(r_end):
        r = r_end
    else:
        r = brentq(lambda rr: hinv(rr) - t, r_end, r0,
                   xtol=1e-15, rtol=1e-15)
    tau = finv(r)
    _, fp, fpp = (float(x) for x in f.jet(tau, 2))
    hinv1 = (1.0 - s) / fp + s / m0
    hinv2 = -(1.0 - s) * fpp / fp ** 3
    return r, 1.0 / hinv1, -hinv2 / hinv1 ** 3


class TestInverseBlend:
    """The straightening family's h_s, with h_s^{-1} = (1-s) f^{-1} +
    s l^{-1}, against its definition."""

    @pytest.mark.parametrize("s", [0.0, 0.35, 0.7, 1.0])
    def test_jet_matches_nested_scalar_reference(self, tilted, transition, s):
        params, _ = transition
        (t, got), = final_isotopy(tilted, (params.r0, params.m0), [s],
                                  n_t=9)[0]
        ref = np.array([_blend_jet_reference(tilted, params.m0, s,
                                             float(tv)) for tv in t]).T
        for order in range(3):
            scale_ = np.abs(ref[order]).max()
            np.testing.assert_allclose(got[order], ref[order], rtol=1e-10,
                                       atol=1e-10 * scale_)
        assert got[0][0] == params.r0

    @pytest.mark.parametrize("coeffs", [[1.0, -0.5, -0.5], [1.0, -2.0],
                                        [-0.1, -1.0]],
                             ids=["ends-at-zero", "crosses-zero", "negative"])
    def test_profile_not_ending_above_zero_raises_typed(self, coeffs):
        # the tilt hands over profiles that end at r_inf > 0; no other is
        # straightened
        f = SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), coeffs)])
        with pytest.raises(InvalidSpecError, match="end above r = 0"):
            final_isotopy(f, (coeffs[0], -0.5), [0.0, 0.5])

    def test_one_scan_per_family(self, monkeypatch):
        f = SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, -0.5, -0.2])])
        scans = []
        jet = SmoothFn1D.jet

        def counted_jet(self, t, k=2):
            if np.size(t) == 4097:
                scans.append(k)
            return jet(self, t, k)

        monkeypatch.setattr(SmoothFn1D, "jet", counted_jet)
        family, margins = final_isotopy(f, (1.0, -0.5))
        assert len(family) == len(margins) == 21
        assert scans == [1]


class TestInvertMonotone:

    def test_inverts_increasing_and_decreasing(self):
        y = np.linspace(0.0, 2.0, 101)
        F = lambda x: (x ** 3 + x, 3 * x ** 2 + 1)
        x = _invert_monotone(F, y, _checked_table(F, 0.0, 1.0))
        np.testing.assert_allclose(x ** 3 + x, y, rtol=0, atol=1e-14)
        F = lambda x: (np.cos(x), -np.sin(x))
        x = _invert_monotone(F, [1.0, 0.5], _checked_table(F, 0.0, 2.0))
        np.testing.assert_allclose(x, [0.0, np.pi / 3], rtol=1e-15)

    def test_non_monotone_raises(self):
        # the table's own check
        with pytest.raises(InversionError, match="monotone"):
            _checked_table(lambda x: ((x - 0.5) ** 2, 2 * (x - 0.5)),
                           0.0, 1.0)

    def test_target_outside_range_raises(self):
        F = lambda x: (x, np.ones_like(x))
        for y in ([0.5, 2.0], [np.nan]):
            with pytest.raises(InversionError, match="outside the range"):
                _invert_monotone(F, y, _checked_table(F, 0.0, 1.0))

    def test_nan_producing_function_raises(self):
        def on_table(x):
            return np.where(x > 0.7, np.nan, x)

        def between_table_points(x):
            return np.where(np.abs(x - 0.503) < 1e-3, np.nan, x)

        for F in (on_table, between_table_points):
            G = lambda x: (F(x), np.ones_like(x))
            with pytest.raises(InversionError, match="finite"):
                _invert_monotone(G, [0.503], _checked_table(G, 0.0, 1.0))

    def test_jump_reports_residual(self):
        # monotone on the table, but y = 1 falls inside the jump at 1/2
        F = lambda x: (x + (x > 0.5), np.ones_like(x))
        with pytest.raises(InversionError) as err:
            _invert_monotone(F, [1.0], _checked_table(F, 0.0, 1.0))
        assert err.value.residual == pytest.approx(0.5, rel=1e-6)

    def test_step_budget_reports_residual(self, monkeypatch):
        monkeypatch.setattr(glbend, "_INVERT_MAX_ITER", 1)
        F = lambda x: (x ** 3 + x, 3 * x ** 2 + 1)
        with pytest.raises(InversionError) as err:
            _invert_monotone(F, np.linspace(0.1, 1.9, 7),
                             _checked_table(F, 0.0, 1.0))
        assert 0 < err.value.residual < 1e-2


    @pytest.mark.parametrize("y", [1e-5, 0.017, 0.1])
    def test_newton_step_onto_bracket_end_converges(self, y):
        # F is near 0 at the root, so F is exact to far below an ulp of x
        # there: the last Newton step rounds onto x itself, the end of its
        # bracket, and must count as converged (bisection took 33-45 rounds)
        calls = []

        def F(x):
            calls.append(np.size(x))
            u = x - 0.5
            return u + u ** 3, 1.0 + 3.0 * u ** 2

        x = _invert_monotone(F, [y], _checked_table(F, 0.0, 1.0))
        # the table's evaluation, then at most 6 rounds
        assert len(calls) - 1 <= 6
        u = x - 0.5
        np.testing.assert_allclose(u + u ** 3, [y], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("table", [
        ([0.0, 0.5, 1.0], [0.0, np.nan, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, np.inf, 1.0]),
        ([0.0, np.nan, 1.0], [0.0, 0.5, 1.0]),
        ([0.0, 0.5, 1.0], [0.0, 0.6, 0.6]),
        ([0.0, 0.5, 1.0], [0.0, 0.7, 0.6]),
        ([0.0, 0.6, 0.5, 1.0], [0.0, 0.6, 0.5, 1.0])])
    def test_bad_caller_table_raises(self, table):
        # a caller's table is checked once, where it is built
        with pytest.raises(InversionError, match="table|monotone"):
            glbend._monotone_table(*table)

    def test_caller_table_seeds_and_brackets(self):
        xs = np.linspace(0.0, 1.0, 9)
        calls = []

        def F(x):
            calls.append(np.size(x))
            return x ** 3 + x, 3 * x ** 2 + 1

        y = np.linspace(0.0, 2.0, 101)
        x = _invert_monotone(F, y, glbend._monotone_table(xs, F(xs)[0]))
        np.testing.assert_allclose(x ** 3 + x, y, rtol=0, atol=1e-14)
        # after the test's own table, the first evaluation is at the seeds
        assert calls[0] == xs.size and calls[1] == y.size

    @pytest.mark.parametrize("coeffs", [[1.0, -0.5, -0.5],
                                        [0.4, -1.0, 0.3, -0.1]])
    def test_brentq_matches_scipy_brentq(self, coeffs):
        # the level r0/1000 of a decreasing profile, on 65 nodes of [0, 1]
        f = SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), coeffs)])
        y = 1e-3 * coeffs[0]
        got = glbend.brentq(lambda x: f.jet(x, 1), y, 0.0, 1.0)
        ref = brentq(lambda x: float(f(x)) - y, 0.0, 1.0,
                     xtol=1e-15, rtol=1e-15)
        assert 0.0 < got < 1.0
        assert abs(got - ref) <= 1e-13


@pytest.fixture
def inversions(monkeypatch):
    """Record, per ``_invert_monotone`` call, the targets' size, the
    table's node count and the size of every array F is evaluated on."""
    log = []
    invert = glbend._invert_monotone

    def recorded(F, y, table):
        sizes = []

        def counted_F(x):
            sizes.append(np.size(x))
            return F(x)

        log.append((np.size(y), table[0].size, sizes))
        return invert(counted_F, y, table)

    monkeypatch.setattr(glbend, "_invert_monotone", recorded)
    return log


class TestInversionRounds:

    def test_tilt_inversion_takes_newton_rounds(self, inversions):
        # the straighten warm-up bend, where converged steps landing on a
        # bracket end sent 30-55 of the then 511 levels into 41-42 rounds;
        # the check now reads the 22 of them in the window above cut0
        consts = BendConstants(R0=1.2, q=2)
        prefix = initial_bend(consts, r1=0.55)
        trans = synth_transition(consts, r0=0.18, theta0=prefix[1])
        inversions.clear()
        final_bending_tilt(trans, trans[0].C2)
        (n, nodes, sizes), = inversions
        # on the tilt's own 65-node table, the first evaluation is at the
        # seeds
        assert n == 22 and nodes == 65 and sizes[0] == 22
        assert len(sizes) <= 6

    def test_graph_seg_seeds_from_its_table(self, inversions):
        f = SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, -0.5, -0.5])])
        seg = GraphSeg(f)
        s = np.linspace(0.0, seg.length, 102)[1:-1]
        t = seg._t_of_s(s)
        (n, nodes, sizes), = inversions
        assert n == 100 and nodes == seg._table.x.size and sizes[0] == 100
        np.testing.assert_allclose(seg._table(t)[0], s, rtol=1e-15)

    @pytest.mark.parametrize("f", [
        SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, -0.5, -0.2])]),
        SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, -0.8, 0.1])])])
    def test_inverse_blend_seeds_from_its_scan(self, inversions, f):
        family, _ = final_isotopy(f, (1.0, -0.5), [0.0, 0.5], n_t=100)
        # one solve per s, on the family's 4097-node scan of f
        assert len(inversions) == 2
        for n, nodes, sizes in inversions:
            assert n == 100 and nodes == 4097 and sizes[0] == 100
        # h_s^{-1}(r) = (1-s) f^{-1}(r) + s (r - r0)/m0 gives back t
        assert family[0][0][-1] == f.b
        t, (r, _d1, _d2) = family[1]
        F = lambda x: f.jet(x, 1)
        tau = _invert_monotone(F, r, _checked_table(F, 0.0, f.b))
        np.testing.assert_allclose(0.5 * tau + 0.5 * (r - 1.0) / -0.5, t,
                                   rtol=0, atol=1e-13)


def test_curve_jet_orders_agree_bitwise():
    # a bend curve holds line, bump and graph segments; only k = 3 adds
    # the segments' dk/ds
    prefix = initial_bend(MODEL, r1=0.5)
    curve = assemble_gamma(MODEL, prefix, synth_transition(
        MODEL, r0=0.2, theta0=prefix[1])).curve
    assert {"bump", "graph"} <= {seg.kind for seg in curve.segments}
    for s in (np.linspace(0.0, curve.length, 1001), 0.37 * curve.length):
        full = curve.jet(s, 3)
        for k in range(4):
            got = curve.jet(s, k)
            assert len(got) == k + 1
            for lower, higher in zip(got, full):
                assert np.array_equal(lower, higher)


def test_curve_jet_solves_for_t_once(monkeypatch):
    curve = Curve2D([GraphSeg(reflect(make_torpedo(TorpedoSpec(0.3))))])
    calls = []
    t_of_s = GraphSeg._t_of_s
    monkeypatch.setattr(GraphSeg, "_t_of_s",
                        lambda self, s: calls.append(1) or t_of_s(self, s))
    curve.jet(np.linspace(0.0, curve.length, 101), 3)
    assert len(calls) == 1


@pytest.mark.parametrize("call", [
    lambda c: c.jet(1.0, 4), lambda c: c.jet(1.0, -1),
    lambda c: c.eval(-1.0), lambda c: c.eval(c.length + 1.0)],
    ids=["order 4", "order -1", "before the start", "past the end"])
def test_curve_jet_rejects_bad_order_or_arc_length(call):
    with pytest.raises(InvalidSpecError):
        call(quarter_bend_curve(2.0, 2.0, 0.5))


class TestGraphSeg:

    def test_arc_length_round_trip(self, transition):
        _, f = transition
        seg = GraphSeg(f, t_offset=0.3)
        s = np.linspace(0.0, seg.length, 257)
        t = seg._t_of_s(s)
        assert t[0] == 0.0 and t[-1] == f.b
        assert np.all(np.diff(t) > 0)
        np.testing.assert_allclose(seg._table(t)[0], s, rtol=0,
                                   atol=1e-13 * seg.length)
        # out-of-range arc lengths clamp to the exact ends
        assert seg._t_of_s(-1.0) == 0.0
        assert seg._t_of_s(2 * seg.length) == f.b
        # scalar in, scalar out, also through eval
        assert np.ndim(seg._t_of_s(0.4 * seg.length)) == 0
        pt, tan, k = seg.eval(0.4 * seg.length)
        assert pt.shape == (2,) and tan.shape == (2,) and np.ndim(k) == 0


def _quad_cumulative(dF, x, breaks=()):
    """The integrals of dF from x[0] to every x, by adaptive quad on the
    intervals between consecutive x, split at ``breaks``."""
    steps = [0.0]
    for lo, hi in zip(x[:-1], x[1:]):
        cut = [lo] + [b for b in breaks if lo < b < hi] + [hi]
        steps.append(sum(quad(dF, a, b, epsabs=1e-16, epsrel=1e-14)[0]
                         for a, b in zip(cut[:-1], cut[1:])))
    return np.cumsum(steps)


class TestArcLengthTables:
    """The Hermite tables against adaptive quad on assembled bends: the CLI
    default (R0 = 1, q = 2), the R0 = 1.5, q = 3 model (the same curve,
    since both settle on theta0 = CAP/2 after one halving) and a pool
    configuration with a longer tail."""

    @pytest.mark.parametrize("R0, q, r1, r0", [(1.0, 2, 0.5, 0.2),
                                               (1.5, 3, 0.5, 0.2),
                                               (3.0, 5, 0.6, 0.15)])
    def test_tables_match_adaptive_quad(self, R0, q, r1, r0):
        consts = BendConstants(R0=R0, q=q)
        prefix = initial_bend(consts, r1=r1)
        bend = assemble_gamma(consts, prefix, synth_transition(
            consts, r0=r0, theta0=prefix[1]))
        _, bump, _, trans, tail = bend.curve.segments
        for seg in (trans, tail):
            prof = seg.prof
            t = np.linspace(0.0, prof.b, 401)
            ref = _quad_cumulative(
                lambda x: np.sqrt(1.0 + float(prof.jet(x, 1)[1]) ** 2), t,
                [p.interval[1] for p in prof.pieces[:-1]])
            np.testing.assert_allclose(seg._table(t)[0], ref, rtol=0,
                                       atol=1e-13)
        s = np.linspace(0.0, bump.length, 401)
        pt = bump.eval(s)[0]
        for col, dF in ((0, lambda x: np.sin(bump.theta(x))),
                        (1, lambda x: -np.cos(bump.theta(x)))):
            np.testing.assert_allclose(
                pt[:, col] - bump.start[col], _quad_cumulative(dF, s),
                rtol=0, atol=1e-13)


def test_tilt_margin_check_can_fail(transition, monkeypatch):
    params, _ = transition
    # a negative slack demands a margin gain the tilt cannot deliver
    monkeypatch.setattr(glbend, "_TILT_SLACK", -1.0)
    with pytest.raises(ConstructionFailedError, match="margin at r ="):
        final_bending_tilt(transition, params.C2)


@pytest.mark.parametrize("which", ["bend", "corner", "tight corner"])
def test_unit_speed_residual_matches_four_call_stencil(which):
    # one point call on the joined stencil reads the four separate calls
    if which == "bend":
        prefix = initial_bend(MODEL, r1=0.5)
        curve = assemble_gamma(MODEL, prefix, synth_transition(
            MODEL, r0=0.2, theta0=prefix[1])).curve
    else:
        curve = quarter_bend_curve(1.0, 1.0, 0.4 if which == "corner" else 0.05)
    for n in (200, 1000):
        h = 1e-6
        s = np.linspace(2 * h, curve.length - 2 * h, n)
        keep = np.ones(len(s), dtype=bool)
        for c in curve.cum[1:-1]:
            keep &= np.abs(s - c) > 3 * h
        s = s[keep]
        point = lambda x: curve.eval(x)[0]
        d = (-point(s + 2 * h) + 8 * point(s + h)
             - 8 * point(s - h) + point(s - 2 * h)) / (12.0 * h)
        want = float(np.abs(np.linalg.norm(d, axis=-1) - 1.0).max())
        assert curve.unit_speed_residual(n) == want


def _model_prefix():
    return initial_bend(MODEL, r1=0.5)


def _model_transition():
    return synth_transition(MODEL, r0=0.2, theta0=_model_prefix()[1])


def _prefix_of(*segments):
    """The model prefix's angle and k_max on a hand-built curve."""
    return (Curve2D(segments), *_model_prefix()[1:])


def _parabola_transition(a2):
    """The parabola r0 + m0 t + a2 t^2 on the model transition's domain in
    place of its graph."""
    params, _ = _model_transition()
    return params, SmoothFn1D(params.tinf, [PolyPiece(
        (0.0, params.tinf), [params.r0, params.m0, a2])])


def _tilt_parabola(a2):
    """Tilt, at C2, the parabola of ``_parabola_transition``."""
    transition = _parabola_transition(a2)
    return final_bending_tilt(transition, transition[0].C2)


def _tilt_reference(transition, t_inf_pp):
    """The tilted profile by re-integration: f'' piece by piece, times the
    quintic across [cut0, t_inf''], integrated twice from (r0, m0), then
    the straight tail down to r_inf."""
    params, f = transition
    cut0 = t_inf_pp - params.delta_inf / 8.0
    P = np.polynomial.Polynomial
    x = P([0.0, 1.0])
    sq = P(_quintic_match(cut0, (1.0, 0.0, 0.0), t_inf_pp, (0.0, 0.0, 0.0)))
    val, slope = params.r0, params.m0
    pieces = []
    for piece in f.pieces:
        a, bb = piece.interval
        d2 = P(piece.coeffs).deriv(2)
        for lo, hi in ((a, min(bb, cut0)), (max(a, cut0), min(bb, t_inf_pp))):
            if hi - lo <= 1e-15:
                continue
            # in powers of (t - lo)
            base = d2(x + (lo - piece.origin))
            if lo >= cut0 - 1e-15:
                base = base * sq(x + (lo - cut0))
            d1 = base.integ(k=slope)
            fc = d1.integ(k=val)
            pieces.append(PolyPiece((lo, hi), fc.coef, origin=lo))
            val, slope = fc(hi - lo), d1(hi - lo)
    end = t_inf_pp + (val - params.r_inf) / (-slope)
    pieces.append(PolyPiece((t_inf_pp, end), [val, slope], origin=t_inf_pp))
    return SmoothFn1D(end, pieces)


def _straighten_transition(i):
    """The transition of the benchmark pool's i-th straighten bend."""
    bend = json.loads(_POOL.read_text())["straighten"]["bend"][i]
    consts = BendConstants(R0=bend["R0"], q=bend["q"])
    prefix = initial_bend(consts, r1=bend["r1"])
    return synth_transition(consts, r0=bend["r0"], theta0=prefix[1])


_TILT_CASES = {
    **{f"straighten-{i}": (lambda i=i: _straighten_transition(i), 0.0)
       for i in range(10)},
    "parabola": (lambda: _parabola_transition(24.0), 0.0),
    "model-0.7": (_model_transition, 0.7)}


@pytest.fixture(params=list(_TILT_CASES))
def tilt_case(request):
    """(transition, t_inf'') at C2 + frac (t_inf - C2)."""
    make, frac = _TILT_CASES[request.param]
    transition = make()
    params = transition[0]
    return transition, params.C2 + frac * (params.tinf - params.C2)


class TestTiltKeepsF:

    def test_matches_the_reintegrated_profile(self, tilt_case):
        transition, t_inf_pp = tilt_case
        got = final_bending_tilt(transition, t_inf_pp)
        ref = _tilt_reference(transition, t_inf_pp)
        np.testing.assert_allclose(got.b, ref.b, rtol=1e-12)
        t = np.linspace(0.0, min(got.b, ref.b), 4001)
        for g, r in zip(got.jet(t, 2), ref.jet(t, 2)):
            np.testing.assert_allclose(g, r, rtol=1e-12)

    def test_keeps_f_up_to_the_cut(self, tilt_case):
        # the re-integrating construction fails this on every case but the
        # one-piece parabola: its pieces below cut0 have their own origins
        # and differ from f's coefficients by rounding
        transition, t_inf_pp = tilt_case
        params, f = transition
        g = final_bending_tilt(transition, t_inf_pp)
        cut0 = t_inf_pp - params.delta_inf / 8.0
        kept = [p for p in f.pieces if p.interval[0] < cut0]
        assert len(g.pieces) == len(kept) + 2
        for new, old in zip(g.pieces, kept):
            assert new.interval == (old.interval[0],
                                    min(old.interval[1], cut0))
            assert new.origin == old.origin
            np.testing.assert_array_equal(new.coeffs, old.coeffs)
        t = np.linspace(0.0, cut0, 2001)[:-1]
        np.testing.assert_array_equal(g.jet(t, 3), f.jet(t, 3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: LineSeg((0.0, 1.0), (0.0, 1.0)), InvalidSpecError,
     "degenerate line segment"),
    (lambda: BumpSeg((0.0, 1.0), 0.0, 1.0, 0.0), InvalidSpecError,
     "bump needs positive length"),
    (lambda: Curve2D([]), InvalidSpecError, "need at least one segment"),
    (lambda: initial_bend(MODEL, r1=0.0), InvalidSpecError,
     "r1 must be positive and finite"),
    (lambda: replace(_model_transition()[0], C1=0.0), InvalidSpecError,
     "C1 and C2 must be positive"),
    (lambda: synth_transition(BendConstants(R0=1.0, C=1.0), r0=0.6,
                              theta0=0.1), OutOfRegimeError,
     r"need r0 in \(0, 0.5\)"),
    (lambda: synth_transition(MODEL, r0=0.2, theta0=0.0), InvalidSpecError,
     r"theta0 must lie in \(0, pi/2\)"),
    (lambda: assemble_gamma(MODEL, _prefix_of(
        LineSeg((0.0, 0.625), (0.0, 0.5))), _model_transition()),
     AssemblyError, "prefix must end in a curvature bump"),
    # a bump at r1 = 1 that runs down to r = 0.1, below r0 = 0.2 < r1/2
    (lambda: assemble_gamma(MODEL, _prefix_of(
        LineSeg((0.0, 1.25), (0.0, 1.0)),
        BumpSeg((0.0, 1.0), 0.0, 1e-3, 0.9)), _model_transition()),
     AssemblyError, "bump already below r0"),
    (lambda: assemble_gamma(MODEL, (_model_prefix()[0], 0.1,
                                    _model_prefix()[2]), _model_transition()),
     AssemblyError, "bump exit angle does not match theta0"),
    # a parabola bending up so hard that its slope is positive at C2
    (lambda: _tilt_parabola(100.0), ConstructionFailedError,
     "tilted tail slope must be negative"),
    # the start line itself, which crosses r = 0 before C2: its cut-off
    # value lies below the end value r_inf the tilted tail descends to
    (lambda: _tilt_parabola(0.0), ConstructionFailedError,
     r"already lies below f\(t_inf\)"),
    # the graph under parameters whose r_inf = 1/(2 C1) - C1 delta_inf^2/48
    # is negative: the tilted tail descends through r = 0
    (lambda: final_bending_tilt((replace(_model_transition()[0], C1=1e3),
                                 _model_transition()[1]),
                                _model_transition()[0].C2),
     TiltTooLargeError, "loses positivity"),
    (lambda: final_isotopy(SmoothFn1D(1.0, [PolyPiece((0.0, 1.0),
                                                      [1.0, 0.5])]),
                           (1.0, -1.0), [0.5]),
     InversionError, "profile must be strictly decreasing"),
    (lambda: quarter_bend_curve(1.0, 1.0, 0.0), InvalidBendError,
     "bend radius must be positive"),
    # a start line that is one number, not the pair (r0, m0)
    (lambda: final_isotopy(SmoothFn1D(1.0, [PolyPiece((0.0, 1.0),
                                                      [1.0, -0.5])]), 5.0),
     InvalidSpecError, "l_line must be two numbers"),
])
def test_argument_checks_raise_typed(call, error, message):
    with pytest.raises(error, match=message):
        call()
