"""Schedule compilation, reversal, smoothing windows, demo."""

import dataclasses
import io

import numpy as np
import pytest

from gllab import schedule
from gllab.certify import IsotopyCertificate
from gllab.curvature import WarpedSphereMetric
from gllab.errors import (CertificationFailedError, CompilationFailedError,
                          DemoFailedError, HypothesisViolationError,
                          InvalidSpecError, InvalidWindowError)
from gllab.fnspace import LinearCombination, SinePiece, SmoothFn1D, reflect
from gllab.morsealg import CriticalPoint, MorseDescription
from gllab.schedule import (DemoReport, compile_gl_cobordism,
                            compile_reverse, round_doubly_warped,
                            round_metric, smooth_YsYt, two_surgery_demo,
                            write_schedule_csv)


@pytest.fixture(scope="module")
def g0():
    return round_metric(7, 1.0)


def one_point_desc(index=3):
    return MorseDescription(7, [CriticalPoint("w", index, 0.5)])


class TestCompile:
    def test_exhausted_standardize_search_reports_best_margin(
            self, monkeypatch):
        monkeypatch.setattr(schedule, "_STANDARDIZE_BUDGET", 1)
        monkeypatch.setattr(
            schedule, "_certify_homotopy",
            lambda *args: IsotopyCertificate(grid="stub", min_scalar=-0.5))
        with pytest.raises(CompilationFailedError) as err:
            schedule._standardize_search(2, 4, 1.0)
        assert err.value.best_margin == -0.5

    def test_empty_desc_single_product(self, g0):
        s = compile_gl_cobordism(g0, MorseDescription(7, []))
        assert [seg.kind for seg in s.segments] == ["product-extension"]
        assert s.min_scalar > 0

    def test_one_point_three_segments(self, g0):
        s = compile_gl_cobordism(g0, one_point_desc())
        assert [seg.kind for seg in s.segments] == \
            ["product-extension", "standardize", "handle-attach"]
        assert s.min_scalar > 0
        # chaining: descriptors match end-to-start
        for a, b in zip(s.segments, s.segments[1:]):
            assert a.end == b.start

    def test_non_psc_g0_rejected(self):
        b = np.pi / 3
        bad = WarpedSphereMetric(
            7, SmoothFn1D(b, [SinePiece((0.0, b), 0.5, 3.0)]),
            open_profile=True)
        with pytest.raises(CertificationFailedError, match="not certified"):
            compile_gl_cobordism(bad, one_point_desc())

    def test_top_index_rejected(self, g0):
        with pytest.raises(HypothesisViolationError):
            compile_gl_cobordism(g0, MorseDescription(
                7, [CriticalPoint("x", 6, 0.5)]))

    def test_not_well_indexed_rejected(self, g0):
        desc = MorseDescription(7, [CriticalPoint("a", 4, 0.3),
                                    CriticalPoint("b", 3, 0.7)])
        with pytest.raises(InvalidSpecError):
            compile_gl_cobordism(g0, desc)

    def test_two_points_with_transition_smoothing(self, g0):
        desc = MorseDescription(7, [CriticalPoint("a", 3, 0.3),
                                    CriticalPoint("b", 4, 0.7)],
                                {(4, 3): [[1]]})
        s = compile_gl_cobordism(g0, desc)
        kinds = [seg.kind for seg in s.segments]
        assert kinds.count("handle-attach") == 2
        assert "transition-smoothing" in kinds

    def test_round_dw_metric_accepted(self):
        g = round_doubly_warped(2, 4, 1.0)
        s = compile_gl_cobordism(g, one_point_desc())
        assert s.min_scalar > 0

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf])
    @pytest.mark.parametrize("build", [lambda r: round_metric(7, r),
                                       lambda r: round_doubly_warped(2, 3, r)])
    def test_round_builders_reject_bad_radius(self, build, radius):
        with pytest.raises(InvalidSpecError, match="radius"):
            build(radius)

    def test_csv(self, g0):
        s = compile_gl_cobordism(g0, one_point_desc())
        buf = io.StringIO()
        write_schedule_csv(s, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "index,kind,min_scalar"
        assert len(lines) == 4

    def test_mixed_torpedo_tubes_equal_when_eps_is_delta(self):
        desc = one_point_desc()
        s = compile_gl_cobordism(round_metric(7, 1.5), desc)
        std = next(seg for seg in s.segments if seg.kind == "standardize")
        pr = std.end.params
        assert pr["eps"] == pr["delta"]
        assert pr["tube_u"] == pr["tube_v"] > 0
        attach = next(seg for seg in s.segments if seg.kind == "handle-attach")
        tube_u, tube_v = attach.parameters["tube_lengths"]
        assert tube_u == tube_v
        _, rep = compile_reverse(s, desc)
        assert rep["tube_rescale"][0] == rep["tube_rescale"][1]

    def test_broken_chaining_rejected(self, g0):
        segs = compile_gl_cobordism(g0, one_point_desc()).segments
        std = segs[1]
        params = dict(std.start.params, n=8)
        tampered = dataclasses.replace(
            std, start=dataclasses.replace(std.start, params=params))
        with pytest.raises(InvalidSpecError, match="chaining broken"):
            schedule.Schedule([segs[0], tampered, segs[2]])

    def test_standardize_halves_delta_when_no_tube_is_left(self):
        # the round join domain is 0.55 pi/2 = 0.864, shorter than the cap
        # and blend of delta = 0.5 (0.982), so the search moves on to 0.25
        s = compile_gl_cobordism(round_metric(7, 0.55), one_point_desc())
        std = s.segments[1]
        assert std.parameters == {"delta": 0.25, "eps": 0.25}
        assert std.end.params["tube_u"] > 0

    def test_failing_certificate_rejected(self, g0):
        segs = compile_gl_cobordism(g0, one_point_desc()).segments
        failed = dataclasses.replace(
            segs[2], certificate=IsotopyCertificate(grid="stub",
                                                    min_scalar=-1.0))
        with pytest.raises(CertificationFailedError,
                           match="failing certificates"):
            schedule.Schedule([segs[0], segs[1], failed])

    def test_nan_sample_fails_the_homotopy(self):
        # a NaN after the first lambda must not be dropped by the minimum
        cert = schedule._homotopy_certificate(
            lambda lam: lam,
            lambda lam, t: np.full(t.shape, np.nan if lam == 0.5 else 42.0),
            np.linspace(0.0, 1.0, 5))
        assert np.isnan(cert.min_scalar)
        assert not cert.passed

    def test_schedule_json(self, g0):
        s = compile_gl_cobordism(g0, one_point_desc())
        blob = s.dumps()
        assert '"handle-attach"' in blob


class TestReverse:
    def test_round_trip_identity_report(self, g0):
        desc = one_point_desc()
        s = compile_gl_cobordism(g0, desc)
        rs, rep = compile_reverse(s, desc)
        assert rep["identity"]
        assert rep["max_profile_deviation"] < 1e-8
        assert len(rs.segments) == len(s.segments)
        assert rs.segments[0].start == s.segments[-1].end

    @pytest.mark.parametrize("tamper", ["scaled", "unreflected"])
    def test_tampered_standard_form_breaks_identity(self, g0, monkeypatch,
                                                     tamper):
        desc = one_point_desc()
        s = compile_gl_cobordism(g0, desc)
        mixed = schedule._mixed_torpedo_profiles

        def profiles(eps, delta, b):
            u, v = mixed(eps, delta, b)
            # reflecting u again leaves it closing at t = 0, like v
            return (LinearCombination([(1.001, u)]) if tamper == "scaled"
                    else reflect(u)), v

        monkeypatch.setattr(schedule, "_mixed_torpedo_profiles", profiles)
        _, rep = compile_reverse(s, desc)
        assert not rep["identity"]
        assert rep["max_profile_deviation"] > 1e-4

    def test_nan_deviation_breaks_identity(self, g0, monkeypatch):
        # a NaN in the second comparison (v against the reversed u) must
        # not be dropped by the maximum
        desc = one_point_desc()
        s = compile_gl_cobordism(g0, desc)
        mixed = schedule._mixed_torpedo_profiles
        calls = []

        def profiles(eps, delta, b):
            u, v = mixed(eps, delta, b)
            calls.append(b)
            return u, (LinearCombination([(np.nan, v)]) if len(calls) == 1
                       else v)

        monkeypatch.setattr(schedule, "_mixed_torpedo_profiles", profiles)
        _, rep = compile_reverse(s, desc)
        assert not rep["identity"]
        assert np.isnan(rep["max_profile_deviation"])

    def test_empty_trivial(self, g0):
        s = compile_gl_cobordism(g0, MorseDescription(7, []))
        _, rep = compile_reverse(s, MorseDescription(7, []))
        assert rep["identity"]

    def test_reverse_inadmissible_rejected(self, g0):
        desc = one_point_desc(index=2)      # reverses to index 6 > n-2
        s = compile_gl_cobordism(g0, desc)
        with pytest.raises(HypothesisViolationError):
            compile_reverse(s, desc)


class TestSmoothing:
    def test_identity_on_constant(self):
        Y1 = lambda x: np.ones_like(np.asarray(x, dtype=float))
        Ysp, Ytp = smooth_YsYt(Y1, Y1, 1.0, 0.5, 0.2)
        x = np.linspace(0.0, 1.5, 301)
        assert np.allclose(Ysp(x), 1.0)
        assert np.allclose(Ytp(x), 1.0)

    def test_bands(self):
        Y = lambda x: 1.0 + 0.3 * np.sin(3.0 * np.asarray(x, dtype=float))
        Yp, _ = smooth_YsYt(Y, Y, 1.0, 0.5, 0.2)
        x = np.linspace(0.0, 1.5, 601)
        assert np.allclose(Yp(x[x <= 0.2]), 1.0)
        assert np.allclose(Yp(x[x >= 0.5]), Y(x[x >= 0.5]))
        # deviation compactly supported in [0, eps2]
        assert np.allclose((Yp(x) - Y(x))[x > 0.5], 0.0)

    def test_blend_is_c2(self):
        Y = lambda x: 1.0 + 0.3 * np.sin(3.0 * np.asarray(x, dtype=float))
        Yp, _ = smooth_YsYt(Y, Y, 1.0, 0.5, 0.2)
        h = 1e-4
        for x0 in (0.2, 0.5):
            for side in (-1.0, 1.0):
                a = x0 + side * 2 * h
                d2_in = (Yp(a + h) - 2 * Yp(a) + Yp(a - h)) / h ** 2
                b = x0 - side * 2 * h
                d2_out = (Yp(b + h) - 2 * Yp(b) + Yp(b - h)) / h ** 2
                # second derivative stays bounded across the junction
                assert abs(d2_in - d2_out) < 10.0

    def test_window_order_enforced(self):
        Y1 = lambda x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(InvalidWindowError):
            smooth_YsYt(Y1, Y1, 0.5, 1.0, 0.2)
        with pytest.raises(InvalidWindowError):
            smooth_YsYt(Y1, Y1, 1.0, 0.5, 0.0)


class TestDemo:
    def test_smallest_admissible(self):
        rep = two_surgery_demo(5, 1)
        assert isinstance(rep, DemoReport)
        assert rep.passed
        assert all(st["certificate"].min_scalar > 0 for st in rep.stages)

    def test_q_precondition(self):
        with pytest.raises(HypothesisViolationError):
            two_surgery_demo(7, 4)
        with pytest.raises(InvalidSpecError):
            two_surgery_demo(7, 0)

    def test_failing_stage_is_named(self, monkeypatch):
        class FailedBend:
            certificate = IsotopyCertificate(grid="stub", min_scalar=-1.0)
        real = schedule._handle_attach
        fibers = []

        def handle_attach(cert, q):
            # the compiler's first handle is real; the demo's own fails
            fibers.append(q)
            return real(cert, q) if len(fibers) == 1 else FailedBend()

        monkeypatch.setattr(schedule, "_handle_attach", handle_attach)
        with pytest.raises(DemoFailedError) as err:
            two_surgery_demo(5, 1)
        assert err.value.stage == "surgery-2"
        assert fibers == [3, 2]

    @pytest.mark.parametrize("n, p", [(7, 2), (5, 1)])
    def test_first_stages_are_the_compiled_handle(self, monkeypatch, n, p):
        compiled = compile_gl_cobordism(
            round_metric(n, 1.0),
            MorseDescription(n, [CriticalPoint("w", p + 1, 0.5)]))
        r0s = []
        real = schedule.BendConstants

        def bend_constants(**kw):
            r0s.append(kw["R0"])
            return real(**kw)

        monkeypatch.setattr(schedule, "BendConstants", bend_constants)
        rep = two_surgery_demo(n, p)
        firsts = [st["certificate"].to_json() for st in rep.stages[:3]]
        assert firsts == [seg.certificate.to_json()
                          for seg in compiled.segments]
        assert rep.endpoints[0] == compiled.segments[0].start
        # stage 4 shares the surgery-1 margin over the fiber S^(q-1)
        q = n - p - 1
        assert r0s[-1] == rep.stages[2]["certificate"].min_scalar / (
            2.0 * (q - 1))

    def test_stage_ids_and_endpoints(self):
        rep = two_surgery_demo(7, 2)
        ids = [s["id"] for s in rep.stages]
        assert ids == ["round", "standardize", "surgery-1", "surgery-2",
                       "f-to-torpedo", "foliation", "mtor-endpoint"]
        start, end = rep.endpoints
        assert start.kind == "warped"
        assert end.kind == "post-surgery"
        blob = rep.to_json()
        assert blob["passed"] is True
