"""Schedule compilation, reversal, demo."""

import dataclasses
import io

import numpy as np
import pytest

from gllab import schedule
from gllab.certify import IsotopyCertificate
from gllab.curvature import (DoublyWarpedMetric, WarpedSphereMetric,
                             scalar_doubly_warped)
from gllab.errors import (CertificationFailedError, CompilationFailedError,
                          DemoFailedError, HypothesisViolationError,
                          InvalidSpecError)
from gllab.fnspace import (LinearCombination, SinePiece, SmoothFn1D,
                           linear_homotopy, sample_grid)
from gllab.morsealg import CriticalPoint, MorseDescription
from gllab.schedule import (DemoReport, compile_gl_cobordism,
                            compile_reverse, round_doubly_warped,
                            round_metric, two_surgery_demo,
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

    def test_input_error_inside_an_attempt_propagates(self, monkeypatch):
        # only the torpedo layout's InvalidSpecError means "no tube left";
        # one from the homotopy certificate is not read as "halve delta"
        def broken(*args):
            raise InvalidSpecError("stub")
        monkeypatch.setattr(schedule, "_certify_homotopy", broken)
        with pytest.raises(InvalidSpecError, match="stub"):
            schedule._standardize_search(2, 4, 1.0)

    def test_empty_desc_single_product(self, g0):
        s = compile_gl_cobordism(g0, MorseDescription(7, []))
        assert [seg.kind for seg in s.segments] == ["product-extension"]
        assert s.min_scalar > 0

    @pytest.mark.parametrize("metric, n", [
        (round_metric(7), 5), (round_doubly_warped(2, 4), 9)],
        ids=["warped", "doubly-warped"])
    def test_g0_of_another_dimension_rejected(self, metric, n):
        desc = MorseDescription(n, [CriticalPoint("a", 2, 0.5)])
        message = f"dimension 7 but the description has n = {n}"
        with pytest.raises(InvalidSpecError, match=message):
            compile_gl_cobordism(metric, desc)

    def test_nan_g0_reports_no_margin(self):
        f = round_metric(7).f
        g0 = WarpedSphereMetric(7, LinearCombination([(np.nan, f)]),
                                open_profile=True)
        with pytest.raises(CertificationFailedError,
                           match="g0 is not certified psc") as err:
            compile_gl_cobordism(g0, one_point_desc())
        assert err.value.best_margin is None

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

    def test_homotopy_certificate_says_where_its_minimum_is(self):
        # ties go to the first lambda, then to the first t
        R = {0.3: [5.0, 1.0, 1.0], 0.7: [1.0, 2.0, 3.0]}
        cert = schedule._homotopy_certificate(
            lambda lam: round(float(lam), 12),
            lambda lam, t: np.array(R.get(lam, [9.0, 9.0, 9.0])),
            np.array([0.1, 0.2, 0.3]))
        assert cert.min_scalar == 1.0
        assert cert.extra == {"argmin_lambda": np.linspace(0, 1, 11)[3],
                              "argmin_t": 0.2}

    def test_homotopy_evaluates_each_end_profile_once(self, counted):
        g = round_doubly_warped(2, 4)
        ends = [counted(f) for f in
                (g.u, g.v, *schedule._mixed_torpedo_profiles(0.25, 0.25, g.b))]
        cert = schedule._certify_homotopy(2, 4, *ends)
        assert cert.passed
        assert [f.orders for f in ends] == [[2]] * 4

    @pytest.mark.parametrize("p, q, delta", [(2, 4, 0.25), (1, 5, 0.125),
                                             (3, 3, 0.5)])
    def test_homotopy_matches_the_per_lambda_path(self, p, q, delta):
        # the certificate of the shared end jets is, bit for bit, the one
        # of evaluating each lambda's LinearCombination profiles
        g = round_doubly_warped(p, q)
        u1, v1 = schedule._mixed_torpedo_profiles(delta, delta, g.b)
        t = sample_grid(g.b, 256, interior=True)
        lams = np.linspace(0.0, 1.0, 11)
        R = np.array([scalar_doubly_warped(DoublyWarpedMetric(
            p, q, linear_homotopy(g.u, u1, lam), linear_homotopy(g.v, v1, lam),
            open_profile=True), t) for lam in lams])
        i, j = np.unravel_index(np.argmin(R), R.shape)
        cert = schedule._certify_homotopy(p, q, g.u, g.v, u1, v1)
        assert cert.min_scalar == R.min()
        assert cert.extra == {"argmin_lambda": lams[i], "argmin_t": t[j]}

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

    @pytest.mark.parametrize("tamper", [
        {"eps": 0.125}, {"tube_u": 99.0}, {"b": 5.0},
        {"eps": 0.125, "tube_u": 3.0}], ids=["eps", "tube_u", "b",
                                             "eps_and_tube_u"])
    def test_tampered_standard_form_breaks_identity(self, g0, tamper):
        desc = one_point_desc()
        s = compile_gl_cobordism(g0, desc)
        std = next(seg for seg in s.segments if seg.kind == "standardize")
        std.end.params.update(tamper)
        _, rep = compile_reverse(s, desc)
        assert not rep["identity"]
        assert rep["max_profile_deviation"] > 1e-4

    def test_nan_deviation_breaks_identity(self, g0):
        # a NaN tube must not be dropped by the maximum
        desc = one_point_desc()
        s = compile_gl_cobordism(g0, desc)
        std = next(seg for seg in s.segments if seg.kind == "standardize")
        std.end.params["tube_v"] = np.nan
        _, rep = compile_reverse(s, desc)
        assert not rep["identity"]
        assert np.isnan(rep["max_profile_deviation"])

    def test_domain_without_room_for_a_cap_raises(self, g0):
        desc = one_point_desc()
        s = compile_gl_cobordism(g0, desc)
        std = next(seg for seg in s.segments if seg.kind == "standardize")
        std.end.params["b"] = 0.1
        with pytest.raises(InvalidSpecError, match="domain too short"):
            compile_reverse(s, desc)

    def test_empty_trivial(self, g0):
        s = compile_gl_cobordism(g0, MorseDescription(7, []))
        _, rep = compile_reverse(s, MorseDescription(7, []))
        assert rep["identity"]

    def test_reverse_inadmissible_rejected(self, g0):
        desc = one_point_desc(index=2)      # reverses to index 6 > n-2
        s = compile_gl_cobordism(g0, desc)
        with pytest.raises(HypothesisViolationError):
            compile_reverse(s, desc)


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
        assert err.value.best_margin == -1.0
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
        for st in rep.stages:
            if st["id"] in ("standardize", "f-to-torpedo"):
                ex = st["certificate"].extra
                assert sorted(ex) == ["argmin_lambda", "argmin_t"]
                assert 0.0 <= ex["argmin_lambda"] <= 1.0
            if st["id"] in ("surgery-1", "surgery-2"):
                ex = st["certificate"].extra
                assert sorted(ex) == ["argmin_s", "argmin_t"]
                assert ex["argmin_s"] > 0.0 and ex["argmin_t"] >= 0.0
        start, end = rep.endpoints
        assert start.kind == "warped"
        assert end.kind == "post-surgery"
        blob = rep.to_json()
        assert blob["passed"] is True
