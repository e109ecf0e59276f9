"""Schedule compilation, reversal, demo."""

import dataclasses
import io
import warnings

import numpy as np
import pytest

from gllab import curvature, fnspace, hypersurface, schedule
from gllab.certify import IsotopyCertificate, family_certificate
from gllab.curvature import (DoublyWarpedMetric, WarpedProduct,
                             WarpedSphereMetric, scalar_doubly_warped,
                             scalar_warped)
from gllab.errors import (CertificationFailedError, CompilationFailedError,
                          ConstructionFailedError, DemoFailedError,
                          HypothesisViolationError, InvalidSpecError)
from gllab.fnspace import (ConstPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           check_F_membership, check_U_membership,
                           check_V_membership, linear_homotopy,
                           make_double_torpedo, sample_grid)
from gllab.hypersurface import connected_sum_foliation, mixed_torpedo_via_J
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

    def test_search_without_a_tube_has_no_best_margin(self):
        # the radius-1e-6 join (b = 1.6e-6) is shorter than the cap and
        # blend of every delta the search tries (the last, 9.5e-7, needs
        # 1.9e-6), so no attempt is certified and none leaves a margin
        with pytest.raises(CompilationFailedError, match="best margin None") \
                as err:
            schedule._standardize_search(2, 4, 1e-6)
        assert err.value.best_margin is None

    def test_large_join_certifies_at_the_first_delta(self):
        # the radius-15 join: its torpedo caps are members by construction,
        # though shorter than the sampled reader's 5% end window
        delta, ends, cert = schedule._standardize_search(2, 4, 15.0)
        assert delta == 0.5 and cert.passed

    @pytest.mark.parametrize("call, error, message", [
        (lambda g0: schedule.Segment(
            "surgery", {}, schedule.MetricDescriptor("x"),
            schedule.MetricDescriptor("x"),
            IsotopyCertificate(grid="stub", min_scalar=1.0)),
         InvalidSpecError, "unknown segment kind 'surgery'"),
        (lambda g0: compile_gl_cobordism(g0.profiles[0], one_point_desc()),
         InvalidSpecError, "warped product of one or two round factors"),
        (lambda g0: compile_gl_cobordism(g0, MorseDescription(7, [
            CriticalPoint("a", 4, 0.25), CriticalPoint("b", 3, 0.75)])),
         InvalidSpecError, "well-indexed"),
        # one index at two levels
        (lambda g0: compile_gl_cobordism(g0, MorseDescription(7, [
            CriticalPoint("a", 3, 0.3), CriticalPoint("b", 3, 0.4)])),
         InvalidSpecError, "well-indexed"),
    ], ids=["segment-kind", "g0-not-a-metric", "not-well-indexed",
            "one-index-at-two-levels"])
    def test_argument_checks_raise_typed(self, g0, call, error, message):
        with pytest.raises(error, match=message):
            call(g0)

    def test_index_zero_point_is_not_a_surgery(self, g0, monkeypatch):
        # an index-0 point adds a component and has no surgery sphere; it
        # must not be built as the index-1 surgery on S^0
        def built(*args):
            raise AssertionError("a step was built for an index-0 point")
        monkeypatch.setattr(schedule, "_read_g0", built)
        monkeypatch.setattr(schedule, "_standardize_search", built)
        with pytest.raises(HypothesisViolationError, match="index-0"):
            compile_gl_cobordism(g0, one_point_desc(index=0))

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

    @pytest.mark.parametrize("metric, n, dim", [
        (round_metric(7), 5, 7), (round_doubly_warped(2, 4), 9, 7),
        # a flat cylinder, not psc: its dimension is read before its R
        (WarpedProduct(
            (1,), [SmoothFn1D(2.0, [ConstPiece((0.0, 2.0), 1.0)])]), 7, 2)],
        ids=["warped", "doubly-warped", "non-psc"])
    def test_g0_of_another_dimension_rejected(self, metric, n, dim):
        desc = MorseDescription(n, [CriticalPoint("a", 2, 0.5)])
        message = f"dimension {dim} but the description has n = {n}"
        with pytest.raises(InvalidSpecError, match=message):
            compile_gl_cobordism(metric, desc)

    def test_nan_g0_reports_no_margin(self, nan_profile):
        g0 = WarpedSphereMetric(7, nan_profile(*round_metric(7).profiles),
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
        assert attach.start.params["tube_u"] == attach.start.params["tube_v"]

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

    @staticmethod
    def grid_certificate(monkeypatch, fill, rows):
        """The homotopy certificate of a (lambda, t) grid of R that reads
        ``fill`` but for ``rows`` (lambda index -> leading entries), and the
        grid's t-samples."""
        g = round_metric(7)
        t = sample_grid(g.b, 256, interior=True)
        values = np.full((11, t.size), fill)
        for i, row in rows.items():
            values[i, :len(row)] = row
        monkeypatch.setattr(schedule, "_scalar",
                            lambda dims, A, B, C: values.ravel())
        return schedule._certify_homotopy([6], g.profiles, g.profiles), t

    def test_nan_sample_fails_the_homotopy(self, monkeypatch):
        # a NaN after the first lambda must not be dropped by the minimum
        cert, t = self.grid_certificate(
            monkeypatch, 42.0, {5: [42.0, 42.0, 42.0, np.nan]})
        assert np.isnan(cert.min_scalar)
        assert not cert.passed
        assert cert.extra == {"argmin_lambda": 0.5, "argmin_t": t[3]}

    def test_homotopy_certificate_says_where_its_minimum_is(
            self, monkeypatch):
        # ties go to the first lambda, then to the first t
        cert, t = self.grid_certificate(
            monkeypatch, 9.0, {3: [5.0, 1.0, 1.0], 7: [1.0, 2.0, 3.0]})
        assert cert.min_scalar == 1.0
        assert cert.extra == {"argmin_lambda": np.linspace(0, 1, 11)[3],
                              "argmin_t": t[1]}

    def test_nan_end_is_skipped_where_its_weight_is_zero(self, nan_profile):
        # lambda = 0 gives the end no weight, so its NaN jet does not enter
        # that row (a LinearCombination skips it too): the least sample is
        # the first NaN, at lambda = 0.1, as on the per-lambda path
        g = round_metric(7)
        end = nan_profile(g.profiles[0])
        t = sample_grid(g.b, 256, interior=True)
        lams = np.linspace(0.0, 1.0, 11)
        R = np.array([scalar_warped(WarpedSphereMetric(
            7, linear_homotopy(g.profiles[0], end, lam), open_profile=True),
            t) for lam in lams])
        want = family_certificate(
            R, {"lambda": lams[:, None], "t": t}, "profile homotopy",
            f"11 x {t.size} (lambda, t) interior grid")
        cert = schedule._certify_homotopy([6], g.profiles, [end])
        assert np.isfinite(R[0]).all() and np.isnan(R[1:]).all()
        assert np.isnan(cert.min_scalar)
        assert cert.extra == want.extra == {"argmin_lambda": 0.1,
                                            "argmin_t": t[0]}
        assert (cert.grid, cert.label) == (want.grid, want.label)

    def test_homotopy_evaluates_each_end_profile_once(self, counted):
        g = round_doubly_warped(2, 4)
        ends = [counted(f) for f in
                (*g.profiles, *schedule._mixed_torpedo_profiles(0.25, g.b))]
        cert = schedule._certify_homotopy([2, 4], ends[:2], ends[2:])
        assert cert.passed
        assert [f.orders for f in ends] == [[2]] * 4

    @pytest.mark.parametrize("dims, delta", [
        ([2, 4], 0.25), ([1, 5], 0.125), ([3, 3], 0.5), ([6], 0.5),
        ([4], 0.25)], ids=["2-4-0.25", "1-5-0.125", "3-3-0.5", "6-0.5",
                           "4-0.25"])
    def test_homotopy_matches_the_per_lambda_path(self, counted, monkeypatch,
                                                  dims, delta):
        # the certificate of the shared end jets is, bit for bit, the one
        # of evaluating each lambda's LinearCombination profiles, for the
        # standardization (doubly warped, round -> mixed torpedo) and the
        # demo's f-to-torpedo family (warped, round f -> double torpedo);
        # each end profile is read once, to order 2
        if len(dims) == 2:
            g = round_doubly_warped(*dims)
            starts = g.profiles
            ends = schedule._mixed_torpedo_profiles(delta, g.b)
            scalar = scalar_doubly_warped

            def metric(fs):
                return DoublyWarpedMetric(*dims, *fs, open_profile=True)
        else:
            g = round_metric(dims[0] + 1)
            starts, ends = g.profiles, [make_double_torpedo(delta, g.b)]
            scalar = scalar_warped

            def metric(fs):
                return WarpedSphereMetric(dims[0] + 1, *fs, open_profile=True)
        t = sample_grid(g.b, 256, interior=True)
        lams = np.linspace(0.0, 1.0, 11)
        R = np.array([scalar(metric([linear_homotopy(f0, f1, lam)
                                     for f0, f1 in zip(starts, ends)]), t)
                      for lam in lams])
        i, j = np.unravel_index(np.argmin(R), R.shape)
        grids = []

        def recorded(values, *args, **kwargs):
            grids.append(values)
            return family_certificate(values, *args, **kwargs)
        monkeypatch.setattr(schedule, "family_certificate", recorded)
        read = [counted(f) for f in (*starts, *ends)]
        cert = schedule._certify_homotopy(dims, read[:len(dims)],
                                          read[len(dims):])
        assert len(grids) == 1 and np.array_equal(grids[0], R)
        assert cert.min_scalar == R.min()
        assert cert.extra == {"argmin_lambda": lams[i], "argmin_t": t[j]}
        assert [f.orders for f in read] == [[2]] * (2 * len(dims))

    def test_schedule_json(self, g0):
        s = compile_gl_cobordism(g0, one_point_desc())
        blob = s.dumps()
        assert '"handle-attach"' in blob


class TestMembersByConstruction:
    """The round, torpedo and leaf profiles the program builds are members
    of F, U and V as made; only profiles from outside are sampled."""

    def test_round_profiles_pass_the_sampled_reader(self):
        rng = np.random.default_rng(52)
        for radius in 10.0 ** rng.uniform(-1.0, 1.0, 12):
            n, p = int(rng.integers(3, 10)), int(rng.integers(1, 4))
            assert check_F_membership(
                round_metric(n, radius).profiles[0]).passed, radius
            u, v = round_doubly_warped(p, 3, radius).profiles
            assert check_U_membership(u).passed, radius
            assert check_V_membership(v).passed, radius

    def test_mixed_torpedoes_pass_the_sampled_reader(self):
        # every delta the standardization tries on seeded round joins,
        # where the reader's 5% end window lies inside cap + blend
        rng = np.random.default_rng(52)
        tried = 0
        for b in 10.0 ** rng.uniform(-1.0, 1.0, 8) * np.pi / 2.0:
            for delta in 0.5 * 0.5 ** np.arange(20):
                if not 0.05 * b < TorpedoSpec(delta).flat_from < b:
                    continue
                u, v = schedule._mixed_torpedo_profiles(delta, b)
                assert check_U_membership(u).passed, (b, delta)
                assert check_V_membership(v).passed, (b, delta)
                tried += 1
        assert tried >= 8

    def test_only_the_public_constructors_sample_membership(
            self, monkeypatch):
        calls = []
        for mod in (curvature, fnspace):
            def counted(f, space, _real=mod._check_membership):
                calls.append(space)
                return _real(f, space)
            monkeypatch.setattr(mod, "_check_membership", counted)
        # every memo is empty (conftest), so the demo builds its geometry
        two_surgery_demo(7, 2)
        compile_gl_cobordism(round_metric(7), one_point_desc())
        assert calls == []
        (f,), (u, v) = (round_metric(7).profiles,
                        round_doubly_warped(2, 4).profiles)
        WarpedSphereMetric(7, f)
        assert calls == ["F"]
        DoublyWarpedMetric(2, 4, u, v)
        assert calls == ["F", "U", "V"]
        WarpedSphereMetric(7, f, open_profile=True)
        DoublyWarpedMetric(2, 4, u, v, open_profile=True)
        assert calls == ["F", "U", "V"]


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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_dual_index_decides_admissibility(self, k):
        # the dual of an index-k handle has index n + 1 - k
        n = 7
        desc = MorseDescription(n, [CriticalPoint("w", k, 0.5)])
        empty = schedule.Schedule([])
        if n + 1 - k <= n - 2:
            assert compile_reverse(empty, desc)[1] == {
                "identity": True, "max_profile_deviation": 0.0}
        else:
            with pytest.raises(HypothesisViolationError,
                               match="reversed description is not "
                                     "admissible"):
                compile_reverse(empty, desc)

    def test_every_standardize_segment_is_checked(self, two_handles):
        desc, s = two_handles
        stds = [seg for seg in s.segments if seg.kind == "standardize"]
        assert len(stds) == 2
        stds[1].end.params["tube_u"] = 99.0
        _, rep = compile_reverse(s, desc)
        assert not rep["identity"]
        assert rep["max_profile_deviation"] > 1e-4


@pytest.fixture()
def two_handles():
    """Index-3 a at 0.3 and index-4 b at 0.7 over the radius-1.5 round
    7-sphere, compiled."""
    desc = MorseDescription(7, [CriticalPoint("a", 3, 0.3),
                                CriticalPoint("b", 4, 0.7)], {(4, 3): [[1]]})
    return desc, compile_gl_cobordism(round_metric(7, 1.5), desc)


class TestDescriptors:
    def test_transition_smoothing_ends_where_it_starts(self, two_handles):
        _, s = two_handles
        (joint,) = [seg for seg in s.segments
                    if seg.kind == "transition-smoothing"]
        assert joint.end is joint.start
        for seg in s.segments:
            for d in (seg.start, seg.end):
                assert list(d.to_json()) == ["kind", "params"]


# per-leaf minima of the demo's stage-6 foliation (p, q) = (2, 4), (1, 3)
_FOLIATION_MIN = {
    (7, 2): [16832.17263021997, 5845.658625240447, 2949.716987194416,
             1782.011418119267, 1198.3486391195863, 862.2846115558535,
             651.0675599279656, 515.6536102215638, 428.7241247699059,
             374.1309134407287, 341.60709947764815, 288.058649601344,
             262.13109169358574, 230.210817238842, *[224.0] * 7],
    (5, 1): [8000.086315109985, 2768.4210081219535, 1389.4140491527637,
             833.3824000065638, 555.4734885348623, 395.3892193581737,
             294.7408805556988, 230.33585423459687, 189.17932592948924,
             163.55935801516637, 148.55354973882405, 128.0293248006822,
             117.44449607557895, 99.52875564062877, *[96.0] * 7],
}


class TestDemo:
    @pytest.mark.parametrize("n, p, radius", [
        (6, 1, 0.15), (7, 2, 0.15), (6, 1, 15.0), (6, 1, 0.05),
        (6, 1, 30.0), (6, 1, 40.0), (6, 1, 100.0)])
    def test_small_and_large_radii_pass(self, n, p, radius):
        # caps shorter than the sampled reader's 5% end window, which the
        # removed gates refused (exit 2, or an exhausted search at 15),
        # and from 30 on a tail torpedo of r_inf < 1e-6, whose junctions
        # are read at its own f'' scale 1/r_inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert two_surgery_demo(n, p, radius).passed

    def test_tail_torpedo_failure_raises_cold_and_warm(self,
                                                       c2_tampered_blend):
        # at radius 30 the bend's tail torpedo, its blend tampered, fails
        # its blend/tube C2 junction inside the torpedo's memo; nothing is
        # stored, so the second, warm call raises the same error
        message = ("tail torpedo of r_inf = 8.06617e-07 cannot be built: "
                   "junction at t=1.58379e-06 fails C2 contract: ")
        for _ in range(2):
            with pytest.raises(ConstructionFailedError) as err:
                two_surgery_demo(6, 1, 30.0)
            assert str(err.value).startswith(message)
            # the memo holds the demo's other torpedoes, not the tail's
            heads = fnspace._torpedo_head.entries
            assert heads and all(key[0] > 1e-5 for key in heads)

    def test_smallest_admissible(self):
        rep = two_surgery_demo(5, 1)
        assert isinstance(rep, DemoReport)
        assert rep.passed
        assert all(st["certificate"].min_scalar > 0 for st in rep.stages)

    def test_q_precondition(self):
        with pytest.raises(HypothesisViolationError,
                           match="q = n - p - 1 >= 3, got 2"):
            two_surgery_demo(7, 4)
        with pytest.raises(InvalidSpecError, match="need p >= 1"):
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

    @pytest.mark.parametrize("n, p", [(7, 2), (5, 1)])
    def test_foliation_stage_is_pinned(self, n, p):
        # recorded when the corner still entered as a curve: passing its
        # (c, R) as numbers moves no bit of the stage-6 certificate
        cert = two_surgery_demo(n, p).stages[5]["certificate"]
        assert cert.to_json() == {
            "grid": "21 leaves x 401 samples",
            "min_scalar": min(_FOLIATION_MIN[n, p]),
            "tolerance": 0.0,
            "label": "connected-sum foliation",
            "passed": True,
            "extra": {"argmin_nu": 0.7000000000000001,
                      "argmin_t": 0.512597320457056,
                      "per_leaf_min": _FOLIATION_MIN[n, p]}}

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
        # every stage's sample at its recorded argmin is its minimum: each
        # stage's grid (a family's row at its argmin) is evaluated again
        n, p, q = 7, 2, 4
        certs = {st["id"]: st["certificate"] for st in rep.stages}
        ex = {k: cert.extra for k, cert in certs.items()}
        delta = end.params["delta"]
        g, gd = round_metric(n, 1.0), round_doubly_warped(p, q)
        rows = {}
        t = sample_grid(g.b, 512, interior=True)
        rows["round"] = ("t", t, scalar_warped(g, t))
        lam = ex["standardize"]["argmin_lambda"]
        u1, v1 = schedule._mixed_torpedo_profiles(delta, gd.b)
        t = sample_grid(gd.b, 256, interior=True)
        rows["standardize"] = ("t", t, scalar_doubly_warped(
            DoublyWarpedMetric(p, q, *map(linear_homotopy, gd.profiles,
                                          (u1, v1), (lam, lam)),
                               open_profile=True), t))
        for stage, incoming, fiber in (("surgery-1", "standardize", q),
                                       ("surgery-2", "surgery-1", q - 1)):
            bend = schedule._handle_attach(certs[incoming], fiber)
            s, bt, _r, _k, _theta, margin = bend.margins(
                int(certs[stage].grid.split()[0]))
            assert bt[s == ex[stage]["argmin_s"]][0] == ex[stage]["argmin_t"]
            rows[stage] = ("s", s, margin)
        lam = ex["f-to-torpedo"]["argmin_lambda"]
        tor = make_double_torpedo(delta, g.b)
        t = sample_grid(g.b, 256, interior=True)
        rows["f-to-torpedo"] = ("t", t, scalar_warped(WarpedSphereMetric(
            n, linear_homotopy(*g.profiles, tor, lam), open_profile=True), t))
        cap = min(delta, 0.25)
        family, _cert = connected_sum_foliation(
            1.0, 0.4, tau=0.05, nu_grid=np.linspace(0.0, 1.0, 21), eps=cap,
            delta_p=cap, p=p, q=q)
        j = family.nu_grid.index(ex["foliation"]["argmin_nu"])
        assert ex["foliation"]["per_leaf_min"][j] == certs[
            "foliation"].min_scalar
        u, v = family.leaves[j]
        t = np.linspace(0.0, family.curves[j].length,
                        hypersurface._LEAF_SAMPLES)
        rows["foliation"] = ("t", t, scalar_doubly_warped(
            DoublyWarpedMetric(p, q, u, v, open_profile=True), t))
        m, _rep = mixed_torpedo_via_J(delta, delta, c1=2.0, c2=2.0,
                                      bend_radius=0.5, p=p, q=q)
        t = sample_grid(m.b, 256, interior=True)
        rows["mtor-endpoint"] = ("t", t, scalar_doubly_warped(m, t))
        assert list(rows) == ids
        for stage, (axis, x, R) in rows.items():
            i = np.flatnonzero(x == ex[stage][f"argmin_{axis}"])[0]
            assert R[i] == certs[stage].min_scalar, stage

    @pytest.mark.parametrize("deviation", [1.0, 1e-9, np.nan])
    def test_pullback_deviation_fails_the_mtor_endpoint(self, monkeypatch,
                                                        deviation):
        real = schedule.mixed_torpedo_via_J

        def mixed_torpedo_via_J(*args, **kw):
            metric, rep = real(*args, **kw)
            return metric, {**rep, "max_deviation": deviation}

        monkeypatch.setattr(schedule, "mixed_torpedo_via_J",
                            mixed_torpedo_via_J)
        with pytest.raises(DemoFailedError, match="pullback deviation") as err:
            two_surgery_demo(7, 2)
        assert err.value.stage == "mtor-endpoint"
        assert err.value.best_margin is None
