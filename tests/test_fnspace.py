"""Profile space: pieces, C^2 gluing, torpedoes, membership checkers."""

import functools
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gllab.fnspace as fnspace
from gllab import schedule
from gllab.errors import (ConstructionFailedError, DomainMismatchError,
                          InvalidSpecError)
from gllab.fnspace import (ConstPiece, LinearCombination, PolyPiece,
                           ReflectPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           _torpedo_on, check_F_membership, check_U_membership,
                           check_V_membership, linear_homotopy,
                           make_double_torpedo, make_torpedo, reflect,
                           sample_grid, write_profile_csv)
from gllab.glbend import (BendConstants, final_bending_tilt, initial_bend,
                          synth_transition)
from gllab.morsealg import CriticalPoint, MorseDescription


def _sin_profile(b=np.pi):
    return SmoothFn1D(b, [SinePiece((0.0, b), 1.0, 1.0)])


class TestPieces:
    def test_poly_derivatives(self):
        p = PolyPiece((0.0, 1.0), [1.0, 2.0, 3.0])  # 1 + 2t + 3t^2
        t = np.linspace(0.0, 1.0, 7)
        f, d1, d2, d3 = p.jet(t, 3)
        assert np.allclose(f, 1 + 2 * t + 3 * t ** 2)
        assert np.allclose(d1, 2 + 6 * t)
        assert np.allclose(d2, 6.0)
        assert np.allclose(d3, 0.0)

    def test_sine_derivatives(self):
        p = SinePiece((0.0, 1.0), 2.0, 3.0, phase=0.5)
        t = np.linspace(0.0, 1.0, 7)
        _, d1, d2 = p.jet(t, 2)
        assert np.allclose(d1, 6.0 * np.cos(3 * t + 0.5))
        assert np.allclose(d2, -18.0 * np.sin(3 * t + 0.5))

    def test_junction_contract_enforced(self):
        good = SmoothFn1D(2.0, [ConstPiece((0, 1), 1.0),
                                ConstPiece((1, 2), 1.0)])
        assert good(1.5) == 1.0
        with pytest.raises(InvalidSpecError):
            SmoothFn1D(2.0, [ConstPiece((0, 1), 1.0),
                             ConstPiece((1, 2), 2.0)])

    @pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9])
    def test_junction_tolerance_takes_the_pieces_own_scale(self, delta):
        # a cubic whose f'' runs from -1/delta to 0 (f' to 0 too) meets a
        # quadratic of f'' = eta: both f'' near 0 at the junction, but the
        # pieces' own f'' scale is 1/delta
        h = 2.0 * delta
        cubic = PolyPiece((0.0, h), [0.0, 1.0, -0.5 / delta,
                                     1.0 / (12.0 * delta * delta)])
        f0, f1 = cubic.end_jets(1)[:, 1]

        def joined(eta):
            return SmoothFn1D(3.0 * delta, [cubic, PolyPiece(
                (h, 3.0 * delta), [f0, f1, 0.5 * eta], origin=h)])
        joined(1e-12 / delta)       # rounding at the pieces' scale passes
        with pytest.raises(InvalidSpecError, match="fails C2 contract"):
            joined(1e-6 / delta)    # a mismatch well above it raises

    def test_jet_matches_single_order_views(self):
        f = make_double_torpedo(0.5, 4.0)
        t = np.concatenate([sample_grid(f.b, 64),
                            [p.interval[1] for p in f.pieces]])
        # each point belongs to the piece whose interval holds it, a
        # breakpoint to the piece on its right
        owner = np.searchsorted(f._breaks, t, side="right")
        for k in range(4):
            jet = f.jet(t, k)
            assert len(jet) == k + 1
            for i, piece in enumerate(f.pieces):
                mine = owner == i
                for values, own in zip(jet, piece.jet(t[mine], k)):
                    assert np.array_equal(values[mine], own)
        # one point at a time gives the same bits as the whole array
        for j in range(0, t.size, 7):
            assert f.jet(t[j], 3) == tuple(x[j] for x in f.jet(t, 3))
            assert f.jet(t[j:j + 1], 3)[3].shape == (1,)
        scalar = f.jet(1.3, 3)
        assert all(np.ndim(x) == 0 for x in scalar)
        piece = f.pieces[int(np.searchsorted(f._breaks, 1.3, side="right"))]
        assert scalar == tuple(x[0] for x in piece.jet([1.3], 3))
        assert f(1.3) == scalar[0]

    def test_jet_calls_no_polyval_and_no_piece_jet(self, monkeypatch):
        # the profile evaluates its compiled tables, not its pieces' jets
        f = reflect(make_double_torpedo(0.5, 4.0))
        t = np.linspace(0.0, f.b, 101)
        want = f.jet(t, 3)

        def forbidden(*args, **kwargs):
            raise AssertionError("called inside SmoothFn1D.jet")

        monkeypatch.setattr(np.polynomial.polynomial, "polyval", forbidden)
        for cls in (SinePiece, PolyPiece, ConstPiece, ReflectPiece):
            monkeypatch.setattr(cls, "jet", forbidden)
        for got, ref in zip(f.jet(t, 3), want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_jet_order_outside_range_raises_typed(self, k):
        with pytest.raises(InvalidSpecError):
            make_torpedo(TorpedoSpec(0.5)).jet(0.3, k)

    @pytest.mark.parametrize("t", [np.nan, [0.1, np.nan, 0.3]],
                             ids=["scalar", "array"])
    def test_nan_point_raises_typed(self, t):
        # NaN lies in no domain: it is not passed through as a value
        with pytest.raises(InvalidSpecError, match="evaluation outside"):
            make_torpedo(TorpedoSpec(0.5)).jet(t, 1)

    def test_json_round_trip(self):
        # a C^1 profile and its mirror keep their junction orders; a C^2
        # profile's JSON names none
        assert set(make_torpedo(TorpedoSpec(0.5)).to_json()) == {"b", "pieces"}
        torpedo = make_torpedo(TorpedoSpec(0.5, blend_width=0.0))
        for f in (torpedo, reflect(torpedo)):
            g = SmoothFn1D.from_json(json.loads(json.dumps(f.to_json())))
            assert g.junction_orders == f.junction_orders == (0, 1)
            t = sample_grid(f.b, 128)
            for a, b in zip(f.jet(t, 3), g.jet(t, 3)):
                assert np.array_equal(a, b)

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    def test_non_finite_domain_raises_typed(self, b):
        # a NaN length passes b <= 0 and every partition check
        piece = PolyPiece((0.0, 1.0), [1.0])
        with pytest.raises(InvalidSpecError, match="positive and finite"):
            SmoothFn1D(b, [piece])
        with pytest.raises(InvalidSpecError, match="positive and finite"):
            SmoothFn1D.from_json(json.loads(json.dumps(
                {"b": b, "pieces": [piece.to_json()]})))

    @pytest.mark.parametrize("build", [
        lambda: SmoothFn1D(1.0, [PolyPiece((0.0, np.nan), [1.0])]),
        lambda: SmoothFn1D(2.0, [PolyPiece((0.0, np.nan), [1.0]),
                                 PolyPiece((np.nan, 2.0), [1.0])]),
        lambda: SmoothFn1D(2.0, [PolyPiece((0.0, 1.0), [np.nan]),
                                 PolyPiece((1.0, 2.0), [1.0])]),
        lambda: SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0],
                                           origin=np.nan)]),
        lambda: SmoothFn1D.from_json(json.loads(
            '{"b": 1.0, "pieces": [{"kind": "poly", "interval": [0.0, NaN],'
            ' "coeffs": [1.0]}]}')),
    ], ids=["nan-end", "nan-break", "nan-junction-coeff", "nan-origin",
            "json-nan-interval"])
    def test_non_finite_piece_data_raises_typed(self, build):
        # every comparison against NaN is false, so a NaN breakpoint would
        # pass a partition check written with ">"
        with pytest.raises(InvalidSpecError):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: SmoothFn1D(1.0, []), "at least one piece"),
        (lambda: SmoothFn1D(1.0, [PolyPiece((0.5, 1.0), [1.0])]),
         "first piece must start at 0"),
        (lambda: SmoothFn1D(2.0, [PolyPiece((0.0, 1.0), [1.0])]),
         "last piece must end at b"),
        (lambda: SmoothFn1D(2.0, [PolyPiece((0.0, 1.0), [1.0]),
                                  PolyPiece((1.5, 2.0), [1.0])]),
         "contiguously"),
        (lambda: SmoothFn1D(2.0, [PolyPiece((0.0, 1.0), [1.0]),
                                  PolyPiece((1.0, 1.0), [1.0]),
                                  PolyPiece((1.0, 2.0), [1.0])]),
         "strictly increase"),
        (lambda: SmoothFn1D.from_json({"b": 1.0, "pieces": [
            {"kind": "spline", "interval": [0.0, 1.0], "coeffs": [1.0]}]}),
         "unknown piece kind 'spline'"),
        (lambda: make_torpedo(0.5), "expects a TorpedoSpec"),
    ], ids=["no-pieces", "late-start", "early-end", "gap",
            "repeated-break", "unknown-kind", "not-a-spec"])
    def test_malformed_profile_raises_typed(self, build, message):
        with pytest.raises(InvalidSpecError, match=message):
            build()


class TestTorpedo:
    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
    def test_cap_tube_shape(self, delta):
        f = make_torpedo(TorpedoSpec(delta, tube_length=1.0))
        # round cap at the start, constant tube at the end
        t_cap = np.linspace(0.0, delta * np.pi / 4.0, 50)
        assert np.allclose(f(t_cap), delta * np.sin(t_cap / delta))
        assert np.allclose(f(f.b), delta)
        assert abs(f.jet(0.0, 1)[1] - 1.0) < 1e-12

    @pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
    def test_blend_concave(self, delta):
        f = make_torpedo(TorpedoSpec(delta))
        t = sample_grid(f.b, 4096)
        assert float(np.max(f.jet(t, 2)[2])) <= 1e-10

    # the tampered blend is concave but decreasing, or increasing but convex
    @pytest.mark.parametrize("coeffs, message", [
        ([0.0, -1.0, 0.0, 0.0, 0.0, 0.0], "nondecreasing"),
        ([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], "lost concavity")],
        ids=["decreasing", "convex"])
    @pytest.mark.parametrize("ratio", [0.25, 1e-5])
    def test_failing_blend_raises(self, monkeypatch, coeffs, message, ratio):
        # at ratio 1e-5 the blend is narrower than a 1024-per-unit grid step
        monkeypatch.setattr(fnspace, "_quintic_match",
                            lambda *args: np.array(coeffs))
        with pytest.raises(ConstructionFailedError, match=message):
            make_torpedo(TorpedoSpec(1.0, blend_width=ratio * np.pi / 2))

    @pytest.mark.parametrize("delta", [1e-7, 0.25, 0.5, 3.0])
    def test_quintic_solves_the_derivative_rows_bitwise(self, delta):
        # the matching system built entry by entry, as it was written before
        # the rows became one comprehension: the same solve, bit for bit
        spec = TorpedoSpec(delta)
        t0, t1 = spec.cap - 2.0 * spec.blend_width, spec.flat_from
        y0 = (delta * np.sin(t0 / delta), np.cos(t0 / delta),
              -np.sin(t0 / delta) / delta)
        y1 = (delta, 0.0, 0.0)
        rows = np.zeros((6, 6))
        rows[[0, 1, 2], [0, 1, 2]] = [1.0, 1.0, 2.0]
        for k in range(3):
            for j in range(k, 6):
                c = 1.0
                for m in range(k):
                    c *= (j - m)
                rows[3 + k, j] = c * (t1 - t0) ** (j - k)
        want = np.linalg.solve(rows, np.array([*y0, *y1]))
        got = fnspace._quintic_match(t0, y0, t1, y1)
        assert got.tobytes() == want.tobytes()

    def test_zero_blend_is_c1(self):
        # below 1e-6 of the cap the quintic solve is not concave, so a blend
        # of 3e-9 is the C1 cap/tube junction, as a zero one is
        for delta, width in ((0.5, 0.0), (1.0, 3e-9)):
            spec = TorpedoSpec(delta, blend_width=width)
            f = make_torpedo(spec)
            assert f.junction_orders == (0, 1)
            assert [p.kind for p in f.pieces] == ["sine", "const"]
            assert f.pieces[0].interval == (0.0, spec.cap)
            assert np.min(f(sample_grid(f.b, 512))) >= 0.0

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            TorpedoSpec(0.0)
        with pytest.raises(InvalidSpecError):
            TorpedoSpec(-1.0)
        with pytest.raises(InvalidSpecError):
            TorpedoSpec(0.5, blend_width=-0.1)
        with pytest.raises(InvalidSpecError):
            TorpedoSpec(0.5, blend_width=0.5 * np.pi / 4.0)

    @pytest.mark.parametrize("kw", [
        {"delta": np.nan}, {"delta": np.inf},
        {"delta": 0.5, "tube_length": np.nan},
        {"delta": 0.5, "tube_length": np.inf},
        {"delta": 0.5, "blend_width": np.nan}])
    def test_non_finite_sizes_raise_typed(self, kw):
        with pytest.raises(InvalidSpecError, match="finite"):
            TorpedoSpec(**kw)

    @pytest.mark.parametrize("blend", [None, 0.1, 0.0])
    def test_flat_from_is_where_the_tube_starts(self, blend):
        spec = TorpedoSpec(0.5, blend_width=blend)
        f = make_torpedo(spec)
        assert spec.b == spec.flat_from + spec.tube_length
        if blend == 0.0:
            assert spec.flat_from == spec.cap
        F, d1, d2 = f.jet(np.linspace(spec.flat_from, spec.b, 257), 2)
        assert np.all(F == spec.delta)
        assert not np.any(d1) and not np.any(d2)
        # still bending just before it
        before = np.linspace(0.5 * spec.cap, spec.flat_from, 257)[:-1]
        assert np.all(f.jet(before, 2)[2] < 0)

    @given(delta=st.floats(0.05, 2.0), frac=st.floats(0.0, 0.45))
    @settings(max_examples=40, deadline=None)
    def test_profile_bounded_by_delta(self, delta, frac):
        f = make_torpedo(TorpedoSpec(delta,
                                     blend_width=frac * delta * np.pi / 2))
        t = sample_grid(f.b, 512)
        vals = f(t)
        assert np.all(vals <= delta + 1e-12)
        assert np.all(vals >= -1e-12)

    def test_double_torpedo_symmetric(self):
        f = make_double_torpedo(0.5, 6.0)
        t = np.linspace(0.0, 6.0, 101)
        assert np.allclose(f(t), f(6.0 - t), atol=1e-12)

    @pytest.mark.parametrize("total", [0.8, 0.95])
    def test_domain_without_tube_raises(self, total):
        # cap + blend = 5 * 0.5 * pi / 8 = 0.9817: no tube is left, and the
        # blend is not shrunk to make room
        with pytest.raises(InvalidSpecError, match="domain too short"):
            _torpedo_on(0.5, total)

    def test_short_tube_keeps_the_default_blend(self):
        spec = _torpedo_on(0.5, 0.99)
        assert spec.blend_width == 0.5 * np.pi / 8
        assert spec.tube_length == 0.99 - TorpedoSpec(0.5).flat_from
        assert spec.b == pytest.approx(0.99, abs=1e-15)

    def test_double_torpedo_needs_a_tube_in_each_half(self):
        with pytest.raises(InvalidSpecError, match="domain too short"):
            make_double_torpedo(0.5, 1.9)

    def test_mirrors_build_whenever_the_torpedo_does(self):
        # a mirrored junction is read at its source's ends, not at b - t:
        # re-checked after rounding, a blend's zero d2 at tiny delta came
        # back as ~1e-9 and failed the C2 contract; every torpedo builds,
        # its junctions read at its own f'' scale 1/delta
        for e in np.linspace(-30.0, 2.0, 321):
            delta = 2.0 ** e
            spec = TorpedoSpec(delta, tube_length=10.0 * delta)
            f = make_torpedo(spec)
            assert reflect(f).junction_orders == f.junction_orders
            make_double_torpedo(delta, 2.0 * spec.b)


class TestMembership:
    def test_sin_is_closed_sphere_profile(self):
        assert check_F_membership(_sin_profile()).passed

    def test_tube_fails_closed_membership(self):
        f = make_torpedo(TorpedoSpec(0.5))
        assert not check_F_membership(f).passed

    def test_U_and_V(self):
        b = np.pi / 2
        u = SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0, phase=np.pi / 2)])
        v = SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0)])
        assert check_U_membership(u).passed
        assert check_V_membership(v).passed
        # swapped roles fail: v opens at 0, u closes at b
        assert not check_U_membership(v).passed
        assert not check_V_membership(u).passed

    def test_reflected_torpedo_in_U(self):
        f = reflect(make_torpedo(TorpedoSpec(0.5, tube_length=1.0)))
        assert check_U_membership(f).passed

    def test_torpedo_in_V(self):
        assert check_V_membership(make_torpedo(TorpedoSpec(0.5))).passed

    @pytest.mark.parametrize("check, member", [
        (check_F_membership, (np.pi, 0.0)),         # sin t on (0, pi)
        (check_U_membership, (np.pi / 2, np.pi / 2)),  # cos t on (0, pi/2)
        (check_V_membership, (np.pi / 2, 0.0)),     # sin t on (0, pi/2)
    ])
    def test_every_checked_condition_can_fail(self, check, member):
        b, phase = member
        sine = SmoothFn1D(b, [SinePiece((0.0, b), 1.0, 1.0, phase)])
        rep = check(sine)
        assert rep.passed
        # tampered profiles: the member plus +-(t - o)^k / 2 about either
        # end, and the negated member
        tampered = [
            LinearCombination([
                (1.0, sine), (c, SmoothFn1D(b, [PolyPiece(
                    (0.0, b), [0.0] * k + [1.0], origin=o)]))])
            for k in range(4) for o in (0.0, b) for c in (0.5, -0.5)]
        tampered.append(LinearCombination([(-1.0, sine)]))
        failed = {c.name for f in tampered for c in check(f).failures()}
        assert {c.name for c in rep.conditions} - failed == set()

    @pytest.mark.parametrize("check", [check_F_membership, check_U_membership,
                                       check_V_membership])
    def test_one_jet_call_per_check(self, check, counted):
        f = counted(make_torpedo(TorpedoSpec(0.5)))
        check(f)
        assert f.orders == [3]

    @pytest.mark.parametrize("check", [check_F_membership, check_U_membership,
                                       check_V_membership])
    @pytest.mark.parametrize("f", [
        make_torpedo(TorpedoSpec(0.5)),
        reflect(make_torpedo(TorpedoSpec(0.3, tube_length=0.4))),
        make_double_torpedo(0.4, 3.0),
        _sin_profile(),
        LinearCombination([(1.0, _sin_profile()), (0.5, SmoothFn1D(
            np.pi, [PolyPiece((0.0, np.pi), [0.0, 0.0, 0.0, 1.0])]))]),
    ])
    def test_end_conditions_match_one_point_jets(self, check, f,
                                                 one_point_ends):
        # conditions and details, bit for bit, as read from one-point calls
        ref = one_point_ends(f)
        assert check(f).conditions == check(ref).conditions
        assert ref.ends_read >= 2


class TestStructuralOps:
    def test_reflect_involution(self):
        f = make_torpedo(TorpedoSpec(0.5))
        g = reflect(reflect(f))
        t = sample_grid(f.b, 256)
        assert np.allclose(f(t), g(t), atol=1e-14)
        assert np.allclose(f.jet(t, 1)[1], g.jet(t, 1)[1], atol=1e-12)

    def test_linear_homotopy_endpoints_and_midpoint(self):
        f0 = make_torpedo(TorpedoSpec(0.5, tube_length=1.0))
        b = f0.b
        f1 = SmoothFn1D(b, [SinePiece((0, b), b / np.pi, np.pi / b)])
        t = sample_grid(b, 256)
        assert np.allclose(linear_homotopy(f0, f1, 0.0)(t), f0(t),
                           atol=1e-12)
        assert np.allclose(linear_homotopy(f0, f1, 1.0)(t), f1(t),
                           atol=1e-12)
        mid = linear_homotopy(f0, f1, 0.5)
        assert np.allclose(mid(t), 0.5 * (f0(t) + f1(t)), atol=1e-12)
        assert np.allclose(mid.jet(t, 2)[2],
                           0.5 * (f0.jet(t, 2)[2] + f1.jet(t, 2)[2]),
                           atol=1e-10)

    def test_homotopy_preserves_V_membership(self):
        f0 = make_torpedo(TorpedoSpec(0.5, tube_length=1.0))
        b = f0.b
        f1 = make_torpedo(TorpedoSpec(
            0.25, tube_length=b - 0.25 * np.pi / 2
            - TorpedoSpec(0.25).blend_width))
        for s in (0.25, 0.5, 0.75):
            assert check_V_membership(linear_homotopy(f0, f1, s)).passed

    def test_csv_export(self):
        buf = io.StringIO()
        write_profile_csv(_sin_profile(), buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "t,f,d1,d2"
        assert len(lines) > 64


def _per_order(piece, t, order):
    """Reference: the one-order formulas that piece jets replaced."""
    t = np.asarray(t, dtype=float)
    if piece.kind == "poly":
        c = piece.coeffs
        for _ in range(order):
            c = np.polynomial.polynomial.polyder(c)
        return np.polynomial.polynomial.polyval(t - piece.origin, c)
    if piece.kind == "sine":
        a = piece.amplitude * piece.frequency ** order
        return a * np.sin(piece.frequency * t + piece.phase
                          + order * np.pi / 2.0)
    if piece.kind == "const":
        return np.full_like(t, piece.value) if order == 0 \
            else np.zeros_like(t)
    sign = -1.0 if order % 2 else 1.0
    return sign * _per_order(piece.inner, piece.b - t, order)


def _pieces_of_every_kind():
    """A double torpedo's pieces (sine, poly, const, then the reflected
    const, poly and sine), and a phased sine piece with its reflection."""
    phased = SinePiece((0.0, 2.0), 1.3, 0.7, phase=np.pi / 2.0)
    return make_double_torpedo(0.5, 4.0).pieces + [
        phased, ReflectPiece((0.5, 2.5), phased, 2.5)]


@pytest.mark.parametrize("i", range(8))
def test_piece_jets_match_per_order_formulas_bitwise(i):
    piece = _pieces_of_every_kind()[i]
    inner = getattr(piece, "inner", piece)
    assert (piece.kind, inner.kind) == (
        ("sine", "sine"), ("poly", "poly"), ("const", "const"),
        ("reflect", "const"), ("reflect", "poly"), ("reflect", "sine"),
        ("sine", "sine"), ("reflect", "sine"))[i]
    t = np.linspace(*piece.interval, 37)
    for k in range(4):
        jet = piece.jet(t, k)
        assert len(jet) == k + 1
        for j, d in enumerate(jet):
            assert np.array_equal(d, _per_order(piece, t, j))
            assert piece.jet(t[5], k)[j] == _per_order(piece, t[5], j)


def _owned(pieces, t, k, jet):
    """Orders 0..k at t, each point from ``jet(piece, points, k)`` of the
    piece whose interval holds it, a breakpoint from the piece on its
    right; scalars for scalar t."""
    t = np.asarray(t, dtype=float)
    tv = np.atleast_1d(t)
    owner = np.searchsorted([p.interval[1] for p in pieces[:-1]], tv,
                            side="right")
    outs = [np.empty(tv.shape) for _ in range(k + 1)]
    for i, piece in enumerate(pieces):
        mine = owner == i
        for out, d in zip(outs, jet(piece, tv[mine], k)):
            out[mine] = d
    return tuple(out.reshape(t.shape)[()] for out in outs)


def _reference_jet(f, t, k):
    """f's orders 0..k at t by ``_per_order``."""
    return _owned(f.pieces, t, k, lambda piece, x, k: [
        _per_order(piece, x, j) for j in range(k + 1)])


def _per_order_compiled(piece):
    """A piece's data as the per-order kernel read it: (the b of each
    reflection, outermost first; origin; each order's coefficients in
    increasing powers, or None; None or a sine's (A w^j, w, phase))."""
    bs = ()
    while piece.kind == "reflect":
        bs, piece = bs + (piece.b,), piece.inner
    if piece.kind == "sine":
        return bs, 0.0, None, (
            [piece.amplitude * piece.frequency ** j for j in range(4)],
            piece.frequency, piece.phase)
    if piece.kind == "const":
        return bs, 0.0, [[piece.value], [0.0], [0.0], [0.0]], None
    cols = [piece.coeffs.tolist() or [0.0]]
    for _ in range(3):
        c = cols[-1]
        cols.append([j * c[j] for j in range(1, len(c))] or [c[0] * 0])
    return bs, piece.origin, cols, None


def _per_order_run_jet(compiled, u, k):
    """Reference: the kernel as it was, one sine, or one Horner recurrence,
    per order, odd orders negated under an odd number of reflections."""
    bs, origin, cols, sine = compiled
    for b in bs:
        u = b - u
    if sine:
        amps, w, phase = sine
        arg = w * u + phase
        vals = [a * np.sin(arg + j * np.pi / 2.0)
                for j, a in enumerate(amps[:k + 1])]
    else:
        u = u - origin if origin else u
        zero = u * 0.0
        vals = [functools.reduce(lambda out, ci: ci + out * u, c[-2::-1],
                                 c[-1] + zero) for c in cols[:k + 1]]
    return [-v if j % 2 and len(bs) % 2 else v for j, v in enumerate(vals)]


def _tilted_transition():
    """The 5-piece tilted transition of a (1.5, 3) bend."""
    consts = BendConstants(R0=1.5, q=3)
    prefix = initial_bend(consts, r1=1.0)
    trans = synth_transition(consts, r0=0.3, theta0=prefix[1])
    return final_bending_tilt(trans, trans[0].C2)


def _round(radius, phase=0.0):
    b = radius * np.pi
    return SmoothFn1D(b, [SinePiece((0.0, b), radius, 1.0 / radius, phase)])


_KERNEL_PROFILES = {
    "round": lambda: _round(1.0),
    "round-phased": lambda: SmoothFn1D(2.0, [
        SinePiece((0.0, 2.0), 0.7, 1.7, phase=0.3)]),
    "round-join": lambda: SmoothFn1D(np.pi / 2, [
        SinePiece((0.0, np.pi / 2), 1.3, 1.0, phase=np.pi / 2)]),
    "torpedo": lambda: make_torpedo(TorpedoSpec(0.5, tube_length=1.0)),
    "torpedo-reflected": lambda: reflect(
        make_torpedo(TorpedoSpec(0.3, tube_length=0.2))),
    "torpedo-reflected-twice": lambda: reflect(reflect(
        make_torpedo(TorpedoSpec(0.3, tube_length=0.2)))),
    "double-torpedo": lambda: make_double_torpedo(0.4, 4.0),
    "double-torpedo-reflected": lambda: reflect(make_double_torpedo(0.4, 4.0)),
    "tilted-transition": _tilted_transition,
}


def _same_bits(got, want):
    return all(np.shape(g) == np.shape(w) and type(g) is type(w)
               and np.asarray(g).tobytes() == np.asarray(w).tobytes()
               for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("name", sorted(_KERNEL_PROFILES))
def test_kernel_matches_the_per_order_kernel_bitwise(name):
    f = _KERNEL_PROFILES[name]()
    rng = np.random.default_rng(len(name))
    points = [0.37 * f.b, 0.0, f.b, rng.uniform(0.0, f.b, 1),
              rng.uniform(0.0, f.b, 7), rng.uniform(0.0, f.b, 81),
              np.sort(rng.uniform(0.0, f.b, 81)),
              np.linspace(0.0, f.b, 4097)]
    for k in range(4):
        for t in points:
            assert _same_bits(f.jet(t, k), _owned(
                f.pieces, t, k, lambda p, x, k: _per_order_run_jet(
                    _per_order_compiled(p), x, k)))
        for piece in f.pieces:
            lo, hi = piece.interval
            for t in (lo, 0.5 * (lo + hi), hi, np.linspace(lo, hi, 9),
                      rng.permutation(np.linspace(lo, hi, 81))):
                assert _same_bits(piece.jet(t, k), _per_order_run_jet(
                    _per_order_compiled(piece), np.asarray(t, dtype=float),
                    k))


def _per_point_jets(f, t, k):
    """f's jets at each point of t, one call per point, in t's shape."""
    cols = zip(*(f.jet(x, k) for x in np.ravel(t)))
    return tuple(np.reshape(col, np.shape(t)) for col in cols)


@pytest.mark.parametrize("name", [
    "torpedo", "torpedo-reflected", "tilted-transition"])
def test_unsorted_batch_in_one_piece_is_read_in_place(name, monkeypatch):
    # a batch inside one piece is that piece's own evaluation: no argsort
    f = _KERNEL_PROFILES[name]()
    rng = np.random.default_rng(len(name))
    sorts, argsort = [], np.argsort
    monkeypatch.setattr(np, "argsort", lambda *a, **kw: (
        sorts.append(1), argsort(*a, **kw))[1])
    for piece in f.pieces:
        lo, hi = piece.interval
        t = rng.permutation(np.linspace(lo, hi, 123)[1:-1])
        for k in range(4):
            for pts in (t, t.reshape(11, 11), t[:1]):
                assert _same_bits(f.jet(pts, k), _per_point_jets(f, pts, k))
    assert sorts == []


@pytest.mark.parametrize("name", [
    "torpedo", "torpedo-reflected", "tilted-transition"])
def test_batch_across_a_breakpoint_matches_per_point_jets(name):
    f = _KERNEL_PROFILES[name]()
    rng = np.random.default_rng(len(name))
    for c in f._breaks:
        t = rng.permutation(c + np.linspace(-2e-4, 2e-4, 9))
        for k in range(4):
            for pts in (t, np.sort(t), t.reshape(3, 3)):
                assert _same_bits(f.jet(pts, k), _per_point_jets(f, pts, k))
    t = rng.uniform(0.0, f.b, 61)
    assert _same_bits(f.jet(t, 3), _per_point_jets(f, t, 3))
    for pts in ([0.5 * f._breaks[0], np.nan], [np.nan], [f._breaks[0], np.nan,
                                                         f.b]):
        with pytest.raises(InvalidSpecError, match="evaluation outside"):
            f.jet(np.array(pts), 2)


def _gauss_nodes(b, cells):
    """8 Gauss-Legendre nodes in each of ``cells`` equal cells of [0, b],
    shaped (cells, 8) as ``glbend._HermiteTable`` evaluates them."""
    x = np.linspace(0.0, b, cells + 1)
    half = 0.5 * np.diff(x)
    gl_x = np.polynomial.legendre.leggauss(8)[0]
    return x[:-1, None] + half[:, None] * (1 + gl_x)


@pytest.mark.parametrize("make", [
    lambda: make_torpedo(TorpedoSpec(0.5)),
    lambda: make_double_torpedo(0.5, 4.0),
    # reflected pieces around reflected pieces
    lambda: reflect(make_double_torpedo(0.5, 4.0)),
    lambda: reflect(SmoothFn1D(2.5, [SinePiece((0.0, 2.5), 1.3, 0.7,
                                               phase=np.pi / 2.0)]))])
def test_profile_jet_matches_per_order_formulas_bitwise(make):
    f = make()
    breaks = [p.interval[1] for p in f.pieces[:-1]]
    grid = np.concatenate([np.linspace(0.0, f.b, 10001), breaks])
    shapes = {"sorted": np.sort(grid),
              "unsorted": np.random.default_rng(36).permutation(grid),
              "gauss": _gauss_nodes(f.b, 64)}
    for k in range(4):
        for name, t in shapes.items():
            for got, want in zip(f.jet(t, k), _reference_jet(f, t, k)):
                assert got.shape == t.shape, name
                assert np.array_equal(got, want), name
        for x in breaks + [0.0, 0.3 * f.b, f.b]:
            got = f.jet(x, k)
            assert all(np.ndim(v) == 0 for v in got)
            assert got == _reference_jet(f, x, k)
    # some breakpoint tells the left piece's jet from the right one's, so
    # the ownership of breakpoints is tested
    assert not breaks or any(f.pieces[i].jet(x, 3) != f.jet(x, 3)
                             for i, x in enumerate(breaks))


class _PiecewiseSum:
    """Reference: the weighted sum of pieces that homotopies and rescalings
    were once built from, one per interval of the union of breakpoints."""

    def __init__(self, interval, terms):
        self.interval = interval
        self.terms = terms

    def jet(self, t, k):
        t = np.asarray(t, dtype=float)
        outs = [np.zeros_like(t)] * (k + 1)
        for w, p in self.terms:
            if w != 0.0:
                outs = [o + w * d for o, d in zip(outs, p.jet(t, k))]
        return tuple(outs)


def _piece_at(f, t):
    return f.pieces[int(np.searchsorted(f._breaks, t, side="right"))]


class _PiecewiseProfile:
    """Reference: a profile read piece by piece, by the pieces' jets."""

    def __init__(self, b, pieces):
        self.b = b
        self.pieces = pieces

    def jet(self, t, k):
        return _owned(self.pieces, t, k, lambda p, x, k: p.jet(x, k))


def _piecewise_combination(terms):
    """sum w_i f_i of SmoothFn1D terms rebuilt piece by piece."""
    b = terms[0][1].b
    breaks = np.unique(np.concatenate(
        [np.concatenate([[0.0], f._breaks, [f.b]]) for _, f in terms]))
    pieces = [_PiecewiseSum((a, c), [(float(w), _piece_at(f, 0.5 * (a + c)))
                                     for w, f in terms])
              for a, c in zip(breaks, breaks[1:])
              if c - a > 1e-14 * max(1.0, b)]
    return _PiecewiseProfile(b, pieces)


def _c1_and_c2_torpedo():
    f0 = make_torpedo(TorpedoSpec(0.5, tube_length=1.0, blend_width=0.0))
    f1 = make_torpedo(TorpedoSpec(0.3, tube_length=f0.b - 0.3 * np.pi / 2
                                  - TorpedoSpec(0.3).blend_width))
    return f0, f1


def _round_and_double_torpedo():
    b = 5.0
    f0 = SmoothFn1D(b, [SinePiece((0.0, b), b / np.pi, np.pi / b)])
    return f0, make_double_torpedo(0.5, b)


def _assert_same_jets(got, want, inputs):
    t = np.concatenate([sample_grid(want.b, 64)]
                       + [[p.interval[1] for p in f.pieces] for f in inputs])
    for k in range(4):
        for g, w in zip(got.jet(t, k), want.jet(t, k)):
            assert np.array_equal(g, w)
        for x in t[::5]:
            one = got.jet(x, k)
            assert all(np.ndim(v) == 0 for v in one)
            assert one == want.jet(x, k)


class TestLinearCombination:
    @pytest.mark.parametrize("pair", [_round_and_double_torpedo,
                                      _c1_and_c2_torpedo])
    @pytest.mark.parametrize("s", [0.0, 0.25, 0.5, 1.0])
    def test_homotopy_matches_piecewise_sum(self, pair, s):
        f0, f1 = pair()
        _assert_same_jets(linear_homotopy(f0, f1, s),
                          _piecewise_combination([(1.0 - s, f0), (s, f1)]),
                          (f0, f1))

    @pytest.mark.parametrize("a", [0.0, -1.0, 2.5])
    def test_scale_matches_piecewise_sum(self, a):
        f = make_double_torpedo(0.5, 5.0)
        _assert_same_jets(LinearCombination([(a, f)]),
                          _piecewise_combination([(a, f)]), (f,))

    @pytest.mark.parametrize("combine", [
        lambda f0, f1: linear_homotopy(f0, f1, 0.5),
        lambda f0, f1: linear_homotopy(f0, f1, 0.0),
        lambda f0, f1: LinearCombination([(2.5, f0)]),
        lambda f0, f1: LinearCombination([(0.0, f0)]),
    ])
    def test_outside_domain_raises(self, combine):
        g = combine(*_round_and_double_torpedo())
        for t in (-1e-3, g.b + 1e-3, [0.0, g.b + 1e-3]):
            with pytest.raises(InvalidSpecError):
                g.jet(t, 2)
            with pytest.raises(InvalidSpecError):
                g(t)
        with pytest.raises(InvalidSpecError):
            g.jet(0.5, 4)

    def test_no_terms_raises_typed(self):
        with pytest.raises(InvalidSpecError, match="needs a term"):
            LinearCombination([])

    @pytest.mark.parametrize("b1", [6.0, 1.98 * (1 + 2e-9), 1.98 * (1 - 2e-9)])
    def test_terms_on_different_domains_raise(self, b1):
        # the first term used to fix b alone: (1.98 + 6) f built on b = 1.98
        f0, f1 = _sin_profile(1.98), _sin_profile(b1)
        for terms in ([(1.0, f0), (1.0, f1)], [(1.0, f1), (0.0, f0)]):
            with pytest.raises(DomainMismatchError):
                LinearCombination(terms)

    def test_terms_within_the_domain_rule_combine(self):
        f0, f1 = _sin_profile(1.98), _sin_profile(1.98 * (1 + 5e-10))
        assert LinearCombination([(1.0, f0), (2.0, f1)]).b == 1.98


def _two_and_three_term_families():
    f0, f1 = _round_and_double_torpedo()
    f2 = SmoothFn1D(f0.b, [PolyPiece((0.0, f0.b), [0.3, 0.1, -0.02])])
    # zero weights in some members, and one member all zeros
    return [([[1.0, 0.0], [0.0, 1.0], [0.75, 0.25], [0.0, 0.0]], (f0, f1)),
            ([[0.25, 0.0, 0.75], [0.5, 0.3, 0.2], [-1.5, 2.0, 0.0],
              [0.0, 0.0, 1.0]], (f0, f1, f2))]


@pytest.mark.parametrize("t", [
    0.7, 5.0, np.linspace(0.0, 5.0, 33),
    np.linspace(0.0, 5.0, 12).reshape(3, 4)],
    ids=["scalar", "scalar-end", "1-d", "2-d"])
@pytest.mark.parametrize("k", range(4))
def test_family_jets_are_each_members_own_jet(t, k):
    for weights, terms in _two_and_three_term_families():
        values, derivs = fnspace._family_jets(weights, terms, np.asarray(t),
                                              k)
        assert values.shape == (len(weights),) + np.shape(t)
        assert derivs.shape == (k, len(weights)) + np.shape(t)
        for m, w in enumerate(weights):
            assert _same_bits((values[m], *derivs[:, m]),
                              LinearCombination(zip(w, terms)).jet(t, k))


def test_family_jets_read_each_weighted_term_once():
    weights, (f0, f1, f2) = _two_and_three_term_families()[1]
    weights = [w[:2] + [0.0] for w in weights]
    calls = []

    class Counted:
        def __init__(self, f):
            self.b, self.f = f.b, f

        def jet(self, t, k):
            calls.append(self)
            return self.f.jet(t, k)

    terms = [Counted(f) for f in (f0, f1, f2)]
    fnspace._family_jets(weights, terms, np.linspace(0.0, 5.0, 9), 2)
    # the third term has no nonzero weight and is never read
    assert calls == terms[:2]


# ---------------------------------------------------------------------------
# torpedoes assembled from shared, checked pieces
# ---------------------------------------------------------------------------

_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "pool.json"

# the torpedoes the CLI builds (``torpedo --delta 0.5``, CI's narrow blend,
# a tube of length 0) and the ROADMAP Baseline's TorpedoSpec list
_SPECS = [TorpedoSpec(0.5), TorpedoSpec(1.0, blend_width=3e-9),
          TorpedoSpec(0.5, tube_length=0.0), TorpedoSpec(0.02),
          TorpedoSpec(0.1, tube_length=5.0), TorpedoSpec(0.05),
          TorpedoSpec(0.2, tube_length=3.0)]


def _every_torpedo_build():
    """The torpedo builds of the CLI, the Baseline list and the benchmark
    pool: chart torpedoes and their mirrors, the slowdowns' double
    torpedoes, and the surgery demos and compiles, which build theirs (the
    bends' tails, the mixed torpedoes, the f-to-torpedo stage's double
    torpedo and the foliation's) inside the schedule."""
    for spec in _SPECS:
        reflect(make_torpedo(spec))
        make_double_torpedo(spec.delta, 2.0 * spec.b + 0.5)
    for n, p in ((5, 1), (7, 2)):  # gllab demo --n 5 --p 1, --n 7 --p 2
        schedule.two_surgery_demo(n, p)
    pool = json.loads(_POOL.read_text())
    for spec in pool["charts"].values():
        if spec.get("profile") == "torpedo":
            reflect(make_torpedo(TorpedoSpec(spec["delta"],
                                             tube_length=spec["tube"])))
    for task in pool["crosscheck"]["slowdown"]:
        make_double_torpedo(task["delta"], task["b"])
    for task in pool["surgery"]["demo"]:
        schedule.two_surgery_demo(task["n"], task["p"], task["radius"])
    for task in pool["surgery"]["compile"]:
        k = task["k"]
        schedule.compile_gl_cobordism(
            schedule.round_metric(task["n"], task["radius"]),
            MorseDescription(task["n"], [CriticalPoint("a", k, 0.3),
                                         CriticalPoint("b", k + 1, 0.7)],
                             {(k + 1, k): [[task["sign"]]]}))


def _arrays(x):
    """Every array held by a piece, or in nested lists and tuples."""
    if isinstance(x, np.ndarray):
        return [x]
    if isinstance(x, (list, tuple)):
        return [a for y in x for a in _arrays(y)]
    return _arrays(list(vars(x).values())) if hasattr(x, "kind") else []


class TestSharedPieces:
    """A torpedo's cap and blend are built and checked once per shape; its
    mirror and its double are assembled from checked pieces unchecked."""

    def test_every_build_passes_the_full_checks(self, monkeypatch):
        made = []
        real = SmoothFn1D._assembled.__func__

        def recorded(cls, *args):
            made.append(real(cls, *args))
            return made[-1]
        monkeypatch.setattr(SmoothFn1D, "_assembled", classmethod(recorded))
        _every_torpedo_build()
        kinds = {tuple(p.kind for p in f.pieces) for f in made}
        assert ("sine", "poly", "const") in kinds
        assert ("reflect",) * 3 in kinds
        assert ("sine", "poly", "const", "reflect", "reflect",
                "reflect") in kinds
        assert ("sine", "poly") in kinds and ("sine", "const") in kinds
        assert len(made) > 300
        for f in made:
            full = SmoothFn1D(f.b, f.pieces, f.junction_orders)
            t = np.linspace(0.0, f.b, 1001)
            for got, want in zip(full.jet(t, 3), f.jet(t, 3)):
                assert got.tobytes() == want.tobytes()

    def test_memoized_pieces_are_read_only_and_shared(self):
        f = make_torpedo(TorpedoSpec(0.25, tube_length=1.0))
        g = make_torpedo(TorpedoSpec(0.25, tube_length=2.0))
        c1 = make_torpedo(TorpedoSpec(0.5, blend_width=0.0))
        assert f.pieces[:2] == g.pieces[:2] and f.pieces[2] is not g.pieces[2]
        assert reflect(f).pieces[-1].inner is f.pieces[0]
        heads = [p for pieces, _ in fnspace._torpedo_head.entries.values()
                 for p in pieces]
        assert [p.kind for p in heads] == ["sine", "poly", "sine"]
        assert heads[-1] is c1.pieces[0]
        arrays = _arrays(heads)
        assert len(arrays) >= 4
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            f.pieces[1].coeffs[0] = 0.0
        # the tube a call appends is its own
        assert f.pieces[2]._compiled[2].flags.writeable

    def test_warm_build_is_the_cold_build(self):
        spec = TorpedoSpec(0.3, tube_length=0.7)
        warm = [make_torpedo(spec) for _ in range(2)][1]
        fnspace._torpedo_head.entries.clear()
        cold = make_torpedo(spec)
        assert warm.to_json() == cold.to_json()
        t = np.linspace(0.0, cold.b, 1001)
        for got, want in zip(warm.jet(t, 3), cold.jet(t, 3)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("coeffs, message", [
        ([0.0, -1.0, 0.0, 0.0, 0.0, 0.0], "nondecreasing"),
        ([0.0, 0.0, 1.0, 0.0, 0.0, 0.0], "lost concavity")],
        ids=["decreasing", "convex"])
    def test_failing_blend_raises_on_every_call(self, monkeypatch, coeffs,
                                                message):
        monkeypatch.setattr(fnspace, "_quintic_match",
                            lambda *args: np.array(coeffs))
        for _ in range(2):
            with pytest.raises(ConstructionFailedError, match=message):
                make_torpedo(TorpedoSpec(1.0))
            assert not fnspace._torpedo_head.entries

    def test_failing_tube_junction_raises_on_every_call(self,
                                                        c2_tampered_blend):
        # the tampered blend's f'' at the tube misses 0 by 1e-3 / delta;
        # without a tube there is no such junction
        for _ in range(2):
            with pytest.raises(InvalidSpecError, match="fails C2 contract"):
                make_torpedo(TorpedoSpec(1e-7))
            assert not fnspace._torpedo_head.entries
        f = make_torpedo(TorpedoSpec(1e-7, tube_length=0.0))
        assert [p.kind for p in f.pieces] == ["sine", "poly"]
