"""Profile space: pieces, C^2 gluing, torpedoes, membership checkers."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gllab.fnspace as fnspace
from gllab.errors import (ConstructionFailedError, DomainMismatchError,
                          InvalidSpecError)
from gllab.fnspace import (ConstPiece, LinearCombination, PolyPiece,
                           ReflectPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           _torpedo_on, check_F_membership, check_U_membership,
                           check_V_membership, linear_homotopy,
                           make_double_torpedo, make_torpedo, reflect,
                           sample_grid, write_profile_csv)


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
        # back as ~1e-9 and failed the C2 contract
        built = 0
        for e in np.linspace(-30.0, 2.0, 321):
            delta = 2.0 ** e
            spec = TorpedoSpec(delta, tube_length=10.0 * delta)
            try:
                f = make_torpedo(spec)
            except InvalidSpecError:  # the torpedo's own junction check
                continue
            built += 1
            assert reflect(f).junction_orders == f.junction_orders
            make_double_torpedo(delta, 2.0 * spec.b)
        assert built >= 233


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
        assert LinearCombination([(1.0, f0), (np.nan, f1)]).b == 1.98
