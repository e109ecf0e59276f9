"""Closed-form curvature evaluators and the slowdown construction."""

import io

import numpy as np
import pytest

import gllab.curvature as curvature
from gllab.certify import family_certificate
from gllab.curvature import (CylFamilyMetric, DoublyWarpedMetric, Phi2D,
                             WarpedProduct, WarpedSphereMetric,
                             make_smoothstep, ricci_warped, scalar_cyl_family,
                             scalar_doubly_warped, scalar_warped,
                             slowdown_concordance, write_curvature_csv)
from gllab.errors import (CertificationFailedError, DomainMismatchError,
                          InvalidSpecError, SingularProfileError)
from gllab.fnspace import (_CSV_DENSITY, ConstPiece, LinearCombination,
                           PolyPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           _quintic_match, linear_homotopy,
                           make_double_torpedo, make_torpedo, reflect,
                           sample_grid, write_profile_csv)
from gllab.schedule import (_mixed_torpedo_profiles, round_doubly_warped,
                            round_metric)


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

    @pytest.mark.parametrize("n", [7.0, 6.5, np.nan, True, "7"])
    def test_non_integer_dimension_raises_typed(self, n):
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            WarpedSphereMetric(n, round_profile(), open_profile=True)

    def test_numpy_integer_dimension_accepted(self):
        m = WarpedSphereMetric(np.int64(7), round_profile())
        assert np.allclose(scalar_warped(m, np.array([0.5, 1.0])), 42.0,
                           rtol=1e-9)

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
        rev = DoublyWarpedMetric(q, p, *g.profiles[::-1], open_profile=True)
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
        m = DoublyWarpedMetric(0, n - 1, one, *g.profiles, open_profile=True)
        t = np.array([0.0, g.b / 2, g.b])
        assert np.allclose(scalar_doubly_warped(m, t), scalar_warped(g, t),
                           rtol=1e-12)

    @pytest.mark.parametrize("p, q", [(2.5, 3.5), (np.nan, 4), (2, 4.0),
                                      (False, 4), (2, None)])
    def test_non_integer_fiber_dimension_raises_typed(self, p, q):
        g = round_doubly_warped(2, 4)
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            DoublyWarpedMetric(p, q, *g.profiles, open_profile=True)

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
        u, v = map(counted, g.profiles)
        m = DoublyWarpedMetric(2, 4, u, v, open_profile=True)
        t = np.linspace(0.0, g.b, 33)
        for pts in (t, t[1:-1], t[:-1], t[1:], g.b):
            scalar_doubly_warped(m, pts)
        assert u.orders == v.orders == [3, 2, 3, 3, 3]

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (1, 5)])
    def test_ends_match_one_point_calls_bitwise(self, p, q):
        g = round_doubly_warped(p, q)
        rev = DoublyWarpedMetric(q, p, *g.profiles[::-1], open_profile=True)
        t = np.linspace(0.0, g.b, 257)
        for m in (g, rev):
            joined = np.concatenate([[scalar_doubly_warped(m, 0.0)],
                                     scalar_doubly_warped(m, t[1:-1]),
                                     [scalar_doubly_warped(m, g.b)]])
            assert np.array_equal(scalar_doubly_warped(m, t), joined)


class TestWarpedProduct:
    @pytest.mark.parametrize("dims, radii", [
        ((4,), (0.7,)), ((2, 3), (1.5, 0.4)), ((2, 3, 4), (0.5, 1.25, 2.0)),
        ((1, 2, 5), (3.0, 0.2, 1.1))])
    def test_constant_radii_read_the_sphere_sum(self, dims, radii):
        # a product of round spheres over dt^2: R = sum_i d_i(d_i - 1)/r_i^2
        b = 2.0
        m = WarpedProduct(
            dims, [SmoothFn1D(b, [ConstPiece((0.0, b), r)]) for r in radii])
        want = sum(d * (d - 1) / r ** 2 for d, r in zip(dims, radii))
        assert m.n == sum(dims) + 1 and m.b == b
        R = m.scalar(np.linspace(0.0, b, 33))
        assert np.max(np.abs(R - want)) <= 1e-12 * want

    @pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (1, 5)])
    def test_doubly_warped_is_the_two_factor_product(self, p, q):
        g = round_doubly_warped(p, q)
        u, v = _mixed_torpedo_profiles(0.25, g.b)
        t = np.linspace(0.0, g.b, 129)
        for pair in (g.profiles, (u, v)):
            m = WarpedProduct((p, q), pair)
            assert np.array_equal(
                scalar_doubly_warped(DoublyWarpedMetric(p, q, *pair), t),
                m.scalar(t))

    def test_each_profile_meets_its_space(self):
        # the public constructors gate profile i on its own space; the
        # product itself samples none
        g = round_doubly_warped(2, 4)
        with pytest.raises(InvalidSpecError,
                           match=r"profile 0 fails U membership"):
            DoublyWarpedMetric(4, 2, *g.profiles[::-1])
        with pytest.raises(InvalidSpecError,
                           match=r"profile 0 fails F membership"):
            WarpedSphereMetric(7, g.profiles[0])
        m = WarpedProduct((4, 2), g.profiles[::-1])
        assert not hasattr(m, "spaces") and m.n == 7


def _masked_points(t, b):
    """Reference point set: the interior samples then each end present, the
    interior mask and one (mask, end) pair per end present."""
    tv = np.atleast_1d(t)
    snap = curvature._END_SNAP * max(1.0, b)
    at0, atb = np.abs(tv) <= snap, np.abs(tv - b) <= snap
    inner = ~(at0 | atb)
    ends = [(mask, tend) for mask, tend in ((at0, 0.0), (atb, b))
            if mask.any()]
    return np.concatenate([tv[inner], [tend for _, tend in ends]]), inner, ends


def _masked_quotients(inner, ends_at, all_jets):
    """Reference reader: (A, B, C) zero-filled, each profile written through
    the interior mask and each end's limits through that end's mask."""
    A, B, D = (np.zeros((len(all_jets),) + inner.shape) for _ in range(3))
    ends = []
    n_in = int(inner.sum())
    if n_in:
        jets = [[d[:n_in] for d in jet[:3]] for jet in all_jets]
        if min(np.abs(jet[0]).min() for jet in jets) < 1e-13:
            raise SingularProfileError(
                "a warping function vanishes at an interior point")
        for i, (f, d1, d2) in enumerate(jets):
            A[i][inner], B[i][inner], D[i][inner] = (
                d2 / f, (1.0 - d1 ** 2) / f ** 2, d1 / f)
    for e, (mask, tend) in enumerate(ends_at, start=n_in):
        jets = [tuple(float(x[e]) for x in jet) for jet in all_jets]
        closing = [i for i, jet in enumerate(jets) if abs(jet[0]) <= 1e-9]
        if len(closing) > 1:
            raise SingularProfileError(
                "both warping functions vanish at the same endpoint")
        for i, (f, d1, d2, d3) in enumerate(jets):
            if i in closing:
                if abs(abs(d1) - 1.0) > 1e-8:
                    raise SingularProfileError(
                        f"a warping function closes at t = {tend:.6g} with "
                        f"slope {d1:.6g}: a cone point")
                A[i][mask], B[i][mask] = d3 / d1, -d3 / d1
                ends.append((mask, i))
            elif closing and abs(d1) > 1e-8:
                raise SingularProfileError(
                    f"a warping function stays open at t = {tend:.6g} with "
                    f"slope {d1:.6g} where another closes")
            else:
                A[i][mask], B[i][mask], D[i][mask] = (
                    d2 / f, (1.0 - d1 ** 2) / f ** 2, d1 / f)
    C = {(i, j): D[i] * D[j]
         for i in range(len(all_jets)) for j in range(i + 1, len(all_jets))}
    for mask, c in ends:
        for (i, j), Cij in C.items():
            if c in (i, j):
                Cij[mask] = A[j if i == c else i][mask]
    return A, B, C


def _masked_closed_form(m, t, formula):
    """``formula`` of m at t through the masked reference reader."""
    t = np.asarray(t, dtype=float)
    pts, inner, ends = _masked_points(t, m.b)
    out = formula(m.dims, *_masked_quotients(
        inner, ends, [f.jet(pts, 3 if ends else 2) for f in m.profiles]))
    if t.ndim:
        return out
    out = np.asarray(out)[..., 0]
    return float(out) if out.ndim == 0 else tuple(map(float, out))


def _bits(value):
    return [(type(v), np.shape(v), np.asarray(v).tobytes())
            for v in (value if isinstance(value, tuple) else (value,))]


_CLOSED_FORM_METRICS = {
    "round-join": lambda: round_doubly_warped(2, 4),
    "mixed-torpedo": lambda: WarpedProduct(
        (3, 2), _mixed_torpedo_profiles(0.3, 3.0)),
    "double-torpedo": lambda: WarpedSphereMetric(
        6, make_double_torpedo(0.4, 4.0)),
    "round": lambda: WarpedSphereMetric(4, round_profile()),
    "three-factor": lambda: WarpedProduct((1, 2, 1), (
        SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, 0.3])]),
        cos_profile(1.0), SmoothFn1D(1.0, [PolyPiece((0.0, 1.0),
                                                      [0.5, 0.0, 0.2])]))),
}


@pytest.mark.parametrize("name", sorted(_CLOSED_FORM_METRICS))
def test_closed_form_matches_the_masked_reader_bitwise(name):
    m = _CLOSED_FORM_METRICS[name]()
    b = m.b
    rng = np.random.default_rng(len(name))
    interior = [0.4 * b, rng.uniform(0.01 * b, 0.99 * b, 1),
                rng.uniform(0.01 * b, 0.99 * b, 81), sample_grid(b, 64, True),
                rng.uniform(0.01 * b, 0.99 * b, (3, 5))]
    ends = [0.0, b, np.linspace(0.0, b, 129), np.array([b, 0.3 * b, 0.0]),
            np.array([0.0, 1e-14, 0.5 * b, b - 1e-14 * b, b]),
            np.linspace(0.0, b, 12).reshape(3, 4), np.array([b, 0.0])]
    closing = name != "three-factor"
    for t in interior + (ends if closing else []):
        assert _bits(m.scalar(t)) == _bits(
            _masked_closed_form(m, t, curvature._scalar))
        if len(m.dims) == 1:
            assert _bits(ricci_warped(m, t)) == _bits(
                _masked_closed_form(m, t, curvature._ricci))


def test_open_factor_reads_the_interior_formula_at_an_end():
    # where no factor closes, an end sample takes the open quotients as an
    # interior one does: a constant profile's R is one value at every t,
    # ends included, also for a radius whose C pow(f, 2) and f * f round
    # apart (the masked reader squares Python floats at an end)
    f = 0.04721255574537214
    assert f ** 2 != f * f
    m = WarpedProduct((3,), (SmoothFn1D(1.0, [ConstPiece((0.0, 1.0), f)]),))
    R = m.scalar(np.array([0.0, 0.5, 1.0]))
    assert R.tolist() == [m.scalar(0.5)] * 3 == [6 * (1.0 / (f * f))] * 3


@pytest.mark.parametrize("dims, profiles, t", [
    ((2, 4), lambda: (cos_profile(np.pi), sin_profile(np.pi)),
     np.array([0.5, np.pi / 2])),
    ((6,), lambda: (LinearCombination([(0.5, round_profile())]),),
     np.array([0.5, np.pi])),
    ((2, 4), lambda: (sin_profile(), sin_profile()), np.array([0.5, 0.0])),
    ((2, 3), lambda: (SmoothFn1D(np.pi / 2, [PolyPiece(
        (0.0, np.pi / 2), [1.0, 0.5])]), sin_profile()), np.array([0.0, 0.5])),
    # a cone point at t = 0, two factors closing at t = b: t = 0 is
    # reported first wherever it sits among the samples
    *[((2, 3), lambda: (SmoothFn1D(1.0, [PolyPiece(
        (0.0, 1.0), [0.0, 0.5, 1.0, -1.5])]), SmoothFn1D(1.0, [PolyPiece(
            (0.0, 1.0), [1.0, -1.0])])), t) for t in (
        np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        np.array([[0.5, 1.0], [0.25, 0.0]]))],
], ids=["interior-zero", "cone-point", "two-close-at-one-end",
        "open-slope-where-another-closes", "fails-at-both-ends-b-then-0",
        "fails-at-both-ends-0-then-b", "fails-at-both-ends-2d"])
def test_closed_form_raises_as_the_masked_reader(dims, profiles, t):
    m = WarpedProduct(dims, profiles())
    with pytest.raises(SingularProfileError) as want:
        _masked_closed_form(m, t, curvature._scalar)
    with pytest.raises(SingularProfileError) as got:
        m.scalar(t)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


class TestCylFamily:
    @pytest.mark.parametrize("qtilde", [1.5, 4.0, np.nan, True, "4"])
    def test_non_integer_fiber_dimension_raises_typed(self, qtilde):
        with pytest.raises(InvalidSpecError, match="must be an integer"):
            CylFamilyMetric(qtilde, Phi2D.from_profile(round_profile(5)))

    def test_fiber_dimension_below_one_raises(self):
        with pytest.raises(InvalidSpecError, match=">= 1"):
            CylFamilyMetric(np.int64(0), Phi2D.from_profile(round_profile(5)))

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


def per_row_grid(path, n, grid_shape, L):
    """Reference R grid at length L that rebuilds phi's profiles per partial.

    Every s-row looks up path(eta(s)) anew for the value, for each of the
    central differences in s at h = 1e-4 L and for each t-partial (8
    profiles a row), and evaluates ``scalar_cyl_family`` row by row.
    """
    b = path(0.0).b
    ns, nt = grid_shape
    tgrid = np.linspace(0.0, b, nt + 2)[1:-1]
    eta = make_smoothstep(L)
    h = L * 1e-4

    def profile_at(s):
        return path(float(np.clip(eta(np.clip(s, 0.0, L)),
                                 0.0, 1.0))).profiles[0]

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
    return R


def per_row_slowdown(path, n, grid_shape, budget):
    """Reference slowdown search: ``per_row_grid`` at L = 1, 2, 4, ... until
    the grid's minimum is positive, at most ``budget`` times.  Returns the
    R grid of every L tried, then (Lambda, L, min R) on success or the best
    minimum when the budget runs out.
    """
    grids = []
    best = -np.inf
    L = 1.0
    for _ in range(budget):
        R = per_row_grid(path, n, grid_shape, L)
        grids.append(R)
        mn = float(R.min())
        if mn > 0.0:
            return grids, (1.0 / L, L, mn)
        best = max(best, mn)
        L *= 2.0
    return grids, best


def record_grid(monkeypatch):
    """Every grid slowdown hands to its certificate."""
    values = []

    def recording(R, *args, **kwargs):
        values.append(np.array(R))
        return family_certificate(R, *args, **kwargs)

    monkeypatch.setattr(curvature, "family_certificate", recording)
    return values


def middle_bulge_path(b=6.0, n=7):
    """Round at both ends, scaled by up to 2 in the middle: the cone-like
    ends of 2 f0 have R < 0, so no length L can make it psc."""
    f0 = SmoothFn1D(b, [SinePiece((0.0, b), b / np.pi, np.pi / b)])

    def path(sig):
        return WarpedSphereMetric(
            n, LinearCombination([(1.0 + 4.0 * sig * (1.0 - sig), f0)]),
            open_profile=True)
    return path


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
        values = record_grid(monkeypatch)
        lam, eta, cert = slowdown_concordance(path, 7, grid_shape=(60, 60))
        grids, (ref_lam, ref_L, ref_min) = per_row_slowdown(
            path, 7, (60, 60), 20)
        assert (lam, eta.b) == (ref_lam, ref_L) and len(grids) > 1
        (R,) = values
        np.testing.assert_allclose(R, grids[-1], rtol=1e-12, atol=0.0)
        assert cert.min_scalar == pytest.approx(ref_min, rel=1e-12)
        i, j = np.unravel_index(np.argmin(grids[-1]), (60, 60))
        assert cert.extra["argmin_s"] == np.linspace(0.0, ref_L, 62)[1 + i]
        assert cert.extra["argmin_t"] == np.linspace(0.0, 6.0, 62)[1 + j]
        assert ref_L / 2 <= cert.extra["L_star"] < ref_L
        # the floor bounds the grid minimum at every slower length
        floor = cert.extra["floor"]
        assert floor <= cert.min_scalar
        for slower in (2.0 * ref_L, 4.0 * ref_L):
            assert per_row_grid(path, 7, (60, 60), slower).min() >= floor
        assert cert.to_json()["extra"] == cert.extra

    def test_failure_matches_per_row_reference(self):
        # psc at both ends, not in the middle: no length helps
        path = middle_bulge_path()
        with pytest.raises(CertificationFailedError, match="L=64>") as err:
            slowdown_concordance(path, 7, grid_shape=(60, 60))
        best = err.value.best_margin
        assert np.isfinite(best) and best < 0
        assert best == pytest.approx(
            per_row_grid(path, 7, (60, 60), 64.0).min(), rel=1e-12)

    @pytest.mark.parametrize("R_sigma, Q, L, L_star", [
        ([1.0, 2.0, 4.0], [2.25, -5.0, 4.0], 2.0, 1.5),
        ([1.0, 0.5], [16.0, 2.0], 8.0, 4.0),
        ([0.5, 3.0], [0.5, 0.0], 2.0, 1.0),
        ([1.0, 2.0], [-1.0, 0.0], 1.0, 0.0),
        ([1.0, 4.0], [0.25, 3.0], 1.0, np.sqrt(0.75)),
        ([-1.0, 0.0, 1.0], [100.0, 7.0, 0.5], 1.0, np.sqrt(0.5)),
    ], ids=["L-star", "exact-4k", "exact-1", "no-positive-Q",
            "below-one", "non-positive-R-ignored"])
    def test_length_in_closed_form(self, R_sigma, Q, L, L_star):
        R_sigma, Q = np.array(R_sigma), np.array(Q)
        assert curvature._slowdown_length(R_sigma, Q) == (L, L_star)
        # L passes wherever R_sigma > 0, and L/2 does not
        pos = R_sigma > 0
        assert np.all(R_sigma[pos] - Q[pos] / L ** 2 > 0)
        if L > 1:
            assert np.any(R_sigma[pos] - Q[pos] / (L / 2) ** 2 <= 0)

    @pytest.mark.parametrize("Q", [[np.nan, 1.0], [np.inf, 1.0]])
    def test_non_finite_length_raises(self, Q):
        with pytest.raises(CertificationFailedError,
                           match="no finite slowdown length"):
            curvature._slowdown_length(np.array([1.0, 1.0]), np.array(Q))

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
        lam, eta, cert = slowdown_concordance(path, 7, grid_shape=(ns, 30))
        assert cert.passed and eta.b > 1.0
        # one smoothstep for the sigma rows, one of the returned length, and
        # one path call per distinct sigma
        assert rounds == [1.0, eta.b] == [1.0, 1.0 / lam]
        assert len(calls) <= 3 * ns + 2
        assert len(set(calls)) == len(calls) == cert.extra["profiles"]
        assert {0.0, 1.0} <= set(calls)

    def test_non_positive_middle_profile_raises(self):
        (f,) = round_to_double_torpedo()(0.0).profiles

        def path(sig):
            # positive at both ends, negative around sigma = 1/2
            return WarpedSphereMetric(
                7, LinearCombination([(1.0 - 8.0 * sig * (1 - sig), f)]),
                open_profile=True)

        with pytest.raises(SingularProfileError):
            slowdown_concordance(path, 7, grid_shape=(20, 20))

    def test_non_psc_path_rejected(self):
        b = np.pi / 3
        f = SmoothFn1D(b, [SinePiece((0.0, b), 0.5, 3.0)])

        def path(sig):
            return WarpedSphereMetric(7, f, open_profile=True)

        with pytest.raises(CertificationFailedError):
            slowdown_concordance(path, 7, grid_shape=(10, 10))

    def test_nan_start_metric_rejected(self, nan_profile):
        # a NaN minimum must not pass the end metrics' psc check
        inner = round_to_double_torpedo()

        def path(sig):
            if sig == 0.0:
                return WarpedSphereMetric(
                    7, nan_profile(*inner(0.0).profiles), open_profile=True)
            return inner(sig)

        with pytest.raises(CertificationFailedError,
                           match="path start metric is not psc") as err:
            slowdown_concordance(path, 7, grid_shape=(20, 20))
        assert err.value.best_margin is None

    def test_each_path_term_is_evaluated_once(self, monkeypatch):
        path = round_to_double_torpedo()
        f0, f1 = (t for _, t in path(0.5).profiles[0].terms)
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
            return WarpedSphereMetric(m.n, Opaque(*m.profiles),
                                      open_profile=True)

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
                m = WarpedSphereMetric(n_path, *m.profiles, open_profile=True)
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

    @pytest.mark.parametrize("grid_shape, n", [
        ((0, 10), 20), ((10, 0), 20), ((-3, 10), 20), ((20.0, 20), 20),
        ((20, 2.5), 20), ((True, 5), 20), ((3,), 20), (5, 20),
        ((3, 3, 3), 20)])
    def test_bad_grid_or_budget_raises_typed(self, grid_shape, n):
        # the grid is checked before the path is read, the path's n valid
        calls = []

        def path(sig):
            calls.append(sig)
            return round_to_double_torpedo(n=n)(sig)

        with pytest.raises(InvalidSpecError):
            slowdown_concordance(path, n, grid_shape=grid_shape)
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


@pytest.mark.parametrize("build, message", [
    (lambda: WarpedSphereMetric(5, make_torpedo(TorpedoSpec(0.5))),
     r"profile 0 fails F membership: \['f\(b\)=0'"),
    (lambda: make_smoothstep(0.0), "need L > 0"),
], ids=["torpedo-open-at-b", "zero-length-smoothstep"])
def test_argument_checks_raise_typed(build, message):
    with pytest.raises(InvalidSpecError, match=message):
        build()


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
