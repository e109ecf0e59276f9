"""Top-level acceptance gate: one test per release criterion.

Each test states its tolerance inline and emits exactly one pass/fail
line under ``pytest -v``.
"""

import json
import time
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

import gllab.hypersurface as hyp
from gllab.cli import main as cli_main
from gllab.curvature import (DoublyWarpedMetric, WarpedSphereMetric,
                             scalar_doubly_warped, scalar_warped,
                             slowdown_concordance)
from gllab.errors import NoIntegralBasisError
from gllab.fnspace import (SinePiece, SmoothFn1D, TorpedoSpec,
                           check_U_membership, check_V_membership,
                           linear_homotopy, make_double_torpedo,
                           make_torpedo, reflect)
from gllab.glbend import (BendConstants, assemble_gamma, check_diffkeqn,
                          final_bending_tilt, final_isotopy, initial_bend,
                          mu_inequality, synth_transition)
from gllab.hypersurface import (ModelAmbient, PairSumCoefficientNote,
                                connected_sum_foliation, gauss_scalar_on_M,
                                induced_metric_on_M, mixed_torpedo_via_J)
from gllab.morsealg import (CriticalPoint, MorseDescription,
                            build_chain_complex, cancellation_plan,
                            check_cylinder_exactness,
                            choose_cancelling_bases)
from gllab.oracle import (cyl_family_chart, doubly_warped_chart,
                          euclidean_chart, geodesic_sphere_fit,
                          perturbed_quadratic_chart,
                          round_sphere_normal_chart, scalar_from_chart,
                          warped_chart)


def round_profile(radius=1.0, b=None):
    b = radius * np.pi if b is None else b
    return SmoothFn1D(b, [SinePiece((0.0, b), radius, 1.0 / radius)])


def model_gamma(q):
    consts = BendConstants(R0=1.5, q=q)
    prefix = initial_bend(consts, r1=0.5)
    trans = synth_transition(consts, r0=0.2, theta0=prefix[1])
    return consts, trans, assemble_gamma(consts, prefix, trans)


def test_criterion_01_round_sphere_pin():
    """R = 42 for the unit round 7-sphere at 1000 points, rel 1e-9, < 1 s."""
    m = WarpedSphereMetric(7, round_profile())
    t = np.linspace(0.0, np.pi, 1001)
    tic = time.perf_counter()
    R = scalar_warped(m, t)
    elapsed = time.perf_counter() - tic
    assert np.max(np.abs(R - 42.0)) < 1e-9 * 42.0
    assert elapsed < 1.0


@pytest.mark.parametrize("delta", [0.25, 0.5, 1.0])
def test_criterion_02_torpedo_pins(delta):
    """Tube 30/d^2 and tip 42/d^2 pins (rel 1e-8); blend never dips below."""
    spec = TorpedoSpec(delta)
    f = make_torpedo(spec)
    m = WarpedSphereMetric(7, f, open_profile=True)
    tube_val = 30.0 / delta ** 2
    w = spec.blend_width
    cap_end = delta * np.pi / 2
    tube = np.linspace(cap_end + w + 1e-9, f.b, 200)
    assert np.max(np.abs(scalar_warped(m, tube) - tube_val)) \
        < 1e-8 * tube_val
    tip = float(scalar_warped(m, 0.0))
    assert abs(tip - 42.0 / delta ** 2) < 1e-8 * 42.0 / delta ** 2
    blend = np.linspace(cap_end - 2 * w, cap_end + w, 400)
    assert float(np.min(scalar_warped(m, blend))) >= tube_val - 1e-8


@pytest.mark.parametrize("p,q", [(2, 4), (3, 3), (1, 5)])
def test_criterion_03_doubly_warped_round_pin(p, q):
    """u = cos, v = sin reproduces n(n-1), rel 1e-9."""
    b = np.pi / 2
    u = SmoothFn1D(b, [SinePiece((0.0, b), 1.0, 1.0, phase=np.pi / 2)])
    v = SmoothFn1D(b, [SinePiece((0.0, b), 1.0, 1.0)])
    m = DoublyWarpedMetric(p, q, u, v)
    n = p + q + 1
    t = np.linspace(0.0, b, 513)[1:-1]
    R = scalar_doubly_warped(m, t)
    assert np.max(np.abs(R - n * (n - 1))) < 1e-9 * n * (n - 1)


def test_criterion_04_uv_positivity_sweep():
    """100 random membership-passing (u, v) pairs all have min R > 0."""
    rng = np.random.default_rng(20260823)

    def draw_u(b):
        if rng.random() < 0.5:
            rho = 2.0 * b / np.pi
            return SmoothFn1D(
                b, [SinePiece((0.0, b), rho, 1.0 / rho, phase=np.pi / 2)])
        delta = rng.uniform(0.2, 0.5)
        spec = TorpedoSpec(delta, tube_length=b - 5 * delta * np.pi / 8)
        return reflect(make_torpedo(spec))

    def draw_v(b):
        if rng.random() < 0.5:
            rho = 2.0 * b / np.pi
            return SmoothFn1D(b, [SinePiece((0.0, b), rho, 1.0 / rho)])
        delta = rng.uniform(0.2, 0.5)
        spec = TorpedoSpec(delta, tube_length=b - 5 * delta * np.pi / 8)
        return make_torpedo(spec)

    accepted = 0
    attempts = 0
    while accepted < 100:
        attempts += 1
        assert attempts < 400
        b = rng.uniform(2.0, 4.0)
        u, v = draw_u(b), draw_v(b)
        # membership gate runs first; only members reach the scan
        if not (check_U_membership(u).passed and
                check_V_membership(v).passed):
            continue
        p = int(rng.integers(1, 4))
        q = int(rng.integers(2, 5))
        m = DoublyWarpedMetric(p, q, u, v)
        t = np.linspace(0.0, b, 600)[1:-1]
        assert float(np.min(scalar_doubly_warped(m, t))) > 0
        accepted += 1
    # a pair outside the class is rejected by the checker itself
    bad_u = make_torpedo(TorpedoSpec(0.3, tube_length=1.0))
    assert not check_U_membership(bad_u).passed


def test_criterion_05_oracle_equivalence():
    """Finite-difference engine matches closed forms, rel 1e-5, 2nd order."""
    tic = time.perf_counter()
    rng = np.random.default_rng(5)
    f = round_profile()

    charts = []
    ch_w = warped_chart(f, 4)
    m_w = WarpedSphereMetric(4, f)
    charts.append((ch_w, lambda x: float(scalar_warped(m_w, x[0]))))

    b = np.pi / 2
    u = SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0, phase=np.pi / 2)])
    v = SmoothFn1D(b, [SinePiece((0, b), 1.0, 1.0)])
    ch_dw = doubly_warped_chart(u, v, 2, 2)
    m_dw = DoublyWarpedMetric(2, 2, u, v)
    charts.append((ch_dw, lambda x: float(scalar_doubly_warped(m_dw, x[0]))))

    from gllab.curvature import CylFamilyMetric, Phi2D, scalar_cyl_family
    phi = Phi2D.from_profile(f)
    cyl = CylFamilyMetric(2, phi)
    ch_c = cyl_family_chart(phi, 2, (0.0, 1.0), (0.5, np.pi - 0.5),
                            step=2e-4)
    charts.append((ch_c, lambda x: float(scalar_cyl_family(cyl, x[0], x[1]))))

    for ch, closed in charts:
        for _ in range(500):
            x = np.array([rng.uniform(lo + 0.05 * (hi - lo),
                                      hi - 0.05 * (hi - lo))
                          for lo, hi in ch.rectangle])
            R_fd = scalar_from_chart(ch, x)
            R_cf = closed(x)
            assert abs(R_fd - R_cf) < 1e-5 * max(1.0, abs(R_cf))

    # step-halving: error drops by ~4x (second-order scheme)
    x = np.array([1.2, 0.9, 1.1, 0.8])
    exact = float(scalar_warped(m_w, x[0]))
    e1 = scalar_from_chart(ch_w.with_step(2e-3), x) - exact
    e2 = scalar_from_chart(ch_w.with_step(1e-3), x) - exact
    assert 3.5 < abs(e1 / e2) < 4.5
    assert time.perf_counter() - tic < 60.0


def test_criterion_06_geodesic_sphere_fits():
    """Leading mean-curvature coefficient -1; round sphere matches -cot."""
    for ch in (euclidean_chart(3), perturbed_quadratic_chart()):
        fit = geodesic_sphere_fit(ch, np.zeros(3), [0.1, 0.15, 0.2])
        assert abs(fit["c_m1"] + 1.0) < 1e-4
    fit = geodesic_sphere_fit(round_sphere_normal_chart(), np.zeros(3),
                              [0.05, 0.1, 0.2, 0.3])
    for eps in np.linspace(0.05, 0.3, 11):
        model = fit["c_m1"] / eps + fit["c_1"] * eps
        assert abs(model - (-1.0 / np.tan(eps))) < 1e-3


def test_criterion_07_gauss_identity_on_model():
    """Extrinsic and intrinsic scalar agree at 1e4 samples, rel 1e-6."""
    _, _, profile = model_gamma(3)
    amb = ModelAmbient(p=2, q=3, epsilon=0.3)
    metric = induced_metric_on_M(profile, amb)
    s = np.linspace(0.0, profile.curve.length, 10002)[1:-1]
    hyp._note_emitted = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        Rg = gauss_scalar_on_M(profile, amb, s)
        gauss_scalar_on_M(profile, amb, s[:100])   # second call: no new note
    Ri = scalar_doubly_warped(metric, s)
    rel = np.abs(Rg - Ri) / np.maximum(1.0, np.abs(Ri))
    assert float(rel.max()) < 1e-6
    notes = [w for w in caught
             if issubclass(w.category, PairSumCoefficientNote)]
    assert len(notes) == 1


@pytest.mark.parametrize("q", [2, 3, 4])
def test_criterion_08_gamma_certification(q):
    """Curve inequality positive at 1e4 samples; C2 residuals < 1e-8."""
    _, trans, profile = model_gamma(q)
    cert = profile.certify(n_samples=10000)
    assert cert.passed and cert.min_scalar > 0
    _params, f = trans
    assert check_diffkeqn(f) > 0
    for left, right in zip(f.pieces, f.pieces[1:]):
        t = left.interval[1]
        for lv, rv in zip(left.jet(t, 2), right.jet(t, 2)):
            lv, rv = float(lv), float(rv)
            assert abs(lv - rv) < 1e-8 * max(1.0, abs(lv), abs(rv))


def test_criterion_09_isotopy_inequalities():
    """Cubic inequality nonnegative on the grid; straightening margins > 0."""
    mu = np.linspace(0.0, 1.0, 101)
    bgrid = np.linspace(0.0, 0.25, 102)[:-1]       # b < 1/4
    vals = mu_inequality(mu[None, :], bgrid[:, None])
    assert float(vals.min()) >= 0.0
    zero = np.isclose(vals, 0.0, atol=1e-12)
    rows, cols = np.nonzero(zero)
    assert len(rows) > 0 and np.all(cols == 100)   # only at mu = 1
    _, trans, _ = model_gamma(3)
    params, _f = trans
    tilted = final_bending_tilt(trans, params.C2)
    _family, margins = final_isotopy(tilted, (params.r0, params.m0),
                                     np.linspace(0.0, 1.0, 21))
    assert len(margins) == 21 and min(margins) > 0


def test_criterion_10_mixed_torpedo_embedding_identity():
    """Pullback through the model embedding deviates < 1e-9, 5 param sets."""
    cases = [(0.25, 0.25, 2.0, 2.0, 0.5), (0.3, 0.2, 2.5, 2.0, 0.6),
             (0.2, 0.3, 2.0, 2.5, 0.4), (0.15, 0.15, 1.5, 1.5, 0.3),
             (0.4, 0.25, 3.0, 2.0, 0.8)]
    for eps, delta, c1, c2, R in cases:
        _m, rep = mixed_torpedo_via_J(eps, delta, c1, c2, R)
        assert rep["max_deviation"] < 1e-9


def test_criterion_11_connected_sum_foliation():
    """21-leaf (2,4) family: every leaf a member, min R > 0 throughout."""
    family, cert = connected_sum_foliation(
        1.0, 0.4, tau=0.05, nu_grid=np.linspace(0.0, 1.0, 21),
        eps=0.25, delta_p=0.25, p=2, q=4)
    assert cert.passed
    # the certificate as recorded when the corner entered as a curve
    assert cert.to_json() == {
        "grid": "21 leaves x 401 samples", "min_scalar": 224.0,
        "tolerance": 0.0, "label": "connected-sum foliation", "passed": True,
        "extra": {"argmin_nu": 0.7000000000000001,
                  "argmin_t": 0.512597320457056,
                  "per_leaf_min": [
                      16832.17263021997, 5845.658625240447, 2949.716987194416,
                      1782.011418119267, 1198.3486391195863,
                      862.2846115558535, 651.0675599279656, 515.6536102215638,
                      428.7241247699059, 374.1309134407287,
                      341.60709947764815, 288.058649601344,
                      262.13109169358574, 230.210817238842, *[224.0] * 7]}}
    assert len(family.leaves) == 21
    assert all(mn > 0 for mn in cert.extra["per_leaf_min"])
    for u, v in family.leaves:
        assert check_U_membership(u).passed
        assert check_V_membership(v).passed


def test_criterion_12_handle_algebra():
    """Exactness suite, unimodular bases, rejections, plan shapes."""
    import random

    def mat_mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def rand_unimod(n, rng):
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(3 * n):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-2, 2)
                for k in range(n):
                    m[i][k] += c * m[j][k]
        return m

    for case in range(20):
        rng = random.Random(case)
        r = 1 + case % 4
        eye = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        M = mat_mul(mat_mul(rand_unimod(r, rng), eye), rand_unimod(r, rng))
        pts = [CriticalPoint(f"l{i}", 3, 0.3) for i in range(r)] + \
              [CriticalPoint(f"h{i}", 4, 0.7) for i in range(r)]
        desc = MorseDescription(7, pts, {(4, 3): M})
        cc = build_chain_complex(desc)           # enforces boundary^2 = 0
        assert check_cylinder_exactness(cc)
        bases = choose_cancelling_bases(cc)
        assert abs(bases[4]["det_s"]) == 1 and abs(bases[4]["det_t"]) == 1
        plan = cancellation_plan(desc)
        assert len(plan.steps) == r

    two = MorseDescription(7, [CriticalPoint("w", 3, 0.25),
                               CriticalPoint("z", 4, 0.75)], {(4, 3): [[1]]})
    assert len(cancellation_plan(two).steps) == 1
    with pytest.raises(NoIntegralBasisError):
        choose_cancelling_bases(build_chain_complex(
            MorseDescription(7, two.points, {(4, 3): [[2]]})))
    excess = MorseDescription(
        6, [CriticalPoint("x", 1, 0.3), CriticalPoint("y", 2, 0.7)],
        {(2, 1): [[1]]}, {"simply_connected": True})
    plan = cancellation_plan(excess)
    assert len(plan.auxiliary_points) == 2       # exactly one insertion


def test_criterion_13_end_to_end_demo(tmp_path):
    """demo --n 7 --p 2 certifies every stage in < 120 s; bad q rejected."""
    runner = CliRunner()
    tic = time.perf_counter()
    res = runner.invoke(cli_main, ["--output-dir", str(tmp_path),
                                   "demo", "--n", "7", "--p", "2"])
    elapsed = time.perf_counter() - tic
    assert res.exit_code == 0
    assert elapsed < 120.0
    report = json.loads((tmp_path / "demo_report.json").read_text())
    assert report["passed"] is True
    assert all(s["certificate"]["min_scalar"] > 0 for s in report["stages"])
    res2 = runner.invoke(cli_main, ["demo", "--n", "7", "--p", "4"])
    assert res2.exit_code == 2


def test_criterion_14_concordance_slowdown():
    """A slowdown factor is found for the round-to-double-torpedo path."""
    b = 6.0
    f0 = round_profile(radius=b / np.pi, b=b)
    f1 = make_double_torpedo(0.5, b)

    def path(sig):
        return WarpedSphereMetric(7, linear_homotopy(f0, f1, sig),
                                  open_profile=True)

    lam, eta, cert = slowdown_concordance(path, 7, grid_shape=(200, 200))
    assert cert.passed and cert.min_scalar > 0
    assert lam > 0
    assert np.isclose(eta.b, 1.0 / lam)
