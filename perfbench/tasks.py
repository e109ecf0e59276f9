"""Task kinds of the four workloads.

A task is a JSON-able dict drawn from ``pool.json``.  For each kind this
module builds the gllab inputs (``prepare``), makes the timed library calls
(``execute``) and turns the result into an *outcome* (``outcome``): either
``{"error": <class name>}`` or ``{"passed": bool, "values": {...}}``.  The
outcome is what the pool stores as the seed-commit reference and what every
run compares against it (``compare``).

Only public gllab names are called here.
"""

from __future__ import annotations

import math
import random

import numpy as np

from gllab import curvature, fnspace, glbend, morsealg, oracle, schedule

# Relative tolerance for comparing floating-point outputs with the stored
# references: |a - b| <= RTOL * max(1, |b|).  Loose enough for a re-ordered
# floating-point sum or another root finder converging to the same point,
# tight enough that any change of algorithm result shows.
RTOL = 1e-6

# The oracle and a closed form agree when |R_fd - R_cf| <= ORACLE_TOL *
# max(1, |R_cf|) (the tolerance of acceptance criterion 05).
ORACLE_TOL = 1e-5


# ---------------------------------------------------------------------------
# input builders (shared with the pool generator)
# ---------------------------------------------------------------------------

def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _rand_unimodular(rng, n):
    """Identity scrambled by 3n random row operations with c in [-2, 2]."""
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.randint(-2, 2)
            for k in range(n):
                m[i][k] += c * m[j][k]
    return m


def scrambled_matrix(rank, gen_seed, factor=1):
    """U1 . diag(1, ..., 1, factor) . U2 with U1, U2 from Random(gen_seed)."""
    rng = random.Random(gen_seed)
    diag = [[(factor if i == rank - 1 else 1) if i == j else 0
             for j in range(rank)] for i in range(rank)]
    return _mat_mul(_mat_mul(_rand_unimodular(rng, rank), diag),
                    _rand_unimodular(rng, rank))


def plan_description(task):
    """MorseDescription of a plan task.

    ``cylinder``: index-3 and index-4 points in dimension 7 joined by the
    scrambled matrix.  ``excess``: index-1 and index-2 points in dimension 6
    (every index-1 point is excess and routes through an auxiliary pair).
    """
    r = task["rank"]
    mat = scrambled_matrix(r, task["gen_seed"], task.get("factor", 1))
    lo, n, flags = (1, 6, {"simply_connected": True}) \
        if task["kind"] == "excess" else (3, 7, {})
    pts = [morsealg.CriticalPoint(f"l{i}", lo, 0.3) for i in range(r)] + \
          [morsealg.CriticalPoint(f"h{i}", lo + 1, 0.7) for i in range(r)]
    return morsealg.MorseDescription(n, pts, {(lo + 1, lo): mat}, flags)


def _round_profile(radius):
    b = radius * np.pi
    return fnspace.SmoothFn1D(
        b, [fnspace.SinePiece((0.0, b), radius, 1.0 / radius)])


def _profile(spec):
    if spec["profile"] == "round":
        return _round_profile(spec["radius"])
    return fnspace.make_torpedo(
        fnspace.TorpedoSpec(spec["delta"], tube_length=spec["tube"]))


def build_chart(spec):
    """(MetricChart, closed-form evaluator x -> R) for a chart spec."""
    kind = spec["kind"]
    if kind == "warped":
        f = _profile(spec)
        m = curvature.WarpedSphereMetric(spec["n"], f, open_profile=True)
        return (oracle.warped_chart(f, spec["n"]),
                lambda x: float(curvature.scalar_warped(m, x[0])))
    if kind == "doubly":
        # u closes at b, v at 0: the round join or a mixed torpedo pair
        if spec["profile"] == "round":
            rad = spec["radius"]
            b = rad * np.pi / 2.0
            u = fnspace.SmoothFn1D(b, [fnspace.SinePiece(
                (0.0, b), rad, 1.0 / rad, phase=np.pi / 2.0)])
            v = fnspace.SmoothFn1D(b, [fnspace.SinePiece(
                (0.0, b), rad, 1.0 / rad)])
        else:
            t = fnspace.TorpedoSpec(spec["delta"], tube_length=spec["tube"])
            v = fnspace.make_torpedo(t)
            u = fnspace.reflect(fnspace.make_torpedo(t))
        m = curvature.DoublyWarpedMetric(spec["p"], spec["q"], u, v,
                                         open_profile=True)
        return (oracle.doubly_warped_chart(u, v, spec["p"], spec["q"]),
                lambda x: float(curvature.scalar_doubly_warped(m, x[0])))
    f = _profile(spec)
    phi = curvature.Phi2D.from_profile(f)
    m = curvature.CylFamilyMetric(spec["qtilde"], phi)
    pad = 0.1 * f.b
    chart = oracle.cyl_family_chart(phi, spec["qtilde"], (0.0, 1.0),
                                    (pad, f.b - pad), step=2e-4)
    return (chart,
            lambda x: float(curvature.scalar_cyl_family(m, x[0], x[1])))


def slowdown_path(task):
    """Linear round -> double-torpedo path of warped metrics on (0, b)."""
    b, n = task["b"], task["n"]
    f0 = _round_profile(b / np.pi)
    f1 = fnspace.make_double_torpedo(task["delta"], b)

    def path(sig):
        return curvature.WarpedSphereMetric(
            n, fnspace.linear_homotopy(f0, f1, sig), open_profile=True)
    return path


def compile_description(task):
    k = task["k"]
    return morsealg.MorseDescription(
        task["n"], [morsealg.CriticalPoint("a", k, 0.3),
                    morsealg.CriticalPoint("b", k + 1, 0.7)],
        {(k + 1, k): [[task["sign"]]]})


# ---------------------------------------------------------------------------
# prepare / execute / outcome
# ---------------------------------------------------------------------------

class Context:
    """Per-run state shared between the tasks of one run.

    ``charts`` caches built charts by id (charts are inputs, built during
    set-up); ``bends`` holds the tilted transition of a straighten round's
    bend task for the isotopy tasks that follow it.
    """

    def __init__(self, pool):
        self.pool = pool
        self.charts = {}
        self.bends = {}

    def chart(self, cid):
        if cid not in self.charts:
            self.charts[cid] = build_chart(self.pool["charts"][cid])
        return self.charts[cid]


def prepare(task, ctx):
    """Build the task's gllab inputs (untimed: part of input generation)."""
    kind = task["kind"]
    if kind in ("cylinder", "excess"):
        return plan_description(task)
    if kind == "compile":
        return (schedule.round_metric(task["n"], task["radius"]),
                compile_description(task))
    if kind == "point":
        chart, closed = ctx.chart(task["chart"])
        return chart, closed, np.asarray(task["x"], dtype=float)
    if kind == "slowdown":
        return slowdown_path(task)
    return None


def execute(task, inp, ctx):
    """The timed library calls of one task; returns the raw result."""
    kind = task["kind"]
    if kind == "demo":
        return schedule.two_surgery_demo(task["n"], task["p"], task["radius"])
    if kind == "compile":
        g0, desc = inp
        sched = schedule.compile_gl_cobordism(g0, desc)
        return sched, schedule.compile_reverse(sched, desc)
    if kind == "bend":
        consts = glbend.BendConstants(R0=task["R0"], q=task["q"])
        prefix = glbend.initial_bend(consts, r1=task["r1"])
        trans = glbend.synth_transition(consts, r0=task["r0"],
                                        theta0=prefix[1])
        profile = glbend.assemble_gamma(consts, prefix, trans)
        params = trans[0]
        tilted = glbend.final_bending_tilt(trans, params.C2)
        ctx.bends[task["config"]] = (tilted, params)
        return profile, params
    if kind == "isotopy":
        tilted, params = ctx.bends[task["config"]]
        _family, margins = glbend.final_isotopy(
            tilted, (params.r0, params.m0), [task["s"]])
        return margins[0]
    if kind == "point":
        chart, closed, x = inp
        return oracle.scalar_from_chart(chart, x), closed(x)
    if kind == "slowdown":
        return curvature.slowdown_concordance(inp, task["n"])
    # cylinder / excess: the morsealg pipeline
    desc = inp
    cc = morsealg.build_chain_complex(desc)
    exact = morsealg.check_cylinder_exactness(cc)
    bases = morsealg.choose_cancelling_bases(cc)
    plan = morsealg.cancellation_plan(desc)
    return desc, exact, bases, plan


def outcome(task, raw):
    """Outcome dict of a finished task, with the benchmark's own checks."""
    kind = task["kind"]
    if kind == "demo":
        return {"passed": bool(raw.passed),
                "values": {"stages": [st["id"] for st in raw.stages],
                           "minima": [st["certificate"].min_scalar
                                      for st in raw.stages]}}
    if kind == "compile":
        sched, (rsched, rep) = raw
        segs = sched.segments
        return {"passed": bool(all(s.certificate.passed for s in segs)
                               and rep["identity"]),
                "values": {"kinds": [s.kind for s in segs],
                           "minima": [s.certificate.min_scalar for s in segs],
                           "reverse_kinds": [s.kind for s in rsched.segments],
                           "identity": bool(rep["identity"]),
                           "deviation": rep["max_profile_deviation"]}}
    if kind == "bend":
        profile, params = raw
        cert = profile.certificate
        return {"passed": bool(cert.passed),
                "values": {"min": cert.min_scalar,
                           "theta0": profile.theta0,
                           "r_inf": profile.landmarks["r_inf"],
                           "tinf": params.tinf}}
    if kind == "isotopy":
        return {"passed": bool(raw > 0), "values": {"margin": float(raw)}}
    if kind == "point":
        fd, cf = raw
        return {"passed": bool(abs(fd - cf) <= ORACLE_TOL * max(1.0, abs(cf))),
                "values": {"fd": float(fd), "cf": float(cf)}}
    if kind == "slowdown":
        lam, eta, cert = raw
        return {"passed": bool(cert.passed),
                "values": {"lam": float(lam), "L": float(eta.b),
                           "min": cert.min_scalar}}
    desc, exact, bases, plan = raw
    return plan_outcome(desc, exact, bases, plan)


# ---------------------------------------------------------------------------
# plan checks: exact integer identities computed by the benchmark itself
# ---------------------------------------------------------------------------

def det_bareiss(m):
    """Exact integer determinant by fraction-free Bareiss elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def plan_outcome(desc, exact, bases, plan):
    """Plan shape, invariant factors and the identity checks.

    ``choose_cancelling_bases`` returns t and s^-1 (not s), so s M t = d and
    s s^-1 = I are checked in the equivalent form M t = s^-1 d with
    |det s^-1| = |det t| = 1, together with d(b_i) = z_i.
    """
    problems = []
    factors = []
    for k, base in sorted(bases.items()):
        mat = desc.matrix(k, k - 1)
        t, s_inv = base["t"], base["s_inv"]
        r = len(base["b"])
        factors.extend([1] * r)
        d = [[1 if (i == j and i < r) else 0 for j in range(len(t))]
             for i in range(len(s_inv))]
        if _mat_mul(mat, t) != _mat_mul(s_inv, d):
            problems.append(f"d_{k}: M t != s^-1 d")
        if abs(det_bareiss(t)) != 1 or abs(det_bareiss(s_inv)) != 1:
            problems.append(f"d_{k}: transform not unimodular")
        if abs(base["det_s"]) != 1 or abs(base["det_t"]) != 1:
            problems.append(f"d_{k}: reported det not +-1")
        for bvec, zvec in zip(base["b"], base["z"]):
            img = [sum(row[j] * bvec[j] for j in range(len(bvec)))
                   for row in mat]
            if img != zvec:
                problems.append(f"d_{k}: d(b) != z")
                break
    covered = plan.covered_ids()
    ids = [pt.id for pt in desc.points]
    if sorted(c for c in covered if c in set(ids)) != sorted(ids):
        problems.append("plan does not cover every id exactly once")
    if any(st["certificate"] not in (1, -1) for st in plan.steps):
        problems.append("non-unit step certificate")
    return {"passed": not problems,
            "values": plan_values(exact, factors, plan),
            **({"problems": problems} if problems else {})}


def plan_values(exact, factors, plan):
    """Reference values of a plan task: exactness, factors, plan shape."""
    kinds = {}
    for st in plan.steps:
        kinds[st["kind"]] = kinds.get(st["kind"], 0) + 1
    return {"exact": bool(exact), "factors": factors,
            "steps": len(plan.steps),
            "aux_points": len(plan.auxiliary_points), "kinds": kinds}


# ---------------------------------------------------------------------------
# reference comparison
# ---------------------------------------------------------------------------

def _close(a, b):
    if isinstance(b, bool) or isinstance(a, bool):
        return a is b or a == b
    if isinstance(b, (int, float)) and isinstance(a, (int, float)):
        if isinstance(b, float) or isinstance(a, float):
            if not (math.isfinite(a) and math.isfinite(b)):
                return a == b
            return abs(a - b) <= RTOL * max(1.0, abs(b))
        return a == b
    if isinstance(b, list) and isinstance(a, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(b, dict) and isinstance(a, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in b)
    return a == b


def compare(out, ref):
    """True when an outcome agrees with its stored reference."""
    if "error" in ref or "error" in out:
        return out.get("error") == ref.get("error")
    return out["passed"] == ref["passed"] and _close(out["values"],
                                                      ref["values"])
