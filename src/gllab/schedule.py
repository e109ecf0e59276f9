"""Compilation of handle data into certified construction schedules.

A schedule is an ordered list of segments, each transforming a symbolic
metric descriptor (a kind and its profiles' parameters, never a full
tensor field) and carrying a numeric positivity certificate:

* ``product-extension`` — carry the metric along the gradient flow between
  critical levels; certificate is the incoming metric's own positivity.
* ``standardize`` — linear profile homotopy from the incoming rotationally
  symmetric form to a mixed-torpedo form near the surgery sphere, with the
  cap radius delta found by geometric halving.
* ``handle-attach`` — the bent-curve construction through the handle, with
  the curve-inequality certificate and the curve's landmarks recorded.
* ``transition-smoothing`` — the joint between consecutive critical
  levels.  It computes no step: its end is its start, and it carries the
  previous segment's certificate.

Everything is deterministic.  ``compile_gl_cobordism`` and
``compile_reverse`` build a schedule from a Morse description;
``two_surgery_demo`` compiles its first handle over the round sphere, then
adds the cancelling surgery and the return chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

# pmap stays bound here for the benchmark self-check, which reads schedule.pmap
from .certify import (IsotopyCertificate, _halving_search, family_certificate,
                      pmap, write_csv)
from .curvature import (WarpedProduct, WarpedSphereMetric,
                        _quotients_from_jets, _scalar)
from .errors import (CertificationFailedError, CompilationFailedError,
                     DemoFailedError, HypothesisViolationError,
                     InvalidSpecError, _check_ints, _finite_reals)
from .fnspace import (SinePiece, SmoothFn1D, _family_jets, _torpedo_on,
                      make_double_torpedo, make_torpedo, reflect, sample_grid)
from .glbend import (BendConstants, assemble_gamma, initial_bend,
                     synth_transition)
from .hypersurface import connected_sum_foliation, mixed_torpedo_via_J
from .morsealg import CriticalPoint, MorseDescription, check_admissible

__all__ = [
    "MetricDescriptor",
    "Segment",
    "Schedule",
    "DemoReport",
    "compile_gl_cobordism",
    "compile_reverse",
    "two_surgery_demo",
    "round_metric",
    "round_doubly_warped",
    "write_schedule_csv",
]


# ---------------------------------------------------------------------------
# descriptors and schedule structure
# ---------------------------------------------------------------------------

@dataclass
class MetricDescriptor:
    """Symbolic metric state: a kind tag plus JSON-able parameters."""

    kind: str
    params: dict = field(default_factory=dict)

    def to_json(self):
        return {"kind": self.kind, "params": self.params}


@dataclass
class Segment:
    """One schedule step: kind, parameters, start/end descriptors, proof."""

    kind: str
    parameters: dict
    start: MetricDescriptor
    end: MetricDescriptor
    certificate: IsotopyCertificate

    KINDS = ("product-extension", "standardize", "handle-attach",
             "transition-smoothing")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise InvalidSpecError(f"unknown segment kind {self.kind!r}")

    def to_json(self):
        return {"kind": self.kind, "parameters": self.parameters,
                "start": self.start.to_json(), "end": self.end.to_json(),
                "certificate": self.certificate.to_json()}


@dataclass
class Schedule:
    """Certified segment chain; descriptors must match end-to-start."""

    segments: list

    def __post_init__(self):
        for a, b in zip(self.segments, self.segments[1:]):
            if a.end != b.start:
                raise InvalidSpecError(
                    f"segment chaining broken between {a.kind!r} and "
                    f"{b.kind!r}")
        bad = [s.kind for s in self.segments if not s.certificate.passed]
        if bad:
            raise CertificationFailedError(
                f"segments with failing certificates: {bad}")

    @property
    def min_scalar(self):
        return min((s.certificate.min_scalar for s in self.segments),
                   default=np.inf)

    def to_json(self):
        return {"segments": [s.to_json() for s in self.segments],
                "min_scalar": self.min_scalar if self.segments else None}

    def dumps(self):
        return json.dumps(self.to_json(), sort_keys=True)


def write_schedule_csv(schedule, path_or_buf):
    """Stage-by-stage curvature minima: columns index,kind,min_scalar."""
    write_csv(path_or_buf, "index,kind,min_scalar",
              [(i, seg.kind, seg.certificate.min_scalar)
               for i, seg in enumerate(schedule.segments)])


# ---------------------------------------------------------------------------
# round building blocks
# ---------------------------------------------------------------------------

def _sine_profile(radius, angle, phase=0.0):
    """radius*sin(t/radius + phase) on (0, radius*angle), radius > 0.  For
    phase 0 or pi/2 and angle pi or pi/2 it is in F, U or V by construction:
    each end closes (f = 0, f' = +-1, f''' = -+1/radius^2) or is open
    (f' = f''' = 0), and f'' = -f/radius^2 <= 0."""
    if not (_finite_reals(radius) and radius > 0):
        raise InvalidSpecError("radius must be positive and finite")
    b = radius * angle
    return SmoothFn1D(b, [SinePiece((0.0, b), radius, 1.0 / radius, phase)])


def round_metric(n, radius=1.0):
    """The round n-sphere (n >= 3) of the given radius as a warped metric,
    its profile in F by construction (``_sine_profile``)."""
    return WarpedSphereMetric(n, _sine_profile(radius, np.pi),
                              open_profile=True)


def round_doubly_warped(p, q, radius=1.0):
    """The round (p+q+1)-sphere split over the S^p x S^q join.

    u = radius*cos(t/radius), v = radius*sin(t/radius) on (0, radius*pi/2),
    in U x V by construction (``_sine_profile``).
    """
    u, v = (_sine_profile(radius, np.pi / 2.0, ph) for ph in (np.pi / 2, 0.0))
    return WarpedProduct((p, q), (u, v))


def _mixed_torpedo_profiles(delta, b):
    """(u, v) mixed-torpedo profiles on a common domain (0, b): v is the
    delta-torpedo laid out on (0, b) by ``_torpedo_on`` (closes at 0), u
    its reflection (closes at b), in U x V by construction
    (``make_torpedo``).  No tube left raises ``InvalidSpecError``."""
    v = make_torpedo(_torpedo_on(delta, b))
    return reflect(v), v


def _certify_homotopy(dims, starts, ends):
    """The linear homotopy of warping profiles ``starts`` -> ``ends`` (pair
    i warps a round sphere of dimension ``dims[i]``) on the 11 x N
    (lambda, t) interior grid.  Each pair is one ``_family_jets`` family
    of weights (1 - lambda, lambda), each end's jet taken once, to order 2
    (no sample is at an end), a zero weight skipped entry by entry; all
    lambdas are read, with no end mask, by one ``_quotients_from_jets`` and
    one ``_scalar``: each row is its metric's scalar bit for bit, at
    lambda = 0 and 1 even where the other end reads NaN (``argmin_lambda``,
    ``argmin_t``)."""
    t = sample_grid(starts[0].b, 256, interior=True)
    lams = np.linspace(0.0, 1.0, 11)
    weights = np.stack([1.0 - lams, lams], axis=1)
    combined = [(values, *derivs) for values, derivs in (
        _family_jets(weights, pair, t, 2) for pair in zip(starts, ends))]
    R = _scalar(dims, *_quotients_from_jets(None, None, combined))
    return family_certificate(
        R.reshape(lams.size, t.size), {"lambda": lams[:, None], "t": t},
        "profile homotopy", f"11 x {t.size} (lambda, t) interior grid")


# values of delta, halved from 0.5, that _standardize_search tries
_STANDARDIZE_BUDGET = 20


def _standardize_search(p, q, radius):
    """Halve delta from 0.5 until the round -> mixed-torpedo homotopy
    certifies; a layout that leaves no tube has no margin.

    Returns (delta, (u1, v1), certificate).  u1 is v1 reflected (equal
    caps), and both live on the round join domain.  An exhausted search
    raises CompilationFailedError with its best margin.
    """
    g = round_doubly_warped(p, q, radius)

    def attempt(delta):
        try:  # no tube left on the round join domain
            ends = _mixed_torpedo_profiles(delta, g.b)
        except InvalidSpecError:
            return None, None
        cert = _certify_homotopy(g.dims, g.profiles, ends)
        return cert.min_scalar, (delta, ends, cert)

    best, found = _halving_search(0.5, attempt, _STANDARDIZE_BUDGET)
    if found is None:
        raise CompilationFailedError(
            f"standardization delta search exhausted (budget "
            f"{_STANDARDIZE_BUDGET}, best margin {best})", best_margin=best)
    return found


def _handle_attach(cert, q):
    """Certified bent curve through a handle with fiber S^q (r1 = 0.5,
    r0 = 0.2), taking R0 = cert.min_scalar / (2q) from the incoming margin."""
    consts = BendConstants(R0=cert.min_scalar / (2.0 * q), q=q)
    prefix = initial_bend(consts, r1=0.5)
    trans = synth_transition(consts, r0=0.2, theta0=prefix[1])
    return assemble_gamma(consts, prefix, trans)


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

def _is_well_indexed(desc):
    level_of = {}
    for pt in desc.points:
        level_of.setdefault(pt.index, set()).add(pt.level)
    if any(len(v) > 1 for v in level_of.values()):
        return False
    idxs = sorted(level_of)
    levels = [next(iter(level_of[k])) for k in idxs]
    return all(a < b for a, b in zip(levels, levels[1:]))


# factors of g0 -> (kind, dimension params, profile keys, round radius of b)
_G0_FORMS = {1: ("warped", lambda g: {"n": g.n}, "f", lambda b: b / np.pi),
             2: ("doubly-warped", lambda g: dict(zip("pq", g.dims)), "uv",
                 lambda b: b * 2.0 / np.pi)}


def _read_g0(g0, n):
    """(certificate, descriptor, radius) of the incoming metric.

    g0 must be a warped product of one or two round factors of dimension n
    (``InvalidSpecError``, before any sampling).  The certificate is g0's
    interior-grid positivity (``argmin_t``); the radius is exact for a
    round g0 and a domain scale otherwise.
    """
    form = isinstance(g0, WarpedProduct) and _G0_FORMS.get(len(g0.dims))
    if not form:
        raise InvalidSpecError(
            "g0 must be a warped product of one or two round factors")
    if g0.n != n:
        raise InvalidSpecError(
            f"g0 has dimension {g0.n} but the description has n = {n}")
    kind, dims, keys, radius = form
    t = sample_grid(g0.b, 512, interior=True)
    cert = family_certificate(g0.scalar(t), {"t": t}, "incoming metric",
                              f"{t.size} interior samples")
    if not cert.passed:
        raise CertificationFailedError(
            f"g0 is not certified psc (min R = {cert.min_scalar:.6g})",
            best_margin=cert.min_scalar)
    params = {**dims(g0),
              **{k: f.to_json() for k, f in zip(keys, g0.profiles)}}
    return cert, MetricDescriptor(kind, params), radius(g0.b)


def compile_gl_cobordism(g0, desc):
    """Compile Morse data over a psc metric into a certified schedule.

    Per critical point (in level order): a product extension to the critical
    level, a standardization homotopy to the mixed-torpedo form near the
    surgery sphere (delta halved until certified), and the handle attachment
    with its curve-inequality certificate; consecutive critical levels are
    joined by a transition-smoothing segment, which computes no step and
    carries the previous segment's certificate.  g0 must have the
    description's dimension n (``InvalidSpecError`` otherwise); an index-0
    point, which has no surgery sphere, raises ``HypothesisViolationError``.
    """
    if not check_admissible(desc):
        raise HypothesisViolationError(
            "description is not admissible (some index exceeds n - 2)")
    if any(pt.index == 0 for pt in desc.points):
        raise HypothesisViolationError(
            "an index-0 point has no surgery sphere (it adds a component)")
    if not _is_well_indexed(desc):
        raise InvalidSpecError(
            "description must be well-indexed (run well_index first)")
    n = desc.n
    g0_cert, state, radius = _read_g0(g0, n)
    segments = []
    points = sorted(desc.points, key=lambda pt: (pt.level, pt.id))
    if not points:
        seg = Segment("product-extension", {"span": [0.0, 1.0]},
                      state, state, g0_cert)
        return Schedule([seg])
    prev_level = 0.0
    for i, pt in enumerate(points):
        k = pt.index          # surgery on S^{k-1} x D^{n-k+1}, handle index k
        p_dim = k - 1
        q_dim = n - p_dim - 1  # >= 2, as check_admissible gave k <= n - 2
        if i > 0:
            segments.append(Segment(
                "transition-smoothing",
                {"between_levels": [prev_level, pt.level]},
                state, state, segments[-1].certificate))
        # product extension up to the critical level
        segments.append(Segment(
            "product-extension", {"span": [prev_level, pt.level]},
            state, state, g0_cert))
        # standardize near the surgery sphere
        delta, (u1, v1), std_cert = _standardize_search(p_dim, q_dim, radius)
        # equal caps (eps = delta) on one domain: u and v share one tube
        tube = _torpedo_on(delta, u1.b).tube_length
        std = MetricDescriptor(
            "mixed-torpedo",
            {"p": p_dim, "q": q_dim, "eps": delta, "delta": delta,
             "tube_u": tube, "tube_v": tube, "b": u1.b})
        segments.append(Segment(
            "standardize", {"delta": delta, "eps": delta}, state, std,
            std_cert))
        state = std
        # attach the handle through the bent curve
        bend = _handle_attach(std_cert, q_dim)
        post = MetricDescriptor(
            "post-surgery",
            {"index": k, "p": p_dim, "q": q_dim,
             "base": std.to_json(), "r_inf": bend.landmarks["r_inf"]})
        segments.append(Segment(
            "handle-attach",
            {"index": k, "delta": delta, "curve_landmarks": bend.landmarks},
            std, post, bend.certificate))
        state = post
        prev_level = pt.level
    return Schedule(segments)


def compile_reverse(schedule, desc):
    """Reverse the schedule's segment order and check its standard forms.

    The dual of an index-k handle has index n + 1 - k, admissible (at most
    n - 2) exactly when k >= 3: a point of lower index raises
    ``HypothesisViolationError``.  The reversed schedule runs the forward
    segments in reverse order, ends swapped, each keeping its certificate;
    nothing is compiled.  Reversal swaps (eps, u) with (delta, v) and t
    with b - t, so it keeps a standard form whose tubes are the one layout
    of its caps on b (``_torpedo_on``, which raises ``InvalidSpecError``
    when b leaves a cap no tube).  The report's ``max_profile_deviation``
    is the largest deviation from that layout over every standardize
    segment (0.0 with none; a NaN is kept), and ``identity`` says it is
    below 1e-8.  Returns (reversed schedule, report).
    """
    if any(pt.index < 3 for pt in desc.points):
        raise HypothesisViolationError(
            "reversed description is not admissible")
    rschedule = Schedule([Segment(seg.kind, dict(seg.parameters), seg.end,
                                  seg.start, seg.certificate)
                          for seg in reversed(schedule.segments)])
    devs = [0.0]
    for seg in schedule.segments:
        if seg.kind == "standardize":
            pr = seg.end.params
            devs += [abs(pr[tube] - _torpedo_on(pr[cap], pr["b"]).tube_length)
                     for tube, cap in (("tube_u", "eps"), ("tube_v", "delta"))]
    dev = float(np.max(devs))
    return rschedule, {"identity": dev < 1e-8, "max_profile_deviation": dev}


# ---------------------------------------------------------------------------
# the two-surgery demo pipeline
# ---------------------------------------------------------------------------

# the mixed torpedo's pullback deviation must be below this (a NaN fails)
_PULLBACK_TOL = 1e-9


@dataclass
class DemoReport:
    """Chained per-stage certificates between two metric descriptors."""

    n: int
    p: int
    q: int
    stages: list                   # [{"id": str, "certificate": cert}]
    endpoints: tuple               # (start descriptor, end descriptor)

    @property
    def passed(self):
        return all(st["certificate"].passed for st in self.stages)

    def to_json(self):
        return {"n": self.n, "p": self.p, "q": self.q,
                "passed": bool(self.passed),
                "stages": [{"id": st["id"],
                            "certificate": st["certificate"].to_json()}
                           for st in self.stages],
                "endpoints": [d.to_json() for d in self.endpoints]}

    def write_csv(self, path_or_buf):
        write_csv(path_or_buf, "stage,min_scalar",
                  [(st["id"], st["certificate"].min_scalar)
                   for st in self.stages])


def two_surgery_demo(n, p, radius=1.0):
    """Round sphere -> two consecutive surgeries -> certified return chain.

    The first three stages are the segments of the schedule compiled for
    the index-(p+1) handle over the round metric: the round metric's own
    certificate, the standardization near S^p and the handle attachment.
    The demo then attaches the cancelling index-(p+2) handle and runs the
    adjustment chain back: a linear profile homotopy to a torpedo form, the
    connected-sum foliation isotopy, and the mixed-torpedo pullback-identity
    check, failing unless the deviation is below ``_PULLBACK_TOL``.  A
    failing stage raises ``DemoFailedError`` with its stage id.  n and p
    must be integers (``errors._check_ints``), else ``InvalidSpecError``.
    """
    # the integer rule alone; each bound below keeps its own error class
    _check_ints(-np.inf, None, n=n, p=p)
    q = n - p - 1
    if p < 1:
        raise InvalidSpecError("need p >= 1")
    if q < 3:
        raise HypothesisViolationError(
            f"two consecutive surgeries need q = n - p - 1 >= 3, got {q}")
    stages = []

    def push(stage_id, cert):
        stages.append({"id": stage_id, "certificate": cert})
        if not cert.passed:
            least = cert.min_scalar
            raise DemoFailedError(
                f"stage {stage_id!r} failed: min scalar {least:.6g}",
                stage=stage_id, best_margin=least)

    # stages 1-3: the compiled first handle (index p+1, fiber S^q) over the
    # round metric; its product extension certifies the round metric itself
    g_round = round_metric(n, radius)
    first = compile_gl_cobordism(
        g_round, MorseDescription(n, [CriticalPoint("h1", p + 1, 0.25)]))
    extend, std, attach = first.segments
    for stage_id, seg in (("round", extend), ("standardize", std),
                          ("surgery-1", attach)):
        push(stage_id, seg.certificate)
    delta = std.parameters["delta"]

    # stage 4: cancelling surgery (handle index p+2, fiber S^{q-1})
    bend2 = _handle_attach(attach.certificate, q - 1)
    push("surgery-2", bend2.certificate)

    # stage 5: linear homotopy of the profile to a torpedo form
    push("f-to-torpedo", _certify_homotopy(
        [n - 1], g_round.profiles, [make_double_torpedo(delta, g_round.b)]))

    # stage 6: connected-sum foliation isotopy from the symmetric corner of
    # edge c = 1 and bend radius R = 0.4; the torpedoes' radii are at most
    # 0.25, so each cap and blend (1.25 * 0.25 pi/2 < 0.5) fits inside c
    cap = min(delta, 0.25)
    _family, fol_cert = connected_sum_foliation(
        1.0, 0.4, tau=0.05, nu_grid=np.linspace(0.0, 1.0, 21),
        eps=cap, delta_p=cap, p=p, q=q)
    push("foliation", fol_cert)

    # stage 7: mixed-torpedo pullback identity and positivity
    m_mtor, rep = mixed_torpedo_via_J(delta, delta, c1=2.0, c2=2.0,
                                      bend_radius=0.5, p=p, q=q)
    dev = rep["max_deviation"]
    if not dev < _PULLBACK_TOL:
        raise DemoFailedError(f"stage 'mtor-endpoint' failed: pullback "
                              f"deviation {dev:.6g}", stage="mtor-endpoint")
    tm = sample_grid(m_mtor.b, 256, interior=True)
    push("mtor-endpoint", family_certificate(
        m_mtor.scalar(tm), {"t": tm}, "mixed torpedo",
        f"{tm.size} interior samples", max_pullback_deviation=dev))

    end = MetricDescriptor(
        "post-surgery",
        {"index": p + 2, "p": p, "q": q, "delta": delta,
         "r_inf_1": attach.end.params["r_inf"],
         "r_inf_2": bend2.landmarks["r_inf"]})
    return DemoReport(n=n, p=p, q=q, stages=stages,
                      endpoints=(extend.start, end))
