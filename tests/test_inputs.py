"""One real-number rule (``errors._finite_reals``) at every real-number input.

Each site keeps its own bound, error class and message.  A bool, a string,
NaN and infinity are refused there with that site's class, and a numpy
scalar or a 0-d array gives the result the Python float gives.  Inputs at
the edges of ``WarpedProduct`` and of the oracle's charts raise
``InvalidSpecError`` too.
"""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from gllab.curvature import (Phi2D, WarpedProduct, make_smoothstep,
                             ricci_warped, slowdown_concordance)
from gllab.errors import (InvalidBendError, InvalidSpecError, OutOfRegimeError,
                          _finite_reals)
from gllab.fnspace import (ConstPiece, LinearCombination, PolyPiece,
                           ReflectPiece, SinePiece, SmoothFn1D, TorpedoSpec,
                           linear_homotopy, make_double_torpedo,
                           make_torpedo, sample_grid)
from gllab.glbend import (ArcSeg, BendConstants, BumpSeg, GraphSeg,
                          assemble_gamma, final_bending_tilt, final_isotopy,
                          initial_bend, quarter_bend_curve, synth_transition)
from gllab.hypersurface import (ModelAmbient, connected_sum_foliation,
                                mixed_torpedo_via_J)
from gllab.morsealg import CriticalPoint, MorseDescription
from gllab.oracle import (MetricChart, cyl_family_chart, doubly_warped_chart,
                          euclidean_chart, scalar_from_chart, warped_chart)
from gllab.schedule import (compile_gl_cobordism, round_doubly_warped,
                            round_metric, two_surgery_demo)

MODEL = BendConstants(R0=1.5, q=3)


class TestPredicate:
    @pytest.mark.parametrize("x", [
        0.5, -3, 0, np.float64(0.5), np.float32(0.25), np.int64(2),
        np.array(0.5), np.array(2), Fraction(1, 3)])
    def test_finite_real_numbers_count(self, x):
        assert _finite_reals(x)
        assert _finite_reals(1.0, x, 2)

    @pytest.mark.parametrize("x", [
        True, False, np.True_, np.array(True), "1", b"1", None, np.nan,
        np.inf, -np.inf, np.array(np.nan), np.float32(np.inf), 1j,
        np.complex128(1.0), [1.0], (1.0,), np.array([1.0]), np.array("1")])
    def test_anything_else_does_not(self, x):
        assert not _finite_reals(x)
        assert not _finite_reals(1.0, x, 2)

    def test_no_arguments_are_all_finite(self):
        assert _finite_reals()


def _jets(f, k=2):
    """A profile's domain and its jet on a fixed grid, as plain data."""
    t = np.linspace(0.0, f.b, 17)
    return [float(f.b), *(np.asarray(d).tolist() for d in f.jet(t, k))]


def _path(seg):
    """A segment or curve's points, tangents and curvature on a grid."""
    out = seg.eval(np.linspace(0.0, seg.length, 9))
    return [float(seg.length), *(np.asarray(d).tolist() for d in out)]


def _transition():
    return synth_transition(MODEL, 0.2, initial_bend(MODEL, 0.5)[1])


def _assembled(theta0):
    curve, _theta0, k_max = initial_bend(MODEL, 0.5)
    return assemble_gamma(MODEL, (curve, theta0, k_max), _transition())


def _bend(profile):
    return (float(profile.theta0), profile.landmarks,
            profile.certificate.min_scalar)


def _tilt_start():
    return _transition()[0].C2


def _start_line():
    return SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, -0.5])])


def _pair():
    return (SmoothFn1D(1.0, [ConstPiece((0.0, 1.0), 1.0)]),
            SmoothFn1D(1.0, [PolyPiece((0.0, 1.0), [1.0, 0.5])]))


def _foliation(c=1.0, radius=0.4, tau=0.05, eps=0.25, delta_p=0.25):
    return connected_sum_foliation(c, radius, tau, [0.0, 1.0], eps, delta_p)


def _isotopy(out):
    family, margins = out
    return [margins, [[t.tolist(), [d.tolist() for d in jet]]
                      for t, jet in family]]


# (id, build(x), a valid x (or a function giving one), the class a value
# that is not a finite real number raises, readout(build(x)))
SITES = [
    ("BendConstants.R0", lambda x: BendConstants(R0=x), 1.0,
     InvalidSpecError, lambda c: initial_bend(c, 0.5)[1:]),
    ("BendConstants.C", lambda x: BendConstants(R0=1.5, C=x), 1.0,
     InvalidSpecError, lambda c: initial_bend(c, 0.5)[1:]),
    ("BendConstants.Cp", lambda x: BendConstants(R0=1.5, Cp=x), 1.0,
     InvalidSpecError, lambda c: c.r0_bound()),
    ("initial_bend.r1", lambda x: initial_bend(MODEL, x), 1.0,
     InvalidSpecError, lambda out: (_path(out[0]), out[1], out[2])),
    ("synth_transition.r0", lambda x: synth_transition(MODEL, x, 0.3), 0.2,
     OutOfRegimeError,
     lambda out: (dataclasses.astuple(out[0]), _jets(out[1]))),
    ("synth_transition.theta0", lambda x: synth_transition(MODEL, 0.2, x),
     0.3, InvalidSpecError,
     lambda out: (dataclasses.astuple(out[0]), _jets(out[1]))),
    ("final_bending_tilt.t_inf_pp",
     lambda x: final_bending_tilt(_transition(), x), _tilt_start,
     InvalidSpecError, _jets),
    ("final_isotopy.r0",
     lambda x: final_isotopy(_start_line(), (x, -1.0), [0.0, 0.5]), 1.0,
     InvalidSpecError, _isotopy),
    ("final_isotopy.m0",
     lambda x: final_isotopy(_start_line(), (1.0, x), [0.0, 0.5]), -1.0,
     InvalidSpecError, _isotopy),
    ("assemble_gamma.theta0", _assembled, lambda: initial_bend(MODEL, 0.5)[1],
     InvalidSpecError, _bend),
    ("ArcSeg.radius", lambda x: ArcSeg((0.0, 0.0), x, 0.0, np.pi / 2), 1.0,
     InvalidSpecError, _path),
    ("ArcSeg.ang0", lambda x: ArcSeg((0.0, 0.0), 1.0, x, np.pi / 2), 0.0,
     InvalidSpecError, _path),
    ("ArcSeg.ang1", lambda x: ArcSeg((0.0, 0.0), 1.0, 0.0, x), 1.0,
     InvalidSpecError, _path),
    ("BumpSeg.length", lambda x: BumpSeg((0.0, 1.0), 0.0, 1.0, x), 1.0,
     InvalidSpecError, _path),
    ("GraphSeg.t_offset", lambda x: GraphSeg(_start_line(), x), 0.5,
     InvalidSpecError, _path),
    ("quarter_bend_curve.c1", lambda x: quarter_bend_curve(x, 2.0, 0.5), 2.0,
     InvalidBendError, _path),
    ("quarter_bend_curve.c2", lambda x: quarter_bend_curve(2.0, x, 0.5), 2.0,
     InvalidBendError, _path),
    ("quarter_bend_curve.bend_radius",
     lambda x: quarter_bend_curve(2.0, 2.0, x), 1.0, InvalidBendError, _path),
    ("TorpedoSpec.delta", lambda x: make_torpedo(TorpedoSpec(x)), 1.0,
     InvalidSpecError, _jets),
    ("TorpedoSpec.tube_length",
     lambda x: make_torpedo(TorpedoSpec(0.5, tube_length=x)), 1.0,
     InvalidSpecError, _jets),
    ("TorpedoSpec.blend_width",
     lambda x: make_torpedo(TorpedoSpec(0.5, blend_width=x)), 0.1,
     InvalidSpecError, _jets),
    ("make_double_torpedo.b", lambda x: make_double_torpedo(0.1, x), 3.0,
     InvalidSpecError, _jets),
    ("SmoothFn1D.b", lambda x: SmoothFn1D(x, [ConstPiece((0.0, 1.0), 1.0)]),
     1.0, InvalidSpecError, _jets),
    ("PolyPiece.origin", lambda x: SmoothFn1D(1.0, [
        PolyPiece((0.0, 1.0), [1.0, 0.5], origin=x)]), 1.0,
     InvalidSpecError, _jets),
    ("PolyPiece.interval", lambda x: SmoothFn1D(1.0, [
        PolyPiece((0.0, x), [1.0, 0.5])]), 1.0, InvalidSpecError, _jets),
    ("SinePiece.frequency", lambda x: SmoothFn1D(1.0, [
        SinePiece((0.0, 1.0), 1.0, x)]), 1.0, InvalidSpecError, _jets),
    ("ConstPiece.value", lambda x: SmoothFn1D(1.0, [
        ConstPiece((0.0, 1.0), x)]), 1.0, InvalidSpecError, _jets),
    ("ReflectPiece.b", lambda x: SmoothFn1D(1.0, [ReflectPiece(
        (0.0, 1.0), PolyPiece((0.0, 1.0), [1.0, 0.5]), x)]), 1.0,
     InvalidSpecError, _jets),
    ("linear_homotopy.s", lambda x: linear_homotopy(*_pair(), x), 1.0,
     InvalidSpecError, _jets),
    ("make_smoothstep.L", make_smoothstep, 2.0, InvalidSpecError, _jets),
    ("sample_grid.b", sample_grid, 1.5, InvalidSpecError, np.ndarray.tolist),
    ("sample_grid.density", lambda x: sample_grid(1.5, x), 64.0,
     InvalidSpecError, np.ndarray.tolist),
    ("ModelAmbient.epsilon", lambda x: ModelAmbient(3, 3, x), 1.0,
     InvalidSpecError, lambda m: m.ambient_scalar()),
    ("connected_sum_foliation.c", lambda x: _foliation(c=x), 1.0,
     InvalidBendError, lambda out: out[1].to_json()),
    ("connected_sum_foliation.radius", lambda x: _foliation(radius=x), 0.4,
     InvalidBendError, lambda out: out[1].to_json()),
    ("connected_sum_foliation.tau", lambda x: _foliation(tau=x), 0.05,
     InvalidSpecError, lambda out: out[1].to_json()),
    ("connected_sum_foliation.eps", lambda x: _foliation(eps=x), 0.25,
     InvalidSpecError, lambda out: out[1].to_json()),
    ("connected_sum_foliation.delta_p", lambda x: _foliation(delta_p=x),
     0.25, InvalidSpecError, lambda out: out[1].to_json()),
    ("mixed_torpedo_via_J.eps",
     lambda x: mixed_torpedo_via_J(x, 0.5, 2.0, 2.0, 0.5), 0.5,
     InvalidSpecError, lambda out: (_jets(out[0].profiles[0]), out[1])),
    ("mixed_torpedo_via_J.delta",
     lambda x: mixed_torpedo_via_J(0.5, x, 2.0, 2.0, 0.5), 0.5,
     InvalidSpecError, lambda out: (_jets(out[0].profiles[1]), out[1])),
    ("mixed_torpedo_via_J.c1",
     lambda x: mixed_torpedo_via_J(0.5, 0.5, x, 2.0, 0.5), 2.0,
     InvalidBendError, lambda out: (_jets(out[0].profiles[0]), out[1])),
    ("mixed_torpedo_via_J.c2",
     lambda x: mixed_torpedo_via_J(0.5, 0.5, 2.0, x, 0.5), 2.0,
     InvalidBendError, lambda out: (_jets(out[0].profiles[1]), out[1])),
    ("mixed_torpedo_via_J.bend_radius",
     lambda x: mixed_torpedo_via_J(0.5, 0.5, 2.0, 2.0, x), 0.5,
     InvalidBendError, lambda out: (_jets(out[0].profiles[0]), out[1])),
    ("round_metric.radius", lambda x: round_metric(7, x), 1.0,
     InvalidSpecError, lambda m: _jets(*m.profiles)),
    ("round_doubly_warped.radius", lambda x: round_doubly_warped(2, 3, x),
     1.0, InvalidSpecError, lambda m: tuple(map(_jets, m.profiles))),
    ("CriticalPoint.level", lambda x: CriticalPoint("w", 3, x), 0.5,
     InvalidSpecError, lambda pt: (pt.id, pt.index, float(pt.level))),
    ("LinearCombination.weight",
     lambda x: LinearCombination([(1.0, _pair()[0]), (x, _pair()[1])]), 0.5,
     InvalidSpecError, _jets),
]
IDS = [site[0] for site in SITES]


@pytest.mark.parametrize("bad", [True, np.True_, "1", np.nan, np.inf],
                         ids=["bool", "numpy-bool", "string", "nan", "inf"])
@pytest.mark.parametrize("build, error", [(s[1], s[3]) for s in SITES],
                         ids=IDS)
def test_non_real_or_non_finite_raises_the_sites_class(build, error, bad):
    with pytest.raises(error):
        build(bad)


@pytest.mark.parametrize("b", ["3.0", True, np.nan, np.inf, -np.inf, 0.0,
                               -3.0],
                         ids=["string", "bool", "nan", "inf", "-inf", "zero",
                              "negative"])
def test_double_torpedo_length_is_checked_before_any_arithmetic(b):
    # a string was a bare TypeError from b / 2, and True reached the mirror
    with pytest.raises(InvalidSpecError):
        make_double_torpedo(0.1, b)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, True,
                                 "1"],
                         ids=["nan", "inf", "-inf", "zero", "negative", "bool",
                              "string"])
@pytest.mark.parametrize("grid", [
    lambda x: sample_grid(x), lambda x: sample_grid(x, interior=True),
    lambda x: sample_grid(1.5, x)], ids=["b", "interior-b", "density"])
def test_sample_grid_takes_a_finite_positive_b_and_density(grid, bad):
    # inf was a bare OverflowError and NaN a ValueError; b = -1 gave a
    # descending grid and density 0 a grid of 16 intervals
    with pytest.raises(InvalidSpecError, match="sample_grid needs"):
        grid(bad)


def _numpy_forms(value):
    """np.float64, 0-d array and, for a whole number, np.int64 forms."""
    forms = [np.float64(value), np.array(value)]
    return forms + [np.int64(value)] if float(value).is_integer() else forms


@pytest.mark.parametrize("build, value, readout",
                         [(s[1], s[2], s[4]) for s in SITES], ids=IDS)
def test_numpy_forms_give_the_python_floats_result(build, value, readout):
    value = value() if callable(value) else value
    want = readout(build(value))
    for x in _numpy_forms(value):
        assert readout(build(x)) == want, type(x)


# (id, call, message) of inputs at the edges of the one warped-product
# type: each raises InvalidSpecError, not an AttributeError or KeyError
EDGES = [
    ("ricci-of-two-factors",
     lambda: ricci_warped(round_doubly_warped(2, 3), 0.5), "one factor"),
    ("slowdown-path-of-two-factors",
     lambda: slowdown_concordance(lambda sig: round_doubly_warped(2, 3), 6),
     r"dimensions \(2, 3\), not the \(5,\)"),
    ("product-of-no-factor", lambda: WarpedProduct((), ()), "at least one"),
    ("product-of-a-bare-dimension",
     lambda: WarpedProduct(4, _pair()[:1]), "must be sequences"),
    ("product-of-a-bare-profile",
     lambda: WarpedProduct((4,), _pair()[0]), "must be sequences"),
    ("product-of-unequal-lengths",
     lambda: WarpedProduct((2, 3), _pair()[:1]), "one profile"),
    ("g0-of-three-factors",
     lambda: compile_gl_cobordism(WarpedProduct((1, 1, 2), [_pair()[0]] * 3),
                                  _one_handle(5)), "one or two round factors"),
    ("g0-not-a-metric",
     lambda: compile_gl_cobordism(round_metric(5).profiles[0],
                                  _one_handle(5)), "one or two round factors"),
    *((f"slowdown-n-{name}", lambda n=n: slowdown_concordance(_unread, n),
       "n must be an integer")
      for name, n in (("string", "7"), ("none", None), ("float", 7.0),
                      ("bool", True), ("fraction", 7.5))),
    *((f"two_surgery_demo.{arg}-{name}",
       lambda arg=arg, x=x: two_surgery_demo(**{"n": 7, "p": 2, arg: x}),
       f"{arg} must be an integer")
      for arg in ("n", "p")
      for name, x in (("string", "7"), ("none", None), ("float", 2.0),
                      ("bool", True))),
    # a chart's dimension is the number of its ranges; its builders take
    # the fiber dimensions, integers >= 0, and warped_chart the integer
    # n >= 2 of its sphere S^(n-1) (errors._check_ints)
    ("MetricChart.dim-float", lambda: _cyl_chart(1.5),
     r"dims\[0\] must be an integer, got 1.5"),
    ("MetricChart.dim-string", lambda: doubly_warped_chart(*_pair(), "3", 2),
     r"dims\[0\] must be an integer"),
    ("MetricChart.dim-bool", lambda: _cyl_chart(True),
     r"dims\[0\] must be an integer, got True"),
    ("MetricChart.dim-none", lambda: doubly_warped_chart(*_pair(), 2, None),
     r"dims\[1\] must be an integer, got None"),
    *((f"warped_chart.n-{name}", lambda n=n: warped_chart(_pair()[1], n),
       message)
      for name, n, message in (
          ("string", "3", "n must be an integer, got '3'"),
          ("none", None, "n must be an integer, got None"),
          ("float", 2.5, "n must be an integer, got 2.5"),
          ("bool", True, "n must be an integer, got True"),
          ("one", 1, "n must be >= 2, got 1"))),
    ("doubly_warped_chart.p-fraction",
     lambda: doubly_warped_chart(*_pair(), 1.5, 2), "must be an integer"),
    ("doubly_warped_chart.p-negative",
     lambda: doubly_warped_chart(*_pair(), -1, 3), "must be >= 0"),
    *((f"MetricChart.range-{name}",
       lambda r=r: MetricChart([r, (-1.0, 1.0)], euclidean_chart(2).g),
       "must hold >= 2 finite ranges")
      for name, r in (("of-three", (0, 1, 2)), ("of-one", (0,)),
                      ("of-strings", ("a", "b")), ("to-infinity", (0, np.inf)),
                      ("a-number", 1.0))),
    ("MetricChart.rectangle-a-number",
     lambda: MetricChart(2.0, euclidean_chart(2).g),
     "must hold >= 2 finite ranges"),
    ("scalar_from_chart.x-of-another-length",
     lambda: scalar_from_chart(euclidean_chart(4), np.zeros(3)),
     r"x needs shape \(4,\): \(3,\)"),
]


def _cyl_chart(qtilde):
    return cyl_family_chart(Phi2D.from_profile(_pair()[1]), qtilde,
                            (0.0, 1.0), (0.1, 0.9))


def _unread(sig):
    pytest.fail("the slowdown read its path before checking n")


def _one_handle(n):
    return MorseDescription(n, [CriticalPoint("h", 2, 0.25)])


@pytest.mark.parametrize("call, message", [e[1:] for e in EDGES],
                         ids=[e[0] for e in EDGES])
def test_warped_product_edges_raise_typed(call, message):
    with pytest.raises(InvalidSpecError, match=message):
        call()


def test_chart_dimension_takes_numpy_integers():
    # the chart builders' fiber dimensions; the chart's dim is len(rectangle)
    for build in (lambda d: warped_chart(_pair()[1], d + 1),
                  lambda d: doubly_warped_chart(*_pair(), d, 2), _cyl_chart):
        chart = build(3)
        x = np.array([lo + 0.4 * (hi - lo) for lo, hi in chart.rectangle])
        want = scalar_from_chart(chart, x)
        for d in (np.int64(3), np.int32(3)):
            other = build(d)
            assert other.dim == chart.dim == len(chart.rectangle)
            assert scalar_from_chart(other, x) == want
