"""CLI contract: exit codes, emitted files, determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import gllab
from gllab.certify import IsotopyCertificate
from gllab import cli, errors, fnspace, glbend, schedule
from gllab.cli import main
from gllab.curvature import WarpedSphereMetric, write_curvature_csv
from gllab.fnspace import TorpedoSpec, make_torpedo, write_profile_csv
from gllab.glbend import (BendConstants, assemble_gamma, initial_bend,
                          synth_transition, write_bend_csv)
from gllab.schedule import (DemoReport, MetricDescriptor, Schedule, Segment,
                            write_schedule_csv)

TWO_POINT = {
    "n": 7,
    "points": [{"id": "w", "index": 3, "level": 0.25},
               {"id": "z", "index": 4, "level": 0.75}],
    "boundary": {"4->3": [[1]]},
}


@pytest.fixture()
def runner():
    return CliRunner()


class TestRunConfig:
    """A run is set by the group options --output-dir and --format alone."""

    def test_defaults_valid(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(main, ["torpedo", "--delta", "0.5"])
            assert res.exit_code == 0
            assert sorted(os.listdir(".")) == ["torpedo_curvature.csv",
                                               "torpedo_profile.csv"]

    def test_invariants(self, runner):
        res = runner.invoke(main, ["--format", "xml",
                                   "torpedo", "--delta", "0.5"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("key", ["margin_tolerance", "oracle_agreement",
                                     "junction_tolerance", "density"])
    def test_deleted_key_exit_2(self, runner, key):
        flag = "--" + key.replace("_", "-")
        res = runner.invoke(main, [flag, "1e-6",
                                   "torpedo", "--delta", "0.5"])
        assert res.exit_code == 2
        assert "No such option" in res.output and flag in res.output

    def test_junction_tolerance_reaches_bend(self, runner, tmp_path,
                                             monkeypatch):
        # the default bend's segment junction residual is about 5.6e-17
        monkeypatch.setattr(glbend, "_JUNCTION_TOL", 1e-20)
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "1.5", "--q", "3"])
        assert res.exit_code == 3
        assert "junction residual" in res.output


class TestTorpedoCmd:
    def test_success_emits_files(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "torpedo", "--delta", "0.5", "--n", "7"])
        assert res.exit_code == 0
        assert (tmp_path / "torpedo_profile.csv").exists()
        assert (tmp_path / "torpedo_curvature.csv").exists()
        # min R reported >= tube value (n-1)(n-2)/delta^2 = 120
        assert "min scalar curvature" in res.output
        val = float(res.output.split(":")[1])
        assert val >= 120.0 - 1e-6

    def test_invalid_delta_exit_2(self, runner):
        res = runner.invoke(main, ["torpedo", "--delta", "0"])
        assert res.exit_code == 2

    def test_delta_below_the_junction_check_exit_2(self, runner, tmp_path,
                                                   c2_tampered_blend):
        # no delta fails the junction check, which scales with the cap's
        # f'' ~ 1/delta: a tampered blend stands in, and a profile the user
        # asks for stays an input error
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "torpedo",
                                   "--delta", "1e-8"])
        assert res.exit_code == 2
        assert "InvalidSpecError: junction at" in res.output
        assert not fnspace._torpedo_head.entries

    def test_json_format(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "--format", "json",
                                   "torpedo", "--delta", "0.5"])
        assert res.exit_code == 0
        payload = json.loads((tmp_path / "torpedo.json").read_text())
        assert payload["schema"] == 1
        assert payload["min_scalar"] > 0


class TestBendCmd:
    def test_model_constants_exit_0(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "1.5", "--q", "3"])
        assert res.exit_code == 0
        head = (tmp_path / "bend_margins.csv").read_text().splitlines()[0]
        assert head == "s,t,r,k,theta,margin"

    def test_r0_zero_exit_3(self, runner):
        res = runner.invoke(main, ["bend", "--r0q", "0"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("r1, r0", [(0.3, 0.2), (0.4, 0.2)])
    def test_r0_not_below_half_r1_exit_2(self, runner, tmp_path, monkeypatch,
                                         r1, r0):
        # rejected before any bend is built; it exited 3 via AssemblyError
        monkeypatch.setattr(cli, "initial_bend", None)
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "1.0", "--r1", str(r1),
                                   "--r0", str(r0)])
        assert res.exit_code == 2
        assert "InvalidSpecError: need r0 < r1/2" in res.output
        assert not list(tmp_path.iterdir())

    def test_tail_below_the_junction_check_exit_3(self, runner, tmp_path,
                                                  c2_tampered_blend):
        # the transition leaves r_inf ~ 4.8e-7, whose tail torpedo passes
        # (exit 0 untampered); with its blend tampered the junction check
        # fails on derived data, so a failed construction
        res = runner.invoke(main, [
            "--output-dir", str(tmp_path), "bend",
            "--r0q", "0.6297655346812344", "--cbound", "0.44282608382734256",
            "--cpbound", "1.8230196718354044", "--q", "3",
            "--r1", "0.12948791028358547", "--r0", "0.007223900734181511"])
        assert res.exit_code == 3
        assert ("ConstructionFailedError: tail torpedo of r_inf = 4.83226e-07"
                " cannot be built: junction at" in res.output)
        assert not fnspace._torpedo_head.entries

    def test_emit_isotopy(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "1.5", "--q", "3",
                                   "--emit-isotopy"])
        assert res.exit_code == 0
        lines = (tmp_path / "bend_isotopy.csv").read_text().splitlines()
        assert lines[0] == "s,margin"
        assert len(lines) == 22
        assert all(float(ln.split(",")[1]) > 0 for ln in lines[1:])

    def test_failing_isotopy_exit_3(self, runner, tmp_path):
        # the least margin is -99.5, at s = 0.9
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "3.0", "--q", "4",
                                   "--emit-isotopy"])
        assert res.exit_code == 3
        assert "isotopy margin failed: -99.5" in res.output

    def test_nan_isotopy_margin_exit_3(self, runner, tmp_path, monkeypatch):
        def final_isotopy(tilted, start, s_grid):
            margins = [1.0] * len(s_grid)
            margins[10] = np.nan
            return None, margins

        monkeypatch.setattr(cli, "final_isotopy", final_isotopy)
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "1.5", "--q", "3",
                                   "--emit-isotopy"])
        assert res.exit_code == 3
        assert "isotopy margin failed: nan" in res.output


@pytest.mark.parametrize("args", [
    ["bend", "--r0q", "nan"], ["bend", "--r0q", "inf"],
    ["bend", "--r0q", "1.5", "--cbound", "nan"],
    ["bend", "--r0q", "1.5", "--r1", "nan"],
    ["torpedo", "--delta", "nan"], ["torpedo", "--delta", "0.5", "--tube", "nan"],
    ["torpedo", "--delta", "0.5", "--blend", "nan"]])
def test_non_finite_size_exit_2(runner, tmp_path, args):
    res = runner.invoke(main, ["--output-dir", str(tmp_path)] + args)
    assert res.exit_code == 2
    assert "InvalidSpecError" in res.output
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("cls", [
    errors.InvalidSpecError, errors.DomainMismatchError,
    errors.OutOfRegimeError, errors.InvalidBendError,
    errors.HypothesisViolationError], ids=lambda cls: cls.__name__)
def test_input_error_classes_exit_2(cls):
    # the class alone decides the exit code
    assert issubclass(cls, errors.InvalidInputError)
    assert cli._exit_code_for(cls("bad input")) == cli.EXIT_INVALID


class TestMorseCmd:
    def test_two_point_plan(self, runner, tmp_path):
        src = tmp_path / "desc.json"
        src.write_text(json.dumps(TWO_POINT))
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "morse", str(src)])
        assert res.exit_code == 0
        plan = json.loads((tmp_path / "plan.json").read_text())["plan"]
        assert len(plan["steps"]) == 1

    def test_inexact_exit_4(self, runner, tmp_path):
        bad = dict(TWO_POINT, boundary={"4->3": [[0]]})
        src = tmp_path / "desc.json"
        src.write_text(json.dumps(bad))
        res = runner.invoke(main, ["morse", str(src)])
        assert res.exit_code == 4

    def test_non_unit_intersection_exit_4(self, runner, tmp_path):
        src = tmp_path / "desc.json"
        src.write_text(json.dumps(dict(TWO_POINT, boundary={"4->3": [[2]]})))
        res = runner.invoke(main, ["--output-dir", str(tmp_path / "out"),
                                   "morse", str(src)])
        assert res.exit_code == 4
        assert "NoIntegralBasisError" in res.output

    def test_inexact_and_stuck_exit_4(self, runner, tmp_path):
        # a stuck non-unit pivot in a complex that is not exact reports
        # the inexactness
        src = tmp_path / "desc.json"
        src.write_text(json.dumps({
            "n": 7,
            "points": [{"id": i, "index": k, "level": c} for i, k, c in [
                ("a", 3, 0.25), ("b", 3, 0.25), ("c", 4, 0.75),
                ("d", 4, 0.75)]],
            "boundary": {"4->3": [[2, 0], [0, 0]]}}))
        res = runner.invoke(main, ["--output-dir", str(tmp_path / "out"),
                                   "morse", str(src)])
        assert res.exit_code == 4
        assert "NotACylinderError" in res.output

    def test_excess_index1_auxiliary(self, runner, tmp_path):
        desc = {"n": 6,
                "points": [{"id": "x", "index": 1, "level": 0.3},
                           {"id": "y", "index": 2, "level": 0.7}],
                "boundary": {"2->1": [[1]]},
                "flags": {"simply_connected": True}}
        src = tmp_path / "desc.json"
        src.write_text(json.dumps(desc))
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "morse", str(src)])
        assert res.exit_code == 0
        plan = json.loads((tmp_path / "plan.json").read_text())["plan"]
        kinds = {s["kind"] for s in plan["steps"]}
        assert kinds == {"auxiliary-inserted"}

    @pytest.mark.parametrize("text", [
        "[]", "3",
        json.dumps(dict(TWO_POINT, points=[1] + TWO_POINT["points"][1:])),
        json.dumps(dict(TWO_POINT, boundary=[])),
        json.dumps(dict(TWO_POINT, flags=3)),
        json.dumps(TWO_POINT).replace("[[1]]", "[[null]]"),
        json.dumps(TWO_POINT).replace("[[1]]", "[[1e400]]"),
        json.dumps(dict(TWO_POINT, n=7.5)),
        json.dumps(TWO_POINT).replace('"index": 3', '"index": 3.7'),
        json.dumps(TWO_POINT).replace('"level": 0.25', '"level": null'),
        json.dumps(TWO_POINT).replace('"id": "w"', '"id": ["w"]'),
        json.dumps(TWO_POINT).replace('"id": "w"', '"id": {"w": 1}'),
        json.dumps(TWO_POINT).replace('"id": "w"', '"id": 3'),
        json.dumps(TWO_POINT).replace('"id": "w", ', ''),
        json.dumps(TWO_POINT).replace('"index": 3, ', ''),
        json.dumps(TWO_POINT).replace(', "level": 0.25', ''),
        json.dumps({k: v for k, v in TWO_POINT.items() if k != "n"}),
        json.dumps(TWO_POINT).replace('"4->3"', '"4to3"'),
        json.dumps(TWO_POINT)[:-1],
        json.dumps(TWO_POINT).encode().replace(b'"w"', b'"\xff"'),
        json.dumps(TWO_POINT).replace("[[1]]", "[[true]]"),
        json.dumps(dict(TWO_POINT, flags={"simply_connected": "false"})),
    ], ids=["array", "number", "point-not-object", "boundary-list",
            "flags-number", "null-entry", "overflow-entry", "fractional-n",
            "fractional-index", "null-level", "list-id", "object-id",
            "number-id", "missing-id", "missing-index", "missing-level",
            "missing-n", "malformed-key", "json-syntax", "not-utf-8",
            "bool-entry", "flag-string"])
    def test_malformed_description_exit_2(self, runner, tmp_path, text):
        src = tmp_path / "desc.json"
        src.write_bytes(text if isinstance(text, bytes) else text.encode())
        res = runner.invoke(main, ["--output-dir", str(tmp_path / "out"),
                                   "morse", str(src)])
        assert res.exit_code == 2
        assert "InvalidSpecError" in res.output
        assert not (tmp_path / "out").exists()

    def test_library_value_error_exit_3(self, runner, tmp_path, monkeypatch):
        # a ValueError is a bug, not invalid input: only the error classes
        # decide what exits 2
        def cancellation_plan(desc):
            raise ValueError("a bug")

        monkeypatch.setattr(cli, "cancellation_plan", cancellation_plan)
        src = tmp_path / "desc.json"
        src.write_text(json.dumps(TWO_POINT))
        res = runner.invoke(main, ["--output-dir", str(tmp_path / "out"),
                                   "morse", str(src)])
        assert res.exit_code == 3
        assert "ValueError: a bug" in res.output


class TestDemoCmd:
    def test_demo_exit_0(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "demo", "--n", "7", "--p", "2"])
        assert res.exit_code == 0
        lines = (tmp_path / "demo_stages.csv").read_text().splitlines()
        assert lines[0] == "stage,min_scalar"
        assert all(float(ln.split(",")[1]) > 0 for ln in lines[1:])

    def test_q_violation_exit_2(self, runner):
        res = runner.invoke(main, ["demo", "--n", "7", "--p", "4"])
        assert res.exit_code == 2

    def test_foliation_report_says_where_its_minimum_is(self, runner,
                                                        tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "demo", "--n", "7", "--p", "2"])
        assert res.exit_code == 0
        report = json.loads((tmp_path / "demo_report.json").read_text())
        cert = next(st["certificate"] for st in report["stages"]
                    if st["id"] == "foliation")
        extra = cert["extra"]
        assert set(extra) == {"per_leaf_min", "argmin_nu", "argmin_t"}
        assert min(extra["per_leaf_min"]) == cert["min_scalar"]
        assert 0.0 <= extra["argmin_nu"] <= 1.0 and extra["argmin_t"] >= 0.0

    def test_pullback_deviation_exit_3(self, runner, tmp_path, monkeypatch):
        real = schedule.mixed_torpedo_via_J

        def mixed_torpedo_via_J(*args, **kw):
            metric, rep = real(*args, **kw)
            return metric, {**rep, "max_deviation": 1.0}

        monkeypatch.setattr(schedule, "mixed_torpedo_via_J",
                            mixed_torpedo_via_J)
        res = runner.invoke(main, ["--output-dir", str(tmp_path),
                                   "demo", "--n", "7", "--p", "2"])
        assert res.exit_code == 3
        assert ("DemoFailedError: stage 'mtor-endpoint' failed: pullback "
                "deviation 1" in res.output)


# bend --r0q 1.5 --q 3 --emit-isotopy and torpedo --delta 0.5 as computed
# when each profile piece was evaluated by numpy's polyval, one order at a
# time: the bend certificate's minimum, the 21 straightening margins of
# bend_isotopy.csv (s = 0, 0.05, ..., 1) and the torpedo's minimum
PINNED_BEND_MIN = 2.4459640813980865
PINNED_ISOTOPY_MARGINS = [
    10.384722532814195, 12.126141950924577, 14.231038806087483,
    16.653446299711518, 19.687337146274899, 23.179476637107783,
    24.583037343789812, 25.998945782033161, 28.310480301973229,
    31.283691690389446, 36.338884913842406, 43.768269899994806,
    48.392927496358347, 48.416760036724746, 48.439297451209598,
    48.460540009845751, 48.480487985454744, 48.499141653510058,
    48.51650129199993, 48.532567181290439, 48.547339603988547]
PINNED_TORPEDO_MIN = 120.0


def _echoed(output, label):
    """The number the CLI echoed after ``label: ``."""
    line, = [ln for ln in output.splitlines() if ln.startswith(label)]
    return float(line.split(": ")[1])


class TestPinnedOutputs:
    """Outputs of the straightening and of the torpedo against numbers
    recorded from an earlier evaluation of the same profiles; unlike
    TestDeterminism, a change of evaluation order shows here."""

    def test_bend_and_isotopy_margins(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "bend",
                                   "--r0q", "1.5", "--q", "3",
                                   "--emit-isotopy"])
        assert res.exit_code == 0
        assert _echoed(res.output, "min curve-inequality margin") == \
            pytest.approx(PINNED_BEND_MIN, rel=1e-12, abs=0)
        table = np.loadtxt(tmp_path / "bend_isotopy.csv", delimiter=",",
                           skiprows=1)
        np.testing.assert_allclose(table[:, 0], np.linspace(0.0, 1.0, 21))
        np.testing.assert_allclose(table[:, 1], PINNED_ISOTOPY_MARGINS,
                                   rtol=1e-12, atol=0)

    def test_torpedo_min(self, runner, tmp_path):
        res = runner.invoke(main, ["--output-dir", str(tmp_path), "torpedo",
                                   "--delta", "0.5"])
        assert res.exit_code == 0
        assert _echoed(res.output, "min scalar curvature") == \
            pytest.approx(PINNED_TORPEDO_MIN, rel=1e-12, abs=0)


def test_sweep_draw_122_is_not_an_input_error(runner, tmp_path):
    # draw 122 of the seeded straightening sweep: a failed construction
    # (exit 3) or a certified bend (exit 0), never exit 2
    res = runner.invoke(main, [
        "--output-dir", str(tmp_path), "bend",
        "--r0q", "0.04872718771530034", "--cbound", "0.24974876474283958",
        "--cpbound", "2.6543383737014556", "--q", "6",
        "--r1", "0.8241489192754347", "--r0", "0.0878490274864181"])
    assert res.exit_code in (0, 3), res.output


class TestDeterminism:
    def test_byte_identical_outputs(self, runner, tmp_path):
        for i, args in enumerate([
                ["demo", "--n", "5", "--p", "1"],
                ["bend", "--r0q", "1.5", "--q", "3", "--emit-isotopy"],
                ["--format", "json", "torpedo", "--delta", "0.5"]]):
            outs = []
            for tag in ("a", "b"):
                d = tmp_path / f"{i}{tag}"
                res = runner.invoke(main, ["--output-dir", str(d)] + args)
                assert res.exit_code == 0
                outs.append({p.name: p.read_bytes() for p in d.iterdir()})
            assert outs[0] == outs[1] and outs[0]

    def test_bad_config_exit_2(self, runner, tmp_path):
        # settings come from flags only; a config file is a usage error
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output_dir": str(tmp_path / "out")}))
        res = runner.invoke(main, ["--config", str(cfg),
                                   "torpedo", "--delta", "0.5"])
        assert res.exit_code == 2
        assert "No such option" in res.output and "--config" in res.output
        assert not (tmp_path / "out").exists()


def test_writers_give_same_bytes_to_buffer_and_path(tmp_path):
    f = make_torpedo(TorpedoSpec(0.5))
    consts = BendConstants(R0=1.5, q=3)
    prefix = initial_bend(consts, r1=0.5)
    bend = assemble_gamma(consts, prefix, synth_transition(
        consts, r0=0.2, theta0=prefix[1]))
    desc = MetricDescriptor("warped")
    cert = IsotopyCertificate("grid", np.float64(2.5))
    writers = [
        lambda out: write_profile_csv(f, out),
        lambda out: write_curvature_csv(
            WarpedSphereMetric(5, f, open_profile=True), out),
        lambda out: write_bend_csv(bend, out, n_samples=64),
        lambda out: write_schedule_csv(
            Schedule([Segment("product-extension", {}, desc, desc, cert)]),
            out),
        DemoReport(5, 1, 3, [{"id": "round", "certificate": cert}],
                   (desc, desc)).write_csv,
    ]
    for i, write in enumerate(writers):
        buf = io.StringIO()
        write(buf)
        path = tmp_path / f"out{i}.csv"
        write(str(path))
        assert path.read_bytes() == buf.getvalue().encode()
        assert buf.getvalue().count("\n") >= 2


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not import it
    src = str(Path(gllab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import gllab.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60,
                   env=dict(os.environ, PYTHONPATH=path))
