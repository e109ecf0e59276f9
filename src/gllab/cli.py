"""Command-line front end.

Subcommands construct and certify the library's objects and emit static
plot data (CSV/JSON).  Outputs are deterministic: no timestamps, fixed
column orders, floats printed with %.17g.  Two group options set where
and how a run writes: ``--output-dir`` (default ".") and ``--format``
(csv or json, read by ``torpedo`` only; ``bend`` always writes CSV,
``morse`` JSON and ``demo`` both).  Exit codes form a stable contract:

    0  success (all certificates pass)
    2  invalid input (any ``InvalidInputError``)
    3  construction / certification failure (any other error, a bug included)
    4  algebraic rejection (any ``AlgebraicRejection``: boundary
       inconsistency, inexactness, no integral basis)

CSV column orders:
    torpedo profile:    t,f,d1,d2
    torpedo curvature:  t,R,Ric_t,Ric_sphere
    bend margins:       s,t,r,k,theta,margin
    isotopy table:      s,margin
    demo stage minima:  stage,min_scalar
"""

from __future__ import annotations

import json
import os

import click
import numpy as np

from . import errors as E
from .certify import write_csv
from .curvature import WarpedSphereMetric, write_curvature_csv
from .fnspace import (_CSV_DENSITY, TorpedoSpec, make_torpedo, sample_grid,
                      write_profile_csv)
from .glbend import (BendConstants, _check_transition_level, assemble_gamma,
                     final_bending_tilt, final_isotopy, initial_bend,
                     synth_transition, write_bend_csv)
from .morsealg import MorseDescription, cancellation_plan
from .schedule import two_surgery_demo

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CONSTRUCTION = 3
EXIT_ALGEBRAIC = 4


def _exit_code_for(exc):
    if isinstance(exc, E.AlgebraicRejection):
        return EXIT_ALGEBRAIC
    if isinstance(exc, E.InvalidInputError):
        return EXIT_INVALID
    return EXIT_CONSTRUCTION


def _run(ctx, fn):
    try:
        code = fn()
    except Exception as exc:
        click.echo(f"error: {type(exc).__name__}: {exc}", err=True)
        ctx.exit(_exit_code_for(exc))
    ctx.exit(code if code is not None else EXIT_OK)


def _outpath(ctx, name):
    out = ctx.obj["output_dir"]
    os.makedirs(out, exist_ok=True)
    return os.path.join(out, name)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump({"schema": SCHEMA_VERSION, **payload}, fh,
                  sort_keys=True, indent=1)
        fh.write("\n")


@click.group()
@click.option("--output-dir", default=".", help="Output directory.")
@click.option("--format", "fmt", default="csv",
              type=click.Choice(["csv", "json"]), help="Output format.")
@click.pass_context
def main(ctx, output_dir, fmt):
    """Construction and certification toolkit for rotationally symmetric
    positive-scalar-curvature metrics."""
    ctx.obj = {"output_dir": output_dir, "format": fmt}


@main.command()
@click.option("--delta", type=float, required=True, help="Cap radius.")
@click.option("--tube", type=float, default=1.0, help="Tube length.")
@click.option("--blend", type=float, default=None,
              help="Blend half-width (default delta*pi/8).")
@click.option("--n", type=int, default=7, help="Sphere dimension.")
@click.pass_context
def torpedo(ctx, delta, tube, blend, n):
    """Build a torpedo profile; emit profile and curvature data.

    Exit 0 iff the positivity certificate passes.
    """
    def go():
        spec = TorpedoSpec(delta, tube_length=tube, blend_width=blend)
        f = make_torpedo(spec)
        m = WarpedSphereMetric(n, f, open_profile=True)
        t = sample_grid(f.b, _CSV_DENSITY, interior=True)
        min_r = float(np.min(m.scalar(t)))
        if ctx.obj["format"] == "json":
            _write_json(_outpath(ctx, "torpedo.json"), {
                "spec": {"delta": spec.delta, "tube_length": spec.tube_length,
                         "blend_width": spec.blend_width, "n": n},
                "profile": f.to_json(),
                "min_scalar": min_r,
            })
        else:
            write_profile_csv(f, _outpath(ctx, "torpedo_profile.csv"))
            write_curvature_csv(m, _outpath(ctx, "torpedo_curvature.csv"))
        click.echo(f"min scalar curvature: {min_r:.17g}")
        return EXIT_OK if min_r > 0 else EXIT_CONSTRUCTION

    _run(ctx, go)


@main.command()
@click.option("--r0q", "R0", type=float, required=True,
              help="Ambient curvature constant R0.")
@click.option("--cbound", "C", type=float, default=0.0,
              help="O(1) ambient correction bound C.")
@click.option("--cpbound", "Cp", type=float, default=0.0,
              help="O(r) ambient correction bound C'.")
@click.option("--q", type=int, default=2, help="Fiber sphere dimension.")
@click.option("--r1", type=float, default=0.5, help="Initial bend scale.")
@click.option("--r0", type=float, default=0.2, help="Transition start level.")
@click.option("--emit-isotopy", is_flag=True,
              help="Also emit the per-s straightening-family margin table.")
@click.pass_context
def bend(ctx, R0, C, Cp, q, r1, r0, emit_isotopy):
    """Synthesize the full bending curve; emit its margin table.

    Exit 0 iff all curve-inequality margins are positive; r0 >= r1/2
    (the transition would start inside the bump) exits 2 before any build.
    """
    def go():
        _check_transition_level(r0, r1)
        consts = BendConstants(R0=R0, C=C, Cp=Cp, q=q)
        prefix = initial_bend(consts, r1=r1)
        trans = synth_transition(consts, r0=r0, theta0=prefix[1])
        profile = assemble_gamma(consts, prefix, trans)
        write_bend_csv(profile, _outpath(ctx, "bend_margins.csv"))
        cert = profile.certificate
        click.echo(f"min curve-inequality margin: {cert.min_scalar:.17g}")
        if emit_isotopy:
            params, _f = trans
            tilted = final_bending_tilt(trans, params.C2)
            s_grid = np.linspace(0.0, 1.0, 21)
            _family, margins = final_isotopy(
                tilted, (params.r0, params.m0), s_grid)
            write_csv(_outpath(ctx, "bend_isotopy.csv"), "s,margin",
                      zip(s_grid, margins))
            least = np.min(margins)
            if not least > 0:
                click.echo(f"isotopy margin failed: {least:.6g}", err=True)
                return EXIT_CONSTRUCTION
        return EXIT_OK

    _run(ctx, go)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.pass_context
def morse(ctx, file):
    """Plan the cancellation schedule for a description JSON file.

    Exit 4 on algebraic rejection (inconsistent boundary, inexactness,
    non-unit invariant factors).
    """
    def go():
        with open(file, "rb") as fh:
            desc = MorseDescription.from_json(fh.read())
        plan = cancellation_plan(desc)
        _write_json(_outpath(ctx, "plan.json"), {"plan": plan.to_json()})
        n_aux = len(plan.auxiliary_points) // 2
        click.echo(f"plan: {len(plan.steps)} steps, "
                   f"{n_aux} auxiliary insertions")
        return EXIT_OK

    _run(ctx, go)


@main.command()
@click.option("--n", type=int, required=True, help="Sphere dimension.")
@click.option("--p", type=int, required=True, help="First surgery sphere dim.")
@click.pass_context
def demo(ctx, n, p):
    """Run the two-consecutive-surgeries pipeline end to end.

    Emits per-stage curvature minima; exit 0 iff every stage certifies.
    """
    def go():
        report = two_surgery_demo(n, p)
        report.write_csv(_outpath(ctx, "demo_stages.csv"))
        _write_json(_outpath(ctx, "demo_report.json"), report.to_json())
        for st in report.stages:
            least = st["certificate"].min_scalar
            click.echo(f"{st['id']}: min R = {least:.17g} [ok]")
        return EXIT_OK

    _run(ctx, go)


if __name__ == "__main__":
    main()
