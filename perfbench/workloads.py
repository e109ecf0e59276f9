"""The four workloads: round composition, seeded selection, warm-up, summary.

A *round* is a fixed task list: a fixed number of tasks from each stratum
of the workload's pool (``ROUND``).  ``make_rounds`` shuffles every stratum
with ``random.Random("<workload>:<seed>")`` and deals the shuffled pool out
round by round, so one seed always gives the same rounds, different seeds
give different inputs, no input repeats within a run, and every round has
the same make-up, down to the number of tasks whose seed-commit outcome is a
failure: failed / attempted is the same for every seed and run length.
A run measures a fixed number of whole rounds,
``n_rounds(workload, seconds)``, so that one seed always attempts the same
tasks however fast the machine is.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from gllab import curvature, glbend, morsealg, oracle, schedule

import tasks

NAMES = ("surgery", "straighten", "crosscheck", "plan")

POINT_STRATA = tuple(f"pt-{k}-{p}" for k in ("warped", "doubly", "cyl")
                     for p in ("round", "torpedo"))

# tasks per stratum in one round; straighten adds ISOTOPY_MIX isotopy tasks
# of the round's bend configuration
ROUND = {
    "surgery": {"demo": 3, "compile": 1},
    "straighten": {"bend": 1},
    "crosscheck": {"slowdown": 1, **{s: 40 for s in POINT_STRATA}},
    # plan: a fixed count per rank of cylinders whose normal form finished
    # at seed, plus a fixed count of ones that stalled at seed
    "plan": {**{f"cyl-r{r:02d}": 8 for r in range(2, 7)},
             **{f"cyl-r{r:02d}": 5 for r in range(7, 13)},
             **{f"cyl-r{r:02d}": 2 for r in range(13, 17)},
             "stall": 4, "excess": 10, "nonunit": 10},
}

# isotopy tasks a straighten round draws for its bend: s-values whose
# certificate passed at seed, and s-values whose certificate failed at seed
# (margins of either kind lie at least 2 from 0).  A configuration without
# enough of both is not drawn: only bend-06, all of whose s-values pass.
ISOTOPY_MIX = {True: 2, False: 2}

# per-task deadline in seconds; plan's is the 1 s that exposes the seed
# Smith-normal-form stall, the others are several times the slowest task
DEADLINE = {"surgery": 10.0, "straighten": 10.0, "crosscheck": 15.0,
            "plan": 1.0}

# rounds run (once untraced, once traced) by a --trace 1 run
TRACE_ROUNDS = 2

# nominal seconds of one round at the reference speed (seed commit, 2-core
# machine); a --seconds S run measures ceil(S / ROUND_S) rounds
ROUND_S = {"surgery": 4.4, "straighten": 8.0, "crosscheck": 5.2,
           "plan": 4.7}


def n_rounds(workload, seconds):
    """Rounds a run of ``seconds`` measures: at least one."""
    return max(1, math.ceil(seconds / ROUND_S[workload]))


def make_rounds(pool, workload, seed):
    """The run's rounds for ``seed``: a list of task lists."""
    rng = random.Random(f"{workload}:{seed}")
    strata = {s: [t for t in pool[workload][s] if drawable(t)]
              for s in ROUND[workload]}
    order = {s: rng.sample(strata[s], len(strata[s])) for s in ROUND[workload]}
    n_rounds = min(len(order[s]) // c for s, c in ROUND[workload].items())
    rounds = []
    for i in range(n_rounds):
        rt = []
        for s, c in ROUND[workload].items():
            for task in order[s][i * c:(i + 1) * c]:
                rt.append(task)
                if task["kind"] == "bend":
                    rt.extend(isotopy_picks(task, rng))
        rounds.append(rt)
    return rounds


def isotopy_by_outcome(bend):
    """A bend's isotopy tasks, keyed by whether they passed at seed."""
    out = {True: [], False: []}
    for t in sum(bend["isotopy"], []):
        out[t["ref"]["passed"]].append(t)
    return out


def drawable(task):
    """Whether a round can draw ``task``: a bend needs its ISOTOPY_MIX."""
    if task["kind"] != "bend":
        return True
    have = isotopy_by_outcome(task)
    return all(len(have[ok]) >= c for ok, c in ISOTOPY_MIX.items())


def isotopy_picks(bend, rng):
    """The isotopy tasks of ``bend`` for one round, in increasing s."""
    have = isotopy_by_outcome(bend)
    picks = [t for ok, c in ISOTOPY_MIX.items()
             for t in rng.sample(have[ok], c)]
    return sorted(picks, key=lambda t: t["s"])


def warm_up(workload):
    """Small fixed calls, none from the pool, that fill lazy state."""
    if workload == "surgery":
        desc = morsealg.MorseDescription(
            7, [morsealg.CriticalPoint("w", 3, 0.5)])
        sched = schedule.compile_gl_cobordism(schedule.round_metric(7, 1.5),
                                              desc)
        schedule.compile_reverse(sched, desc)
    elif workload == "straighten":
        consts = glbend.BendConstants(R0=1.2, q=2)
        prefix = glbend.initial_bend(consts, r1=0.55)
        trans = glbend.synth_transition(consts, r0=0.18, theta0=prefix[1])
        glbend.assemble_gamma(consts, prefix, trans)
        tilted = glbend.final_bending_tilt(trans, trans[0].C2)
        glbend.final_isotopy(tilted, (trans[0].r0, trans[0].m0), [0.5],
                             n_t=11)
    elif workload == "crosscheck":
        chart, closed = tasks.build_chart(
            {"kind": "warped", "profile": "round", "n": 3, "radius": 1.6})
        for x in ([1.0, 1.0, 1.0], [2.0, 1.5, 2.0]):
            oracle.scalar_from_chart(chart, np.asarray(x))
            closed(np.asarray(x))
        path = tasks.slowdown_path({"b": 6.3, "delta": 0.5, "n": 5})
        curvature.slowdown_concordance(path, 5, grid_shape=(20, 20))
    else:
        task = {"kind": "cylinder", "rank": 3, "gen_seed": 10 ** 9}
        tasks.execute(task, tasks.plan_description(task), None)


def summary(workload, tasks_run):
    """Input properties that drive cost, for the tasks a run executed."""
    tasks_run = list({t["id"]: t for t in tasks_run}.values())
    kinds = Counter(t["kind"] for t in tasks_run)
    out = {"tasks": dict(kinds)}
    if workload == "surgery":
        out["demo_np"] = sorted({(t["n"], t["p"]) for t in tasks_run
                                 if t["kind"] == "demo"})
        out["compile_nk_radius"] = [(t["n"], t["k"], t["radius"])
                                    for t in tasks_run
                                    if t["kind"] == "compile"]
    elif workload == "straighten":
        out["bend_R0_q_r1_r0"] = [(t["R0"], t["q"], t["r1"], t["r0"])
                                  for t in tasks_run if t["kind"] == "bend"]
        out["s_values"] = [t["s"] for t in tasks_run
                           if t["kind"] == "isotopy"]
    elif workload == "crosscheck":
        out["point_charts"] = dict(Counter(
            t["chart_label"] for t in tasks_run if t["kind"] == "point"))
        out["slowdown_b_delta_n"] = [(t["b"], t["delta"], t["n"])
                                     for t in tasks_run
                                     if t["kind"] == "slowdown"]
    else:
        out["rank_histogram"] = dict(sorted(Counter(
            t["rank"] for t in tasks_run).items()))
        out["stalls_at_seed"] = sum(bool(t.get("stalls_at_seed"))
                                    for t in tasks_run)
    return out
