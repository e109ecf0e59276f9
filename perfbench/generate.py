"""Generate ``pool.json``: every task the benchmark can draw, with references.

Usage (from the repository root, at the commit whose outcomes become the
references):

    python3 perfbench/generate.py [workload ...]

Named workloads (default: all) are regenerated; the others are kept from
the existing ``pool.json``.  Each workload's pool is drawn from
``random.Random(f"{POOL_SEED}:{workload}")``; each task is then run
once and its outcome stored as ``ref``, with the time it took as
``seed_s``.  Plan cylinders are classified by whether
``choose_cancelling_bases`` finishes within ``STALL_CAP_S`` (their Smith
normal form either takes milliseconds or stalls for over a minute).  The
stalling ones of rank 8-16 form the ``stall`` stratum; a stall below rank 8
is rare (one in the 451 inputs of rank 2-7 scanned) and is not drawn.  A
stalling task's reference is built from what is known without the normal
form: exactness, all invariant factors 1 (the matrix is unimodular by
construction) and the plan shape from ``cancellation_plan``.
"""

import json
import os
import random
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gllab import morsealg  # noqa: E402

import tasks  # noqa: E402
import workloads  # noqa: E402

POOL_SEED = 8111245          # the source paper is arXiv 0811.1245
STALL_CAP_S = 1.5
TASK_CAP_S = 60.0
# the s-grid of final_isotopy's default, in four bands of five; s = 1 (h_1
# is the line itself, about half the cost of any other s) is left out so
# that rounds cost alike
S_BANDS = [[round(k / 20, 10) for k in range(b, b + 5)]
           for b in (0, 5, 10, 15)]

# pool sizes: enough for MAX_ROUNDS rounds of every workload
MAX_ROUNDS = 10


class _Stall(BaseException):
    pass


def _alarm(signum, frame):
    raise _Stall()


def timed(fn, cap):
    """(result or None on overrun, seconds) of fn() under an alarm."""
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn(), time.perf_counter() - t0
    except _Stall:
        return None, time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)


def reference(task, ctx, cap=TASK_CAP_S):
    """Run a task once; store its outcome and duration on the task."""
    inp = tasks.prepare(task, ctx)

    def go():
        try:
            return tasks.outcome(task, tasks.execute(task, inp, ctx))
        except Exception as exc:  # recorded as the reference outcome
            return {"error": type(exc).__name__}
    out, secs = timed(go, cap)
    if out is None:
        raise RuntimeError(f"{task['id']} overran {cap} s")
    task["ref"] = out
    task["seed_s"] = round(secs, 4)
    return task


def surgery(rng, ctx):
    pairs = [(n, p) for n in range(6, 10) for p in range(1, n)
             if n - p - 1 >= 3 and p + 2 <= n - 2]
    per_pair = -(-MAX_ROUNDS * workloads.ROUND["surgery"]["demo"]
                 // len(pairs))
    demo = []
    for n, p in pairs:
        for _ in range(per_pair):
            demo.append({"id": f"surgery/demo-{len(demo):03d}",
                         "kind": "demo", "n": n, "p": p,
                         "radius": round(rng.uniform(0.8, 1.25), 3)})
    comp = []
    for i in range(MAX_ROUNDS * workloads.ROUND["surgery"]["compile"]):
        n = rng.choice((7, 8, 9))
        comp.append({"id": f"surgery/compile-{i:03d}", "kind": "compile",
                     "n": n, "k": rng.randint(3, n - 3),
                     "radius": round(rng.uniform(0.8, 1.25), 3),
                     "sign": rng.choice((1, -1))})
    return {"demo": [reference(t, ctx) for t in demo],
            "compile": [reference(t, ctx) for t in comp]}


def straighten(rng, ctx):
    combos = [(R0, q, r1, r0) for R0 in (0.8, 1.0, 1.5, 2.0, 2.5, 3.0)
              for q in (2, 3, 4, 5) for r1 in (0.5, 0.6) for r0 in (0.15, 0.2)]
    bends = []
    for i, (R0, q, r1, r0) in enumerate(rng.sample(combos, MAX_ROUNDS)):
        cid = f"bend-{i:02d}"
        bend = {"id": f"straighten/{cid}", "kind": "bend", "config": cid,
                "R0": R0, "q": q, "r1": r1, "r0": r0}
        reference(bend, ctx)
        bend["isotopy"] = [[reference(
            {"id": f"straighten/{cid}-s{s:.2f}", "kind": "isotopy",
             "config": cid, "s": s}, ctx)
            for s in sorted(rng.sample(grid, 2))] for grid in S_BANDS]
        bends.append(bend)
    return {"bend": bends}


def chart_spec(rng, kind, profile):
    spec = {"kind": kind, "profile": profile}
    if profile == "round":
        spec["radius"] = round(rng.uniform(0.7, 1.4), 3)
    else:
        spec["delta"] = round(rng.uniform(0.3, 0.7), 3)
        spec["tube"] = round(rng.uniform(0.5, 1.5), 3)
    if kind == "warped":
        spec["n"] = rng.choice((3, 4, 5))
    elif kind == "doubly":
        spec["p"], spec["q"] = rng.choice(((1, 1), (1, 2), (2, 1), (2, 2)))
    else:
        spec["qtilde"] = rng.choice((1, 2, 3))
    return spec


def crosscheck(rng, ctx):
    charts = ctx.pool["charts"]
    charts.clear()
    out = {}
    per_stratum = MAX_ROUNDS * workloads.ROUND["crosscheck"]["pt-warped-round"]
    charts_per_stratum = 8
    for stratum in workloads.POINT_STRATA:
        _, kind, profile = stratum.split("-")
        pts = []
        for _ in range(charts_per_stratum):
            spec = chart_spec(rng, kind, profile)
            cid = f"c{len(charts):02d}"
            charts[cid] = spec
            dims = "".join(f"{k}{spec[k]}" for k in ("n", "p", "q", "qtilde")
                           if k in spec)
            label = f"{kind}-{profile}-{dims}"
            chart, _closed = ctx.chart(cid)
            for _ in range(per_stratum // charts_per_stratum):
                x = [round(rng.uniform(lo + 0.05 * (hi - lo),
                                       hi - 0.05 * (hi - lo)), 6)
                     for lo, hi in chart.rectangle]
                pts.append({"id": f"crosscheck/pt-{len(pts):03d}-{cid}",
                            "kind": "point", "chart": cid,
                            "chart_label": label, "x": x})
        out[stratum] = [reference(t, ctx) for t in pts]
    slow = []
    for i in range(MAX_ROUNDS):
        slow.append(reference(
            {"id": f"crosscheck/slowdown-{i:02d}", "kind": "slowdown",
             "b": round(rng.uniform(5.0, 7.0), 3),
             "delta": round(rng.uniform(0.35, 0.6), 3),
             "n": rng.choice((5, 6, 7))}, ctx))
    out["slowdown"] = slow
    return out


def _stall_reference(task):
    """What is known without the normal form: exactness, unit factors, plan."""
    desc = tasks.plan_description(task)
    exact = morsealg.check_cylinder_exactness(
        morsealg.build_chain_complex(desc))
    return {"passed": True,
            "values": tasks.plan_values(exact, [1] * task["rank"],
                                        morsealg.cancellation_plan(desc))}


def plan(rng, ctx):
    """Cylinders by rank and seed stall status, excess and non-unit inputs."""
    want = {k: MAX_ROUNDS * c for k, c in workloads.ROUND["plan"].items()}
    out = {k: [] for k in want}
    stall_ranks = range(8, 17)
    per_stall = -(-want["stall"] // len(stall_ranks))
    for r in range(2, 17):
        fast = out[f"cyl-r{r:02d}"]
        stall, k = [], 0
        # gen_seed = rank * 1000 + k: the generator whose Random(8000) gives
        # the rank-8 stall
        while len(fast) < want[f"cyl-r{r:02d}"] or (
                r in stall_ranks and len(stall) < per_stall):
            task = {"kind": "cylinder", "rank": r, "gen_seed": r * 1000 + k}
            k += 1
            cc = morsealg.build_chain_complex(tasks.plan_description(task))
            done, secs = timed(
                lambda: morsealg.choose_cancelling_bases(cc), STALL_CAP_S)
            if done is not None and len(fast) < want[f"cyl-r{r:02d}"]:
                task["id"] = f"plan/cyl-r{r:02d}-{k - 1:03d}"
                fast.append(reference(task, ctx))
            elif done is None and r in stall_ranks \
                    and len(stall) < per_stall:
                task.update(id=f"plan/stall-r{r:02d}-{k - 1:03d}",
                            stalls_at_seed=True, ref=_stall_reference(task),
                            seed_s=round(secs, 4))
                stall.append(task)
        print(f"  plan rank {r}: {k} scanned", file=sys.stderr, flush=True)
        out["stall"].extend(stall)
    out["stall"] = rng.sample(out["stall"], want["stall"])
    for i in range(want["excess"]):
        r = 1 + i % 4
        out["excess"].append(reference(
            {"id": f"plan/excess-r{r}-{i:03d}", "kind": "excess", "rank": r,
             "gen_seed": 500000 + r * 1000 + i}, ctx))
    for i in range(want["nonunit"]):
        r = 2 + i % 4
        task = {"id": f"plan/nonunit-r{r}-{i:03d}", "kind": "cylinder",
                "rank": r, "factor": 2 + i % 2,
                "gen_seed": 700000 + r * 1000 + i,
                "expect_error": "NoIntegralBasisError"}
        try:
            reference(task, ctx, STALL_CAP_S)
        except RuntimeError:   # a stalled normal form: kept, never dropped
            task.update(stalls_at_seed=True, seed_s=STALL_CAP_S,
                        ref={"error": "NoIntegralBasisError"})
        out["nonunit"].append(task)
    return out


GENERATORS = {"surgery": surgery, "straighten": straighten,
              "crosscheck": crosscheck, "plan": plan}


def main(names):
    """Regenerate the named workloads (default all), keep the others."""
    signal.signal(signal.SIGALRM, _alarm)
    path = os.path.join(HERE, "pool.json")
    pool = {"pool_seed": POOL_SEED, "charts": {}}
    if os.path.isfile(path):
        with open(path) as fh:
            pool = json.load(fh)
    ctx = tasks.Context(pool)
    t0 = time.perf_counter()
    for name in names or workloads.NAMES:
        rng = random.Random(f"{POOL_SEED}:{name}")
        pool[name] = GENERATORS[name](rng, ctx)
        n = sum(len(v) for v in pool[name].values())
        print(f"{name}: {n} tasks, {time.perf_counter() - t0:.1f} s",
              file=sys.stderr, flush=True)
    with open(path, "w") as fh:
        json.dump(pool, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
