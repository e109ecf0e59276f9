"""Quick self-check of the benchmark's own code (about half a minute).

Usage (from the repository root):

    python3 perfbench/selfcheck.py

Checks that the metric, unit and workload names the code emits match
``BENCHMARK.json``; runs a tiny task list per workload (the cheapest task
of every stratum) untraced and traced, requiring every outcome to agree
with its stored reference and the traced run to emit every per-layer
metric; checks that a run of ``run_seconds`` fits in the pool and that
every round has the same number of tasks failing at seed; and fires
the per-task deadline on a synthetic slow task.
Exits 0 when every check passes.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from gllab import fnspace, glbend, schedule  # noqa: E402

import run  # noqa: E402
import tasks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def check_names():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
          "workload names match BENCHMARK.json")
    check({m["name"]: m["unit"] for m in bench["end_to_end"]}
          == run.E2E_UNITS, "end-to-end names and units match")
    check({m["name"]: m["unit"] for m in bench["per_layer"]}
          == tracer.PER_LAYER, "per-layer names and units match")
    return bench


def check_round_counts(pool, seconds):
    for workload in workloads.NAMES:
        n = workloads.n_rounds(workload, seconds)
        have = len(workloads.make_rounds(pool, workload, 0))
        check(n <= have, f"{workload}: a {seconds} s run measures {n} of "
              f"the pool's {have} rounds")
        # failed / attempted must not depend on the seed: every round holds
        # as many tasks, and as many that failed at seed, as every other
        shapes = {(len(rt), sum(fails_at_seed(t) for t in rt))
                  for seed in range(20)
                  for rt in workloads.make_rounds(pool, workload, seed)}
        check(len(shapes) == 1, f"{workload}: every round has the same "
              f"(tasks, failed at seed) {sorted(shapes)}")


def fails_at_seed(task):
    """Whether the stored seed-commit outcome of ``task`` is a failure."""
    if task.get("stalls_at_seed"):
        return True
    return "expect_error" not in task and not task["ref"].get("passed", True)


def tiny_list(pool, workload):
    """The cheapest task of every stratum (a bend brings one isotopy)."""
    out = []
    for stratum in workloads.ROUND[workload]:
        task = min(pool[workload][stratum], key=lambda t: t["seed_s"])
        out.append(task)
        if task["kind"] == "bend":
            out.append(min(sum(task["isotopy"], []),
                           key=lambda t: t["seed_s"]))
    return out


def check_workloads(pool):
    for workload in workloads.NAMES:
        ctx = tasks.Context(pool)
        rt = tiny_list(pool, workload)
        inputs = [tasks.prepare(t, ctx) for t in rt]
        runner = run.Runner(ctx, run.Deadline(workloads.DEADLINE[workload]))
        runner.run_rounds([rt], [inputs], time.perf_counter())
        tr = tracer.Tracer()
        tr.install()
        try:
            runner.run_rounds([rt], [inputs], time.perf_counter())
        finally:
            tr.uninstall()
        statuses = [x["status"] for x in runner.records]
        check(len(statuses) == 2 * len(rt) and "mismatch" not in statuses,
              f"{workload}: {len(rt)} tasks agree with references "
              f"untraced and traced ({sorted(set(statuses))})")
        per = tr.metrics(1, 1)
        check(set(per) | {"trace.overhead_s"} == set(tracer.PER_LAYER),
              f"{workload}: traced run emits every per-layer metric")
        check(not any(hasattr(f, "__wrapped__") for f in (
            glbend.brentq, schedule.pmap, fnspace.SmoothFn1D.__call__)),
              f"{workload}: tracer uninstalled")


def check_deadline():
    deadline = run.Deadline(0.2)
    t0 = time.perf_counter()
    fired = False
    try:
        with deadline:
            while time.perf_counter() - t0 < 5.0:
                sum(range(1000))
    except run.DeadlineExceeded:
        fired = True
    took = time.perf_counter() - t0
    check(fired and took < 1.0,
          f"deadline interrupts a synthetic slow task ({took:.3f} s)")
    try:
        with deadline:
            pass
        time.sleep(0.3)
        quiet = True
    except run.DeadlineExceeded:
        quiet = False
    check(quiet, "a disarmed deadline does not fire later")


def main():
    with open(run.POOL) as fh:
        pool = json.load(fh)
    bench = check_names()
    check_round_counts(pool, bench["run_seconds"])
    check_deadline()
    check_workloads(pool)
    print("self-check " + ("FAILED: " + "; ".join(FAILURES)
                           if FAILURES else "passed"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
