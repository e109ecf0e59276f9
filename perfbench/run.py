"""gllab benchmark runner: one seeded workload run, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 20 --trace 0

A single-process closed loop: one client runs one task at a time, no
threads, no subprocesses.  Inputs come from ``perfbench/pool.json``,
selected and ordered by ``--seed`` (see ``workloads.py``); only those inputs
reach the gllab API, imported from ``src/`` next to this directory.  Every
output is compared with the seed-commit reference stored in the pool.

``--trace 0`` measures ``workloads.n_rounds(workload, --seconds)`` whole
rounds, a count fixed by the arguments alone, and reports the end-to-end metrics.  ``--trace 1`` runs the first few rounds
untraced and then again traced (``tracer.py``) and reports the per-layer
metrics plus the tracing overhead.  The last stdout line is the JSON
result; the lines before it are a human-readable report.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
POOL = os.path.join(HERE, "pool.json")

E2E_UNITS = {"wall_s": "s", "task_p50_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_REPEATS = 3
# a run stops starting tasks this long after measuring began, whatever the
# deadlines, so that it always ends well inside 180 s even on a machine
# several times slower than the reference
HARD_STOP_S = 110.0

# Speed probe.  This shared machine's speed drifts by up to 45% over tens of
# seconds (a fixed pure-Python loop timed in 2 s windows), which moves every
# CPU-bound time with it.  Times are therefore reported at a reference
# speed: multiplied by CAL_REF_S / (probe time around them).  The probe is a
# fixed loop in this file, so a change to gllab cannot move it.
CAL_LOOPS = 30000
CAL_REF_S = 0.0024           # median probe on the 2-core reference machine
CAL_EVERY_S = 0.25


class DeadlineExceeded(BaseException):
    """Raised in the main thread by SIGALRM when a task overruns.

    A BaseException, so that library code catching Exception cannot swallow
    it.
    """


class Deadline:
    """Per-task deadline via ``signal.setitimer(ITIMER_REAL)``."""

    def __init__(self, seconds, on_fire=None):
        self.seconds = seconds
        self.on_fire = on_fire
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            if self.on_fire is not None:
                self.on_fire()
            raise DeadlineExceeded()

    def __enter__(self):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        return False


def cpu_seconds():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Speed:
    """Speed probes; ``factor()`` scales the time since the last call."""

    def __init__(self):
        self.samples = []
        self.last = -float("inf")
        self.spent = 0.0          # wall seconds spent probing, to subtract

    def probe(self):
        t0 = time.perf_counter()
        gc.disable()
        try:
            x = 0
            for i in range(CAL_LOOPS):
                x += i * i
        finally:
            gc.enable()
        self.last = time.perf_counter()
        self.samples.append(self.last - t0)
        self.spent += self.last - t0

    def maybe_probe(self):
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.probe()

    def factor(self):
        """CAL_REF_S over the median probe since the previous call."""
        f = CAL_REF_S / statistics.median(self.samples)
        self.samples = []
        return f


class Runner:
    """Runs tasks under the deadline and classifies each against its ref.

    ``records`` has one dict per task: ``task``, ``status``, ``detail``,
    ``secs`` (at the reference speed; a deadline overrun keeps its
    wall-clock length, which does not scale with speed) and ``raw_secs``.
    """

    def __init__(self, ctx, deadline):
        self.ctx = ctx
        self.deadline = deadline
        self.speed = Speed()
        self.records = []

    def run_task(self, task, inp):
        import tasks
        if task["kind"] == "isotopy" and task["config"] not in self.ctx.bends:
            return {"task": task, "status": "prerequisite", "raw_secs": 0.0,
                    "cpu": 0.0,
                    "detail": "bend task of the round did not finish"}
        out, status = None, None
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            with self.deadline:
                raw = tasks.execute(task, inp, self.ctx)
        except DeadlineExceeded:
            status = "deadline"
        except Exception as exc:  # every other error is an outcome
            out = {"error": type(exc).__name__}
        dur, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        if task["kind"] == "bend" and status is not None:
            self.ctx.bends.pop(task["config"], None)
        if status is None:
            if out is None:
                out = tasks.outcome(task, raw)
            status = classify(task, out)
        return {"task": task, "status": status, "raw_secs": dur, "cpu": cpu,
                "detail": "" if status == "ok" else
                "overran the deadline" if out is None
                else json.dumps(out)[:300]}

    def run_rounds(self, rounds, prepared, t_begin):
        """Run whole rounds; return one summary dict per round.

        Each task is scaled to the reference speed by the mean of the two
        probes before it and the two after it, the rest of a round (checks,
        bookkeeping) by the round's median probe; probe time itself is left
        out, and deadline overruns are not scaled.
        """
        out = []
        for r, (rt, inputs) in enumerate(zip(rounds, prepared)):
            now = time.perf_counter() - t_begin
            if r > 0 and now > HARD_STOP_S:
                break
            self.speed.probe()
            spent0 = self.speed.spent
            w0, c0 = time.perf_counter(), cpu_seconds()
            recs = []
            for task, inp in zip(rt, inputs):
                if time.perf_counter() - t_begin > HARD_STOP_S:
                    break
                self.speed.maybe_probe()
                rec = self.run_task(task, inp)
                rec["probe"] = len(self.speed.samples) - 1
                recs.append(rec)
            self.speed.probe()
            probes = self.speed.spent - spent0
            wall = time.perf_counter() - w0 - probes
            cpu = cpu_seconds() - c0 - probes
            samples = self.speed.samples
            f_round = self.speed.factor()
            for x in recs:
                i = x.pop("probe")
                near = samples[max(i - 1, 0):i + 3]
                f = 1.0 if x["status"] == "deadline" else \
                    CAL_REF_S * len(near) / sum(near)
                x["secs"] = x["raw_secs"] * f
                x["ref_cpu"] = x["cpu"] * f
            self.records.extend(recs)
            rest = wall - sum(x["raw_secs"] for x in recs)
            rest_cpu = cpu - sum(x["cpu"] for x in recs)
            out.append({"wall": sum(x["secs"] for x in recs)
                        + rest * f_round,
                        "cpu": sum(x["ref_cpu"] for x in recs)
                        + rest_cpu * f_round,
                        "raw_wall": wall, "factor": f_round})
        return out


def classify(task, out):
    """ok, or why the task failed: mismatch, error, certificate."""
    import tasks
    if not tasks.compare(out, task["ref"]):
        return "mismatch"
    expect = task.get("expect_error")
    if expect is not None:
        return "ok" if out.get("error") == expect else "error"
    if "error" in out:
        return "error"
    return "ok" if out["passed"] else "certificate"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("surgery", "straighten", "crosscheck", "plan"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_library():
    """Import gllab from src/ beside this directory, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "gllab", "__init__.py")):
        sys.exit(f"error: no gllab package under {SRC}")
    if not os.path.isfile(POOL):
        sys.exit(f"error: missing input pool {POOL}")
    sys.path.insert(0, SRC)
    import gllab
    if os.path.dirname(os.path.dirname(os.path.abspath(gllab.__file__))) \
            != SRC:
        sys.exit(f"error: gllab imported from {gllab.__file__}, not {SRC}")


def setup(workload, seed, pool):
    """Select and build the run's inputs, then warm up; returns the pieces."""
    import tasks
    import workloads
    ctx = tasks.Context(pool)
    rounds = workloads.make_rounds(pool, workload, seed)
    prepared = [[tasks.prepare(t, ctx) for t in rt] for rt in rounds]
    workloads.warm_up(workload)
    return ctx, rounds, prepared


def main(argv=None):
    args = parse_args(argv)
    load_library()
    import tasks  # noqa: F401  (imported here: needs gllab on sys.path)
    import workloads
    from gllab.certify import thread_count
    with open(POOL) as fh:
        pool = json.load(fh)
    pool = {"charts": pool["charts"], args.workload: pool[args.workload]}
    import_s = time.perf_counter() - T_START

    # set-up: import once, then input generation + warm-up several times,
    # all scaled to the reference speed by probes taken in between
    speed = Speed()
    speed.probe()
    reps = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx, rounds, prepared = setup(args.workload, args.seed, pool)
        reps.append(time.perf_counter() - t0)
        speed.probe()
    setup_s = (import_s + statistics.median(reps)) * speed.factor()

    # the benchmark's own objects (pool, inputs) leave the collector's view,
    # so that they do not add to the cost of gllab's garbage collections
    gc.collect()
    gc.freeze()
    runner = Runner(ctx, Deadline(workloads.DEADLINE[args.workload]))
    t_begin = time.perf_counter()
    if args.trace == 0:
        n = workloads.n_rounds(args.workload, args.seconds)
        if n > len(rounds):
            sys.exit(f"error: {n} rounds wanted, the pool holds "
                     f"{len(rounds)}; use fewer --seconds")
        done = runner.run_rounds(rounds[:n], prepared[:n], t_begin)
    else:
        import tracer
        k = workloads.TRACE_ROUNDS
        done = runner.run_rounds(rounds[:k], prepared[:k], t_begin)
        tr = tracer.Tracer()
        runner.deadline.on_fire = tr.note_deadline
        tr.install()
        try:
            traced = runner.run_rounds(rounds[:k], prepared[:k],
                                       t_begin)
        finally:
            tr.uninstall()
    walls = [r["wall"] for r in done]

    recs = runner.records
    secs = [x["secs"] for x in recs if x["status"] != "prerequisite"]
    failed = [x for x in recs if x["status"] != "ok"]
    correct = not any(x["status"] == "mismatch" for x in recs)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(done)} rounds, {len(recs)} tasks, "
          f"threads {thread_count()}")
    print("inputs " + json.dumps(
        workloads.summary(args.workload, [x["task"] for x in recs])))
    for x in failed:
        print(f"failed {x['task']['id']} {x['status']} {x['detail']}")
    print("rounds (wall s at reference speed / raw / speed factor): "
          + "; ".join(f"{r['wall']:.4f} / {r['raw_wall']:.4f} / "
                      f"{r['factor']:.3f}" for r in done))
    metrics = {}
    if args.trace == 0:
        e2e = {"wall_s": statistics.median(walls),
               "task_p50_s": statistics.median(secs),
               "cpu_s": statistics.median(r["cpu"] for r in done),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0,
               "setup_s": setup_s}
        for name, value in e2e.items():
            metrics[name] = {"value": value, "unit": E2E_UNITS[name]}
            print(f"metric {name} {value:.6f} {E2E_UNITS[name]}")
        print("metric task_p90_s " + (
            f"{statistics.quantiles(secs, n=10)[8]:.6f} s"
            if len(secs) >= 100 else f"n/a ({len(secs)} < 100 tasks)"))
        print(f"metric failed_frac {len(failed) / len(recs):.6f} "
              f"({len(failed)}/{len(recs)})")
    else:
        per = tr.metrics(thread_count(), len(traced))
        per["trace.overhead_s"] = statistics.median(
            r["wall"] for r in traced) - statistics.median(walls)
        for name, unit in tracer.PER_LAYER.items():
            metrics[name] = {"value": per[name], "unit": unit}
            print(f"layer {name} {per[name]:.6g} {unit}")
        print(f"per-layer counts and times are per round over {len(traced)} "
              "traced rounds (times raw, not speed-scaled)")
    print(json.dumps({"correct": correct, "attempted": len(recs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
