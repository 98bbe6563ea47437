"""bblab benchmark: certified verdicts per second on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cross-replay --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each task starts when the previous
one has finished.  With ``--trace 0`` the run measures end-to-end metrics
with no instrumentation.  With ``--trace 1`` it runs a fixed list of tasks
once untraced and then, until ``--seconds`` is used up, traced passes over
the same list, and reports per-layer metrics per pass.  The last line of
standard output is the result; the line before it gives detail (environment,
verdicts, failures, tail percentile).
"""

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 5  # fewest set-ups before timing; setup_s is their median
SETUP_MIN_S = 3.0  # cheap set-ups repeat until they have taken this long
MIN_TASKS = 11  # fewest tasks that leave ten beyond a tail percentile
WALL_CAP_S = 140.0  # start no task after this long
CAL_SHARE = 0.1  # calibration after an interval takes at least this share of it
NOMINAL_CAL_S = 0.015  # timings are scaled to a machine where one sample takes this long

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "verdict_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    """Import bblab from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "bblab" / "__init__.py").is_file():
        sys.exit(f"error: no bblab sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(HERE))
    import bblab

    if Path(bblab.__file__).resolve().parent != (src / "bblab").resolve():
        sys.exit(f"error: imported bblab from {bblab.__file__}, not from {src}")


def environment(seed):
    from bblab import _kernel

    return {
        "python": sys.version.split()[0],
        "kernel": _kernel.IMPLEMENTATION,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Loop:
    """Runs tasks one after another and keeps what the result needs."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.durations = []  # every task, failed or not
        self.passed = []  # indices into durations of the tasks that did not fail
        self.nodes = 0
        self.verdicts = {}  # instance index -> verdict
        self.failed = 0  # tasks that raised or gave a wrong verdict
        self.wrong = False  # some verdict disagreed with its reference
        self.problems = []

    def task(self, inst, task_id=None):
        wl = self.wl
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                out = wl.run(inst)
            else:
                out = self.tracer.run_task(task_id, wl.run, inst)
        except Exception as exc:  # a raising task is a failed task, not a crash
            self.durations.append(time.perf_counter() - t0)
            self.fail(inst, f"raised {type(exc).__name__}: {exc}")
            self.verdicts.setdefault(inst.index, f"error {type(exc).__name__}")
            traceback.print_exc(file=sys.stderr)
            return
        self.durations.append(time.perf_counter() - t0)
        # Outside the timed interval: record, then check against the reference.
        verdict = wl.verdict(inst, out)
        problems = wl.check(inst, out)
        if self.verdicts.setdefault(inst.index, verdict) != verdict:
            problems.append(f"verdict {verdict!r} differs from an earlier run")
        self.nodes += wl.nodes(inst, out)
        if problems:
            self.wrong = True
            self.fail(inst, "wrong: " + "; ".join(problems))
        else:
            self.passed.append(len(self.durations) - 1)

    def fail(self, inst, reason):
        self.failed += 1
        self.problems.append(f"instance {inst.index}: {reason}")


def calibration_work():
    """A fixed piece of pure-Python work that uses no bblab code: ten
    Gauss-Jordan eliminations of a 7 x 8 rational matrix in Fractions."""
    n = 7
    for _ in range(10):
        a = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n + 1)]
             for i in range(n)]
        for i in range(n):
            a[i][i] += 13
        for col in range(n):
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            for r in range(n):
                if r != col:
                    f = a[r][col]
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return a


class Calibration:
    """Samples of the machine's current speed, taken between the intervals
    they calibrate and never inside one.

    On a shared host the machine's speed can jump between levels 60% apart
    every few seconds, and CPU time jumps with it.  A fixed pure-Python
    sample slows down with the program, so an interval divided by the
    samples on either side of it is nearly free of the jumps.
    ``blocks[j]`` holds the samples taken before interval j, ``blocks[j + 1]``
    those taken after it.
    """

    def __init__(self):
        self.blocks = []

    def sample(self, after_s):
        """Sample once, and on until the samples take CAL_SHARE of after_s,
        the length of the interval just ended."""
        block = []
        while not block or sum(block) < CAL_SHARE * after_s:
            t0 = time.perf_counter()
            calibration_work()
            block.append(time.perf_counter() - t0)
        self.blocks.append(block)

    def scaled(self, durations):
        """Each duration as it would read on the nominal machine."""
        assert len(self.blocks) == len(durations) + 1
        return [
            d * NOMINAL_CAL_S / statistics.mean(self.blocks[j] + self.blocks[j + 1])
            for j, d in enumerate(durations)
        ]

    def median_sample(self):
        return statistics.median(x for block in self.blocks for x in block)


def instance(wl, seed, pool, i):
    while len(pool) <= i:
        pool.append(wl.make(seed, len(pool)))
    return pool[i]


def set_up(wl, seed):
    """Build the input pool and the warm-up instance; returns (pool, warm, seconds)."""
    gc.collect()  # no garbage from an earlier set-up is collected inside this one
    t0 = time.perf_counter()
    pool = [wl.make(seed, i) for i in range(wl.pool)]
    warm = wl.warm_up(seed)
    return pool, warm, time.perf_counter() - t0


def tail(durations):
    """Highest percentile with at least ten tasks beyond it: (value, pct)."""
    n = len(durations)
    if n < MIN_TASKS:
        return None, None
    r = n - MIN_TASKS
    return sorted(durations)[r], 100.0 * (r + 1) / n


def timed_run(wl, args):
    setup_times = []
    setup_cal = Calibration()
    setup_cal.sample(0)
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_MIN_S:
        pool, warm, seconds = set_up(wl, args.seed)
        setup_times.append(seconds)
        setup_cal.sample(seconds)
    warm_loop = Loop(wl)
    if warm is not None:
        warm_loop.task(warm)
        del warm
    # The input pool lives for the whole run; frozen, it is not traversed by
    # every full collection inside the tasks.
    gc.collect()
    gc.freeze()
    loop = Loop(wl)
    task_cal = Calibration()
    task_cal.sample(0)
    wall0 = time.perf_counter()
    i = 0
    while sum(loop.durations) < args.seconds and time.perf_counter() - wall0 <= WALL_CAP_S:
        loop.task(instance(wl, args.seed, pool, i))
        task_cal.sample(loop.durations[-1])
        i += 1
    # The untimed warm-up task counts neither as attempted nor as failed,
    # but a wrong verdict there still makes the run incorrect.
    loop.wrong |= warm_loop.wrong
    loop.problems = warm_loop.problems + loop.problems
    # Only certified verdicts count; a failed task's time still counts.
    # Timings are scaled to the nominal machine; the raw ones go on the
    # detail line.
    busy = sum(loop.durations)
    passed = [loop.durations[j] for j in loop.passed]
    scaled = task_cal.scaled(loop.durations)
    scaled_passed = [scaled[j] for j in loop.passed]
    tail_s, tail_pct = tail(scaled_passed)
    values = {
        "tasks_per_s": len(passed) / sum(scaled),
        "verdict_p50_s": statistics.median(scaled_passed) if passed else None,
        "setup_s": statistics.median(setup_cal.scaled(setup_times)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    detail = {
        "tasks": len(loop.durations),
        "timed_s": busy,
        "failed_ratio": loop.failed / len(loop.durations),
        "tree_nodes_per_s": loop.nodes / sum(scaled) if loop.nodes else None,
        "verdict_tail_s": tail_s,
        "verdict_tail": {"percentile": tail_pct, "tasks": len(passed)},
        "raw": {
            "tasks_per_s": len(passed) / busy,
            "verdict_p50_s": statistics.median(passed) if passed else None,
            "setup_s": statistics.median(setup_times),
        },
        "calibration_median_s": {
            "setup": setup_cal.median_sample(),
            "tasks": task_cal.median_sample(),
        },
        "setup_runs_s": setup_times,
    }
    return loop, metrics, detail


def traced_run(wl, args):
    import selftest
    from tracer import SETUP_TASK, Tracer

    problems = selftest.closed_form_problems()
    k = wl.trace_tasks

    # Untraced pass over the trace list: the overhead baseline and the
    # verdicts that every traced pass must reproduce.
    plain = Loop(wl)
    for i in range(k):
        plain.task(wl.make(args.seed, i))

    tracer = Tracer()
    traced = Loop(wl, tracer)
    passes = 0
    with tracer:
        while passes == 0 or sum(traced.durations) < args.seconds:
            tracer.task = SETUP_TASK - passes
            insts = [wl.make(args.seed, i) for i in range(k)]
            tracer.task = SETUP_TASK
            for i, inst in enumerate(insts):
                traced.task(inst, task_id=passes * 1000 + i)
            passes += 1
            if sum(traced.durations) + sum(plain.durations) > WALL_CAP_S:
                break

    per_pass = []
    for p in range(passes):
        ids = [p * 1000 + i for i in range(k)]
        counts, self_s = tracer.aggregate(ids + [SETUP_TASK - p])
        durations = tracer.task_durations(ids)
        per_pass.append((dict(counts), self_s, sum(durations.values())))
    deterministic = all(c == per_pass[0][0] for c, _, _ in per_pass)
    if not deterministic:
        print("defect: counts differ between traced passes of the same tasks", file=sys.stderr)
    for idx, verdict in plain.verdicts.items():
        if traced.verdicts.get(idx) != verdict:
            problems.append(f"instance {idx}: verdict changes with tracing on")

    # A span that outlives its parent, or is given the wrong parent, shows
    # as a negative self time.
    overlapping = tracer.overlapping_spans()
    if overlapping:
        problems.append(f"{overlapping} spans have a negative self time")
    counts = per_pass[0][0]
    metrics = layer_metrics(tracer, counts, per_pass, k, sum(plain.durations))
    detail = {
        "passes": passes,
        "trace_tasks": k,
        "deterministic": deterministic,
        "missing_targets": tracer.missing,
        "counts": counts,
        "overhead_ratio": metrics["trace.untraced_tasks_per_s"]["value"]
        / metrics["trace.traced_tasks_per_s"]["value"] - 1,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"{wl.name}-seed{args.seed}.spans.csv.gz")
    loop = Loop(wl)
    loop.durations = plain.durations + traced.durations
    loop.verdicts = plain.verdicts
    loop.failed = plain.failed + traced.failed
    loop.wrong = plain.wrong or traced.wrong or bool(problems)
    loop.problems = plain.problems + traced.problems + problems
    return loop, metrics, detail


def layer_metrics(tracer, counts, per_pass, k, plain_s):
    """Per-layer metrics for one pass: counts from pass 0 (every pass must
    agree), self times averaged over passes."""
    npass = len(per_pass)
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for name, _, _, kind in tracer.targets:
        put(name + ".calls", counts.get(name + ".calls", 0), "count")
        if kind == "span":
            put(name + ".self_s", sum(s.get(name, 0.0) for _, s, _ in per_pass) / npass, "s")
    put("task.self_s", sum(s.get("task", 0.0) for _, s, _ in per_pass) / npass, "s")
    solves = counts.get("simplex.solve.calls", 0)
    lp_calls = counts.get("lp.lp_feasible.calls", 0) + counts.get("lp.lp_optimize.calls", 0)
    put("simplex.solve.cells", counts.get("simplex.solve.cells", 0), "count")
    put("simplex.solve.infeasible_ratio",
        counts.get("simplex.solve.infeasible", 0) / solves if solves else 0.0, "ratio")
    put("simplex.pivots_per_solve",
        counts.get("kernel.pivot_update.calls", 0) / solves if solves else 0.0, "ratio")
    put("lp.rounds_per_solve", solves / lp_calls if lp_calls else 0.0, "ratio")
    traced_s = sum(d for _, _, d in per_pass) / npass
    put("trace.untraced_tasks_per_s", k / plain_s, "1/s")
    put("trace.traced_tasks_per_s", k / traced_s, "1/s")
    return out


def main(argv=None):
    args = parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        sys.exit("error: --seconds must be positive")
    wl = WORKLOADS[args.workload]()
    run = traced_run if args.trace else timed_run
    loop, metrics, detail = run(wl, args)
    detail = {
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
        "env": environment(args.seed),
        **detail,
        "failures": loop.problems,
        "verdicts": {str(k): v for k, v in sorted(loop.verdicts.items())},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not loop.wrong,
        "attempted": len(loop.durations),
        "failed": loop.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
