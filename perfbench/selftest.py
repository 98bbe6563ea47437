"""Self-tests of the benchmark's tracer and of the program's determinism.

``closed_form_problems`` checks the tracer against counts known in closed
form; every traced run calls it first.  Run this file to check, across
processes, that two traced runs of one seed give identical counts and that
verdicts do not change with tracing on:

    python3 perfbench/selftest.py --workload packing-bb --seed 3

PYTHONHASHSEED is deliberately left unpinned, so each process draws its own.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def closed_form_problems():
    """Problems found when tracing runs whose call counts are known exactly:
    proving P_6 infeasible with the full variable tree makes one lp_feasible
    call per leaf (64), and run_bb makes one LP call per node it creates.
    The first call reaches lp_feasible through bbtree's own ``from .lp import``
    binding, the second through search's."""
    from bblab import bbtree, families, search

    from tracer import Tracer

    problems = []
    P6 = families.gen_cross_polytope(families.CrossSpec(6, "oracle"))
    Q = families.gen_packing_family(families.PackingSpec(6, 3, with_cover=True))
    tracer = Tracer()
    with tracer:
        tracer.run_task(0, bbtree.proves_infeasibility, bbtree.full_variable_tree(6), P6)
        rep = tracer.run_task(1, search.run_bb, Q, search.RandomGeneral(2, 0))
    for task, want, what in ((0, 64, "P_6 leaves"), (1, rep.nodes, "run_bb nodes")):
        counts, _ = tracer.aggregate([task])
        got = counts.get("lp.lp_feasible.calls", 0) + counts.get("lp.lp_optimize.calls", 0)
        if got != want:
            problems.append(f"tracer saw {got} LP calls for {want} {what}")
    if tracer.overlapping_spans():
        problems.append("some span has a negative self time")
    if tracer.patched:
        problems.append("tracer left wrappers installed")
    return problems


def run(workload, seed, trace, seconds):
    env = dict(os.environ)
    env.pop("PYTHONHASHSEED", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description="cross-process determinism check")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    first, first_result = run(args.workload, args.seed, 1, 1)
    second, _ = run(args.workload, args.seed, 1, 1)
    plain, _ = run(args.workload, args.seed, 0, 1)
    problems = []
    if first["counts"] != second["counts"]:
        diff = sorted(k for k in first["counts"].keys() | second["counts"].keys()
                      if first["counts"].get(k) != second["counts"].get(k))
        problems.append(f"defect: traced counts differ between processes: {diff}")
    for idx, verdict in first["verdicts"].items():
        for other, label in ((second, "second traced run"), (plain, "untraced run")):
            if idx in other["verdicts"] and other["verdicts"][idx] != verdict:
                problems.append(f"instance {idx}: verdict differs in the {label}")
    if not first_result["correct"]:
        problems.append(f"traced run not correct: {first['failures']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "counts_compared": len(first["counts"]), "problems": problems}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
