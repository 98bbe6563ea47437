"""Out-of-program tracing: wrap bblab's public functions wherever they are bound.

A module that does ``from .lp import lp_feasible`` keeps its own reference to
the function, so patching only the defining module would miss its calls.
``Tracer.install`` therefore looks up each target once, then replaces every
reference to that same function object in every loaded ``bblab`` module (and
on the owning class for methods), and ``uninstall`` puts the originals back.

Two kinds of wrapper exist.  A *span* wrapper records name, start, end,
parent span and task id for every call.  A *count* wrapper only counts calls;
it is used for the innermost kernel loops, where a span per call would cost
more than the call itself.  Spans stay in memory until ``write`` is called.
"""

import gzip
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, kind).  Kind "span" records spans,
# "count" only counts calls.  Targets absent from the program are skipped
# and listed in Tracer.missing.
TARGETS = [
    ("kernel.pivot_update", "bblab._kernel", "pivot_update", "count"),
    ("kernel.first_violated_mask", "bblab._kernel", "first_violated_mask", "count"),
    ("kernel.violated_indices", "bblab._kernel", "violated_indices", "span"),
    ("rationals.clear_denominators", "bblab.rationals", "clear_denominators", "span"),
    ("simplex.solve", "bblab.simplex", "solve", "span"),
    ("polytope.Polytope.leq_system", "bblab.polytope", "Polytope.leq_system", "span"),
    ("polytope.Polytope.with_rows", "bblab.polytope", "Polytope.with_rows", "span"),
    ("lp.lp_feasible", "bblab.lp", "lp_feasible", "span"),
    ("lp.lp_optimize", "bblab.lp", "lp_optimize", "span"),
    ("lp.verify_farkas", "bblab.lp", "verify_farkas", "span"),
    ("families.CrossOracle.find_violated", "bblab.families", "CrossOracle.find_violated", "span"),
    ("families.PerturbedHintOracle.find_violated", "bblab.families",
     "PerturbedHintOracle.find_violated", "span"),
    ("families.gen_cross_polytope", "bblab.families", "gen_cross_polytope", "span"),
    ("families.gen_packing_family", "bblab.families", "gen_packing_family", "span"),
    ("families.gen_perturbed_cross", "bblab.families", "gen_perturbed_cross", "span"),
    ("families.gen_tsp_subtour", "bblab.families", "gen_tsp_subtour", "span"),
    ("search.run_bb", "bblab.search", "run_bb", "span"),
    ("search.RandomGeneral.choose", "bblab.search", "RandomGeneral.choose", "span"),
    ("search.MostFractional.choose", "bblab.search", "MostFractional.choose", "span"),
    ("bbtree.proves_infeasibility", "bblab.bbtree", "proves_infeasibility", "span"),
    ("bbtree.solves", "bblab.bbtree", "solves", "span"),
    ("bbtree.atoms_of", "bblab.bbtree", "atoms_of", "span"),
    ("checkers.enum_integer_points", "bblab.checkers", "enum_integer_points", "span"),
    ("checkers.half_points_feasible", "bblab.checkers", "half_points_feasible", "span"),
]

TASK_SPAN = "task"
SETUP_TASK = -1  # task id of spans recorded while generating inputs


def _solve_extra(counters, task, args, kwargs, result):
    """Cells (rows x vars) and infeasible outcomes of one simplex.solve call."""
    nvars = args[0] if args else kwargs["nvars"]
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    counters[task, "simplex.solve.cells"] += nvars * len(rows)
    if result.status == "infeasible":
        counters[task, "simplex.solve.infeasible"] += 1


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [TASK_SPAN] + [t[0] for t in targets]
        self.name_id = {n: i for i, n in enumerate(self.names)}
        # One entry per span, in parallel lists: name id, start, end, parent
        # span index (-1 for a root) and task id.
        self.span_name, self.span_start, self.span_end = [], [], []
        self.span_parent, self.span_task = [], []
        self.counters = defaultdict(int)  # (task id, counter name) -> count
        self.stack = []
        self.task = SETUP_TASK
        self.patched = []  # (owner, attribute, original)
        self.missing = []

    # ------------------------------------------------------------ install

    def install(self):
        for name, modname, path, kind in self.targets:
            owner = sys.modules.get(modname)
            parts = path.split(".")
            try:
                for part in parts[:-1]:
                    owner = getattr(owner, part)
                orig = getattr(owner, parts[-1])
            except AttributeError:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, kind, orig)
            if len(parts) > 1:
                self._patch(owner, parts[-1], orig, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if mod is None or not getattr(mod, "__name__", "").startswith("bblab"):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self.patched):
            setattr(owner, attr, orig)
        self.patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name, kind, fn):
        counters = self.counters
        calls_key = name + ".calls"
        if kind == "count":
            def counted(*args, **kwargs):
                counters[self.task, calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        nid = self.name_id[name]
        extra = _solve_extra if name == "simplex.solve" else None
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[idx] = clock()
                self.stack.pop()
            if extra is not None:
                extra(counters, self.task, args, kwargs, result)
            return result

        return spanned

    def _open(self, nid):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_task.append(self.task)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    # --------------------------------------------------------------- tasks

    def run_task(self, task_id, fn, *args):
        """Call fn(*args) inside a root span for task ``task_id``."""
        self.task = task_id
        idx = self._open(self.name_id[TASK_SPAN])
        try:
            return fn(*args)
        finally:
            self.span_end[idx] = time.perf_counter()
            self.stack.pop()
            self.task = SETUP_TASK

    # ------------------------------------------------------------- results

    def self_times(self):
        """Per span: duration minus the durations of its direct children."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def aggregate(self, task_ids):
        """Calls, self time and extra counters summed over the given tasks."""
        task_ids = set(task_ids)
        calls = defaultdict(int)
        self_s = defaultdict(float)
        _, selfs = self.self_times()
        for i, nid in enumerate(self.span_name):
            if self.span_task[i] in task_ids:
                name = self.names[nid]
                calls[name] += 1
                self_s[name] += selfs[i]
        counts = defaultdict(int)
        for (task, key), v in self.counters.items():
            if task in task_ids:
                counts[key] += v
        for name, c in calls.items():
            counts[name + ".calls"] = c
        return counts, self_s

    def overlapping_spans(self):
        """Spans whose children last longer than they do (negative self time)."""
        _, selfs = self.self_times()
        return sum(1 for v in selfs if v < -1e-9)

    def task_durations(self, task_ids):
        task_ids = set(task_ids)
        tid = self.name_id[TASK_SPAN]
        return {
            self.span_task[i]: self.span_end[i] - self.span_start[i]
            for i, nid in enumerate(self.span_name)
            if nid == tid and self.span_task[i] in task_ids
        }

    def write(self, path):
        """Write every span as CSV (times in microseconds from the first span)."""
        t0 = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span,name,parent,task,start_us,end_us\n")
            for i, nid in enumerate(self.span_name):
                fh.write(
                    f"{i},{self.names[nid]},{self.span_parent[i]},{self.span_task[i]},"
                    f"{(self.span_start[i] - t0) * 1e6:.1f},{(self.span_end[i] - t0) * 1e6:.1f}\n"
                )
