"""The benchmark's workloads: inputs made from a seed, one task per instance.

A task takes one instance from its inputs to a certified verdict.  Inputs
are built in ``make`` (set-up, untimed) and ``run`` is the timed task.  Every
call into bblab goes through a module attribute (``bbtree.solves``), so the
tracer's wrappers see it.  ``check`` compares the outcome with the
independent references in ``reference.py``.
"""

import random
from fractions import Fraction
from types import SimpleNamespace as Instance

from bblab import bbtree, checkers, families, search

import reference


def instance_seed(seed, i):
    """Seed of instance i of a run; instance 0 uses the run's own seed."""
    return seed + 1000 * i


class Workload:
    def warm_up(self, seed):
        """An instance to run untimed after set-up, or None."""
        return None


# ------------------------------------------------------------ cross-replay

class CrossReplay(Workload):
    """Replay a full variable tree on the oracle cross-polytope P_n.

    Every task has n = 7 (255 nodes, about 1 s): with one size, the median
    task time is a median over the whole run, not over the few tasks of a
    middle size.  The seed changes the variable orders and flips, not the
    work: every n = 7 tree makes the same number of pivots.  n = 9 (8 s per
    task) would leave a run too few tasks for a steady rate.
    """

    name = "cross-replay"
    n = 7
    trace_tasks = 2
    pool = 40

    def make(self, seed, i):
        n = self.n
        rng = random.Random(instance_seed(seed, i))
        flips = [rng.random() < 0.5 for _ in range(n)]

        def build(free):
            # Each subtree draws its own next variable; a flipped coordinate
            # branches as -x_i <= -1 v -x_i >= 0 (the same split, sides swapped).
            if not free:
                return bbtree.leaf()
            var = rng.choice(free)
            rest = [j for j in free if j != var]
            sign = -1 if flips[var] else 1
            pi = tuple(sign * int(j == var) for j in range(n))
            disj = bbtree.Disjunction(pi, -1 if flips[var] else 0)
            left = build(rest)
            return bbtree.node(disj, left, build(rest))

        P = families.gen_cross_polytope(families.CrossSpec(n, "oracle"))
        return Instance(index=i, n=n, P=P, tree=build(list(range(n))))

    def run(self, inst):
        return bbtree.proves_infeasibility(inst.tree, inst.P)

    def verdict(self, inst, rep):
        return f"n={inst.n} proved={rep.proved} leaves={len(rep.certificates or [])}"

    def nodes(self, inst, rep):
        return reference.tree_size(inst.tree)

    def check(self, inst, rep):
        n = inst.n
        if reference.tree_size(inst.tree) != 2 ** (n + 1) - 1:
            return ["input tree has the wrong size"]
        return reference.audit_tree_proof(
            rep, inst.tree, n, [], lambda con: reference.is_cross_row(con, n)
        )


# ------------------------------------------------------------ packing-bb

class PackingBB(Workload):
    """Grow a tree with random general disjunctions on Q(6,2), then replay it.

    Tree sizes vary with the strategy seed (about 50 to 100 nodes), so a run
    needs dozens of tasks for a steady mean.  Q(6,3) (85 to 180 nodes, 0.9 s
    a task) and Q(7,3) (6 to 9 s a task) are left out for that reason.
    """

    name = "packing-bb"
    n, k = 6, 2
    trace_tasks = 6
    pool = 160

    def make(self, seed, i):
        Q = families.gen_packing_family(families.PackingSpec(self.n, self.k, with_cover=True))
        return Instance(index=i, Q=Q, strategy_seed=instance_seed(seed, i))

    def run(self, inst):
        rep = search.run_bb(inst.Q, search.RandomGeneral(2, inst.strategy_seed))
        replay = bbtree.proves_infeasibility(rep.tree, inst.Q)
        return rep, replay

    def verdict(self, inst, out):
        rep, replay = out
        return f"{rep.status} nodes={rep.nodes} replay={replay.proved}"

    def nodes(self, inst, out):
        rep, _ = out
        return rep.nodes + reference.tree_size(rep.tree)

    def check(self, inst, out):
        rep, replay = out
        n, k = self.n, self.k
        if rep.status != "proved-infeasible":
            return [f"engine status {rep.status}"]
        size = reference.tree_size(rep.tree)
        if rep.nodes != size:
            return [f"engine reports {rep.nodes} nodes, tree has {size}"]
        if size < reference.packing_node_bound(n, k):
            return [f"{size} nodes is below the bound {reference.packing_node_bound(n, k)}"]
        rows = [(tuple(r.coeffs), r.rel, r.rhs) for r in inst.Q.rows]
        if len(rows) != len(set(rows)) or set(rows) != reference.packing_rows(n, k):
            return ["generated rows are not Q(n,k)"]
        base = [reference.as_leq(*r) for r in rows]
        return reference.audit_tree_proof(replay, rep.tree, n, base)


# ------------------------------------------------------------ enum-perturbed

class EnumPerturbed(Workload):
    """Criterion 8's body at n = 12: generate, enumerate 0/1 points, check Half_5.

    No simplex call is made.  Generation is part of the task, so the set-up
    generates one warm-up instance, which then runs untimed.
    """

    name = "enum-perturbed"
    n, s = 12, 5
    trace_tasks = 2
    pool = 64

    def make(self, seed, i):
        spec = families.PerturbedSpec(self.n, seed=instance_seed(seed, i))
        return Instance(index=i, spec=spec, Q=None)

    def warm_up(self, seed):
        inst = self.make(seed, -1)
        inst.Q = families.gen_perturbed_cross(inst.spec)
        return inst

    def run(self, inst):
        # Timed instances are generated inside the task; only the warm-up
        # instance arrives generated.
        Q = inst.Q if inst.Q is not None else families.gen_perturbed_cross(inst.spec)
        return Q, checkers.enum_integer_points(Q), checkers.half_points_feasible(Q, self.s)

    def verdict(self, inst, out):
        _, points, half = out
        return f"points={len(points)} halves={half.holds}"

    def nodes(self, inst, out):
        return 0

    def check(self, inst, out):
        Q, points, half = out
        feasible, halves, problems = reference.perturbed_points_and_halves(Q.rows, self.n, self.s)
        if problems:
            return problems
        if sorted(tuple(p) for p in points) != feasible:
            return [f"{len(points)} integer points reported, reference finds {len(feasible)}"]
        if half.holds != halves:
            return [f"Half_{self.s} verdict {half.holds}, reference {halves}"]
        return []


# ------------------------------------------------------------ TSP

PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]
PRISM_MATCHING = [(0, 3), (1, 4), (2, 5)]
PRISM_TRIANGLES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]


class TspBranch(Workload):
    """Solve the 10-city subtour relaxation by B&B, then replay with ``solves``.

    Cheap edges (cost 100 + noise) form a relabelled Petersen graph, which has
    no Hamiltonian cycle, so the root LP is fractional for every seed and the
    engine must branch.  One task takes 15 to 30 s, and ``solves`` raises
    DimensionTooLarge on some seeds, so this workload is run on its own, not
    in BENCHMARK.json; see README.md.
    """

    name = "tsp-branch"
    cities = 10
    tiers = ((PETERSEN, 100),)  # (edges before relabelling, base cost)
    other_cost = 200  # base cost of every edge in no tier
    trace_tasks = 1
    pool = 2

    def make(self, seed, i):
        n = self.cities
        rng = random.Random(instance_seed(seed, i))
        label = list(range(n))
        rng.shuffle(label)
        base = {frozenset((label[a], label[b])): c for edges, c in self.tiers for a, b in edges}
        cost = [[0] * n for _ in range(n)]
        for a, b in reference.tsp_edges(n):
            cost[a][b] = cost[b][a] = base.get(frozenset((a, b)), self.other_cost) + rng.randint(0, 9)
        c = tuple(Fraction(-cost[a][b]) for a, b in reference.tsp_edges(n))
        T = families.gen_tsp_subtour(families.TspSpec(n))
        return Instance(index=i, T=T, c=c, cost=cost)

    def run(self, inst):
        rep = search.run_bb(inst.T, search.MostFractional(), objective=inst.c,
                            budget=search.SearchBudget(max_nodes=20000))
        # The engine's integral leaves are the replay's witnesses, keyed by
        # left-to-right leaf index.
        witnesses = {}
        for i, path in enumerate(rep.tree.leaf_paths()):
            rec = rep.records.get(path)
            if rec is not None and rec.pruned == "integral":
                witnesses[i] = rec.lp_point
        return rep, bbtree.solves(rep.tree, inst.T, inst.c, witnesses)

    def verdict(self, inst, out):
        rep, replay = out
        return f"{rep.status} value={rep.value} nodes={rep.nodes} replay={replay.solved}"

    def nodes(self, inst, out):
        rep, _ = out
        return rep.nodes + reference.tree_size(rep.tree)

    def check(self, inst, out):
        rep, replay = out
        if rep.status != "solved" or not replay.solved:
            return [f"engine {rep.status}, replay solved={replay.solved}"]
        if rep.nodes < 3:
            # Both cost structures put a fractional LP point below every tour.
            return [f"{rep.nodes} node(s): the root LP cannot be integral"]
        if not reference.is_tour(self.cities, rep.point):
            return ["incumbent is not a Hamiltonian cycle"]
        edges = reference.tsp_edges(self.cities)
        cost = sum(inst.cost[a][b] for (a, b), v in zip(edges, rep.point) if v == 1)
        if -rep.value != cost:
            return [f"engine reports {-rep.value}, its incumbent costs {cost}"]
        best = reference.brute_force_min_tour(self.cities, inst.cost)
        if -rep.value != best:
            return [f"optimum {-rep.value}, brute force {best}"]
        return []


class TspPrism(TspBranch):
    """The same task on 6 cities, small enough for a checked workload.

    Matching edges of the prism (two triangles joined by a perfect matching)
    cost 100, triangle edges 200 and every other edge 400, each plus noise in
    0..9 and under a seeded relabelling.  The point with 1 on the matching
    and 1/2 on the triangles costs at most 954.  A tour on prism edges uses
    two matching and four triangle edges (1,000 or more); any other tour has
    a 400 edge (1,100 or more).  So the root LP is fractional and the engine
    branches.  In dimension 15 the 0/1 enumeration in ``solves``
    stays legal.
    """

    name = "tsp-prism"
    cities = 6
    tiers = ((PRISM_MATCHING, 100), (PRISM_TRIANGLES, 200))
    other_cost = 400
    trace_tasks = 8
    pool = 160


WORKLOADS = {w.name: w for w in (CrossReplay, PackingBB, EnumPerturbed, TspPrism, TspBranch)}
