"""Branch-and-bound execution and exhaustive bounded-coefficient searches.

``run_bb`` grows honest BB trees: best-bound node selection, the three
classical pruning rules, and strategies that must cut off the node's LP
optimum.  ``min_tree_size`` and ``separation_resistance`` exhaustively
search trees whose disjunction coefficients are bounded by M (tiny
dimensions only); their results are lower-bound evidence for the
bounded-coefficient tree class, which every report spells out.
"""

import heapq
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import ceil, floor

from .bbtree import BBTree, Disjunction, atoms_of, leaf, node
from .checkers import enum_integer_points
from .errors import (
    PNotInfeasible,
    PointInHull,
    PointNotInP,
    StrategyStuck,
    TooLarge,
)
from .lp import convex_weights, in_convex_hull_of_union, lp_feasible, lp_optimize
from .polytope import Polytope
from .rationals import dot, rat_vector

COEFF_CAVEAT = (
    "bounded-coefficient search: lower-bound evidence applies only to trees "
    "with ||pi||_inf <= M; trees with larger coefficients are outside the "
    "enumerated class"
)


# ------------------------------------------------------------ strategies

class MostFractional:
    """Branch on the variable whose value is farthest from an integer."""

    kind = "most-fractional"

    def choose(self, point, node_id):
        best, best_i = None, -1
        for i, v in enumerate(point):
            f = v - floor(v)
            score = min(f, 1 - f)
            if score > 0 and (best is None or score > best):
                best, best_i = score, i
        if best_i < 0:
            raise StrategyStuck("LP optimum is integral; nothing to branch on")
        pi = tuple(int(i == best_i) for i in range(len(point)))
        return Disjunction(pi, floor(point[best_i]))

    def describe(self):
        return {"kind": self.kind}


class RandomGeneral:
    """Random integer disjunctions with ||pi||_inf <= M, seeded per node."""

    kind = "random-general"

    def __init__(self, M, seed):
        if M < 1:
            raise ValueError("M must be >= 1")
        self.M = M
        self.seed = seed

    def choose(self, point, node_id):
        rng = random.Random(self.seed * 1_000_003 + node_id)
        n = len(point)
        for _ in range(500):
            pi = tuple(rng.randint(-self.M, self.M) for _ in range(n))
            if not any(pi):
                continue
            val = dot(rat_vector(pi), point)
            if val.denominator != 1:
                return Disjunction(pi, floor(val))
        raise StrategyStuck("no random disjunction cut the LP optimum")

    def describe(self):
        return {"kind": self.kind, "M": self.M, "seed": self.seed}


class FixedSequence:
    """First disjunction from a fixed list that cuts the LP optimum."""

    kind = "fixed-sequence"

    def __init__(self, disjunctions):
        self.disjunctions = list(disjunctions)

    def choose(self, point, node_id):
        for d in self.disjunctions:
            if d.cuts_off(point):
                return d
        raise StrategyStuck("no listed disjunction cuts the LP optimum")

    def describe(self):
        return {"kind": self.kind, "length": len(self.disjunctions)}


@dataclass
class SearchBudget:
    max_nodes: int = 100_000
    max_leaves: int = 100_000

    def __post_init__(self):
        if self.max_nodes < 1 or self.max_leaves < 1:
            raise ValueError("budgets must be positive")


@dataclass
class NodeRecord:
    path: str
    lp_point: tuple | None
    lp_value: Fraction | None
    disjunction: Disjunction | None
    pruned: str | None  # "empty" | "integral" | "bounded" | "open"


@dataclass
class RunReport:
    tree: BBTree
    status: str  # "proved-infeasible" | "solved" | "budget-exceeded"
    nodes: int
    leaves: int
    value: Fraction | None = None
    point: tuple | None = None
    records: dict = field(default_factory=dict)  # path -> NodeRecord

    def leaf_witnesses(self):
        """Map leaf index (left-to-right order) to the engine's integral LP
        optimum, for every leaf pruned as integral."""
        out = {}
        for i, path in enumerate(self.tree.leaf_paths()):
            rec = self.records.get(path)
            if rec is not None and rec.pruned == "integral":
                out[i] = rec.lp_point
        return out


class _Node:
    __slots__ = ("nid", "path", "rows", "outcome", "disj", "children", "pruned")

    def __init__(self, nid, path, rows):
        self.nid = nid
        self.path = path
        self.rows = rows
        self.outcome = None
        self.disj = None
        self.children = None
        self.pruned = None


def run_bb(P: Polytope, strategy, objective=None, budget=None) -> RunReport:
    """Run branch-and-bound on P, proving infeasibility or solving max c.x.

    Nodes are selected best-LP-bound first (creation order breaks ties; pure
    FIFO when there is no objective).  A node is pruned when its LP is
    infeasible, its LP optimum is integral, or its LP value cannot beat the
    incumbent; otherwise the strategy must supply a disjunction cutting off
    the node's LP optimum.
    """
    budget = budget or SearchBudget()
    if objective is not None:
        objective = rat_vector(objective)

    nodes = []
    heap = []
    incumbent_value = None
    incumbent_point = None
    found_integral = None

    def make_node(path, rows):
        nonlocal incumbent_value, incumbent_point, found_integral
        nd = _Node(len(nodes), path, rows)
        nodes.append(nd)
        atom = P.with_rows(rows)
        if objective is None:
            out = lp_feasible(atom)
        else:
            out = lp_optimize(atom, objective, "max")
        nd.outcome = out
        if not out.feasible:
            nd.pruned = "empty"
            return nd
        if all(v.denominator == 1 for v in out.point):
            nd.pruned = "integral"
            if objective is None:
                found_integral = nd
            elif incumbent_value is None or out.value > incumbent_value:
                incumbent_value, incumbent_point = out.value, out.point
            return nd
        key = (-out.value, nd.nid) if objective is not None else nd.nid
        heapq.heappush(heap, (key, nd.nid))
        return nd

    root = make_node("", ())
    status = None
    while heap:
        if found_integral is not None:
            break
        _, nid = heapq.heappop(heap)
        nd = nodes[nid]
        if (
            objective is not None
            and incumbent_value is not None
            and nd.outcome.value <= incumbent_value
        ):
            nd.pruned = "bounded"
            continue
        leaves = (len(nodes) + 1) // 2  # the tree is full binary
        if len(nodes) + 2 > budget.max_nodes or leaves + 1 > budget.max_leaves:
            status = "budget-exceeded"
            break
        disj = strategy.choose(nd.outcome.point, nd.nid)
        if not disj.cuts_off(nd.outcome.point):
            raise StrategyStuck("strategy returned a disjunction that keeps the optimum")
        nd.disj = disj
        left = make_node(nd.path + "L", nd.rows + (disj.left_row(),))
        right = make_node(nd.path + "R", nd.rows + (disj.right_row(),))
        nd.children = (left.nid, right.nid)

    if status is None:
        if found_integral is not None:
            status = "solved"
            incumbent_point = found_integral.outcome.point
        elif incumbent_value is not None:
            status = "solved"
        else:
            status = "proved-infeasible"

    tree = _build_tree(nodes, root)
    records = {
        nd.path: NodeRecord(
            nd.path,
            nd.outcome.point,
            nd.outcome.value,
            nd.disj,
            nd.pruned if nd.children is None else None,
        )
        for nd in nodes
    }
    return RunReport(
        tree,
        status,
        nodes=tree.size,
        leaves=tree.leaf_count,
        value=incumbent_value,
        point=incumbent_point,
        records=records,
    )


def _build_tree(nodes, root):
    def build(nd):
        if nd.children is None:
            return leaf()
        li, ri = nd.children
        return node(nd.disj, build(nodes[li]), build(nodes[ri]))

    return build(root)


# ------------------------------------------------- exhaustive searches

def candidate_normals(n, M):
    """Sign-canonical integer vectors with ||pi||_inf <= M (pi and -pi give
    the same split with sides swapped, so only one representative is kept)."""
    out = []
    for pi in product(range(-M, M + 1), repeat=n):
        lead = next((v for v in pi if v != 0), 0)
        if lead > 0:
            out.append(pi)
    return out


class _AtomIndex:
    """Canonical keys, emptiness, and pi-value windows for atoms, memoized."""

    def __init__(self, P, M):
        self.P = P.materialized()
        self.normals = candidate_normals(P.dim, M)
        self._base = frozenset(r.normalized() for r in self.P.rows)
        self._empty = {}
        self._window = {}

    def key(self, rows):
        return self._base.union(r.normalized() for r in rows)

    def polytope(self, rows):
        return self.P.with_rows(rows)

    def is_empty(self, key, rows):
        if key not in self._empty:
            self._empty[key] = not lp_feasible(self.polytope(rows)).feasible
        return self._empty[key]

    def window(self, key, rows, pi):
        """Integer pi0 candidates [ceil(min) - 1, floor(max)] over the atom."""
        wkey = (key, pi)
        if wkey not in self._window:
            poly = self.polytope(rows)
            obj = rat_vector(pi)
            lo = lp_optimize(poly, obj, "min").value
            hi = lp_optimize(poly, obj, "max").value
            self._window[wkey] = (ceil(lo) - 1, floor(hi))
        return self._window[wkey]

    def splits(self, key, rows):
        for pi in self.normals:
            lo, hi = self.window(key, rows, pi)
            for pi0 in range(lo, hi + 1):
                yield Disjunction(pi, pi0)


@dataclass
class MinTreeResult:
    exact: bool
    leaves: int | None = None
    more_than: int | None = None
    caveat: str = COEFF_CAVEAT


def _check_search_limits(P, M):
    if P.dim > 3:
        raise TooLarge("exhaustive tree search only below dimension 4")
    if M > 3:
        raise TooLarge("exhaustive tree search needs M <= 3")


def min_tree_size(P: Polytope, M: int, max_leaves: int) -> MinTreeResult:
    """Exact minimum leaf count over coefficient-bounded infeasibility proofs.

    Memoized recursion over canonicalized atoms: an empty atom costs one
    leaf, otherwise the best split is taken over all candidate disjunctions,
    with pi0 ranging over the atom's value window (one value past each end
    leaves a side equal to the atom and is dominated, so the window is
    complete for minimality).
    """
    _check_search_limits(P, M)
    if enum_integer_points(P, first_only=True):
        raise PNotInfeasible("P contains a 0/1 point; no tree can prove infeasibility")
    index = _AtomIndex(P, M)
    exact = {}
    lower = {}

    def search(rows, key, cap):
        """Min leaves to prove the atom empty, or cap+1 if that exceeds cap."""
        if key in exact:
            return exact[key] if exact[key] <= cap else cap + 1
        if lower.get(key, 1) > cap:
            return cap + 1
        if index.is_empty(key, rows):
            exact[key] = 1
            return 1 if cap >= 1 else cap + 1
        if cap < 2:
            lower[key] = max(lower.get(key, 1), 2)
            return cap + 1
        best = None
        for disj in index.splits(key, rows):
            lrows = rows + (disj.left_row(),)
            rrows = rows + (disj.right_row(),)
            lkey, rkey = index.key(lrows), index.key(rrows)
            if lkey == key or rkey == key:
                continue  # redundant side; dominated
            room = cap if best is None else best - 1
            lval = search(lrows, lkey, room - 1)
            if lval > room - 1:
                continue
            rval = search(rrows, rkey, room - lval)
            if rval > room - lval:
                continue
            best = lval + rval
        if best is None:
            lower[key] = max(lower.get(key, 1), cap + 1)
            return cap + 1
        exact[key] = best
        return best

    root_key = index.key(())
    got = search((), root_key, max_leaves)
    if got > max_leaves:
        return MinTreeResult(False, more_than=max_leaves)
    return MinTreeResult(True, leaves=got)


def enumerate_bounded_trees(P: Polytope, M: int, leaves: int):
    """All coefficient-bounded BB trees with exactly ``leaves`` leaves.

    Splits below an empty atom are pruned: they never help a minimal proof
    or a minimal separation, since an empty atom contributes nothing to the
    union of leaf atoms.
    """
    _check_search_limits(P, M)
    index = _AtomIndex(P, M)

    def gen(rows, key, want):
        if want == 1:
            yield leaf()
            return
        if index.is_empty(key, rows):
            return
        for disj in index.splits(key, rows):
            lrows = rows + (disj.left_row(),)
            rrows = rows + (disj.right_row(),)
            lkey, rkey = index.key(lrows), index.key(rrows)
            if lkey == key or rkey == key:
                continue
            for lsize in range(1, want):
                for lt in gen(lrows, lkey, lsize):
                    for rt in gen(rrows, rkey, want - lsize):
                        yield node(disj, lt, rt)

    root_key = index.key(())
    yield from gen((), root_key, leaves)


@dataclass
class SeparationSearch:
    separated: bool
    leaves: int | None = None
    more_than: int | None = None
    tree: BBTree | None = None
    caveat: str = COEFF_CAVEAT


def separation_resistance(P: Polytope, xstar, M: int, max_leaves: int) -> SeparationSearch:
    """Minimum leaves over coefficient-bounded trees separating x* from P.

    Exhaustive over the same candidate sets as min_tree_size, with exact
    hull-membership tests at the leaves.
    """
    _check_search_limits(P, M)
    xstar = rat_vector(xstar)
    if not P.contains(xstar):
        raise PointNotInP("x* must lie in P")
    pts = enum_integer_points(P)
    if pts and convex_weights(xstar, pts) is not None:
        raise PointInHull("x* lies in the integer hull; nothing can separate it")
    for L in range(1, max_leaves + 1):
        for tree in enumerate_bounded_trees(P, M, L):
            atoms = [a.polytope() for a in atoms_of(tree, P)]
            if not in_convex_hull_of_union(xstar, atoms).inside:
                return SeparationSearch(True, leaves=L, tree=tree)
    return SeparationSearch(False, more_than=max_leaves)
