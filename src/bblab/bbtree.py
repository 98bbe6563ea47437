"""Abstract branch-and-bound trees over legal split disjunctions.

A tree is a full binary tree; each internal node carries one legal
disjunction pi.x <= pi0  v  pi.x >= pi0 + 1 with integer data.  The left
child adds the <= side, the right child the >= side.  Leaves carry nothing;
the constraints accumulated on a root-to-leaf path, intersected with the
base polytope, form that leaf's atom.

The three checkers decide exactly whether a tree proves integer
infeasibility, solves an objective, or separates a point, each with
machine-checkable evidence.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    IllegalDisjunction,
    MalformedInput,
    PointNotInP,
    json_field,
)
from .lp import in_convex_hull_of_union, lp_feasible, lp_optimize
from .maps import AffineMap
from .polytope import GE, LE, LinearConstraint, Polytope
from .rationals import dot, integer, parse_list, rat_vector


@lru_cache(maxsize=1024)
def _shared_pi(pi):
    """The stored copy of a normal vector: a tree repeats a few normals
    over many nodes, so equal ones are kept once."""
    return pi


@dataclass(frozen=True, slots=True)
class Disjunction:
    pi: tuple
    pi0: int

    def __post_init__(self):
        given = tuple(self.pi)
        pi, pi0 = tuple(int(v) for v in given), int(self.pi0)
        if pi != given or pi0 != self.pi0:
            raise IllegalDisjunction(f"pi and pi0 must be integers: {given}, {self.pi0}")
        if not any(pi):
            raise IllegalDisjunction("pi must have a nonzero entry")
        object.__setattr__(self, "pi", _shared_pi(pi))
        object.__setattr__(self, "pi0", pi0)

    @property
    def dim(self):
        return len(self.pi)

    def left_row(self):
        return LinearConstraint.from_ints(self.pi, LE, self.pi0)

    def right_row(self):
        return LinearConstraint.from_ints(self.pi, GE, self.pi0 + 1)

    @classmethod
    def from_json(cls, obj, path):
        """Parse the ``pi`` and ``pi0`` fields of ``obj``; a float, bool or
        other non-integer raises MalformedInput naming ``path.pi`` or
        ``path.pi0``."""
        with json_field(f"{path}.pi"):
            pi = parse_list(obj["pi"], f"{path}.pi", integer)
        with json_field(f"{path}.pi0"):
            pi0 = integer(obj["pi0"])
        return cls(pi, pi0)

    def cuts_off(self, point):
        """True when pi.point is strictly between the two sides."""
        val = dot(rat_vector(self.pi), point)
        return self.pi0 < val < self.pi0 + 1


@dataclass(frozen=True, slots=True)
class BBTree:
    disjunction: Disjunction | None = None
    left: "BBTree | None" = None
    right: "BBTree | None" = None

    def __post_init__(self):
        parts = (self.disjunction, self.left, self.right)
        if any(p is None for p in parts) and any(p is not None for p in parts):
            raise ValueError("internal nodes need a disjunction and two children")

    @property
    def is_leaf(self):
        return self.disjunction is None

    @property
    def size(self):
        if self.is_leaf:
            return 1
        return 1 + self.left.size + self.right.size

    @property
    def leaf_count(self):
        if self.is_leaf:
            return 1
        return self.left.leaf_count + self.right.leaf_count

    def leaf_paths(self):
        """Root-to-leaf paths as strings of 'L'/'R', in left-to-right order."""
        if self.is_leaf:
            return [""]
        return ["L" + p for p in self.left.leaf_paths()] + [
            "R" + p for p in self.right.leaf_paths()
        ]

    def to_json(self):
        if self.is_leaf:
            return {"leaf": True}
        return {
            "pi": [str(v) for v in self.disjunction.pi],
            "pi0": str(self.disjunction.pi0),
            "left": self.left.to_json(),
            "right": self.right.to_json(),
        }

    @classmethod
    def from_json(cls, obj, path="tree"):
        """Parse a tree file; a malformed node raises MalformedInput naming
        its JSON path, e.g. ``tree.left.right``."""
        with json_field(path):
            marker = obj.get("leaf", False)
        if marker is True:
            return leaf()
        if marker is not False:
            raise MalformedInput(f"{path}.leaf: not a boolean: {marker!r}")
        disjunction = Disjunction.from_json(obj, path)
        children = []
        for side in ("left", "right"):
            with json_field(f"{path}.{side}"):
                child = obj[side]
            children.append(cls.from_json(child, f"{path}.{side}"))
        return node(disjunction, *children)


def leaf() -> BBTree:
    """The leaf: trees are immutable, so every leaf is this one object."""
    return _LEAF


_LEAF = BBTree()


def node(disjunction, left, right) -> BBTree:
    return BBTree(disjunction, left, right)


def full_variable_tree(n, pi0=0) -> BBTree:
    """The depth-n tree branching x_1, ..., x_n on x_i <= pi0 v x_i >= pi0+1."""

    def build(depth):
        if depth == n:
            return leaf()
        pi = tuple(int(i == depth) for i in range(n))
        child = build(depth + 1)
        return node(Disjunction(pi, pi0), child, child)

    return build(0)


@dataclass(frozen=True)
class Atom:
    base: Polytope
    branching: tuple
    path: str = ""

    def polytope(self) -> Polytope:
        return self.base.with_rows(self.branching)


def atoms_of(tree: BBTree, P: Polytope):
    """One atom per leaf, in left-to-right leaf order."""
    out = []

    def walk(t, rows, path):
        if t.is_leaf:
            out.append(Atom(P, tuple(rows), "".join(path)))
            return
        d = t.disjunction
        if d.dim != P.dim:
            raise DimensionMismatch("disjunction/polytope dimension mismatch")
        walk(t.left, rows + [d.left_row()], path + ["L"])
        walk(t.right, rows + [d.right_row()], path + ["R"])

    walk(tree, [], [])
    return out


@dataclass
class InfeasibilityReport:
    proved: bool
    certificates: list | None = None  # per-leaf Farkas certificates
    witness_leaf: int | None = None
    witness_point: tuple | None = None
    atoms: list | None = None


def proves_infeasibility(tree: BBTree, P: Polytope) -> InfeasibilityReport:
    """Yes iff every leaf atom is empty; No carries the first nonempty leaf."""
    atoms = atoms_of(tree, P)
    certs = []
    for i, atom in enumerate(atoms):
        out = lp_feasible(atom.polytope())
        if out.feasible:
            return InfeasibilityReport(
                False, witness_leaf=i, witness_point=out.point, atoms=atoms
            )
        certs.append(out.farkas)
    return InfeasibilityReport(True, certificates=certs, atoms=atoms)


@dataclass
class LeafSolveStatus:
    status: str  # "empty" | "integral" | "bounded" | "open"
    value: Fraction | None = None
    witness: tuple | None = None


@dataclass
class SolveReport:
    solved: bool
    leaves: list
    open_leaf: int | None = None


def _integral(point):
    return all(v.denominator == 1 for v in point)


def _atom_integral_optimum(atom_poly, c, value):
    """Search the 0/1 points of the atom for one attaining the LP value."""
    from .checkers import enum_integer_points

    for p in enum_integer_points(atom_poly):
        if dot(rat_vector(p), c) == value:
            return rat_vector(p)
    return None


def solves(tree: BBTree, P: Polytope, c, witnesses=None) -> SolveReport:
    """Decide the three pruning conditions exactly at every leaf.

    A leaf passes when its atom is empty, when some optimal LP solution over
    the atom is integral, or when its LP value is at most the best value among
    integral leaves (order-free reading).  ``witnesses`` may map leaf index to
    a claimed integral optimum, which is verified rather than rediscovered;
    without one the check falls back to the returned vertex and then to 0/1
    enumeration (dimension <= 24).  Beyond that dimension a leaf the
    enumeration cannot decide is deferred: it passes when the best integral
    leaf bounds it, and otherwise the DimensionTooLarge is raised again.
    """
    c = rat_vector(c)
    if len(c) != P.dim:
        raise DimensionMismatch("objective length != dim")
    witnesses = witnesses or {}
    atoms = atoms_of(tree, P)
    leaves = []
    deferred = {}  # leaf index -> the DimensionTooLarge its enumeration raised
    for i, atom in enumerate(atoms):
        ap = atom.polytope()
        out = lp_optimize(ap, c, "max")
        if out.status == "infeasible":
            leaves.append(LeafSolveStatus("empty"))
            continue
        status = LeafSolveStatus("open", value=out.value)
        claimed = witnesses.get(i)
        if claimed is not None:
            w = rat_vector(claimed)
            if _integral(w) and ap.contains(w) and dot(w, c) == out.value:
                status = LeafSolveStatus("integral", out.value, w)
        if status.status == "open" and _integral(out.point):
            status = LeafSolveStatus("integral", out.value, out.point)
        if status.status == "open":
            try:
                w = _atom_integral_optimum(ap, c, out.value)
            except DimensionTooLarge as exc:
                deferred[i] = exc
                w = None
            if w is not None:
                status = LeafSolveStatus("integral", out.value, w)
        leaves.append(status)

    best = None
    for st in leaves:
        if st.status == "integral" and (best is None or st.value > best):
            best = st.value
    for st in leaves:
        if st.status == "open" and best is not None and st.value <= best:
            st.status = "bounded"
    for i, exc in deferred.items():
        if leaves[i].status == "open":
            raise exc
    open_leaf = next((i for i, st in enumerate(leaves) if st.status == "open"), None)
    return SolveReport(open_leaf is None, leaves, open_leaf)


@dataclass
class SeparationReport:
    separated: bool
    hull: object = None  # HullResult evidence when not separated


def separates(tree: BBTree, P: Polytope, xstar) -> SeparationReport:
    """Yes iff x* lies outside conv of the union of leaf atoms."""
    xstar = rat_vector(xstar)
    if not P.contains(xstar):
        raise PointNotInP("query point is not in P")
    atoms = atoms_of(tree, P)
    hull = in_convex_hull_of_union(xstar, [a.polytope() for a in atoms])
    if hull.inside:
        return SeparationReport(False, hull)
    return SeparationReport(True, hull)


def transform_tree(tree_hat: BBTree, f: AffineMap) -> BBTree:
    """Pull a tree on the image space back through y = Cx + d.

    Every disjunction (a, b) becomes (C^T a, b - a.d), which is legal by
    integrality of C and d.  When C^T a = 0 one side of the rewritten
    disjunction holds identically; the node keeps its live child on the same
    side and pins the other side shut with a trivially empty branch (x_1 <= -1
    or x_1 >= 2), so tree size and leafwise containment are both preserved.
    """
    n = f.in_dim
    if n < 1:
        raise DimensionMismatch("map must have positive input dimension")

    def rewrite(t):
        if t.is_leaf:
            return leaf()
        a = t.disjunction.pi
        if len(a) != f.out_dim:
            raise DimensionMismatch("tree disjunctions do not match map output")
        new_pi = f.transpose_times(a)
        new_pi0 = t.disjunction.pi0 - sum(ai * di for ai, di in zip(a, f.d))
        lt, rt = rewrite(t.left), rewrite(t.right)
        if any(new_pi):
            return node(Disjunction(new_pi, new_pi0), lt, rt)
        e1 = tuple(int(j == 0) for j in range(n))
        if new_pi0 >= 0:
            # 0 <= new_pi0: the left (<=) side holds identically.
            return node(Disjunction(e1, 1), lt, rt)
        # 0 >= new_pi0 + 1: the right (>=) side holds identically.
        return node(Disjunction(e1, -1), lt, rt)

    return rewrite(tree_hat)
