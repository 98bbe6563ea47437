"""Polytope-level exact LP operations with machine-checkable certificates.

Feasibility and optimization run through one shared path that activates
rows lazily: large explicit row pools and oracle families are brought in
only when violated, so the simplex tableaus stay small.  Every Infeasible
outcome carries Farkas multipliers over the polytope's canonical <=-form
row system (explicit rows, box rows, activated oracle rows), re-verified
exactly before being returned.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm

from . import _kernel, simplex
from .errors import (
    DimensionMismatch,
    EmptyList,
    InternalError,
    TooLarge,
)
from .polytope import EQ, LE, Polytope
from .rationals import clear_denominators, point_to_ints, rat_vector

FEASIBLE, INFEASIBLE, OPTIMAL = "feasible", "infeasible", "optimal"

_LAZY_POOL_MIN = 48
_ADD_BATCH = 8


@dataclass
class LPOutcome:
    status: str
    point: tuple | None = None
    value: Fraction | None = None
    farkas: tuple | None = None  # ((ref, multiplier), ...) in <=-form

    @property
    def feasible(self):
        return self.status in (FEASIBLE, OPTIMAL)


def lp_feasible(P: Polytope) -> LPOutcome:
    """Exact feasibility: a point of P, or Farkas multipliers proving P empty."""
    return _polytope_solve(P, objective=None)


def lp_optimize(P: Polytope, c, sense="max") -> LPOutcome:
    """Optimize c.x over P exactly; returns a vertex optimum."""
    c = rat_vector(c)
    if len(c) != P.dim:
        raise DimensionMismatch("objective length != dim")
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    return _polytope_solve(P, objective=c, maximize=(sense == "max"))


def _polytope_solve(P, objective=None, maximize=True):
    n = P.dim
    # (ref, int coeffs, int rhs, scale): each row is made integer once, by
    # its LinearConstraint, and simplex takes the ints as they are.
    sys_rows = P.int_system()
    oracle = P.oracle

    always = [
        k
        for k, (ref, _, _, _) in enumerate(sys_rows)
        if len(ref) == 3 or ref[0] == "box_hi"
    ]
    always_set = set(always)
    pool = [k for k in range(len(sys_rows)) if k not in always_set]
    # A small pool is loaded in full, oracle or not: the few branching rows
    # of a leaf atom then cost one solve, not one solve each.
    if len(pool) <= _LAZY_POOL_MIN:
        always, pool = always + pool, []
    active = list(always)
    active_set = set(active)

    oracle_rows = []  # activated family rows, as (ref, coeffs, rhs, scale)
    oracle_cap = 2 * oracle.family_size() if oracle is not None else 0
    rounds = 0

    while True:
        rounds += 1
        entries = [sys_rows[k] for k in active] + oracle_rows
        rows = [coeffs for _, coeffs, _, _ in entries]
        rhs = [b for _, _, b, _ in entries]
        res = simplex.solve(n, rows, [LE] * len(rows), rhs, objective=objective,
                            maximize=maximize)

        if res.status == "infeasible":
            cert = _assemble_farkas(P, entries, res.farkas, n)
            return LPOutcome(INFEASIBLE, farkas=cert)
        if res.status == "unbounded":
            # The always-active box_hi rows and x >= 0 bound every variable.
            raise InternalError("unbounded LP over a box polytope")

        x = tuple(res.x[:n])

        new = []
        if pool:
            nums, den = point_to_ints(x)
            cand = [k for k in pool if k not in active_set]
            introws = [(*sys_rows[k][1], sys_rows[k][2]) for k in cand]
            hits = _kernel.violated_indices(introws, nums, den)
            if hits:
                # Rank by the violation of the row as given, coeffs . x - b,
                # which is (ints . nums - rhs * den) / (den * scale).
                scored = []
                for h in hits:
                    k = cand[h]
                    _, coeffs, b, scale = sys_rows[k]
                    excess = sum(a * v for a, v in zip(coeffs, nums)) - b * den
                    scored.append((Fraction(excess * scale.denominator, scale.numerator), k))
                scored.sort(key=lambda t: (-t[0], t[1]))
                new = [k for _, k in scored[:_ADD_BATCH]]

        oracle_new = None
        if not new and oracle is not None:
            violated = oracle.find_violated(x)
            if violated is not None:
                if any(ref[1] == violated for ref, _, _, _ in oracle_rows):
                    raise InternalError("oracle re-returned an active row")
                if rounds > oracle_cap:
                    raise InternalError("oracle cutting loop exceeded its cap")
                (coeffs, b, scale), = violated.int_leq
                oracle_new = (("oracle", violated), coeffs, b, scale)

        if not new and oracle_new is None:
            status = OPTIMAL if objective is not None else FEASIBLE
            return LPOutcome(status, point=x, value=res.value)
        active.extend(new)
        active_set.update(new)
        if oracle_new is not None:
            oracle_rows.append(oracle_new)


def _assemble_farkas(P, entries, u, n):
    # u multiplies the integer rows; row = ints / scale, so the multiplier
    # on the row as given is u * scale.
    cert = [(ref, ui * scale) for (ref, _, _, scale), ui in zip(entries, u) if ui != 0]
    # Kernel guarantees sum u_i a_i >= 0 against x >= 0; fold the slack
    # into multipliers on the implied -x_j <= 0 box rows.
    nums, den = point_to_ints(u)
    for j in range(n):
        combo = sum(w * entries[i][1][j] for i, w in enumerate(nums) if w)
        if combo > 0:
            cert.append((("box_lo", j), Fraction(combo, den)))
    cert = tuple(cert)
    verify_farkas(P, cert)
    return cert


def verify_farkas(P: Polytope, cert) -> None:
    """Exact check of an infeasibility certificate; raises InternalError.

    Independent of the LP's entries: each cited row is looked up in ``P``
    by its reference (``row_for_ref``, the row's ``as_leq()`` pair as
    Fractions) and put over its common denominator here, and the
    multipliers over theirs, so the identities below are tested in integers.
    """
    weights, _ = point_to_ints([mult for _, mult in cert])
    if any(w < 0 for w in weights):
        raise InternalError("Farkas multiplier is negative")
    rows = []
    for ref, _ in cert:
        coeffs, b = P.row_for_ref(ref)
        rows.append(point_to_ints([*coeffs, b]))
    row_den = lcm(*(d for _, d in rows))
    # Row i is ints_i / d_i and its multiplier w_i / den, so the combination
    # is sum_i w_i * (row_den / d_i) * ints_i over row_den * den > 0.
    combo = [0] * (P.dim + 1)
    for w, (ints, d) in zip(weights, rows):
        if w:
            k = w * (row_den // d)
            for j, v in enumerate(ints):
                if v:
                    combo[j] += k * v
    if any(combo[:-1]):
        raise InternalError("Farkas combination is not the zero functional")
    if combo[-1] >= 0:
        raise InternalError("Farkas combination has nonnegative rhs")


@dataclass
class HullResult:
    inside: bool
    weights: tuple | None = None
    witnesses: tuple | None = None


def in_convex_hull_of_union(xstar, atoms) -> HullResult:
    """Decide x* in conv(union of atoms) by one exact LP in homogenized form.

    Uses the standard disjunctive formulation: lambda_v >= 0 summing to one,
    per-atom points z_v with A_v z_v <= lambda_v b_v and 0 <= z_v <= lambda_v,
    and sum_v z_v = x*.
    """
    xstar = rat_vector(xstar)
    if not atoms:
        return HullResult(False)
    n = len(xstar)
    for A in atoms:
        if A.dim != n:
            raise DimensionMismatch("atom/point dimension mismatch")
    atoms = [A.materialized() for A in atoms]

    V = len(atoms)
    width = n + 1  # [lambda_v, z_v...]
    nv = V * width
    rows, rels, rhs = [], [], []
    for v, A in enumerate(atoms):
        base = v * width
        # int_system leaves out the box_lo rows: z_v >= 0 is native.
        for _, coeffs, b, _ in A.int_system():
            row = [0] * nv
            row[base] = -b
            row[base + 1 : base + 1 + n] = coeffs
            rows.append(row)
            rels.append(LE)
            rhs.append(0)
    row = [0] * nv
    for v in range(V):
        row[v * width] = 1
    rows.append(row)
    rels.append(EQ)
    rhs.append(1)
    for j in range(n):
        row = [0] * nv
        for v in range(V):
            row[v * width + 1 + j] = 1
        rows.append(row)
        rels.append(EQ)
        rhs.append(xstar[j])

    res = simplex.solve(nv, rows, rels, rhs)
    if res.status == "infeasible":
        return HullResult(False)
    lam = [res.x[v * width] for v in range(V)]
    zs = [res.x[v * width + 1 : v * width + 1 + n] for v in range(V)]
    witnesses = []
    for v in range(V):
        if lam[v] > 0:
            w = tuple(z / lam[v] for z in zs[v])
            if not atoms[v].contains(w):
                raise InternalError("hull witness fell outside its atom")
            witnesses.append(w)
        else:
            witnesses.append(None)
    mix = tuple(
        sum((lam[v] * witnesses[v][j] for v in range(V) if witnesses[v] is not None),
            Fraction(0))
        for j in range(n)
    )
    if mix != tuple(xstar):
        raise InternalError("hull weights do not reproduce the query point")
    return HullResult(True, weights=tuple(lam), witnesses=tuple(witnesses))


def convex_weights(xstar, points):
    """Weights expressing x* as a convex combination of points, or None."""
    xstar = rat_vector(xstar)
    n = len(xstar)
    m = len(points)
    rows, rels, rhs = [], [], []
    for j in range(n):
        rows.append([Fraction(points[i][j]) for i in range(m)])
        rels.append(EQ)
        rhs.append(xstar[j])
    rows.append([Fraction(1)] * m)
    rels.append(EQ)
    rhs.append(Fraction(1))
    res = simplex.solve(m, rows, rels, rhs)
    if res.status == "infeasible":
        return None
    return res.x


def affine_rank(points) -> int:
    """Number of affinely independent points, by exact elimination."""
    if not points:
        raise EmptyList("affine_rank of an empty point set")
    pts = [rat_vector(p) for p in points]
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise DimensionMismatch("points of mixed dimension")
    base = pts[0]
    rows = [clear_denominators([p[j] - base[j] for j in range(n)])[0] for p in pts[1:]]
    return _eliminate(rows, n)[0] + 1


def _eliminate(rows, ncols):
    """Fraction-free Gauss-Jordan on the first ``ncols`` columns, in place.

    ``rows`` is a list of equal-length int lists.  Each column's pivot is the
    first remaining row with a nonzero entry there, swapped into place and
    applied by ``_kernel.pivot_update``, the simplex's condensed
    integer-preserving step.  Returns (rank, den): the k-th pivot sits in
    row k, and every column not pivoted (the rhs among them) then holds
    the reduced row echelon form times den > 0.  A pivoted column holds
    the column of the implicit unit it replaced, not a unit column; no
    caller reads it.
    """
    rank, den = 0, 1
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), -1)
        if pivot < 0:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        den = _kernel.pivot_update(rows, rank, col, den)
        rank += 1
    return rank, den


def enum_vertices(P: Polytope, combo_limit=2_000_000):
    """All vertices of a small explicit polytope, by basis enumeration.

    Each basis of n integer rows (``int_system`` plus the box's x >= 0 rows)
    is eliminated in integers; its point nums/den is kept when it violates
    no row, and becomes Fractions only then.
    """
    P = P.materialized()
    n = P.dim
    system = [(*coeffs, rhs) for _, coeffs, rhs, _ in P.int_system()]
    system += [(*(-int(t == j) for t in range(n)), 0) for j in range(n)]
    m = len(system)
    if comb(m, n) > combo_limit:
        raise TooLarge(f"vertex enumeration over C({m},{n}) bases")
    seen = set()
    verts = []
    for subset in combinations(range(m), n):
        rows = [list(system[i]) for i in subset]
        rank, den = _eliminate(rows, n)
        if rank < n:
            continue
        nums = [row[n] for row in rows]
        g = gcd(den, *nums)
        key = (tuple(v // g for v in nums), den // g)
        if key in seen or _kernel.violated_indices(system, nums, den):
            continue
        seen.add(key)
        verts.append(tuple(Fraction(v, den) for v in nums))
    verts.sort()
    return verts
