"""Exact checkers for the combinatorial facts behind the hard families:
0/1 enumeration, facet rank, constraint criticality, infeasibility-to-
optimization restriction, face-in-halfspace construction, shattering, the
entropy counting bound, and half-point feasibility.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, log2

from . import _kernel
from .errors import (
    DimensionTooLarge,
    InequalityInvalidForHull,
    InequalityValidForP,
    InternalError,
    PIsEmpty,
    PIsFeasible,
    PreconditionViolated,
    SpecViolation,
)
from .lp import affine_rank, lp_feasible, lp_optimize
from .polytope import EQ, GE, LinearConstraint, Polytope
from .rationals import dot, rat_str, rat_vector

HALF = Fraction(1, 2)

_ENUM_DIM_CAP = 24


def enum_integer_points(P: Polytope, first_only=False):
    """All 0/1 points of P, by exhaustive enumeration in mask order.

    Explicit rows are pre-integerized so each candidate costs integer
    arithmetic only; the oracle, when present, is asked last.
    """
    n = P.dim
    if n > _ENUM_DIM_CAP:
        raise DimensionTooLarge(f"0/1 enumeration beyond dim {_ENUM_DIM_CAP}")
    oracle = P.oracle
    introws = [(*coeffs, rhs) for row in P.rows for coeffs, rhs, _ in row.int_leq]
    # A row's LHS is largest at its peak, the 0/1 point with ones where its
    # coefficients are positive, so a row is most likely to cut its own peak.
    # Trying those rows first makes the scan of a cross-type family one row
    # per point; the full scan after it keeps the answer exact.
    by_peak = {}
    for row in introws:
        peak = sum(1 << j for j in range(n) if row[j] > 0)
        by_peak.setdefault(peak, []).append(row)
    out = []
    for mask in range(2 ** n):
        peaked = by_peak.get(mask)
        if peaked and _kernel.first_violated_mask(peaked, mask) >= 0:
            continue
        if _kernel.first_violated_mask(introws, mask) >= 0:
            continue
        point = tuple(mask >> i & 1 for i in range(n))
        if oracle is not None and oracle.find_violated(point) is not None:
            continue
        out.append(point)
        if first_only:
            return out
    return out


@dataclass
class FacetCheck:
    is_facet: bool
    rank: int


def facet_check_cardinality(n, k, restrict=None) -> FacetCheck:
    """Affine rank of the characteristic vectors of all (k-1)-subsets.

    Facet(n) iff the rank is n, which is the affine-independence content of
    the cardinality-facet argument.  ``restrict`` optionally limits the
    subsets to a coordinate universe.
    """
    if not 2 <= k <= n / 2:
        raise SpecViolation("need 2 <= k <= n/2")
    universe = sorted(restrict) if restrict is not None else list(range(n))
    points = []
    rank = 0
    for T in combinations(universe, k - 1):
        points.append(tuple(Fraction(int(i in T)) for i in range(n)))
        if len(points) <= 2 or rank < n:
            rank = affine_rank(points)
            if rank == n:
                return FacetCheck(True, n)
    return FacetCheck(rank == n, rank)


@dataclass
class CriticalityResult:
    verified: bool
    bound: Fraction | None = None
    witnesses: dict | None = None
    violated_row: int | None = None
    reason: str | None = None


def criticality_bound(P: Polytope, D) -> CriticalityResult:
    """Check the removal-criticality hypothesis and return the node bound.

    P must be nonempty and integer-infeasible; every row index in D must,
    when dropped, admit a 0/1 point.  On success the bound 2|D|/n - 1 on the
    node count of any infeasibility proof holds.
    """
    if not lp_feasible(P).feasible:
        raise PIsEmpty("criticality needs a nonempty polytope")
    hit = enum_integer_points(P, first_only=True)
    if hit:
        raise PIsFeasible(f"P contains the integer point {hit[0]}")
    witnesses = {}
    for r in D:
        rows = tuple(row for i, row in enumerate(P.rows) if i != r)
        relaxed = Polytope(P.dim, rows)
        found = enum_integer_points(relaxed, first_only=True)
        if not found:
            return CriticalityResult(
                False, violated_row=r,
                reason="dropping this row keeps the polytope integer-infeasible",
            )
        witnesses[r] = found[0]
    bound = Fraction(2 * len(D), P.dim) - 1
    return CriticalityResult(True, bound=bound, witnesses=witnesses)


def gen_restricted_polytope(P: Polytope, c, delta) -> Polytope:
    """Restrict P to {c.x >= delta + eps0} with eps0 = max_P c.x - delta.

    Requires c.x <= delta to be valid for the integer hull but not for P
    (both checked exactly); the result is the polytope whose infeasibility
    hardness transfers to optimization hardness over P.
    """
    c = rat_vector(c)
    delta = Fraction(delta)
    for p in enum_integer_points(P):
        if dot(c, rat_vector(p)) > delta:
            raise InequalityInvalidForHull(f"cut off integer point {p}")
    opt = lp_optimize(P, c, "max")
    if opt.status != "optimal":
        raise InequalityValidForP("P is empty; the inequality is vacuously valid")
    eps0 = opt.value - delta
    if eps0 <= 0:
        raise InequalityValidForP(f"max c.x = {opt.value} <= delta")
    rows = P.rows + (LinearConstraint(c, GE, delta + eps0),)
    prov = {
        "family": "restricted",
        "eps0": rat_str(eps0),
        "base": (P.provenance or {}).get("family"),
    }
    return Polytope(P.dim, rows, oracle=P.oracle, provenance=prov)


@dataclass
class FaceSpec:
    fixed: dict  # coordinate -> 0 or 1

    def as_polytope(self, n) -> Polytope:
        rows = tuple(
            LinearConstraint.from_ints([int(j == i) for j in range(n)], EQ, v)
            for i, v in sorted(self.fixed.items())
        )
        return Polytope(n, rows)


def find_high_dim_face(pi, pi0, n) -> FaceSpec:
    """A face of [0,1]^n of dimension >= floor(n/2) inside {pi.x > pi0}.

    Constructive: flip the negative coordinates, fix the ceil(n/2) largest
    flipped coefficients to 1, unflip.  The result is verified by exactly
    minimizing pi over the face.
    """
    pi = rat_vector(pi)
    pi0 = Fraction(pi0)
    if len(pi) != n:
        raise PreconditionViolated("pi has wrong length")
    if dot(pi, [HALF] * n) <= pi0:
        raise PreconditionViolated("pi . (1/2) <= pi0")
    flipped = [(-v if v < 0 else v, i) for i, v in enumerate(pi)]
    order = sorted(range(n), key=lambda i: (-flipped[i][0], i))
    chosen = order[: (n + 1) // 2]
    fixed = {i: (0 if pi[i] < 0 else 1) for i in chosen}
    face = FaceSpec(fixed)
    low = lp_optimize(face.as_polytope(n), pi, "min")
    if low.status != "optimal" or low.value <= pi0:
        raise InternalError("face construction failed its LP verification")
    return face


@dataclass
class ShatterResult:
    found: bool
    coords: tuple | None = None
    point: tuple | None = None


def find_shattered_set(F, k) -> ShatterResult:
    """Search all k-subsets of coordinates for one shattered by F.

    On success returns the coordinate set J and a point of conv(F) with
    value 1/2 on J, built by averaging one representative of F per 0/1
    pattern on J.  Guaranteed to succeed when |F| exceeds the Sauer-Shelah
    threshold sum_{i<=k-1} C(n,i).
    """
    F = [tuple(p) for p in F]
    if not F:
        return ShatterResult(False)
    n = len(F[0])
    full = 2 ** k
    for J in combinations(range(n), k):
        patterns = {}
        for p in F:
            key = tuple(p[j] for j in J)
            if key not in patterns:
                patterns[key] = p
                if len(patterns) == full:
                    break
        if len(patterns) < full:
            continue
        reps = list(patterns.values())
        point = tuple(
            sum(Fraction(p[j]) for p in reps) / full for j in range(n)
        )
        if any(point[j] != HALF for j in J):
            raise InternalError("shattered-set averaging lost its half values")
        return ShatterResult(True, J, point)
    return ShatterResult(False)


@dataclass
class EntropyCheck:
    holds: bool
    lhs_log2: Fraction
    rhs: int


def entropy_bound_check(n, s) -> EntropyCheck:
    """Does 2^{n h(s/n)} strictly exceed sum_{i<=s-1} C(n,i)?

    The left side equals the exact rational n^n / (s^s (n-s)^(n-s)), so the
    comparison is decided in integer arithmetic; Holds is only reported when
    provable.  lhs_log2 is a reporting-only dyadic approximation.
    """
    if not 1 <= s <= n / 2:
        raise SpecViolation("need 1 <= s <= n/2")
    lhs = Fraction(n ** n, s ** s * (n - s) ** (n - s))
    rhs = sum(comb(n, i) for i in range(s))
    approx = Fraction(
        round((log2(lhs.numerator) - log2(lhs.denominator)) * 2 ** 20), 2 ** 20
    )
    return EntropyCheck(lhs > rhs, approx, rhs)


@dataclass
class HalfSetCheck:
    holds: bool
    row_index: int | None = None
    witness: tuple | None = None


def half_points_feasible(P: Polytope, s) -> HalfSetCheck:
    """Decide exactly whether every point of Half_s satisfies P's rows.

    For each <=-form row the maximum of the LHS over Half_s is computed
    coordinatewise (forcing the s cheapest halves), so the answer covers the
    whole set without enumeration; a failing row yields an explicit
    violating half-point witness.  The box rows hold on all of {0, 1/2, 1}^n
    and are not checked.
    """
    P = P.materialized()
    n = P.dim
    if s > n:
        return HalfSetCheck(True)  # Half_s is empty; vacuously feasible
    for row_index, row in enumerate(P.rows):
        for side, (coeffs, rhs, _) in enumerate(row.int_leq):
            # In half-units (2x_i in {0, 1, 2}) coordinate i adds 0, a or 2a:
            # at best 2 max(a, 0), and 2 max(a, 0) - a less when it is a half.
            base = 0
            costs = []
            for a in coeffs:
                best = 2 * a if a > 0 else 0
                base += best
                costs.append(best - a)
            order = sorted(range(n), key=costs.__getitem__)[:s]
            if base - sum(costs[i] for i in order) <= 2 * rhs:
                continue
            witness = [Fraction(1) if a > 0 else Fraction(0) for a in coeffs]
            for i in order:
                witness[i] = HALF
            witness = tuple(witness)
            pair_coeffs, pair_rhs = row.as_leq()[side]
            if dot(pair_coeffs, witness) <= pair_rhs:
                raise InternalError("half-point witness does not violate its row")
            return HalfSetCheck(False, row_index, witness)
    return HalfSetCheck(True)
