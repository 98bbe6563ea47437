"""Independent brute-force oracles used to cross-check the exact kernel.

These deliberately avoid the simplex code path: LPs are decided by
enumerating candidate basic points from row subsets and taking exact
maxima, which is the stated reference semantics for small dimensions.
The 0/1 and half-point oracles evaluate each row's ``as_leq()`` pairs with
``Fraction`` dot products, never the integer row forms (``int_leq``,
``holds_at``, ``contains``) that the checkers run on.  The Farkas
oracle re-checks a certificate in ``Fraction`` arithmetic, as
``lp.verify_farkas`` did before it moved to integers.  Vertices and ranks
come from a textbook ``Fraction`` Gauss-Jordan elimination, not from the
integer pivot that ``lp`` runs on.  ``full_tableau_solve`` is the simplex
as it was before the tableau was condensed: it stores every column, basic
or not, and pivots them all.  ``FractionConstraint`` is a row as it was
before rows became integer-first: it holds the ``Fraction`` data and
derives its integer forms from them; the ``fraction_*_rows`` functions are
the generators as they were then, building each row from ``Fraction`` data.
"""

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import gcd

from bblab.errors import InternalError
from bblab.polytope import EQ, GE, LE
from bblab.rationals import dot, rat, rat_str
from bblab.simplex import _integer_row


def _gauss_jordan(matrix, ncols, tags=None):
    """Reduce a Fraction matrix in place on its first ``ncols`` columns;
    returns the rank, the k-th pivot (scaled to 1) sitting in row k.  A
    list ``tags``, one entry per row, is swapped along with the rows."""
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(matrix)) if matrix[i][col] != 0), -1)
        if pivot < 0:
            continue
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        if tags is not None:
            tags[r], tags[pivot] = tags[pivot], tags[r]
        inv = 1 / matrix[r][col]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(len(matrix)):
            f = matrix[i][col]
            if i != r and f != 0:
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        r += 1
    return r


def _solve_square(A, b):
    """The solution of the n x n system A x = b, or None when A is singular."""
    n = len(A)
    M = [[Fraction(v) for v in A[i]] + [Fraction(b[i])] for i in range(n)]
    if _gauss_jordan(M, n) < n:
        return None
    return tuple(M[i][n] for i in range(n))


def brute_rref(matrix):
    """(rank, reduced row echelon form) of a rational matrix, in Fractions."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    return _gauss_jordan(rows, len(rows[0]) if rows else 0), rows


def brute_rank(matrix):
    """Rank of a rational matrix, by Fraction Gauss-Jordan elimination."""
    return brute_rref(matrix)[0]


def brute_system(P, box_lo=True):
    """P's <=-form rows as Fraction (coeffs, rhs) pairs, oracle families
    expanded: every row's ``as_leq()`` pairs, then x_j <= 1 and (with
    ``box_lo``) -x_j <= 0."""
    system = [(coeffs, rhs) for _, _, coeffs, rhs in _fraction_pairs(P)]
    unit = [tuple(Fraction(int(t == j)) for t in range(P.dim)) for j in range(P.dim)]
    system += [(e, Fraction(1)) for e in unit]
    if box_lo:
        system += [(tuple(-v for v in e), Fraction(0)) for e in unit]
    return system


def brute_vertices(P):
    """All vertices of P in sorted order: every n-row basis of
    ``brute_system(P)`` solved in Fraction arithmetic, kept when feasible."""
    system = brute_system(P)
    found = set()
    for subset in combinations(system, P.dim):
        x = _solve_square([a for a, _ in subset], [b for _, b in subset])
        if x is not None and all(dot(a, x) <= b for a, b in system):
            found.add(x)
    return sorted(found)


def brute_lp(nvars, rows, rhs, objective=None, maximize=True):
    """Solve max/min c.x s.t. rows.x <= rhs, x >= 0 by vertex enumeration.

    The instance must have a bounded feasible region (include explicit upper
    bound rows).  Returns (status, value) with status in
    {"optimal", "infeasible"}.
    """
    system = [(tuple(Fraction(v) for v in row), Fraction(b)) for row, b in zip(rows, rhs)]
    for j in range(nvars):
        system.append(
            (tuple(Fraction(-int(t == j)) for t in range(nvars)), Fraction(0))
        )
    best = None
    feasible = False
    for subset in combinations(range(len(system)), nvars):
        A = [system[i][0] for i in subset]
        b = [system[i][1] for i in subset]
        x = _solve_square(A, b)
        if x is None:
            continue
        if all(dot(coeffs, x) <= b2 for coeffs, b2 in system):
            feasible = True
            if objective is not None:
                val = dot(objective, x)
                if best is None or (maximize and val > best) or (
                    not maximize and val < best
                ):
                    best = val
    if not feasible:
        return "infeasible", None
    return "optimal", best


def brute_in_hull_of_union(xstar, atom_vertex_sets):
    """Is x* a convex combination of the vertices of a union of polytopes?

    Expects each atom's exact vertex list; empty atoms contribute nothing.
    Decided by an exact LP over combination weights of all vertices pooled
    together (conv of a union is conv of the union of vertex sets).
    """
    from bblab.lp import convex_weights

    pool = [v for verts in atom_vertex_sets for v in verts]
    if not pool:
        return False
    return convex_weights(xstar, pool) is not None


def _fraction_pairs(P):
    """(row index, pair index, coeffs, rhs) for every <=-pair of P's rows,
    oracle families expanded."""
    rows = P.materialized().rows
    return [
        (i, k, coeffs, rhs)
        for i, row in enumerate(rows)
        for k, (coeffs, rhs) in enumerate(row.as_leq())
    ]


def brute_integer_points(P):
    """All 0/1 points of P in mask order, as tuples of ints."""
    pairs = _fraction_pairs(P)
    out = []
    for mask in range(2 ** P.dim):
        point = tuple(mask >> i & 1 for i in range(P.dim))
        x = tuple(Fraction(v) for v in point)
        if all(dot(coeffs, x) <= rhs for _, _, coeffs, rhs in pairs):
            out.append(point)
    return out


def brute_half_points_feasible(P, s):
    """The first <=-pair (in row order) that some point of {0, 1/2, 1}^n with
    at least s half coordinates violates, as (row index, pair index, the
    pair's maximum over those points); None when every such point is in P.
    """
    half = Fraction(1, 2)
    points = [
        p for p in product((Fraction(0), half, Fraction(1)), repeat=P.dim)
        if sum(1 for v in p if v == half) >= s
    ]
    if not points:
        return None
    for i, k, coeffs, rhs in _fraction_pairs(P):
        best = max(dot(coeffs, p) for p in points)
        if best > rhs:
            return i, k, best
    return None


def brute_verify_farkas(P, cert):
    """Check an infeasibility certificate in Fraction arithmetic; raises
    InternalError with the same messages as ``lp.verify_farkas``."""
    combo = [Fraction(0)] * P.dim
    total = Fraction(0)
    for ref, mult in cert:
        if mult < 0:
            raise InternalError("Farkas multiplier is negative")
        coeffs, b = P.row_for_ref(ref)
        for j in range(P.dim):
            combo[j] += mult * coeffs[j]
        total += mult * b
    if any(v != 0 for v in combo):
        raise InternalError("Farkas combination is not the zero functional")
    if total >= 0:
        raise InternalError("Farkas combination has nonnegative rhs")


def _full_pivot(rows, r, c, den):
    """Integer pivot on (r, c) of a tableau that stores every column."""
    prow = rows[r]
    if prow[c] < 0:
        prow[:] = [-v for v in prow]
    piv = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            f = row[c]
            row[:] = [(v * piv - f * p) // den for v, p in zip(row, prow)]
    return piv


def full_tableau_solve(nvars, rows, rels, rhs, objective=None, maximize=False):
    """The two-phase Bland simplex on a full integer tableau: one column per
    structural, slack and artificial, all pivoted.  Returns (status, x,
    value, farkas, pivots), pivots counting every pivot made, the driving
    out of artificials included; x, value and farkas as ``simplex.solve``
    gives them, with no self-check."""
    m = len(rows)
    introws, intrhs, scales = [], [], []
    for i in range(m):
        ints, scale = _integer_row(list(rows[i]) + [rhs[i]])
        introws.append(ints[:nvars])
        intrhs.append(ints[nvars])
        scales.append(scale)
    sigma = [1 if b >= 0 else -1 for b in intrhs]
    slack_col, art_col = {}, {}
    ncols = nvars
    for i in range(m):
        if rels[i] == LE:
            slack_col[i] = ncols
            ncols += 1
    first_art = ncols
    for i in range(m):
        if rels[i] == EQ or sigma[i] < 0:
            art_col[i] = ncols
            ncols += 1
    tableau, basis = [], []
    for i in range(m):
        row = [0] * (ncols + 1)
        row[:nvars] = [sigma[i] * v for v in introws[i]]
        row[ncols] = sigma[i] * intrhs[i]
        if i in slack_col:
            row[slack_col[i]] = sigma[i]
        if i in art_col:
            row[art_col[i]] = 1
        basis.append(art_col[i] if i in art_col else slack_col[i])
        tableau.append(row)
    p2 = None
    if objective is not None:
        c, cscale = _integer_row(list(objective))
        p2 = [0] * (ncols + 1)
        p2[:nvars] = [-v for v in c] if maximize else c
    state = {"den": 1, "pivots": 0}

    def pivot(objs, r, col):
        state["den"] = _full_pivot(tableau + objs, r, col, state["den"])
        state["pivots"] += 1
        basis[r] = col

    def run_bland(objs):
        obj = objs[0]
        while True:
            enter = next((j for j in range(first_art) if obj[j] < 0), -1)
            if enter < 0:
                return "optimal"
            leave = -1
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0 and (leave < 0 or row[-1] * best_d < best_n * a or (
                        row[-1] * best_d == best_n * a and basis[i] < basis[leave])):
                    leave, best_n, best_d = i, row[-1], a
            if leave < 0:
                return "unbounded"
            pivot(objs, leave, enter)

    p2s = [p2] if p2 is not None else []
    if art_col:
        p1 = [-sum(col) for col in zip(*(tableau[i] for i in art_col))]
        for j in art_col.values():
            p1[j] = 0
        run_bland([p1] + p2s)
        if p1[-1] < 0:
            farkas = None
            if len(slack_col) == m:
                farkas = tuple(Fraction(p1[slack_col[i]], state["den"]) * scales[i]
                               for i in range(m))
            return "infeasible", None, None, farkas, state["pivots"]
        i = 0
        while i < len(tableau):
            if basis[i] >= first_art:
                col = next((j for j in range(first_art) if tableau[i][j]), -1)
                if col < 0:
                    del tableau[i], basis[i]
                    continue
                pivot(p2s, i, col)
            i += 1
    if p2 is not None and run_bland(p2s) == "unbounded":
        return "unbounded", None, None, None, state["pivots"]
    den = state["den"]
    nums = [0] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            nums[b] = tableau[i][-1]
    x = tuple(Fraction(v, den) for v in nums)
    value = None
    if objective is not None:
        value = Fraction(sum(cj * v for cj, v in zip(c, nums)), den) / cscale
    return "optimal", x, value, None, state["pivots"]


def fraction_clear_denominators(values):
    """``values`` scaled to coprime integers in Fraction arithmetic:
    (ints, scale) with ints == [v * scale for v in values], scale > 0."""
    fracs = [Fraction(v) for v in values]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    ints = [int(f * lcm) for f in fracs]
    g = 0
    for k in ints:
        g = gcd(g, k)
    if g > 1:
        return [k // g for k in ints], Fraction(lcm, g)
    return ints, Fraction(lcm)


@dataclass(frozen=True)
class FractionConstraint:
    """One row ``coeffs . x  rel  rhs`` held as Fractions; its integer
    forms are derived from them."""

    coeffs: tuple
    rel: str
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {self.rel!r}")
        object.__setattr__(self, "coeffs", tuple(rat(v) for v in self.coeffs))
        object.__setattr__(self, "rhs", rat(self.rhs))

    def as_leq(self):
        if self.rel == LE:
            return [(self.coeffs, self.rhs)]
        if self.rel == GE:
            return [(tuple(-c for c in self.coeffs), -self.rhs)]
        return [(self.coeffs, self.rhs), (tuple(-c for c in self.coeffs), -self.rhs)]

    @cached_property
    def int_leq(self):
        out = []
        for coeffs, rhs in self.as_leq():
            ints, scale = fraction_clear_denominators([*coeffs, rhs])
            out.append((tuple(ints[:-1]), ints[-1], scale))
        return out

    def normalized(self):
        coeffs, rhs, _ = self.int_leq[0]
        if self.rel != EQ:
            return coeffs, LE, rhs
        lead = next((v for v in (*coeffs, rhs) if v != 0), 0)
        if lead < 0:
            coeffs, rhs, _ = self.int_leq[1]
        return coeffs, EQ, rhs

    def to_json(self):
        return {
            "coeffs": [rat_str(c) for c in self.coeffs],
            "rel": self.rel,
            "rhs": rat_str(self.rhs),
        }


def assert_same_row(row, ref):
    """``row`` (a LinearConstraint) and ``ref`` (a FractionConstraint) are
    the same row in every form the program reads."""
    assert row.rel == ref.rel and row.dim == len(ref.coeffs)
    assert list(row.int_leq) == ref.int_leq
    assert row.normalized() == ref.normalized()
    assert row.as_leq() == ref.as_leq()
    assert row.to_json() == ref.to_json()
    assert (row.coeffs, row.rhs) == (ref.coeffs, ref.rhs)
    assert all(type(v) is Fraction for v in (*row.coeffs, row.rhs))
    assert hash(row) == hash(ref)


def fraction_cross_rows(n):
    half = Fraction(1, 2)
    return [
        FractionConstraint(
            tuple(Fraction(1 if mask >> i & 1 else -1) for i in range(n)),
            GE, half - (n - bin(mask).count("1")),
        )
        for mask in range(2 ** n)
    ]


def fraction_packing_rows(n, k, with_cover=False):
    rows = [
        FractionConstraint(tuple(Fraction(int(i in S)) for i in range(n)), LE, Fraction(k - 1))
        for S in combinations(range(n), k)
    ]
    if with_cover:
        rows.append(FractionConstraint((Fraction(1),) * n, GE, Fraction(k)))
    return rows


def fraction_cover_rows(n, k):
    return [
        FractionConstraint(tuple(Fraction(int(i in S)) for i in range(n)), GE, Fraction(1))
        for S in combinations(range(n), k)
    ]


def fraction_tsp_rows(n):
    edges = list(combinations(range(n), 2))
    rows = []
    for v in range(n):
        coeffs = tuple(Fraction(int(v in e)) for e in edges)
        rows.append(FractionConstraint(coeffs, EQ, Fraction(2)))
    for size in range(2, n - 1):
        for rest in combinations(range(1, n), size - 1):
            W = {0, *rest}
            coeffs = tuple(Fraction(int((u in W) != (v in W))) for u, v in edges)
            rows.append(FractionConstraint(coeffs, GE, Fraction(2)))
    return rows


def fraction_perturbed_rows(n, seed, sigma=Fraction(1, 20), denom=2 ** 20):
    """Each coefficient +-(1 + noise) as a Fraction over ``denom``, the noise
    drawn from its own SHA-256 of the full payload, one per coefficient."""
    rhs = Fraction(2 * n, 25)
    rows = []
    for mask in range(2 ** n):
        coeffs = []
        for i in range(n):
            payload = (
                b"bblab-perturbed"
                + int(seed).to_bytes(8, "little", signed=True)
                + int(mask).to_bytes(4, "little")
                + int(i).to_bytes(2, "little")
            )
            h = hashlib.sha256(payload).digest()
            u1 = ((int.from_bytes(h[0:8], "little") >> 11) + 0.5) / 2.0 ** 53
            u2 = ((int.from_bytes(h[8:16], "little") >> 11) + 0.5) / 2.0 ** 53
            z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
            c = denom + round(z * float(sigma) * denom)
            coeffs.append(Fraction(c if mask >> i & 1 else -c, denom))
        rows.append(FractionConstraint(tuple(coeffs), GE, rhs - (n - bin(mask).count("1"))))
    return rows
