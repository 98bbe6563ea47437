"""Exact two-phase primal simplex over the rationals.

The tableau is kept as an integer matrix with one shared positive
denominator (integer pivoting, Edmonds 1967): a pivot replaces every entry
by (old * pivot - old_c * pivot_row) / den, an exact integer division, so
no per-entry gcd normalization is needed and no floating point appears
anywhere.  As in D. Avis's *lrs* (2000), the tableau is condensed: it
keeps only the nonbasic columns, each carrying its variable's label, and
the rhs.  Row i's basic column is implicit (den in row i, 0 elsewhere), so
a pivot costs m x (k + 1) entries for k nonbasic columns, not one column
per slack and artificial as well.  The pivot hands the entering column to
the leaving variable; an artificial that leaves is dropped at once, since
it never re-enters.

Labels are the full tableau's column indices: the structurals, then one
slack per "<=" row, then one artificial per equality row or negative
right-hand side.  Bland's rule enters the nonbasic column of lowest label
with a negative reduced cost and breaks ratio ties by the lowest basic
label, which guarantees termination.  The pivots, basis, point, value and
Farkas multipliers are therefore those of the full tableau.

Problem form solved here:

    optimize  c . x    subject to    rows[i] . x  (<=|=)  rhs[i],   x >= 0.

Each row becomes a coprime integer row once, on entry; rows that are
already all ints are taken as they are (after dividing out their gcd), so
no Fraction is built for them.  The self-check of the returned point and
the sign tests of a Farkas certificate are exact integer tests over the
tableau's common denominator; ``Fraction`` appears only in the returned
point, value and multipliers.

Callers are responsible for splitting free variables and for presenting
box upper bounds as rows.  Farkas certificates are returned whenever all
relations are "<=": on infeasibility the returned multipliers u satisfy
u >= 0, sum_i u_i row_i >= 0 componentwise, and u . rhs < 0, verified
exactly before returning.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import _kernel
from .errors import InternalError
from .polytope import EQ, LE
from .rationals import clear_denominators

_MAX_PIVOTS = 500_000


@dataclass
class SimplexResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple | None = None
    value: Fraction | None = None
    farkas: tuple | None = None


def solve(nvars, rows, rels, rhs, objective=None, maximize=False):
    m = len(rows)

    # Each row as coprime integers; the positive scale maps multipliers back.
    introws, intrhs, scales = [], [], []
    for i in range(m):
        ints, scale = _integer_row(list(rows[i]) + [rhs[i]])
        introws.append(ints[:nvars])
        intrhs.append(ints[nvars])
        scales.append(scale)

    # Sign-fix so every right-hand side is nonnegative.
    sigma = [1 if b >= 0 else -1 for b in intrhs]

    # Labels: the structurals, then a slack per <= row, then an artificial
    # per equality row or negative right-hand side.
    slack = {}
    for i in range(m):
        if rels[i] == LE:
            slack[i] = nvars + len(slack)
    first_art = nvars + len(slack)
    art = {}
    for i in range(m):
        if rels[i] == EQ or sigma[i] < 0:
            art[i] = first_art + len(art)

    # Nonbasic at the start: the structurals and the slacks of rows whose
    # artificial is basic.
    basis = [art[i] if i in art else slack[i] for i in range(m)]
    slack_rows = [i for i in art if i in slack]
    labels = list(range(nvars)) + [slack[i] for i in slack_rows]
    tableau = []
    for i in range(m):
        s = sigma[i]
        tableau.append([s * v for v in introws[i]]
                       + [s * (k == i) for k in slack_rows] + [s * intrhs[i]])

    # Phase-2 objective row, maintained through both phases: minimize c2 . x.
    p2 = None
    if objective is not None:
        c, cscale = _integer_row(list(objective))
        p2 = ([-v for v in c] if maximize else list(c)) + [0] * (len(slack_rows) + 1)
    p2s = [p2] if p2 is not None else []

    den = 1
    pivots = 0

    def pivot(r, col, objs):
        # Enter labels[col] in row r; the leaving variable takes its column,
        # unless it is an artificial, which never re-enters: then the
        # column is dropped.
        nonlocal den
        den = _kernel.pivot_update(tableau + objs, r, col, den)
        basis[r], labels[col] = labels[col], basis[r]
        if labels[col] >= first_art:
            del labels[col]
            for row in tableau + objs:
                del row[col]

    def run_bland(objs):
        # Bland's rule: the lowest entering label, then the lowest leaving one.
        nonlocal pivots
        obj = objs[0]
        while True:
            enter = -1
            for j, label in enumerate(labels):
                if obj[j] < 0 and (enter < 0 or label < labels[enter]):
                    enter = j
            if enter < 0:
                return "optimal"
            leave = -1
            best_n = best_d = None  # ratio best_n / best_d
            for i in range(len(tableau)):
                a = tableau[i][enter]
                if a > 0:
                    r_n, r_d = tableau[i][-1], a
                    if leave < 0 or r_n * best_d < best_n * r_d or (
                        r_n * best_d == best_n * r_d and basis[i] < basis[leave]
                    ):
                        leave, best_n, best_d = i, r_n, r_d
            if leave < 0:
                return "unbounded"
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise InternalError("pivot limit exceeded; cycling suspected")
            pivot(leave, enter, objs)

    # Phase 1: drive the artificials to zero.
    if art:
        p1 = [-sum(col) for col in zip(*(tableau[i] for i in art))]
        if run_bland([p1] + p2s) == "unbounded":
            raise InternalError("phase-1 objective is bounded by construction")
        if p1[-1] < 0:  # infeasibility measure -p1[-1]/den is positive
            farkas = None
            if len(slack) == m:  # every relation is <=: w is p1 on the slacks
                at = dict(zip(labels, p1))
                w = [at.get(slack[i], 0) for i in range(m)]
                farkas = _extract_farkas(w, den, introws, intrhs, scales)
            return SimplexResult("infeasible", farkas=farkas)
        # Pivot basic artificials (at value zero) onto the lowest nonzero
        # label; a row with no nonzero entry is redundant and dropped.
        i = 0
        while i < len(tableau):
            if basis[i] >= first_art:
                row = tableau[i]
                nonzero = [j for j in range(len(labels)) if row[j]]
                if not nonzero:
                    del tableau[i]
                    del basis[i]
                    continue
                pivot(i, min(nonzero, key=labels.__getitem__), p2s)
            i += 1

    if p2 is not None and run_bland(p2s) == "unbounded":
        return SimplexResult("unbounded")

    # The point is nums / den; check it against every row before returning.
    nums = [0] * nvars
    for i, b in enumerate(basis):
        if b < nvars:
            nums[b] = tableau[i][-1]
    _self_check(nums, den, introws, intrhs, rels)
    x = tuple(Fraction(v, den) for v in nums)
    value = None
    if objective is not None:
        value = Fraction(sum(cj * v for cj, v in zip(c, nums) if v), den)
        if cscale != 1:
            value /= cscale
    return SimplexResult("optimal", x=x, value=value)


def _integer_row(values):
    """``values`` as coprime ints, with the positive scale s: ints == values * s.

    An all-int row, as every polytope row is, is only divided by its gcd,
    with no Fraction built.  Rational input still comes from
    ``lp_optimize``'s objective, the hull LP's query point and the convex
    weights' rows; it goes through ``clear_denominators``.  Both give the
    same ints.
    """
    if all(type(v) is int for v in values):
        g = gcd(*values)
        if g > 1:
            return [v // g for v in values], Fraction(1, g)
        return values, 1
    return clear_denominators(values)


def _extract_farkas(w, den, introws, intrhs, scales):
    # The multipliers on the integer rows are w / den with den > 0, so the
    # certificate's sign tests are exact integer tests on w.
    m = len(introws)
    if any(wi < 0 for wi in w):
        raise InternalError("negative Farkas multiplier")
    nvars = len(introws[0]) if m else 0
    for j in range(nvars):
        if sum(w[i] * introws[i][j] for i in range(m) if w[i]) < 0:
            raise InternalError("Farkas combination has a negative coefficient")
    if sum(w[i] * intrhs[i] for i in range(m) if w[i]) >= 0:
        raise InternalError("Farkas combination does not prove infeasibility")
    return tuple(Fraction(wi, den) * s for wi, s in zip(w, scales))


def _self_check(nums, den, introws, intrhs, rels):
    # x = nums / den with den > 0 satisfies row . x <= rhs exactly when
    # row . nums <= rhs * den, and rows are positive multiples of the input.
    nonzero = [(j, v) for j, v in enumerate(nums) if v]
    for row, b, rel in zip(introws, intrhs, rels):
        lhs = sum(row[j] * v for j, v in nonzero)
        ok = lhs <= b * den if rel == LE else lhs == b * den
        if not ok:
            raise InternalError("simplex returned a point violating a constraint")
    if any(v < 0 for _, v in nonzero):
        raise InternalError("simplex returned a negative variable value")
