"""Exact two-phase primal simplex over the rationals.

The tableau is kept as an integer matrix with one shared positive
denominator (integer pivoting): a pivot replaces every entry by
(old * pivot - old_c * pivot_row) / den, an exact integer division, so no
per-entry gcd normalization is needed and no floating point appears
anywhere.  Bland's rule (lowest eligible index) guarantees termination.

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

    slack_col = {}
    ncols = nvars
    for i in range(m):
        if rels[i] == LE:
            slack_col[i] = ncols
            ncols += 1
    first_art = ncols
    art_col = {}
    for i in range(m):
        if rels[i] == EQ or sigma[i] < 0:
            art_col[i] = ncols
            ncols += 1

    tableau = []
    basis = []
    for i in range(m):
        row = [0] * (ncols + 1)
        if sigma[i] > 0:
            row[:nvars] = introws[i]
            row[ncols] = intrhs[i]
        else:
            row[:nvars] = [-v for v in introws[i]]
            row[ncols] = -intrhs[i]
        if i in slack_col:
            row[slack_col[i]] = sigma[i]
        if i in art_col:
            row[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            basis.append(slack_col[i])
        tableau.append(row)

    den = 1

    # Phase-2 objective row, maintained through both phases: minimize c2 . x.
    p2 = None
    if objective is not None:
        c, cscale = _integer_row(list(objective))
        p2 = [0] * (ncols + 1)
        p2[:nvars] = [-v for v in c] if maximize else c

    state = {"den": den, "pivots": 0}

    def run_bland(objrow, extra_objs, allowed):
        while True:
            enter = -1
            for j in range(ncols):
                if allowed[j] and objrow[j] < 0:
                    enter = j
                    break
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
            state["pivots"] += 1
            if state["pivots"] > _MAX_PIVOTS:
                raise InternalError("pivot limit exceeded; cycling suspected")
            state["den"] = _kernel.pivot_update(tableau + [objrow] + extra_objs,
                                                leave, enter, state["den"])
            basis[leave] = enter

    allowed = [True] * ncols
    for i in art_col.values():
        allowed[i] = False  # artificials never (re-)enter

    # Phase 1: drive the artificials to zero.
    if art_col:
        p1 = [0] * (ncols + 1)
        for i in art_col:
            row = tableau[i]
            for j in range(ncols + 1):
                p1[j] -= row[j]
        for i in art_col.values():
            p1[i] = 0
        status = run_bland(p1, [p2] if p2 is not None else [], allowed)
        if status == "unbounded":
            raise InternalError("phase-1 objective is bounded by construction")
        if p1[-1] < 0:  # infeasibility measure -p1[-1]/den is positive
            farkas = None
            if len(slack_col) == m:  # every relation is <=
                farkas = _extract_farkas(p1, state["den"], slack_col, introws, intrhs, scales)
            return SimplexResult("infeasible", farkas=farkas)
        _drive_out_artificials(tableau, basis, [p for p in (p2,) if p is not None],
                               first_art, state)

    # Drop artificial columns for phase 2.
    if art_col:
        for row in tableau:
            del row[first_art:ncols]
        if p2 is not None:
            del p2[first_art:ncols]
        ncols = first_art
        allowed = allowed[:ncols]

    if p2 is not None:
        status = run_bland(p2, [], allowed)
        if status == "unbounded":
            return SimplexResult("unbounded")

    # The point is nums / den; check it against every row before returning.
    den = state["den"]
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

    An all-int row is only divided by its gcd, with no Fraction built; any
    other row goes through ``clear_denominators``.  Both give the same ints.
    """
    if all(type(v) is int for v in values):
        g = gcd(*values)
        if g > 1:
            return [v // g for v in values], Fraction(1, g)
        return values, 1
    return clear_denominators(values)


def _drive_out_artificials(tableau, basis, objs, first_art, state):
    # Pivot basic artificials (at value zero) onto structural columns; a row
    # with no structural entry is redundant and dropped.
    i = 0
    while i < len(tableau):
        if basis[i] >= first_art:
            row = tableau[i]
            col = next((j for j in range(first_art) if row[j] != 0), -1)
            if col < 0:
                del tableau[i]
                del basis[i]
                continue
            state["den"] = _kernel.pivot_update(tableau + objs, i, col, state["den"])
            basis[i] = col
        i += 1


def _extract_farkas(p1, den, slack_col, introws, intrhs, scales):
    # The multipliers on the integer rows are w / den with den > 0, so the
    # certificate's sign tests are exact integer tests on w.
    m = len(introws)
    w = [p1[slack_col[i]] for i in range(m)]
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
