import random
from fractions import Fraction
from math import gcd

import pytest

from bblab import lp, simplex
from bblab.bbtree import Disjunction, full_variable_tree, proves_infeasibility
from bblab.errors import EmptyList, InternalError
from bblab.families import CrossSpec, PackingSpec, gen_cross_polytope, gen_packing_family
from bblab.lp import (
    affine_rank,
    enum_vertices,
    in_convex_hull_of_union,
    lp_feasible,
    lp_optimize,
    verify_farkas,
)
from bblab.polytope import EQ, GE, LE, LinearConstraint, Polytope
from bblab.rationals import clear_denominators, dot

from _oracles import (
    _gauss_jordan,
    brute_in_hull_of_union,
    brute_lp,
    brute_rank,
    brute_rref,
    brute_system,
    brute_verify_farkas,
    brute_vertices,
)

F = Fraction


def box(n):
    return Polytope(n)


def test_lp_feasible_contradictory_bounds():
    P = Polytope(1, (LinearConstraint((1,), LE, 0), LinearConstraint((1,), GE, 1)))
    out = lp_feasible(P)
    assert out.status == "infeasible"
    mults = dict(out.farkas)
    assert mults[("row", 0)] == 1 and mults[("row", 1)] == 1
    verify_farkas(P, out.farkas)


def test_lp_feasible_cross_polytope_point():
    out = lp_feasible(gen_cross_polytope(CrossSpec(1)))
    assert out.status == "feasible" and out.point == (F(1, 2),)


def test_lp_feasible_oracle_cutting_loop_is_short():
    P = gen_cross_polytope(CrossSpec(3, "oracle"))

    class Counting:
        def __init__(self, inner):
            self.inner = inner
            self.calls = 0

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def find_violated(self, x):
            self.calls += 1
            return self.inner.find_violated(x)

    counting = Counting(P.oracle)
    probe = Polytope(3, (), oracle=counting)
    out = lp_feasible(probe)
    assert out.status == "feasible"
    assert P.contains(out.point)
    assert counting.calls <= 2 ** 3


def test_lp_optimize_examples():
    out = lp_optimize(gen_packing_family(PackingSpec(4, 2)), [1, 1, 1, 1], "max")
    assert out.value == 2
    out = lp_optimize(box(2), [1, 1], "max")
    assert out.value == 2 and out.point == (1, 1)
    out = lp_optimize(gen_cross_polytope(CrossSpec(1)), [1], "max")
    assert out.value == F(1, 2)


def test_lp_optimize_matches_vertex_maximum_on_random_polytopes():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(1, 3)
        rows = tuple(
            LinearConstraint(
                tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)),
                "<=",
                F(rng.randint(-1, 4), rng.randint(1, 2)),
            )
            for _ in range(rng.randint(1, 4))
        )
        P = Polytope(n, rows)
        c = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n))
        out = lp_optimize(P, c, "max")
        verts = enum_vertices(P)
        if not verts:
            assert out.status == "infeasible"
            verify_farkas(P, out.farkas)
        else:
            assert out.status == "optimal"
            assert out.value == max(dot(c, v) for v in verts)


def test_hull_membership_examples():
    a0 = Polytope(1, (LinearConstraint((1,), EQ, 0),))
    a1 = Polytope(1, (LinearConstraint((1,), EQ, 1),))
    res = in_convex_hull_of_union([F(1, 2)], [a0, a1])
    assert res.inside and res.weights == (F(1, 2), F(1, 2))
    res = in_convex_hull_of_union([F(1, 2)], [a0])
    assert not res.inside
    res = in_convex_hull_of_union([F(1, 2)], [])
    assert res == lp.HullResult(False)


def test_hull_membership_union_of_empty_atoms_is_outside():
    from bblab.bbtree import atoms_of, full_variable_tree

    P2 = gen_cross_polytope(CrossSpec(2))
    atoms = [a.polytope() for a in atoms_of(full_variable_tree(2), P2)]
    res = in_convex_hull_of_union([F(1, 2), F(1, 2)], atoms)
    assert not res.inside


def test_hull_membership_agrees_with_vertex_pool_brute_force():
    rng = random.Random(77)
    agree = 0
    for _ in range(20):
        n = rng.randint(1, 3)
        atoms = []
        for _ in range(rng.randint(1, 3)):
            rows = tuple(
                LinearConstraint(
                    tuple(F(rng.randint(-2, 2)) for _ in range(n)),
                    "<=",
                    F(rng.randint(0, 3), rng.randint(1, 2)),
                )
                for _ in range(rng.randint(0, 3))
            )
            atoms.append(Polytope(n, rows))
        x = tuple(F(rng.randint(0, 4), 4) for _ in range(n))
        got = in_convex_hull_of_union(x, atoms).inside
        want = brute_in_hull_of_union(x, [enum_vertices(a) for a in atoms])
        assert got == want
        agree += 1
    assert agree == 20


def test_affine_rank():
    e = lambda i: tuple(F(int(j == i)) for j in range(4))
    assert affine_rank([e(0), e(1), e(2), e(3)]) == 4
    assert affine_rank([(F(1), F(2))]) == 1
    assert affine_rank([(0, 0), (1, 0), (2, 0)]) == 2
    with pytest.raises(EmptyList):
        affine_rank([])


def _random_points(rng, n, m):
    """m rational points in dimension n; some are affine combinations of a
    few base points, so the set is often affinely dependent."""
    base = [tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n))
            for _ in range(rng.randint(1, 3))]
    pts = []
    for _ in range(m):
        if rng.random() < 0.5:
            w = [F(rng.randint(-2, 3)) for _ in base]
            w[0] += 1 - sum(w)
            pts.append(tuple(sum(wi * b[j] for wi, b in zip(w, base)) for j in range(n)))
        else:
            pts.append(tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)))
    return pts


def test_affine_rank_matches_fraction_brute_force():
    from itertools import combinations

    cases = []
    for n, k in ((5, 2), (6, 3), (8, 3)):  # cardinality-facet point sets
        cases.append([tuple(F(int(i in T)) for i in range(n))
                      for T in combinations(range(n), k - 1)])
    rng = random.Random(68)
    cases += [_random_points(rng, rng.randint(1, 5), rng.randint(1, 7)) for _ in range(150)]
    ranks = set()
    for pts in cases:
        diffs = [[p[j] - pts[0][j] for j in range(len(p))] for p in pts[1:]]
        want = brute_rank(diffs) + 1
        assert affine_rank(pts) == want
        ranks.add(want)
    assert ranks >= {1, 2, 3, 4, 5, 6}


def test_eliminate_reaches_the_fraction_reduced_row_echelon_form():
    # Every column not pivoted is the Fraction RREF's.  The pivot keeps the
    # tableau condensed, so the k-th pivot column holds the column of the
    # implicit unit it replaced: in the RREF of [rows | I], made with the
    # same row swaps, the identity column of the row that ends in row k.
    rng = random.Random(69)
    for _ in range(120):
        m, width = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(width)]
                for _ in range(m)]
        want_rank, want = brute_rref(rows)
        got = [list(r) for r in rows]
        rank, den = lp._eliminate(got, width)
        assert den > 0 and rank == want_rank
        aug = [[F(v) for v in r] + [F(int(i == t)) for t in range(m)]
               for i, r in enumerate(rows)]
        origin = list(range(m))
        _gauss_jordan(aug, width, origin)
        pivot_cols = {next(j for j in range(width) if want[k][j]): k for k in range(rank)}
        for j in range(width):
            ref = [r[width + origin[pivot_cols[j]]] for r in aug] if j in pivot_cols \
                else [r[j] for r in want]
            assert [F(r[j], den) for r in got] == ref


def _random_mixed_polytope(rng):
    n = rng.randint(1, 3)
    rows = tuple(_random_row(rng, n) for _ in range(rng.randint(0, 5)))
    rng.random()  # once drew a box flag; kept so the seeded cases stay the same
    return Polytope(n, rows)


def test_enum_vertices_matches_fraction_brute_force():
    from bblab import acceptance
    from bblab.bbtree import atoms_of, transform_tree

    rng = random.Random(70)
    cases = [_random_mixed_polytope(rng) for _ in range(120)]
    rng = random.Random(20240707)  # the triples of acceptance criterion 7
    for trial in range(50):
        P = acceptance._random_polytope_3d(rng)
        f = acceptance._random_map_from_3d(rng)
        tree = transform_tree(acceptance._random_tree(rng, f.out_dim, 4), f)
        if trial % 5 == 0:
            cases += [a.polytope() for a in atoms_of(tree, P)]
    sizes = set()
    for P in cases:
        verts = enum_vertices(P)
        assert verts == brute_vertices(P)
        sizes.add(min(len(verts), 3))
    assert sizes == {0, 1, 2, 3}


def test_feasible_points_satisfy_rows_exactly():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.randint(1, 3)
        rows = tuple(
            LinearConstraint(
                tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)),
                rng.choice(["<=", ">=", "="]),
                F(rng.randint(0, 2), rng.randint(1, 2)),
            )
            for _ in range(rng.randint(1, 3))
        )
        P = Polytope(n, rows)
        out = lp_feasible(P)
        if out.feasible:
            assert P.contains(out.point)
        else:
            verify_farkas(P, out.farkas)


def _random_row(rng, n, rel=None):
    return LinearConstraint(
        tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)),
        rel or rng.choice(["<=", "<=", ">=", "="]),
        F(rng.randint(-2, 8), rng.randint(1, 3)),
    )


def test_constraint_int_form_is_clear_denominators_of_each_leq_pair():
    rng = random.Random(61)
    for _ in range(60):
        row = _random_row(rng, rng.randint(1, 5))
        forms = row.int_leq
        pairs = row.as_leq()
        assert len(forms) == len(pairs)
        for (coeffs, rhs, scale), (pair_coeffs, pair_rhs) in zip(forms, pairs):
            ints, want_scale = clear_denominators(list(pair_coeffs) + [pair_rhs])
            assert list(coeffs) + [rhs] == ints and scale == want_scale
            assert all(type(v) is int for v in coeffs) and type(rhs) is int
        assert row.int_leq is forms  # made once, kept on the constraint


def test_polytope_int_system_is_each_row_for_ref_scaled_without_box_lo():
    rng = random.Random(62)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = tuple(_random_row(rng, n) for _ in range(rng.randint(0, 5)))
        rng.random()  # once drew a box flag; kept so the seeded cases stay the same
        P = Polytope(n, rows)
        want_refs = [("row", i, side) if r.rel == "=" else ("row", i)
                     for i, r in enumerate(rows) for side in ("le", "ge")[: len(r.as_leq())]]
        want_refs += [("box_hi", j) for j in range(n)]
        got = P.int_system()
        assert [entry[0] for entry in got] == want_refs
        for ref, coeffs, rhs, scale in got:
            assert all(type(v) is int for v in coeffs) and type(rhs) is int
            assert gcd(*coeffs, rhs) <= 1 and scale > 0  # coprime, or all zero
            want_coeffs, want_rhs = P.row_for_ref(ref)
            assert [*coeffs, rhs] == [v * scale for v in (*want_coeffs, want_rhs)]


def _brute(P, c):
    """(status, max c.x) over P by vertex enumeration of its explicit rows."""
    system = brute_system(P, box_lo=False)  # brute_lp adds x >= 0 itself
    return brute_lp(P.dim, [s[0] for s in system], [s[1] for s in system], objective=c)


def _agrees_with_brute(P, rng):
    c = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(P.dim))
    want_status, want_value = _brute(P, c)
    feas = lp_feasible(P)
    opt = lp_optimize(P, c, "max")
    if want_status == "infeasible":
        assert feas.status == opt.status == "infeasible"
        verify_farkas(P, feas.farkas)
        verify_farkas(P, opt.farkas)
    else:
        assert feas.status == "feasible" and P.contains(feas.point)
        assert opt.status == "optimal" and opt.value == want_value
        assert P.contains(opt.point) and dot(c, opt.point) == want_value
    return want_status


def test_lp_agrees_with_brute_force_on_explicit_rows():
    rng = random.Random(63)
    statuses = set()
    for _ in range(30):
        n = rng.randint(1, 3)
        rows = tuple(_random_row(rng, n) for _ in range(rng.randint(1, 4)))
        statuses.add(_agrees_with_brute(Polytope(n, rows), rng))
    # more than 48 <=-rows: the lazy pool, its integer scan and its scoring
    for _ in range(3):
        rows = tuple(_random_row(rng, 2, "<=") for _ in range(55))
        statuses.add(_agrees_with_brute(Polytope(2, rows), rng))
    assert statuses == {"optimal", "infeasible"}


def _oracle_polytope(rng):
    if rng.random() < 0.5:
        return gen_cross_polytope(CrossSpec(rng.randint(2, 3), "oracle"))
    return gen_packing_family(PackingSpec(4, 2, with_cover=rng.random() < 0.5,
                                          mode="oracle"))


def test_lp_agrees_with_brute_force_on_oracle_rows():
    rng = random.Random(64)
    statuses = set()
    for _ in range(12):
        P = _oracle_polytope(rng)
        # branching-style rows with integer data, as atoms carry them
        extra = tuple(
            LinearConstraint(tuple(rng.randint(-1, 1) for _ in range(P.dim)),
                             rng.choice(["<=", ">="]), rng.randint(-1, 1))
            for _ in range(rng.randint(0, 2))
        )
        statuses.add(_agrees_with_brute(P.with_rows(extra), rng))
    assert statuses == {"optimal", "infeasible"}


def test_pool_activates_the_most_violated_rows_as_fraction_scoring_does(monkeypatch):
    # Each cutting round adds the (at most 8) pool rows most violated at the
    # last LP point, ties by row index.  Rank them here with Fraction
    # arithmetic on the rows as given and compare with what the LP added.
    def normal(coeffs, b):
        return clear_denominators(list(coeffs) + [b])[0]

    real = simplex.solve
    rng = random.Random(65)
    checked = 0
    for _ in range(4):
        rows = tuple(_random_row(rng, 2, "<=") for _ in range(55))
        P = Polytope(2, rows)
        rounds = []

        def spy(nvars, kernel_rows, rels, rhs, **kwargs):
            res = real(nvars, kernel_rows, rels, rhs, **kwargs)
            rounds.append(([normal(r, b) for r, b in zip(kernel_rows, rhs)], res))
            return res

        monkeypatch.setattr(simplex, "solve", spy)
        lp_feasible(P)
        monkeypatch.setattr(simplex, "solve", real)
        active = set()
        for (prev_rows, prev), (cur_rows, _) in zip(rounds, rounds[1:]):
            assert cur_rows[: len(prev_rows)] == prev_rows
            excess = [(dot(r.coeffs, prev.x) - r.rhs, k) for k, r in enumerate(rows)
                      if k not in active]
            top = sorted((t for t in excess if t[0] > 0), key=lambda t: (-t[0], t[1]))[:8]
            assert cur_rows[len(prev_rows):] == [normal(rows[k].coeffs, rows[k].rhs)
                                                 for _, k in top]
            active.update(k for _, k in top)
            checked += len(top)
    assert checked > 8


def _branching_rows(rng, dim, depth):
    """One side of each of ``depth`` random general disjunctions."""
    rows = []
    for _ in range(depth):
        pi = [0] * dim
        while not any(pi):
            pi = [rng.randint(-2, 2) for _ in range(dim)]
        d = Disjunction(tuple(pi), rng.randint(-2, 2))
        rows.append(d.left_row() if rng.random() < 0.5 else d.right_row())
    return tuple(rows)


def test_full_and_lazy_pools_agree_on_oracle_polytopes(monkeypatch):
    # A pool of at most 48 explicit rows is loaded in full even under an
    # oracle; forcing it lazy (the old path) must not change any answer.
    rng = random.Random(66)
    statuses = set()
    for _ in range(12):
        P = _oracle_polytope(rng)
        P = P.with_rows(_branching_rows(rng, P.dim, rng.randint(1, 3)))
        c = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(P.dim))
        want_status, want_value = _brute(P, c)
        outs = []
        for pool_min in (lp._LAZY_POOL_MIN, -1):
            monkeypatch.setattr(lp, "_LAZY_POOL_MIN", pool_min)
            outs.append((lp_feasible(P), lp_optimize(P, c, "max")))
        monkeypatch.undo()
        (full_feas, full_opt), (lazy_feas, lazy_opt) = outs
        assert full_feas.status == lazy_feas.status
        assert full_opt.status == lazy_opt.status and full_opt.value == lazy_opt.value
        for out in (full_feas, full_opt, lazy_feas, lazy_opt):
            if want_status == "infeasible":
                assert out.status == "infeasible"
                verify_farkas(P, out.farkas)
                brute_verify_farkas(P, out.farkas)
            else:
                assert out.feasible and P.contains(out.point)
        if want_status == "optimal":
            assert full_opt.value == want_value
        statuses.add(want_status)
    assert statuses == {"optimal", "infeasible"}


def _verdict(check, P, cert):
    try:
        check(P, cert)
    except InternalError as exc:
        return str(exc)
    return None


def test_integer_farkas_recheck_agrees_with_the_fraction_recheck():
    rng = random.Random(67)
    cases = []
    for n in (3, 4):  # oracle rows and branching rows, all integer
        P = gen_cross_polytope(CrossSpec(n, "oracle"))
        rep = proves_infeasibility(full_variable_tree(n), P)
        cases += [(a.polytope(), cert) for a, cert in zip(rep.atoms, rep.certificates)]
    while len(cases) < 60:  # rational rows, box_lo multipliers
        n = rng.randint(1, 3)
        P = Polytope(n, tuple(_random_row(rng, n) for _ in range(rng.randint(1, 4))))
        rng.random()  # once drew a box flag; kept so the seeded cases stay the same
        out = lp_feasible(P)
        if out.status == "infeasible":
            cases.append((P, out.farkas))
    rejected = 0
    for P, cert in cases:
        assert _verdict(verify_farkas, P, cert) is None
        assert _verdict(brute_verify_farkas, P, cert) is None
        i = rng.randrange(len(cert))
        ref, mult = cert[i]
        for bad in (mult * F(rng.randint(2, 5), rng.randint(1, 7)), 0, -mult):
            mutant = cert[:i] + ((ref, bad),) + cert[i + 1:]
            verdict = _verdict(verify_farkas, P, mutant)
            assert verdict == _verdict(brute_verify_farkas, P, mutant)
            rejected += verdict is not None
    assert rejected > 100


def test_verify_farkas_rejects_a_negative_multiplier_and_a_zero_rhs():
    # x <= 0 and x <= 2: -1 * (x <= 2) + (x <= 0) is 0 <= -2, but a
    # multiplier may not be negative.
    P = Polytope(1, (LinearConstraint((1,), LE, 0), LinearConstraint((1,), LE, 2)))
    cert = ((("row", 0), F(1)), (("row", 1), F(-1)))
    # x <= 0 plus -x <= 0 is 0 <= 0, which proves nothing.
    zero_rhs = ((("row", 0), F(1)), (("box_lo", 0), F(1)))
    for check in (verify_farkas, brute_verify_farkas):
        with pytest.raises(InternalError, match="multiplier is negative"):
            check(P, cert)
        with pytest.raises(InternalError, match="nonnegative rhs"):
            check(P, zero_rhs)
        with pytest.raises(InternalError, match="nonnegative rhs"):
            check(P, ())


def test_an_unbounded_simplex_answer_is_an_internal_error(monkeypatch):
    # Every polytope lies in [0,1]^n, so the LP layer has no unbounded status.
    monkeypatch.setattr(simplex, "solve", lambda *a, **kw: simplex.SimplexResult("unbounded"))
    with pytest.raises(InternalError, match="unbounded LP over a box polytope"):
        lp_optimize(Polytope(2), (1, 1))
