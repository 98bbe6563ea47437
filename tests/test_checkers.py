import random
from fractions import Fraction
from math import comb

import pytest

from bblab.checkers import (
    criticality_bound,
    entropy_bound_check,
    enum_integer_points,
    facet_check_cardinality,
    find_high_dim_face,
    find_shattered_set,
    gen_restricted_polytope,
    half_points_feasible,
)
from bblab.errors import (
    DimensionTooLarge,
    InequalityInvalidForHull,
    InequalityValidForP,
    PIsEmpty,
    PIsFeasible,
    PreconditionViolated,
    SpecViolation,
)
from bblab.families import (
    CrossSpec,
    PackingSpec,
    PerturbedSpec,
    gen_cross_polytope,
    gen_packing_family,
    gen_perturbed_cross,
)
from bblab.lp import convex_weights, lp_optimize
from bblab.polytope import GE, LE, LinearConstraint, Polytope
from bblab.rationals import dot, rat_vector

from _oracles import brute_half_points_feasible, brute_integer_points

F = Fraction
HALF = F(1, 2)


def test_enum_integer_points_examples():
    pts = enum_integer_points(gen_packing_family(PackingSpec(4, 2)))
    assert pts == [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    for n in (2, 4, 6):
        assert enum_integer_points(gen_cross_polytope(CrossSpec(n))) == []
        assert enum_integer_points(gen_cross_polytope(CrossSpec(n, "oracle"))) == []
    assert len(enum_integer_points(Polytope(2))) == 4
    with pytest.raises(DimensionTooLarge):
        enum_integer_points(Polytope(25))


def test_facet_check_examples():
    assert facet_check_cardinality(4, 2) == facet_check_cardinality(4, 2)
    res = facet_check_cardinality(4, 2)
    assert res.is_facet and res.rank == 4
    res = facet_check_cardinality(6, 3)
    assert res.is_facet and res.rank == 6
    res = facet_check_cardinality(4, 2, restrict={0, 1})
    assert not res.is_facet and res.rank == 2
    with pytest.raises(SpecViolation):
        facet_check_cardinality(4, 1)


def test_criticality_bound_q42():
    Q = gen_packing_family(PackingSpec(4, 2, with_cover=True))
    res = criticality_bound(Q, list(range(len(Q.rows))))
    assert res.verified and res.bound == F(5, 2)
    cover_idx = len(Q.rows) - 1
    assert res.witnesses[cover_idx] == (0, 0, 0, 0)
    # dropping the row for S admits exactly chi(S)
    from itertools import combinations

    for idx, S in enumerate(combinations(range(4), 2)):
        assert res.witnesses[idx] == tuple(int(i in S) for i in range(4))


def test_criticality_bound_holds_across_small_sizes():
    for n in range(4, 9):
        for k in range(2, n // 2 + 1):
            Q = gen_packing_family(PackingSpec(n, k, with_cover=True))
            res = criticality_bound(Q, list(range(len(Q.rows))))
            assert res.verified
            assert res.bound == F(2 * (comb(n, k) + 1), n) - 1


def test_enum_cross_oracle_larger_dimension_is_empty():
    assert enum_integer_points(gen_cross_polytope(CrossSpec(10, "oracle"))) == []


def test_enum_work_on_p12_is_pinned(monkeypatch):
    # Each 0/1 point of the criterion-8 instance is cut by the one row that
    # peaks there, so the scan makes one call per point on a list of one row.
    # Without the peak index every call would scan up to all 4,096 rows.
    from bblab import _kernel

    Q = gen_perturbed_cross(PerturbedSpec(12, seed=0))
    calls, rows_handed = [], []
    real = _kernel.first_violated_mask

    def counted(rows, mask):
        calls.append(mask)
        rows_handed.append(len(rows))
        return real(rows, mask)

    monkeypatch.setattr(_kernel, "first_violated_mask", counted)
    assert enum_integer_points(Q) == []
    assert len(calls) == 4096 and sum(rows_handed) == 4096


def test_criticality_bound_error_paths():
    P = gen_packing_family(PackingSpec(4, 2))
    with pytest.raises(PIsFeasible):
        criticality_bound(P, [0])
    empty = Polytope(1, (LinearConstraint((1,), LE, 0), LinearConstraint((1,), GE, 1)))
    with pytest.raises(PIsEmpty):
        criticality_bound(empty, [0])
    Q = gen_packing_family(PackingSpec(4, 2, with_cover=True))
    res = criticality_bound(Q, [0])  # D smaller than critical set still verifies rows
    assert res.verified and res.bound == F(2 * 1, 4) - 1


def test_gen_restricted_polytope_packing42():
    P = gen_packing_family(PackingSpec(4, 2))
    G = gen_restricted_polytope(P, [1, 1, 1, 1], 1)
    Q = gen_packing_family(PackingSpec(4, 2, with_cover=True))
    assert {r.normalized() for r in G.rows} == {r.normalized() for r in Q.rows}
    assert G.provenance["eps0"] == "1"


def test_gen_restricted_polytope_errors_and_63_case():
    with pytest.raises(InequalityValidForP):
        gen_restricted_polytope(Polytope(1), [1], 1)
    # 1.x <= 0 cuts off the integer point (1, 0, 0, 0) of P_PA(4,2)
    with pytest.raises(InequalityInvalidForHull, match=r"\(1, 0, 0, 0\)"):
        gen_restricted_polytope(gen_packing_family(PackingSpec(4, 2)), (1, 1, 1, 1), 0)
    # For P_PA(6,3) the LP maximum of 1.x is 4 (uniform (k-1)/k point), so
    # eps0 = 2 and the restriction is 1.x >= 4, not the k-cover row.
    P = gen_packing_family(PackingSpec(6, 3))
    assert lp_optimize(P, [1] * 6, "max").value == 4
    G = gen_restricted_polytope(P, [1] * 6, 2)
    assert G.provenance["eps0"] == "2"
    added = G.rows[-1]
    assert added.rel == ">=" and added.rhs == 4


def test_find_high_dim_face_examples():
    face = find_high_dim_face((1, 1, 1, 1), 1, 4)
    assert face.fixed == {0: 1, 1: 1}
    low = lp_optimize(face.as_polytope(4), [1, 1, 1, 1], "min")
    assert low.value == 2

    face = find_high_dim_face((1, -1), -1, 2)
    assert face.fixed == {0: 1}
    low = lp_optimize(face.as_polytope(2), [1, -1], "min")
    assert low.value == 0

    with pytest.raises(PreconditionViolated):
        find_high_dim_face((1, 1), 2, 2)


def test_find_high_dim_face_random_verification():
    rng = random.Random(23)
    for _ in range(15):
        n = rng.randint(2, 6)
        pi = tuple(F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n))
        margin = dot(pi, [HALF] * n)
        pi0 = margin - F(rng.randint(1, 4), 4)
        face = find_high_dim_face(pi, pi0, n)
        assert n - len(face.fixed) >= n // 2
        assert lp_optimize(face.as_polytope(n), pi, "min").value > pi0


def test_find_shattered_set_examples():
    cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    res = find_shattered_set(cube, 2)
    assert res.found and res.coords == (0, 1)
    assert res.point[0] == HALF and res.point[1] == HALF

    res = find_shattered_set([(0, 0, 0), (1, 1, 0)], 1)
    assert res.found and res.coords == (0,)
    assert res.point == (HALF, HALF, 0)

    assert not find_shattered_set([(0, 0)], 1).found


def test_find_shattered_set_point_is_in_hull():
    rng = random.Random(40)
    for _ in range(25):
        n = 5
        size = rng.randint(7, 20)
        F_set = rng.sample([tuple(m >> i & 1 for i in range(n)) for m in range(32)], size)
        res = find_shattered_set(F_set, 2)
        assert res.found  # |F| > C(5,0)+C(5,1) = 6
        assert convex_weights(res.point, [rat_vector(p) for p in F_set]) is not None


def test_entropy_bound_check_examples():
    res = entropy_bound_check(10, 4)
    assert res.holds and res.rhs == 176
    assert F(10 ** 10, 4 ** 4 * 6 ** 6) > 176
    assert abs(res.lhs_log2 - F(9_710_000, 1_000_000)) < F(1, 50)
    res = entropy_bound_check(2, 1)
    assert res.holds and res.rhs == 1
    with pytest.raises(SpecViolation):
        entropy_bound_check(4, 4)


def test_half_points_feasible_agrees_with_enumeration():
    rng = random.Random(62)
    for _ in range(20):
        n = 4
        rows = tuple(
            LinearConstraint(tuple(F(rng.randint(-3, 3), 2) for _ in range(n)), LE,
                             F(rng.randint(0, 6), 2))
            for _ in range(rng.randint(1, 3))
        )
        P = Polytope(n, rows)
        for s in (1, 2, 3):
            res = half_points_feasible(P, s)
            assert res.holds == (brute_half_points_feasible(P, s) is None)
            if not res.holds:
                assert sum(1 for v in res.witness if v == HALF) >= s
                assert not P.contains(res.witness)


def test_half_points_feasible_on_cross_polytope():
    # every point with a half coordinate satisfies all cross rows
    for n in (3, 5):
        P = gen_cross_polytope(CrossSpec(n))
        assert half_points_feasible(P, 1).holds


def _differential_inputs():
    """Polytopes for the checker-versus-brute-force tests: random rational
    rows of every relation, cross (explicit and oracle), packing with and
    without the cover row, and perturbed cross-polytopes with sigma = 1/3,
    whose noise is large enough that some have 0/1 points and some have
    violated half-points."""
    rng = random.Random(67)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = tuple(
            LinearConstraint(
                tuple(rng.choice([0, rng.randint(-3, 3), F(rng.randint(-7, 7), rng.randint(1, 5))])
                      for _ in range(n)),
                rng.choice(["<=", ">=", "="]),
                F(rng.randint(-4, 10), rng.randint(1, 4)),
            )
            for _ in range(rng.randint(1, 4))
        )
        yield Polytope(n, rows)
    for n in (2, 3, 4):
        yield gen_cross_polytope(CrossSpec(n))
        yield gen_cross_polytope(CrossSpec(n, "oracle"))
    for n, k in ((4, 2), (5, 2)):
        yield gen_packing_family(PackingSpec(n, k))
        yield gen_packing_family(PackingSpec(n, k, with_cover=True))
    for n, seed in ((3, 0), (3, 2), (4, 0), (4, 1), (5, 0), (6, 3)):
        yield gen_perturbed_cross(PerturbedSpec(n, seed=seed, sigma=F(1, 3)))


def test_enum_integer_points_matches_fraction_brute_force():
    sizes = set()
    for P in _differential_inputs():
        want = brute_integer_points(P)
        assert enum_integer_points(P) == want
        assert enum_integer_points(P, first_only=True) == want[:1]
        sizes.add(min(len(want), 1))
    assert sizes == {0, 1}


def test_half_points_feasible_matches_fraction_brute_force():
    outcomes = set()
    for P in _differential_inputs():
        rows = P.materialized().rows
        for s in range(P.dim + 2):
            res = half_points_feasible(P, s)
            want = brute_half_points_feasible(P, s)
            outcomes.add(res.holds)
            assert res.holds == (want is None)
            if want is None:
                assert res.row_index is None and res.witness is None
                continue
            row_index, side, best = want
            assert res.row_index == row_index
            # the witness is a point of Half_s at which the row's LHS is largest
            assert sum(1 for v in res.witness if v == HALF) >= s
            assert set(res.witness) <= {F(0), HALF, F(1)}
            coeffs, rhs = rows[row_index].as_leq()[side]
            assert dot(coeffs, res.witness) == best > rhs
    assert outcomes == {True, False}
