import random
from fractions import Fraction

import pytest

from bblab.bbtree import Disjunction, atoms_of, proves_infeasibility
from bblab.errors import PNotInfeasible, PointInHull, StrategyStuck, TooLarge
from bblab.families import CrossSpec, PackingSpec, gen_cross_polytope, gen_packing_family
from bblab.lp import in_convex_hull_of_union
from bblab.polytope import LE, LinearConstraint, Polytope
from bblab.search import (
    FixedSequence,
    MostFractional,
    RandomGeneral,
    SearchBudget,
    enumerate_bounded_trees,
    min_tree_size,
    run_bb,
    separation_resistance,
)

F = Fraction
HALF = F(1, 2)


def test_run_bb_proves_cross_polytope_with_full_tree():
    P3 = gen_cross_polytope(CrossSpec(3, "oracle"))
    rep = run_bb(P3, MostFractional())
    assert rep.status == "proved-infeasible"
    assert rep.nodes == 15 and rep.leaves == 8
    assert rep.nodes == 2 * rep.leaves - 1
    assert proves_infeasibility(rep.tree, P3).proved


def test_run_bb_solves_packing_objective():
    P = gen_packing_family(PackingSpec(4, 2))
    rep = run_bb(P, MostFractional(), objective=[1, 1, 1, 1])
    assert rep.status == "solved" and rep.value == 1
    assert sum(rep.point) == 1 and all(v in (0, 1) for v in rep.point)


def test_run_bb_budget_exceeded():
    P2 = gen_cross_polytope(CrossSpec(2))
    rep = run_bb(P2, MostFractional(), budget=SearchBudget(max_nodes=1))
    assert rep.status == "budget-exceeded" and rep.nodes == 1
    rep = run_bb(P2, MostFractional(), budget=SearchBudget(max_leaves=3))
    assert rep.status == "budget-exceeded"
    assert rep.nodes == 5 and rep.leaves == 3
    rep = run_bb(P2, MostFractional(), budget=SearchBudget(max_leaves=4))
    assert rep.status == "proved-infeasible"
    assert rep.nodes == 7 and rep.leaves == 4


def test_run_bb_internal_disjunctions_cut_their_lp_optima():
    P = gen_packing_family(PackingSpec(6, 2, with_cover=True))
    rep = run_bb(P, MostFractional())
    assert rep.status == "proved-infeasible"
    internal = 0
    for path, rec in rep.records.items():
        if rec.disjunction is not None:
            internal += 1
            assert rec.disjunction.cuts_off(rec.lp_point)
    assert internal == (rep.nodes - rep.leaves)


def test_run_bb_random_general_strategy_is_deterministic():
    P2 = gen_cross_polytope(CrossSpec(2))
    a = run_bb(P2, RandomGeneral(2, seed=5))
    b = run_bb(P2, RandomGeneral(2, seed=5))
    assert a.status == "proved-infeasible"
    assert a.tree == b.tree
    assert proves_infeasibility(a.tree, P2).proved


def test_fixed_sequence_strategy():
    P2 = gen_cross_polytope(CrossSpec(2))
    seq = FixedSequence([Disjunction((1, 0), 0), Disjunction((0, 1), 0)])
    rep = run_bb(P2, seq)
    assert rep.status == "proved-infeasible"
    with pytest.raises(StrategyStuck):
        run_bb(gen_cross_polytope(CrossSpec(1)), FixedSequence([]))


def test_run_bb_without_objective_reports_found_integer_point():
    rep = run_bb(Polytope(2), MostFractional())
    assert rep.status == "solved" and rep.value is None
    assert rep.point == (0, 0) and rep.nodes == 1

    empty = Polytope(1, (LinearConstraint((1,), LE, 0), LinearConstraint((-1,), LE, -1)))
    rep = run_bb(empty, MostFractional())
    assert rep.status == "proved-infeasible" and rep.nodes == 1


def test_run_bb_tsp_branching_run_and_witness_replay():
    # seeded weights that make the subtour relaxation fractional at the root,
    # so the engine actually branches; values frozen from the deterministic run
    import random as _random

    from bblab.bbtree import solves
    from bblab.families import TspSpec, gen_tsp_subtour

    T = gen_tsp_subtour(TspSpec(10))
    rng = _random.Random(2)
    c = tuple(F(-rng.randint(1, 100), rng.randint(1, 10)) for _ in range(T.dim))
    rep = run_bb(T, MostFractional(), objective=c, budget=SearchBudget(max_nodes=4000))
    assert rep.status == "solved" and rep.nodes == 3
    assert rep.value == F(-1447, 40)
    witnesses = {
        i: rep.records[path].lp_point
        for i, path in enumerate(rep.tree.leaf_paths())
        if rep.records[path].pruned == "integral"
    }
    assert witnesses  # at 45 variables the enumeration fallback is unusable
    assert rep.leaf_witnesses() == witnesses
    replay = solves(rep.tree, T, c, witnesses)
    assert replay.solved


def test_min_tree_size_cross_examples():
    P1 = gen_cross_polytope(CrossSpec(1))
    r = min_tree_size(P1, 1, 4)
    assert r.exact and r.leaves == 2  # 3 nodes: the 2^(n+1)-1 bound is tight
    P2 = gen_cross_polytope(CrossSpec(2))
    r = min_tree_size(P2, 2, 5)
    assert r.exact and r.leaves == 4
    assert "bounded-coefficient" in r.caveat


def test_min_tree_size_monotone_in_coefficient_bound():
    P2 = gen_cross_polytope(CrossSpec(2))
    at1 = min_tree_size(P2, 1, 6)
    at2 = min_tree_size(P2, 2, 6)
    assert at1.leaves == 4  # 2^n leaves attained already by variable branching
    assert at2.leaves <= at1.leaves


def test_min_tree_size_guards():
    with pytest.raises(PNotInfeasible):
        min_tree_size(Polytope(1), 1, 4)
    with pytest.raises(TooLarge):
        min_tree_size(Polytope(4, (LinearConstraint((1, 1, 1, 1), LE, -1),)), 1, 2)
    P1 = gen_cross_polytope(CrossSpec(1))
    r = min_tree_size(P1, 1, 1)
    assert not r.exact and r.more_than == 1


def test_enumerate_bounded_trees_counts_and_shapes():
    from bblab.bbtree import leaf

    P1 = gen_cross_polytope(CrossSpec(1))
    singles = list(enumerate_bounded_trees(P1, 1, 1))
    assert singles == [leaf()]
    twos = list(enumerate_bounded_trees(P1, 1, 2))
    assert twos and all(t.leaf_count == 2 for t in twos)
    assert any(proves_infeasibility(t, P1).proved for t in twos)


def test_separation_resistance_simple_triangle():
    # engine-derived regression value: a single split already separates
    P = Polytope(2, (LinearConstraint((1, 1), LE, F(3, 2)),))
    res = separation_resistance(P, (F(3, 4), F(3, 4)), 1, 3)
    assert res.separated and res.leaves == 2
    atoms = [a.polytope() for a in atoms_of(res.tree, P)]
    assert not in_convex_hull_of_union((F(3, 4), F(3, 4)), atoms).inside


def test_separation_resistance_cross_center_engine_value():
    # 3 leaves suffice: x2<=0 v x2>=1, then x1-2x2 <= -2 v >= -1 leaves {(1/2, 0)}.
    # 2 never do: P_2 is symmetric about c; a split either keeps c in one atom or
    # has two non-empty atoms swapped by reflection through c, so c is a midpoint.
    P2 = gen_cross_polytope(CrossSpec(2))
    res = separation_resistance(P2, (HALF, HALF), 2, 3)
    assert res.separated and res.leaves == 3
    atoms = [a.polytope() for a in atoms_of(res.tree, P2)]
    assert not in_convex_hull_of_union((HALF, HALF), atoms).inside


def test_separation_resistance_more_than_replays():
    P2 = gen_cross_polytope(CrossSpec(2))
    res = separation_resistance(P2, (HALF, HALF), 2, 2)
    assert not res.separated and res.more_than == 2
    rng = random.Random(9)
    pool = []
    for L in (1, 2):
        pool.extend(enumerate_bounded_trees(P2, 2, L))
    sample = pool if len(pool) <= 100 else rng.sample(pool, 100)
    for tree in sample:
        atoms = [a.polytope() for a in atoms_of(tree, P2)]
        assert in_convex_hull_of_union((HALF, HALF), atoms).inside


def test_separation_resistance_guards():
    with pytest.raises(PointInHull):
        separation_resistance(Polytope(1), (HALF,), 1, 2)
    P2 = gen_cross_polytope(CrossSpec(2))
    with pytest.raises(Exception):
        separation_resistance(P2, (1, 1), 2, 2)  # not in P
