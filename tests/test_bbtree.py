import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab import _kernel, lp
from bblab.bbtree import (
    Atom,
    BBTree,
    Disjunction,
    atoms_of,
    full_variable_tree,
    leaf,
    node,
    proves_infeasibility,
    separates,
    solves,
    transform_tree,
)
from bblab.checkers import enum_integer_points
from bblab.errors import DimensionTooLarge, IllegalDisjunction, PointNotInP
from bblab.families import CrossSpec, gen_cross_polytope
from bblab.lp import enum_vertices, verify_farkas
from bblab.maps import (
    DupSpec,
    EmbedSpec,
    FlipSpec,
    apply_map_polytope,
    compose,
    make_dup,
    make_embed,
    make_flip,
)
from bblab.polytope import GE, LE, LinearConstraint, Polytope
from bblab.search import MostFractional, run_bb

from _oracles import brute_integer_points

F = Fraction


def test_disjunction_legality_and_rows():
    d = Disjunction((1, -2), 3)
    assert d.left_row().rel == "<=" and d.left_row().rhs == 3
    assert d.right_row().rel == ">=" and d.right_row().rhs == 4
    assert d.cuts_off((F(3, 2), F(-4, 5)))  # value 31/10 in (3, 4)
    with pytest.raises(IllegalDisjunction):
        Disjunction((0, 0), 1)
    # non-integers are refused, not truncated
    for pi, pi0 in (((F(3, 2), 0), F(1, 2)), ((F(3, 2), 0), 0), ((1, 0), F(1, 2)),
                    ((0.5, 1), 0)):
        with pytest.raises(IllegalDisjunction, match="must be integers"):
            Disjunction(pi, pi0)
    d = Disjunction((F(2), F(-1)), F(3))
    assert (d.pi, d.pi0) == ((2, -1), 3)
    assert all(type(v) is int for v in (*d.pi, d.pi0))


def test_tree_shape_accounting():
    t = full_variable_tree(3)
    assert t.size == 15 and t.leaf_count == 8
    assert t.size == 2 * t.leaf_count - 1
    assert t.leaf_paths()[0] == "LLL" and t.leaf_paths()[-1] == "RRR"
    with pytest.raises(ValueError):
        BBTree(disjunction=Disjunction((1,), 0))


def test_tree_nodes_are_slotted_and_share_one_leaf():
    t = full_variable_tree(3)
    d = t.disjunction
    assert not hasattr(t, "__dict__") and not hasattr(d, "__dict__")
    assert leaf() is leaf() and BBTree.from_json({"leaf": True}) is leaf()
    assert leaf() == BBTree() and hash(leaf()) == hash(BBTree())
    # equal normal vectors are stored once
    assert full_variable_tree(3).disjunction.pi is d.pi
    assert Disjunction([1, 0], 0).pi is Disjunction((1, 0), 3).pi


def test_tree_json_roundtrip():
    t = node(Disjunction((2, -1), -3), leaf(), full_variable_tree(2))
    back = BBTree.from_json(json.loads(json.dumps(t.to_json())))
    assert back == t


def test_atoms_of_examples():
    P = Polytope(2)
    assert atoms_of(leaf(), P) == [Atom(P, (), "")]
    two = atoms_of(node(Disjunction((1, 0), 0), leaf(), leaf()), P)
    assert [a.branching for a in two] == [
        (LinearConstraint((1, 0), LE, 0),),
        (LinearConstraint((1, 0), GE, 1),),
    ]
    P2 = gen_cross_polytope(CrossSpec(2))
    four = atoms_of(full_variable_tree(2), P2)
    assert len(four) == 4 and all(len(a.branching) == 2 for a in four)
    assert [a.path for a in four] == ["LL", "LR", "RL", "RR"]


def test_proves_infeasibility_examples():
    P3 = gen_cross_polytope(CrossSpec(3, "oracle"))
    t = full_variable_tree(3)
    rep = proves_infeasibility(t, P3)
    assert rep.proved and t.size == 15
    for atom, cert in zip(rep.atoms, rep.certificates):
        verify_farkas(atom.polytope(), cert)

    P2 = gen_cross_polytope(CrossSpec(2))
    rep = proves_infeasibility(leaf(), P2)
    assert not rep.proved and rep.witness_leaf == 0
    assert P2.contains(rep.witness_point)

    empty = Polytope(1, (LinearConstraint((1,), LE, 0), LinearConstraint((1,), GE, 1)))
    rep = proves_infeasibility(node(Disjunction((1,), 0), leaf(), leaf()), empty)
    assert rep.proved


def test_solves_examples():
    split = node(Disjunction((1,), 0), leaf(), leaf())
    rep = solves(split, Polytope(1), [1])
    assert rep.solved
    assert {st.status for st in rep.leaves} == {"integral", "bounded"} or all(
        st.status == "integral" for st in rep.leaves
    )

    half = Polytope(1, (LinearConstraint((1,), LE, F(1, 2)),))
    rep = solves(leaf(), half, [1])
    assert not rep.solved and rep.open_leaf == 0

    P2 = gen_cross_polytope(CrossSpec(2))
    t = full_variable_tree(2)
    for c in [(1, 1), (F(-1, 3), 2), (0, 0)]:
        assert solves(t, P2, c).solved  # all atoms empty: condition (i)


def test_solves_finds_integral_optimum_on_degenerate_face():
    # the optimal face {x1 = 1, 0 <= x2 <= 1/2} has a fractional vertex; the
    # checker must still certify the leaf via the integral optimum (1, 0)
    P = Polytope(2, (LinearConstraint((0, 2), LE, 1),))
    rep = solves(leaf(), P, [1, 0])
    assert rep.solved
    assert rep.leaves[0].status == "integral"
    assert rep.leaves[0].witness == (1, 0)


def test_solves_beyond_the_enumeration_cap_defers_to_the_incumbent_bound():
    # Dimension 25, past the 0/1 enumeration cap.  Row x0 + 2 x1 <= 1: the
    # left leaf (x0 <= 0) has the fractional optimum x1 = 1/2, which
    # enumeration cannot check; the right leaf (x0 >= 1) is integral.
    n = 25
    P = Polytope(n, (LinearConstraint((1, 2) + (0,) * (n - 2), LE, 1),))
    t = node(Disjunction((1,) + (0,) * (n - 1), 0), leaf(), leaf())
    c = (1, 1) + (0,) * (n - 2)  # left: 1/2, right: 1 at (1, 0, ...)
    rep = solves(t, P, c)
    assert rep.solved
    assert [st.status for st in rep.leaves] == ["bounded", "integral"]
    assert rep.leaves[0].value == F(1, 2) and rep.leaves[1].value == 1

    # No integral leaf bounds the fractional one: enumeration is still needed.
    c = (-1, 1) + (0,) * (n - 2)  # left: 1/2, right: -1
    with pytest.raises(DimensionTooLarge):
        solves(t, P, c)


def test_p6_replay_pivot_count_is_pinned(monkeypatch):
    # Proving P_6 with the full variable tree makes exactly 768 pivots and
    # cites 448 certificate entries, the same on every run.  Each leaf loads
    # its six branching rows at once (a pool of at most 48 explicit rows is
    # never lazy), so it takes 2 solves; the pin was 2,160 while an oracle
    # made the pool lazy and a leaf added one branching row per solve.
    P = gen_cross_polytope(CrossSpec(6, "oracle"))
    real = _kernel.pivot_update
    for _ in range(2):
        calls = []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(_kernel, "pivot_update", counted)
        rep = proves_infeasibility(full_variable_tree(6), P)
        assert rep.proved
        assert len(calls) == 768
        assert sum(len(cert) for cert in rep.certificates) == 448

    # Loading the pool in full cites the same (row, multiplier) pairs as
    # activating it row by row (the old path); only their order differs.
    calls.clear()
    monkeypatch.setattr(lp, "_LAZY_POOL_MIN", -1)
    lazy = proves_infeasibility(full_variable_tree(6), P)
    assert len(calls) == 2160
    assert [Counter(c) for c in rep.certificates] == [Counter(c) for c in lazy.certificates]


def test_enum_integer_points_through_equality_rows():
    from bblab.families import TspSpec, gen_tsp_subtour

    tours = enum_integer_points(gen_tsp_subtour(TspSpec(4)))
    assert len(tours) == 3  # the Hamiltonian cycles on 4 cities
    for t in tours:
        assert sum(t) == 4


def test_solves_condition_iii_uses_best_integral_leaf():
    # max x over [0,1]: left branch holds the integral optimum, right is bounded
    t = node(Disjunction((1,), 0), leaf(), leaf())
    P = Polytope(1)
    rep = solves(t, P, [-1])  # maximize -x: optimum 0 at the left leaf
    assert rep.solved
    assert rep.leaves[0].status == "integral" and rep.leaves[0].value == 0
    assert rep.leaves[1].status in ("integral", "bounded")


def test_separates_with_oracle_backed_polytope():
    # the hull LP materializes oracle families into explicit rows
    P2 = gen_cross_polytope(CrossSpec(2, "oracle"))
    center = (F(1, 2), F(1, 2))
    assert separates(full_variable_tree(2), P2, center).separated
    assert not separates(leaf(), P2, center).separated


def test_separates_examples():
    P2 = gen_cross_polytope(CrossSpec(2))
    center = (F(1, 2), F(1, 2))
    assert not separates(leaf(), P2, center).separated
    assert separates(full_variable_tree(2), P2, center).separated
    box = Polytope(2)
    split = node(Disjunction((1, 0), 0), leaf(), leaf())
    rep = separates(split, box, center)
    assert not rep.separated and rep.hull.inside
    with pytest.raises(PointNotInP):
        separates(leaf(), P2, (1, 1))


def test_transform_tree_examples():
    flip2 = make_flip(FlipSpec(2, {0, 1}))
    t = node(Disjunction((1, 0), 0), leaf(), leaf())
    out = transform_tree(t, flip2)
    assert out.disjunction == Disjunction((-1, 0), -1)

    assert transform_tree(t, make_flip(FlipSpec(2, frozenset()))) == t

    dup = make_dup(DupSpec(2, (0,)))
    t = node(Disjunction((1, 0, 1), 1), leaf(), leaf())
    out = transform_tree(t, dup)
    assert out.disjunction == Disjunction((2, 0), 1)


def test_transform_tree_degenerate_normal_keeps_size_and_containment():
    # embedding: a disjunction supported on the appended fixed coordinate
    f = make_embed(EmbedSpec(1, 0, 1))  # x -> (x, 1)
    live_left = node(Disjunction((0, 1), 1), full_variable_tree(2), leaf())
    out = transform_tree(live_left, f)
    assert out.size == live_left.size
    # appended coordinate is 1, so "y_2 <= 1" held identically: left side live
    assert out.disjunction == Disjunction((1,), 1)

    live_right = node(Disjunction((0, 1), 0), leaf(), leaf())
    out = transform_tree(live_right, f)
    assert out.disjunction == Disjunction((1,), -1)

    P = Polytope(1, (LinearConstraint((1,), LE, F(2, 3)),))
    Q = apply_map_polytope(f, P)
    for tree_hat in (live_left, live_right):
        tree = transform_tree(tree_hat, f)
        for av, ahat in zip(atoms_of(tree, P), atoms_of(tree_hat, Q)):
            target = ahat.polytope()
            for vx in enum_vertices(av.polytope()):
                assert target.contains(f.apply(vx))


def _subsets(n):
    return st.frozensets(st.integers(0, n - 1), max_size=n)


@st.composite
def _map_from_3d(draw):
    """A chain of one to three flip/embed/dup maps out of dimension 3."""
    f = make_flip(FlipSpec(3, draw(_subsets(3))))
    for kind in draw(st.lists(st.sampled_from(["flip", "embed", "dup"]), max_size=2)):
        n = f.out_dim
        if kind == "flip":
            g = make_flip(FlipSpec(n, draw(_subsets(n))))
        elif kind == "embed":
            zeros, ones = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            pos = draw(st.permutations(range(n + zeros + ones)))
            g = make_embed(EmbedSpec(n, zeros, ones, tuple(pos)))
        else:
            idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
            g = make_dup(DupSpec(n, tuple(idx)))
        f = compose(g, f)
    return f


def _trees(dim, depth):
    if depth == 0:
        return st.just(leaf())
    pi = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    split = st.builds(lambda d, lt, rt: node(d, lt, rt),
                      st.builds(Disjunction, pi, st.integers(-3, 3)),
                      _trees(dim, depth - 1), _trees(dim, depth - 1))
    return st.one_of(st.just(leaf()), split)


_fraction = st.builds(F, st.integers(-3, 3), st.integers(1, 2))
_polytope_3d = st.lists(
    st.builds(lambda coeffs, rhs: LinearConstraint(coeffs, "<=", rhs),
              st.tuples(_fraction, _fraction, _fraction),
              st.builds(F, st.integers(-2, 5), st.integers(1, 2))),
    min_size=1, max_size=4,
).map(lambda rows: Polytope(3, tuple(rows)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(P=_polytope_3d, f=_map_from_3d(), data=st.data())
def test_transform_tree_keeps_size_and_leafwise_containment(P, f, data):
    tree_hat = data.draw(_trees(f.out_dim, 3))
    tree = transform_tree(tree_hat, f)
    assert tree.size == tree_hat.size
    Q = apply_map_polytope(f, P)
    for av, ahat in zip(atoms_of(tree, P), atoms_of(tree_hat, Q), strict=True):
        target = ahat.polytope()
        for vx in enum_vertices(av.polytope()):
            assert target.contains(f.apply(vx))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(P=_polytope_3d, tree=_trees(3, 3), in_cross=st.booleans())
def test_an_infeasibility_proof_leaves_no_integer_point(P, tree, in_cross):
    # P_3 has no 0/1 point but is not empty, so its cuts by random rows give
    # integer-empty polytopes that only a real proof shows empty.
    if in_cross:
        P = gen_cross_polytope(CrossSpec(3)).with_rows(P.rows)
    no_integer_point = brute_integer_points(P) == []
    if proves_infeasibility(tree, P).proved:
        assert no_integer_point
    # each leaf of the variable tree holds one 0/1 point at most, so it is a
    # proof exactly when P has none
    assert proves_infeasibility(full_variable_tree(3), P).proved == no_integer_point


def _random_tree(rng, dim, depth):
    if depth == 0 or rng.random() < 0.4:
        return leaf()
    while True:
        pi = tuple(rng.randint(-2, 2) for _ in range(dim))
        if any(pi):
            break
    return node(Disjunction(pi, rng.randint(-2, 2)),
                _random_tree(rng, dim, depth - 1),
                _random_tree(rng, dim, depth - 1))


def test_monotonicity_of_leaves():
    rng = random.Random(88)
    for _ in range(15):
        n = rng.randint(1, 3)
        base_rows = tuple(
            LinearConstraint(tuple(F(rng.randint(-2, 2)) for _ in range(n)), LE,
                             F(rng.randint(1, 4), 2))
            for _ in range(rng.randint(0, 2))
        )
        P = Polytope(n, base_rows)
        extra = tuple(
            LinearConstraint(tuple(F(rng.randint(-2, 2)) for _ in range(n)), LE,
                             F(rng.randint(0, 3), 2))
            for _ in range(rng.randint(1, 2))
        )
        Q = P.with_rows(extra)
        tree = _random_tree(rng, n, 3)
        for aq, ap in zip(atoms_of(tree, Q), atoms_of(tree, P)):
            qs = {r.normalized() for r in aq.base.rows} | {r.normalized() for r in aq.branching}
            ps = {r.normalized() for r in ap.base.rows} | {r.normalized() for r in ap.branching}
            assert ps <= qs
            for vx in enum_vertices(aq.polytope()):
                assert ap.polytope().contains(vx)


def test_simulation_lemma_small():
    rng = random.Random(321)
    for _ in range(10):
        P = Polytope(2, (LinearConstraint((F(1), F(1)), LE, F(3, 2)),))
        f = compose(make_embed(EmbedSpec(2, 1, 0)), make_flip(FlipSpec(2, {rng.randint(0, 1)})))
        Q = apply_map_polytope(f, P)
        tree_hat = _random_tree(rng, 3, 3)
        tree = transform_tree(tree_hat, f)
        assert tree.size == tree_hat.size
        for av, ahat in zip(atoms_of(tree, P), atoms_of(tree_hat, Q)):
            target = ahat.polytope()
            for vx in enum_vertices(av.polytope()):
                assert target.contains(f.apply(vx))


def test_infeasibility_proof_implies_separates_and_solves():
    P2 = gen_cross_polytope(CrossSpec(2))
    t = full_variable_tree(2)
    assert proves_infeasibility(t, P2).proved
    rng = random.Random(6)
    verts = enum_vertices(P2)
    for _ in range(5):
        w = [F(rng.randint(1, 5)) for _ in verts]
        s = sum(w)
        x = tuple(sum(wi * v[j] for wi, v in zip(w, verts)) / s for j in range(2))
        assert separates(t, P2, x).separated
        c = tuple(F(rng.randint(-3, 3)) for _ in range(2))
        assert solves(t, P2, c).solved


def test_midpoint_property_leaves_admit_at_most_one_integer_point():
    # any proof of P_n infeasibility pins each leaf to <= 1 integer point
    for n in (2, 3):
        P = gen_cross_polytope(CrossSpec(n, "oracle"))
        for tree in (full_variable_tree(n), run_bb(P, MostFractional()).tree):
            rep = proves_infeasibility(tree, P)
            assert rep.proved
            for atom in rep.atoms:
                branch_only = Polytope(P.dim, tuple(atom.branching))
                assert len(enum_integer_points(branch_only)) <= 1
