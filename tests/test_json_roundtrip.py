"""Every file format survives a JSON round trip: the object read back equals
the one written, and writing it again gives the same bytes."""

import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bblab.bbtree import BBTree, Disjunction, leaf, node
from bblab.cli import _leaf_witnesses, _make_strategy, _report_json, _write_json
from bblab.families import (
    CrossSpec,
    PackingSpec,
    PerturbedSpec,
    gen_cross_polytope,
    gen_packing_family,
    gen_perturbed_cross,
)
from bblab.maps import AffineMap, DupSpec, EmbedSpec, FlipSpec, compose, make_dup, make_embed, make_flip
from bblab.polytope import LinearConstraint, Polytope, point_to_json
from bblab.search import SearchBudget, run_bb

F = Fraction

_entry = st.one_of(st.integers(-4, 4), st.builds(F, st.integers(-9, 9), st.integers(1, 8)))


@st.composite
def _explicit(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(
        st.builds(LinearConstraint, st.lists(_entry, min_size=n, max_size=n),
                  st.sampled_from(["<=", ">=", "="]), _entry),
        max_size=4,
    ))
    provenance = draw(st.sampled_from([None, {"family": "demo", "n": n}]))
    return Polytope(n, tuple(rows), provenance=provenance)


@st.composite
def _generated(draw):
    kind = draw(st.sampled_from(["cross", "packing", "perturbed"]))
    if kind == "cross":
        return gen_cross_polytope(CrossSpec(draw(st.integers(1, 4)),
                                            draw(st.sampled_from(["explicit", "oracle"]))))
    if kind == "packing":
        return gen_packing_family(PackingSpec(
            draw(st.integers(4, 5)), 2, with_cover=draw(st.booleans()),
            mode=draw(st.sampled_from(["explicit", "oracle"]))))
    return gen_perturbed_cross(PerturbedSpec(draw(st.integers(1, 4)), seed=draw(st.integers(0, 3))))


def _trees(dim, depth):
    if depth == 0:
        return st.just(leaf())
    pi = st.tuples(*[st.integers(-3, 3)] * dim).filter(any)
    split = st.builds(node, st.builds(Disjunction, pi, st.integers(-3, 3)),
                      _trees(dim, depth - 1), _trees(dim, depth - 1))
    return st.one_of(st.just(leaf()), split)


@st.composite
def _maps(draw):
    n = draw(st.integers(1, 3))
    f = make_flip(FlipSpec(n, frozenset(draw(st.sets(st.integers(0, n - 1))))))
    for kind in draw(st.lists(st.sampled_from(["flip", "embed", "dup"]), max_size=2)):
        n = f.out_dim
        if kind == "flip":
            g = make_flip(FlipSpec(n, frozenset(draw(st.sets(st.integers(0, n - 1))))))
        elif kind == "embed":
            zeros, ones = draw(st.integers(0, 1)), draw(st.integers(0, 1))
            g = make_embed(EmbedSpec(n, zeros, ones,
                                     tuple(draw(st.permutations(range(n + zeros + ones))))))
        else:
            g = make_dup(DupSpec(n, tuple(draw(st.lists(st.integers(0, n - 1),
                                                        min_size=1, max_size=2)))))
        f = compose(g, f)
    return f


def _written(obj, path):
    """The bytes the program writes for ``obj``, and the object read back."""
    _write_json(str(path), obj)
    return path.read_bytes(), json.loads(path.read_text())


def _survives(x, from_json, tmp_path):
    first, obj = _written(x.to_json(), tmp_path / "first.json")
    y = from_json(obj)
    again, _ = _written(y.to_json(), tmp_path / "again.json")
    assert y == x and again == first
    return y


@settings(derandomize=True, deadline=None, max_examples=40)
@given(P=st.one_of(_explicit(), _generated()))
def test_polytope_files_round_trip(tmp_path_factory, P):
    Q = _survives(P, Polytope.from_json, tmp_path_factory.mktemp("p"))
    assert Q.provenance == P.provenance


@settings(derandomize=True, deadline=None, max_examples=30)
@given(tree=st.integers(1, 4).flatmap(lambda dim: _trees(dim, 3)), f=_maps())
def test_tree_and_map_files_round_trip(tmp_path_factory, tree, f):
    path = tmp_path_factory.mktemp("t")
    _survives(tree, BBTree.from_json, path)
    _survives(f, AffineMap.from_json, path)


@settings(derandomize=True, deadline=None, max_examples=8)
@given(seed=st.integers(0, 50), objective=st.sampled_from([None, "ones"]))
def test_run_report_files_round_trip(tmp_path_factory, seed, objective):
    # A run report is read back for its leaf witnesses: they must come back
    # as the engine's, and be written again as they were.
    P = gen_packing_family(PackingSpec(4, 2, with_cover=objective is None))
    strategy = _make_strategy({"kind": "random-general", "M": 1, "seed": seed})
    budget = SearchBudget(max_nodes=200)
    rep = run_bb(P, strategy, objective=None if objective is None else (F(1),) * 4,
                 budget=budget)
    path = tmp_path_factory.mktemp("r")
    first, obj = _written(_report_json(rep, strategy, budget), path / "first.json")
    witnesses = _leaf_witnesses(obj, rep.tree.leaf_count)
    assert witnesses == rep.leaf_witnesses() and (objective is None) == (not witnesses)
    rewritten = {str(i): point_to_json(p) for i, p in witnesses.items()}
    again, _ = _written({**obj, "leaf_witnesses": rewritten}, path / "again.json")
    assert again == first
    _survives(rep.tree, BBTree.from_json, path)
