import json
import random
from fractions import Fraction

import pytest

from bblab.checkers import enum_integer_points
from bblab.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidPermutation,
    MalformedInput,
    NonCanonicalMap,
)
from bblab.families import PackingSpec, gen_packing_family, gen_set_cover
from bblab.maps import (
    AffineMap,
    DupSpec,
    EmbedSpec,
    FlipSpec,
    apply_map_polytope,
    compose,
    make_dup,
    make_embed,
    make_flip,
)
from bblab.polytope import LE, LinearConstraint, Polytope

F = Fraction


def test_make_flip_examples():
    f = make_flip(FlipSpec(2, {1}))
    assert f.C == ((1, 0), (0, -1)) and f.d == (0, 1)
    assert f.apply((F(1, 2), F(1, 4))) == (F(1, 2), F(3, 4))
    assert make_flip(FlipSpec(3, set())).apply((F(1), F(0), F(1, 3))) == (1, 0, F(1, 3))
    assert make_flip(FlipSpec(3, {0, 1, 2})).apply((0, 0, 0)) == (1, 1, 1)


def test_make_embed_examples():
    f = make_embed(EmbedSpec(1, 1, 1))
    assert f.apply((F(1, 3),)) == (F(1, 3), 0, 1)
    assert make_embed(EmbedSpec(2, 0, 0)).apply((F(1), F(2, 3))) == (1, F(2, 3))
    f = make_embed(EmbedSpec(2, 0, 1, positions=(1, 2, 0)))
    assert f.apply((F(1, 5), F(2, 5))) == (1, F(1, 5), F(2, 5))
    with pytest.raises(InvalidPermutation):
        EmbedSpec(1, 1, 0, positions=(0, 0))


def test_make_dup_examples():
    assert make_dup(DupSpec(2, (0,))).apply((F(1, 3), F(1))) == (F(1, 3), 1, F(1, 3))
    assert make_dup(DupSpec(2, ())).apply((1, 0)) == (1, 0)
    assert make_dup(DupSpec(2, (1, 1))).apply((F(0), F(3, 4))) == (0, F(3, 4), F(3, 4), F(3, 4))
    with pytest.raises(IndexOutOfRange):
        DupSpec(2, (2,))


def test_compose_examples():
    f = make_flip(FlipSpec(2, {0}))
    assert compose(make_flip(FlipSpec(2, frozenset())), f).C == f.C
    double = compose(make_flip(FlipSpec(3, {0, 1, 2})), make_flip(FlipSpec(3, {0, 1, 2})))
    assert double.apply((F(1, 7), F(2, 7), F(3, 7))) == (F(1, 7), F(2, 7), F(3, 7))
    g = compose(make_embed(EmbedSpec(1, 1, 0)), make_flip(FlipSpec(1, {0})))
    assert g.apply((F(1, 4),)) == (F(3, 4), 0)
    with pytest.raises(DimensionMismatch):
        compose(make_flip(FlipSpec(3, set())), make_embed(EmbedSpec(1, 1, 0)))


def test_apply_map_polytope_flip_gives_set_cover():
    packing = gen_packing_family(PackingSpec(4, 2))
    image = apply_map_polytope(make_flip(FlipSpec(4, {0, 1, 2, 3})), packing)
    cover = gen_set_cover(4, 2)
    assert [r.normalized() for r in image.rows] == [r.normalized() for r in cover.rows]


def test_apply_map_polytope_identity_and_dup():
    P = Polytope(1, (LinearConstraint((1,), LE, F(1, 2)),))
    assert apply_map_polytope(make_flip(FlipSpec(1, frozenset())), P).rows == P.rows
    image = apply_map_polytope(make_dup(DupSpec(1, (0,))), Polytope(1))
    assert image.dim == 2
    assert image.contains((F(1, 3), F(1, 3)))
    assert not image.contains((F(1, 3), F(2, 3)))


def test_in_memory_maps_refuse_non_integer_entries():
    # non-integers are refused, not truncated to C=((1, 0),), d=(1,);
    # indices=(0,); positions=(1, 0)
    for build in (lambda: AffineMap(((F(3, 2), 0.9),), (True,)),
                  lambda: DupSpec(2, (0.7,)),
                  lambda: EmbedSpec(1, 0, 1, (1.2, 0))):
        with pytest.raises(TypeError, match="not an integer"):
            build()


def test_apply_map_polytope_rejects_raw_maps():
    raw = AffineMap(((1, 1),), (0,))
    with pytest.raises(NonCanonicalMap):
        apply_map_polytope(raw, Polytope(2))


def _random_chain(rng, n):
    f = make_flip(FlipSpec(n, {i for i in range(n) if rng.random() < 0.5}))
    for _ in range(rng.randint(0, 2)):
        m = f.out_dim
        kind = rng.choice(["flip", "embed", "dup"])
        if kind == "flip":
            g = make_flip(FlipSpec(m, {i for i in range(m) if rng.random() < 0.5}))
        elif kind == "embed":
            g = make_embed(EmbedSpec(m, rng.randint(0, 1), rng.randint(0, 1)))
        else:
            g = make_dup(DupSpec(m, tuple(rng.sample(range(m), rng.randint(1, min(2, m))))))
        f = compose(g, f)
    return f


def test_membership_transfers_through_images():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 3)
        rows = tuple(
            LinearConstraint(tuple(F(rng.randint(-2, 2)) for _ in range(n)), LE,
                             F(rng.randint(0, 3), 2))
            for _ in range(rng.randint(1, 3))
        )
        P = Polytope(n, rows)
        f = _random_chain(rng, n)
        image = apply_map_polytope(f, P)
        x = tuple(F(rng.randint(0, 4), 4) for _ in range(n))
        assert image.contains(f.apply(x)) == P.contains(x)
        assert all(isinstance(v, int) for row in f.C for v in row)
        assert all(isinstance(v, int) for v in f.d)


def test_images_preserve_integer_point_count():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.randint(1, 3)
        rows = tuple(
            LinearConstraint(tuple(F(rng.randint(-1, 2)) for _ in range(n)), LE,
                             F(rng.randint(0, 2)))
            for _ in range(rng.randint(0, 2))
        )
        P = Polytope(n, rows)
        f = _random_chain(rng, n)
        image = apply_map_polytope(f, P)
        src = enum_integer_points(P)
        dst = enum_integer_points(image)
        assert len(src) == len(dst)
        assert {f.apply(p) for p in src} == {tuple(map(F, q)) for q in dst}


def test_map_json_roundtrip():
    f = compose(make_dup(DupSpec(2, (1,))), make_flip(FlipSpec(2, {0})))
    g = AffineMap.from_json(json.loads(json.dumps(f.to_json())))
    assert g.C == f.C and g.d == f.d and g.kind == "compose"
    P = Polytope(2, (LinearConstraint((1, 1), LE, F(3, 2)),))
    assert [r.normalized() for r in apply_map_polytope(g, P).rows] == [
        r.normalized() for r in apply_map_polytope(f, P).rows
    ]


def test_malformed_map_files_name_the_field():
    good = json.loads(json.dumps(
        compose(make_embed(EmbedSpec(2, 1, 0)), make_flip(FlipSpec(2, {0}))).to_json()))
    flip = good["spec"]["inner"]
    embed = good["spec"]["outer"]
    dup = make_dup(DupSpec(2, (1,))).to_json()
    cases = [
        ({"C": [[1.7, 0], [0, 1]], "d": ["0", "1"]}, "C[0][0]"),
        ({"C": [["1", "0"], ["0", "1"]], "d": ["0", True]}, "d[1]"),
        ({"d": ["0"]}, "C"),
        ({"C": [["1"]]}, "d"),
        ({"C": 5, "d": []}, "C"),
        ({"C": ["1"], "d": ["0"]}, "C[0]"),
        ({"C": [["1/2"]], "d": ["0"]}, "C[0][0]"),
        ([], "map"),
        ({**flip, "kind": "rotate"}, "kind"),
        ({**flip, "spec": None}, "spec"),
        ({**flip, "spec": {**flip["spec"], "n": 2.0}}, "spec.n"),
        ({**flip, "spec": {"J": [0]}}, "spec.n"),
        ({**flip, "spec": {**flip["spec"], "J": ["0", False]}}, "spec.J[1]"),
        ({**embed, "spec": {**embed["spec"], "zeros": "one"}}, "spec.zeros"),
        ({**embed, "spec": {**embed["spec"], "positions": [0, 1, 2.5]}}, "spec.positions[2]"),
        ({**dup, "spec": {**dup["spec"], "tuple": "1"}}, "spec.tuple"),
        ({**good, "spec": {**good["spec"], "inner": {**flip, "d": [0, 0.5]}}},
         "spec.inner.d[1]"),
        ({**good, "spec": {"inner": flip}}, "spec.outer"),
    ]
    for obj, field in cases:
        with pytest.raises(MalformedInput) as err:
            AffineMap.from_json(obj)
        assert str(err.value).startswith(f"{field}: "), (field, str(err.value))
    assert AffineMap.from_json(good) == compose(make_embed(EmbedSpec(2, 1, 0)),
                                                make_flip(FlipSpec(2, {0})))
