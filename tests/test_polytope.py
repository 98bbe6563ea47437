import json
import random
from fractions import Fraction
from math import gcd

import pytest

from bblab.errors import DimensionMismatch, MalformedInput
from bblab.families import (
    CrossSpec,
    PerturbedSpec,
    TspSpec,
    gen_cross_polytope,
    gen_perturbed_cross,
    gen_tsp_subtour,
)
from bblab.polytope import GE, LE, LinearConstraint, Polytope
from bblab.rationals import clear_denominators, dot, point_to_ints, rat

F = Fraction


# The Fraction definitions of the integer row forms, kept here as the
# reference the integer code must match.

def _fraction_clear_denominators(values):
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


def _fraction_normalized(row):
    if row.rel == ">=":
        coeffs, rhs, rel = tuple(-c for c in row.coeffs), -row.rhs, "<="
    else:
        coeffs, rhs, rel = row.coeffs, row.rhs, row.rel
    ints, _ = _fraction_clear_denominators(list(coeffs) + [rhs])
    if rel == "=":
        lead = next((v for v in ints if v != 0), 0)
        if lead < 0:
            ints = [-v for v in ints]
    return tuple(ints[:-1]), rel, ints[-1]


def _random_entry(rng):
    return rng.choice([0, 0, rng.randint(-6, 6), F(rng.randint(-9, 9), rng.randint(1, 12))])


def _random_rows(rng, count):
    rows = [
        LinearConstraint((0, 0, 0), "=", 0),
        LinearConstraint((0, 0), "=", F(-3, 4)),
        LinearConstraint((F(-2, 3), 0, 4), "=", F(1, 2)),
        LinearConstraint((0, F(-5, 2)), "=", -1),
        LinearConstraint((0, 0), ">=", F(-1, 3)),
    ]
    for _ in range(count):
        n = rng.randint(1, 6)
        rows.append(LinearConstraint(
            tuple(_random_entry(rng) for _ in range(n)),
            rng.choice(["<=", ">=", "="]),
            _random_entry(rng),
        ))
    return rows


def test_clear_denominators_and_point_to_ints_match_fraction_definitions():
    rng = random.Random(71)
    vectors = [[], [0], [0, 0, 0], [3, F(6, 4), -9], [F(-1, 3), 0, F(1, 6)]]
    vectors += [[_random_entry(rng) for _ in range(rng.randint(1, 7))] for _ in range(300)]
    for values in vectors:
        ints, scale = clear_denominators(values)
        assert (ints, scale) == _fraction_clear_denominators(values)
        assert all(type(v) is int for v in ints)
        nums, den = point_to_ints(values)
        assert den > 0 and [F(v, den) for v in nums] == [F(v) for v in values]


def test_normalized_and_int_leq_match_fraction_definitions():
    rng = random.Random(72)
    for row in _random_rows(rng, 300):
        assert row.normalized() == _fraction_normalized(row)
        pairs = row.as_leq()
        assert len(row.int_leq) == len(pairs)
        for (coeffs, rhs, scale), (pair_coeffs, pair_rhs) in zip(row.int_leq, pairs):
            ints, want_scale = _fraction_clear_denominators(list(pair_coeffs) + [pair_rhs])
            assert list(coeffs) + [rhs] == ints and scale == want_scale


def test_satisfied_by_matches_fraction_dot_product():
    rng = random.Random(73)
    seen = set()
    for row in _random_rows(rng, 300):
        for _ in range(4):
            point = tuple(_random_entry(rng) for _ in range(row.dim))
            lhs = dot(row.coeffs, [F(v) for v in point])
            want = {"<=": lhs <= row.rhs, ">=": lhs >= row.rhs, "=": lhs == row.rhs}[row.rel]
            assert row.holds_at(*point_to_ints(point)) == want
            seen.add(want)
    assert seen == {True, False}


def test_constraint_normalization_is_scaling_invariant():
    a = LinearConstraint((F(2, 3), F(-4, 3)), "<=", F(2))
    b = LinearConstraint((F(1), F(-2)), "<=", F(3))
    assert a.normalized() == b.normalized() == ((1, -2), "<=", 3)
    ge = LinearConstraint((F(-1), F(2)), ">=", F(-3))
    assert ge.normalized() == a.normalized()


def test_small_integers_share_one_fraction():
    for v in range(-4, 5):
        assert rat(v) is rat(str(v)) is rat(f"{2 * v}/2") == F(v)
    assert rat(5) == 5 and rat("7/7") is rat(1)
    half = F(1, 2)
    assert rat(half) is half and rat(F(1)) == 1
    row = LinearConstraint((1, -1, 0), "<=", 1)
    assert row.coeffs[0] is row.rhs and row.coeffs[2] is rat(0)
    # the generators pass small integers as ints, so their rows share them
    P = gen_tsp_subtour(TspSpec(5))
    assert {id(v) for r in P.rows for v in (*r.coeffs, r.rhs)} == {id(rat(v)) for v in (0, 1, 2)}
    with pytest.raises(TypeError):
        rat(True)


def test_equality_rows_split_into_two_leq_rows():
    row = LinearConstraint((F(1), F(1)), "=", F(1))
    assert row.as_leq() == [((F(1), F(1)), F(1)), ((F(-1), F(-1)), F(-1))]


def test_polytope_json_roundtrip_explicit():
    P = Polytope(2, (LinearConstraint((F(1, 2), 1), LE, F(3, 2)), LinearConstraint((1, 0), GE, 0)),
                 provenance={"family": "demo"})
    obj = json.loads(json.dumps(P.to_json()))
    Q = Polytope.from_json(obj)
    assert Q.dim == 2 and obj["box"] is True and Q.rows == P.rows
    assert obj["rows"][0]["coeffs"] == ["1/2", "1"]
    assert Q.provenance == {"family": "demo"}


def test_polytope_json_roundtrip_oracle():
    P = gen_cross_polytope(CrossSpec(4, "oracle"))
    Q = Polytope.from_json(json.loads(json.dumps(P.to_json())))
    assert Q.oracle is not None and Q.oracle.family_size() == 16
    x = (F(1, 2),) * 4
    assert Q.contains(x) and not Q.contains((0,) * 4)


def test_polytope_files_lie_in_the_box():
    obj = Polytope(1, (LinearConstraint((1,), LE, F(1, 2)),)).to_json()
    assert obj["box"] is True
    del obj["box"]
    assert Polytope.from_json(obj).to_json()["box"] is True
    for bad in (False, 1, "true", None):
        with pytest.raises(MalformedInput, match=r"^box: must be true or absent"):
            Polytope.from_json({**obj, "box": bad})


def test_row_for_ref_resolves_oracle_rows_of_the_family_only():
    P = gen_cross_polytope(CrossSpec(3, "oracle"))
    row = P.oracle.find_violated((0, 0, 0))
    assert P.row_for_ref(("oracle", row)) == row.as_leq()[0]
    for Q, cited in ((P, LinearConstraint((1, 1, 1), LE, 1)), (Polytope(3), row)):
        with pytest.raises(ValueError, match="cites a row outside the oracle family"):
            Q.row_for_ref(("oracle", cited))


def test_contains_checks_box_rows_and_oracle():
    P = gen_cross_polytope(CrossSpec(3, "oracle"))
    assert P.contains((F(1, 2),) * 3)
    assert not P.contains((F(2), F(0), F(0)))  # outside the box
    assert not P.contains((0, 0, 0))  # cut by the J = [n] row


def test_materialized_expands_oracle_rows_once():
    P = gen_cross_polytope(CrossSpec(3, "oracle"))
    M = P.materialized()
    assert M.oracle is None and len(M.rows) == 8
    E = gen_cross_polytope(CrossSpec(3))
    assert {r.normalized() for r in M.rows} == {r.normalized() for r in E.rows}
    # an explicit family is its own materialization
    Q = gen_perturbed_cross(PerturbedSpec(4, seed=1))
    assert Q.materialized() is Q


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        Polytope(2, (LinearConstraint((1,), LE, 0),))
    with pytest.raises(DimensionMismatch):
        Polytope(1).contains((1, 2))
