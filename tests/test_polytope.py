import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bblab.errors import DimensionMismatch, MalformedInput
from bblab.families import (
    CrossSpec,
    PerturbedSpec,
    gen_cross_polytope,
    gen_perturbed_cross,
)
from bblab.polytope import GE, LE, LinearConstraint, Polytope
from bblab.rationals import clear_denominators, dot, point_to_ints, rat

from _oracles import FractionConstraint, assert_same_row, fraction_clear_denominators

F = Fraction


# The Fraction definitions of the integer row forms, kept as the reference
# the integer code must match.

def _fraction_normalized(row):
    if row.rel == ">=":
        coeffs, rhs, rel = tuple(-c for c in row.coeffs), -row.rhs, "<="
    else:
        coeffs, rhs, rel = row.coeffs, row.rhs, row.rel
    ints, _ = fraction_clear_denominators(list(coeffs) + [rhs])
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
        assert (ints, scale) == fraction_clear_denominators(values)
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
            ints, want_scale = fraction_clear_denominators(list(pair_coeffs) + [pair_rhs])
            assert list(coeffs) + [rhs] == ints and scale == want_scale


_entries = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
)


@st.composite
def _row_data(draw):
    n = draw(st.integers(1, 6))
    coeffs = tuple(draw(st.lists(_entries, min_size=n, max_size=n)))
    return coeffs, draw(st.sampled_from(["<=", ">=", "="])), draw(_entries)


@settings(derandomize=True, deadline=None, max_examples=120)
@given(a=_row_data(), b=_row_data(),
       k=st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6).filter(bool))
def test_integer_rows_match_the_fraction_rows(a, b, k):
    row, ref = LinearConstraint(*a), FractionConstraint(*a)
    assert_same_row(row, ref)
    # the same data as strings, and as the ints of its <= form
    coeffs, rel, rhs = a
    assert LinearConstraint([str(v) for v in coeffs], rel, str(rhs)) == row
    ints, b_int, scale = row.int_leq[0]
    sign = -1 if rel == GE else 1
    for m in (1, 3):  # the ints need not be coprime
        from_ints = LinearConstraint.from_ints([m * sign * v for v in ints], rel,
                                               m * sign * b_int, m * scale)
        assert from_ints == row and from_ints.int_leq == row.int_leq
    # equality and hash agree with the Fraction rows on other rows too:
    # another row, the row scaled by k, and its opposite relation
    others = [b, (tuple(k * v for v in coeffs), rel, k * rhs),
              (tuple(-v for v in coeffs), {"<=": ">=", ">=": "<=", "=": "="}[rel], -rhs)]
    for other in others:
        got, want = LinearConstraint(*other), FractionConstraint(*other)
        assert (got == row) == (want == ref) and (got != row) == (want != ref)
        if got == row:
            assert hash(got) == hash(row)


def test_rows_are_immutable():
    row = LinearConstraint((1, 2), LE, 3)
    for name in ("rel", "int_leq", "coeffs"):
        with pytest.raises(AttributeError):
            setattr(row, name, None)
    assert row == LinearConstraint((F(1), F(2)), LE, F(3)) and row != (1, 2)


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


def test_rat_reads_ints_strings_and_fractions():
    for v in range(-4, 5):
        assert rat(v) == rat(str(v)) == rat(f"{2 * v}/2") == F(v)
        assert type(rat(v)) is F and type(rat(str(v))) is F
    assert rat("7/7") == 1 and rat(" -3/6 ") == F(-1, 2)
    half = F(1, 2)
    assert rat(half) is half
    for bad in (True, 0.5, None):
        with pytest.raises(TypeError):
            rat(bad)


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
