import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from bblab.checkers import enum_integer_points
from bblab.errors import SpecViolation, TooLarge, TooLargeForExplicit
from bblab.families import (
    CrossSpec,
    PackingSpec,
    PerturbedSpec,
    TspSpec,
    cross_row,
    gen_cross_polytope,
    gen_packing_family,
    gen_perturbed_cross,
    gen_set_cover,
    gen_tsp_subtour,
    tsp_edges,
    _noise_row,
)
from bblab.lp import lp_optimize
from bblab.polytope import Polytope
from bblab.rationals import dot, point_to_ints

from _oracles import (
    assert_same_row,
    fraction_cover_rows,
    fraction_cross_rows,
    fraction_packing_rows,
    fraction_perturbed_rows,
    fraction_tsp_rows,
)

F = Fraction
HALF = F(1, 2)


def test_cross_polytope_n1_rows_and_feasible_set():
    P = gen_cross_polytope(CrossSpec(1))
    assert len(P.rows) == 2
    assert {r.normalized() for r in P.rows} == {
        cross_row(1, 0).normalized(),
        cross_row(1, 1).normalized(),
    }
    assert lp_optimize(P, [1], "min").value == HALF
    assert lp_optimize(P, [1], "max").value == HALF


def test_cross_oracle_examples():
    for n in (2, 4):
        oracle = gen_cross_polytope(CrossSpec(n, "oracle")).oracle
        row = oracle.find_violated((F(0),) * n)
        assert row is not None
        assert row.normalized() == cross_row(n, 2 ** n - 1).normalized()
        assert oracle.find_violated((HALF,) * n) is None


def test_cross_oracle_returns_minimum_row_exhaustively():
    n = 6
    oracle = gen_cross_polytope(CrossSpec(n, "oracle")).oracle

    def unshifted_lhs(mask, x):
        return sum(
            (x[i] if mask >> i & 1 else 1 - x[i] for i in range(n)), F(0)
        )

    rng = random.Random(17)
    for _ in range(12):
        x = tuple(F(rng.randint(0, 8), 8) for _ in range(n))
        chosen_mask = sum(1 << i for i, v in enumerate(x) if v <= HALF)
        chosen = unshifted_lhs(chosen_mask, x)
        for mask in range(2 ** n):
            assert chosen <= unshifted_lhs(mask, x)
        got = oracle.find_violated(x)
        assert (got is not None) == (chosen < HALF)
        if got is not None:
            assert not got.holds_at(*point_to_ints(x))


def test_cross_explicit_size_guard():
    with pytest.raises(TooLargeForExplicit):
        CrossSpec(17)


def test_packing_family_examples():
    P = gen_packing_family(PackingSpec(4, 2))
    assert len(P.rows) == 6
    Q = gen_packing_family(PackingSpec(4, 2, with_cover=True))
    assert Q.contains((HALF,) * 4)
    assert enum_integer_points(Q) == []
    with pytest.raises(SpecViolation):
        PackingSpec(4, 3)


def test_packing_oracle_most_violated():
    spec = PackingSpec(6, 2, mode="oracle")
    P = gen_packing_family(spec)
    x = (F(1), F(3, 4), F(1, 4), 0, 0, 0)
    row = P.oracle.find_violated(x)
    assert row is not None and dot(row.coeffs, x) == F(7, 4)
    assert [c for c in row.coeffs] == [1, 1, 0, 0, 0, 0]
    assert P.oracle.find_violated((F(1, 4),) * 6) is None


def test_set_cover_examples():
    C = gen_set_cover(4, 2)
    assert len(C.rows) == 6
    assert C.contains((1, 1, 1, 1))
    expected = {tuple(int(i in S) for i in range(4)) for S in combinations(range(4), 2)}
    got = {tuple(int(v != 0) for v in r.coeffs) for r in C.rows}
    assert got == expected


def test_perturbed_determinism_and_exact_fields():
    a = gen_perturbed_cross(PerturbedSpec(4, seed=9))
    b = gen_perturbed_cross(PerturbedSpec(4, seed=9))
    assert a.to_json() == b.to_json()
    c = gen_perturbed_cross(PerturbedSpec(4, seed=10))
    assert a.to_json() != c.to_json()
    assert len(a.rows) == 16
    assert PerturbedSpec(4, seed=9).rhs == F(8, 25)
    assert a.provenance["sigma"] == "1/20"
    assert a.provenance["rounding_denom"] == 2 ** 20
    for mask in range(16):
        row = a.rows[mask]
        assert row.rhs == F(8, 25) - (4 - bin(mask).count("1"))
        for coeff in row.coeffs:
            assert (coeff.denominator & (coeff.denominator - 1)) == 0  # divides 2^20
            assert coeff.denominator <= 2 ** 20
    with pytest.raises(TooLarge):
        PerturbedSpec(17, seed=0)


def test_generators_equal_their_fraction_builds_row_for_row():
    cases = []
    for n in range(1, 7):
        cases.append((gen_cross_polytope(CrossSpec(n)).rows, fraction_cross_rows(n)))
        oracle = gen_cross_polytope(CrossSpec(n, "oracle")).oracle
        cases.append((oracle.explicit_rows(), fraction_cross_rows(n)))
    for n in range(4, 8):
        for k in range(2, n // 2 + 1):
            for cover in (False, True):
                P = gen_packing_family(PackingSpec(n, k, with_cover=cover))
                cases.append((P.rows, fraction_packing_rows(n, k, cover)))
            cases.append((gen_set_cover(n, k).rows, fraction_cover_rows(n, k)))
    for cities in range(3, 8):
        cases.append((gen_tsp_subtour(TspSpec(cities)).rows, fraction_tsp_rows(cities)))
    for n, seed in ((1, 5), (3, 0), (8, 0), (8, 1001)):
        P = gen_perturbed_cross(PerturbedSpec(n, seed=seed))
        cases.append((P.rows, fraction_perturbed_rows(n, seed)))
    for rows, refs in cases:
        assert len(rows) == len(refs)
        for row, ref in zip(rows, refs):
            assert_same_row(row, ref)


def test_perturbed_instance_is_pinned():
    # The n = 12, seed 0 instance of acceptance criterion 8.  Files written by
    # the all-Fraction generator that the integer-grid one replaced carried
    # "oracle": null; with that key put back, the digest is theirs.
    Q = gen_perturbed_cross(PerturbedSpec(12, seed=0))
    obj = Q.to_json()
    assert "oracle" not in obj

    def digest(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    assert digest(obj) == "e011bd342baf997d1b802f9c95530ac47237ef68d84d431fdfabf4011a45be2a"
    assert digest({**obj, "oracle": None}) == (
        "42f3db5c29c3a174ec87cfb08b37bb6b455360232140dce23af8411376fd56dc"
    )


def test_perturbed_file_with_null_oracle_still_loads():
    Q = gen_perturbed_cross(PerturbedSpec(5, seed=4))
    old_file = json.loads(json.dumps({**Q.to_json(), "oracle": None}))
    P = Polytope.from_json(old_file)
    assert P == Q and P.oracle is None
    assert P.to_json() == Q.to_json()


def test_perturbed_coefficients_are_one_plus_gaussian_noise():
    for spec in (PerturbedSpec(4, seed=2), PerturbedSpec(4, seed=7, sigma=F(1, 3))):
        P = gen_perturbed_cross(spec)
        for mask, row in enumerate(P.rows):
            noise = _noise_row(spec.seed, float(spec.sigma), spec.denom, mask, spec.n)
            for i, coeff in enumerate(row.coeffs):
                sign = 1 if mask >> i & 1 else -1
                assert coeff == sign * (1 + F(noise[i], spec.denom))


def test_perturbed_coefficients_near_unperturbed_values():
    P = gen_perturbed_cross(PerturbedSpec(8, seed=3))
    for mask in (0, 17, 255):
        row = P.rows[mask]
        for i, coeff in enumerate(row.coeffs):
            sign = 1 if mask >> i & 1 else -1
            assert abs(coeff - sign) < F(1, 2)  # noise sd is 1/20


def _tour_point(n, order):
    """Incidence vector of the Hamiltonian cycle visiting ``order``."""
    eidx = {e: t for t, e in enumerate(tsp_edges(n))}
    x = [0] * len(eidx)
    for a, b in zip(order, order[1:] + order[:1]):
        x[eidx[(min(a, b), max(a, b))]] = 1
    return tuple(x)


def test_tsp_generator_examples():
    T = gen_tsp_subtour(TspSpec(4))
    assert T.dim == 6
    eqs = [r for r in T.rows if r.rel == "="]
    subtours = [r for r in T.rows if r.rel == ">="]
    assert len(eqs) == 4 and len(subtours) == 3

    T5 = gen_tsp_subtour(TspSpec(5))
    assert T5.contains(_tour_point(5, [0, 2, 4, 1, 3]))

    T6 = gen_tsp_subtour(TspSpec(6))
    x = [F(0)] * T6.dim
    eidx = {e: i for i, e in enumerate(tsp_edges(6))}
    for tri in ((0, 1, 2), (3, 4, 5)):
        for u, v in combinations(tri, 2):
            x[eidx[(u, v)]] = F(2, 3)
    x = tuple(x)
    assert not T6.contains(x)
    w_row = next(
        r for r in T6.rows
        if r.rel == ">=" and {i for i, c in enumerate(r.coeffs) if c != 0}
        == {eidx[e] for e in eidx if (e[0] in (0, 1, 2)) != (e[1] in (0, 1, 2))}
    )
    assert dot(w_row.coeffs, x) == 0


def test_tsp_subtour_row_count_is_symmetry_deduplicated():
    for n in (5, 6):
        T = gen_tsp_subtour(TspSpec(n))
        want = sum(comb(n - 1, size - 1) for size in range(2, n - 1))
        assert sum(1 for r in T.rows if r.rel == ">=") == want


def test_generated_files_carry_provenance():
    cases = [
        gen_cross_polytope(CrossSpec(3)),
        gen_packing_family(PackingSpec(4, 2)),
        gen_set_cover(4, 2),
        gen_perturbed_cross(PerturbedSpec(3, seed=0)),
        gen_tsp_subtour(TspSpec(4)),
    ]
    for P in cases:
        assert P.provenance and "family" in P.provenance
        assert "provenance" in P.to_json()
