import random
from fractions import Fraction
from math import gcd

import pytest

from bblab import _kernel, simplex
from bblab.errors import InternalError
from bblab.polytope import EQ, LE

from _oracles import brute_lp, full_tableau_solve


def frac(rng, den=6, lo=-4, hi=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def random_leq_instance(rng, nvars, nrows):
    rows = [[frac(rng) for _ in range(nvars)] for _ in range(nrows)]
    rhs = [frac(rng) for _ in range(nrows)]
    # explicit upper bounds keep the region bounded so the brute oracle applies
    for j in range(nvars):
        rows.append([Fraction(int(t == j)) for t in range(nvars)])
        rhs.append(Fraction(rng.randint(1, 3)))
    return rows, rhs


def test_known_fixed_cases():
    r = simplex.solve(2, [[1, 1], [1, 0]], [LE, LE], [1, Fraction(1, 2)],
                      objective=[1, 1], maximize=True)
    assert r.status == "optimal" and r.value == 1

    r = simplex.solve(1, [[1], [-1]], [LE, LE], [0, -1])
    assert r.status == "infeasible"
    assert r.farkas == (Fraction(1), Fraction(1))
    # an equality row leaves the system without a <=-form certificate
    r = simplex.solve(1, [[1], [1]], [LE, EQ], [0, 1])
    assert r.status == "infeasible" and r.farkas is None

    r = simplex.solve(2, [[1, 1]], [EQ], [1], objective=[0, 1], maximize=True)
    assert r.status == "optimal" and r.value == 1

    r = simplex.solve(1, [], [], [], objective=[1], maximize=True)
    assert r.status == "unbounded"


@pytest.mark.parametrize("nvars,nrows,trials", [(1, 2, 60), (2, 3, 60), (3, 4, 40)])
def test_random_lps_match_vertex_enumeration(nvars, nrows, trials):
    rng = random.Random(1000 * nvars + nrows)
    for _ in range(trials):
        rows, rhs = random_leq_instance(rng, nvars, nrows)
        c = [frac(rng) for _ in range(nvars)]
        got = simplex.solve(nvars, rows, [LE] * len(rows), rhs, objective=c, maximize=True)
        want_status, want_value = brute_lp(nvars, rows, rhs, objective=c)
        assert got.status == want_status
        if want_status == "optimal":
            assert got.value == want_value
            for row, b in zip(rows, rhs):
                assert sum(a * v for a, v in zip(row, got.x)) <= b
            assert all(v >= 0 for v in got.x)


@pytest.mark.parametrize("seed", range(5))
def test_farkas_certificates_are_exact(seed):
    rng = random.Random(9000 + seed)
    found = 0
    while found < 8:
        rows, rhs = random_leq_instance(rng, 2, 4)
        got = simplex.solve(2, rows, [LE] * len(rows), rhs)
        if got.status != "infeasible":
            continue
        found += 1
        u = got.farkas
        assert all(ui >= 0 for ui in u)
        for j in range(2):
            assert sum(u[i] * rows[i][j] for i in range(len(rows))) >= 0
        assert sum(u[i] * rhs[i] for i in range(len(rows))) < 0


def test_equality_rows_and_degenerate_pivots():
    rng = random.Random(7)
    for _ in range(40):
        # x + y + z = 1 simplex slice with random extra cuts and objective
        rows = [[1, 1, 1]]
        rels = [EQ]
        rhs = [Fraction(1)]
        for _ in range(2):
            rows.append([frac(rng) for _ in range(3)])
            rels.append(LE)
            rhs.append(frac(rng, lo=0))
        c = [frac(rng) for _ in range(3)]
        got = simplex.solve(3, rows, rels, rhs, objective=c, maximize=True)
        if got.status == "optimal":
            assert sum(got.x) == 1

    # redundant equalities exercise the drive-out/drop-row path
    r = simplex.solve(2, [[1, 1], [2, 2]], [EQ, EQ], [1, 2],
                      objective=[1, 0], maximize=True)
    assert r.status == "optimal" and r.value == 1


def random_mixed_instance(rng):
    """<= and = rows with rhs of either sign or zero, some zero coefficients,
    and at times a redundant equality: a multiple of an equality row or the
    sum of two.  Zero right-hand sides leave artificials basic at zero, to
    be driven out."""
    nvars = rng.randint(1, 4)
    rows, rels, rhs = [], [], []
    for _ in range(rng.randint(0, 5)):
        rows.append([rng.choice((0, frac(rng))) for _ in range(nvars)])
        rels.append(rng.choice((LE, LE, EQ)))
        rhs.append(rng.choice((0, frac(rng))))
    eqs = [i for i, rel in enumerate(rels) if rel == EQ]
    redundant = bool(eqs) and rng.random() < 0.4
    if redundant:
        i, j = rng.choice(eqs), rng.choice(eqs)
        k = frac(rng, lo=1)
        rows.append([k * a + (b if i != j else 0) for a, b in zip(rows[i], rows[j])])
        rhs.append(k * rhs[i] + (rhs[j] if i != j else 0))
        rels.append(EQ)
    objective = [frac(rng) for _ in range(nvars)] if rng.random() < 0.8 else None
    return nvars, rows, rels, rhs, objective, rng.random() < 0.5, redundant


def test_condensed_tableau_matches_the_full_tableau(monkeypatch):
    # The condensed tableau makes the full tableau's pivots: the same
    # status, point, value, multipliers and number of pivots.
    real = _kernel.pivot_update
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(_kernel, "pivot_update", counted)
    rng = random.Random(20261018)
    seen = set()
    for _ in range(600):
        nvars, rows, rels, rhs, objective, maximize, redundant = random_mixed_instance(rng)
        calls.clear()
        got = simplex.solve(nvars, rows, rels, rhs, objective=objective, maximize=maximize)
        want = full_tableau_solve(nvars, rows, rels, rhs, objective, maximize)
        assert (got.status, got.x, got.value, got.farkas, len(calls)) == want
        seen.add(got.status)
        seen.add((got.status, got.farkas is not None))
        seen.add(("negative rhs", any(b < 0 for b in rhs)))
        seen.add(("redundant", redundant))
    assert seen >= {"optimal", "unbounded", ("infeasible", True), ("infeasible", False),
                    ("negative rhs", True), ("redundant", True)}


def _scaled(rows, rhs, factors):
    return ([[f * a for a in row] for row, f in zip(rows, factors)],
            [f * b for b, f in zip(rhs, factors)])


@pytest.mark.parametrize("seed", range(4))
def test_scaled_and_integer_rows_give_the_same_answer(seed):
    # Rows given as Fractions, as positive rational multiples of themselves,
    # and as all-int rows (the path that builds no Fraction) must produce
    # the same pivots, hence the same status, point and value; multipliers
    # map back through the factors and check exactly against the originals.
    rng = random.Random(4200 + seed)
    infeasible = 0
    for _ in range(40):
        nvars = rng.randint(1, 3)
        rows, rhs = random_leq_instance(rng, nvars, rng.randint(1, 4))
        c = [frac(rng) for _ in range(nvars)]
        m = len(rows)
        ratio = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(m)]
        # per row: the lcm of its denominators times a random int, so the
        # int rows are generally not coprime
        lcm = [1] * m
        for i in range(m):
            for v in list(rows[i]) + [rhs[i]]:
                lcm[i] = lcm[i] * v.denominator // gcd(lcm[i], v.denominator)
            lcm[i] *= rng.randint(1, 5)
        srows, srhs = _scaled(rows, rhs, ratio)
        irows, irhs = _scaled(rows, rhs, lcm)
        irows = [[int(a) for a in row] for row in irows]
        irhs = [int(b) for b in irhs]
        base = simplex.solve(nvars, rows, [LE] * m, rhs, objective=c, maximize=True)
        for r2, b2, f in ((srows, srhs, ratio), (irows, irhs, lcm)):
            got = simplex.solve(nvars, r2, [LE] * m, b2, objective=c, maximize=True)
            assert (got.status, got.x, got.value) == (base.status, base.x, base.value)
            if got.status != "infeasible":
                continue
            u = [ui * fi for ui, fi in zip(got.farkas, f)]
            assert tuple(u) == base.farkas
            assert all(ui >= 0 for ui in u)
            for j in range(nvars):
                assert sum(u[i] * rows[i][j] for i in range(m)) >= 0
            assert sum(u[i] * rhs[i] for i in range(m)) < 0
        infeasible += base.status == "infeasible"
    assert infeasible > 0


def _corrupting(monkeypatch, corrupt):
    real = _kernel.pivot_update

    def pivot_update(rows, r, c, den):
        new_den = real(rows, r, c, den)
        corrupt(rows, r, new_den)
        return new_den

    monkeypatch.setattr(_kernel, "pivot_update", pivot_update)


def test_corrupted_pivot_fails_the_integer_self_check(monkeypatch):
    def bump_pivot_rhs(rows, r, den):
        rows[r][-1] += den  # the entering variable's value goes up by one

    _corrupting(monkeypatch, bump_pivot_rhs)
    with pytest.raises(InternalError, match="violating a constraint"):
        simplex.solve(1, [[1]], [LE], [1], objective=[1], maximize=True)
    with pytest.raises(InternalError, match="violating a constraint"):
        simplex.solve(2, [[Fraction(1, 2), 1], [1, 0]], [LE, LE], [1, Fraction(1, 3)],
                      objective=[1, 1], maximize=True)


def test_corrupted_pivot_fails_the_integer_farkas_check(monkeypatch):
    # The nonbasic columns are x and the second slack, then the rhs; the
    # only pivot hands x's column to the first slack.  The last row is the
    # phase-1 objective, whose slack entries are the multipliers.
    def drop_second_multiplier(rows, r, den):
        rows[-1][1] = 0

    _corrupting(monkeypatch, drop_second_multiplier)
    with pytest.raises(InternalError, match="Farkas"):
        simplex.solve(1, [[1], [-1]], [LE, LE], [0, -1])
