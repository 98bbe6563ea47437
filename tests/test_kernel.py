"""Differential checks of the exact kernel against plain Fraction arithmetic."""

import random
from fractions import Fraction

from bblab import _kernel

F = Fraction


def _gauss_jordan(tab, r, c):
    """Rational pivot on (r, c): scale row r to a unit entry, eliminate column c."""
    prow = [v / tab[r][c] for v in tab[r]]
    return [
        prow if i == r else [v - row[c] * p for v, p in zip(row, prow)]
        for i, row in enumerate(tab)
    ]


class _Reference:
    """A condensed tableau's full Fraction tableau: the stored columns, then
    one unit column per row for the implicit basic variable.  ``labels[j]``
    is the full column that condensed column j stands for."""

    def __init__(self, rows):
        m, n = len(rows), len(rows[0])
        self.full = [[F(v) for v in row] + [F(int(i == t)) for t in range(m)]
                     for i, row in enumerate(rows)]
        self.labels = list(range(n))
        self.basis = [n + i for i in range(m)]

    def pivot(self, r, c):
        # The entering column becomes basic; the leaving one takes its place.
        self.full = _gauss_jordan(self.full, r, self.labels[c])
        self.basis[r], self.labels[c] = self.labels[c], self.basis[r]

    def condensed(self):
        return [[row[j] for j in self.labels] for row in self.full]


def _pivot_both(rows, ref, r, c, den):
    """Pivot the int tableau and its reference; check every entry."""
    pivot = rows[r][c]
    den = _kernel.pivot_update(rows, r, c, den)
    ref.pivot(r, c)
    assert den == abs(pivot) > 0  # the new denominator is |pivot|
    assert [[F(v, den) for v in row] for row in rows] == ref.condensed()
    return den


def test_pivot_update_matches_rational_gauss_jordan():
    # Any nonzero entry may be a pivot, a column pivoted before included:
    # it then brings the variable that left back into the basis.
    rng = random.Random(20240501)
    repivots = 0
    for _ in range(60):
        m, n = rng.randint(2, 5), rng.randint(3, 7)
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(m)]
        ref = _Reference(rows)
        den, pivoted = 1, set()
        for _ in range(rng.randint(1, 2 * m)):
            cands = [(r, c) for r in range(m) for c in range(n) if rows[r][c]]
            if not cands:
                break
            r, c = rng.choice(cands)
            repivots += c in pivoted
            pivoted.add(c)
            den = _pivot_both(rows, ref, r, c, den)
    assert repivots > 20


def test_negative_pivots_keep_the_denominator_positive():
    # Pivot only on negative entries, as driving artificials out of a basis
    # can; rows with a zero in the pivot column and a pivot equal to -den
    # take the kernel's shortcut branches.
    rng = random.Random(20240505)
    negative = 0
    for _ in range(80):
        m, n = rng.randint(2, 5), rng.randint(3, 7)
        rows = [[rng.choice((0, 0, rng.randint(-5, 5))) for _ in range(n)] for _ in range(m)]
        rows[0][0] = -rng.randint(1, 3)
        ref = _Reference(rows)
        den = 1
        for _ in range(min(m, n)):
            cands = [(r, c) for r in range(m) for c in range(n) if rows[r][c] < 0]
            if not cands:
                break
            r, c = rng.choice(cands)
            den = _pivot_both(rows, ref, r, c, den)
            negative += 1
    assert negative > 80
    # |pivot| == den: a row with a zero pivot-column entry is left as it is,
    # and the negated pivot row's leaving column holds -den.
    rows = [[-2, 4, 6], [0, 2, -2], [2, 0, 2]]
    assert _kernel.pivot_update(rows, 0, 0, 2) == 2
    assert rows == [[-2, -4, -6], [0, 2, -2], [2, 4, 8]]


def test_violated_indices_matches_direct_evaluation():
    rng = random.Random(20240502)
    for _ in range(200):
        n = rng.randint(1, 8)
        introws = [
            [rng.randint(-5, 5) for _ in range(n + 1)] for _ in range(rng.randint(0, 12))
        ]
        den = rng.randint(1, 9)
        nums = [rng.choice((0, rng.randint(-20, 20))) for _ in range(n)]
        point = [F(v, den) for v in nums]
        expected = [
            i for i, row in enumerate(introws)
            if sum(a * x for a, x in zip(row, point)) > row[n]
        ]
        assert _kernel.violated_indices(introws, nums, den) == expected


def _first_violated(introws, mask):
    n = len(introws[0]) - 1 if introws else 0
    x = [(mask >> j) & 1 for j in range(n)]
    for i, row in enumerate(introws):
        if sum(a * v for a, v in zip(row, x)) > row[n]:
            return i
    return -1


def test_first_violated_mask_matches_direct_evaluation():
    rng = random.Random(20240503)
    for _ in range(200):
        n = rng.randint(1, 10)
        introws = [
            [rng.randint(-3, 3) for _ in range(n)] + [rng.randint(-2, 4)]
            for _ in range(rng.randint(0, 8))
        ]
        mask = rng.getrandbits(n)
        assert _kernel.first_violated_mask(introws, mask) == _first_violated(introws, mask)


def test_first_violated_mask_beyond_64_coordinates():
    n = 70
    # x_65 + x_69 <= 1 is violated only through coordinates past bit 63
    high = [0] * n + [1]
    high[65] = high[69] = 1
    low = [1] * 64 + [0] * (n - 64) + [64]  # satisfied at every 0/1 point
    introws = [low, high]
    for mask, expected in (((1 << 65) | (1 << 69) | 0b1011, 1), (1 << 65, -1)):
        assert _kernel.first_violated_mask(introws, mask) == expected
        assert _first_violated(introws, mask) == expected
    rng = random.Random(20240504)
    for _ in range(50):
        introws = [
            [rng.randint(-2, 2) for _ in range(n)] + [rng.randint(0, 6)] for _ in range(6)
        ]
        mask = rng.getrandbits(n) | (1 << rng.randint(64, n - 1))
        assert _kernel.first_violated_mask(introws, mask) == _first_violated(introws, mask)
