"""Inner loops of the exact kernel: tableau pivots and row-violation scans.

All arithmetic is on Python ints, so every result is exact.  The cost is
dominated by big-integer arithmetic, which a compiled loop does not remove.
"""

# Recorded in benchmark output as the kernel that produced the numbers.
IMPLEMENTATION = "python"


def pivot_update(rows, r, c, den):
    """One integer-preserving pivot on entry (r, c) of a condensed tableau.

    ``rows`` is a list of equal-length int lists standing for tableau/den
    with den > 0.  As in D. Avis's *lrs*, a condensed tableau stores only
    the nonbasic columns: row i's basic column is implicit, den in row i
    and 0 elsewhere.  Every column j != c of every row except r becomes
    (old * pivot - old_c * pivot_row[j]) // den, an exact division (Edmonds
    1967).  Column c then holds the leaving variable's column: den in row
    r and -old_c in each other row.  A negative pivot row is first negated,
    that den included, so the leaving column holds -den and +old_c: every
    row then stands for the same rationals over the positive denominator
    |pivot|, which is returned.
    """
    prow = rows[r]
    piv = prow[c]
    prow[c] = den
    if piv < 0:
        prow[:] = [-v for v in prow]
        piv = -piv
    for i in range(len(rows)):
        if i == r:
            continue
        row = rows[i]
        f = row[c]
        if f == 0:
            if piv != den:
                row[:] = [v * piv // den for v in row]
        else:
            row[c] = 0
            row[:] = [(v * piv - f * p) // den for v, p in zip(row, prow)]
    return piv


def violated_indices(introws, nums, den):
    """Indices of integerized <=-rows violated at the point nums/den.

    Each row is a list of n coefficients followed by the rhs; the point is
    given as integer numerators over a positive common denominator.
    """
    out = []
    n = len(nums)
    for idx in range(len(introws)):
        row = introws[idx]
        s = 0
        for j in range(n):
            v = nums[j]
            if v:
                s += row[j] * v
        if s > row[n] * den:
            out.append(idx)
    return out


def first_violated_mask(introws, mask):
    """First integerized <=-row violated at the 0/1 point given as a bitmask."""
    for idx in range(len(introws)):
        row = introws[idx]
        s = 0
        m = mask
        j = 0
        while m:
            if m & 1:
                s += row[j]
            m >>= 1
            j += 1
        if s > row[len(row) - 1]:
            return idx
    return -1
