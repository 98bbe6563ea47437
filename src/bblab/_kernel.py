"""Inner loops of the exact kernel: tableau pivots and row-violation scans.

All arithmetic is on Python ints, so every result is exact.  The cost is
dominated by big-integer arithmetic, which a compiled loop does not remove.
"""

# Recorded in benchmark output as the kernel that produced the numbers.
IMPLEMENTATION = "python"


def pivot_update(rows, r, c, den):
    """One integer-preserving pivot on entry (r, c) of an integer tableau.

    ``rows`` is a list of equal-length int lists representing tableau/den
    with den > 0; every row except the pivot row is updated in place via
    new = (old * pivot - old_c * pivot_row) // den, which is an exact
    division.  A negative pivot entry is first negated with its whole row,
    which negates every updated row too: each row then stands for the same
    rationals over the positive denominator |pivot|, which is returned.
    """
    prow = rows[r]
    ncols = len(prow)
    if prow[c] < 0:
        for j in range(ncols):
            prow[j] = -prow[j]
    piv = prow[c]
    for i in range(len(rows)):
        if i == r:
            continue
        row = rows[i]
        f = row[c]
        if f == 0:
            if piv != den:
                for j in range(ncols):
                    row[j] = row[j] * piv // den
        else:
            for j in range(ncols):
                row[j] = (row[j] * piv - f * prow[j]) // den
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
