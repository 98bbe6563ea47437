"""Independent correctness references.  Nothing here imports bblab.

Each check reads the program's inputs and outputs as plain data (row
coefficients, multipliers, tree disjunctions, points) and re-derives the
verdict with its own exact arithmetic.  A check returns a list of problems;
an empty list means the verdict is confirmed.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import comb, gcd

HALF = Fraction(1, 2)


# ------------------------------------------------------------ trees

def leaf_rows(tree):
    """<=-form branching rows (coeffs, rhs) of each leaf, left to right.

    ``tree`` is read through its public fields only: ``disjunction`` (None
    at a leaf) with ``pi`` and ``pi0``, and ``left`` / ``right``.
    """
    out = []
    stack = [(tree, ())]
    while stack:
        t, rows = stack.pop()
        if t.disjunction is None:
            out.append(rows)
            continue
        pi = tuple(Fraction(v) for v in t.disjunction.pi)
        pi0 = Fraction(t.disjunction.pi0)
        # Push right first so leaves come out in left-to-right order.
        stack.append((t.right, rows + ((tuple(-v for v in pi), -(pi0 + 1)),)))
        stack.append((t.left, rows + ((pi, pi0),)))
    return out


def tree_size(tree):
    size, stack = 0, [tree]
    while stack:
        t = stack.pop()
        size += 1
        if t.disjunction is not None:
            stack.extend((t.left, t.right))
    return size


# ------------------------------------------------------------ Farkas audit

def as_leq(coeffs, rel, rhs):
    """A row ``coeffs rel rhs`` with rel '<=' or '>=' in <=-form."""
    coeffs = tuple(Fraction(c) for c in coeffs)
    rhs = Fraction(rhs)
    if rel == "<=":
        return coeffs, rhs
    if rel == ">=":
        return tuple(-c for c in coeffs), -rhs
    raise ValueError(f"relation {rel!r} has no single <=-form")


def is_cross_row(con, n):
    """Is ``con`` a positive multiple of a cross-polytope row
    sum_J x + sum_notJ (1 - x) >= 1/2?"""
    coeffs = tuple(Fraction(c) for c in con.coeffs)
    if len(coeffs) != n or con.rel != ">=" or not coeffs or coeffs[0] == 0:
        return False
    m = abs(coeffs[0])
    if any(c not in (m, -m) for c in coeffs):
        return False
    return Fraction(con.rhs) == m * (HALF - sum(1 for c in coeffs if c < 0))


def audit_farkas(cert, n, base_rows, branch_rows, oracle_row_ok=None):
    """Exact audit of one leaf certificate: y >= 0, sum y.a = 0, sum y.b < 0.

    ``base_rows`` are the polytope's explicit rows in <=-form, followed in
    row numbering by ``branch_rows``; the [0,1]^n box rows are implied.
    Oracle rows are accepted only when ``oracle_row_ok`` vouches for them.
    """
    rows = list(base_rows) + list(branch_rows)
    combo = [Fraction(0)] * n
    total = Fraction(0)
    for ref, mult in cert:
        mult = Fraction(mult)
        if mult < 0:
            return [f"negative multiplier on {ref!r}"]
        kind = ref[0]
        if kind == "row" and len(ref) == 2 and 0 <= ref[1] < len(rows):
            coeffs, b = rows[ref[1]]
        elif kind in ("box_hi", "box_lo") and 0 <= ref[1] < n:
            sign = 1 if kind == "box_hi" else -1
            coeffs = tuple(Fraction(sign * (t == ref[1])) for t in range(n))
            b = Fraction(1 if kind == "box_hi" else 0)
        elif kind == "oracle" and oracle_row_ok is not None and oracle_row_ok(ref[1]):
            coeffs, b = as_leq(ref[1].coeffs, ref[1].rel, ref[1].rhs)
        else:
            return [f"certificate cites an unknown row {ref!r}"]
        for j in range(n):
            combo[j] += mult * coeffs[j]
        total += mult * b
    if any(v != 0 for v in combo):
        return ["multipliers do not cancel the variables"]
    if total >= 0:
        return ["combined right-hand side is not negative"]
    return []


def audit_tree_proof(report, tree, n, base_rows, oracle_row_ok=None):
    """Every leaf of ``tree`` has a valid certificate in ``report``."""
    leaves = leaf_rows(tree)
    certs = report.certificates or []
    if not report.proved or len(certs) != len(leaves):
        return [f"{len(certs)} certificates for {len(leaves)} leaves"]
    for i, (cert, rows) in enumerate(zip(certs, leaves)):
        problems = audit_farkas(cert, n, base_rows, rows, oracle_row_ok)
        if problems:
            return [f"leaf {i}: {p}" for p in problems]
    return []


# ------------------------------------------------------------ packing

def packing_rows(n, k):
    """The rows of Q(n,k), independently: x(S) <= k-1 and 1.x >= k."""
    rows = {
        (tuple(Fraction(int(i in S)) for i in range(n)), "<=", Fraction(k - 1))
        for S in combinations(range(n), k)
    }
    rows.add(((Fraction(1),) * n, ">=", Fraction(k)))
    return rows


def packing_node_bound(n, k):
    return Fraction(2 * (comb(n, k) + 1), n) - 1


# ------------------------------------------------------------ perturbed

def _int_row(coeffs, rhs):
    den = 1
    for v in (*coeffs, rhs):
        den = den * v.denominator // gcd(den, v.denominator)
    return [int(v * den) for v in coeffs], int(rhs * den)


def perturbed_points_and_halves(rows, n, s):
    """Feasible 0/1 points of {x in [0,1]^n : row . x >= rhs for each row}, and
    whether every point of {0, 1/2, 1}^n with at least s halves is feasible.

    The 0/1 sweep first tries each point's hinted row (index = mask of the
    coordinates at 0); a point that row does not rule out gets a full scan.
    The half-point answer uses min over Half_s of a.x = sum min(0, a_i) plus
    the s smallest |a_i|/2, decided in integers.
    """
    if len(rows) != 2 ** n:
        return None, None, [f"{len(rows)} rows, expected {2 ** n}"]
    introws = []
    for mask, con in enumerate(rows):
        if con.rel != ">=" or len(con.coeffs) != n:
            return None, None, [f"row {mask} is not a >= row of length {n}"]
        if any((c > 0) != bool(mask >> i & 1) for i, c in enumerate(con.coeffs)):
            return None, None, [f"row {mask} has the wrong sign pattern"]
        introws.append(_int_row(con.coeffs, con.rhs))

    def violated(row, mask):
        a, b = row
        return sum(a[i] for i in range(n) if mask >> i & 1) < b

    full = 2 ** n - 1
    feasible = []
    for mask in range(2 ** n):
        if violated(introws[full ^ mask], mask):
            continue
        if not any(violated(row, mask) for row in introws):
            feasible.append(tuple(mask >> i & 1 for i in range(n)))

    halves = True
    for a, b in introws:
        low = 2 * sum(v for v in a if v < 0) + sum(sorted(abs(v) for v in a)[:s])
        if low < 2 * b:
            halves = False
            break
    return feasible, halves, []


# ------------------------------------------------------------ tsp

def tsp_edges(n):
    return list(combinations(range(n), 2))


def is_tour(n, point):
    """Is ``point`` (over the edges of K_n in lexicographic order) the
    incidence vector of a Hamiltonian cycle?"""
    edges = tsp_edges(n)
    if len(point) != len(edges) or any(v not in (0, 1) for v in point):
        return False
    adj = {v: [] for v in range(n)}
    for (a, b), v in zip(edges, point):
        if v == 1:
            adj[a].append(b)
            adj[b].append(a)
    if any(len(nb) != 2 for nb in adj.values()):
        return False
    seen, prev, cur = {0}, None, 0
    while True:
        nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
        if nxt == 0:
            return len(seen) == n
        seen.add(nxt)
        prev, cur = cur, nxt


def brute_force_min_tour(n, cost):
    """Minimum tour cost over all (n-1)!/2 tours; ``cost[a][b]`` symmetric."""
    best = None
    for perm in permutations(range(1, n)):
        if perm[0] > perm[-1]:
            continue  # each tour once, not once per direction
        total = cost[0][perm[0]] + cost[perm[-1]][0]
        for a, b in zip(perm, perm[1:]):
            total += cost[a][b]
        if best is None or total < best:
            best = total
    return best
