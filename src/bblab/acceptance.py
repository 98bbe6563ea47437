"""The acceptance suite: one function per criterion, exact tolerances.

Every criterion is implemented literally; each returns (passed, message).
Trees produced along the way are appended, as ReplayItems, to one list
that every criterion is passed, and re-verified through the independent
checker path by the final criterion.  ``run_all`` prints one PASS/FAIL
line per criterion, and its wall time to stderr; the CLI verb calls it.

Criterion 3 asserts that the separation resistance of the center of the
2-dimensional cross-polytope is exactly 3 leaves, and that the separating
tree meets the node bound 2^(floor(n/2)+1) - 1; the README's acceptance
section has the analysis of why that bound counts nodes, not leaves.
"""

import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb

from .bbtree import (
    Disjunction,
    atoms_of,
    full_variable_tree,
    leaf,
    node,
    proves_infeasibility,
    separates,
    solves,
)
from .checkers import (
    enum_integer_points,
    entropy_bound_check,
    facet_check_cardinality,
    find_shattered_set,
    criticality_bound,
    half_points_feasible,
)
from .errors import BBLabError
from .families import (
    CrossSpec,
    PackingSpec,
    PerturbedSpec,
    TspSpec,
    gen_cross_polytope,
    gen_packing_family,
    gen_perturbed_cross,
    gen_set_cover,
    gen_tsp_subtour,
    tsp_edges,
)
from .lp import convex_weights, enum_vertices
from .maps import DupSpec, EmbedSpec, FlipSpec, apply_map_polytope, compose, make_dup, make_embed, make_flip
from .bbtree import transform_tree
from .rationals import rat_vector
from .search import (
    MostFractional,
    SearchBudget,
    enumerate_bounded_trees,
    min_tree_size,
    run_bb,
    separation_resistance,
)

HALF = Fraction(1, 2)


@dataclass
class ReplayItem:
    kind: str  # "infeasibility" | "solves" | "separates"
    polytope: object
    tree: object
    objective: tuple | None = None
    witnesses: dict | None = None
    xstar: tuple | None = None


def criterion_1(reg: list):
    """Full variable tree proves P_n infeasible with exactly 2^(n+1)-1 nodes."""
    for n in range(1, 11):
        P = gen_cross_polytope(CrossSpec(n, "oracle"))
        tree = full_variable_tree(n)
        rep = proves_infeasibility(tree, P)
        if not rep.proved:
            return False, f"n={n}: tree failed to prove infeasibility"
        if tree.size != 2 ** (n + 1) - 1:
            return False, f"n={n}: size {tree.size} != {2 ** (n + 1) - 1}"
        reg.append(ReplayItem("infeasibility", P, tree))
    return True, "n=1..10 proved infeasible at exactly 2^(n+1)-1 nodes"


def criterion_2(reg: list):
    """min_tree_size tightness for P_1 and P_2 at M=2, plus brute confirmation."""
    P1 = gen_cross_polytope(CrossSpec(1))
    r1 = min_tree_size(P1, 2, 4)
    if not (r1.exact and r1.leaves == 2):
        return False, f"P_1: expected Exact(2), got {r1}"
    P2 = gen_cross_polytope(CrossSpec(2))
    r2 = min_tree_size(P2, 2, 4)
    if not (r2.exact and r2.leaves == 4):
        return False, f"P_2: expected Exact(4), got {r2}"
    for L in (1, 2, 3):
        for tree in enumerate_bounded_trees(P2, 2, L):
            if proves_infeasibility(tree, P2).proved:
                return False, f"brute search found a {L}-leaf proof: {tree.to_json()}"
    return True, "Exact(2)/Exact(4) and no <=3-leaf proof exists for P_2 at M=2"


def criterion_3(reg: list):
    """Separation resistance of 1/2.1 from P_2 is Exact(3) for M = 1, 2, 3.

    The search tries 1, 2, then 3 leaves, so a 3-leaf answer also shows that
    no tree with <= 2 leaves separates.  The tree is re-checked by the hull
    LP (``separates``) and by vertex enumeration of its leaf atoms, and must
    have at least 2^(floor(n/2)+1) - 1 nodes.
    """
    n = 2
    P2 = gen_cross_polytope(CrossSpec(n))
    center = (HALF,) * n
    node_bound = 2 ** (n // 2 + 1) - 1
    for M in (1, 2, 3):
        r = separation_resistance(P2, center, M, 3)
        if not (r.separated and r.leaves == 3):
            return False, f"M={M}: expected Exact(3), got {r}"
        if not separates(r.tree, P2, center).separated:
            return False, f"M={M}: hull check does not confirm {r.tree.to_json()}"
        vertices = [v for a in atoms_of(r.tree, P2) for v in enum_vertices(a.polytope())]
        if vertices and convex_weights(center, vertices) is not None:
            return False, f"M={M}: center is in the hull of the leaf-atom vertices"
        if r.tree.size < node_bound:
            return False, f"M={M}: {r.tree.size} nodes < bound {node_bound}"
        if M == 2:
            reg.append(ReplayItem("separates", P2, r.tree, xstar=center))
    return True, (
        f"Exact(3) leaves for M=1,2,3 (no <=2-leaf tree separates); "
        f"{r.tree.size} nodes >= {node_bound}"
    )


def criterion_4(reg: list):
    """Packing/cover criticality across n in {4,6,8}, k = 2..n/2."""
    msgs = []
    for n in (4, 6, 8):
        for k in range(2, n // 2 + 1):
            Q = gen_packing_family(PackingSpec(n, k, with_cover=True))
            if enum_integer_points(Q):
                return False, f"Q({n},{k}) has an integer point"
            center = tuple(Fraction(k, n) for _ in range(n))
            if not Q.contains(center):
                return False, f"(k/n).1 not in Q({n},{k})"
            crit = criticality_bound(Q, list(range(len(Q.rows))))
            want = Fraction(2 * (comb(n, k) + 1), n) - 1
            if not (crit.verified and crit.bound == want):
                return False, f"criticality for Q({n},{k}): {crit}"
            rep = run_bb(Q, MostFractional())
            if rep.status != "proved-infeasible" or rep.nodes < want:
                return False, (
                    f"engine tree for Q({n},{k}): {rep.status}, "
                    f"{rep.nodes} nodes < bound {want}"
                )
            reg.append(ReplayItem("infeasibility", Q, rep.tree))
            msgs.append(f"Q({n},{k}): {rep.nodes}>={want}")
    return True, "; ".join(msgs)


def criterion_5(reg: list):
    """Cardinality facet rank is n for 4 <= n <= 10, 2 <= k <= n/2."""
    for n in range(4, 11):
        for k in range(2, n // 2 + 1):
            res = facet_check_cardinality(n, k)
            if not res.is_facet:
                return False, f"(n,k)=({n},{k}): rank {res.rank} != {n}"
    return True, "Facet(n) for all 4 <= n <= 10, 2 <= k <= n/2"


def criterion_6(reg: list):
    """Set cover is the flip image of packing, rows and 0/1 points alike."""
    for n in range(4, 11):
        for k in range(2, n // 2 + 1):
            packing = gen_packing_family(PackingSpec(n, k))
            flip = make_flip(FlipSpec(n, frozenset(range(n))))
            image = apply_map_polytope(flip, packing)
            cover = gen_set_cover(n, k)
            got = [r.normalized() for r in image.rows]
            want = [r.normalized() for r in cover.rows]
            if got != want:
                return False, f"(n,k)=({n},{k}): flip image rows differ"
            flipped_pts = {
                tuple(1 - v for v in p) for p in enum_integer_points(packing)
            }
            cover_pts = set(enum_integer_points(cover))
            if flipped_pts != cover_pts:
                return False, f"(n,k)=({n},{k}): 0/1 points do not biject"
    return True, "row-for-row equality and 0/1 bijection for all n <= 10"


def _random_polytope_3d(rng):
    from .polytope import LinearConstraint

    rows = []
    for _ in range(rng.randint(2, 4)):
        coeffs = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
        rhs = Fraction(rng.randint(-2, 5), rng.randint(1, 2))
        rows.append(LinearConstraint(coeffs, "<=", rhs))
    from .polytope import Polytope

    return Polytope(3, tuple(rows))


def _random_map_from_3d(rng):
    f = make_flip(FlipSpec(3, frozenset(i for i in range(3) if rng.random() < 0.5)))
    for _ in range(rng.randint(0, 2)):
        n = f.out_dim
        kind = rng.choice(["flip", "embed", "dup"])
        if kind == "flip":
            g = make_flip(FlipSpec(n, frozenset(i for i in range(n) if rng.random() < 0.5)))
        elif kind == "embed":
            zeros, ones = rng.randint(0, 1), rng.randint(0, 1)
            total = n + zeros + ones
            pos = list(range(total))
            rng.shuffle(pos)
            g = make_embed(EmbedSpec(n, zeros, ones, tuple(pos)))
        else:
            g = make_dup(DupSpec(n, tuple(rng.randint(0, n - 1) for _ in range(rng.randint(1, 2)))))
        f = compose(g, f)
    return f


def _random_tree(rng, dim, depth):
    if depth == 0 or rng.random() < 0.35:
        return leaf()
    while True:
        pi = tuple(rng.randint(-3, 3) for _ in range(dim))
        if any(pi):
            break
    pi0 = rng.randint(-3, 3)
    return node(
        Disjunction(pi, pi0),
        _random_tree(rng, dim, depth - 1),
        _random_tree(rng, dim, depth - 1),
    )


def criterion_7(reg: list):
    """Simulation lemma, exact: vertices of transformed atoms map into the
    corresponding original atoms, over 50 random tree/map/polytope triples."""
    rng = random.Random(20240707)
    checked = 0
    for trial in range(50):
        P = _random_polytope_3d(rng)
        f = _random_map_from_3d(rng)
        Q = apply_map_polytope(f, P)
        tree_hat = _random_tree(rng, f.out_dim, 4)
        tree = transform_tree(tree_hat, f)
        if tree.size != tree_hat.size:
            return False, f"trial {trial}: transformed size differs"
        atoms = atoms_of(tree, P)
        atoms_hat = atoms_of(tree_hat, Q)
        for av, ahat in zip(atoms, atoms_hat):
            target = ahat.polytope()
            for vertex in enum_vertices(av.polytope()):
                checked += 1
                if not target.contains(f.apply(vertex)):
                    return False, (
                        f"trial {trial}: vertex {vertex} maps outside its atom"
                    )
    return True, f"50 random triples, {checked} vertex containments hold exactly"


def criterion_8(reg: list):
    """Perturbed cross-polytope at n=12 over 20 fixed seeds."""
    n, s = 12, ceil(Fraction(4 * 12, 10))
    good = 0
    for seed in range(20):
        spec = PerturbedSpec(n, seed=seed)
        if spec.rhs != Fraction(2 * n, 25):
            return False, f"seed {seed}: rhs {spec.rhs} != 2n/25"
        Q = gen_perturbed_cross(spec)
        for mask in (0, 1, 2 ** n - 1):
            # the >= row's <= form: -rhs, times its scale
            (_, neg_rhs, scale), = Q.rows[mask].int_leq
            if -neg_rhs != (spec.rhs - (n - mask.bit_count())) * scale:
                return False, f"seed {seed}: stored rhs drifted on row {mask}"
        infeasible = enum_integer_points(Q) == []
        halves_ok = half_points_feasible(Q, s).holds
        if infeasible and halves_ok:
            good += 1
    if good < 18:
        return False, f"only {good}/20 seeds are infeasible with Half_s inside"
    return True, f"{good}/20 seeds infeasible with all Half_{s} points feasible"


def criterion_9(reg: list):
    """Shattering on random families over {0,1}^5 and the entropy bound."""
    rng = random.Random(1159)
    cube = [tuple(m >> i & 1 for i in range(5)) for m in range(32)]
    thresholds = {k: sum(comb(5, i) for i in range(k)) for k in (1, 2, 3)}
    for k, thr in thresholds.items():
        for _ in range(200):
            size = rng.randint(thr + 1, 32)
            F = rng.sample(cube, size)
            res = find_shattered_set(F, k)
            if not res.found:
                return False, f"k={k}: no shattered set for |F|={size}"
            if sum(1 for v in res.point if v == HALF) < k:
                return False, f"k={k}: returned point lacks {k} halves"
            if convex_weights(res.point, [rat_vector(p) for p in F]) is None:
                return False, f"k={k}: returned point is outside conv(F)"
    for n in range(5, 31):
        s = ceil(Fraction(4 * n, 10))
        res = entropy_bound_check(n, s)
        if not res.holds:
            return False, f"entropy bound fails at n={n}, s={s}"
    return True, "600 shattering instances verified; entropy bound holds for n=5..30"


def _is_tour(n, point):
    edges = tsp_edges(n)
    deg = [0] * n
    adj = {i: [] for i in range(n)}
    for e, v in zip(edges, point):
        if v == 1:
            deg[e[0]] += 1
            deg[e[1]] += 1
            adj[e[0]].append(e[1])
            adj[e[1]].append(e[0])
        elif v != 0:
            return False
    if any(d != 2 for d in deg):
        return False
    seen, stack = set(), [0]
    while stack:
        u = stack.pop()
        if u not in seen:
            seen.add(u)
            stack.extend(adj[u])
    return len(seen) == n


def criterion_10(reg: list):
    """TSP desk scale: solve with random rational weights, verify the tour."""
    sizes = []
    for n in (6, 8, 10):
        T = gen_tsp_subtour(TspSpec(n))
        rng = random.Random(1000 + n)
        c = tuple(
            Fraction(rng.randint(-100, 100), rng.randint(1, 10)) for _ in range(T.dim)
        )
        rep = run_bb(T, MostFractional(), objective=c, budget=SearchBudget(max_nodes=20000))
        if rep.status != "solved":
            return False, f"n={n}: engine returned {rep.status}"
        if not _is_tour(n, rep.point):
            return False, f"n={n}: incumbent is not a Hamiltonian cycle"
        if not T.contains(rep.point):
            return False, f"n={n}: incumbent violates a relaxation row"
        witnesses = rep.leaf_witnesses()
        reg.append(ReplayItem("solves", T, rep.tree, objective=c, witnesses=witnesses))
        sizes.append(f"n={n}: {rep.nodes} nodes")
    return True, "solved with verified tours (" + "; ".join(sizes) + ")"


def criterion_11(reg: list):
    """Replay every registered tree through the independent checkers."""
    mismatches = 0
    for item in reg:
        try:
            if item.kind == "infeasibility":
                rep = proves_infeasibility(item.tree, item.polytope)
                ok = rep.proved
            elif item.kind == "solves":
                rep = solves(item.tree, item.polytope, item.objective, item.witnesses)
                ok = rep.solved
            else:
                ok = separates(item.tree, item.polytope, item.xstar).separated
        except BBLabError:
            ok = False
        if not ok:
            mismatches += 1
    if mismatches:
        return False, f"{mismatches}/{len(reg)} replays mismatched"
    return True, f"all {len(reg)} trees replayed with zero mismatches"


CRITERIA = [
    ("cross-polytope tightness 2^(n+1)-1", criterion_1),
    ("cross-polytope bounded minimal trees", criterion_2),
    ("separation of 1/2.1 from P_2: Exact(3) leaves, >= 2^(floor(n/2)+1)-1 nodes", criterion_3),
    ("packing/cover criticality bound", criterion_4),
    ("cardinality facet rank", criterion_5),
    ("set-cover flip reduction", criterion_6),
    ("simulation lemma, exact leafwise", criterion_7),
    ("perturbed cross-polytope, 20 seeds", criterion_8),
    ("shattering and entropy counting", criterion_9),
    ("TSP desk scale solve + tour checks", criterion_10),
    ("certificate replay", criterion_11),
]


def run_all(out=print):
    """Run every criterion in order; returns 0 iff all pass.

    Each criterion's wall time goes to stderr, so ``out`` stays
    deterministic.
    """
    reg = []
    failures = 0
    for i, (label, fn) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        try:
            ok, msg = fn(reg)
        except BBLabError as exc:
            ok, msg = False, f"error: {exc}"
        elapsed = time.perf_counter() - start
        tag = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        out(f"{tag} criterion {i:2d} [{label}]: {msg}")
        print(f"criterion {i:2d}: {elapsed:.2f} s", file=sys.stderr)
    return 0 if failures == 0 else 1
