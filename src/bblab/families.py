"""Generators for the hard instance families.

Cross-polytope, packing (optionally with the covering row), set-cover,
Gaussian-perturbed cross-polytope, and the TSP subtour relaxation.  The
cross and packing families can be produced either with explicit rows
(small n) or backed by an exact separation oracle that returns a
most-violated row; every other family is explicit.

All generated polytopes carry a provenance header (family, parameters,
seed, rounding denominator) so emitted files are self-describing.
"""

import hashlib
import math
import struct
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import SpecViolation, TooLarge, TooLargeForExplicit
from .polytope import EQ, GE, LE, LinearConstraint, Polytope
from .rationals import integer, rat_str

_EXPLICIT_CAP = 16  # 2^n explicit rows allowed up to here

HALF = Fraction(1, 2)


# ---------------------------------------------------------------- cross

@dataclass(frozen=True)
class CrossSpec:
    n: int
    mode: str = "explicit"  # "explicit" | "oracle"

    def __post_init__(self):
        if self.n < 1:
            raise SpecViolation("n must be positive")
        if self.mode not in ("explicit", "oracle"):
            raise SpecViolation(f"unknown mode {self.mode!r}")
        if self.mode == "explicit" and self.n > _EXPLICIT_CAP:
            raise TooLargeForExplicit(f"2^{self.n} explicit rows")


def cross_row(n, mask):
    """The row indexed by J (bitmask): sum_J x + sum_notJ (1-x) >= 1/2,
    made from its doubled ints."""
    coeffs = [2 if mask >> i & 1 else -2 for i in range(n)]
    outside = n - mask.bit_count()
    return LinearConstraint.from_ints(coeffs, GE, 1 - 2 * outside, 2)


@dataclass(frozen=True)
class CrossOracle:
    """Exact separation for the cross-polytope: the most violated row has
    J = {i : x_i <= 1/2} (ties included), which minimizes the LHS
    coordinatewise."""

    n: int
    family = "cross"

    def find_violated(self, point):
        mask = 0
        lhs = Fraction(0)
        for i, v in enumerate(point):
            if v <= HALF:
                mask |= 1 << i
                lhs += v
            else:
                lhs += 1 - v
        if lhs < HALF:
            return cross_row(self.n, mask)
        return None

    def family_size(self):
        return 2 ** self.n

    def is_family_row(self, row):
        if row.dim != self.n:
            return False
        coeffs, rel, rhs = row.normalized()
        # in <=-normalized form the J coordinates carry the negative signs
        mask = sum(1 << i for i, c in enumerate(coeffs) if c < 0)
        return cross_row(self.n, mask).normalized() == (coeffs, rel, rhs)

    def explicit_rows(self):
        if self.n > _EXPLICIT_CAP:
            return None
        return [cross_row(self.n, mask) for mask in range(2 ** self.n)]

    def to_json(self):
        return {"family": "cross", "n": self.n}


def gen_cross_polytope(spec: CrossSpec) -> Polytope:
    prov = {"family": "cross", "n": spec.n, "mode": spec.mode}
    if spec.mode == "oracle":
        return Polytope(spec.n, (), oracle=CrossOracle(spec.n), provenance=prov)
    rows = tuple(cross_row(spec.n, mask) for mask in range(2 ** spec.n))
    return Polytope(spec.n, rows, provenance=prov)


# -------------------------------------------------------------- packing

@dataclass(frozen=True)
class PackingSpec:
    n: int
    k: int
    with_cover: bool = False
    mode: str = "explicit"

    def __post_init__(self):
        if not 2 <= self.k <= self.n / 2:
            raise SpecViolation("need 2 <= k <= n/2")
        if self.mode not in ("explicit", "oracle"):
            raise SpecViolation(f"unknown mode {self.mode!r}")


def packing_row(n, S):
    coeffs = [int(i in S) for i in range(n)]
    return LinearConstraint.from_ints(coeffs, LE, len(S) - 1)


def cover_row(n, k):
    return LinearConstraint.from_ints((1,) * n, GE, k)


@dataclass(frozen=True)
class PackingOracle:
    n: int
    k: int
    family = "packing"

    def find_violated(self, point):
        order = sorted(range(self.n), key=lambda i: (-point[i], i))
        S = frozenset(order[: self.k])
        if sum(point[i] for i in S) > self.k - 1:
            return packing_row(self.n, S)
        return None

    def family_size(self):
        return comb(self.n, self.k)

    def is_family_row(self, row):
        if row.dim != self.n:
            return False
        coeffs, rel, rhs = row.normalized()
        S = frozenset(i for i, c in enumerate(coeffs) if c != 0)
        if len(S) != self.k:
            return False
        return packing_row(self.n, S).normalized() == (coeffs, rel, rhs)

    def explicit_rows(self):
        return [packing_row(self.n, set(S)) for S in combinations(range(self.n), self.k)]

    def to_json(self):
        return {"family": "packing", "n": self.n, "k": self.k}


def gen_packing_family(spec: PackingSpec) -> Polytope:
    """Packing rows over all k-subsets, plus the covering row 1.x >= k when
    with_cover is set (that combination is the integer-infeasible Q)."""
    n, k = spec.n, spec.k
    prov = {
        "family": "packing",
        "n": n,
        "k": k,
        "with_cover": spec.with_cover,
        "mode": spec.mode,
    }
    extra = (cover_row(n, k),) if spec.with_cover else ()
    if spec.mode == "oracle":
        return Polytope(n, extra, oracle=PackingOracle(n, k), provenance=prov)
    rows = tuple(packing_row(n, set(S)) for S in combinations(range(n), k)) + extra
    return Polytope(n, rows, provenance=prov)


def gen_set_cover(n, k) -> Polytope:
    if not 2 <= k <= n / 2:
        raise SpecViolation("need 2 <= k <= n/2")
    rows = tuple(
        LinearConstraint.from_ints([int(i in S) for i in range(n)], GE, 1)
        for S in combinations(range(n), k)
    )
    return Polytope(n, rows, provenance={"family": "set-cover", "n": n, "k": k})


# ------------------------------------------------------------ perturbed

ROUNDING_DENOM = 2 ** 20


@dataclass(frozen=True)
class PerturbedSpec:
    n: int
    seed: int
    sigma: Fraction = Fraction(1, 20)
    denom: int = ROUNDING_DENOM

    def __post_init__(self):
        if self.n < 1 or self.n > _EXPLICIT_CAP:
            raise TooLarge("perturbed family needs 1 <= n <= 16 (2^n rows)")

    @property
    def rhs(self) -> Fraction:
        # 1.6 n / 20 exactly
        return Fraction(2 * self.n, 25)


_UNIFORMS = struct.Struct("<QQ")
_COLUMNS = [i.to_bytes(2, "little") for i in range(_EXPLICIT_CAP)]


def _noise_row(seed, sigma, denom, mask, n):
    """N(0, sigma^2) draws for row I (bitmask), columns 0..n-1, each as an
    integer count of 1/denom units; ``sigma`` is a float.

    Column i's two uniforms are the top 53 bits of the first two 8-byte
    words of SHA-256("bblab-perturbed", seed, mask, i), and one Box-Muller
    step makes the draw.  The row's columns share the hash of the prefix up
    to the mask; each digest extends a copy of it.
    """
    base = hashlib.sha256(
        b"bblab-perturbed"
        + int(seed).to_bytes(8, "little", signed=True)
        + int(mask).to_bytes(4, "little")
    )
    log, sqrt, cos, two_pi = math.log, math.sqrt, math.cos, 2.0 * math.pi
    unpack = _UNIFORMS.unpack_from
    unit = 2.0 ** 53
    out = []
    for column in _COLUMNS[:n]:
        h = base.copy()
        h.update(column)
        k1, k2 = unpack(h.digest())
        u1, u2 = ((k1 >> 11) + 0.5) / unit, ((k2 >> 11) + 0.5) / unit
        z = sqrt(-2.0 * log(u1)) * cos(two_pi * u2)
        out.append(round(z * sigma * denom))
    return out


def gen_perturbed_cross(spec: PerturbedSpec) -> Polytope:
    """The cross-polytope with iid N(0, 1/20^2) noise on each coefficient and
    right-hand side 1.6n/20; deterministic in the seed, coefficients rounded
    to multiples of 1/2^20.

    Row I is  sum_i s_i (1 + e_i) x_i >= rhs - (n - |I|)  with s_i = +1 on
    I and -1 off it, e_i the noise.  Over the common denominator L of
    1/denom and rhs it is an integer row: coefficients +-(denom + units_i)
    * (L / denom) and right-hand side L * (rhs - n + |I|), so the rows are
    made from the noise units with no Fraction.
    """
    n, seed, denom = spec.n, spec.seed, spec.denom
    sigma = float(spec.sigma)
    rhs = spec.rhs
    L = math.lcm(denom, rhs.denominator)
    mult = L // denom
    rhs_units = rhs.numerator * (L // rhs.denominator)
    from_ints = LinearConstraint.from_ints
    rows = []
    for mask in range(2 ** n):
        coeffs = [
            (denom + e) * mult if mask >> i & 1 else -(denom + e) * mult
            for i, e in enumerate(_noise_row(seed, sigma, denom, mask, n))
        ]
        shift = n - mask.bit_count()
        rows.append(from_ints(coeffs, GE, rhs_units - shift * L, L))
    prov = {
        "family": "perturbed-cross",
        "n": n,
        "seed": spec.seed,
        "sigma": "1/20",
        "rhs": rat_str(spec.rhs),
        "rounding_denom": spec.denom,
    }
    return Polytope(n, rows, provenance=prov)


# ------------------------------------------------------------------ tsp

@dataclass(frozen=True)
class TspSpec:
    n: int

    def __post_init__(self):
        if not 3 <= self.n <= 12:
            raise TooLarge("explicit subtour rows need 3 <= n <= 12")


def tsp_edges(n):
    return list(combinations(range(n), 2))


def gen_tsp_subtour(spec: TspSpec) -> Polytope:
    """Subtour-elimination relaxation: x(delta(v)) = 2 for every city and
    x(delta(W)) >= 2 for every W containing city 0 with 2 <= |W| <= n-2
    (singletons and complements are redundant and dropped)."""
    n = spec.n
    edges = tsp_edges(n)
    eidx = {e: t for t, e in enumerate(edges)}
    m = len(edges)
    rows = []
    for v in range(n):
        coeffs = [0] * m
        for u in range(n):
            if u != v:
                coeffs[eidx[(min(u, v), max(u, v))]] = 1
        rows.append(LinearConstraint.from_ints(coeffs, EQ, 2))
    for size in range(2, n - 1):
        for rest in combinations(range(1, n), size - 1):
            W = {0, *rest}
            coeffs = [0] * m
            for (u, v) in edges:
                if (u in W) != (v in W):
                    coeffs[eidx[(u, v)]] = 1
            rows.append(LinearConstraint.from_ints(coeffs, GE, 2))
    return Polytope(
        m, tuple(rows), provenance={"family": "tsp-subtour", "cities": n}
    )


def oracle_from_json(obj):
    if obj is None:
        return None
    family = obj.get("family")
    if family == "cross":
        return CrossOracle(integer(obj["n"]))
    if family == "packing":
        return PackingOracle(integer(obj["n"]), integer(obj["k"]))
    raise ValueError(f"unknown oracle family {family!r}")
