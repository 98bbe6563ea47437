"""Integral affine maps y = Cx + d: flipping, embedding, duplication.

These three operations (and their compositions) are the only maps for
which exact image polytopes are computed: flipping substitutes
x_i <- 1 - y_i in every row, embedding appends coordinates fixed to 0/1,
duplication appends copies of existing coordinates.  All operations are
injective, so images carry the same 0/1 points as their source.

Coordinate indices in specs are 0-based.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidPermutation,
    MalformedInput,
    NonCanonicalMap,
    json_field,
)
from .polytope import EQ, GE, LinearConstraint, Polytope
from .rationals import integer, parse_list


@dataclass(frozen=True)
class AffineMap:
    C: tuple  # m x n integer matrix, rows as tuples
    d: tuple  # length-m integer vector
    kind: str = "raw"
    spec: object = None

    def __post_init__(self):
        C = tuple(tuple(integer(v) for v in row) for row in self.C)
        d = tuple(integer(v) for v in self.d)
        if len(C) != len(d):
            raise DimensionMismatch("C rows and d length differ")
        widths = {len(row) for row in C}
        if len(widths) > 1:
            raise DimensionMismatch("ragged matrix")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "d", d)

    @property
    def out_dim(self):
        return len(self.d)

    @property
    def in_dim(self):
        return len(self.C[0]) if self.C else 0

    def apply(self, x):
        if len(x) != self.in_dim:
            raise DimensionMismatch("point/map dimension mismatch")
        return tuple(
            sum((Fraction(cij) * xj for cij, xj in zip(row, x)), Fraction(di))
            for row, di in zip(self.C, self.d)
        )

    def transpose_times(self, a):
        """C^T a for an integer vector a of length out_dim."""
        if len(a) != self.out_dim:
            raise DimensionMismatch("vector/map dimension mismatch")
        return tuple(
            sum(self.C[i][j] * a[i] for i in range(self.out_dim))
            for j in range(self.in_dim)
        )

    def to_json(self):
        return {
            "C": [[str(v) for v in row] for row in self.C],
            "d": [str(v) for v in self.d],
            "kind": self.kind,
            "spec": _spec_to_json(self.kind, self.spec),
        }

    @classmethod
    def from_json(cls, obj, path=""):
        """Parse a map file; a malformed field raises MalformedInput naming
        its JSON path, e.g. ``C[0][0]``, ``d[1]`` or ``spec.n``.  Entries
        are integers or "p" strings: a float or a bool is refused, not
        truncated."""
        if not isinstance(obj, dict):
            raise MalformedInput(f"{path or 'map'}: not a JSON object")
        with json_field(_at(path, "C")):
            rows = obj["C"]
        if not isinstance(rows, list):
            raise MalformedInput(f"{_at(path, 'C')}: not a list: {rows!r}")
        C = tuple(parse_list(row, f"{_at(path, 'C')}[{i}]", integer)
                  for i, row in enumerate(rows))
        with json_field(_at(path, "d")):
            d = parse_list(obj["d"], _at(path, "d"), integer)
        kind = obj.get("kind", "raw")
        if kind not in _KINDS:
            raise MalformedInput(f"{_at(path, 'kind')}: unknown map kind {kind!r}")
        spec = _spec_from_json(kind, obj.get("spec"), _at(path, "spec"))
        return cls(C, d, kind=kind, spec=spec)


@dataclass(frozen=True)
class FlipSpec:
    n: int
    J: frozenset

    def __post_init__(self):
        object.__setattr__(self, "J", frozenset(self.J))
        if not self.J <= set(range(self.n)):
            raise IndexOutOfRange("flip set outside [n]")


@dataclass(frozen=True)
class EmbedSpec:
    """Append ``zeros`` coordinates fixed to 0 then ``ones`` fixed to 1.

    ``positions`` (a permutation of range(n + zeros + ones)) places the
    canonical coordinate i at final index positions[i]; identity by default,
    which leaves the appended coordinates grouped at the end.
    """

    n: int
    zeros: int
    ones: int
    positions: tuple = None

    def __post_init__(self):
        total = self.n + self.zeros + self.ones
        pos = self.positions
        if pos is None:
            pos = tuple(range(total))
        else:
            pos = tuple(integer(p) for p in pos)
        if sorted(pos) != list(range(total)):
            raise InvalidPermutation("positions is not a permutation")
        object.__setattr__(self, "positions", pos)


@dataclass(frozen=True)
class DupSpec:
    """Duplicate coordinates indices[0], indices[1], ... onto new trailing ones."""

    n: int
    indices: tuple

    def __post_init__(self):
        idx = tuple(integer(j) for j in self.indices)
        if any(j < 0 or j >= self.n for j in idx):
            raise IndexOutOfRange("duplicated coordinate outside [n]")
        object.__setattr__(self, "indices", idx)


def make_flip(spec: FlipSpec) -> AffineMap:
    n = spec.n
    C = tuple(
        tuple((-1 if i in spec.J else 1) if i == j else 0 for j in range(n))
        for i in range(n)
    )
    d = tuple(1 if i in spec.J else 0 for i in range(n))
    return AffineMap(C, d, kind="flip", spec=spec)


def make_embed(spec: EmbedSpec) -> AffineMap:
    n, k = spec.n, spec.zeros + spec.ones
    total = n + k
    C = [[0] * n for _ in range(total)]
    d = [0] * total
    for i in range(total):
        out = spec.positions[i]
        if i < n:
            C[out][i] = 1
        elif i >= n + spec.zeros:
            d[out] = 1
    return AffineMap(tuple(tuple(r) for r in C), tuple(d), kind="embed", spec=spec)


def make_dup(spec: DupSpec) -> AffineMap:
    n, k = spec.n, len(spec.indices)
    C = [[0] * n for _ in range(n + k)]
    for i in range(n):
        C[i][i] = 1
    for i, j in enumerate(spec.indices):
        C[n + i][j] = 1
    return AffineMap(tuple(tuple(r) for r in C), (0,) * (n + k), kind="dup", spec=spec)


def compose(outer: AffineMap, inner: AffineMap) -> AffineMap:
    if inner.out_dim != outer.in_dim:
        raise DimensionMismatch("composition dimension mismatch")
    C = tuple(
        tuple(
            sum(outer.C[i][t] * inner.C[t][j] for t in range(outer.in_dim))
            for j in range(inner.in_dim)
        )
        for i in range(outer.out_dim)
    )
    d = tuple(
        sum(outer.C[i][t] * inner.d[t] for t in range(outer.in_dim)) + outer.d[i]
        for i in range(outer.out_dim)
    )
    return AffineMap(C, d, kind="compose", spec=(outer, inner))


def apply_map_polytope(f: AffineMap, P: Polytope) -> Polytope:
    """The exact image polytope f(P) for canonical flip/embed/dup chains."""
    if f.in_dim != P.dim:
        raise DimensionMismatch("map/polytope dimension mismatch")
    if f.kind == "compose":
        outer, inner = f.spec
        return apply_map_polytope(outer, apply_map_polytope(inner, P))
    if f.kind not in ("flip", "embed", "dup"):
        raise NonCanonicalMap(f"cannot image through a {f.kind!r} map")
    P = P.materialized()

    if f.kind == "flip":
        J = f.spec.J
        rows = []
        for row in P.rows:
            coeffs, rhs, _ = row.int_leq[0]
            shift = sum(coeffs[i] for i in J)
            flipped = [-c if i in J else c for i, c in enumerate(coeffs)]
            rows.append(_same_scale(row, flipped, rhs - shift))
        return Polytope(P.dim, tuple(rows))

    if f.kind == "embed":
        spec = f.spec
        total = spec.n + spec.zeros + spec.ones
        rows = [_lift_row(row, total, spec.positions) for row in P.rows]
        for i in range(spec.n, total):
            out = spec.positions[i]
            coeffs = [int(t == out) for t in range(total)]
            rows.append(LinearConstraint.from_ints(coeffs, EQ, int(i >= spec.n + spec.zeros)))
        return Polytope(total, tuple(rows))

    spec = f.spec
    total = spec.n + len(spec.indices)
    identity_pos = tuple(range(total))
    rows = [_lift_row(row, total, identity_pos) for row in P.rows]
    for i, j in enumerate(spec.indices):
        coeffs = [0] * total
        coeffs[spec.n + i] = 1
        coeffs[j] -= 1
        rows.append(LinearConstraint.from_ints(coeffs, EQ, 0))
    return Polytope(total, tuple(rows))


def _lift_row(row, total, positions):
    ints, rhs, _ = row.int_leq[0]
    coeffs = [0] * total
    for i, c in enumerate(ints):
        coeffs[positions[i]] = c
    return _same_scale(row, coeffs, rhs)


def _same_scale(row, coeffs, rhs):
    """The row of ``row``'s relation and scale whose <= form is the image
    ``coeffs . x <= rhs`` of ``row.int_leq[0]``."""
    sign = -1 if row.rel == GE else 1
    return LinearConstraint.from_ints(
        [sign * c for c in coeffs], row.rel, sign * rhs, row.int_leq[0][2]
    )


def _spec_to_json(kind, spec):
    if kind == "flip":
        return {"n": spec.n, "J": sorted(spec.J)}
    if kind == "embed":
        return {
            "n": spec.n,
            "zeros": spec.zeros,
            "ones": spec.ones,
            "positions": list(spec.positions),
        }
    if kind == "dup":
        return {"n": spec.n, "tuple": list(spec.indices)}
    if kind == "compose":
        outer, inner = spec
        return {"outer": outer.to_json(), "inner": inner.to_json()}
    return None


def _at(path, name):
    return f"{path}.{name}" if path else name


_KINDS = ("raw", "flip", "embed", "dup", "compose")


def _spec_from_json(kind, obj, path):
    if kind == "raw":
        return None
    if not isinstance(obj, dict):
        raise MalformedInput(f"{path}: a {kind!r} map needs a spec object, not {obj!r}")
    if kind == "compose":
        return tuple(AffineMap.from_json(obj.get(side), _at(path, side))
                     for side in ("outer", "inner"))

    def num(name):
        with json_field(_at(path, name)):
            return integer(obj[name])

    def nums(name):
        with json_field(_at(path, name)):
            return parse_list(obj[name], _at(path, name), integer)

    if kind == "flip":
        return FlipSpec(num("n"), frozenset(nums("J")))
    if kind == "embed":
        return EmbedSpec(num("n"), num("zeros"), num("ones"), nums("positions"))
    return DupSpec(num("n"), nums("tuple"))
