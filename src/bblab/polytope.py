"""Linear constraints held as coprime integer rows, and polytopes in [0,1]^n.

A ``LinearConstraint`` is stored as its ``<=`` form scaled to coprime
integers, once, when it is made; every check, scan and LP reads those ints.
The rational coefficients and right-hand side of the row as given are a view
built from the ints on demand: file output, ``as_leq`` pairs, and the rows
that ``row_for_ref`` hands to certificate checks.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DimensionMismatch, MalformedInput, TooLargeForExplicit, json_field
from .rationals import (
    integer,
    parse_list,
    point_to_ints,
    rat,
    rat_str,
    rat_vector,
)

LE, GE, EQ = "<=", ">=", "="
_RELATIONS = (LE, GE, EQ)


class LinearConstraint:
    """One row ``coeffs . x  rel  rhs`` with exact rational data.

    Stored as ``int_leq``: one (coeffs, rhs, scale) triple per ``<=`` pair
    of ``as_leq()``, where ``coeffs`` is a tuple of coprime ints, ``rhs`` an
    int and ``scale`` the positive rational (an int when integral) with
    ``coeffs == pair_coeffs * scale`` and ``rhs == pair_rhs * scale``.  An
    equality row has the ``<=`` side first, then its negation.  ``coeffs``
    and ``rhs`` as Fractions are a view of the ints, built on first use.
    Rows are immutable, and equal exactly when their rational data are.
    """

    __slots__ = ("rel", "int_leq", "_view")

    def __init__(self, coeffs, rel, rhs):
        """The row from its rational data: ints, Fractions or "p/q" strings."""
        nums, den = point_to_ints([v if type(v) is int else rat(v) for v in (*coeffs, rhs)])
        self._store(nums[:-1], rel, nums[-1], den)

    @classmethod
    def from_ints(cls, coeffs, rel, rhs, scale=1):
        """The row ``coeffs / scale  rel  rhs / scale`` from int ``coeffs``
        and ``rhs`` and a positive int or Fraction ``scale``; no Fraction is
        built unless the common factor leaves ``scale`` fractional."""
        row = cls.__new__(cls)
        row._store(coeffs, rel, rhs, scale)
        return row

    def _store(self, coeffs, rel, rhs, scale):
        if rel not in _RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if rel == GE:
            coeffs, rhs = [-v for v in coeffs], -rhs
        g = gcd(*coeffs, rhs)
        if g > 1:
            coeffs, rhs = [v // g for v in coeffs], rhs // g
            scale = Fraction(scale, g)
        elif g == 0:
            scale = 1  # 0 . x <= 0, however it was scaled
        if scale.denominator == 1:
            scale = scale.numerator
        le = (tuple(coeffs), rhs, scale)
        leq = (le, (tuple(-v for v in le[0]), -rhs, scale)) if rel == EQ else (le,)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "int_leq", leq)
        object.__setattr__(self, "_view", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"LinearConstraint is immutable: cannot set {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rel == other.rel and self.int_leq[0] == other.int_leq[0]

    def __hash__(self):
        return hash((self.coeffs, self.rel, self.rhs))

    def __repr__(self):
        return f"LinearConstraint(coeffs={self.coeffs!r}, rel={self.rel!r}, rhs={self.rhs!r})"

    def _fractions(self):
        if self._view is None:
            coeffs, rhs, scale = self.int_leq[0]
            p, q = (-scale.numerator if self.rel == GE else scale.numerator), scale.denominator
            view = (tuple(Fraction(v * q, p) for v in coeffs), Fraction(rhs * q, p))
            object.__setattr__(self, "_view", view)
        return self._view

    @property
    def coeffs(self):
        """The coefficients as given, as a tuple of Fractions."""
        return self._fractions()[0]

    @property
    def rhs(self):
        """The right-hand side as given, as a Fraction."""
        return self._fractions()[1]

    @property
    def dim(self):
        return len(self.int_leq[0][0])

    def holds_at(self, nums, den) -> bool:
        """Does the row hold at the point nums/den (ints, den > 0)?"""
        for coeffs, rhs, _ in self.int_leq:
            if sum(a * v for a, v in zip(coeffs, nums) if v) > rhs * den:
                return False
        return True

    def as_leq(self):
        """This row as a list of (coeffs, rhs) Fraction pairs meaning
        coeffs.x <= rhs."""
        coeffs, rhs = self._fractions()
        if self.rel == LE:
            return [(coeffs, rhs)]
        if self.rel == GE:
            return [(tuple(-c for c in coeffs), -rhs)]
        return [
            (coeffs, rhs),
            (tuple(-c for c in coeffs), -rhs),
        ]

    def normalized(self):
        """Canonical scaling-invariant form, for row-set comparisons.

        >= rows are rewritten as <=; the row is then scaled so all entries are
        coprime integers (equality rows additionally get a positive leading
        entry).  Returns a (coeffs, rel, rhs) tuple of ints.
        """
        coeffs, rhs, _ = self.int_leq[0]
        if self.rel != EQ:
            return coeffs, LE, rhs
        lead = next((v for v in (*coeffs, rhs) if v != 0), 0)
        if lead < 0:
            coeffs, rhs, _ = self.int_leq[1]
        return coeffs, EQ, rhs

    def to_json(self):
        coeffs, rhs = self._fractions()
        return {
            "coeffs": [rat_str(c) for c in coeffs],
            "rel": self.rel,
            "rhs": rat_str(rhs),
        }

    @classmethod
    def from_json(cls, obj, path="row"):
        """Parse a row; a malformed field raises MalformedInput naming ``path``."""
        with json_field(f"{path}.coeffs"):
            coeffs = parse_list(obj["coeffs"], f"{path}.coeffs")
        with json_field(f"{path}.rhs"):
            rhs = rat(obj["rhs"])
        with json_field(f"{path}.rel"):
            return cls(coeffs, obj["rel"], rhs)


@dataclass(frozen=True)
class Polytope:
    """A polytope in [0,1]^n given by explicit rows and optionally a lazy
    separation oracle for an exponential row family.

    The oracle, when present, must agree exactly with the family it stands
    for: ``find_violated(x)`` returns a violated family row or None.
    """

    dim: int
    rows: tuple = ()
    oracle: object = None
    provenance: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        rows = tuple(self.rows)
        for r in rows:
            if r.dim != self.dim:
                raise DimensionMismatch(
                    f"row of length {r.dim} in polytope of dim {self.dim}"
                )
        object.__setattr__(self, "rows", rows)

    def with_rows(self, extra):
        """A copy with additional explicit rows appended (used for atoms)."""
        return Polytope(self.dim, self.rows + tuple(extra), oracle=self.oracle)

    def contains(self, point) -> bool:
        point = rat_vector(point)
        if len(point) != self.dim:
            raise DimensionMismatch("point/polytope dimension mismatch")
        nums, den = point_to_ints(point)
        if not all(0 <= v <= den for v in nums):
            return False
        if not all(r.holds_at(nums, den) for r in self.rows):
            return False
        if self.oracle is not None and self.oracle.find_violated(point) is not None:
            return False
        return True

    def int_system(self):
        """The canonical <=-form row system, as coprime integer rows.

        A list of (ref, coeffs, rhs, scale), each the ``int_leq`` triple its
        row stores.  refs: ("row", i) for a <=/>= explicit
        row, ("row", i, "le"/"ge") for the two sides of an equality, then
        ("box_hi", j) for x_j <= 1, a unit row of plain ints with scale 1.
        The box's -x_j <= 0 rows (ref ("box_lo", j)) are left out, since the
        LP layer keeps x >= 0 implicit; oracle rows are not enumerated, and
        certificates carry them inline.
        """
        out = []
        for i, row in enumerate(self.rows):
            forms = row.int_leq
            if row.rel == EQ:
                out.append((("row", i, "le"), *forms[0]))
                out.append((("row", i, "ge"), *forms[1]))
            else:
                out.append((("row", i), *forms[0]))
        for j in range(self.dim):
            e = tuple(int(t == j) for t in range(self.dim))
            out.append((("box_hi", j), e, 1, 1))
        return out

    def row_for_ref(self, ref):
        """Resolve a certificate reference to a (coeffs, rhs) <=-form pair
        of Fractions: the row's own ``as_leq()`` pair, not its ints.

        refs are those of ``int_system``, ("box_lo", j) for -x_j <= 0, and
        ("oracle", row) for an activated row of the oracle family, which
        the certificate carries as a LinearConstraint.
        """
        kind = ref[0]
        if kind == "row":
            row = self.rows[ref[1]]
            pairs = row.as_leq()
            if row.rel == EQ:
                return pairs[0] if ref[2] == "le" else pairs[1]
            return pairs[0]
        if kind in ("box_hi", "box_lo"):  # x_j <= 1 or -x_j <= 0
            sign = 1 if kind == "box_hi" else -1
            unit = tuple(Fraction(sign * int(t == ref[1])) for t in range(self.dim))
            return unit, Fraction(int(kind == "box_hi"))
        if kind == "oracle":
            row = ref[1]
            if self.oracle is None or not self.oracle.is_family_row(row):
                raise ValueError("certificate cites a row outside the oracle family")
            return row.as_leq()[0]
        raise ValueError(f"unknown row reference {ref!r}")

    def materialized(self):
        """An explicit copy with all oracle rows expanded into ``rows``."""
        if self.oracle is None:
            return self
        extra = self.oracle.explicit_rows()
        if extra is None:
            raise TooLargeForExplicit("oracle family cannot be expanded")
        return Polytope(self.dim, self.rows + tuple(extra))

    def to_json(self):
        obj = {
            "dim": self.dim,
            "box": True,
            "rows": [r.to_json() for r in self.rows],
        }
        if self.oracle is not None:
            obj["oracle"] = self.oracle.to_json()
        if self.provenance:
            obj["provenance"] = self.provenance
        return obj

    @classmethod
    def from_json(cls, obj):
        """Parse a polytope file; a malformed field raises MalformedInput
        naming its JSON path, e.g. ``rows[0].coeffs``.  ``box`` must be
        true or absent: every polytope lies in [0,1]^n."""
        if not isinstance(obj, dict):
            raise MalformedInput("polytope: not a JSON object")
        oracle = None
        if "oracle" in obj:
            from .families import oracle_from_json

            with json_field("oracle"):
                oracle = oracle_from_json(obj["oracle"])
        if obj.get("box", True) is not True:
            raise MalformedInput(f"box: must be true or absent: {obj['box']!r}")
        with json_field("dim"):
            dim = integer(obj["dim"])
        if oracle is not None and oracle.n != dim:
            raise MalformedInput(f"oracle: family over {oracle.n} coordinates, not dim {dim}")
        raw_rows = obj.get("rows", [])
        if not isinstance(raw_rows, list):
            raise MalformedInput(f"rows: not a list: {raw_rows!r}")
        rows = tuple(
            LinearConstraint.from_json(r, f"rows[{i}]") for i, r in enumerate(raw_rows)
        )
        return cls(dim, rows, oracle=oracle, provenance=obj.get("provenance"))


def point_to_json(point):
    return [rat_str(x) for x in point]
