"""Helpers for exact rational values and their "p/q" string form.

Every number that crosses a file-format boundary is a string "p" or "p/q",
read with ``rat`` into a ``fractions.Fraction``.  Inside the program rows
are coprime integer rows (``LinearConstraint.int_leq``), made once;
``Fraction`` is built for file output, certificates, LP points and values,
and the few checks that are stated in rationals.  ``clear_denominators``
scales a rational vector to coprime integers and ``point_to_ints`` puts a
point over its least common denominator.
"""

from fractions import Fraction
from math import gcd

from .errors import MalformedInput, json_field


def rat(value) -> Fraction:
    """Parse a rational from an int, Fraction, or a "p/q" / "p" string."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:  # a bool is refused, not read as 0 or 1
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(_digits(value))
    raise TypeError(f"not a rational: {value!r}")


def integer(value) -> int:
    """Parse an integer from an int or a "p" string; a float, a bool or a
    fraction is refused, not truncated."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        return int(_digits(value))
    raise TypeError(f"not an integer: {value!r}")


def _digits(text):
    # int() and Fraction() read "1_0" as 10; a file's numbers carry no "_".
    if "_" in text:
        raise ValueError(f"digit separator in number: {text!r}")
    return text.strip()


def parse_list(values, path, parse=rat):
    """A JSON list read entry by entry with ``parse``; a non-list or a bad
    entry raises MalformedInput naming ``path`` or ``path[i]``."""
    if not isinstance(values, list):
        raise MalformedInput(f"{path}: not a list: {values!r}")
    out = []
    for i, v in enumerate(values):
        with json_field(f"{path}[{i}]"):
            out.append(parse(v))
    return tuple(out)


def rat_str(value) -> str:
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rat_vector(values):
    return tuple(rat(v) for v in values)


def dot(a, b):
    if len(a) != len(b):
        raise ValueError("dot: length mismatch")
    total = Fraction(0)
    for x, y in zip(a, b):
        total += x * y
    return total


def point_to_ints(values):
    """A rational vector as integer numerators over their least common
    denominator: (nums, den) with den > 0 and values == [v / den for v in nums].
    """
    den = 1
    for v in values:
        d = v.denominator
        den = den * d // gcd(den, d)
    return [v.numerator * (den // v.denominator) for v in values], den


def clear_denominators(values):
    """Scale a rational vector to coprime integers; returns (ints, scale).

    ``values`` holds ints and Fractions.  ``scale`` is the positive rational
    with ints == [v * scale for v in values].
    """
    ints, lcm = point_to_ints(values)
    g = gcd(*ints)
    if g > 1:
        return [k // g for k in ints], Fraction(lcm, g)
    return ints, Fraction(lcm)
