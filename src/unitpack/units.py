"""Unit expressions, dimensional analysis, and unit-aware quantities.

Grammar (astropy-style notation, fixed whitelist):

    expr    := factor (("*" | "/") factor)*
    factor  := SYMBOL ("^" INT)?          INT may be negative
    SYMBOL  := [prefix] base              e.g. "mV", "kg", "Ohm"

``*`` and ``/`` are left-associative and ``/`` binds to the single
following factor, so ``kg*m^2/s^3/A`` means kg·m²·s⁻³·A⁻¹.  The literal
``1`` denotes the dimensionless unit.  ``Ω`` is accepted as an alias for
``Ohm`` and ``µ``/``μ`` for the micro prefix ``u``.

Scales are exact rationals (`fractions.Fraction`), so prefix chains such
as mV→V→kV compose without floating-point drift.  Dimensions are vectors
of integer exponents over the 7 SI base dimensions.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    DivisionByZero,
    EmptyExpression,
    OutOfRange,
    UnitSyntaxError,
    UnknownUnit,
)

_DIM_NAMES = ("length", "mass", "time", "current", "temperature",
              "amount", "luminous_intensity")


@dataclass(frozen=True)
class Dimension:
    """Exponent vector over the SI base dimensions.

    The zero vector is dimensionless; equality is component-wise.
    """

    exponents: tuple[int, int, int, int, int, int, int] = (0,) * 7

    def __add__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a + b for a, b in
                               zip(self.exponents, other.exponents)))

    def __sub__(self, other: "Dimension") -> "Dimension":
        return Dimension(tuple(a - b for a, b in
                               zip(self.exponents, other.exponents)))

    def __mul__(self, k: int) -> "Dimension":
        return Dimension(tuple(a * k for a in self.exponents))

    @property
    def dimensionless(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __str__(self) -> str:
        parts = [f"{name}^{e}" if e != 1 else name
                 for name, e in zip(_DIM_NAMES, self.exponents) if e != 0]
        return "·".join(parts) if parts else "dimensionless"


DIMENSIONLESS = Dimension()


def _dim(length=0, mass=0, time=0, current=0, temperature=0, amount=0,
         luminous=0) -> Dimension:
    return Dimension((length, mass, time, current, temperature, amount,
                      luminous))


# Whitelisted symbols.  `g` (not kg) is the prefixable mass symbol; its
# scale is 1/1000 relative to the coherent SI unit kg, so kg = k·g has
# scale 1 and V ≡ kg·m²·s⁻³·A⁻¹ needs no correction factor.
_UNITS: dict[str, tuple[Fraction, Dimension]] = {
    "s":   (Fraction(1), _dim(time=1)),
    "m":   (Fraction(1), _dim(length=1)),
    "g":   (Fraction(1, 1000), _dim(mass=1)),
    "A":   (Fraction(1), _dim(current=1)),
    "K":   (Fraction(1), _dim(temperature=1)),
    "mol": (Fraction(1), _dim(amount=1)),
    "cd":  (Fraction(1), _dim(luminous=1)),
    "V":   (Fraction(1), _dim(mass=1, length=2, time=-3, current=-1)),
    "Ohm": (Fraction(1), _dim(mass=1, length=2, time=-3, current=-2)),
    "W":   (Fraction(1), _dim(mass=1, length=2, time=-3)),
    "Hz":  (Fraction(1), _dim(time=-1)),
    "N":   (Fraction(1), _dim(mass=1, length=1, time=-2)),
    "J":   (Fraction(1), _dim(mass=1, length=2, time=-2)),
    "Pa":  (Fraction(1), _dim(mass=1, length=-1, time=-2)),
    "C":   (Fraction(1), _dim(time=1, current=1)),
    "F":   (Fraction(1), _dim(mass=-1, length=-2, time=4, current=2)),
    "S":   (Fraction(1), _dim(mass=-1, length=-2, time=3, current=2)),
}

_PREFIXES: dict[str, Fraction] = {
    "y": Fraction(1, 10**24), "z": Fraction(1, 10**21),
    "a": Fraction(1, 10**18), "f": Fraction(1, 10**15),
    "p": Fraction(1, 10**12), "n": Fraction(1, 10**9),
    "u": Fraction(1, 10**6),  "m": Fraction(1, 10**3),
    "c": Fraction(1, 100),    "d": Fraction(1, 10),
    "da": Fraction(10),       "h": Fraction(100),
    "k": Fraction(1000),      "M": Fraction(10**6),
    "G": Fraction(10**9),     "T": Fraction(10**12),
    "P": Fraction(10**15),    "E": Fraction(10**18),
    "Z": Fraction(10**21),    "Y": Fraction(10**24),
}

# Longest prefixes first so "da" is tried before "d".
_PREFIXES_BY_LENGTH = sorted(_PREFIXES, key=len, reverse=True)

# The largest magnitude of an exponent, written or merged: `m^99` parses
# and `m^100` or `m^99*m` does not, so every canonical text parses again.
MAX_EXPONENT = 99


@dataclass(frozen=True)
class UnitExpr:
    """A parsed unit: exact rational scale × dimension vector.

    Two UnitExpr values are equal iff scale and dims are equal; the
    canonical text is a normalized rendering that reparses to the same
    value.  `factors` keeps the (symbol, exponent) structure so derived
    units (products, quotients) render readably.
    """

    scale: Fraction
    dims: Dimension
    factors: tuple[tuple[str, int], ...] = field(compare=False)

    def __post_init__(self):
        if self.scale <= 0:
            raise ValueError("unit scale must be positive")

    @property
    def canonical_text(self) -> str:
        if not self.factors:
            return "1"
        return "*".join(sym if exp == 1 else f"{sym}^{exp}"
                        for sym, exp in self.factors)

    def __str__(self) -> str:
        return self.canonical_text

    def __repr__(self) -> str:
        return f"UnitExpr({self.canonical_text!r})"


def _merge_factors(factors) -> tuple[tuple[str, int], ...]:
    """Aggregate exponents per symbol, keeping first-appearance order."""
    merged: dict[str, int] = {}
    for sym, exp in factors:
        merged[sym] = merged.get(sym, 0) + exp
    return tuple((sym, exp) for sym, exp in merged.items() if exp != 0)


def _resolve_symbol(token: str) -> tuple[Fraction, Dimension]:
    if token == "1":
        return Fraction(1), DIMENSIONLESS
    if token in _UNITS:
        return _UNITS[token]
    for prefix in _PREFIXES_BY_LENGTH:
        rest = token[len(prefix):]
        if token.startswith(prefix) and rest in _UNITS:
            scale, dims = _UNITS[rest]
            return _PREFIXES[prefix] * scale, dims
    raise UnknownUnit(f"unknown unit symbol {token!r}")


def _normalize_aliases(text: str) -> str:
    return (text.replace("Ω", "Ohm").replace("Ω", "Ohm")  # U+03A9, U+2126
                .replace("µ", "u").replace("μ", "u"))     # U+00B5, U+03BC


def parse_unit(text: str) -> UnitExpr:
    """Parse a unit expression such as ``mV`` or ``kg*m^2/s^3/A``; a
    value that is neither a string nor ``None`` is a `UnitSyntaxError`.

    Results are cached: a `UnitExpr` is immutable, and a failed parse is
    not cached, so it raises again on every call.
    """
    if text is not None and not isinstance(text, str):
        raise UnitSyntaxError(
            f"unit expression must be a string, got {text!r}")
    return _parse_unit(text)


# The cache sits behind `parse_unit` so the public name stays a plain
# function, which tracing that wraps module functions can see.
@functools.lru_cache(maxsize=1024)
def _parse_unit(text: str) -> UnitExpr:
    if text is None or not text.strip():
        raise EmptyExpression("empty unit expression")
    source = _normalize_aliases(text.strip())

    # The split alternates factor text and operator; '/' negates the
    # exponent of the single factor that follows it.
    pieces = re.split(r"([*/])", source)
    factors: list[tuple[str, int]] = []
    for operator, piece in zip(("*", *pieces[1::2]), pieces[::2]):
        piece = piece.strip()
        if not piece:
            raise UnitSyntaxError(f"empty factor in unit expression {text!r}")
        symbol, exponent = _split_factor(piece, text)
        _resolve_symbol(symbol)  # an unknown symbol fails in written order
        if operator == "/":
            exponent = -exponent
        if symbol != "1":
            factors.append((symbol, exponent))
    # Powers are taken of the merged exponents, one per distinct symbol,
    # each bounded, so no exponent in the text sizes the work.
    merged = _merge_factors(factors)
    scale = Fraction(1)
    dims = DIMENSIONLESS
    for symbol, exponent in merged:
        if abs(exponent) > MAX_EXPONENT:
            raise _exponent_out_of_range(text)
        factor_scale, factor_dims = _resolve_symbol(symbol)
        scale *= factor_scale ** exponent
        dims = dims + factor_dims * exponent
    return UnitExpr(scale=scale, dims=dims, factors=merged)


def _exponent_out_of_range(source: str) -> UnitSyntaxError:
    return UnitSyntaxError(
        f"exponent out of range in unit expression {source!r}: each "
        f"exponent, written or after like symbols merge, is at most "
        f"{MAX_EXPONENT} in magnitude")


def _split_factor(piece: str, source: str) -> tuple[str, int]:
    if "^" in piece:
        symbol, _, exp_text = piece.partition("^")
        symbol = symbol.strip()
        exp_text = exp_text.strip()
        if not symbol or not re.fullmatch(_INT, exp_text):
            raise UnitSyntaxError(f"malformed factor {piece!r} in {source!r}")
        # More significant digits than 99 has is exactly |n| > 99, and
        # counting them keeps `int` (which refuses 4300) off a long text.
        if len(exp_text.lstrip("+-0")) > len(str(MAX_EXPONENT)):
            raise _exponent_out_of_range(source)
        return symbol, int(exp_text)
    return piece, 1


def conversion_factor(from_unit: UnitExpr, to_unit: UnitExpr) -> Fraction:
    """Exact factor turning magnitudes in `from_unit` into `to_unit`."""
    if from_unit.dims != to_unit.dims:
        raise DimensionMismatch(
            f"cannot convert {from_unit.canonical_text!r} [{from_unit.dims}] "
            f"to {to_unit.canonical_text!r} [{to_unit.dims}]")
    return from_unit.scale / to_unit.scale


def _bounded_factors(factors) -> tuple[tuple[str, int], ...]:
    """`_merge_factors`, where a merged exponent beyond `MAX_EXPONENT` is
    an `OutOfRange`, so the product's canonical text parses again."""
    merged = _merge_factors(factors)
    for sym, exp in merged:
        if abs(exp) > MAX_EXPONENT:
            raise OutOfRange(f"exponent {exp} of {sym!r} is beyond "
                             f"{MAX_EXPONENT} in magnitude")
    return merged


def unit_mul(a: UnitExpr, b: UnitExpr) -> UnitExpr:
    return UnitExpr(scale=a.scale * b.scale, dims=a.dims + b.dims,
                    factors=_bounded_factors(a.factors + b.factors))


def unit_div(a: UnitExpr, b: UnitExpr) -> UnitExpr:
    inverted = tuple((sym, -exp) for sym, exp in b.factors)
    return UnitExpr(scale=a.scale / b.scale, dims=a.dims - b.dims,
                    factors=_bounded_factors(a.factors + inverted))


@dataclass(frozen=True)
class Quantity:
    """A real magnitude paired with a unit."""

    magnitude: float
    unit: UnitExpr

    def to(self, target: UnitExpr | str) -> "Quantity":
        return convert_to(self, target)

    def __mul__(self, other: "Quantity") -> "Quantity":
        return quantity_mul(self, other)

    def __truediv__(self, other: "Quantity") -> "Quantity":
        return quantity_div(self, other)

    def __add__(self, other: "Quantity") -> "Quantity":
        converted = convert_to(other, self.unit)
        return Quantity(self.magnitude + converted.magnitude, self.unit)

    def __sub__(self, other: "Quantity") -> "Quantity":
        converted = convert_to(other, self.unit)
        return Quantity(self.magnitude - converted.magnitude, self.unit)

    def __str__(self) -> str:
        return f"{self.magnitude} {self.unit.canonical_text}"


def quantity_mul(a: Quantity, b: Quantity) -> Quantity:
    return Quantity(a.magnitude * b.magnitude, unit_mul(a.unit, b.unit))


def quantity_div(a: Quantity, b: Quantity) -> Quantity:
    if b.magnitude == 0:
        raise DivisionByZero("division by a zero-magnitude quantity")
    return Quantity(a.magnitude / b.magnitude, unit_div(a.unit, b.unit))


def convert_to(q: Quantity, target: UnitExpr | str) -> Quantity:
    """Re-express `q` in `target`; dims must match."""
    if isinstance(target, str):
        target = parse_unit(target)
    factor = conversion_factor(q.unit, target)
    return Quantity(apply_factor(q.magnitude, factor), target)


def apply_factor(value: int | float, factor: Fraction) -> int | float:
    """Apply an exact rational factor to a numeric cell value.

    Floats are lifted to the exact rational behind their shortest
    decimal rendering, multiplied exactly, and rounded once, so 1.05 mV
    lands on 0.00105 V rather than one ulp off.  Integer values stay
    integers when the result is integral.  A result beyond the float
    range is an `OutOfRange`; an infinite or NaN value stays as it is,
    since every factor is positive.
    """
    if isinstance(value, float):
        if not math.isfinite(value):
            return value
        exact = Fraction(Decimal(repr(value))) * factor
    else:
        exact = value * factor
        if exact.denominator == 1:
            return int(exact)
    try:
        return float(exact)
    except OverflowError:
        raise OutOfRange(f"{value!r} times {factor} is beyond the float "
                         f"range") from None


# The magnitude grammar, split by result type: an int has no ".", "e" or
# "E"; a float has one of them.  Table cells are typed by it too.
_INT = r"[+-]?\d+"
_FLOAT = r"[+-]?(?:(?:\d+\.\d+|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)"
_QUANTITY_RE = re.compile(rf"({_FLOAT}|{_INT})\s*(.+)$")


def parse_quantity(text: str) -> Quantity:
    """Parse a magnitude-with-unit string such as ``5 mA`` or ``0.2 Ohm``;
    a value that is not a string is a `UnitSyntaxError`."""
    if not isinstance(text, str):
        raise UnitSyntaxError(f"quantity must be a string, got {text!r}")
    match = _QUANTITY_RE.match(text.strip())
    if not match:
        raise UnitSyntaxError(f"cannot parse quantity {text!r}")
    return Quantity(float(match.group(1)), parse_unit(match.group(2)))
