import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unitpack import units
from unitpack.errors import (
    DimensionMismatch,
    DivisionByZero,
    EmptyExpression,
    OutOfRange,
    UnitSyntaxError,
    UnknownUnit,
)

# Independent oracle for the derived-unit check: dimension vectors
# written out by hand, order (length, mass, time, current, temperature,
# amount, luminous intensity).
HAND_DIMS = {
    "V": (2, 1, -3, -1, 0, 0, 0),
    "Ohm": (2, 1, -3, -2, 0, 0, 0),
    "K": (0, 0, 0, 0, 1, 0, 0),
}


# -------------------------------
# parse_unit
# -------------------------------

def test_parse_mv_scale_and_dims():
    mv = units.parse_unit("mV")
    assert mv.scale == Fraction(1, 1000)
    assert mv.dims == units.parse_unit("V").dims


def test_parse_kelvin_base_unit():
    k = units.parse_unit("K")
    assert k.scale == Fraction(1)
    assert k.dims.exponents == HAND_DIMS["K"]


def test_parse_compound_equals_volt():
    # oracle: expand V := kg·m²·s⁻³·A⁻¹ by hand and compare vectors
    compound = units.parse_unit("kg*m^2/s^3/A")
    assert compound.dims.exponents == HAND_DIMS["V"]
    assert compound.scale == Fraction(1)
    assert compound == units.parse_unit("V")


def test_slash_binds_single_factor():
    # a/b/c = a·b⁻¹·c⁻¹, not a/(b/c)
    u = units.parse_unit("m/s/s")
    assert u.dims.exponents == (1, 0, -2, 0, 0, 0, 0)


def test_ohm_alias_and_prefixes():
    assert units.parse_unit("Ω") == units.parse_unit("Ohm")
    assert units.parse_unit("µA") == units.parse_unit("uA")
    assert units.parse_unit("kOhm").scale == Fraction(1000)
    assert units.parse_unit("kg").scale == Fraction(1)


def test_parse_dimensionless_literal():
    one = units.parse_unit("1")
    assert one.scale == Fraction(1)
    assert one.dims.dimensionless


@pytest.mark.parametrize("bad", ["xyz", "mX", "q^2"])
def test_unknown_unit(bad):
    with pytest.raises(UnknownUnit):
        units.parse_unit(bad)


@pytest.mark.parametrize("bad", ["m**2", "m^", "*m", "m*", "m^1.5", "m//s",
                                 "m^x"])
def test_syntax_errors(bad):
    with pytest.raises(UnitSyntaxError):
        units.parse_unit(bad)


# An exponent is an int of the one number grammar: a sign, leading zeros
# and any decimal digit are allowed.
@pytest.mark.parametrize("text, expected", [
    ("m^2", "m^2"), ("m^+2", "m^2"), ("m^02", "m^2"), ("m^٢", "m^2"),
    ("m^ 2", "m^2"), ("m^-2", "1/m^2"), ("s/m^-2", "s*m^2"),
    ("m^-0", "1"),
])
def test_exponent_forms(text, expected):
    unit = units.parse_unit(text)
    assert unit == units.parse_unit(expected)
    assert unit.canonical_text == units.parse_unit(expected).canonical_text


def test_unit_equality_is_scale_and_dims():
    volt, compound = units.parse_unit("V"), units.parse_unit("kg*m^2/s^3/A")
    assert volt == compound
    assert hash(volt) == hash(compound)
    assert volt.factors != compound.factors
    assert units.parse_unit("m") != "m"
    assert "m" != units.parse_unit("m")
    assert units.parse_unit("mV") != units.parse_unit("V")
    assert units.parse_unit("Hz") != units.parse_unit("s")
    assert len({volt, compound, units.parse_unit("W/A")}) == 1


@pytest.mark.parametrize("empty", ["", "   ", "\t", None])
def test_empty_expression(empty):
    with pytest.raises(EmptyExpression):
        units.parse_unit(empty)


@pytest.mark.parametrize("bad", [1, 5.0, True, ["m"], {"m": 1}])
def test_non_string_unit_is_syntax_error(bad):
    with pytest.raises(UnitSyntaxError):
        units.parse_unit(bad)


def test_parse_is_cached_but_failures_are_not():
    assert units.parse_unit("mV") is units.parse_unit("mV")
    for _ in range(2):
        with pytest.raises(UnknownUnit):
            units.parse_unit("xyz")
        with pytest.raises(UnitSyntaxError):
            units.parse_unit("m^")


# -------------------------------
# conversion_factor
# -------------------------------

def test_factor_mv_to_v():
    factor = units.conversion_factor(units.parse_unit("mV"),
                                     units.parse_unit("V"))
    assert factor == Fraction(1, 1000)


def test_factor_identity():
    k = units.parse_unit("K")
    assert units.conversion_factor(k, k) == 1


def test_factor_dimension_mismatch_reports_both():
    with pytest.raises(DimensionMismatch) as excinfo:
        units.conversion_factor(units.parse_unit("mV"), units.parse_unit("K"))
    message = str(excinfo.value)
    assert "mV" in message and "K" in message


# -------------------------------
# quantity arithmetic
# -------------------------------

def test_ohms_law_quotient():
    # (1×10⁻³ V) / (5×10⁻³ A) = 0.2 V/A, reported as 0.2 Ohm
    u = units.Quantity(1.0, units.parse_unit("mV"))
    i = units.Quantity(5.0, units.parse_unit("mA"))
    r = units.convert_to(units.quantity_div(u, i), units.parse_unit("Ohm"))
    assert math.isclose(r.magnitude, 0.2, rel_tol=1e-12)


def test_self_division_is_dimensionless():
    q = units.Quantity(3.5, units.parse_unit("mV"))
    ratio = units.quantity_div(q, q)
    assert ratio.magnitude == 1.0
    assert ratio.unit.dims.dimensionless


def test_area_from_product():
    a = units.Quantity(2.0, units.parse_unit("m"))
    b = units.Quantity(3.0, units.parse_unit("m"))
    product = units.quantity_mul(a, b)
    assert product.magnitude == 6.0
    assert product.unit == units.parse_unit("m^2")


def test_division_by_zero_magnitude():
    a = units.Quantity(1.0, units.parse_unit("V"))
    b = units.Quantity(0.0, units.parse_unit("A"))
    with pytest.raises(DivisionByZero):
        units.quantity_div(a, b)


def test_quantity_addition_uses_left_unit():
    a = units.Quantity(1.0, units.parse_unit("V"))
    b = units.Quantity(500.0, units.parse_unit("mV"))
    total = a + b
    assert total.unit == units.parse_unit("V")
    assert math.isclose(total.magnitude, 1.5, rel_tol=1e-12)
    with pytest.raises(DimensionMismatch):
        a + units.Quantity(1.0, units.parse_unit("K"))


def test_quantity_subtraction_uses_left_unit():
    a = units.Quantity(1.0, units.parse_unit("V"))
    difference = a - units.Quantity(500.0, units.parse_unit("mV"))
    assert difference == units.Quantity(0.5, units.parse_unit("V"))
    assert str(difference) == "0.5 V"
    with pytest.raises(DimensionMismatch):
        a - units.Quantity(1.0, units.parse_unit("K"))


def test_a_unit_renders_as_its_canonical_text():
    unit = units.parse_unit("kg*m^2/s^3/A")
    assert str(unit) == "kg*m^2*s^-3*A^-1"
    assert repr(unit) == "UnitExpr('kg*m^2*s^-3*A^-1')"
    assert str(units.parse_unit("1")) == "1"


def test_quantity_functions_match_the_methods():
    q = units.Quantity(1.5, units.parse_unit("mV"))
    r = units.Quantity(3.0, units.parse_unit("mA"))
    pairs = [(units.convert_to(q, "uV"), q.to("uV")),
             (units.convert_to(q, units.parse_unit("V")),
              q.to(units.parse_unit("V"))),
             (units.quantity_mul(q, r), q * r),
             (units.quantity_div(q, r), q / r)]
    for by_function, by_method in pairs:
        assert by_function == by_method
        assert str(by_function) == str(by_method)
    zero = units.Quantity(0.0, units.parse_unit("A"))
    for divide in (units.quantity_div, operator.truediv):
        with pytest.raises(DivisionByZero) as info:
            divide(q, zero)
        assert info.value.code == "DIVISION_BY_ZERO"


# -------------------------------
# convert_to
# -------------------------------

def test_convert_v_to_mv():
    q = units.Quantity(0.001, units.parse_unit("V"))
    assert math.isclose(q.to("mV").magnitude, 1.0, rel_tol=1e-12)


def test_convert_identity():
    q = units.Quantity(275.0, units.parse_unit("K"))
    assert q.to("K").magnitude == 275.0


def test_convert_v_per_a_to_ohm():
    q = units.Quantity(0.2, units.parse_unit("V/A"))
    assert math.isclose(q.to("Ohm").magnitude, 0.2, rel_tol=1e-12)


def test_apply_factor_keeps_integral_ints():
    assert units.apply_factor(5, Fraction(1000)) == 5000
    assert type(units.apply_factor(5, Fraction(1000))) is int
    assert units.apply_factor(5, Fraction(1, 1000)) == 0.005
    assert type(units.apply_factor(5, Fraction(1, 1000))) is float


def test_parse_quantity():
    q = units.parse_quantity("5 mA")
    assert q.magnitude == 5.0
    assert q.unit == units.parse_unit("mA")
    assert units.parse_quantity("-1.5e2 kOhm").magnitude == -150.0
    with pytest.raises(UnitSyntaxError):
        units.parse_quantity("5")


@pytest.mark.parametrize("text, magnitude, unit", [
    ("1e3m", 1000.0, "m"),
    ("5mA", 5.0, "mA"),
    (".5 V", 0.5, "V"),
])
def test_parse_quantity_splits_magnitude_from_unit(text, magnitude, unit):
    q = units.parse_quantity(text)
    assert (q.magnitude, q.unit) == (magnitude, units.parse_unit(unit))


@pytest.mark.parametrize("value", [5, 1.5, None, ["5 mA"]])
def test_parse_quantity_rejects_a_non_string(value):
    with pytest.raises(UnitSyntaxError,
                       match="quantity must be a string") as excinfo:
        units.parse_quantity(value)
    assert excinfo.value.code == "UNIT_SYNTAX"


def test_parse_quantity_exponent_needs_digits():
    # "2em" is 2 of the unit "em", not an exponent
    with pytest.raises(UnknownUnit):
        units.parse_quantity("2em")


# -------------------------------
# properties
# -------------------------------

_SYMBOLS = sorted(units._UNITS)
_PREFIXES = [""] + sorted(units._PREFIXES)

_factor_st = st.tuples(st.sampled_from(_PREFIXES), st.sampled_from(_SYMBOLS),
                       st.integers(min_value=-3, max_value=3))


def _compose(factors, operators) -> str:
    parts = []
    for i, (prefix, symbol, exp) in enumerate(factors):
        token = prefix + symbol
        if exp != 1:
            token += f"^{exp}"
        if i == 0:
            parts.append(token)
        else:
            parts.append(operators[i - 1] + token)
    return "".join(parts)


@st.composite
def unit_texts(draw):
    factors = draw(st.lists(_factor_st, min_size=1, max_size=4))
    operators = draw(st.lists(st.sampled_from("*/"),
                              min_size=len(factors) - 1,
                              max_size=len(factors) - 1))
    return _compose(factors, operators)


@settings(max_examples=300, deadline=None)
@given(unit_texts())
def test_roundtrip_parse_render(text):
    parsed = units.parse_unit(text)
    again = units.parse_unit(parsed.canonical_text)
    assert again == parsed
    assert again.canonical_text == parsed.canonical_text


@settings(max_examples=200, deadline=None)
@given(unit_texts(), st.sampled_from(_PREFIXES), st.sampled_from(_PREFIXES))
def test_factor_inverse_and_triangle(text, p1, p2):
    # same dims by construction: prefix variations of one expression
    base = units.parse_unit(text)
    a = units.UnitExpr(scale=base.scale * units._PREFIXES.get(p1, Fraction(1)),
                       dims=base.dims, factors=base.factors)
    b = units.UnitExpr(scale=base.scale * units._PREFIXES.get(p2, Fraction(1)),
                       dims=base.dims, factors=base.factors)
    assert units.conversion_factor(a, b) * units.conversion_factor(b, a) == 1
    assert units.conversion_factor(a, base) == \
        units.conversion_factor(a, b) * units.conversion_factor(b, base)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6),
       st.floats(min_value=1e-6, max_value=1e6),
       unit_texts(), unit_texts())
def test_div_then_mul_restores_magnitude(mag_a, mag_b, text_a, text_b):
    a = units.Quantity(mag_a, units.parse_unit(text_a))
    b = units.Quantity(mag_b, units.parse_unit(text_b))
    restored = units.quantity_mul(units.quantity_div(a, b), b)
    assert math.isclose(restored.magnitude, a.magnitude, rel_tol=1e-12)
    assert restored.unit.dims == a.unit.dims


@pytest.mark.parametrize("bad", ["m**2", "*m", "m*", "m* *s"])
def test_a_missing_factor_is_an_empty_factor(bad):
    with pytest.raises(UnitSyntaxError, match="empty factor") as info:
        units.parse_unit(bad)
    assert info.value.code == "UNIT_SYNTAX"


@pytest.mark.parametrize("bad", ["km^100", "m^-100", "m^0100", "m^99*m",
                                 "s^-99/s", "m^" + "9" * 5000],
                         ids=lambda text: text[:12])
def test_an_exponent_beyond_99_is_a_syntax_error(bad):
    with pytest.raises(UnitSyntaxError, match="exponent out of range"):
        units.parse_unit(bad)


@pytest.mark.parametrize("text", ["km^99", "m^-99", "m^0099", "m^99*m/m",
                                  "m^99*m^99/m^99"])
def test_an_exponent_up_to_99_parses(text):
    parsed = units.parse_unit(text)
    assert units.parse_unit(parsed.canonical_text) == parsed


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PREFIXES),
                          st.sampled_from(_SYMBOLS),
                          st.integers(min_value=-150, max_value=150)),
                min_size=1, max_size=4),
       st.lists(st.sampled_from("*/"), min_size=3, max_size=3))
def test_a_parsed_unit_always_parses_again(factors, operators):
    try:
        parsed = units.parse_unit(_compose(factors, operators))
    except UnitSyntaxError as exc:
        assert "exponent out of range" in str(exc)
        return
    assert units.parse_unit(parsed.canonical_text) == parsed


def test_a_conversion_beyond_the_float_range_is_out_of_range():
    with pytest.raises(OutOfRange) as info:
        units.convert_to(units.parse_quantity("1e308 km"), "mm")
    assert info.value.code == "OUT_OF_RANGE"


@pytest.mark.parametrize("value, factor", [
    (1e305, Fraction(10**6)),
    (10**400 + 1, Fraction(1, 1000)),
    (1.0, Fraction(10**400)),
], ids=["float", "int", "factor"])
def test_apply_factor_beyond_the_float_range_is_out_of_range(value, factor):
    with pytest.raises(OutOfRange):
        units.apply_factor(value, factor)


def test_apply_factor_keeps_infinite_and_nan_values():
    assert units.apply_factor(math.inf, Fraction(10**400)) == math.inf
    assert units.apply_factor(-math.inf, Fraction(1, 3)) == -math.inf
    assert math.isnan(units.apply_factor(math.nan, Fraction(7, 3)))


@pytest.mark.parametrize("op, a, b", [
    (units.unit_mul, "m^99", "m"),
    (units.unit_mul, "s^-60", "s^-40"),
    (units.unit_div, "m^99", "m^-1"),
    (units.unit_div, "A^-50", "A^50"),
], ids=["mul", "mul-negative", "div", "div-negative"])
def test_a_merged_exponent_beyond_99_is_out_of_range(op, a, b):
    with pytest.raises(OutOfRange) as info:
        op(units.parse_unit(a), units.parse_unit(b))
    assert info.value.code == "OUT_OF_RANGE"


def test_a_merged_exponent_beyond_99_names_its_symbol():
    with pytest.raises(OutOfRange) as info:
        units.unit_mul(units.parse_unit("m^99"), units.parse_unit("m"))
    assert (info.value.code, str(info.value)) == (
        "OUT_OF_RANGE", "exponent 100 of 'm' is beyond 99 in magnitude")
    with pytest.raises(UnitSyntaxError) as info:
        units.parse_unit("m^99*m")
    assert (info.value.code, str(info.value)) == (
        "UNIT_SYNTAX", "exponent out of range in unit expression 'm^99*m': "
        "each exponent, written or after like symbols merge, is at most 99 "
        "in magnitude")


def test_quantity_products_keep_the_exponent_bound():
    a = units.Quantity(2.0, units.parse_unit("m^60"))
    with pytest.raises(OutOfRange):
        a * a
    with pytest.raises(OutOfRange):
        a / units.Quantity(2.0, units.parse_unit("m^-60"))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_PREFIXES),
                          st.sampled_from(_SYMBOLS),
                          st.integers(min_value=-99, max_value=99)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.sampled_from(_PREFIXES),
                          st.sampled_from(_SYMBOLS),
                          st.integers(min_value=-99, max_value=99)),
                min_size=1, max_size=3),
       st.sampled_from([units.unit_mul, units.unit_div]))
def test_a_product_or_quotient_always_parses_again(left, right, op):
    try:
        a = units.parse_unit(_compose(left, "**"))
        b = units.parse_unit(_compose(right, "**"))
    except UnitSyntaxError:
        return
    try:
        combined = op(a, b)
    except OutOfRange:
        return
    assert units.parse_unit(combined.canonical_text) == combined
