from datetime import date

import pytest
from hypothesis import given, strategies as st

from bproc import evaluate, match_unary, parse_expr, parse_unary_test
from bproc.errors import (DateOutOfRangeError, DivisionByZeroError, FeelTypeError,
                          IndexOutOfRangeError, UndefinedValueError)
from bproc.feel import ast
from bproc.feel.values import UNDEFINED, Temporal, render_value


def ev(text, env=None):
    return evaluate(parse_expr(text), env or {})


def test_list_filter_returns_sublist_in_order():
    assert ev("[1,2,3,4][item > 2]") == [3, 4]


def test_one_based_indexing():
    assert ev("[1,2,3,4][2]") == 2
    with pytest.raises(IndexOutOfRangeError):
        ev("[1,2,3][0]")
    with pytest.raises(IndexOutOfRangeError):
        ev("[1,2,3][4]")


def test_list_membership():
    assert ev("1 in [1, 3, 5]") is True
    assert ev("2 in [1, 3, 5]") is False
    assert ev("4 in [3..10]") is True
    assert ev("3 in (3..10]") is False


def test_overlaps_before():
    assert ev("overlaps before([1..5], [4..10])") is True
    assert ev("overlaps before([4..10], [1..5])") is False
    assert ev("overlaps before([1..2], [4..10])") is False  # no overlap


def test_instance_of():
    assert ev('"1" instance of string') is True
    assert ev("1 instance of string") is False
    assert ev("1 instance of number") is True
    assert ev("true instance of boolean") is True
    assert ev("true instance of number") is False  # booleans are not numbers


def test_temporal_comparison_and_addition():
    assert ev('time("04:00:00") <= time("08:00:00")') is True
    assert ev('time("08:00:00") + time("04:00:00")') == Temporal("time", 12 * 3600)
    # wrap-around midnight
    assert ev('time("23:00:00") + time("02:00:00")') == Temporal("time", 3600)
    with pytest.raises(FeelTypeError):
        ev('date("2024-01-01") < time("08:00:00")')


def test_string_concatenation_and_length():
    assert ev('"foo" + "bar"') == "foobar"
    assert ev('length("abc")') == 3
    assert ev("length([1,2])") == 2


def test_numeric_functions():
    assert ev("abs(-3)") == 3
    assert ev("floor(2.7)") == 2
    assert ev("ceiling(2.1)") == 3
    assert ev("sqrt(9)") == pytest.approx(3.0)
    with pytest.raises(FeelTypeError):
        ev("sqrt(-1)")


def test_division_by_zero_is_an_error():
    with pytest.raises(DivisionByZeroError):
        ev("1 / 0")
    with pytest.raises(DivisionByZeroError):
        ev("1 / (2 - 2)")


def test_kind_mismatch_is_a_type_error():
    with pytest.raises(FeelTypeError):
        ev('"a" = 1')
    with pytest.raises(FeelTypeError):
        ev('1 + "a"')
    with pytest.raises(FeelTypeError):
        ev("true < false")
    with pytest.raises(FeelTypeError):
        ev("1 and true")


def test_null_checks():
    assert ev("x = null", {"x": None}) is True
    assert ev("x != null", {"x": 3}) is True
    assert ev("x = null", {"x": 3}) is False


def test_undefined_value_raises():
    with pytest.raises(UndefinedValueError):
        ev("x + 1", {"x": UNDEFINED})
    with pytest.raises(UndefinedValueError):
        ev("x = null", {"x": UNDEFINED})
    with pytest.raises(UndefinedValueError):
        ev("x > 1", {})  # unbound behaves like undefined


def test_short_circuit_spares_the_right_operand():
    assert ev("false and x > 1", {"x": UNDEFINED}) is False
    assert ev("true or x > 1", {"x": UNDEFINED}) is True


def test_context_literal_and_path():
    assert ev('{a: "bye", b: 2}') == {"a": "bye", "b": 2}
    assert ev('{a: "bye", b: 2}.b') == 2
    with pytest.raises(FeelTypeError):
        ev('{a: 1}.missing')


def test_integer_decimal_are_distinct_but_compare():
    assert ev("1 = 1.0") is True
    assert isinstance(ev("2 * 3"), int)
    assert isinstance(ev("2 * 3.0"), float)
    assert isinstance(ev("4 / 2"), float)  # division always yields a decimal


# --- properties ---------------------------------------------------------------

@given(st.lists(st.integers(-20, 20), max_size=10), st.integers(-20, 20))
def test_filter_index_duality(values, threshold):
    lst = ast.ListLit(tuple(ast.Lit(v) for v in values))
    filtered = evaluate(ast.Filter(lst, parse_expr(f"item > {threshold}")), {})
    assert filtered == [v for v in values if v > threshold]


_numeric = st.one_of(st.integers(-1000, 1000),
                     st.floats(-1000, 1000, allow_nan=False, allow_infinity=False))


@given(st.integers(-1000, 1000), _numeric, st.sampled_from(["+", "-", "*", "**"]))
def test_integer_decimal_promotion(i, d, op):
    if op == "**":  # keep powers small, positive and real-valued
        i, d = abs(i) % 5 + 1, abs(d) % 5 + 1
    mixed = evaluate(ast.BinOp(op, ast.Lit(i), ast.Lit(d)), {})
    widened = evaluate(ast.BinOp(op, ast.Lit(float(i)), ast.Lit(float(d))), {})
    assert mixed == pytest.approx(widened, abs=1e-12, rel=1e-12)


def test_power_edge_cases():
    with pytest.raises(DivisionByZeroError):
        ev("0 ** -1")
    with pytest.raises(FeelTypeError):
        ev("(0 - 8.0) ** 0.5")
    assert ev("2 ** 3") == 8
    assert ev("2 ** -1") == 0.5


_scalars = st.one_of(st.integers(-50, 50),
                     st.floats(-50, 50, allow_nan=False, allow_infinity=False),
                     st.text(max_size=5), st.booleans(), st.none())


@given(_scalars)
def test_dash_matches_every_value(value):
    assert match_unary(ast.Dash(), value) is True


def test_match_unary_kinds():
    assert match_unary(parse_unary_test("[3..10]"), 10) is True
    assert match_unary(parse_unary_test("[3..10)"), 10) is False
    assert match_unary(parse_unary_test('"xl"'), "s") is False
    assert match_unary(parse_unary_test("<= 9"), 9.0) is True
    assert match_unary(parse_unary_test("1, 3"), 3) is True
    assert match_unary(parse_unary_test("not(1)"), 2) is True
    with pytest.raises(FeelTypeError):
        match_unary(parse_unary_test('"a"'), 1)
    with pytest.raises(FeelTypeError):
        match_unary(parse_unary_test("-"), [1, 2])  # lists are not scalar


@pytest.mark.parametrize("scalar", [0, -5, date.max.toordinal() + 1])
def test_a_date_without_a_literal_renders_as_a_bproc_error(scalar):
    # parsed text never reaches such a date; a value built in code does
    with pytest.raises(DateOutOfRangeError, match=f"date ordinal {scalar} is outside"):
        render_value(Temporal("date", scalar))
    assert render_value(Temporal("date", 1)) == 'date("0001-01-01")'
