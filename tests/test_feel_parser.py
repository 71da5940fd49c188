import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import generators
from bproc import evaluate, parse_expr, parse_unary_test, render
from bproc.errors import (BprocError, DateOutOfRangeError, DivisionByZeroError, FeelSyntaxError,
                          SchemaError)
from bproc.feel import ast, compile_expr, compile_unary, infer_types, render_value, synthesize
from bproc.feel.ast import free_variables
from bproc.feel.parser import MAX_DEPTH, MAX_INT_DIGITS
from bproc.feel.render import render_unary_test
from bproc.feel.values import FeelRange, Temporal
from bproc.inputs import facts_from_expr

from reference_parser import reference_parse_expr, reference_parse_unary_test


def test_list_filter_shape():
    e = parse_expr("[1,2,3,4][item > 2]")
    assert e == ast.Filter(
        ast.ListLit((ast.Lit(1), ast.Lit(2), ast.Lit(3), ast.Lit(4))),
        ast.BinOp(">", ast.Var("item"), ast.Lit(2)))


def test_comparison_with_negative_literal():
    # pLength = -1
    e = parse_expr("pLength = -1")
    assert e == ast.BinOp("=", ast.Var("pLength"), ast.Neg(ast.Lit(1)))


def test_empty_input_is_a_syntax_error():
    with pytest.raises(FeelSyntaxError) as exc_info:
        parse_expr("")
    assert exc_info.value.column == 1


def test_error_carries_column_and_expected_set():
    with pytest.raises(FeelSyntaxError) as exc_info:
        parse_expr("1 + ")
    assert exc_info.value.column == 5
    assert "number" in exc_info.value.expected


def test_trailing_garbage_rejected():
    with pytest.raises(FeelSyntaxError):
        parse_expr("1 + 2 )")


def test_precedence_or_under_and():
    e = parse_expr("a or b and c")
    assert isinstance(e, ast.BinOp) and e.op == "or"
    assert isinstance(e.right, ast.BinOp) and e.right.op == "and"


def test_precedence_not_binds_looser_than_comparison():
    e = parse_expr("not x > 3")
    assert isinstance(e, ast.Not)
    assert isinstance(e.operand, ast.BinOp) and e.operand.op == ">"


def test_precedence_arithmetic_under_comparison():
    e = parse_expr("a + 1 < b * 2")
    assert e.op == "<"
    assert e.left.op == "+" and e.right.op == "*"


def test_power_is_right_associative():
    e = parse_expr("2 ** 3 ** 2")
    assert e.op == "**" and e.right.op == "**"


def test_range_literals_bracket_flavours():
    assert parse_expr("[1..5]") == ast.RangeLit(ast.Lit(1), ast.Lit(5), True, True)
    assert parse_expr("(1..5]") == ast.RangeLit(ast.Lit(1), ast.Lit(5), False, True)
    assert parse_expr("[1..5)") == ast.RangeLit(ast.Lit(1), ast.Lit(5), True, False)
    assert parse_expr("(1..5)") == ast.RangeLit(ast.Lit(1), ast.Lit(5), False, False)


def test_membership_and_instance_of():
    e = parse_expr("x in [1, 3, 5]")
    assert isinstance(e, ast.InTest) and isinstance(e.container, ast.ListLit)
    e = parse_expr('"1" instance of string')
    assert e == ast.InstanceOf(ast.Lit("1"), "string")


def test_temporal_literals():
    assert parse_expr('time("08:00:00")') == ast.Lit(Temporal("time", 8 * 3600))
    assert parse_expr('date("2024-01-02")').value.kind == "date"
    with pytest.raises(FeelSyntaxError):
        parse_expr('time("not a time")')


def test_two_word_builtin_call():
    e = parse_expr("overlaps before([1..5], [4..10])")
    assert isinstance(e, ast.Call) and e.name == "overlaps before"
    assert len(e.args) == 2


def test_context_and_path():
    e = parse_expr('{a: "bye", b: 2}.b')
    assert isinstance(e, ast.Path) and e.key == "b"
    assert e.base.entries[0][0] == "a"


def test_index_vs_filter_classification():
    assert isinstance(parse_expr("[1,2][2]"), ast.Index)
    assert isinstance(parse_expr("[1,2][i]"), ast.Index)  # no `item` mention
    assert isinstance(parse_expr("[1,2][item = 1]"), ast.Filter)


# --- unary tests -------------------------------------------------------------

def test_unary_test_kinds():
    assert parse_unary_test("-") == ast.Dash()
    assert parse_unary_test(" ") == ast.Dash()
    assert parse_unary_test('"xl"') == ast.EqualsConst("xl")
    t = parse_unary_test("<= 9")
    assert isinstance(t, ast.Comparison) and t.op == "<="
    t = parse_unary_test("[3..10]")
    assert t == ast.RangeTest(FeelRange(3, 10, True, True))
    t = parse_unary_test('not("a")')
    assert t == ast.Negation(ast.EqualsConst("a"))
    t = parse_unary_test('"a", "b", [1..2]')
    assert isinstance(t, ast.Disjunction) and len(t.alternatives) == 3


def test_unary_test_rejects_free_variables():
    with pytest.raises((SchemaError, Exception)):
        parse_unary_test("someVariable + 1")


def test_unary_test_render_round_trip():
    for text in ["-", '"xl"', "<= 9", "[3..10)", 'not(<= 2)', '1, 2, [4..6]']:
        test = parse_unary_test(text)
        assert parse_unary_test(render_unary_test(test)) == test


@pytest.mark.parametrize("cell, column", [
    ("< 1 +", 6), ("1, 2 +", 7), ("not(1 +)", 8), ("  1 +", 6)])
def test_a_cell_syntax_error_column_counts_from_the_cell(cell, column):
    with pytest.raises(FeelSyntaxError) as exc_info:
        parse_unary_test(cell)
    assert exc_info.value.column == column


def test_not_reads_as_a_group_only_when_the_group_is_the_whole_test():
    assert parse_unary_test("not (true)") == ast.EqualsConst(False)  # `not` applied to true
    assert parse_unary_test("not(true) = false") == ast.EqualsConst(True)
    assert parse_unary_test("not(1, <2), -") == ast.Disjunction(
        (ast.Negation(ast.Disjunction((ast.EqualsConst(1),
                                       ast.Comparison("<", ast.Lit(2))))), ast.Dash()))
    with pytest.raises(FeelSyntaxError):
        parse_unary_test("not(true) or not(false)")


@pytest.mark.parametrize("cell", ["< false and y", "false and y"])
def test_a_cell_that_names_a_variable_is_refused_even_if_it_never_reads_it(cell):
    # the operand would evaluate (`and` stops at false), but `y` would
    # become an input of the table's task with no type evidence
    for parse in (parse_unary_test, reference_parse_unary_test):
        with pytest.raises(SchemaError) as exc_info:
            parse(cell)
        assert str(exc_info.value) == f"cell {cell!r} is not a constant: " \
                                      "variable 'y' is not bound"


def test_a_cell_names_its_first_variable_and_raises_its_operand_error():
    with pytest.raises(SchemaError, match="variable 'a' is not bound"):
        parse_unary_test("< b + a")
    for cell in ("< 1 / 0", "1 / 0"):
        with pytest.raises(DivisionByZeroError, match="^division by zero$"):
            parse_unary_test(cell)


_CELL_VOCABULARY = (
    "not(", "not", "(", ")", "[", "]", "..", ",", "-", "<", "<=", ">", ">=", "=", "!=",
    "+", "*", "and", "or", "in", "0", "1", "2.5", "1e999", '"a"', '"a,b"', '"x)"',
    '"not("', '"\\""', "true", "false", "null", "x", "{k: 1}", "[1, 2]", "abs(",
    'date("2020-01-02")', "@",
)
_token_cells = st.lists(st.sampled_from([token + space for token in _CELL_VOCABULARY
                                         for space in ("", " ")]), max_size=8).map("".join)


def _rendered(test) -> str | None:
    """The cell text of a generated test; None for a date out of range, which
    the generators draw for the evaluator's sake."""
    try:
        return render_unary_test(test)
    except DateOutOfRangeError:
        return None


_rendered_cells = st.one_of(generators.unary_tests, generators.cells).map(_rendered).filter(
    lambda cell: cell is not None)


def _tree(parse, cell):
    """The cell's tree, written out so that NaN equals NaN."""
    return repr(parse(cell))


@settings(max_examples=2000, deadline=None)
@given(st.one_of(_token_cells, _rendered_cells))
def test_cells_parse_as_the_character_level_reference_parses_them(cell):
    try:
        expected = _tree(reference_parse_unary_test, cell)
    except BprocError:
        with pytest.raises(BprocError):
            parse_unary_test(cell)
    else:
        assert _tree(parse_unary_test, cell) == expected


# --- render round trip --------------------------------------------------------

_names = st.sampled_from(["x", "y", "pType", "amount", "item"])
_numbers = st.one_of(st.integers(min_value=0, max_value=999),
                     st.floats(min_value=0.0, max_value=100.0,
                               allow_nan=False, allow_infinity=False))


def _literals():
    return st.one_of(
        _numbers.map(ast.Lit),
        st.sampled_from(["", "a", "it x", 'q"t', "\\tail"]).map(ast.Lit),
        st.booleans().map(ast.Lit),
        st.just(ast.Lit(None)),
    )


def _exprs(depth: int):
    if depth <= 0:
        return st.one_of(_literals(), _names.map(ast.Var))
    sub = _exprs(depth - 1)
    return st.one_of(
        _literals(),
        _names.map(ast.Var),
        st.tuples(st.sampled_from(["+", "-", "*", "/", "**", "<", "<=", ">", ">=",
                                   "=", "!=", "and", "or"]), sub, sub)
        .map(lambda t: ast.BinOp(*t)),
        sub.map(ast.Neg),
        sub.map(ast.Not),
        st.lists(sub, max_size=3).map(lambda xs: ast.ListLit(tuple(xs))),
        st.tuples(sub, sub).map(lambda t: ast.InTest(*t)),
        st.tuples(sub, st.sampled_from(["string", "number", "boolean"]))
        .map(lambda t: ast.InstanceOf(*t)),
        st.tuples(st.integers(1, 3).map(ast.Lit), st.integers(4, 9).map(ast.Lit),
                  st.booleans(), st.booleans()).map(lambda t: ast.RangeLit(*t)),
        st.tuples(sub, st.sampled_from(["k", "key2"]))
        .map(lambda t: ast.Path(t[0], t[1])),
        st.lists(st.tuples(st.sampled_from(["a", "b"]), sub), max_size=2)
        .map(lambda kvs: ast.ContextLit(tuple(dict(kvs).items()))),
        st.tuples(sub, st.integers(1, 3).map(ast.Lit)).map(lambda t: ast.Index(*t)),
        st.tuples(sub, st.sampled_from(["abs", "floor", "sqrt", "length"]))
        .map(lambda t: ast.Call(t[1], (t[0],))),
    )


@given(_exprs(3))
def test_render_parse_round_trip(expr):
    assert parse_expr(render(expr)) == expr


@pytest.mark.parametrize("key", ["plain", "_x1", "and", "true", "a b", "", "1st", 'q"t',
                                 "back\\slash", "new\nline", "carriage\rreturn", "tab\tkey",
                                 "é", "x.y"])
def test_context_keys_round_trip(key):
    value = {key: 1, "k": [{key: "v"}]}
    assert evaluate(parse_expr(render_value(value)), {}) == value
    expr = ast.ContextLit(((key, ast.Lit(1)), ("k", ast.ContextLit(((key, ast.Var("x")),)))))
    assert parse_expr(render(expr)) == expr


@pytest.mark.parametrize("value, text", [
    (math.inf, "1e999"), (-math.inf, "-1e999"), ([1, math.inf], "[1, 1e999]"),
    (FeelRange(-math.inf, 2.5, True, False), "[-1e999..2.5)"), (1e308, "1e+308")])
def test_infinite_doubles_render_as_overflowing_literals_that_read_back(value, text):
    assert render_value(value) == text
    assert evaluate(parse_expr(text), {}) == value


# --- agreement with the reference parser ---------------------------------------

_VOCABULARY = (
    "x", "y", "item", "k", "overlaps", "before", "date", "time", "abs", "of", "instance",
    "string", "number", "boolean", "and", "or", "not", "in", "true", "false", "null",
    "0", "1", "42", "3.5", "1e3", "2E-2", '"a"', '""', '"a b"', '"q\\"t"', '"\\n"',
    '"2020-01-31"', '"12:30:00"', '"25:61"', '"x"', "+", "-", "*", "/", "**", "<", "<=",
    ">", ">=", "=", "!=", "..", ".", ",", ":", "(", ")", "[", "]", "{", "}", "@", "é",
    '"open', "\\",
)


def _random_expression(rng, budget: int) -> list[str]:
    """Tokens of a (mostly) well-formed expression of at most `budget` levels."""
    if budget <= 1 or rng.random() < 0.25:
        return [rng.choice(("x", "y", "item", "1", "2.5", '"s"', "true", "null",
                            'date("2020-01-02")'))]
    sub = lambda: _random_expression(rng, budget - 1)  # noqa: E731
    shape = rng.randrange(9)
    if shape == 0:
        return [*sub(), rng.choice(("+", "-", "*", "/", "**", "<", "=", "!=", "and", "or",
                                    "in")), *sub()]
    if shape == 1:
        return [rng.choice(("-", "not")), *sub()]
    if shape == 2:
        return ["(", *sub(), ")"]
    if shape == 3:
        return ["[", *sub(), ",", *sub(), "]"]
    if shape == 4:
        return [rng.choice("[("), *sub(), "..", *sub(), rng.choice("])")]
    if shape == 5:
        return [*sub(), "[", *sub(), "]"]
    if shape == 6:
        return [*sub(), ".", "k"]
    if shape == 7:
        return ["{", "k", ":", *sub(), ",", '"a b"', ":", *sub(), "}"]
    return [*sub(), "instance", "of", rng.choice(("string", "number", "boolean"))]


def _random_token_string(rng) -> str:
    if rng.random() < 0.5:
        tokens = [rng.choice(_VOCABULARY) for _ in range(rng.randint(1, 12))]
    else:  # a well-formed expression, then up to two tokens dropped, added or swapped
        tokens = _random_expression(rng, 6)
        for _ in range(rng.randrange(3)):
            at = rng.randrange(len(tokens) + 1)
            edit = rng.randrange(3)
            if edit == 0 and at < len(tokens):
                del tokens[at]
            elif edit == 1:
                tokens.insert(at, rng.choice(_VOCABULARY))
            elif at < len(tokens):
                tokens[at] = rng.choice(_VOCABULARY)
    return "".join(token + rng.choice(("", " ", " ", "\t")) for token in tokens)


def _outcome(parse, text):
    try:
        return parse(text)
    except FeelSyntaxError as exc:
        return ("FeelSyntaxError", str(exc), exc.column, exc.expected)
    except ValueError as exc:  # an integer literal with too many digits
        return (type(exc).__name__, str(exc))


def test_parser_agrees_with_the_reference_on_random_token_strings():
    rng = random.Random(20_000)
    texts = [_random_token_string(rng) for _ in range(20_000)]
    parsed = sum(not isinstance(_outcome(parse_expr, t), tuple) for t in texts)
    assert parsed > 2_000  # the sample holds valid expressions, not only errors
    for text in texts:
        assert _outcome(parse_expr, text) == _outcome(reference_parse_expr, text), text


# --- the depth limit ------------------------------------------------------------

def _nested(depth: int) -> dict[str, str]:
    """Expressions exactly `depth` levels deep, one per way of nesting."""
    return {
        "sum": " + ".join(["x"] * depth),
        "parentheses": "(" * (depth - 1) + "x" + ")" * (depth - 1),
        "not": "not " * (depth - 1) + "x",
        "minus": "-" * (depth - 1) + "x",
        "power": " ** ".join(["x"] * depth),
        "lists": "[" * (depth - 1) + "x" + "]" * (depth - 1),
        "paths": "x" + ".k" * (depth - 1),
        "calls": "abs(" * (depth - 1) + "x" + ")" * (depth - 1),
        "mixed": "(" * (depth - 3) + "x < 1" + ")" * (depth - 3) + " or y",
    }


@pytest.mark.parametrize("shape", sorted(_nested(MAX_DEPTH)))
def test_expressions_up_to_the_depth_limit_parse_and_walk(shape):
    text = _nested(MAX_DEPTH)[shape]
    expr = parse_expr(text)
    render(expr)  # its parentheses can take the text past the limit
    free_variables(expr)
    synthesize(expr, {})
    infer_types([expr])
    facts_from_expr(expr, {"x", "y"})
    compile_expr(expr)
    with pytest.raises(FeelSyntaxError) as too_deep:
        parse_expr(_nested(MAX_DEPTH + 1)[shape])
    assert str(too_deep.value).startswith(f"expression nests deeper than {MAX_DEPTH} levels")


def test_a_sum_past_the_depth_limit_names_the_operator_that_crosses_it():
    text = " + ".join(["x"] * (MAX_DEPTH + 5))
    with pytest.raises(FeelSyntaxError) as too_deep:
        parse_expr(text)
    assert too_deep.value.column == 1 + 4 * MAX_DEPTH - 2  # the MAX_DEPTH-th '+'


def test_deep_parentheses_stop_at_the_limit_not_at_the_recursion_limit():
    with pytest.raises(FeelSyntaxError) as too_deep:
        parse_expr("(" * 10_000 + "x" + ")" * 10_000)
    assert too_deep.value.column == MAX_DEPTH + 1


def test_not_wrappers_up_to_the_depth_limit_parse_and_walk():
    cell = "not(" * MAX_DEPTH + "[1..5]" + ")" * MAX_DEPTH
    test = parse_unary_test(cell)
    assert render_unary_test(test) == cell
    match = compile_unary(test)
    flipped = MAX_DEPTH % 2 == 1  # an odd number of wrappers negates the range
    assert (match(0), match(3)) == (flipped, not flipped)
    past = "not(" * (MAX_DEPTH + 1) + "1" + ")" * (MAX_DEPTH + 1)
    with pytest.raises(FeelSyntaxError) as too_deep:
        parse_unary_test(past)
    assert str(too_deep.value) == \
        f"expression nests deeper than {MAX_DEPTH} levels (column {4 * MAX_DEPTH + 1})"


def test_deep_not_wrappers_stop_at_the_limit_not_at_the_recursion_limit():
    with pytest.raises(FeelSyntaxError) as too_deep:
        parse_unary_test("not(" * 1000 + "1" + ")" * 1000)
    assert too_deep.value.column == 4 * MAX_DEPTH + 1


def test_a_too_deep_cell_test_is_named_by_its_column_in_the_cell():
    # one wrapper around a disjunction, MAX_DEPTH more inside its second test
    head = '  "a", not( 2, '
    with pytest.raises(FeelSyntaxError) as too_deep:
        parse_unary_test(head + "not(" * MAX_DEPTH + "1" + ")" * (MAX_DEPTH + 1))
    assert too_deep.value.column == len(head) + 4 * (MAX_DEPTH - 1) + 1  # the last not(


def test_integer_literals_longer_than_the_digit_limit_are_syntax_errors():
    # Python converts at most 4,300 digits of text to an integer
    assert MAX_INT_DIGITS == 4300
    assert parse_expr("9" * MAX_INT_DIGITS) == ast.Lit(int("9" * MAX_INT_DIGITS))
    assert parse_expr("x + " + "1" * MAX_INT_DIGITS).right == ast.Lit(int("1" * MAX_INT_DIGITS))
    for text, column in (("1" * (MAX_INT_DIGITS + 1), 1), ("x + " + "7" * 5000, 5),
                         ("[1, " + "0" * 4301 + "]", 5)):
        with pytest.raises(FeelSyntaxError) as exc_info:
            parse_expr(text)
        assert exc_info.value.column == column
        assert str(exc_info.value) == \
            f"integer literal longer than {MAX_INT_DIGITS} digits (column {column})"
    # decimals have no such limit
    assert parse_expr("1" * 5000 + ".5") == ast.Lit(float("1" * 5000 + ".5"))


def test_a_cell_with_an_over_long_integer_is_a_syntax_error():
    assert parse_unary_test("< " + "3" * MAX_INT_DIGITS) == \
        ast.Comparison("<", ast.Lit(int("3" * MAX_INT_DIGITS)))
    for cell in ("3" * (MAX_INT_DIGITS + 1), "< " + "3" * (MAX_INT_DIGITS + 1),
                 "1, " + "3" * (MAX_INT_DIGITS + 1)):
        with pytest.raises(FeelSyntaxError, match=f"longer than {MAX_INT_DIGITS} digits"):
            parse_unary_test(cell)
