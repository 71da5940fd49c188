"""The compiled evaluators against the tree-walking references in oracles.py.

Expressions, cell tests and decision tables are generated from the AST
constructors, so they reach cases the parser never builds: unbound and
undefined variables, kind errors, division by zero, non-boolean
conditions, unknown operators and functions. For each one the compiled
closure and the reference must give equal values, or raise the same
exception type with the same message.
"""

import enum
import math
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bproc import feel
from bproc.dmn import DecisionTable, Rule, evaluate_table
from bproc.errors import FeelTypeError, ValueTooLargeError
from bproc.feel import ast, evaluator, values as kernel
from bproc.feel.values import UNDEFINED, FeelRange, Temporal

import oracles
from oracles import reference_evaluate, reference_evaluate_table, reference_match_unary

NAMES = ("a", "b", "s", "u", "l", "c", "missing")  # "missing" is never bound
ENV = {"a": 3, "b": 2.5, "s": "x", "u": UNDEFINED, "l": [1, 2.0, "x"], "c": {"k": 1}}


class Text(str):
    """A string of a subclass: it misses the kernel's exact-class paths."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from([0, 0.0, -0.0, math.nan, 10**20, 1e20, 1e308]))
scalars = st.one_of(numbers, st.sampled_from(["x", "y", "", True, False, None,
                                              Text("x"), Level.LOW, Level.HIGH]),
                    st.builds(Temporal, st.sampled_from(["date", "time"]),
                              st.integers(0, 800_000)))
values = st.one_of(scalars, st.just(UNDEFINED), st.lists(scalars, max_size=3),
                   st.dictionaries(st.sampled_from(["k", "m"]), scalars, max_size=2),
                   st.builds(FeelRange, numbers, numbers, st.booleans(), st.booleans()),
                   st.just(("not", "a", "value")))

OPS = ("+", "-", "*", "/", "**", "<", "<=", ">", ">=", "=", "!=", "and", "or", "%")
CALLS = ("abs", "floor", "ceiling", "sqrt", "length", "overlaps before", "nope")


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(ast.Neg, children),
        st.builds(ast.Not, children),
        st.builds(lambda op, lr: ast.BinOp(op, *lr), st.sampled_from(OPS), pairs),
        st.builds(ast.Call, st.sampled_from(CALLS), st.lists(children, max_size=2).map(tuple)),
        st.builds(ast.ListLit, st.lists(children, max_size=3).map(tuple)),
        st.builds(ast.Index, children, children),
        st.builds(ast.Filter, children, children),
        st.builds(ast.ContextLit, st.lists(st.tuples(st.sampled_from(["k", "m"]), children),
                                           max_size=2).map(tuple)),
        st.builds(ast.Path, children, st.sampled_from(["k", "m"])),
        st.builds(ast.RangeLit, children, children, st.booleans(), st.booleans()),
        st.builds(ast.InTest, children, children),
        st.builds(ast.InstanceOf, children, st.sampled_from(["number", "string", "boolean"])),
    )


# mostly numbers, so that many trees evaluate to a value
leaves = st.one_of(st.builds(ast.Lit, st.integers(-2, 3)), st.builds(ast.Lit, numbers),
                   st.builds(ast.Var, st.sampled_from(["a", "b", "a", "item"])),
                   st.builds(ast.Lit, scalars), st.builds(ast.Var, st.sampled_from(NAMES)))
expressions = st.recursive(leaves, _extend, max_leaves=6)
constant_expressions = st.recursive(st.builds(ast.Lit, scalars), _extend, max_leaves=4)


def _unary_tests(children):
    return st.one_of(st.builds(ast.Negation, children),
                     st.builds(ast.Disjunction, st.lists(children, min_size=1,
                                                         max_size=3).map(tuple)))


unary_tests = st.recursive(
    st.one_of(st.builds(ast.Dash), st.builds(ast.EqualsConst, scalars),
              st.builds(ast.Comparison, st.sampled_from(["<", "<=", ">", ">="]),
                        constant_expressions),
              st.builds(ast.RangeTest, st.builds(FeelRange, st.one_of(numbers, st.just("b")),
                                                 st.one_of(numbers, st.just("y")),
                                                 st.booleans(), st.booleans()))),
    _unary_tests, max_leaves=4)


def outcome(fn, *args):
    """What a call gives: its value, or the class and message of its error.
    Values are compared by type and repr, so 1, 1.0 and True differ and a
    NaN equals itself."""
    try:
        value = fn(*args)
    except Exception as exc:
        return "raised", type(exc), str(exc)
    return "value", type(value), _shape(value)


def _shape(value):
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    if isinstance(value, list):
        return [(type(v), _shape(v)) for v in value]
    if isinstance(value, dict):
        return [(k, type(v), _shape(v)) for k, v in value.items()]
    return repr(value)


@given(expressions, st.dictionaries(st.sampled_from(["s", "u", "l", "c"]), values))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ast.BinOp("<=", ast.Lit(math.nan), ast.Lit(1.0)), {})  # compare() orders NaN as equal
@example(ast.BinOp(">=", ast.Var("a"), ast.Lit(math.nan)), {})
@example(ast.BinOp("and", ast.Lit(True), ast.Lit(3)), {})  # a non-boolean condition
@example(ast.BinOp("or", ast.Lit(False), ast.Var("s")), {})
@example(ast.BinOp("/", ast.Var("a"), ast.Lit(0)), {})
@example(ast.BinOp("!=", ast.Var("a"), ast.Var("s")), {})  # kinds that never compare
def test_compiled_expressions_agree_with_the_reference(expr, extra):
    env = {**ENV, **extra}  # a and b stay numbers
    compiled = feel.compile_expr(expr)  # compiling never raises
    assert outcome(compiled, env) == outcome(reference_evaluate, expr, env)
    assert outcome(feel.evaluate, expr, env) == outcome(reference_evaluate, expr, env)


@given(unary_tests, values)
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(ast.Negation(ast.Dash()), UNDEFINED)  # a dash alone accepts it
def test_compiled_cell_tests_agree_with_the_reference(test, value):
    compiled = feel.compile_unary(test)  # compiling never raises
    for _ in range(2):  # a folded bound raises again, and equally
        assert outcome(compiled, value) == outcome(reference_match_unary, test, value)


FUSED_OPS = ("<", "<=", ">", ">=", "+", "-", "*")
FUSED_LITERALS = (0, -0.0, 1.5, 10**20, math.nan, math.inf, -math.inf, True, "x", None,
                  Temporal("date", 19_000))


def test_variable_op_literal_agrees_with_the_reference():
    # `Var op Lit` with an ordering, `+`, `-` or `*` compiles to one fused
    # closure; every name in NAMES (the unbound and the undefined one
    # included) against literals of every kind
    for op in FUSED_OPS:
        for name in NAMES:
            for literal in FUSED_LITERALS:
                expr = ast.BinOp(op, ast.Var(name), ast.Lit(literal))
                assert outcome(feel.compile_expr(expr), ENV) == \
                    outcome(reference_evaluate, expr, ENV), expr


def test_variable_op_literal_calls_no_leaf_closure(monkeypatch):
    leaf_calls = []
    for node in (ast.Var, ast.Lit):
        def counting(expr, compile_leaf=evaluator._COMPILERS[node]):
            leaf = compile_leaf(expr)

            def counted(env):
                leaf_calls.append(expr)
                return leaf(env)
            return counted
        monkeypatch.setitem(evaluator._COMPILERS, node, counting)
    env = {"n": 5}
    assert feel.compile_expr(feel.parse_expr("n > 0"))(env) is True
    assert feel.compile_expr(feel.parse_expr("n + 1"))(env) == 6
    assert leaf_calls == []
    assert feel.compile_expr(feel.parse_expr("0 < n"))(env) is True  # not fused
    assert leaf_calls == [ast.Lit(0), ast.Var("n")]


ORDER_OPERANDS = (0, 1, -1, 0.0, -0.0, 0.5, -2.5, 10**20, 1e20, math.nan, math.inf, -math.inf)


def test_orderings_agree_with_compare():
    # an ordering of two exact numbers is one comparison, fused or not; it
    # must agree with compare(), which orders NaN as equal to everything
    holds = {"<": lambda c: c < 0, "<=": lambda c: c <= 0,
             ">": lambda c: c > 0, ">=": lambda c: c >= 0}
    for op, expected in holds.items():
        for a in ORDER_OPERANDS:
            for b in ORDER_OPERANDS:
                want = expected(kernel.compare(a, b))
                for expr in (ast.BinOp(op, ast.Var("a"), ast.Lit(b)),  # fused
                             ast.BinOp(op, ast.Lit(a), ast.Lit(b)),
                             ast.BinOp(op, ast.Lit(a), ast.Var("b"))):
                    assert feel.compile_expr(expr)({"a": a, "b": b}) is want, (expr, a, b)
                test = ast.Comparison(op, ast.Lit(b))  # a cell test: `value op b`
                assert feel.compile_unary(test)(a) is want, (op, a, b)


BITS, CHARS = kernel.MAX_INT_BITS, kernel.MAX_STRING_LENGTH
SIZE_CASES = (  # (left, op, right, past the limit?)
    (2, "**", BITS, False), (2, "**", BITS + 1, True), (-2, "**", BITS, False),
    (3, "**", 5168, False), (3, "**", 5169, True),  # 5168 * log2(3) is just under BITS
    (3, "**", 100_000_000_000, True), (10**20, "**", 10**20, True), (10**20, "**", 10**400, True),
    (1, "**", 10**20, False), (-1, "**", 10**20 + 1, False), (0, "**", 10**20, False),
    (2, "**", -10**20, False), (2, "**", 1.5, False), (2.0, "**", 10**6, False),
    (2**(BITS // 2 - 1), "*", 2**(BITS // 2 - 1), False),
    (2**(BITS // 2), "*", 2**(BITS // 2 - 1), True), (-(2**BITS), "*", -1, True),
    (2**1000, "*", 1.5, False), (2**BITS, "+", 2**BITS, False),
    ("x" * (CHARS // 2), "+", "y" * (CHARS // 2), False),
    ("x" * (CHARS // 2), "+", "y" * (CHARS // 2 + 1), True), ("", "+", "x" * CHARS, False),
)


def test_values_grow_only_to_the_size_limit():
    # `**` and `*` on two integers and `+` on two strings raise past the
    # limit, before computing anything; fused (`a op literal`) or not, and
    # as the reference does
    for left, op, right, too_large in SIZE_CASES:
        exprs = (ast.BinOp(op, ast.Lit(left), ast.Lit(right)),
                 ast.BinOp(op, ast.Var("a"), ast.Lit(right)))
        for expr in exprs:
            got = outcome(feel.compile_expr(expr), {"a": left})
            assert got == outcome(reference_evaluate, expr, {"a": left})
            assert (got[:2] == ("raised", ValueTooLargeError)) is too_large, (left, op, right)
            if too_large:
                limit = f"{BITS} bits" if isinstance(left, int) else f"{CHARS} characters"
                assert got[2].endswith(f"would exceed {limit}")


def test_an_integer_past_the_doubles_cannot_meet_a_double():
    # `+`, `-`, `*` and `/` with a double, fused (`a op literal`) or not,
    # raise ValueTooLargeError, not Python's OverflowError, as the
    # reference does; so does `/` whose quotient is past the doubles
    big = 2 ** 1100
    cases = [(big, op, 1.5) for op in ("+", "-", "*", "/")]
    cases += [(-big, op, 0.5) for op in ("+", "-", "*", "/")] + [(big, "/", 3)]
    for left, op, right in cases:
        for expr, env in ((ast.BinOp(op, ast.Lit(left), ast.Lit(right)), {}),
                          (ast.BinOp(op, ast.Var("a"), ast.Lit(right)), {"a": left}),
                          (ast.BinOp(op, ast.Lit(right), ast.Var("a")), {"a": left})):
            if right == 3 and type(expr.right) is ast.Var:
                continue  # 3 / big is a small quotient
            got = outcome(feel.compile_expr(expr), env)
            assert got == ("raised", ValueTooLargeError, "number too large for a double"), \
                (left, op, right)
            assert got == outcome(reference_evaluate, expr, env)
    sqrt = ast.Call("sqrt", (ast.Var("a"),))
    assert outcome(feel.compile_expr(sqrt), {"a": big}) == \
        ("raised", ValueTooLargeError, "number too large for a double") == \
        outcome(reference_evaluate, sqrt, {"a": big})
    # within the doubles nothing changes
    assert feel.evaluate(feel.parse_expr("2 ** 1000 * 1.5"), {}) == 2.0 ** 1000 * 1.5


def test_floor_and_ceiling_of_a_non_finite_double_are_type_errors():
    # Python's math.floor and math.ceil raise OverflowError or ValueError
    # here; FEEL raises its own type error, as the reference does
    for name in ("floor", "ceiling"):
        for value in (math.inf, -math.inf, math.nan):
            expr = ast.Call(name, (ast.Var("a"),))
            got = outcome(feel.compile_expr(expr), {"a": value})
            assert got == ("raised", FeelTypeError, f"{name}(...) takes a finite number")
            assert got == outcome(reference_evaluate, expr, {"a": value})
        assert outcome(feel.evaluate, feel.parse_expr(f"{name}(1e308 * 10)"), {}) == got
        assert feel.evaluate(feel.parse_expr(f"{name}(-2.5)"), {}) == (-3 if name == "floor"
                                                                       else -2)


@settings(max_examples=300, deadline=None)
@given(st.lists(expressions, min_size=1, max_size=3))
def test_one_walk_gives_free_variables_and_type_evidence(exprs):
    # `scan` walks once for what `free_variables` and the original type
    # inference each walked for: the same names, and the same types in the
    # same key order, or the same conflict
    for expr in exprs:
        assert feel.types.scan(expr)[0] == ast.free_variables(expr)
    got = outcome(lambda: list(feel.infer_types(exprs).items()))
    assert got == outcome(lambda: list(oracles.reference_infer_types(exprs).items()))


def test_an_oversized_power_fails_at_once():
    for text in ("3 ** 100000000000", "10**20 ** 10**20"):
        started = time.perf_counter()
        with pytest.raises(ValueTooLargeError):
            feel.evaluate(feel.parse_expr(text), {})
        assert time.perf_counter() - started < 1.0  # it took hours before the limit


KERNEL = (("kind_of", kernel.kind_of, oracles.kind_of),
          ("_scalar", evaluator._scalar, oracles.reference_scalar),
          ("_defined_scalar", evaluator._defined_scalar, oracles.reference_defined_scalar))
PAIRWISE = (("equals", kernel.equals, oracles.equals),
            ("compare", kernel.compare, oracles.compare))


@given(values, values)
@settings(max_examples=400, deadline=None)
@example(True, 1)  # a bool is neither a number nor equal to one
@example(False, 0.0)
@example(True, True)
@example(UNDEFINED, "x")
@example("x", Text("x"))  # a subclass takes the cascade, with the same result
@example(Level.LOW, 1.0)
@example(math.nan, math.nan)
@example(-0.0, 0)
@example(10**20, 1e20)
def test_value_kernel_matches_the_reference(a, b):
    for name, fn, reference in KERNEL:
        for v in (a, b):
            assert outcome(fn, v) == outcome(reference, v), (name, v)
    for name, fn, reference in PAIRWISE:
        for x, y in ((a, b), (b, a), (a, a)):
            assert outcome(fn, x, y) == outcome(reference, x, y), (name, x, y)


# cells and arguments over a few small integers, so that rules match
small = st.integers(0, 3)
cells = st.one_of(st.builds(ast.Dash), st.builds(ast.EqualsConst, small),
                  st.builds(ast.Comparison, st.sampled_from(["<", "<=", ">", ">="]),
                            st.builds(ast.Lit, small)),
                  st.builds(lambda lo, span: ast.RangeTest(FeelRange(lo, lo + span)), small, small),
                  st.builds(ast.Dash), st.builds(ast.EqualsConst, small), unary_tests)
output_entries = st.one_of(st.builds(ast.Lit, small), st.builds(ast.Lit, scalars),
                           constant_expressions,
                           st.builds(ast.ListLit, st.lists(st.builds(ast.Lit, scalars),
                                                           max_size=2).map(tuple)),
                           st.just(ast.BinOp("/", ast.Lit(1), ast.Lit(0))))


@st.composite
def tables(draw):
    n_inputs = draw(st.integers(1, 3))
    outputs = tuple(draw(st.lists(st.sampled_from(["o1", "o2", "o3"]), min_size=1,
                                  max_size=3)))
    rules = [Rule(tuple(draw(st.lists(cells, min_size=n_inputs, max_size=n_inputs))),
                  tuple(draw(st.lists(output_entries, min_size=len(outputs),
                                      max_size=len(outputs)))))
             for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        rules.append(Rule(tuple(ast.Dash() for _ in range(n_inputs)),
                          tuple(draw(st.lists(output_entries, min_size=len(outputs),
                                              max_size=len(outputs))))))
    return DecisionTable(id="T", name="T",
                         hit_policy=draw(st.sampled_from(["First", "Unique", "Any"])),
                         inputs=tuple((f"in{j}", ast.Var(f"in{j}")) for j in range(n_inputs)),
                         outputs=outputs, rules=tuple(rules))


@given(tables(), st.lists(st.lists(st.one_of(small, values), min_size=3, max_size=3),
                         min_size=1, max_size=4),
       st.sampled_from([False, False, False, True]))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_compiled_tables_agree_with_the_reference(table, arg_rows, drop_one):
    for row in arg_rows:
        args = {f"in{j}": value for j, value in enumerate(row[:len(table.inputs)])}
        if drop_one:
            args.pop("in0")
        got = outcome(evaluate_table, table, args)
        assert got == outcome(reference_evaluate_table, table, args)
        if got[0] == "value":  # folded lists are not shared between calls
            first = evaluate_table(table, args)
            for value in first.values():
                if isinstance(value, list):
                    value.append("changed")
            assert outcome(evaluate_table, table, args) == got


def test_list_and_context_outputs_are_fresh_on_every_hit():
    table = DecisionTable(id="T", name="T", hit_policy="First",
                          inputs=(("in0", ast.Var("in0")),), outputs=("o1", "o2"),
                          rules=(Rule((ast.Dash(),), (ast.ListLit((ast.Lit(1),)),
                                                       ast.ContextLit((("k", ast.Lit(2)),)))),))
    first = evaluate_table(table, {"in0": 0})
    first["o1"].append("changed")
    first["o2"]["k"] = "changed"
    assert evaluate_table(table, {"in0": 0}) == {"o1": [1], "o2": {"k": 2}}
