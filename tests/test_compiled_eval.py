"""The compiled evaluators against the tree-walking references in oracles.py.

Expressions, cell tests and decision tables are generated from the AST
constructors, so they reach cases the parser never builds: unbound and
undefined variables, kind errors, division by zero, non-boolean
conditions, unknown operators and functions. For each one the compiled
closure and the reference must give equal values, or raise the same
exception type with the same message.
"""

import dataclasses
import math
import random
import time
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from bproc import RunOptions, compile_model, feel, inputs, parse_bpmn, runtime
from bproc.dmn import DecisionTable, Rule, evaluate_table
from bproc.errors import FeelTypeError, ValueTooLargeError
from bproc.feel import ast, evaluator, values as kernel
from bproc.feel.values import UNDEFINED, Temporal

import oracles
from conftest import load_tool
from generators import (DEFINITIONS, FOOTER, NAMES, Level, Text, expressions,
                        random_constant, small, tables, unary_tests, values)
from oracles import reference_evaluate, reference_evaluate_table, reference_match_unary

opcounts = load_tool("opcounts")

ENV = {"a": 3, "b": 2.5, "s": "x", "u": UNDEFINED, "l": [1, 2.0, "x"], "c": {"k": 1}}


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
# a subtree that raises is not folded: its error comes in its place, and at run time
@example(ast.BinOp("+", ast.Var("zz"), ast.BinOp("/", ast.Lit(1), ast.Lit(0))), {})
@example(ast.Neg(ast.Lit(True)), {})
@example(ast.BinOp("**", ast.Lit(3), ast.Lit(100000000000)), {})
def test_compiled_expressions_agree_with_the_reference(expr, extra):
    env = {**ENV, **extra}  # a and b stay numbers
    compiled = feel.compile_expr(expr)  # compiling never raises
    assert outcome(compiled, env) == outcome(reference_evaluate, expr, env)
    assert outcome(feel.evaluate, expr, env) == outcome(reference_evaluate, expr, env)


@given(st.integers(0, 2**32 - 1), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_constant_agrees_with_the_reference(seed, leaves):
    # a variable-free expression: its value, or the class and message of
    # the error evaluating it raises
    expr = random_constant(random.Random(seed), leaves)
    answer = feel.constant(expr)
    assert answer.variable is None
    got = outcome(lambda: answer.value) if answer.error is None else \
        ("raised", type(answer.error), str(answer.error))
    assert got == outcome(reference_evaluate, expr, {})


@given(expressions)
@settings(max_examples=200, deadline=None)
def test_an_expression_that_reads_a_variable_is_no_constant(expr):
    names = ast.free_variables(expr)
    if names:
        assert feel.constant(expr) == evaluator.Constant(variable=min(names))


def test_a_filter_binds_item_in_its_answer():
    # the first name a filter reads skips the `item` its predicate binds
    answers = {text: feel.constant(feel.parse_expr(text))
               for text in ("[1, 2, 3][item > 1]", "[1, 2][item > z]", "item[item > z]",
                            "[1][item > b] + a", "[1][item > 1] = a")}
    assert answers["[1, 2, 3][item > 1]"] == evaluator.Constant(value=[2, 3])
    assert [answer.variable for answer in answers.values()][1:] == ["z", "item", "a", "a"]


def _reference_value(expr):
    """The reference value of a variable-free `expr`, and whether it raised."""
    try:
        return reference_evaluate(expr, {}), False
    except Exception:
        return None, True


NAME_AND_CONSTANT = (lambda op, c: ast.BinOp(op, ast.Var("x"), c),
                     lambda op, c: ast.InTest(ast.Var("x"), ast.RangeLit(c, c, True, True)),
                     lambda op, c: ast.InTest(ast.Var("x"), ast.ListLit((c, c))))


@given(st.integers(0, 2**32 - 1), st.integers(1, 8),
       st.sampled_from(("<", "<=", ">", ">=", "=", "!=")), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_type_evidence_and_domain_facts_share_one_notion_of_constant(seed, leaves, op, shape):
    # `x op C`, `x in [C..C]` and `x in [C, C]`: both inferences read the
    # operand of `x` (C, or the container). Type inference gives `x` the
    # type of C's value exactly when that operand evaluates without raising
    # and C's value is not null; domain inference takes the operand as a
    # constant, with C's value, exactly when it evaluates without raising
    c = random_constant(random.Random(seed), leaves)
    expr = NAME_AND_CONSTANT[shape](op, c)
    value, _ = _reference_value(c)
    _, container_raised = _reference_value(c if shape == 0 else expr.container)
    given_type = feel.StaticType.UNKNOWN if container_raised or value is None \
        else feel.type_of_constant(value)
    assert feel.infer_types([expr]) == {"x": given_type}
    # the source an "other" fact quotes is not under test, and `render`
    # cannot write the generator's Temporal("date", 0)
    with mock.patch.object(feel, "render", repr):
        facts = [fact for _, fact in inputs.facts_from_expr(expr, {"x"})]
    kinds = [fact.kind for fact in facts]
    if container_raised:
        assert kinds == ["other"]
    elif shape == 1:
        assert kinds == ["range"]
    else:
        assert "other" not in kinds
        assert [_shape(fact.value) for fact in facts] == [_shape(value)] * (1 if shape == 0 else 2)


def python_calls(fn, text: str) -> int:
    """The Python calls `fn` makes on the expression `text` parses to."""
    counts = opcounts.count(fn, feel.parse_expr(text), opcodes=False)
    return sum(calls for _, calls in counts.values())


@pytest.mark.parametrize("shape, small, large", [
    (lambda n: " + ".join(["1"] * n), 25, 99),
    (lambda n: "x" + " + 1" * (n - 1), 25, 99),
    (lambda n: "-(" * n + "true" + ")" * n, 12, 49)],  # raises at every level
    ids=["constant sum", "variable sum", "negations"])
def test_compiling_is_linear_in_depth(shape, small, large):
    # the deterministic measure of one bottom-up walk: 4x the depth makes
    # about 4x the calls, where a walk of each subtree per level makes 11-14x
    ratio = python_calls(feel.compile_expr, shape(large)) / python_calls(
        feel.compile_expr, shape(small))
    assert ratio < 6, ratio


@pytest.mark.parametrize("shape, small, large", [
    (lambda n: " + ".join(f"v{i}" for i in range(n)), 25, 99),
    (lambda n: "v0" + " * (v1" * (n - 1) + ")" * (n - 1), 12, 49)],
    ids=["left-nested", "right-nested"])
def test_type_evidence_is_linear_in_depth(shape, small, large):
    # the operand of a name is asked for its answer only when it reads no
    # name, so no subtree is compiled at every level
    ratio = python_calls(feel.types.scan, shape(large)) / python_calls(
        feel.types.scan, shape(small))
    assert ratio < 6, ratio


def test_a_constant_list_is_fresh_on_every_evaluation():
    compiled = feel.compile_expr(ast.ListLit((ast.Lit(1), ast.Neg(ast.Lit(2)))))
    assert compiled({}) == [1, -2]
    assert compiled({}) is not compiled({})


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


# exact scalars, which take a table's scalar cells, in the pairs of kinds
# that must not compare inline (True against 1, "air" against 5.0), and null,
# NaN, -0.0 and 10**20 against 1e20; then one value per kind that takes its
# checked cells
SCALAR_ARGS = (True, False, 1, 0, 1.0, 5.0, "air", "x", None, math.nan, -0.0, 10**20, 1e20)
CHECKED_ARGS = (UNDEFINED, Text("x"), Level.LOW, [1], Temporal("date", 738_000))


@given(tables(), st.lists(st.tuples(st.lists(st.sampled_from(SCALAR_ARGS) | small,
                                             min_size=3, max_size=3),
                                    st.none() | st.tuples(st.integers(0, 2),
                                                          st.sampled_from(CHECKED_ARGS))),
                          min_size=1, max_size=4))
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(DecisionTable(id="T", name="T", hit_policy="First",
                       inputs=(("in0", ast.Var("in0")), ("in1", ast.Var("in1"))),
                       outputs=("o1",), rules=(Rule((ast.EqualsConst(0), ast.Dash()),
                                                    (ast.Lit(1),)),)),
         [([True, 0, 0], None), (["air", 0, 0], None), ([0, 0, 0], (1, [1]))])
def test_scalar_and_checked_cells_agree_with_the_reference(table, rows):
    # a call on exact scalars skips the dashes and the value checks, any
    # other call checks every cell; under every hit policy both give what
    # the reference gives, value or error
    for policy in ("First", "Unique", "Any"):
        table = dataclasses.replace(table, hit_policy=policy)
        for row, checked in rows:
            if checked is not None:
                column, value = checked
                row = row[:column] + [value] + row[column + 1:]
            args = {f"in{j}": value for j, value in enumerate(row[:len(table.inputs)])}
            assert outcome(evaluate_table, table, args) == \
                outcome(reference_evaluate_table, table, args), (policy, args)


def _one_task_model(table: DecisionTable):
    """Start (consumes in0, in1, ...), one business rule task `t` calling
    `table` with every output written to the variable of its name, end.
    It is compiled against a table of the same columns with one all-dash
    rule, so that inference reads none of `table`'s cells (a column may mix
    kinds); the task runs `table` itself."""
    n = len(table.inputs)
    consumed = "".join(f'<ext:output source="in{j}" target="in{j}"/>' for j in range(n))
    xml = (DEFINITIONS + '<startEvent id="s"><extensionElements><ext:ioMapping>'
           f'{consumed}</ext:ioMapping></extensionElements></startEvent>'
           '<businessRuleTask id="t"><extensionElements><ext:calledDecision decisionId="T"/>'
           '</extensionElements></businessRuleTask><endEvent id="e"/>'
           '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
           '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>' + FOOTER)
    dashes = Rule((ast.Dash(),) * n, (ast.Lit(0),) * len(table.outputs))
    model = compile_model(parse_bpmn(xml), [dataclasses.replace(table, rules=(dashes,))])
    return lambda policy: dataclasses.replace(
        model, tables={"T": dataclasses.replace(table, hit_policy=policy)})


def _task_records(trace) -> list:
    """The table and write records of task `t`, values by `_shape`."""
    records = trace.records[trace.records.index(runtime.NodeActivated("t")) + 1:]
    shown = []
    for r in records:
        if isinstance(r, runtime.TableEvaluated):
            shown.append((r.table, [(k, type(v), _shape(v)) for k, v in r.outputs]))
        elif isinstance(r, runtime.VarWritten):
            shown.append((r.name, type(r.value), _shape(r.value)))
        else:
            break
    return shown


def _spoil(value):
    """Change a list or context in place, as a later step could."""
    if isinstance(value, list):
        value.append("changed")
    elif isinstance(value, dict):
        value["changed"] = True


# what an argument can be once a start event has consumed it: no undefined value
TASK_ARGS = st.sampled_from(SCALAR_ARGS + CHECKED_ARGS[1:]) | small
NO_MATCH_TABLE = DecisionTable(id="T", name="T", hit_policy="First",
                               inputs=(("in0", ast.Var("in0")),), outputs=("o1",),
                               rules=(Rule((ast.EqualsConst(1),), (ast.Lit("one"),)),))


def _two_hits(last: int, outputs=("o1", "o2", "o1")) -> DecisionTable:
    """Two rules that both match 0 (the first matches any value, but is no
    default row, which comes last), with a list and a context output each:
    First takes the first, Unique raises, Any agrees unless the last
    columns differ (`last`)."""
    def rule(test, value):
        return Rule((test,), (ast.ListLit((ast.Lit(1),)), ast.ContextLit((("k", ast.Lit(2)),)),
                              ast.Lit(value)))
    return DecisionTable(id="T", name="T", hit_policy="First",
                         inputs=(("in0", ast.Var("in0")),), outputs=outputs,
                         rules=(rule(ast.Dash(), 3), rule(ast.EqualsConst(0), last)))


@given(tables(), st.lists(st.lists(TASK_ARGS, min_size=3, max_size=3), min_size=1, max_size=3))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@example(NO_MATCH_TABLE, [[0, 0, 0], [1, 0, 0]])
@example(_two_hits(3), [[0, 0, 0], [5, 0, 0]])
@example(_two_hits(4), [[0, 0, 0]])
@example(_two_hits(3, outputs=("o1", "o2", "o3")), [[0, 0, 0], [5, 0, 0]])
def test_a_table_task_writes_what_the_reference_table_gives(table, rows):
    # under every hit policy and in both modes, a business rule task's
    # table record, writes and fault are the reference's, each run on one
    # engine, twice, with each list or context it wrote changed in between:
    # so a task builds no output dict, yet an output fresh at each hit stays fresh
    with_policy = _one_task_model(table)
    for policy in ("First", "Unique", "Any"):
        model = with_policy(policy)
        for mode in ("sequential", "parallel"):
            engine = runtime._Engine(model, RunOptions(mode=mode))
            for row in rows:
                args = {f"in{j}": value for j, value in enumerate(row[:len(table.inputs)])}
                lists = {name: [value] for name, value in args.items()}
                want = outcome(reference_evaluate_table, model.tables["T"], args)
                for _ in range(2):
                    status = engine.run(lists, 0)
                    summary, trace = engine.summary(), engine.trace
                    if want[0] == "raised":
                        assert (status, summary.code, summary.message) == (
                            "fault", "ENGINE_FAULT", f"t: {want[2]}"), (policy, mode, args)
                        assert _task_records(trace) == []
                        continue
                    outputs = reference_evaluate_table(model.tables["T"], args)
                    assert (status, summary.code) == ("success", "e"), (policy, mode, args)
                    assert _task_records(trace) == [
                        ("T", [(k, type(v), _shape(v)) for k, v in sorted(outputs.items())])
                    ] + [(name, type(outputs[name]), _shape(outputs[name]))
                         for name in table.outputs], (policy, mode, args)
                    for name in table.outputs:
                        _spoil(engine.bindings[name])


def test_list_and_context_outputs_are_fresh_on_every_hit():
    table = DecisionTable(id="T", name="T", hit_policy="First",
                          inputs=(("in0", ast.Var("in0")),), outputs=("o1", "o2"),
                          rules=(Rule((ast.Dash(),), (ast.ListLit((ast.Lit(1),)),
                                                       ast.ContextLit((("k", ast.Lit(2)),)))),))
    first = evaluate_table(table, {"in0": 0})
    first["o1"].append("changed")
    first["o2"]["k"] = "changed"
    assert evaluate_table(table, {"in0": 0}) == {"o1": [1], "o2": {"k": 2}}
