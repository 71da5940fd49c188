"""Equality dispatch by hashing against the scan it stands in for.

A decision table whose first column holds only `= constant` and dash
cells, and an exclusive gateway whose cases all test one variable for
equality with a constant, find their candidates by one dict lookup when
the value's exact class is one of the constants' `hashed_classes`
(`dmn._compile_table`, `runtime._hashed`). Each must give what the scan
gives, value or error class and message: the scan is built here by
compiling the same table or model with `hashed_classes` answering no
class. Tables are also checked against `reference_evaluate_table`.
Constants and arguments cover strings, integers, floats (1 beside 1.0,
-0.0 beside 0), repeated constants, and values outside the family: true,
null, a number against strings, a string against numbers, NaN, a str
subclass and an undefined value.
"""

import dataclasses
import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st

from bproc import RunOptions, compile_model, dmn, parse_bpmn, runtime
from bproc.dmn import DecisionTable, Rule, evaluate_table
from bproc.feel import ast
from bproc.feel.evaluator import hashed_classes
from bproc.feel.values import UNDEFINED

from generators import Text, cells, gateway_xml, output_entries, small
from oracles import reference_evaluate_table
from test_compiled_eval import outcome

STRING_KEYS = ("a", "b", "c")
NUMBER_KEYS = (0, 1, 1.0, 2, 2.5, -0.0, 10**20, 1e20)
#: first-column constants: one family each, then a mix that no lookup may judge
KEY_POOLS = (STRING_KEYS, NUMBER_KEYS, STRING_KEYS + NUMBER_KEYS + (True, None, math.nan),
             NUMBER_KEYS + (math.nan,))
#: first arguments: in each family and out of it
FIRST_ARGS = (*STRING_KEYS, "z", 0, 0.0, -0.0, 1, 1.0, 2.5, 7, 10**20, 1e20, True, False,
              None, math.nan, Text("a"))


@contextmanager
def scanning(module):
    """Within it, what `module` compiles or lowers takes the scan: the
    constants of every table column and gateway have no hashed class."""
    with mock.patch.object(module, "hashed_classes", lambda constants: frozenset()):
        yield


@st.composite
def keyed_tables(draw):
    """A table whose first column holds `= constant` and dash cells, the
    constants drawn with repeats from one of KEY_POOLS, and up to two
    more columns of any cells."""
    pool = draw(st.sampled_from(KEY_POOLS))
    first = st.sampled_from(pool).map(ast.EqualsConst) | st.just(ast.Dash())
    n_inputs = draw(st.integers(1, 3))
    rules = [Rule((draw(first), *draw(st.lists(cells, min_size=n_inputs - 1,
                                               max_size=n_inputs - 1))),
                  (draw(output_entries),))
             for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        rules.append(Rule((ast.Dash(),) * n_inputs, (draw(output_entries),)))
    return DecisionTable(id="T", name="T", hit_policy="First",
                         inputs=tuple((f"in{j}", ast.Var(f"in{j}")) for j in range(n_inputs)),
                         outputs=("o1",), rules=tuple(rules))


@given(keyed_tables(), st.lists(st.tuples(st.sampled_from(FIRST_ARGS),
                                          st.lists(small | st.sampled_from(FIRST_ARGS),
                                                   min_size=2, max_size=2)),
                                min_size=1, max_size=5))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_an_indexed_table_selects_as_its_scan_and_the_reference(table, rows):
    # under every hit policy, with and without a default row: the same rule
    # index, or the same error class and message
    for policy in ("First", "Unique", "Any"):
        indexed = dataclasses.replace(table, hit_policy=policy)
        scanned = dataclasses.replace(indexed)
        with scanning(dmn):
            scan = scanned.select  # compiled here, without its index
        for first, rest in rows:
            ordered = [first, *rest][:len(table.inputs)]
            assert outcome(indexed.select, ordered) == outcome(scan, ordered), (policy, ordered)
            args = {f"in{j}": value for j, value in enumerate(ordered)}
            assert outcome(evaluate_table, indexed, args) == \
                outcome(reference_evaluate_table, indexed, args), (policy, args)


def test_a_column_of_one_family_is_hashed_and_a_mixed_one_is_not():
    assert hashed_classes(STRING_KEYS) == {str}
    assert hashed_classes(NUMBER_KEYS) == {int, float}
    for pool in KEY_POOLS[2:]:
        assert hashed_classes(pool) == frozenset()
    assert hashed_classes(()) == hashed_classes((True,)) == hashed_classes((None,)) == set()


def test_a_repeated_key_keeps_its_rules_in_order_among_the_dashes():
    # 1 and 1.0 are one key; rules 1, 2 and 4 hold for 1.0, so Unique names
    # all three, and First takes rule 1 where the dash rule 2 also holds
    rule = lambda test, out: Rule((test,), (ast.Lit(out),))  # noqa: E731
    table = DecisionTable(id="T", name="T", hit_policy="Unique",
                          inputs=(("in0", ast.Var("in0")),), outputs=("o1",),
                          rules=(rule(ast.EqualsConst(2), "two"), rule(ast.EqualsConst(1), "a"),
                                 rule(ast.Dash(), "any"), rule(ast.EqualsConst(3), "three"),
                                 rule(ast.EqualsConst(1.0), "b")))
    assert outcome(table.select, [1.0]) == (
        "raised", dmn.UniquenessViolationError,
        str(dmn.UniquenessViolationError("T", [2, 3, 5])))
    assert dataclasses.replace(table, hit_policy="First").select([1.0]) == 1
    assert dataclasses.replace(table, hit_policy="First").select([7]) == 2


# --- gateways ----------------------------------------------------------------------

#: gateway constants: one family each; a boolean gateway is never hashed
GATEWAY_POOLS = (STRING_KEYS, NUMBER_KEYS, (True, False))


def _run(model, value, mode: str):
    trace, summary = runtime.run_once(model, {"x": [value]}, RunOptions(mode=mode))
    return (summary.status, summary.code, summary.message,
            [record for record in trace.records if isinstance(record, runtime.EdgeTraversed)])


@given(st.sampled_from(GATEWAY_POOLS).flatmap(
           lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=6)),
       st.booleans(), st.lists(st.sampled_from(FIRST_ARGS + (UNDEFINED,)), min_size=1,
                               max_size=4))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_hashed_gateway_takes_the_edge_its_scan_takes(constants, default, values):
    # in both modes: the same edges, and the same status, code and message,
    # for a value in the family, out of it, undefined, or with no case
    # holding and no default (an unhandled condition)
    default = default or len(constants) == 1  # a split has two flows out at least
    hashed = compile_model(parse_bpmn(gateway_xml(constants, default)), ())
    scanned = dataclasses.replace(hashed)  # not lowered yet
    for mode in ("sequential", "parallel"):
        for value in values:
            with scanning(runtime):
                want = _run(scanned, value, mode)  # lowers on the first run
            assert _run(hashed, value, mode) == want, (constants, default, value, mode)
    closure = runtime._program(hashed).nodes["g"].run.__name__
    assert (closure == "branch_hashed") == (type(constants[0]) is not bool), closure
