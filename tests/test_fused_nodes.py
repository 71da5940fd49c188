"""The node program: each routine the compiler emits is one step, which
the runtime lowers, through one table, to one closure that does the node's
work and returns its edge.

- `sys.setprofile` pins the Python calls each node makes, so that a wrapper
  layer around a node's closure cannot come back unnoticed;
- the fault path of each node kind keeps its status, code, message and
  records (taken before tasks and their edges were fused);
- fork-free models drawn from the block grammar of `tests/generators.py`
  (script tasks, exclusive gateways with one condition and a default,
  counter-bounded loops) run as `tests/oracles.py::walk_process` walks them,
  in both modes. The walk evaluates with the reference evaluators, so a
  defect in a compiled closure shows as a difference, and ends a faulting
  run as the runtime does (checked on the fault cases above).
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bproc import RunOptions, compile_model, parse_bpmn, parse_expr, run_once, runtime
from bproc.compiler import Step
from bproc.feel import ast, compile_expr
from bproc.inputs import UnhandledDomain
from bproc.verifier import CampaignConfig, ErrorSeek, FixedBudget, run_campaign

from conftest import compile_fixture, load_fixture
from generators import DEFINITIONS, FOOTER, Text, models
from oracles import walk_process
from test_pins import diamonds
from test_runtime import compile_inline

MODES = ("sequential", "parallel")


def _name(frame) -> str:
    code = frame.f_code
    if code.co_name == "__init__":
        return f"{type(frame.f_locals['self']).__name__}.__init__"
    return code.co_name


# Python 3.12 runs these inline, with no frame of their own (PEP 709)
COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})


def node_calls(model, lists, options, hits=None):
    """Run the model under `sys.setprofile` and list, per node the engine
    steps, the Python functions called: (depth, name), from the node's
    closure (depth 1) down. C functions are not counted, and neither is
    the frame of a list, dict or set comprehension: what it calls counts
    as called by its caller, as on every Python version."""
    engine = runtime._Engine.run.__code__
    calls: list[tuple[str, list]] = []
    frames: list[bool] = []  # the frames open below the node's closure: counted or not
    depth = 0

    def profile(frame, event, arg):
        nonlocal depth
        if event == "call":
            if frames:
                counted = frame.f_code.co_name not in COMPREHENSIONS
                frames.append(counted)
                if counted:
                    depth += 1
                    calls[-1][1].append((depth, _name(frame)))
            elif frame.f_back is not None and frame.f_back.f_code is engine:
                stepping = frame.f_back.f_locals
                run = stepping.get("run")
                # the node's closure; not _check_limits, a _Branch or a _Barrier
                if run is not None and frame.f_code is run.__code__:
                    frames.append(True)
                    depth = 1
                    calls.append((stepping["node"].id, [(1, _name(frame))]))
        elif event == "return" and frames and frames.pop():
            depth -= 1

    sys.setprofile(profile)
    try:
        if hits is None:
            trace, summary = run_once(model, lists, options)
        else:  # a campaign's run
            campaign = runtime._Engine(model, options, hits)
            campaign.run(lists, 0)
            trace, summary = campaign.trace, campaign.summary()
    finally:
        sys.setprofile(None)
    return calls, trace, summary


LOOP_NODE_CALLS = {
    "StartEvent_Loop": [(1, "<lambda>")],
    "Activity_Init": [(1, "assign"), (2, "<lambda>"), (2, "VarWritten.__init__")],
    "Gateway_Cycle": [(1, "<lambda>")],
    "Activity_Spin": [(1, "assign"), (2, "var_arith_lit"), (2, "VarWritten.__init__")],
    "Gateway_Again": [(1, "branch_one"), (2, "var_order_lit")],
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("traced", (True, False))
def test_each_loop_node_is_one_closure_call(mode, traced):
    # Activity_Spin is its node closure, the fused `n + 1` closure and the
    # write record, and nothing else; a campaign run builds no record, and a
    # parallel run that never forks keeps no write-race bookkeeping
    loop = compile_fixture("loop")
    hits = None if traced else runtime.CoverageHits(loop)
    calls, trace, summary = node_calls(loop, {}, RunOptions(mode=mode, max_steps=30), hits)
    assert summary.message == "step budget of 30 exceeded"
    assert len(calls) == 30
    if traced:
        assert [node for node, _ in calls] == trace.node_sequence()
    for node, made in calls:
        expected = LOOP_NODE_CALLS[node]
        if not traced:
            expected = [call for call in expected if call[1] != "VarWritten.__init__"]
        assert made == expected, node


def test_each_shipment_node_is_one_closure_call(shipment):
    # the closure of every node and the calls it makes itself: a consume
    # writes inline, a table call is its arguments and its table's selector,
    # and a traced run adds only its records; the selector's own calls
    # (depth 3 on) are the decision table's business. Compiling folds the negation
    # in `pLength = -1`, so each condition is one fused closure
    for traced in (True, False):
        hits = None if traced else runtime.CoverageHits(shipment)
        calls, trace, summary = node_calls(shipment, {"pType": ["l"], "pWeight": [9.0]},
                                           RunOptions(mode="sequential"), hits)
        assert summary.code == "NO_SHIPMENT"
        write = [(2, "VarWritten.__init__")] if traced else []
        table = [(2, "TableEvaluated.__init__")] if traced else []
        consume = [(1, "consume")] + write
        invoke_two = [(1, "invoke"), (2, "var"), (2, "var"), (2, "select")] + table + write
        expected = [
            ("StartEvent_Package", consume),
            ("Activity_GetLength",
             [(1, "invoke"), (2, "var"), (2, "select")] + table + write),
            ("Gateway_LengthCheck", [(1, "branch_one"), (2, "var_equals_lit")]),
            ("Activity_MeasureWeight", consume),
            ("Gateway_WeightCheck", [(1, "branch_one"), (2, "var_order_lit")]),
            ("Activity_DetermineMode", invoke_two),
            ("Gateway_ModeCheck", [(1, "branch"), (2, "var_equals_lit")]),
            ("Activity_ChooseConsent", invoke_two),
            ("Gateway_ConsentCheck", [(1, "branch"), (2, "var_equals_lit")]),
            ("EndEvent_NoShipment", [(1, "<lambda>"), (2, "_set_outcome")]),
        ]
        assert [(node, [c for c in made if c[0] <= 2]) for node, made in calls] == expected
        if traced:
            assert [node for node, _ in calls] == trace.node_sequence()


def python_calls(fn, *args) -> list[str]:
    """The Python functions a call runs, itself first; C functions and the
    frame of a comprehension are not counted (see `node_calls`)."""
    names: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            names.append(_name(frame))

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


def test_a_plain_table_call_and_a_literal_equality_check_no_value():
    # a GetLengthDT selection on a plain string: the table's selector and
    # one call per cell of its five one-cell rules (Unique matches every
    # rule); no value check, no dash and no output built
    _, tables = load_fixture("shipment", "shipment")
    (table,) = [t for t in tables if t.id == "GetLengthDT"]
    calls = python_calls(table.select, ["m"])
    assert not {"_defined_scalar", "_scalar", "dash"} & set(calls)
    cells = sum(not isinstance(test, ast.Dash) for rule in table.rules
                for test in rule.input_entries)
    assert calls[0] == "select" and len(calls) <= 1 + cells
    # a checked argument (here a str subclass) still takes the checked cells
    assert "_defined_scalar" in python_calls(table.select, [Text("m")])
    # a variable compared equal to a literal is one closure; it calls
    # `equals` for any pair but two strings or two numbers
    condition = compile_expr(parse_expr('sMode = "air"'))
    for mode in ("air", "car"):
        assert python_calls(condition, {"sMode": mode}) == ["var_equals_lit"]
    assert python_calls(condition, {"sMode": None})[:2] == ["var_equals_lit", "equals"]
    # a folded negation is a literal too
    condition = compile_expr(parse_expr("pLength = -1"))
    assert python_calls(condition, {"pLength": 3}) == ["var_equals_lit"]


@pytest.mark.parametrize("name, dmns, rule", [("discount", ("discount",), FixedBudget(n=40)),
                                              ("discount", ("discount",), ErrorSeek(n=40)),
                                              ("triage", (), ErrorSeek(n=40))])
def test_a_campaign_builds_a_summary_only_for_a_run_it_keeps(name, dmns, rule, tmp_path):
    # without run files, a run the verdict does not name builds no
    # RunSummary: every discount run succeeds, and error seeking keeps only
    # the failing triage run it stops at; with run files every run is kept
    x = compile_fixture(name, *dmns, sample_seed=42)
    cfg = CampaignConfig(mode=rule, seed=1, sequential=True)
    calls = python_calls(run_campaign, x, cfg)
    verdict = run_campaign(x, cfg)
    kept = int(verdict.result == "FAIL")
    assert verdict.coverage.runs_executed > 1 and kept == (name == "triage")
    assert calls.count("RunSummary.__init__") == kept
    calls = python_calls(run_campaign, x, cfg, None, str(tmp_path))
    assert calls.count("RunSummary.__init__") == verdict.coverage.runs_executed


def test_a_send_node_is_one_closure_call():
    x = compile_fixture("pingpong_sendfirst")
    calls, _, summary = node_calls(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "success"
    sends = [made for node, made in calls if node == "Activity_Send"]
    assert sends and all(made[0] == (1, "send") and all(d == 2 for d, _ in made[1:])
                         for made in sends)


#: the Python calls of one warm parallel campaign run of `diamonds(300, 7)`
#: (1,204 nodes; x = 50, seed 2): 1,672, with a join's `passed` its edge,
#: taken without a call, and one `_Engine._note_writer` call per forked write
WARM_RUN_CALLS = 1_672


def test_a_warm_parallel_run_keeps_to_its_call_budget():
    x = compile_model(parse_bpmn(diamonds(300, 7)), ())
    engine = runtime._Engine(x, RunOptions(), runtime.CoverageHits(x))
    assert engine.run({"x": [50]}, 1) == "success"
    calls = python_calls(engine.run, {"x": [50]}, 2)
    assert engine.summary().status == "success" and engine.diagnostics == []
    assert calls.count("receive") > 300  # some receives waited for their sends
    assert calls.count("_note_writer") == 300
    assert len(calls) <= WARM_RUN_CALLS * 1.05, f"{len(calls)} calls, budget {WARM_RUN_CALLS} + 5%"


# --- fault paths of the fused nodes -------------------------------------------

START_X = ('<startEvent id="s"><extensionElements><ext:ioMapping>'
           '<ext:output source="x" target="x"/></ext:ioMapping></extensionElements></startEvent>')
SEND_FAULT = ('<sendTask id="t"><extensionElements><ext:ioMapping channel="c">'
              '<ext:input source="=x" target="a"/><ext:input source="=1 / 0" target="b"/>'
              '</ext:ioMapping></extensionElements></sendTask><endEvent id="e"/>'
              '<sequenceFlow id="f1" sourceRef="s" targetRef="t"/>'
              '<sequenceFlow id="f2" sourceRef="t" targetRef="e"/>')
# y is written only behind the gateway, so the condition meets it undefined
GATE = ('<exclusiveGateway id="g" default="f3"/><endEvent id="e1"/><endEvent id="e2"/>'
        '<scriptTask id="t" resultVariable="y"><script>x</script></scriptTask>'
        '<sequenceFlow id="f1" sourceRef="s" targetRef="g"/>'
        '<sequenceFlow id="f2" sourceRef="g" targetRef="t"><conditionExpression>{condition}'
        '</conditionExpression></sequenceFlow>'
        '<sequenceFlow id="f4" sourceRef="t" targetRef="e1"/>'
        '<sequenceFlow id="f3" sourceRef="g" targetRef="e2"/>')
TWO_INPUTS = ('<userTask id="u"><extensionElements><ext:ioMapping>'
              '<ext:output source="y" target="y"/><ext:output source="z" target="z"/>'
              '</ext:ioMapping></extensionElements></userTask>'
              '<scriptTask id="t" resultVariable="w"><script>x + y + z</script></scriptTask>'
              '<endEvent id="e"/><sequenceFlow id="f1" sourceRef="s" targetRef="u"/>'
              '<sequenceFlow id="f2" sourceRef="u" targetRef="t"/>'
              '<sequenceFlow id="f3" sourceRef="t" targetRef="e"/>')
INPUTS_XYZ = {"x": [4], "y": [5], "z": [6]}
U_RUN = ["NodeActivated(node='u')", "VarWritten(name='y', value=5)",
         "VarWritten(name='z', value=6)", "EdgeTraversed(source='u', target='t')"]


def _s_to(target: str) -> list[str]:
    """The records of the start event `s`, which writes x = 4."""
    return ["NodeActivated(node='s')", "VarWritten(name='x', value=4)",
            f"EdgeTraversed(source='s', target='{target}')"]


# name -> (model source, inputs, max_steps, (status, code, message), records)
FAULTS = {
    "send part raises": (
        START_X + SEND_FAULT, {"x": [4]}, None,
        ("fault", "ENGINE_FAULT", "t: division by zero"),
        _s_to("t") + ["NodeActivated(node='t')"]),
    "condition on an undefined variable": (
        START_X + GATE.format(condition="y &gt; 0"), {"x": [4]}, None,
        ("fault", "ENGINE_FAULT", "g: operation touches an undefined variable"),
        _s_to("g") + ["NodeActivated(node='g')"]),
    "condition is null": (
        START_X + GATE.format(condition="null"), {"x": [4]}, None,
        ("fault", "ENGINE_FAULT", "g: condition is not boolean"),
        _s_to("g") + ["NodeActivated(node='g')"]),
    "condition is a number": (
        START_X + GATE.format(condition="x + 1"), {"x": [4]}, None,
        ("fault", "ENGINE_FAULT", "g: condition is not boolean"),
        _s_to("g") + ["NodeActivated(node='g')"]),
    "budget ends before a two-input node": (
        START_X + TWO_INPUTS, INPUTS_XYZ, 1,
        ("fault", "ENGINE_FAULT", "step budget of 1 exceeded"), _s_to("u")),
    "budget ends after a two-input node": (
        START_X + TWO_INPUTS, INPUTS_XYZ, 2,
        ("fault", "ENGINE_FAULT", "step budget of 2 exceeded"), _s_to("u") + U_RUN),
    "two-input node": (
        START_X + TWO_INPUTS, INPUTS_XYZ, None, ("success", "e", "e"),
        _s_to("u") + U_RUN + ["NodeActivated(node='t')", "VarWritten(name='w', value=15)",
                              "EdgeTraversed(source='t', target='e')",
                              "NodeActivated(node='e')"]),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", list(FAULTS))
def test_a_fused_node_faults_as_before(name, mode):
    body, lists, max_steps, outcome, records = FAULTS[name]
    options = RunOptions(mode=mode, seed=3)
    if max_steps is not None:
        options.max_steps = max_steps
    trace, summary = run_once(compile_inline(body), lists, options)
    assert (summary.status, summary.code, summary.message) == outcome
    assert [repr(r) for r in trace.records] == records
    assert summary.diagnostics == []


@pytest.mark.parametrize("mode", MODES)
def test_a_table_without_a_matching_rule_faults_in_its_node(shipment, mode):
    trace, summary = run_once(shipment, {"pType": ["???"], "pWeight": [1.0]},
                              RunOptions(mode=mode, seed=3))
    assert (summary.status, summary.code, summary.message) == (
        "fault", "ENGINE_FAULT", "Activity_GetLength: no rule of table 'GetLengthDT' "
                                 "matches and the table has no default row")
    assert [repr(r) for r in trace.records] == [
        "NodeActivated(node='StartEvent_Package')", "VarWritten(name='pType', value='???')",
        "EdgeTraversed(source='StartEvent_Package', target='Activity_GetLength')",
        "NodeActivated(node='Activity_GetLength')"]


@pytest.mark.parametrize("name", [name for name, (body, _, steps, *_) in FAULTS.items()
                                  if steps is None and "sendTask" not in body])
def test_walk_process_ends_as_the_runtime_does(name):
    # the walk has no step budget and no channels; a fault ends it as a run
    body, lists, _, outcome, _ = FAULTS[name]
    walked = walk_process(parse_bpmn(DEFINITIONS + body + FOOTER), [],
                          {var: values[0] for var, values in lists.items()})
    assert walked.outcome == outcome[:2]


def test_every_step_class_has_its_lowerer():
    # one table lowers every step the compiler emits, each to one closure
    assert set(runtime._LOWER) == set(Step.__args__)


# --- generated fork-free models against walk_process -----------------------------

@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=models(), x=st.integers(-10, 10))
def test_fork_free_runs_match_walk_process(drawn, x):
    model = compile_model(parse_bpmn(drawn.xml), ())
    (spec,) = model.input_vars  # x, whose inferred domain is never empty
    assert (spec.name,) == drawn.inputs and drawn.fork_free
    assert isinstance(spec.domain, UnhandledDomain) or all(map(spec.domain.contains,
                                                               drawn.x_holds))
    walked = walk_process(parse_bpmn(drawn.xml), [], {"x": x})
    for mode in MODES:
        trace, summary = run_once(model, {"x": [x]}, RunOptions(mode=mode, seed=x))
        assert trace.node_sequence() == walked.nodes
        assert trace.writes() == walked.writes
        assert (summary.status, summary.code) == walked.outcome
