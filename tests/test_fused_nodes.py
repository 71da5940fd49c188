"""The node program: each routine the compiler emits is one step, which
the runtime lowers, through one table, to one closure that does the node's
work and returns its edge. What those closures cost is held to budgets on
opcode and call counts in `tests/test_opcounts.py`; here is what they do:

- the fault path of each node kind keeps its status, code, message and
  records (taken before tasks and their edges were fused);
- a campaign builds a run's summary only for a run it keeps, and an engine
  keeps each channel's waiter list, emptied, for its later runs;
- fork-free models drawn from the block grammar of `tests/generators.py`
  (script tasks, exclusive gateways with one condition and a default,
  counter-bounded loops) run as `tests/oracles.py::walk_process` walks them,
  in both modes. The walk evaluates with the reference evaluators, so a
  defect in a compiled closure shows as a difference, and ends a faulting
  run as the runtime does (checked on the fault cases above).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bproc import RunOptions, compile_model, parse_bpmn, run_once, runtime
from bproc.compiler import Step
from bproc.inputs import UnhandledDomain
from bproc.verifier import CampaignConfig, ErrorSeek, FixedBudget, run_campaign

from conftest import compile_fixture
from generators import DEFINITIONS, FOOTER, models
from oracles import walk_process
from test_runtime import CROSS_RECEIVE, MSG_PRELUDE, compile_inline

MODES = ("sequential", "parallel")


@pytest.mark.parametrize("name, dmns, rule", [("discount", ("discount",), FixedBudget(n=40)),
                                              ("discount", ("discount",), ErrorSeek(n=40)),
                                              ("triage", (), ErrorSeek(n=40))])
def test_a_campaign_builds_a_summary_only_for_a_run_it_keeps(name, dmns, rule, tmp_path,
                                                             monkeypatch):
    # without run files, a run the verdict does not name builds no
    # RunSummary: every discount run succeeds, and error seeking keeps only
    # the failing triage run it stops at; with run files every run is kept
    built = []

    class Counted(runtime.RunSummary):
        def __init__(self, *args):
            built.append(self)
            super().__init__(*args)

    monkeypatch.setattr(runtime, "RunSummary", Counted)
    x = compile_fixture(name, *dmns, sample_seed=42)
    cfg = CampaignConfig(mode=rule, seed=1, sequential=True)
    verdict = run_campaign(x, cfg)
    kept = int(verdict.result == "FAIL")
    assert verdict.coverage.runs_executed > 1 and kept == (name == "triage")
    assert len(built) == kept
    built.clear()
    run_campaign(x, cfg, None, str(tmp_path))
    assert len(built) == verdict.coverage.runs_executed


def test_an_engine_keeps_its_emptied_waiter_lists():
    # each run ends in deadlock, a receive waiting on each channel; the next
    # run empties the same lists before its receives wait in them again
    engine = runtime._Engine(compile_inline(CROSS_RECEIVE, prelude=MSG_PRELUDE),
                             RunOptions(mode="parallel"))
    assert engine.run({}, 1) == "fault"
    waiters = dict(engine._waiting)
    assert sorted(waiters) == ["toA", "toB"] and all(len(kept) == 1 for kept in waiters.values())
    assert engine.run({}, 2) == "fault" and engine.summary().message.startswith("deadlock")
    assert all(engine._waiting[channel] is kept and len(kept) == 1
               for channel, kept in waiters.items())


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
