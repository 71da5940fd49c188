import hashlib
import itertools
import math
import pickle
import random
import threading
import tracemalloc
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bproc import RunOptions, compile_model, parse_bpmn, run_once, runtime
from bproc.compiler import Fork
from bproc.errors import ConfigError
from bproc.feel.values import MAX_STRING_LENGTH
from bproc.runtime import (TableEvaluated, VarWritten, parse_summary_inputs,
                           render_graph_file, render_summary_file, render_trace_file,
                           write_artifacts)
from bproc.verifier import draw_input_lists

from conftest import compile_fixture
from golden_support import FIXTURE_PLAN, compiled
from test_pins import SEED, diamonds


def compile_inline(body: str, prelude: str = ""):
    xml = (f'<?xml version="1.0"?>'
           f'<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" '
           f'xmlns:ext="http://x/ext">{prelude}'
           f'<process id="p" name="P">{body}</process></definitions>')
    return compile_model(parse_bpmn(xml), ())


def test_shipment_xl_path_writes_length_two(shipment):
    trace, summary = run_once(shipment, {"pType": ["xl"], "pWeight": [9.5]},
                              RunOptions(mode="sequential"))
    nodes = trace.node_sequence()
    assert nodes[:2] == ["StartEvent_Package", "Activity_GetLength"]
    assert ("pLength", 2) in trace.writes()
    # 9.5 exceeds the weight limit
    assert summary.status == "error"
    assert summary.code == "UNSUPPORTED_WEIGHT"


def test_consent_path(shipment):
    trace, summary = run_once(shipment, {"pType": ["l"], "pWeight": [9.0]},
                              RunOptions(mode="sequential"))
    assert summary.status == "error"
    assert summary.code == "NO_SHIPMENT"
    assert ("consent", "no") in trace.writes()
    tables = [r.table for r in trace.records if isinstance(r, TableEvaluated)]
    assert tables == ["GetLengthDT", "DetermineModeDT", "ChooseConsentDT"]


def test_missing_input_list_is_a_config_error(shipment):
    with pytest.raises(ConfigError):
        run_once(shipment, {"pType": ["xl"]})
    with pytest.raises(ConfigError):
        run_once(shipment, {"pType": ["xl"], "pWeight": []})



@pytest.mark.parametrize("timeout_s", [0, -0.001, float("nan")])
def test_non_positive_timeout_is_a_config_error(shipment, timeout_s):
    with pytest.raises(ConfigError, match="timeout must be positive"):
        run_once(shipment, {"pType": ["xl"], "pWeight": [1.0]},
                 RunOptions(mode="sequential", timeout_s=timeout_s))


LOOP_TWICE = """
  <dataObject id="d"/>
  <dataObjectReference id="dr" name="v" dataObjectRef="d"/>
  <startEvent id="s"/>
  <scriptTask id="init" resultVariable="i"><script>0</script></scriptTask>
  <exclusiveGateway id="merge"/>
  <userTask id="ask" name="ask value">
    <dataOutputAssociation id="a1"><targetRef>dr</targetRef></dataOutputAssociation>
  </userTask>
  <scriptTask id="bump" resultVariable="i"><script>i + 1</script></scriptTask>
  <exclusiveGateway id="check" default="Flow_back"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="init"/>
  <sequenceFlow id="f2" sourceRef="init" targetRef="merge"/>
  <sequenceFlow id="f3" sourceRef="merge" targetRef="ask"/>
  <sequenceFlow id="f4" sourceRef="ask" targetRef="bump"/>
  <sequenceFlow id="f5" sourceRef="bump" targetRef="check"/>
  <sequenceFlow id="Flow_done" sourceRef="check" targetRef="e">
    <conditionExpression>i &gt;= 2</conditionExpression>
  </sequenceFlow>
  <sequenceFlow id="Flow_back" sourceRef="check" targetRef="merge"/>
"""


def test_exhausted_input_list_reuses_last_value():
    x = compile_inline(LOOP_TWICE)
    trace, summary = run_once(x, {"v": [5]}, RunOptions(mode="sequential"))
    assert summary.status == "success"
    reads = [value for name, value in trace.writes() if name == "v"]
    assert reads == [5, 5]  # consumed twice, single-element list


def test_multi_value_input_list_consumed_in_order():
    x = compile_inline(LOOP_TWICE)
    trace, _ = run_once(x, {"v": [5, 7]}, RunOptions(mode="sequential"))
    reads = [value for name, value in trace.writes() if name == "v"]
    assert reads == [5, 7]


def test_input_cursor_never_exceeds_list_length():
    from bproc.runtime import _Engine

    x = compile_inline(LOOP_TWICE)
    engine = _Engine(x, {"v": [5]}, RunOptions(mode="sequential"), None, None)
    engine.run()
    assert engine._outcome[0] == "success"
    assert engine.cursors["v"] == 1  # consumed twice, list of one


def test_timeout_on_nonterminating_loop():
    x = compile_fixture("loop")
    trace, summary = run_once(x, {}, RunOptions(mode="sequential", timeout_s=0.1))
    assert summary.status == "timeout"
    assert summary.elapsed_s >= 0.1
    assert len(trace.records) > 0


def test_step_budget_caps_runaway_loops():
    x = compile_fixture("loop")
    _, summary = run_once(x, {}, RunOptions(mode="sequential", max_steps=500))
    assert summary.status == "fault"
    assert "step budget" in summary.message


def test_the_clock_is_read_every_1024_steps(monkeypatch):
    x = compile_fixture("loop")
    reads = []
    clock = runtime.time.monotonic
    monkeypatch.setattr(runtime, "time",
                        types.SimpleNamespace(monotonic=lambda: reads.append(1) or clock()))
    _, summary = run_once(x, {}, RunOptions(mode="sequential", max_steps=10_000, timeout_s=60))
    assert summary.message == "step budget of 10000 exceeded"
    # the start, steps 1, 1025, ..., 9217 (10 reads) and the elapsed time
    assert len(reads) == 12


@pytest.mark.parametrize("mode", ("sequential", "parallel"))
def test_a_clock_past_the_deadline_times_out(monkeypatch, mode):
    x = compile_fixture("loop")
    reads = itertools.count()  # the run starts at 0, then every read is an hour later
    monkeypatch.setattr(runtime, "time",
                        types.SimpleNamespace(monotonic=lambda: 3600.0 * bool(next(reads))))
    _, summary = run_once(x, {}, RunOptions(mode=mode, timeout_s=5))
    assert (summary.status, summary.code, summary.message) == \
        ("timeout", "TIMEOUT", "execution exceeded 5s")
    assert summary.elapsed_s == 3600.0


@pytest.mark.parametrize("mode", ("sequential", "parallel"))
def test_a_clock_that_expires_at_its_second_read_in_the_run(monkeypatch, mode):
    x = compile_fixture("loop")
    reads = itertools.count()  # the start and step 1 read 0, later reads an hour on
    monkeypatch.setattr(runtime, "time",
                        types.SimpleNamespace(monotonic=lambda: 3600.0 * (next(reads) >= 2)))
    trace, summary = run_once(x, {}, RunOptions(mode=mode, timeout_s=5))
    assert (summary.status, summary.message) == ("timeout", "execution exceeded 5s")
    # step 1,025 reads the clock and times out before its node is activated
    assert len(trace.node_sequence()) == runtime.CLOCK_EVERY == 1024


@pytest.mark.parametrize("name", ("loop", "pingpong", "diamonds"))
@pytest.mark.parametrize("mode", ("sequential", "parallel"))
def test_a_step_budget_cuts_the_natural_run_short(name, mode):
    # a budget of k steps ends the run on step k + 1, after k activations,
    # exactly when the natural run is longer; the trace so far is the same.
    # In parallel mode, seed 7 activates the receives of the second and
    # third of three diamonds before their sends: a receive waits within
    # its one step and one activation, and its join is passed once
    if name == "diamonds":
        x, inputs = compile_model(parse_bpmn(diamonds(3, SEED)), ()), {"x": [50]}
    else:
        x, inputs = compile_fixture(name), {}

    def run(max_steps):
        return run_once(x, inputs, RunOptions(mode=mode, seed=7, max_steps=max_steps,
                                              timeout_s=60))

    longer, natural = run(1_000)
    nodes = longer.node_sequence()
    natural_steps = len(nodes)
    if natural.message == "step budget of 1000 exceeded":
        natural_steps = math.inf  # `loop` never ends
    assert (name == "loop") is (natural_steps == math.inf)
    if name == "diamonds":
        assert natural.status == "success"
        for i in (1, 2, 3):
            assert (nodes.count(f"Recv{i}"), nodes.count(f"Join{i}")) == (1, 1)
        early = [i for i in (1, 2, 3) if nodes.index(f"Recv{i}") < nodes.index(f"Send{i}")]
        assert early == ([2, 3] if mode == "parallel" else [])
    for max_steps in range(1, 61):
        trace, summary = run(max_steps)
        assert trace.records == longer.records[:len(trace.records)]
        if natural_steps > max_steps:
            assert (summary.status, summary.code, summary.message) == \
                ("fault", "ENGINE_FAULT", f"step budget of {max_steps} exceeded")
            assert len(trace.node_sequence()) == max_steps
        else:
            assert trace.records == longer.records
            assert (summary.status, summary.code, summary.message) == \
                (natural.status, natural.code, natural.message)


STRING_DOUBLING = """
  <startEvent id="s"/>
  <scriptTask id="init" resultVariable="t"><script>"x"</script></scriptTask>
  <exclusiveGateway id="cycle"/>
  <scriptTask id="double" resultVariable="t"><script>t + t</script></scriptTask>
  <exclusiveGateway id="again" default="f_exit"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="init"/>
  <sequenceFlow id="f2" sourceRef="init" targetRef="cycle"/>
  <sequenceFlow id="f3" sourceRef="cycle" targetRef="double"/>
  <sequenceFlow id="f4" sourceRef="double" targetRef="again"/>
  <sequenceFlow id="f_back" sourceRef="again" targetRef="cycle">
    <conditionExpression>length(t) &gt; 0</conditionExpression>
  </sequenceFlow>
  <sequenceFlow id="f_exit" sourceRef="again" targetRef="e"/>
"""


@pytest.mark.parametrize("mode", ("sequential", "parallel"))
def test_a_value_past_the_size_limit_is_an_engine_fault(mode):
    # the string doubles until the next doubling would pass the limit
    x = compile_inline(STRING_DOUBLING)
    trace, summary = run_once(x, {}, RunOptions(mode=mode, timeout_s=60))
    assert (summary.status, summary.code, summary.message) == \
        ("fault", "ENGINE_FAULT", "double: string concatenation would exceed "
                                  f"{MAX_STRING_LENGTH} characters")
    lengths = [len(value) for name, value in trace.writes()]
    assert lengths[-1] == MAX_STRING_LENGTH == 2 ** (len(lengths) - 1)


def test_trace_records_cost_little_memory():
    x = compile_fixture("loop")
    tracemalloc.start()
    try:
        trace, summary = run_once(x, {}, RunOptions(mode="sequential", max_steps=30_000,
                                                    timeout_s=60))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.message == "step budget of 30000 exceeded"
    assert len(trace.records) == 70_000
    # node and edge records are shared by every run; what a run allocates
    # is the record list and its variable writes
    assert peak / len(trace.records) < 40


@pytest.mark.parametrize("record,same,twin,text", [
    (VarWritten("n", 5), VarWritten("n", 5), TableEvaluated("n", 5),
     "VarWritten(name='n', value=5)"),
    (TableEvaluated("T", (("o", 1),)), TableEvaluated("T", (("o", 1),)),
     VarWritten("T", (("o", 1),)), "TableEvaluated(table='T', outputs=(('o', 1),))"),
])
def test_write_and_table_records_compare_by_value(record, same, twin, text):
    # `twin` is a record of the other class with the same field values
    assert record == same and hash(record) == hash(same)
    assert record != twin
    assert repr(record) == text
    assert not hasattr(record, "__dict__")  # slotted


def test_non_boolean_gateway_condition_faults():
    x = compile_inline("""
      <startEvent id="s"/>
      <exclusiveGateway id="g" default="f2"/>
      <endEvent id="e1"/><endEvent id="e2"/>
      <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
      <sequenceFlow id="f1" sourceRef="g" targetRef="e1">
        <conditionExpression>1 + 1</conditionExpression>
      </sequenceFlow>
      <sequenceFlow id="f2" sourceRef="g" targetRef="e2"/>
    """)
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert (summary.status, summary.message) == ("fault", "g: condition is not boolean")


def test_evaluation_errors_become_engine_faults():
    x = compile_inline("""
      <startEvent id="s"/>
      <scriptTask id="t" resultVariable="x"><script>1 / 0</script></scriptTask>
      <endEvent id="e"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="t"/>
      <sequenceFlow id="f2" sourceRef="t" targetRef="e"/>
    """)
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "fault"
    assert "division by zero" in summary.message


def test_no_match_decision_faults(shipment):
    # force an argument outside every rule: pType value no rule accepts
    _, summary = run_once(shipment, {"pType": ["???"], "pWeight": [1.0]},
                          RunOptions(mode="sequential"))
    assert summary.status == "fault"
    assert "GetLengthDT" in summary.message


# --- fork / join / messages -----------------------------------------------------

def test_parallel_fork_joins_exactly_once():
    x = compile_fixture("pingpong")
    for _ in range(50):
        trace, summary = run_once(x, {}, RunOptions(mode="parallel"))
        assert summary.status == "success"
        nodes = trace.node_sequence()
        assert nodes.count("Gateway_Sync") == 1
        assert nodes.count("Activity_Combine") == 1
        assert ("m1", 3) in trace.writes()
        assert ("out", 4) in trace.writes()


def test_sequential_fork_runs_branches_in_case_order():
    x = compile_fixture("pingpong_sendfirst")
    trace, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "success"
    nodes = trace.node_sequence()
    assert nodes.index("Activity_Send") < nodes.index("Activity_Await")
    assert nodes.count("Gateway_Sync") == 1


def test_sequential_receive_before_send_deadlocks():
    x = compile_fixture("pingpong")
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "fault"
    assert "Activity_Await" in summary.message
    assert "deadlock" in summary.message


MSG_PRELUDE = '<message id="M1" name="TypeA"/><message id="M2" name="TypeB"/>'

TWO_SENDS = """
  <startEvent id="s"/>
  <parallelGateway id="split"/>
  <sendTask id="send1" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:input source="=1" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <sendTask id="send2" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:input source="=2" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <receiveTask id="recv1" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:output source="v" target="a"/>
    </ext:ioMapping></extensionElements>
  </receiveTask>
  <receiveTask id="recv2" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:output source="v" target="b"/>
    </ext:ioMapping></extensionElements>
  </receiveTask>
  <parallelGateway id="join"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="split"/>
  <sequenceFlow id="f2" sourceRef="split" targetRef="send1"/>
  <sequenceFlow id="f3" sourceRef="split" targetRef="recv1"/>
  <sequenceFlow id="f4" sourceRef="send1" targetRef="send2"/>
  <sequenceFlow id="f5" sourceRef="recv1" targetRef="recv2"/>
  <sequenceFlow id="f6" sourceRef="send2" targetRef="join"/>
  <sequenceFlow id="f7" sourceRef="recv2" targetRef="join"/>
  <sequenceFlow id="f8" sourceRef="join" targetRef="e"/>
"""


def test_fifo_delivery_order():
    x = compile_inline(TWO_SENDS, prelude=MSG_PRELUDE)
    # sequential with the send branch first: both messages queued, then read
    trace, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "success"
    writes = dict(trace.writes())
    assert writes == {"a": 1, "b": 2}


LEFTOVER = """
  <startEvent id="s"/>
  <parallelGateway id="split"/>
  <sendTask id="send1" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:input source="=1" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <sendTask id="send2" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:input source="=2" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <sendTask id="send3" messageRef="M1">
    <extensionElements><ext:ioMapping channel="b">
      <ext:input source="=3" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <receiveTask id="recv1" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:output source="v" target="a"/>
    </ext:ioMapping></extensionElements>
  </receiveTask>
  <parallelGateway id="join"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="split"/>
  <sequenceFlow id="f2" sourceRef="split" targetRef="send1"/>
  <sequenceFlow id="f3" sourceRef="split" targetRef="recv1"/>
  <sequenceFlow id="f4" sourceRef="send1" targetRef="send2"/>
  <sequenceFlow id="f5" sourceRef="send2" targetRef="send3"/>
  <sequenceFlow id="f6" sourceRef="send3" targetRef="join"/>
  <sequenceFlow id="f7" sourceRef="recv1" targetRef="join"/>
  <sequenceFlow id="f8" sourceRef="join" targetRef="e"/>
"""


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_every_run_gets_fresh_channels(mode):
    x = compile_inline(LEFTOVER, prelude=MSG_PRELUDE)
    for _ in range(3):  # a message left over from a run never reaches the next
        trace, summary = run_once(x, {}, RunOptions(mode=mode))
        assert summary.status == "success"
        assert trace.writes() == [("a", 1)]


INCLUSIVE = """
  <startEvent id="s"/>
  <scriptTask id="t" resultVariable="x"><script>{value}</script></scriptTask>
  <inclusiveGateway id="g"/>
  <scriptTask id="a" resultVariable="hit_a"><script>true</script></scriptTask>
  <scriptTask id="b" resultVariable="hit_b"><script>true</script></scriptTask>
  <inclusiveGateway id="j"/>
  <endEvent id="e"/>
  <sequenceFlow id="f0" sourceRef="s" targetRef="t"/>
  <sequenceFlow id="f1" sourceRef="t" targetRef="g"/>
  <sequenceFlow id="f2" sourceRef="g" targetRef="a">
    <conditionExpression>x &gt; 1</conditionExpression>
  </sequenceFlow>
  <sequenceFlow id="f3" sourceRef="g" targetRef="b">
    <conditionExpression>x &gt; 10</conditionExpression>
  </sequenceFlow>
  <sequenceFlow id="f4" sourceRef="a" targetRef="j"/>
  <sequenceFlow id="f5" sourceRef="b" targetRef="j"/>
  <sequenceFlow id="f6" sourceRef="j" targetRef="e"/>
"""


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_inclusive_fork_selects_true_branches(mode):
    x = compile_inline(INCLUSIVE.format(value=5))  # only x > 1 holds
    trace, summary = run_once(x, {}, RunOptions(mode=mode))
    assert summary.status == "success"
    writes = dict(trace.writes())
    assert writes.get("hit_a") is True
    assert "hit_b" not in writes

    x = compile_inline(INCLUSIVE.format(value=50))  # both hold
    trace, summary = run_once(x, {}, RunOptions(mode=mode))
    assert summary.status == "success"
    writes = dict(trace.writes())
    assert writes.get("hit_a") is True and writes.get("hit_b") is True


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_inclusive_fork_with_no_true_condition_faults(mode):
    x = compile_inline(INCLUSIVE.format(value=0))
    _, summary = run_once(x, {}, RunOptions(mode=mode))
    assert summary.status == "fault"
    assert "unhandled condition" in summary.message


def test_parallel_writes_to_one_variable_are_flagged():
    x = compile_inline("""
      <startEvent id="s"/>
      <parallelGateway id="split"/>
      <scriptTask id="w1" resultVariable="shared"><script>1</script></scriptTask>
      <scriptTask id="w2" resultVariable="shared"><script>2</script></scriptTask>
      <parallelGateway id="join"/>
      <endEvent id="e"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="split"/>
      <sequenceFlow id="f2" sourceRef="split" targetRef="w1"/>
      <sequenceFlow id="f3" sourceRef="split" targetRef="w2"/>
      <sequenceFlow id="f4" sourceRef="w1" targetRef="join"/>
      <sequenceFlow id="f5" sourceRef="w2" targetRef="join"/>
      <sequenceFlow id="f6" sourceRef="join" targetRef="e"/>
    """)
    _, summary = run_once(x, {}, RunOptions(mode="parallel"))
    assert summary.status == "success"
    assert any("shared" in note for note in summary.diagnostics)


ORDERED_WRITES = """
  <startEvent id="s"/>
  <scriptTask id="w0" resultVariable="v"><script>0</script></scriptTask>
  <parallelGateway id="split"/>
  <scriptTask id="a" resultVariable="{a}"><script>1</script></scriptTask>
  <scriptTask id="b" resultVariable="hit_b"><script>2</script></scriptTask>
  <parallelGateway id="join"/>
  <scriptTask id="w3" resultVariable="v"><script>3</script></scriptTask>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="w0"/>
  <sequenceFlow id="f2" sourceRef="w0" targetRef="split"/>
  <sequenceFlow id="f3" sourceRef="split" targetRef="a"/>
  <sequenceFlow id="f4" sourceRef="split" targetRef="b"/>
  <sequenceFlow id="f5" sourceRef="a" targetRef="join"/>
  <sequenceFlow id="f6" sourceRef="b" targetRef="join"/>
  <sequenceFlow id="f7" sourceRef="join" targetRef="w3"/>
  <sequenceFlow id="f8" sourceRef="w3" targetRef="e"/>
"""


SUCCESSIVE_FORKS = """
  <startEvent id="s"/>
  <parallelGateway id="split1"/>
  <scriptTask id="a1" resultVariable="v"><script>1</script></scriptTask>
  <scriptTask id="b1" resultVariable="hit_b1"><script>1</script></scriptTask>
  <parallelGateway id="join1"/>
  <parallelGateway id="split2"/>
  <scriptTask id="a2" resultVariable="hit_a2"><script>2</script></scriptTask>
  <scriptTask id="b2" resultVariable="v"><script>3</script></scriptTask>
  <parallelGateway id="join2"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="split1"/>
  <sequenceFlow id="f2" sourceRef="split1" targetRef="a1"/>
  <sequenceFlow id="f3" sourceRef="split1" targetRef="b1"/>
  <sequenceFlow id="f4" sourceRef="a1" targetRef="join1"/>
  <sequenceFlow id="f5" sourceRef="b1" targetRef="join1"/>
  <sequenceFlow id="f6" sourceRef="join1" targetRef="split2"/>
  <sequenceFlow id="f7" sourceRef="split2" targetRef="a2"/>
  <sequenceFlow id="f8" sourceRef="split2" targetRef="b2"/>
  <sequenceFlow id="f9" sourceRef="a2" targetRef="join2"/>
  <sequenceFlow id="f10" sourceRef="b2" targetRef="join2"/>
  <sequenceFlow id="f11" sourceRef="join2" targetRef="e"/>
"""


@pytest.mark.parametrize("body", [ORDERED_WRITES.format(a="hit_a"), ORDERED_WRITES.format(a="v"),
                                  SUCCESSIVE_FORKS],
                         ids=["before_fork_and_after_join", "before_fork_and_in_one_branch",
                              "in_other_branches_of_successive_forks"])
def test_writes_ordered_by_fork_and_join_edges_are_not_flagged(body):
    x = compile_inline(body)
    for seed in range(30):
        trace, summary = run_once(x, {}, RunOptions(mode="parallel", seed=seed))
        assert summary.status == "success"
        assert [value for name, value in trace.writes() if name == "v"][-1] == 3
        assert summary.diagnostics == [], f"seed {seed}"


def test_message_type_mismatch_faults():
    body = TWO_SENDS.replace('receiveTask id="recv1" messageRef="M1"',
                             'receiveTask id="recv1" messageRef="M2"')
    x = compile_inline(body, prelude=MSG_PRELUDE)
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "fault"
    assert "TypeB" in summary.message and "TypeA" in summary.message


# --- determinism and artifacts ----------------------------------------------------

def test_sequential_trace_is_a_graph_path(shipment):
    edges = set(shipment.graph.edges)
    for inputs in ({"pType": ["s"], "pWeight": [1.0]},
                   {"pType": ["l"], "pWeight": [17.5]},
                   {"pType": ["unknown"], "pWeight": [4.0]}):
        trace, _ = run_once(shipment, inputs, RunOptions(mode="sequential"))
        nodes = trace.node_sequence()
        assert nodes[0] == shipment.entry
        for a, b in zip(nodes, nodes[1:]):
            assert (a, b) in edges


@pytest.mark.parametrize("name,dmns,mode", [("shipment", ("shipment",), "sequential"),
                                            ("discount", ("discount",), "parallel"),
                                            ("pingpong", (), "parallel")])
def test_models_pickle_before_and_after_a_run(name, dmns, mode):
    x = compile_fixture(name, *dmns, sample_seed=42)
    before = pickle.dumps(x)
    lists = {spec.name: [spec.sample] for spec in x.input_vars}
    options = RunOptions(mode=mode, seed=5)
    trace, summary = run_once(x, lists, options)
    assert x.program is not None
    after = pickle.dumps(x)  # the lowered program stays out of the pickled state
    for data in (before, after):
        y = pickle.loads(data)
        assert y.program is None
        for _ in range(2):
            again, again_summary = run_once(y, lists, options)
            assert again.records == trace.records
            assert _outcome(again_summary) == _outcome(summary)


def test_sequential_runs_are_byte_identical(shipment, tmp_path):
    files = []
    for i in (1, 2):
        trace, summary = run_once(shipment, {"pType": ["l"], "pWeight": [3.25]},
                                  RunOptions(mode="sequential", seed=7))
        paths = write_artifacts(trace, summary, shipment.graph, tmp_path / str(i),
                                stem="shipment")
        files.append({k: Path(p).read_bytes() for k, p in paths.items()})
    assert files[0] == files[1]


def test_artifact_formats(shipment, tmp_path):
    trace, summary = run_once(shipment, {"pType": ["s"], "pWeight": [2.0]},
                              RunOptions(mode="sequential"))
    graph_text = render_graph_file(shipment.graph)
    trace_text = render_trace_file(trace, shipment.graph)
    summary_text = render_summary_file(summary)

    graph_lines = graph_text.strip().split("\n")
    assert graph_lines[0] == "node StartEvent_Package package_received"
    assert len([l for l in graph_lines if l.startswith("node ")]) == 14
    assert len([l for l in graph_lines if l.startswith("edge ")]) == 17

    # every trace edge endpoint appears as a node line in the graph file
    graph_nodes = {l.split()[1] for l in graph_lines if l.startswith("node ")}
    for line in trace_text.strip().split("\n"):
        parts = line.split()
        if parts[0] == "edge":
            assert parts[1] in graph_nodes and parts[2] in graph_nodes
        else:
            assert parts[0] == "node" and parts[1] in graph_nodes

    assert "status: success" in summary_text
    assert summary_text.startswith('input pType = "s"\ninput pWeight = 2.0\n')


def _trace_text(trace, graph) -> str:
    """A trace file as docs/file-formats.md gives it: a line per node and
    edge record, in record order."""
    lines = [graph.node_lines[record.node] if isinstance(record, runtime.NodeActivated)
             else f"edge {record.source} {record.target}"
             for record in trace.records
             if isinstance(record, (runtime.NodeActivated, runtime.EdgeTraversed))]
    return "".join(line + "\n" for line in lines)


def _trace_cases(shipment):
    loop = compile_fixture("loop")
    chunk = runtime.TRACE_CHUNK_LINES
    # the loop's runs take a node and an edge line per step
    for max_steps in (2 * chunk, 2 * chunk + 1_000):
        trace, summary = run_once(loop, {}, RunOptions(mode="sequential", max_steps=max_steps,
                                                       timeout_s=60))
        yield loop.graph, trace, summary
    trace, summary = run_once(shipment, {"pType": ["l"], "pWeight": [3.25]},
                              RunOptions(mode="sequential"))
    yield shipment.graph, trace, summary  # table and write records between the lines
    yield shipment.graph, runtime.Trace(), summary


def test_trace_files_are_written_in_chunks(shipment, monkeypatch, tmp_path):
    chunk = runtime.TRACE_CHUNK_LINES
    for i, (graph, trace, summary) in enumerate(_trace_cases(shipment)):
        text = _trace_text(trace, graph)
        lines = text.count("\n")
        if i == 0:
            assert lines == 4 * chunk  # an exact multiple of the chunk size
        for chunk_lines in (chunk, 1, 3, lines - 1, lines, lines + 1):
            if chunk_lines < 1:
                continue
            monkeypatch.setattr(runtime, "TRACE_CHUNK_LINES", chunk_lines)
            sizes = [c.count("\n") for c in runtime._trace_chunks(trace, graph)]
            full, rest = divmod(lines, chunk_lines)
            assert sizes == [chunk_lines] * full + ([rest] if rest else [])
            paths = write_artifacts(trace, summary, graph, tmp_path / f"{i}_{chunk_lines}",
                                    stem="t", include_graph=False)
            with open(paths[".trace"], "rb") as fh:
                written = fh.read()
            assert written == render_trace_file(trace, graph).encode() == text.encode()


def test_summary_inputs_parse_back(shipment, tmp_path):
    trace, summary = run_once(shipment, {"pType": ["xl"], "pWeight": [4.5]},
                              RunOptions(mode="sequential"))
    paths = write_artifacts(trace, summary, shipment.graph, tmp_path, stem="s")
    assert parse_summary_inputs(paths[".out"]) == {"pType": "xl", "pWeight": 4.5}


def test_timeout_summary_status():
    x = compile_fixture("loop")
    _, summary = run_once(x, {}, RunOptions(mode="sequential", timeout_s=0.05))
    assert "timeout" in render_summary_file(summary)


# --- the branch scheduler ---------------------------------------------------------

CROSS_RECEIVE = """
  <startEvent id="s"/>
  <parallelGateway id="split"/>
  <receiveTask id="recvA" messageRef="M1">
    <extensionElements><ext:ioMapping channel="toA">
      <ext:output source="v" target="a"/>
    </ext:ioMapping></extensionElements>
  </receiveTask>
  <sendTask id="sendA" messageRef="M1">
    <extensionElements><ext:ioMapping channel="toB">
      <ext:input source="=1" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <receiveTask id="recvB" messageRef="M1">
    <extensionElements><ext:ioMapping channel="toB">
      <ext:output source="v" target="b"/>
    </ext:ioMapping></extensionElements>
  </receiveTask>
  <sendTask id="sendB" messageRef="M1">
    <extensionElements><ext:ioMapping channel="toA">
      <ext:input source="=2" target="v"/>
    </ext:ioMapping></extensionElements>
  </sendTask>
  <parallelGateway id="join"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="split"/>
  <sequenceFlow id="f2" sourceRef="split" targetRef="recvA"/>
  <sequenceFlow id="f3" sourceRef="split" targetRef="recvB"/>
  <sequenceFlow id="f4" sourceRef="recvA" targetRef="sendA"/>
  <sequenceFlow id="f5" sourceRef="recvB" targetRef="sendB"/>
  <sequenceFlow id="f6" sourceRef="sendA" targetRef="join"/>
  <sequenceFlow id="f7" sourceRef="sendB" targetRef="join"/>
  <sequenceFlow id="f8" sourceRef="join" targetRef="e"/>
"""

SPIN_BESIDE_RECEIVE = """
  <startEvent id="s"/>
  <parallelGateway id="split"/>
  <scriptTask id="init" resultVariable="n"><script>0</script></scriptTask>
  <exclusiveGateway id="merge"/>
  <scriptTask id="spin" resultVariable="n"><script>n + 1</script></scriptTask>
  <exclusiveGateway id="again" default="f_back"/>
  <receiveTask id="recv" messageRef="M1">
    <extensionElements><ext:ioMapping channel="c">
      <ext:output source="v" target="a"/>
    </ext:ioMapping></extensionElements>
  </receiveTask>
  <parallelGateway id="join"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="split"/>
  <sequenceFlow id="f2" sourceRef="split" targetRef="init"/>
  <sequenceFlow id="f3" sourceRef="init" targetRef="merge"/>
  <sequenceFlow id="f4" sourceRef="merge" targetRef="spin"/>
  <sequenceFlow id="f5" sourceRef="spin" targetRef="again"/>
  <sequenceFlow id="f_out" sourceRef="again" targetRef="join">
    <conditionExpression>n &lt; 0</conditionExpression>
  </sequenceFlow>
  <sequenceFlow id="f_back" sourceRef="again" targetRef="merge"/>
  <sequenceFlow id="f6" sourceRef="split" targetRef="recv"/>
  <sequenceFlow id="f7" sourceRef="recv" targetRef="join"/>
  <sequenceFlow id="f8" sourceRef="join" targetRef="e"/>
"""


def _outcome(summary):
    return (summary.status, summary.code, summary.message, summary.diagnostics,
            summary.inputs_used)


@pytest.mark.parametrize("name", ["pingpong", "two_sends"])
def test_parallel_run_is_a_function_of_its_seed(name):
    x = compile_fixture("pingpong") if name == "pingpong" \
        else compile_inline(TWO_SENDS, prelude=MSG_PRELUDE)
    for seed in range(50):
        first, again = (run_once(x, {}, RunOptions(mode="parallel", seed=seed))
                        for _ in range(2))
        assert first[0].records == again[0].records, f"seed {seed}"
        assert _outcome(first[1]) == _outcome(again[1]), f"seed {seed}"


def test_parallel_seeds_reach_several_interleavings():
    x = compile_inline(TWO_SENDS, prelude=MSG_PRELUDE)
    interleavings = set()
    for seed in range(200):
        trace, summary = run_once(x, {}, RunOptions(mode="parallel", seed=seed))
        assert summary.status == "success", f"seed {seed}: {summary.message}"
        assert dict(trace.writes()) == {"a": 1, "b": 2}  # FIFO in every schedule
        interleavings.add(tuple(trace.records))
    assert len(interleavings) >= 2


def test_parallel_cross_receive_deadlock_is_a_fault():
    x = compile_inline(CROSS_RECEIVE, prelude=MSG_PRELUDE)
    for seed in range(20):
        _, summary = run_once(x, {}, RunOptions(mode="parallel", seed=seed, timeout_s=5))
        assert summary.status == "fault" and summary.code == "ENGINE_FAULT"
        assert "deadlock" in summary.message
        assert "recvA" in summary.message and "recvB" in summary.message
        assert summary.elapsed_s < 0.5


def test_branch_spinning_beside_a_blocked_receive_is_no_deadlock():
    x = compile_inline(SPIN_BESIDE_RECEIVE, prelude=MSG_PRELUDE)
    _, summary = run_once(x, {}, RunOptions(mode="parallel", seed=3, max_steps=2000))
    assert (summary.status, summary.message) == ("fault", "step budget of 2000 exceeded")
    _, summary = run_once(x, {}, RunOptions(mode="parallel", seed=3, timeout_s=0.1))
    assert summary.status == "timeout"


def test_parallel_runs_start_no_threads(monkeypatch):
    def refuse(self):
        raise AssertionError("a run started an OS thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    x = compile_fixture("pingpong")
    for seed in range(200):
        trace, summary = run_once(x, {}, RunOptions(mode="parallel", seed=seed))
        assert summary.status == "success", f"seed {seed}: {summary.message}"
        assert trace.node_sequence().count("Gateway_Sync") == 1


def test_parallel_trace_record_order_is_pinned():
    # One digest of the trace and summary files of seeds 0-49, in parallel
    # mode, of every model here whose branches interleave. The expected value
    # was computed while the lowered branch closures still recorded their own
    # edges, before the walker became the only code that records. A node's
    # edge is recorded before its branch yields; recording it after the yield
    # changes the files of every forking run, and this digest with them.
    models = [compile_fixture("pingpong"), compile_fixture("pingpong_sendfirst")]
    models += [compile_inline(body, prelude=MSG_PRELUDE)
               for body in (TWO_SENDS, LEFTOVER, INCLUSIVE.format(value=50),
                            ORDERED_WRITES.format(a="v"), SUCCESSIVE_FORKS)]
    digest = hashlib.sha256()
    for x in models:
        for seed in range(50):
            trace, summary = run_once(x, {}, RunOptions(mode="parallel", seed=seed))
            digest.update(render_trace_file(trace, x.graph).encode())
            digest.update(render_summary_file(summary).encode())
    assert digest.hexdigest() == \
        "5a67b72bdc96da1699e9e579fb6baf56ae524d47cf4f4d9716a061156f76d418"


def test_parallel_diamonds_schedule_is_pinned():
    # One digest of the trace files, summary files and variable writes of
    # seeds 0-49, in parallel mode, on the benchmark's diamonds shape with 20
    # diamonds: every fork races a send against a receive on its own channel,
    # so receives wait and sends wake them. The expected value was computed
    # while a lone branch still yielded at every node boundary and the
    # scheduler drew with `random.Random.randrange`.
    x = compile_model(parse_bpmn(diamonds(20, SEED)), ())
    digest = hashlib.sha256()
    for seed in range(50):
        trace, summary = run_once(x, {"x": [10 + seed]}, RunOptions(mode="parallel", seed=seed))
        assert summary.status == "success", f"seed {seed}: {summary.message}"
        digest.update(render_trace_file(trace, x.graph).encode())
        digest.update(render_summary_file(summary).encode())
        digest.update(repr(trace.writes()).encode())
    assert digest.hexdigest() == \
        "f635364e81008f6c81e0d861a18961e2fd404d2ebe0604c29affa63311818090"


def test_record_streams_are_pinned():
    # One digest of every record, the status, code, message and diagnostics
    # of 50 seeded input draws of each fixture in both modes. Trace files
    # leave out variable writes and table results; this digest keeps them.
    # The expected value was computed while the variable-write and table
    # records were frozen and `n > 0` and `n + 1` compiled to three closures.
    digest = hashlib.sha256()
    for name in FIXTURE_PLAN:
        x = compiled(name)
        for mode in ("sequential", "parallel"):
            for seed in range(50):
                lists = draw_input_lists(x.input_vars, {}, random.Random(seed))
                trace, summary = run_once(x, lists, RunOptions(
                    mode=mode, seed=seed, max_steps=5000, timeout_s=60))
                digest.update(repr((trace.records, summary.status, summary.code,
                                    summary.message, summary.diagnostics)).encode())
    assert digest.hexdigest() == \
        "1832db45a53be97331ef814d47c075d2a156f9304d83cbbf967a900571ebf0e3"


WIDE_FORK = 64


def _wide_fork() -> str:
    """A fork of WIDE_FORK script tasks that meet at one join."""
    body = ['<startEvent id="s"/><parallelGateway id="split"/><parallelGateway id="join"/>',
            '<endEvent id="e"/><sequenceFlow id="f_s" sourceRef="s" targetRef="split"/>',
            '<sequenceFlow id="f_e" sourceRef="join" targetRef="e"/>']
    for i in range(WIDE_FORK):
        body.append(f'<scriptTask id="t{i}" resultVariable="v{i}"><script>{i}</script>'
                    f'</scriptTask><sequenceFlow id="a{i}" sourceRef="split" targetRef="t{i}"/>'
                    f'<sequenceFlow id="b{i}" sourceRef="t{i}" targetRef="join"/>')
    return "".join(body)


class _Resumes:
    """Stands in for `_Engine._walk`: counts each walker started and each
    resume of a walker, and notes, when several branches are ready, how
    many there are and which one the scheduler picked."""

    def __init__(self, monkeypatch):
        self.started = self.count = 0
        self.picks = []  # (ready branches, index of the one resumed)
        walk = runtime._Engine._walk
        resumes = self

        class Counted:
            def __init__(self, engine, walker):
                self.engine, self.walker = engine, walker

            def __iter__(self):
                return self

            def __next__(self):
                resumes.count += 1
                ready = self.engine._ready
                if len(ready) > 1:
                    walkers = [walker for _, walker in ready]
                    resumes.picks.append((len(ready), walkers.index(self)))
                return next(self.walker)

        def start(engine, *args):
            resumes.started += 1
            return Counted(engine, walk(engine, *args))
        monkeypatch.setattr(runtime._Engine, "_walk", start)


def test_scheduler_draws_as_randrange(monkeypatch):
    # every pick among n ready branches, n from WIDE_FORK down to 2, is the
    # next `random.Random(seed).randrange(n)`
    x = compile_inline(_wide_fork())
    resumes = _Resumes(monkeypatch)
    sizes = set()
    for seed in range(200):
        resumes.picks.clear()
        _, summary = run_once(x, {}, RunOptions(mode="parallel", seed=seed))
        assert summary.status == "success"
        rng = random.Random(seed)
        assert resumes.picks == [(n, rng.randrange(n)) for n, _ in resumes.picks]
        sizes.update(n for n, _ in resumes.picks)
    assert sizes == set(range(2, WIDE_FORK + 1))


@pytest.mark.parametrize("name,dmns", [("shipment", ("shipment",)), ("triage", ()),
                                       ("loop", ())])
def test_a_lone_branch_is_resumed_once_per_run(monkeypatch, name, dmns):
    x = compile_fixture(name, *dmns, sample_seed=42)
    lists = {spec.name: [spec.sample] for spec in x.input_vars}
    resumes = _Resumes(monkeypatch)
    for seed in range(5):
        before = resumes.count
        _, summary = run_once(x, lists, RunOptions(mode="parallel", seed=seed, max_steps=300))
        assert resumes.count - before == 1, summary


NESTED_FORKS = """
  <startEvent id="s"/><parallelGateway id="outer"/><parallelGateway id="inner"/>
  <scriptTask id="a" resultVariable="va"><script>1</script></scriptTask>
  <scriptTask id="b0" resultVariable="v0"><script>0</script></scriptTask>
  <scriptTask id="b1" resultVariable="v1"><script>1</script></scriptTask>
  <scriptTask id="b2" resultVariable="v2"><script>2</script></scriptTask>
  <parallelGateway id="inner_join"/><parallelGateway id="outer_join"/><endEvent id="e"/>
  <sequenceFlow id="f0" sourceRef="s" targetRef="outer"/>
  <sequenceFlow id="f1" sourceRef="outer" targetRef="a"/>
  <sequenceFlow id="f2" sourceRef="outer" targetRef="inner"/>
  <sequenceFlow id="f3" sourceRef="inner" targetRef="b0"/>
  <sequenceFlow id="f4" sourceRef="inner" targetRef="b1"/>
  <sequenceFlow id="f5" sourceRef="inner" targetRef="b2"/>
  <sequenceFlow id="f6" sourceRef="b0" targetRef="inner_join"/>
  <sequenceFlow id="f7" sourceRef="b1" targetRef="inner_join"/>
  <sequenceFlow id="f8" sourceRef="b2" targetRef="inner_join"/>
  <sequenceFlow id="f9" sourceRef="inner_join" targetRef="outer_join"/>
  <sequenceFlow id="f10" sourceRef="a" targetRef="outer_join"/>
  <sequenceFlow id="f11" sourceRef="outer_join" targetRef="e"/>
"""


@pytest.mark.parametrize("body", (_wide_fork(), NESTED_FORKS), ids=("wide", "nested"))
@pytest.mark.parametrize("mode", ("sequential", "parallel"))
def test_a_fork_keeps_its_walker(monkeypatch, body, mode):
    # the walker that reaches a fork goes on as its first case, so a run
    # starts one walker for the entry and one per case after the first
    x = compile_inline(body)
    cases = [len(routine.step.targets) for routine in x.routines.values()
             if isinstance(routine.step, Fork)]
    assert cases in ([WIDE_FORK], [2, 3])
    resumes = _Resumes(monkeypatch)
    for seed in range(3):
        resumes.started = 0
        trace, summary = run_once(x, {}, RunOptions(mode=mode, seed=seed))
        assert summary.status == "success"
        assert resumes.started == 1 + sum(n - 1 for n in cases)
        assert len(trace.node_sequence()) == len(x.routines)  # each node once


READ_IF_SET = """
  <dataObject id="d"/>
  <dataObjectReference id="dr" name="g" dataObjectRef="d"/>
  <startEvent id="s"/>
  <userTask id="ask" name="ask g">
    <dataOutputAssociation id="a1"><targetRef>dr</targetRef></dataOutputAssociation>
  </userTask>
  <exclusiveGateway id="gate" default="f_skip"/>
  <scriptTask id="set" resultVariable="v"><script>1</script></scriptTask>
  <exclusiveGateway id="merge"/>
  <scriptTask id="read" resultVariable="w"><script>v + 1</script></scriptTask>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="ask"/>
  <sequenceFlow id="f2" sourceRef="ask" targetRef="gate"/>
  <sequenceFlow id="f_set" sourceRef="gate" targetRef="set">
    <conditionExpression>g &gt; 0</conditionExpression>
  </sequenceFlow>
  <sequenceFlow id="f_skip" sourceRef="gate" targetRef="merge"/>
  <sequenceFlow id="f3" sourceRef="set" targetRef="merge"/>
  <sequenceFlow id="f4" sourceRef="merge" targetRef="read"/>
  <sequenceFlow id="f5" sourceRef="read" targetRef="e"/>
"""


@pytest.mark.parametrize("mode", ["sequential", "parallel"])
def test_every_run_starts_with_every_variable_undefined(mode):
    x = compile_inline(READ_IF_SET)
    for g in (1, 0, 1, 0):  # a value written by one run never reaches the next
        trace, summary = run_once(x, {"g": [g]}, RunOptions(mode=mode, seed=g))
        if g:
            assert summary.status == "success" and ("w", 2) in trace.writes()
        else:
            assert (summary.status, summary.message) == \
                ("fault", "read: operation touches an undefined variable")


# --- parallel mode against sequential mode ------------------------------------------

FORK_FREE = {"shipment": ("shipment",), "discount": ("discount",), "triage": (),
             "quote": (), "onboarding": (), "loop": ()}


@pytest.fixture(scope="module")
def fork_free_models():
    return {name: compile_fixture(name, *dmns, sample_seed=42)
            for name, dmns in FORK_FREE.items()}


@pytest.mark.parametrize("name", sorted(FORK_FREE))
@given(rng=st.randoms(use_true_random=False), seed=st.integers(0, 2**32))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fork_free_parallel_run_equals_sequential(fork_free_models, name, rng, seed):
    x = fork_free_models[name]
    lists = draw_input_lists(x.input_vars, {}, rng)
    runs = {mode: run_once(x, lists, RunOptions(mode=mode, seed=seed, max_steps=300))
            for mode in ("sequential", "parallel")}
    (seq_trace, seq), (par_trace, par) = runs["sequential"], runs["parallel"]
    assert par_trace.records == seq_trace.records
    assert (par.status, par.code, par.message) == (seq.status, seq.code, seq.message)


@given(seed=st.integers(0, 2**64))
@settings(max_examples=100, deadline=None)
def test_send_first_parallel_run_matches_sequential(seed):
    x = compile_fixture("pingpong_sendfirst")
    seq_trace, seq = run_once(x, {}, RunOptions(mode="sequential"))
    par_trace, par = run_once(x, {}, RunOptions(mode="parallel", seed=seed))
    assert sorted(par_trace.node_sequence()) == sorted(seq_trace.node_sequence())
    assert dict(par_trace.writes()) == dict(seq_trace.writes())
    assert (par.status, par.code, par.message) == (seq.status, seq.code, seq.message)
