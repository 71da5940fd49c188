"""Join matching against the reference search, on fixtures, on models
drawn with forks from the block grammar of `tests/generators.py` and on
arbitrary graphs; and linear front-end cost."""

import statistics
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings

from bproc import bpmn, compiler, compile_model, parse_bpmn, parse_dmn
from bproc.bpmn import Node, SequenceFlow, VariableRole, adjacency
from bproc.compiler import Fork, _matching_join
from bproc.errors import SchemaError

import test_pins as pins
from conftest import FIXTURES, load_fixture
from generators import DEFINITIONS, FOOTER, diamonds_xml, graphs, models
from oracles import reference_matching_join


def forks(x) -> dict[str, str]:
    return {rid: r.step.join_id for rid, r in x.routines.items() if isinstance(r.step, Fork)}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(models(forks=True))
def test_join_matching_agrees_with_reference_on_structured_models(drawn):
    model = parse_bpmn(drawn.xml)
    x = compile_model(model, ())
    assert forks(x) == drawn.joins
    assert {s: reference_matching_join(s, model) for s in drawn.joins} == drawn.joins


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_join_search_agrees_with_reference_on_arbitrary_graphs(model):
    out, _ = adjacency(model.flows)
    barriers = {n.id for n in model.nodes if n.join_kind in ("parallel", "inclusive")}

    def outcome(search, *args):
        try:
            return search(*args)
        except SchemaError as exc:
            return str(exc)

    for split in (n.id for n in model.nodes):
        if len(out[split]) >= 2:
            assert (outcome(_matching_join, split, out, barriers)
                    == outcome(reference_matching_join, split, model))


FIXTURE_TABLES = {"shipment": ("shipment",), "discount": ("discount",)}


@pytest.mark.parametrize("name", ["discount", "loop", "onboarding", "pingpong",
                                  "pingpong_sendfirst", "quote", "shipment", "triage"])
def test_join_matching_agrees_with_reference_on_fixtures(name):
    model, tables = load_fixture(name, *FIXTURE_TABLES.get(name, ()))
    joins = forks(compile_model(model, tables))
    assert joins == {s: reference_matching_join(s, model) for s in joins}


def test_split_without_common_join_is_the_reference_error():
    model = parse_bpmn(DEFINITIONS + """
      <startEvent id="s"/><parallelGateway id="g"/>
      <endEvent id="e1"/><endEvent id="e2"/>
      <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
      <sequenceFlow id="f1" sourceRef="g" targetRef="e1"/>
      <sequenceFlow id="f2" sourceRef="g" targetRef="e2"/>
    """ + FOOTER)
    with pytest.raises(SchemaError) as expected:
        reference_matching_join("g", model)
    with pytest.raises(SchemaError) as got:
        compile_model(model, ())
    assert str(got.value) == str(expected.value)
    assert "no join gateway reachable from every branch" in str(got.value)


def test_parse_and_compile_scale_linearly():
    # a quadratic front end takes 16x or more for 4x the diamonds
    def setup_seconds(xml: str) -> float:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            x = compile_model(parse_bpmn(xml), ())
            times.append(time.perf_counter() - started)
        assert len(x.routines) == xml.count("<parallelGateway") + xml.count("<scriptTask") + 2
        return statistics.median(times)

    small, large = setup_seconds(diamonds_xml(250)), setup_seconds(diamonds_xml(1000))
    assert large / small < 10, f"250 diamonds: {small:.3f}s, 1000 diamonds: {large:.3f}s"


def setup_calls(xml) -> int:
    """The Python calls parse_bpmn + compile_model make for `xml`."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        compile_model(parse_bpmn(xml), ())
    finally:
        sys.setprofile(previous)
    return calls


@pytest.mark.parametrize("small, large", [(diamonds_xml(250), diamonds_xml(1000)),
                                          (pins.diamonds(75, 7), pins.diamonds(300, 7))],
                         ids=["script diamonds", "send/receive diamonds"])
def test_parse_and_compile_call_counts_scale_linearly(small, large):
    # the deterministic companion of the timing test above: 4x the model
    # makes about 4x the calls (a quadratic front end makes 16x)
    ratio = setup_calls(large) / setup_calls(small)
    assert ratio <= 4.2, ratio


SET_UPS = {
    "diamonds": lambda: (pins.diamonds(50, seed=3), ()),
    "quote": lambda: ((FIXTURES / "quote.bpmn").read_bytes(), ()),
    "shipment": lambda: ((FIXTURES / "shipment.bpmn").read_bytes(),
                         parse_dmn((FIXTURES / "shipment.dmn").read_bytes())),
}


@pytest.mark.parametrize("name", SET_UPS)
def test_set_up_builds_each_record_and_index_once(name):
    # parse_bpmn + compile_model walk the model once: one flow index (an
    # inserted gateway included), one pass over variable uses, one role per
    # variable, and one reading of each business rule task's table call;
    # diamonds also build one record per node and per flow (joins are
    # decided before their record is built)
    xml, tables = SET_UPS[name]()
    counted = {bpmn.adjacency.__code__: "adjacency", bpmn._variable_uses.__code__: "uses",
               bpmn.classify_variables.__code__: "roles", Node.__init__.__code__: "Node",
               SequenceFlow.__init__.__code__: "SequenceFlow",
               VariableRole.__init__.__code__: "VariableRole",
               compiler._cell_facts.__code__: "cells"}
    calls = dict.fromkeys(counted.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        model = parse_bpmn(xml)
        x = compile_model(model, tables)
    finally:
        sys.setprofile(previous)
    rule_tasks = sum(node.kind == "business_rule_task" for node in model.nodes)
    assert (calls["adjacency"], calls["uses"], calls["roles"], calls["cells"]) == \
        (1, 1, 1, rule_tasks)
    if name == "diamonds":
        assert len(model.nodes) == 204 and len(x.routines) == 204
        assert (calls["Node"], calls["SequenceFlow"], calls["VariableRole"]) == \
            (len(model.nodes), len(model.flows), len(x.input_vars) + len(x.process_vars))
