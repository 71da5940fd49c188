"""Join matching against the reference search, and linear front-end cost."""

import statistics
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from bproc import bpmn, compile_model, parse_bpmn
from bproc.bpmn import Node, ProcessModel, SequenceFlow, VariableRole, adjacency
from bproc.compiler import Fork, _matching_join
from bproc.errors import SchemaError

import test_pins as pins
from conftest import load_fixture
from oracles import reference_matching_join

HEADER = '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"><process id="p">'
FOOTER = '</process></definitions>'


def forks(x) -> dict[str, str]:
    return {rid: r.steps[0].join_id for rid, r in x.routines.items()
            if isinstance(r.steps[0], Fork)}


class Structured:
    """A nested, well-structured diagram drawn block by block. `joins` maps
    every parallel/inclusive split to the join it was built with."""

    def __init__(self, data):
        self.data = data
        self.elements: list[str] = []
        self.joins: dict[str, str] = {}
        self.count = 0

    def draw(self, strategy):
        return self.data.draw(strategy)

    def new_id(self, prefix: str) -> str:
        self.count += 1
        return f"{prefix}{self.count}"

    def flow(self, source: str, target: str, condition: str | None = None) -> None:
        cond = f"<conditionExpression>{condition}</conditionExpression>" if condition else ""
        self.elements.append(f'<sequenceFlow id="{source}_{target}" sourceRef="{source}" '
                             f'targetRef="{target}">{cond}</sequenceFlow>')

    def task(self) -> str:
        task_id = self.new_id("t")
        self.elements.append(f'<scriptTask id="{task_id}" resultVariable="v">'
                             f'<script>{self.count}</script></scriptTask>')
        return task_id

    def sequence(self, depth: int) -> tuple[str, str]:
        entry, exit_ = self.block(depth)
        for _ in range(self.draw(st.integers(0, 1))):
            nxt, after = self.block(depth)
            self.flow(exit_, nxt)
            exit_ = after
        return entry, exit_

    def block(self, depth: int) -> tuple[str, str]:
        shapes = ["chain", "error_arm"] + (["parallel", "inclusive", "exclusive"]
                                           if depth < 2 else [])
        shape = self.draw(st.sampled_from(shapes))
        if shape == "chain":
            tasks = [self.task() for _ in range(self.draw(st.integers(1, 3)))]
            for a, b in zip(tasks, tasks[1:]):
                self.flow(a, b)
            return tasks[0], tasks[-1]
        if shape == "error_arm":  # exclusive gateway, one arm to an error end
            gw, end = self.new_id("x"), self.new_id("err")
            task = self.task()
            self.elements += [f'<exclusiveGateway id="{gw}" default="{gw}_{task}"/>',
                              f'<endEvent id="{end}"><errorEventDefinition errorCode="E"/>'
                              f'</endEvent>']
            self.flow(gw, end, "v &gt; 5")
            self.flow(gw, task)
            return gw, task
        split, join = self.new_id("s"), self.new_id("j")
        arms = [self.sequence(depth + 1) for _ in range(self.draw(st.integers(2, 4)))]
        default = f' default="{split}_{arms[-1][0]}"' if shape == "exclusive" else ""
        self.elements += [f'<{shape}Gateway id="{split}"{default}/>',
                          f'<{shape}Gateway id="{join}"/>']
        for i, (entry, exit_) in enumerate(arms):
            last_exclusive = shape == "exclusive" and i == len(arms) - 1
            self.flow(split, entry, None if shape == "parallel" or last_exclusive
                      else f"v &gt; {i}")
            self.flow(exit_, join)
        if shape != "exclusive":
            self.joins[split] = join
        return split, join

    def xml(self) -> str:
        entry, exit_ = self.sequence(0)
        self.elements += ['<startEvent id="start"/>', '<endEvent id="end"/>']
        self.flow("start", entry)
        self.flow(exit_, "end")
        order = self.draw(st.permutations(range(len(self.elements))))
        return HEADER + "".join(self.elements[i] for i in order) + FOOTER


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_join_matching_agrees_with_reference_on_structured_models(data):
    diagram = Structured(data)
    model = parse_bpmn(diagram.xml())
    x = compile_model(model, ())
    assert forks(x) == diagram.joins
    assert {s: reference_matching_join(s, model) for s in diagram.joins} == diagram.joins


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_join_search_agrees_with_reference_on_arbitrary_graphs(data):
    # not well structured: cycles, shared joins, branches that never meet
    n = data.draw(st.integers(3, 10))
    ids = [f"n{i}" for i in range(n)]
    kinds = data.draw(st.lists(st.sampled_from(["parallel", "inclusive", "exclusive", None]),
                               min_size=n, max_size=n))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                               min_size=2, max_size=3 * n))
    nodes = [Node(i, i, "join_gateway", join_kind=k) if k else Node(i, i, "manual_task")
             for i, k in zip(ids, kinds)]
    flows = [SequenceFlow(f"f{k}", a, b) for k, (a, b) in enumerate(pairs)]
    model = ProcessModel("p", "p", nodes, flows, [])
    out, _ = adjacency(flows)
    barriers = {i for i, k in zip(ids, kinds) if k in ("parallel", "inclusive")}

    def outcome(search, *args):
        try:
            return search(*args)
        except SchemaError as exc:
            return str(exc)

    for split in ids:
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
    model = parse_bpmn(HEADER + """
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


def diamonds_xml(count: int) -> str:
    """start -> `count` parallel diamonds of two script tasks each -> end."""
    out = [HEADER, '<startEvent id="start"/><endEvent id="end"/>',
           '<sequenceFlow id="f_start" sourceRef="start" targetRef="S1"/>']
    for i in range(1, count + 1):
        after = f"S{i + 1}" if i < count else "end"
        out.append(
            f'<parallelGateway id="S{i}"/><parallelGateway id="J{i}"/>'
            f'<scriptTask id="A{i}" resultVariable="a{i}"><script>{i}</script></scriptTask>'
            f'<scriptTask id="B{i}" resultVariable="b{i}"><script>{i}</script></scriptTask>'
            f'<sequenceFlow id="fa{i}" sourceRef="S{i}" targetRef="A{i}"/>'
            f'<sequenceFlow id="fb{i}" sourceRef="S{i}" targetRef="B{i}"/>'
            f'<sequenceFlow id="fja{i}" sourceRef="A{i}" targetRef="J{i}"/>'
            f'<sequenceFlow id="fjb{i}" sourceRef="B{i}" targetRef="J{i}"/>'
            f'<sequenceFlow id="fn{i}" sourceRef="J{i}" targetRef="{after}"/>')
    return "".join(out) + FOOTER


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


def test_set_up_builds_each_record_and_index_once():
    # parse_bpmn + compile_model walk the model once: one flow index, one
    # pass over variable uses, one role per variable, one record per node
    # and per flow (joins are decided before their record is built)
    xml = pins.diamonds(50, seed=3)
    counted = {bpmn.adjacency.__code__: "adjacency", bpmn._variable_uses.__code__: "uses",
               bpmn.classify_variables.__code__: "roles", Node.__init__.__code__: "Node",
               SequenceFlow.__init__.__code__: "SequenceFlow",
               VariableRole.__init__.__code__: "VariableRole"}
    calls = dict.fromkeys(counted.values(), 0)

    def count(frame, event, arg):
        if event == "call" and frame.f_code in counted:
            calls[counted[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        model = parse_bpmn(xml)
        x = compile_model(model, ())
    finally:
        sys.setprofile(previous)
    assert len(model.nodes) == 204 and len(x.routines) == 204
    assert calls == {"adjacency": 1, "uses": 1, "roles": 1, "Node": len(model.nodes),
                     "SequenceFlow": len(model.flows),
                     "VariableRole": len(x.input_vars) + len(x.process_vars)}
