"""Setting a model up: the cyclic collector is paused while a model is
parsed, compiled and lowered, and restored afterwards; setting up leaves
no cyclic garbage behind; and the trace records are built on the first
run that keeps a trace, never by a campaign without run files.

The records built in bulk at set-up (nodes, flows, FEEL trees, steps,
routines) are slotted and compared and hashed by value but not frozen
(see the `bproc` package docstring). So two tests stand in for the frozen
guard: compiling, rendering and running a model leave its records as
they were built, and every such class keeps value semantics."""

from __future__ import annotations

import dataclasses
import functools
import gc
import pickle

import pytest

import oracles
from bproc import (CampaignConfig, FixedBudget, RunOptions, bpmn, compile_model, compiler,
                   parse_bpmn, parse_dmn, render_source, run_campaign, run_once, runtime)
from bproc.errors import SchemaError
from bproc.feel import ast
from bproc.runtime import EdgeTraversed, NodeActivated

from conftest import FIXTURES
from golden_support import FIXTURE_PLAN
from test_pins import diamonds

NO_JOIN = ('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">'
           '<process id="p"><startEvent id="s"/><parallelGateway id="g"/>'
           '<endEvent id="e1"/><endEvent id="e2"/>'
           '<sequenceFlow id="f0" sourceRef="s" targetRef="g"/>'
           '<sequenceFlow id="f1" sourceRef="g" targetRef="e1"/>'
           '<sequenceFlow id="f2" sourceRef="g" targetRef="e2"/></process></definitions>')


@pytest.fixture
def collector():
    """Enable the collector for the test; restore its state and thresholds after it."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    gc.enable()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


def test_no_collection_starts_while_a_model_is_set_up(collector):
    xml = diamonds(50, 1)
    stage, started = [None], []

    def on_collect(phase, info):
        if phase == "start" and stage[0] is not None:
            started.append((stage[0], info["generation"]))

    def during(name, call):
        gc.collect()  # so the call's own few allocations cannot reach the threshold
        stage[0] = name
        try:
            return call()
        finally:
            stage[0] = None

    gc.set_threshold(100, 10, 10)  # without the pause, set-up collects many times
    gc.callbacks.append(on_collect)
    try:
        model = during("parse", lambda: parse_bpmn(xml))
        x = during("compile", lambda: compile_model(model, ()))
        during("lowering", lambda: runtime._program(x))
    finally:
        gc.callbacks.remove(on_collect)
    assert started == []


def _stages():
    """Each set-up stage on a valid model, and each raising SchemaError."""
    model = parse_bpmn(diamonds(5, 1))
    return {
        "parse": lambda: parse_bpmn(diamonds(5, 1)),
        "compile": lambda: compile_model(model, ()),
        "lowering": lambda: runtime._program(compile_model(model, ())),
        "parse_error": lambda: parse_bpmn("<definitions/>"),
        "compile_error": lambda: compile_model(parse_bpmn(NO_JOIN), ()),
    }


@pytest.mark.parametrize("enabled", (True, False), ids=("enabled", "disabled"))
@pytest.mark.parametrize("stage", ("parse", "compile", "lowering", "parse_error",
                                   "compile_error"))
def test_set_up_restores_the_collector_state(stage, enabled, collector):
    call = _stages()[stage]
    (gc.enable if enabled else gc.disable)()
    if stage.endswith("_error"):
        with pytest.raises(SchemaError):
            call()
    else:
        call()
    assert gc.isenabled() is enabled


def test_set_up_leaves_no_cyclic_garbage(collector):
    gc.collect()
    gc.disable()
    model = parse_bpmn((FIXTURES / "shipment.bpmn").read_bytes())
    shipment = compile_model(model, parse_dmn((FIXTURES / "shipment.dmn").read_bytes()))
    generated = compile_model(parse_bpmn(diamonds(50, 1)), ())
    for x in (shipment, generated):
        runtime._program(x)
    # runs on the lowered program leave none either: a traced parallel run
    # forks, joins, and has receives wait for their sends (a receive
    # activated before its send found its channel empty); then a campaign
    trace, summary = run_once(generated, {"x": [50]}, RunOptions(seed=1))
    nodes = trace.node_sequence()
    assert summary.status == "success" and summary.diagnostics == []
    assert {"Split1", "Join50"} <= set(nodes)
    assert any(nodes.index(f"Recv{i}") < nodes.index(f"Send{i}") for i in range(1, 51))
    run_campaign(generated, CampaignConfig(mode=FixedBudget(n=3), seed=4))
    assert gc.collect() == 0


#: the objects the cyclic collector tracks that lowering `diamonds(300, 7)`
#: (1,204 nodes) makes, per node: 5.26 (6,334), with every closure holding
#: its names as default parameters and one join fault shared by every join
LOWERED_OBJECTS_PER_NODE = 6_334 / 1_204


def test_lowering_keeps_to_its_object_budget(collector):
    # host-independent: counted as the growth of `gc.get_objects()` with
    # the collector off
    x = compile_model(parse_bpmn(diamonds(300, 7)), ())
    gc.collect()
    gc.disable()
    before = len(gc.get_objects())
    program = runtime._Program(x)
    made = len(gc.get_objects()) - before
    per_node = made / len(program.nodes)
    assert len(program.nodes) == 1_204
    assert per_node <= LOWERED_OBJECTS_PER_NODE * 1.05, f"{made} objects, {per_node:.2f} a node"


def _count_records(monkeypatch) -> list:
    """Log the class of every NodeActivated and EdgeTraversed built from now on."""
    built = []
    for name in ("NodeActivated", "EdgeTraversed"):
        monkeypatch.setattr(runtime, name, functools.partial(
            lambda cls, *args: built.append(cls) or cls(*args), getattr(runtime, name)))
    return built


def test_campaign_without_run_files_builds_no_trace_records(monkeypatch):
    built = _count_records(monkeypatch)
    x = compile_model(parse_bpmn(diamonds(50, 1)), ())
    verdict = run_campaign(x, CampaignConfig(mode=FixedBudget(n=12), seed=4))
    assert verdict.coverage.runs_executed == 12
    assert built == []


def test_first_traced_run_builds_each_record_once(monkeypatch):
    built = _count_records(monkeypatch)
    x = compile_model(parse_bpmn(diamonds(50, 1)), ())
    run_campaign(x, CampaignConfig(mode=FixedBudget(n=3), seed=4))
    program = runtime._program(x)
    options = RunOptions(mode="sequential")
    first, _ = run_once(x, {"x": [50]}, options)
    assert len(built) == len(program.nodes) + len(program.edges)
    assert set(built) == {NodeActivated, EdgeTraversed}
    second, _ = run_once(x, {"x": [50]}, RunOptions(seed=9))
    again, _ = run_once(x, {"x": [50]}, options)
    assert len(built) == len(program.nodes) + len(program.edges)  # none built again
    first, again, second = (_flow_records(trace) for trace in (first, again, second))
    assert len(first) == (4 + 5) * 50 + 5  # 4 nodes and 5 edges a diamond
    assert all(a is b for a, b in zip(first, again, strict=True))
    assert {id(record) for record in second} == {id(record) for record in first}


def _flow_records(trace) -> list:
    return [r for r in trace.records if r.__class__ in (NodeActivated, EdgeTraversed)]


@pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "parallel"))
def test_first_campaign_with_run_files_writes_run_once_traces(sequential, tmp_path):
    cfg = CampaignConfig(mode=FixedBudget(n=12), seed=4, sequential=sequential)
    got, want = tmp_path / "campaign", tmp_path / "run_once"
    run_campaign(compile_model(parse_bpmn(diamonds(50, 1)), ()), cfg, out_dir=str(got))
    oracles.reference_campaign(compile_model(parse_bpmn(diamonds(50, 1)), ()), cfg,
                               out_dir=str(want))
    files = {p.name: p.read_bytes() for p in (got / "runs").iterdir()}
    assert len(files) == 24
    assert files == {p.name: p.read_bytes() for p in (want / "runs").iterdir()}


def _model_records(model, tables) -> str:
    return repr((model.nodes, model.flows, model.messages,
                 [(t.inputs, t.rules) for t in tables]))


def _program_records(x) -> str:
    return repr((x.routines, x.graph, x.input_vars, x.process_vars))


@pytest.mark.parametrize("name", [*FIXTURE_PLAN, "diamonds"])
def test_set_up_and_runs_leave_the_records_as_built(name, tmp_path):
    if name == "diamonds":
        model, tables = parse_bpmn(diamonds(50, 1)), []
    else:
        model = parse_bpmn((FIXTURES / f"{name}.bpmn").read_bytes())
        tables = [table for dmn_name in FIXTURE_PLAN[name][0]
                  for table in parse_dmn((FIXTURES / f"{dmn_name}.dmn").read_bytes())]
    parsed = _model_records(model, tables)
    x = compile_model(model, tables, sample_seed=42)
    compiled = _program_records(x)

    again = compile_model(model, tables, sample_seed=42)
    render_source(x)
    render_source(again)
    for sequential in (True, False):
        # the loop fixture never ends: a short timeout keeps its runs small
        cfg = CampaignConfig(mode=FixedBudget(n=3), seed=4, sequential=sequential,
                             timeout_s=0.01)
        run_campaign(x, cfg)
        run_campaign(x, cfg, out_dir=str(tmp_path / f"campaign_{sequential}"))
    run_once(x, {spec.name: [spec.sample] for spec in x.input_vars},
             RunOptions(mode="sequential", max_steps=500))

    assert _model_records(model, tables) == parsed
    assert _program_records(x) == compiled
    assert _program_records(again) == compiled


# Dataclasses of these modules that hold a whole model and are filled in
# after construction; every other one is a record with value semantics.
_CONTAINERS = {bpmn.ProcessModel, compiler.ExecutableModel}


def _unfrozen_records() -> list[type]:
    return [cls for module in (bpmn, compiler, ast) for cls in vars(module).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__module__ == module.__name__
            and not cls.__dataclass_params__.frozen and cls not in _CONTAINERS]


def _build(cls, changed: str | None = None):
    """An instance whose every field is a fresh tuple naming the field;
    the field `changed` gets a different value."""
    return cls(**{f.name: ("other" if f.name == changed else "value", f.name)
                  for f in dataclasses.fields(cls)})


def test_unfrozen_records_are_found():
    found = set(_unfrozen_records())
    assert {bpmn.Node, bpmn.SequenceFlow, bpmn.VariableRole, bpmn.MessageDef,
            compiler.Send, compiler.Routine, ast.BinOp, ast.Dash} <= found


@pytest.mark.parametrize("cls", _unfrozen_records(), ids=lambda cls: cls.__qualname__)
def test_unfrozen_records_have_value_semantics(cls):
    assert "__slots__" in cls.__dict__
    a, b = _build(cls), _build(cls)
    assert not hasattr(a, "__dict__")
    assert a is not b and a == b and hash(a) == hash(b)
    for f in dataclasses.fields(cls):
        assert _build(cls, changed=f.name) != a
    assert pickle.loads(pickle.dumps(a)) == a
