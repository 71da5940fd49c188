import dataclasses
import functools
import itertools
import json
import math
import os
import random
import statistics
import tracemalloc
import types

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from bproc import (CampaignConfig, ErrorSeek, FixedBudget, RunOptions, Smc,
                   accumulate_coverage, compile_model, inputs, parse_bpmn, run_campaign,
                   run_once, runtime, smc_sample_size, verifier)
from bproc.bpmn import ProcessGraph
from bproc.errors import ConfigError, MissingOverrideError, UnknownIdError
from bproc.feel import values
from bproc.runtime import Trace, NodeActivated, EdgeTraversed
from bproc.verifier import empty_report

from conftest import compile_fixture, load_tool
from generators import models
from test_runtime import CROSS_RECEIVE, LEFTOVER, MSG_PRELUDE, compile_inline

opcounts = load_tool("opcounts")

DIAMOND = """<?xml version="1.0"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
  <process id="diamond">
    <dataObject id="d"/>
    <dataObjectReference id="dr" name="coin" dataObjectRef="d"/>
    <startEvent id="s">
      <dataOutputAssociation id="a"><targetRef>dr</targetRef></dataOutputAssociation>
    </startEvent>
    <exclusiveGateway id="g"/>
    <endEvent id="l" name="left"/>
    <endEvent id="r" name="right"/>
    <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
    <sequenceFlow id="fl" sourceRef="g" targetRef="l">
      <conditionExpression>coin = "heads"</conditionExpression>
    </sequenceFlow>
    <sequenceFlow id="fr" sourceRef="g" targetRef="r">
      <conditionExpression>coin = "tails"</conditionExpression>
    </sequenceFlow>
  </process>
</definitions>"""


@pytest.fixture(scope="module")
def diamond():
    return compile_model(parse_bpmn(DIAMOND), ())


# --- smc sizing -------------------------------------------------------------------

def test_smc_sample_size_reference_points():
    assert smc_sample_size(0.01, 0.01) == 459
    assert smc_sample_size(0.5, 0.5) == 1
    assert smc_sample_size(0.999999, 0.5) == 1  # near-certain violations need one run


def test_smc_sample_size_rejects_bad_parameters():
    for eps, delta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (-1, 0.5)):
        with pytest.raises(ConfigError):
            smc_sample_size(eps, delta)


def test_smc_epsilon_lost_against_one_is_a_config_error():
    # 1 - 2**-54 rounds to 1: no number of runs would bound the error
    for epsilon in (1e-17, 2.0 ** -54):
        with pytest.raises(ConfigError, match="too small"):
            smc_sample_size(epsilon, 0.5)
        with pytest.raises(ConfigError, match="too small"):
            CampaignConfig(mode=Smc(epsilon=epsilon))
    n = smc_sample_size(2.0 ** -53, 0.5)  # the smallest epsilon that still counts
    assert (1 - 2.0 ** -53) ** n <= 0.5 < (1 - 2.0 ** -53) ** (n - 1)


@given(st.floats(1e-6, 1 - 1e-6), st.floats(1e-6, 1 - 1e-6))
@settings(max_examples=200)
def test_smc_sample_size_tight(epsilon, delta):
    n = smc_sample_size(epsilon, delta)
    assert n >= 1
    assert (1 - epsilon) ** n <= delta
    if n > 1:
        assert (1 - epsilon) ** (n - 1) > delta


# --- coverage accumulation ----------------------------------------------------------

def test_empty_trace_gives_zero(diamond):
    report = empty_report(diamond.graph)
    assert report.c_n == 0.0 and report.c_e == 0.0
    report = accumulate_coverage(report, Trace([]), diamond.graph)
    assert report.c_n == 0.0 and report.c_e == 0.0
    assert report.runs_executed == 1


def test_full_trace_gives_hundred(diamond):
    records = [NodeActivated(n) for n, _ in diamond.graph.nodes]
    records += [EdgeTraversed(a, b) for a, b in diamond.graph.edges]
    report = accumulate_coverage(empty_report(diamond.graph), Trace(records),
                                 diamond.graph)
    assert report.c_n == 100.0 and report.c_e == 100.0


def test_union_not_sum_across_runs(diamond):
    report = empty_report(diamond.graph)
    for value in ("heads", "tails", "heads"):
        trace, _ = run_once(diamond, {"coin": [value]}, RunOptions(mode="sequential"))
        report = accumulate_coverage(report, trace, diamond.graph)
    assert report.c_n == 100.0
    assert report.c_e == 100.0
    assert report.runs_executed == 3


def test_unknown_id_rejected(diamond):
    with pytest.raises(UnknownIdError):
        accumulate_coverage(empty_report(diamond.graph),
                            Trace([NodeActivated("ghost")]), diamond.graph)
    entry = diamond.graph.nodes[0][0]
    with pytest.raises(UnknownIdError):  # known nodes, but no such flow
        accumulate_coverage(empty_report(diamond.graph),
                            Trace([EdgeTraversed(entry, entry)]), diamond.graph)


def test_coverage_monotone_over_runs(diamond):
    report = empty_report(diamond.graph)
    rng = random.Random(5)
    last = (0.0, 0.0)
    for _ in range(20):
        value = rng.choice(["heads", "tails"])
        trace, _ = run_once(diamond, {"coin": [value]}, RunOptions(mode="sequential"))
        report = accumulate_coverage(report, trace, diamond.graph)
        assert (report.c_n, report.c_e) >= last
        last = (report.c_n, report.c_e)


# --- campaigns ----------------------------------------------------------------------

def test_fixed_budget_early_stop_is_sound(diamond, tmp_path):
    cfg = CampaignConfig(mode=FixedBudget(n=500, theta_nodes=100, theta_edges=100),
                         seed=11, sequential=True)
    verdict = run_campaign(diamond, cfg, out_dir=str(tmp_path))
    assert verdict.result == "PASS"
    assert verdict.coverage.runs_executed < 500
    # recompute coverage from the stored traces
    nodes, edges = _trace_file_hits(tmp_path / "runs", verdict.coverage.runs_executed)
    assert 100.0 * len(nodes) / len(diamond.graph.nodes) == verdict.coverage.c_n
    assert 100.0 * len(edges) / len(diamond.graph.edges) == verdict.coverage.c_e


def test_fixed_budget_zero_thresholds_run_full_budget(diamond):
    cfg = CampaignConfig(mode=FixedBudget(n=50), seed=0, sequential=True)
    verdict = run_campaign(diamond, cfg)
    assert verdict.result == "PASS"
    assert verdict.coverage.runs_executed == 50


def test_fixed_budget_fail_when_unreachable(diamond):
    # the graph can never reach 100% edges if we only ever toss heads
    cfg = CampaignConfig(mode=FixedBudget(n=20, theta_nodes=100, theta_edges=100),
                         seed=3, sequential=True)
    verdict = run_campaign(diamond, cfg, overrides={"coin": ["heads"]})
    assert verdict.result == "PASS"  # heads/tails both sampled from the enum domain

    # force a single-value override via an unhandled-domain model instead
    model = parse_bpmn(DIAMOND.replace('coin = "heads"', 'coin = "" + coin'))
    x = compile_model(model, ())
    verdict = run_campaign(x, CampaignConfig(
        mode=FixedBudget(n=20, theta_nodes=100, theta_edges=100), seed=3,
        sequential=True), overrides={"coin": ["tails"]})
    assert verdict.result == "FAIL"
    assert "not reached" in verdict.reason


def test_combiners(diamond):
    base = dict(n=30, theta_nodes=100.0, theta_edges=100.0)
    for combiner in ("and", "or", "nodes", "edges"):
        cfg = CampaignConfig(mode=FixedBudget(combiner=combiner, **base), seed=9,
                             sequential=True)
        assert run_campaign(diamond, cfg).result == "PASS"


ALWAYS_FAILS = """<?xml version="1.0"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
  <process id="doomed">
    <startEvent id="s"/>
    <endEvent id="e" name="always"><errorEventDefinition errorCode="DOOM"/></endEvent>
    <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
  </process>
</definitions>"""


def test_error_seek_fails_with_witness(tmp_path):
    x = compile_fixture("triage")
    cfg = CampaignConfig(mode=ErrorSeek(n=50), seed=1, sequential=True)
    verdict = run_campaign(x, cfg, out_dir=str(tmp_path))
    assert verdict.result == "FAIL"
    assert verdict.failing_trace is not None
    assert (tmp_path / verdict.failing_trace).exists()


def test_error_seek_deterministic_error_fails_on_first_run(tmp_path):
    x = compile_model(parse_bpmn(ALWAYS_FAILS), ())
    cfg = CampaignConfig(mode=ErrorSeek(n=10), seed=0, sequential=True)
    verdict = run_campaign(x, cfg, out_dir=str(tmp_path))
    assert verdict.result == "FAIL"
    assert verdict.coverage.runs_executed == 1
    assert verdict.failing_trace == "runs/run_0.trace"


def test_error_seek_verdicts_are_one_sided(diamond):
    # error-free model: PASS for every seed; always-erroring model: FAIL for
    # every seed
    doomed = compile_model(parse_bpmn(ALWAYS_FAILS), ())
    for seed in range(10):
        clean = run_campaign(diamond, CampaignConfig(mode=ErrorSeek(n=20), seed=seed,
                                                     sequential=True))
        assert clean.result == "PASS"
        failing = run_campaign(doomed, CampaignConfig(mode=ErrorSeek(n=20), seed=seed,
                                                      sequential=True))
        assert failing.result == "FAIL"


def test_error_seek_passes_on_error_free_model(diamond):
    cfg = CampaignConfig(mode=ErrorSeek(n=100), seed=2, sequential=True)
    verdict = run_campaign(diamond, cfg)
    assert verdict.result == "PASS"
    assert verdict.coverage.runs_executed == 100


def test_smc_no_error_passes_after_exact_sample_count(diamond):
    cfg = CampaignConfig(mode=Smc(epsilon=0.05, delta=0.05), seed=4, sequential=True)
    verdict = run_campaign(diamond, cfg)
    assert verdict.result == "PASS"
    assert verdict.coverage.runs_executed == smc_sample_size(0.05, 0.05)
    assert "epsilon" in verdict.reason


def test_smc_hundredth_contract_runs_459_times(diamond):
    cfg = CampaignConfig(mode=Smc(epsilon=0.01, delta=0.01), seed=8, sequential=True)
    verdict = run_campaign(diamond, cfg)
    assert verdict.result == "PASS"
    assert verdict.coverage.runs_executed == 459


def test_smc_no_error_fails_with_witness(tmp_path):
    x = compile_fixture("triage")
    cfg = CampaignConfig(mode=Smc(epsilon=0.01, delta=0.01), seed=5, sequential=True)
    verdict = run_campaign(x, cfg, out_dir=str(tmp_path))
    assert verdict.result == "FAIL"
    assert verdict.coverage.runs_executed < smc_sample_size(0.01, 0.01)
    # no statistical FAIL exists: every FAIL names a concrete violating run
    assert verdict.failing_trace is not None
    assert (tmp_path / verdict.failing_trace).exists()


def test_smc_coverage_unreachable_refuted(diamond):
    cfg = CampaignConfig(mode=Smc(epsilon=0.2, delta=0.2,
                                  property="coverage-unreachable",
                                  theta_nodes=100, theta_edges=100),
                         seed=6, sequential=True)
    verdict = run_campaign(diamond, cfg)
    assert verdict.result == "FAIL"
    assert "refuting" in verdict.reason


def test_smc_coverage_unreachable_statistical_pass():
    model = parse_bpmn(DIAMOND.replace('coin = "heads"', 'coin = "" + coin'))
    x = compile_model(model, ())
    cfg = CampaignConfig(mode=Smc(epsilon=0.3, delta=0.3,
                                  property="coverage-unreachable",
                                  theta_nodes=100, theta_edges=100),
                         seed=7, sequential=True)
    verdict = run_campaign(x, cfg, overrides={"coin": ["tails"]})
    assert verdict.result == "PASS"
    assert "statistical" in verdict.reason


def test_unhandled_domain_without_override_refused():
    model = parse_bpmn(DIAMOND.replace('coin = "heads"', 'coin = "" + coin'))
    x = compile_model(model, ())
    with pytest.raises(MissingOverrideError):
        run_campaign(x, CampaignConfig(mode=FixedBudget(n=5), sequential=True))


def test_campaign_determinism(shipment, tmp_path):
    cfg = CampaignConfig(mode=FixedBudget(n=100), seed=42, sequential=True)
    v1 = run_campaign(shipment, cfg, out_dir=str(tmp_path / "a"))
    v2 = run_campaign(shipment, cfg, out_dir=str(tmp_path / "b"))
    j1 = json.loads((tmp_path / "a" / "verdict.json").read_text())
    j2 = json.loads((tmp_path / "b" / "verdict.json").read_text())
    for volatile in ("mean_run_ms", "stddev_run_ms"):
        j1.pop(volatile), j2.pop(volatile)
    assert j1 == j2
    assert (tmp_path / "a" / "runs" / "run_7.trace").read_bytes() == \
        (tmp_path / "b" / "runs" / "run_7.trace").read_bytes()


def test_verdict_json_fields(diamond, tmp_path):
    cfg = CampaignConfig(mode=FixedBudget(n=10), seed=1, sequential=True)
    run_campaign(diamond, cfg, out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "verdict.json").read_text())
    assert set(payload) == {"result", "reason", "c_n", "c_e", "runs", "mean_run_ms",
                            "stddev_run_ms", "failing_trace"}
    assert payload["runs"] == 10
    assert payload["mean_run_ms"] >= 0.0


def test_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(mode=FixedBudget(n=0))
    with pytest.raises(ConfigError):
        CampaignConfig(mode=Smc(epsilon=1.5))
    with pytest.raises(ConfigError):
        CampaignConfig(mode=FixedBudget(theta_nodes=150))
    with pytest.raises(ConfigError):
        CampaignConfig(mode=FixedBudget(combiner="xor"))
    for timeout_s in (0, -1.0, float("nan")):
        with pytest.raises(ConfigError):
            CampaignConfig(timeout_s=timeout_s)


def test_parallel_campaign_runs_follow_from_the_config(tmp_path):
    x = compile_fixture("pingpong")
    configs = {"first": CampaignConfig(mode=FixedBudget(n=30), seed=5),
               "again": CampaignConfig(mode=FixedBudget(n=30), seed=5),
               "other_seed": CampaignConfig(mode=FixedBudget(n=30), seed=6)}
    files = {}
    for name, cfg in configs.items():
        run_campaign(x, cfg, out_dir=str(tmp_path / name))
        runs = tmp_path / name / "runs"
        files[name] = {p.name: p.read_bytes() for p in runs.iterdir()}
    assert len(files["first"]) == 60
    assert files["again"] == files["first"]
    assert files["other_seed"] != files["first"]  # the campaign seed picks the schedules


# --- campaigns mark coverage instead of building traces ---------------------------------

CAMPAIGN_FIXTURES = {"discount": ("discount",), "loop": (), "onboarding": (), "pingpong": (),
                     "pingpong_sendfirst": (), "quote": (), "shipment": ("shipment",),
                     "triage": ()}
CAMPAIGN_RULES = (FixedBudget(n=25, theta_nodes=90, theta_edges=80), ErrorSeek(n=25),
                  Smc(epsilon=0.15, delta=0.1),
                  Smc(epsilon=0.15, delta=0.1, property="coverage-unreachable",
                      theta_nodes=90, theta_edges=80))


def _with_step_budget(monkeypatch, max_steps: int):
    """Campaign runs end after `max_steps` steps (the default is 1 M)."""
    monkeypatch.setattr(runtime, "RunOptions",
                        functools.partial(runtime.RunOptions, max_steps=max_steps))


def _with_ticking_clock(monkeypatch, tick_s: float):
    """Each read of the runtime's clock comes `tick_s` after the one before."""
    reads = itertools.count(1)
    monkeypatch.setattr(runtime, "time",
                        types.SimpleNamespace(monotonic=lambda: tick_s * next(reads)))


def _verdict_outcome(verdict):
    return verdict.result, verdict.reason, verdict.coverage, verdict.failing_trace


def _campaign_files(out_dir):
    verdict = json.loads((out_dir / "verdict.json").read_text())
    for volatile in ("mean_run_ms", "stddev_run_ms"):
        verdict.pop(volatile)
    return verdict, {p.name: p.read_bytes() for p in (out_dir / "runs").iterdir()}


@pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "parallel"))
@pytest.mark.parametrize("name, ticking_clock",
                         [pytest.param(name, False, id=name) for name in sorted(CAMPAIGN_FIXTURES)]
                         + [pytest.param("loop", True, id="loop-ticking_clock")])
def test_campaign_matches_the_trace_campaign(name, ticking_clock, sequential, monkeypatch,
                                             tmp_path):
    _with_step_budget(monkeypatch, 2_000)  # loop's runs never end otherwise
    if ticking_clock:
        # the clock read at step 1,025 is past the 5 s timeout, so every run
        # ends in TIMEOUT before its step budget
        _with_ticking_clock(monkeypatch, 3.0)
    x = compile_fixture(name, *CAMPAIGN_FIXTURES[name], sample_seed=42)
    for i, rule in enumerate(CAMPAIGN_RULES):
        for seed in (0, 1, 7):
            cfg = CampaignConfig(mode=rule, seed=seed, sequential=sequential)
            assert _verdict_outcome(run_campaign(x, cfg)) == \
                _verdict_outcome(oracles.reference_campaign(x, cfg)), (rule, seed)
        cfg = CampaignConfig(mode=rule, seed=3, sequential=sequential)
        got, want = tmp_path / f"{i}_marked", tmp_path / f"{i}_traced"
        verdict = run_campaign(x, cfg, out_dir=str(got))
        assert _verdict_outcome(verdict) == \
            _verdict_outcome(oracles.reference_campaign(x, cfg, out_dir=str(want))), rule
        files = _campaign_files(got)
        assert files == _campaign_files(want), rule
        assert len(files[1]) == 2 * verdict.coverage.runs_executed
        if ticking_clock:
            assert files[1]["run_0.out"].endswith(
                b"status: timeout\ncode: TIMEOUT\nmessage: execution exceeded 5s\n")


def _trace_file_hits(runs_dir, runs: int) -> tuple[set, set]:
    """The nodes and edges named in the trace files of a campaign's runs."""
    nodes, edges = set(), set()
    for k in range(runs):
        for line in (runs_dir / f"run_{k}.trace").read_text().splitlines():
            kind, *ids = line.split()
            if kind == "node":
                nodes.add(ids[0])
            else:
                edges.add(tuple(ids))
    return nodes, edges


@pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "parallel"))
def test_a_timed_out_run_is_replayed_to_the_step_it_stopped_at(sequential, monkeypatch,
                                                               tmp_path):
    # the start and steps 1 and 1,025 read 0, later reads an hour on: the run
    # times out at step 2,049, before that node is recorded. A replay that
    # read the clock would start an hour on and run to its step budget
    _with_step_budget(monkeypatch, 10_000)
    reads = itertools.count()
    monkeypatch.setattr(runtime, "time",
                        types.SimpleNamespace(monotonic=lambda: 3600.0 * (next(reads) >= 3)))
    x = compile_fixture("loop")
    run_campaign(x, CampaignConfig(mode=FixedBudget(n=1), sequential=sequential),
                 out_dir=str(tmp_path))
    lines = (tmp_path / "runs" / "run_0.trace").read_text().splitlines()
    assert sum(line.startswith("node ") for line in lines) == 2 * runtime.CLOCK_EVERY == 2_048
    assert (tmp_path / "runs" / "run_0.out").read_bytes().endswith(
        b"status: timeout\ncode: TIMEOUT\nmessage: execution exceeded 5s\n")


@pytest.mark.parametrize("keep_files", (False, True), ids=("marked", "with_files"))
def test_a_timeout_leaves_the_next_run_to_its_clock(diamond, keep_files, monkeypatch, tmp_path):
    # run 0 reads an expired clock on its first step, run 1 never does
    reads = itertools.count()  # run 0's start, its step 1, then the rest
    monkeypatch.setattr(runtime, "time",
                        types.SimpleNamespace(monotonic=lambda: 3600.0 * (next(reads) == 1)))
    statuses = []

    class Noted(runtime._Engine):
        def run(self, input_lists, seed):
            statuses.append(super().run(input_lists, seed))
            return statuses[-1]

    monkeypatch.setattr(runtime, "_Engine", Noted)
    verdict = run_campaign(diamond, CampaignConfig(mode=FixedBudget(n=2), sequential=True),
                           out_dir=str(tmp_path) if keep_files else None)
    assert statuses == ["timeout", "success"]
    assert verdict.coverage.c_n > 0
    if keep_files:
        for k, status in enumerate(statuses):
            assert f"status: {status}\n" in (tmp_path / "runs" / f"run_{k}.out").read_text()


@pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "parallel"))
@pytest.mark.parametrize("name", ("loop", "pingpong", "shipment", "triage"))
def test_run_files_change_no_verdict_and_no_run_time(name, sequential, monkeypatch, tmp_path):
    # under a clock that ticks 3 s a read (every loop run times out), a
    # campaign reads the clock as often with run files as without, and
    # gives the same verdict, its run-time statistics included: replays
    # read no clock and are not timed
    _with_step_budget(monkeypatch, 2_000)
    x = compile_fixture(name, *CAMPAIGN_FIXTURES[name], sample_seed=42)
    for i, rule in enumerate(CAMPAIGN_RULES):
        cfg = CampaignConfig(mode=rule, seed=3, sequential=sequential)
        verdicts, reads = [], []
        for out_dir in (None, str(tmp_path / str(i))):
            _with_ticking_clock(monkeypatch, 3.0)
            verdicts.append(run_campaign(x, cfg, out_dir=out_dir))
            reads.append(runtime.time.monotonic())  # one read past the campaign's
        assert dataclasses.replace(verdicts[1], failing_trace=None) == verdicts[0], rule
        assert reads[0] == reads[1], rule


@settings(max_examples=25, deadline=None)
@given(drawn=models(forks=True), seed=st.integers(0, 2**32))
def test_the_hit_arrays_are_the_union_of_the_run_files(drawn, seed, tmp_path_factory):
    x = compile_model(parse_bpmn(drawn.xml), ())
    for sequential in (True, False):
        out_dir = tmp_path_factory.mktemp("campaign")
        verdict = run_campaign(x, CampaignConfig(mode=FixedBudget(n=8), seed=seed,
                                                 sequential=sequential),
                               overrides={"x": list(range(-10, 11))}, out_dir=str(out_dir))
        coverage = verdict.coverage
        assert _trace_file_hits(out_dir / "runs", coverage.runs_executed) == \
            (coverage.visited_nodes, coverage.visited_edges)


# two branches write v when x > 0 (a race), else v and w
SOMETIMES_RACE = """
  <startEvent id="s"><extensionElements><ext:ioMapping>
    <ext:output source="x" target="x"/></ext:ioMapping></extensionElements></startEvent>
  <parallelGateway id="split"/>
  <scriptTask id="a" resultVariable="v"><script>1</script></scriptTask>
  <exclusiveGateway id="g" default="f_w"/>
  <scriptTask id="b" resultVariable="v"><script>2</script></scriptTask>
  <scriptTask id="c" resultVariable="w"><script>3</script></scriptTask>
  <exclusiveGateway id="m"/>
  <parallelGateway id="join"/>
  <endEvent id="e"/>
  <sequenceFlow id="f1" sourceRef="s" targetRef="split"/>
  <sequenceFlow id="f2" sourceRef="split" targetRef="a"/>
  <sequenceFlow id="f3" sourceRef="split" targetRef="g"/>
  <sequenceFlow id="f_v" sourceRef="g" targetRef="b">
    <conditionExpression>x &gt; 0</conditionExpression></sequenceFlow>
  <sequenceFlow id="f_w" sourceRef="g" targetRef="c"/>
  <sequenceFlow id="f4" sourceRef="b" targetRef="m"/>
  <sequenceFlow id="f5" sourceRef="c" targetRef="m"/>
  <sequenceFlow id="f6" sourceRef="m" targetRef="join"/>
  <sequenceFlow id="f7" sourceRef="a" targetRef="join"/>
  <sequenceFlow id="f8" sourceRef="join" targetRef="e"/>
"""


def _hit(ids, marks) -> set:
    """The ids of a campaign's hit array that a run marked."""
    return set(itertools.compress(ids, marks))


def _runs_on_one_engine(make, runs, mode: str, max_steps: int):
    """Run each (input lists, scheduler seed) of `runs` in order on one
    engine that marks hits, as a campaign does, and on one that keeps
    traces, as `run_once` and a campaign's replays do; each run must end as
    `run_once` ends it on a fresh model (`make()`), marking the nodes and
    edges of its trace and keeping the same trace, so no run leaves state
    to the next."""
    model = make()
    options = RunOptions(mode=mode, max_steps=max_steps)
    hits = runtime.CoverageHits(model)
    marking, tracing = runtime._Engine(model, options, hits), runtime._Replay(model, options)
    seen = set()
    for lists, seed in runs:
        hits.nodes[:] = bytes(len(hits.nodes))
        hits.edges[:] = bytes(len(hits.edges))
        marking.run(lists, seed)
        tracing.run(lists, seed)
        trace, want = run_once(make(), lists, dataclasses.replace(options, seed=seed))
        for engine in (marking, tracing):
            got = engine.summary()
            assert (got.inputs_used, got.status, got.code, got.message, got.diagnostics) == (
                want.inputs_used, want.status, want.code, want.message, want.diagnostics), \
                (lists, seed)
        assert _hit(hits.node_ids, hits.nodes) == set(trace.node_sequence()), (lists, seed)
        assert _hit(hits.edge_pairs, hits.edges) == set(trace.edges()), (lists, seed)
        assert tracing.trace.records == trace.records, (lists, seed)
        seen.add((want.code, tuple(want.diagnostics)))
    return seen


def _fixture_runs(model, count: int) -> list:
    """The input lists and scheduler seeds of a campaign's first runs."""
    draw, runs = verifier._input_draw(model.input_vars, {}), []
    for k in range(count):
        rng = random.Random(k)
        runs.append((draw(rng), rng.getrandbits(64)))
    return runs


@pytest.mark.parametrize("mode", ("sequential", "parallel"))
@pytest.mark.parametrize("name", sorted(CAMPAIGN_FIXTURES))
def test_a_reused_engine_runs_each_fixture_run_as_run_once(name, mode):
    # a budget of 9 steps ends many runs early, in a fork of pingpong and
    # onboarding with other branches still ready
    def make():
        return compile_fixture(name, *CAMPAIGN_FIXTURES[name], sample_seed=42)
    runs = _fixture_runs(make(), 12)
    for max_steps in (9, 2_000):
        _runs_on_one_engine(make, runs, mode, max_steps)


@pytest.mark.parametrize("mode", ("sequential", "parallel"))
def test_a_reused_engine_leaves_no_message_deadlock_or_race_to_the_next_run(mode):
    # every LEFTOVER run ends with two messages unread
    for body, ending in ((LEFTOVER, "e"), (CROSS_RECEIVE, "ENGINE_FAULT")):
        seen = _runs_on_one_engine(lambda: compile_inline(body, prelude=MSG_PRELUDE),
                                   [({}, seed) for seed in range(6)], mode, 1_000)
        assert {code for code, _ in seen} == {ending}
    # a run that races on v comes before each run that does not, and one
    # that ends at its step budget, its other branch still ready, before each
    runs = [({"x": [x]}, seed) for seed in range(8) for x in (1, -1)]
    for max_steps in (3, 1_000):
        seen = _runs_on_one_engine(lambda: compile_inline(SOMETIMES_RACE), runs, mode, max_steps)
        if max_steps == 3:
            assert seen == {("ENGINE_FAULT", ())}
        elif mode == "parallel":
            race = "variable 'v' written by several parallel branches"
            assert seen == {("e", ()), ("e", (race,))}


@settings(max_examples=40, deadline=None)
@given(drawn=models(forks=True),
       runs=st.lists(st.tuples(st.integers(-10, 10), st.integers(0, 2**64 - 1)),
                     min_size=2, max_size=5),
       max_steps=st.sampled_from([6, 15, 10_000]))
def test_a_reused_engine_runs_each_generated_run_as_run_once(drawn, runs, max_steps):
    for mode in ("sequential", "parallel"):
        _runs_on_one_engine(lambda: compile_model(parse_bpmn(drawn.xml), ()),
                            [({"x": [x]}, seed) for x, seed in runs], mode, max_steps)


@pytest.mark.parametrize("keep_files", (False, True), ids=("marked", "with_files"))
def test_campaign_rejects_ids_the_graph_lacks(diamond, keep_files, tmp_path):
    graph = diamond.graph
    without_node = ProcessGraph(tuple(n for n in graph.nodes if n[0] != "l"), graph.edges)
    without_pair = ProcessGraph(graph.nodes, tuple(e for e in graph.edges if e != ("g", "r")))
    cfg = CampaignConfig(mode=FixedBudget(n=20), seed=0, sequential=True)
    for i, (stray_graph, stray) in enumerate(((without_node, r"nodes \['l'\]"),
                                              (without_pair, r"edges \[\('g', 'r'\)\]"))):
        x = dataclasses.replace(diamond, graph=stray_graph)
        with pytest.raises(UnknownIdError, match=stray):
            run_campaign(x, cfg, out_dir=str(tmp_path / str(i)) if keep_files else None)


def test_campaign_stops_at_the_run_that_reaches_a_stray_id(diamond, tmp_path):
    # the graph lacks the left end: the first run that goes left is the last
    x = dataclasses.replace(diamond, graph=ProcessGraph(
        tuple(n for n in diamond.graph.nodes if n[0] != "l"), diamond.graph.edges))
    first_left = next(k for k in range(20) if verifier.draw_input_lists(
        x.input_vars, {}, random.Random(k)) == {"coin": ["heads"]})
    with pytest.raises(UnknownIdError, match=r"nodes \['l'\]"):
        run_campaign(x, CampaignConfig(mode=FixedBudget(n=20), seed=0, sequential=True),
                     out_dir=str(tmp_path))
    assert 0 < first_left < 19
    assert len(os.listdir(tmp_path / "runs")) == 2 * (first_left + 1)


def test_campaign_runs_build_no_trace(monkeypatch):
    _with_step_budget(monkeypatch, 50_000)
    x = compile_fixture("loop")
    built = []
    for name in ("Trace", "VarWritten", "TableEvaluated"):
        monkeypatch.setattr(runtime, name, functools.partial(
            lambda cls, *args: built.append(cls) or cls(*args), getattr(runtime, name)))
    cfg = CampaignConfig(mode=FixedBudget(n=1), sequential=True, timeout_s=60)
    run_campaign(x, cfg)  # lowers the program
    tracemalloc.start()
    try:
        verdict = run_campaign(x, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.coverage.c_n == 100.0 * 5 / 6
    assert built == []
    # a trace of the 50,000 steps would hold 116,000 records
    assert peak < 100_000


def test_campaign_run_files_keep_memory_bounded(monkeypatch, tmp_path):
    _with_step_budget(monkeypatch, 50_000)
    x = compile_fixture("loop")
    cfg = CampaignConfig(mode=FixedBudget(n=1), sequential=True, timeout_s=60)
    run_campaign(x, cfg, out_dir=str(tmp_path / "first"))  # lowers the program
    tracemalloc.start()
    try:
        verdict = run_campaign(x, cfg, out_dir=str(tmp_path / "second"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.coverage.c_n == 100.0 * 5 / 6
    trace_file = tmp_path / "second" / "runs" / "run_0.trace"
    assert trace_file.read_bytes() == (tmp_path / "first" / "runs" / "run_0.trace").read_bytes()
    assert trace_file.stat().st_size > 2_800_000
    # the run's 116,000 records and one chunk of text take about 3.2 MB;
    # rendering the whole text at once took 11.4 MB
    assert peak < 6_000_000


def test_campaign_makes_the_runs_directory_once(diamond, monkeypatch, tmp_path):
    made = []
    makedirs = os.makedirs
    monkeypatch.setattr(os, "makedirs", lambda *args, **kwargs: made.append(args[0]) or
                        makedirs(*args, **kwargs))
    cfg = CampaignConfig(mode=FixedBudget(n=20), seed=0, sequential=True)
    run_campaign(diamond, cfg, out_dir=str(tmp_path))
    assert made == [str(tmp_path / "runs")]
    assert len(os.listdir(tmp_path / "runs")) == 40


def test_a_shipment_campaign_rarely_asks_for_a_kind():
    # its gateways and cells test plain strings and numbers, which the value
    # kernel settles by exact class; the 200 calls left are `neg` on the
    # literal in `pLength = -1`, once per run
    x = compile_fixture("shipment", "shipment")
    cfg = CampaignConfig(mode=FixedBudget(n=200), seed=0, sequential=True)
    verdicts = []
    counts = opcounts.count(lambda: verdicts.append(run_campaign(x, cfg)),
                            key=lambda code: code, opcodes=False)
    assert verdicts[0].coverage.runs_executed == 200
    calls = counts.get(values.kind_of.__code__, (0, 0))[1]
    assert calls <= 250  # the isinstance cascade alone made 5,160


# --- a campaign does its fixed work once --------------------------------------------------

@pytest.mark.parametrize("sequential", (True, False), ids=("sequential", "parallel"))
@pytest.mark.parametrize("keep_files", (False, True), ids=("marked", "with_files"))
def test_a_campaign_builds_its_samplers_options_and_stop_rule_once(shipment, sequential,
                                                                   keep_files, tmp_path,
                                                                   monkeypatch):
    counted = {inputs.sampler.__code__: "sampler", runtime.RunOptions.__init__.__code__: "options",
               verifier._meaningful_thresholds.__code__: "meaningful",
               verifier._hits_report.__code__: "report"}
    sampled = []  # the name of each sampler built
    sampler = inputs.sampler
    monkeypatch.setattr(inputs, "sampler",
                        lambda *args: sampled.append(args[3]) or sampler(*args))
    # thresholds out of shipment's reach: all 200 runs, the stop rule read after each
    cfg = CampaignConfig(mode=FixedBudget(n=200, theta_nodes=100, theta_edges=100), seed=3,
                         sequential=sequential)
    verdicts = []
    counts = opcounts.count(lambda: verdicts.append(run_campaign(
        shipment, cfg, out_dir=str(tmp_path) if keep_files else None)),
        key=lambda code: code, opcodes=False)
    calls = {name: counts.get(code, (0, 0))[1] for code, name in counted.items()}
    assert verdicts[0].coverage.runs_executed == 200
    assert sorted(sampled) == sorted(spec.name for spec in shipment.input_vars)
    assert calls["sampler"] == len(sampled)
    assert calls["options"] <= 1
    assert calls["meaningful"] <= 1
    assert calls["report"] == 1  # the verdict's, after the last run


@pytest.mark.parametrize("seed", range(4))
def test_run_time_statistics_match_the_statistics_module(seed, diamond, monkeypatch):
    # each run of the campaign takes the next of the numbers, in ms, as its time
    rng = random.Random(seed)
    spreads = (lambda: rng.uniform(0.001, 50.0), lambda: rng.lognormvariate(-3.0, 2.0),
               lambda: 0.02 + rng.random() * 1e-4)  # a spread far below the mean
    times = iter(())

    class Timed(runtime._Engine):
        def run(self, input_lists, seed):
            self.elapsed_s = next(times) / 1000.0
            return "success"

    monkeypatch.setattr(runtime, "_Engine", Timed)
    for size in (2, 3, 10, 1000):
        for draw in spreads:
            numbers = [draw() for _ in range(size)]
            times = iter(numbers)
            verdict = run_campaign(diamond, CampaignConfig(mode=FixedBudget(n=size)))
            assert verdict.coverage.runs_executed == size
            assert math.isclose(verdict.mean_run_ms, statistics.fmean(numbers), rel_tol=1e-9)
            assert math.isclose(verdict.stddev_run_ms, statistics.stdev(numbers), rel_tol=1e-9)


def test_one_run_has_no_spread(diamond):
    verdict = run_campaign(diamond, CampaignConfig(mode=FixedBudget(n=1), sequential=True))
    assert verdict.coverage.runs_executed == 1
    assert verdict.mean_run_ms > 0.0
    assert verdict.stddev_run_ms == 0.0


# --- a run's fixed cost: the reseed and the draws --------------------------------------------

@pytest.mark.parametrize("seed", (0, 1, -1, 2**32, 2**64 + 5))
def test_the_direct_reseed_leaves_the_state_of_a_fresh_random(seed):
    rng = random.Random(7)
    rng.random(), rng.getrandbits(64), rng.choice("ab")  # a used generator, as after a run
    verifier._reseeder(rng)(seed)
    assert rng.getstate() == random.Random(seed).getstate()


@pytest.mark.parametrize("name", sorted(CAMPAIGN_FIXTURES))
def test_draw_input_lists_draws_as_the_reference_samplers(name):
    # the inputs of 1,000 runs, as perfbench's `campaign_draws` takes them:
    # the same values, by type, and the same generator state after them
    x = compile_fixture(name, *CAMPAIGN_FIXTURES[name], sample_seed=42)
    for k in range(1000):
        ours, theirs = random.Random(k), random.Random(k)
        got = verifier.draw_input_lists(x.input_vars, {}, ours)
        want = {spec.name: [oracles.reference_sample_domain(spec.domain, spec.static_type,
                                                            theirs, None, spec.name)]
                for spec in x.input_vars}
        assert repr(got) == repr(want), k
        assert ours.getstate() == theirs.getstate(), k
