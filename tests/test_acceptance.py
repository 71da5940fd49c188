"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them on success).

Tolerances are fixed here, not calibrated elsewhere:
  1. decision-table semantics vs. the row-implication formula: 500 random
     tables, exhaustive arguments, 100% agreement, < 30 s
  2. trace correspondence on 5 acyclic parallel-free fixtures against a
     direct graph-walk oracle: 100% agreement, node-for-node and
     write-for-write
  3. shipment campaign, 1000 seeded runs: C_n >= 70, C_e >= 65, < 60 s
  4. mean single-run time on shipment <= 100 ms, stddev reported
  5. statistical sample sizing: exact reference points plus the defining
     inequality on 100 random (epsilon, delta) pairs
  6. error seeking fails within n=50 on 20 seeds and replays byte-for-byte
  7. unhandled gateway conditions and no-rule decisions end in failure
  8. parallel fork/join with messaging: 1000 runs, continuation exactly
     once; receive-before-send deadlocks sequentially
  9. golden graph/trace/inputs/summary files are byte-identical across
     regenerations
"""

import json
import random
import time

import pytest

from bproc import (CampaignConfig, ErrorSeek, FixedBudget, RunOptions, compile_model,
                   parse_bpmn, parse_dmn, run_campaign, run_once, smc_sample_size)
from bproc.runtime import render_summary_file, parse_summary_inputs

import golden_support
from conftest import compile_fixture
from generators import random_table
from oracles import boundary_vectors, walk_process
from test_dmn import assert_table_matches_formula


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: {text}: PASS")


def test_criterion_1_dmn_formula_equivalence():
    rng = random.Random(20240601)
    started = time.monotonic()
    checked_args = sum(assert_table_matches_formula(random_table(rng)) for _ in range(500))
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(1, f"500 tables, {checked_args} argument vectors, {elapsed:.1f}s")


CORRESPONDENCE_FIXTURES = [
    ("shipment", ("shipment",)),
    ("discount", ("discount",)),
    ("triage", ()),
    ("quote", ()),
    ("onboarding", ()),
]


def test_criterion_2_trace_correspondence():
    total_vectors = 0
    for name, dmn_names in CORRESPONDENCE_FIXTURES:
        model = parse_bpmn((golden_support.FIXTURES / f"{name}.bpmn").read_bytes())
        tables = []
        for dmn_name in dmn_names:
            tables.extend(parse_dmn((golden_support.FIXTURES / f"{dmn_name}.dmn")
                                    .read_bytes()))
        x = compile_model(model, tables, sample_seed=0)
        for vector in boundary_vectors(x.input_vars):
            expected = walk_process(model, tables, vector)
            lists = {k: [v] for k, v in vector.items()}
            trace, summary = run_once(x, lists, RunOptions(mode="sequential"))
            assert trace.node_sequence() == expected.nodes, (name, vector)
            assert trace.writes() == expected.writes, (name, vector)
            status, code = expected.outcome
            assert summary.status == status and summary.code == code, (name, vector)
            total_vectors += 1
    report(2, f"5 fixtures, {total_vectors} input vectors, 100% agreement")


@pytest.fixture(scope="module")
def shipment_campaign(tmp_path_factory):
    x = compile_fixture("shipment", "shipment", sample_seed=42)
    out_dir = tmp_path_factory.mktemp("shipment_campaign")
    started = time.monotonic()
    cfg = CampaignConfig(mode=FixedBudget(n=1000), seed=42, sequential=True)
    verdict = run_campaign(x, cfg, out_dir=str(out_dir))
    return verdict, time.monotonic() - started, out_dir


def test_criterion_3_shipment_coverage_band(shipment_campaign):
    verdict, wall, _ = shipment_campaign
    assert verdict.result == "PASS"
    assert verdict.coverage.runs_executed == 1000
    assert verdict.coverage.c_n >= 70.0
    assert verdict.coverage.c_e >= 65.0
    assert wall < 60.0
    report(3, f"C_n={verdict.coverage.c_n:.1f}%, C_e={verdict.coverage.c_e:.1f}%, "
              f"1000 runs in {wall:.1f}s")


def test_criterion_4_per_run_cost(shipment_campaign):
    verdict, _, out_dir = shipment_campaign
    assert verdict.mean_run_ms <= 100.0
    payload = json.loads((out_dir / "verdict.json").read_text())
    assert "stddev_run_ms" in payload
    report(4, f"mean {verdict.mean_run_ms:.3f} ms, "
              f"stddev {verdict.stddev_run_ms:.3f} ms per run")


def test_criterion_5_smc_sizing():
    assert smc_sample_size(0.01, 0.01) == 459
    assert smc_sample_size(0.5, 0.5) == 1
    rng = random.Random(99)
    for _ in range(100):
        epsilon = rng.uniform(1e-4, 1 - 1e-4)
        delta = rng.uniform(1e-4, 1 - 1e-4)
        n = smc_sample_size(epsilon, delta)
        assert (1 - epsilon) ** n <= delta, (epsilon, delta, n)
        assert delta < (1 - epsilon) ** (n - 1), (epsilon, delta, n)
    report(5, "N(0.01,0.01)=459, N(0.5,0.5)=1, inequality holds on 100 random pairs")


def test_criterion_6_error_seeking_soundness(tmp_path):
    x = compile_fixture("triage")
    for seed in range(20):
        out_dir = tmp_path / f"seed{seed}"
        cfg = CampaignConfig(mode=ErrorSeek(n=50), seed=seed, sequential=True)
        verdict = run_campaign(x, cfg, out_dir=str(out_dir))
        assert verdict.result == "FAIL", f"seed {seed} found no error within 50 runs"
        assert verdict.failing_trace is not None
        # replay the recorded inputs and compare the summary byte-for-byte
        summary_path = out_dir / verdict.failing_trace.replace(".trace", ".out")
        inputs_used = parse_summary_inputs(summary_path)
        lists = {name: [value] for name, value in inputs_used.items()}
        _, replay_summary = run_once(x, lists, RunOptions(mode="sequential"))
        assert render_summary_file(replay_summary) == summary_path.read_text()
        assert replay_summary.status == "error"
    report(6, "20 seeds failed within n=50; every failing trace replays identically")


UNHANDLED_GW = """<?xml version="1.0"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
  <process id="strict">
    <startEvent id="s"/>
    <scriptTask id="t" resultVariable="x"><script>5</script></scriptTask>
    <exclusiveGateway id="g"/>
    <endEvent id="e1"/><endEvent id="e2"/>
    <sequenceFlow id="f0" sourceRef="s" targetRef="t"/>
    <sequenceFlow id="f1" sourceRef="t" targetRef="g"/>
    <sequenceFlow id="f2" sourceRef="g" targetRef="e1">
      <conditionExpression>x = 1</conditionExpression>
    </sequenceFlow>
    <sequenceFlow id="f3" sourceRef="g" targetRef="e2">
      <conditionExpression>x = 2</conditionExpression>
    </sequenceFlow>
  </process>
</definitions>"""

NO_MATCH_DECISION = """<?xml version="1.0"?>
<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL"
             xmlns:ext="http://x/ext">
  <process id="strictdmn">
    <startEvent id="s"/>
    <scriptTask id="t" resultVariable="x"><script>5</script></scriptTask>
    <businessRuleTask id="b">
      <extensionElements><ext:calledDecision decisionId="OnlyOne"/></extensionElements>
    </businessRuleTask>
    <endEvent id="e"/>
    <sequenceFlow id="f0" sourceRef="s" targetRef="t"/>
    <sequenceFlow id="f1" sourceRef="t" targetRef="b"/>
    <sequenceFlow id="f2" sourceRef="b" targetRef="e"/>
  </process>
</definitions>"""

ONLY_ONE_RULE = """<?xml version="1.0"?>
<definitions xmlns="https://www.omg.org/spec/DMN/20191111/MODEL/">
  <decision id="OnlyOne" name="only one">
    <decisionTable>
      <input label="x"><inputExpression><text>x</text></inputExpression></input>
      <output name="y"/>
      <rule>
        <inputEntry><text>1</text></inputEntry>
        <outputEntry><text>"hit"</text></outputEntry>
      </rule>
    </decisionTable>
  </decision>
</definitions>"""


def test_criterion_7_failure_injection():
    x = compile_model(parse_bpmn(UNHANDLED_GW), ())
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "error"
    assert summary.message == "unhandled condition"

    x = compile_model(parse_bpmn(NO_MATCH_DECISION), parse_dmn(ONLY_ONE_RULE))
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "fault"
    assert "no rule" in summary.message and "OnlyOne" in summary.message
    report(7, "no-default gateway ends with 'unhandled condition'; "
              "no-rule decision ends the run as a failure")


def test_criterion_8_parallel_semantics():
    x = compile_fixture("pingpong")
    for k in range(1000):
        trace, summary = run_once(x, {}, RunOptions(mode="parallel", seed=k))
        assert summary.status == "success", f"run {k}: {summary.message}"
        nodes = trace.node_sequence()
        assert nodes.count("Gateway_Sync") == 1, f"run {k}: join fired twice"
        assert nodes.count("Activity_Combine") == 1
    _, summary = run_once(x, {}, RunOptions(mode="sequential"))
    assert summary.status == "fault"
    assert "deadlock" in summary.message and "Activity_Await" in summary.message
    report(8, "1000 parallel runs joined exactly once; "
              "receive-before-send deadlocks under sequential mode")


def test_criterion_9_format_stability(tmp_path):
    committed = golden_support.GOLDEN
    assert committed.exists(), "run tools/make_golden.py once to seed the goldens"
    regenerated = []
    for attempt in ("first", "second"):
        out_dir = tmp_path / attempt
        files = golden_support.generate_artifacts(out_dir)
        regenerated.append({p.relative_to(out_dir): p.read_bytes() for p in files})
    assert regenerated[0] == regenerated[1]
    count = 0
    for rel, content in regenerated[0].items():
        assert (committed / rel).read_bytes() == content, f"{rel} drifted"
        count += 1
    report(9, f"{count} artifact files byte-identical across regenerations")
