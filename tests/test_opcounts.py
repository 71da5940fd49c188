"""`tools/opcounts.py`: opcode and call counts that do not depend on the host,
and the budgets on them that keep the lowered program lean. Each budget is
the count measured on CPython 3.11 plus at most 2%. An opcode budget is
checked on 3.11 only, since other versions compile the same code to other
counts; a call budget holds on every version (3.12 on runs a comprehension
without a frame of its own, so it counts fewer calls)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bproc import (CampaignConfig, FixedBudget, RunOptions, compile_model, parse_bpmn,
                   parse_expr, run_campaign, run_once, runtime)
from bproc.feel import compile_expr

from conftest import compile_fixture, load_fixture, load_tool
from generators import Text
from test_pins import diamonds

ROOT = Path(__file__).resolve().parent.parent
opcounts = load_tool("opcounts")

OPCODES_MEASURED_ON = (3, 11)

#: (opcodes, calls) budgets, each beside what it measured when it was set.
#: A warm sequential shipment campaign run (200 runs, campaign seed 1,
#: sample seed 1): the C reseed, two draws, one of them an enum draw that
#: repeats Random.choice's calls one for one, and ten steps (1,313 and 26.83)
CAMPAIGN_RUN = (1_330, 27.3)
#: the same run in a 50-run campaign with run files: the run, its replay on
#: the engine that keeps traces and reads no clock, its summary and its two
#: files (3,554.66 and 87.24)
CAMPAIGN_RUN_WITH_FILES = (3_620, 88.8)
#: a warm parallel run of `diamonds(300, 7)` (1,204 nodes; x = 50, seed 2)
#: on a campaign's engine: a join's `passed` is its edge, taken without a
#: call, and an end event sets the outcome itself (249,157 and 1,671)
WARM_PARALLEL_RUN = (252_000, 1_700)
#: one step of `loop`, over a run ended by a budget of LOOP_STEPS steps:
#: a node's closure, with the fused `n + 1` closure under Activity_Spin,
#: and no call at Gateway_Cycle, a pass-through node; a traced run's write
#: record is built with no call, a campaign run builds none, and a parallel
#: run that never forks keeps no write-race bookkeeping
LOOP_STEPS = 1_500
LOOP_STEP = {  # (traced, mode) -> budget (measured)
    (True, "sequential"): (88.3, 1.36),  # 86.84 and 1.336
    (True, "parallel"): (95.4, 1.36),  # 93.84 and 1.336
    (False, "sequential"): (76.3, 1.36),  # 74.82 and 1.335
    (False, "parallel"): (83.4, 1.36),  # 81.82 and 1.335
}
#: a traced sequential `run_once`: shipment on ("l", 9.0) takes ten nodes to
#: NO_SHIPMENT and calls three tables (2,171 and 46); pingpong_sendfirst sends
#: and receives each message once (1,223 and 17); no write or table record
#: is built through a call
TRACED_RUN = {"shipment": (2_200, 46), "pingpong_sendfirst": (1_245, 17)}
#: `GetLengthDT.select` on one argument: a plain string is the selector and
#: one call per cell of its five one-cell rules (201 and 6); a checked one
#: (here a str subclass) takes the checked cells (1,298 and 61)
SELECT = {"plain": (204, 6), "checked": (1_320, 62)}


def _keeps_to(counts, budget: tuple, per: float = 1):
    opcodes, calls = (sum(tally[i] for tally in counts.values()) / per for i in (0, 1))
    if sys.version_info[:2] == OPCODES_MEASURED_ON:
        assert opcodes <= budget[0], f"{opcodes:.2f} opcodes, budget {budget[0]}"
    assert calls <= budget[1], f"{calls:.3f} calls, budget {budget[1]}"


def _calls(counts, path: str, qualname: str) -> int:
    """The calls of one code object; before Python 3.11 a code object
    names itself without its class."""
    names = {qualname, qualname.rpartition(".")[2]}
    return sum(calls for (where, name), (_, calls) in counts.items()
               if where == path and name in names)


def test_a_warm_sequential_shipment_run_keeps_to_its_budget():
    runs = 200
    x = compile_fixture("shipment", "shipment", sample_seed=1)
    cfg = CampaignConfig(mode=FixedBudget(n=runs), seed=1, sequential=True)
    counts = opcounts.warm_counts(x, cfg)
    _keeps_to(counts, CAMPAIGN_RUN, runs)
    # `Random.seed` runs once, when the campaign makes its generator; no run
    # calls it, and no enum draw calls `Random.choice`
    assert _calls(counts, "random.py", "Random.seed") == 1
    assert _calls(counts, "random.py", "Random.choice") == 0


def test_a_warm_sequential_shipment_run_with_files_keeps_to_its_budget(tmp_path):
    runs = 50
    x = compile_fixture("shipment", "shipment", sample_seed=1)
    cfg = CampaignConfig(mode=FixedBudget(n=runs), seed=1, sequential=True)
    run_campaign(x, cfg, None, str(tmp_path / "warm"))
    counts = opcounts.count(run_campaign, x, cfg, None, str(tmp_path / "counted"))
    assert len(os.listdir(tmp_path / "counted" / "runs")) == 2 * runs
    _keeps_to(counts, CAMPAIGN_RUN_WITH_FILES, runs)


def test_a_warm_parallel_run_keeps_to_its_budget():
    x = compile_model(parse_bpmn(diamonds(300, 7)), ())
    engine = runtime._Engine(x, RunOptions(), runtime.CoverageHits(x))
    assert engine.run({"x": [50]}, 1) == "success"
    counts = opcounts.count(engine.run, {"x": [50]}, 2)
    assert engine.summary().status == "success" and engine.diagnostics == []
    _keeps_to(counts, WARM_PARALLEL_RUN)


@pytest.mark.parametrize("traced, mode", list(LOOP_STEP))
def test_a_loop_step_keeps_to_its_budget(traced, mode):
    loop = compile_fixture("loop")
    engine = runtime._Engine(loop, RunOptions(mode=mode, max_steps=LOOP_STEPS),
                             None if traced else runtime.CoverageHits(loop))
    engine.run({}, 0)  # lowers the program and builds its records
    counts = opcounts.count(engine.run, {}, 0)
    assert engine.summary().message == f"step budget of {LOOP_STEPS} exceeded"
    _keeps_to(counts, LOOP_STEP[traced, mode], LOOP_STEPS)


@pytest.mark.parametrize("name, dmns, lists, code", [
    ("shipment", ("shipment",), {"pType": ["l"], "pWeight": [9.0]}, "NO_SHIPMENT"),
    ("pingpong_sendfirst", (), {}, "EndEvent_PingPong")], ids=("shipment", "sendfirst"))
def test_a_traced_run_keeps_to_its_budget(name, dmns, lists, code):
    x = compile_fixture(name, *dmns)
    options = RunOptions(mode="sequential")
    assert run_once(x, lists, options)[1].code == code  # lowers the program
    counts = opcounts.count(run_once, x, lists, options)
    _keeps_to(counts, TRACED_RUN[name])


@pytest.mark.parametrize("argument", ("plain", "checked"))
def test_a_table_selection_keeps_to_its_budget(argument):
    _, tables = load_fixture("shipment", "shipment")
    (table,) = [t for t in tables if t.id == "GetLengthDT"]
    value = "m" if argument == "plain" else Text("m")
    table.select([value])  # compiles the table's cells
    _keeps_to(opcounts.count(table.select, [value]), SELECT[argument])


@pytest.mark.parametrize("text, bindings", [('sMode = "air"', {"sMode": "air"}),
                                            ('sMode = "air"', {"sMode": "car"}),
                                            ("pLength = -1", {"pLength": 3})],
                         ids=("equal", "unequal", "negative"))
def test_a_variable_compared_to_a_literal_is_one_call(text, bindings):
    # a folded negation is a literal too; 24 opcodes on 3.11
    _keeps_to(opcounts.count(compile_expr(parse_expr(text)), bindings), (24, 1))


def _fresh_totals(*args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="random")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "opcounts.py"), *args],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_two_fresh_processes_count_the_same(tmp_path):
    # as the budgets above need: the counts depend on neither the host nor
    # the hash seed, for a parallel diamonds campaign too
    model = tmp_path / "diamonds.bpmn"
    model.write_bytes(diamonds(300, 7))
    shipment = [str(ROOT / "fixtures" / "shipment.bpmn"), str(ROOT / "fixtures" / "shipment.dmn")]
    for args in ((*shipment, "-n", "50"), (*shipment, "-n", "50", "--parallel"),
                 (str(model), "-n", "2", "--parallel")):
        first = _fresh_totals(*args)
        assert first["opcodes"] > 0 and first["calls"] > 0
        assert _fresh_totals(*args) == first, args
