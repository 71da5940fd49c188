"""`tools/opcounts.py`: opcode and call counts that do not depend on the host,
and the per-run budget of a warm shipment campaign they back."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from bproc import CampaignConfig, FixedBudget

from conftest import compile_fixture

ROOT = Path(__file__).resolve().parent.parent
loader = importlib.util.spec_from_file_location("opcounts", ROOT / "tools" / "opcounts.py")
opcounts = importlib.util.module_from_spec(loader)
loader.loader.exec_module(opcounts)

#: a warm sequential shipment campaign run (200 runs, campaign seed 1,
#: sample seed 1): the C reseed, two draws, one of them an enum draw that
#: repeats Random.choice's calls one for one, and ten steps. Opcodes are
#: CPython 3.11's; other versions compile the same code to other counts
RUN_OPCODES, RUN_CALLS = 1_330, 28
OPCODES_MEASURED_ON = (3, 11)


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
    opcodes = sum(tally[0] for tally in counts.values()) / runs
    calls = sum(tally[1] for tally in counts.values()) / runs
    if sys.version_info[:2] == OPCODES_MEASURED_ON:
        assert opcodes <= RUN_OPCODES, f"{opcodes:.1f} opcodes a run, budget {RUN_OPCODES}"
    assert calls <= RUN_CALLS, f"{calls:.2f} calls a run, budget {RUN_CALLS}"
    # `Random.seed` runs once, when the campaign makes its generator; no run
    # calls it, and no enum draw calls `Random.choice`
    assert _calls(counts, "random.py", "Random.seed") == 1
    assert _calls(counts, "random.py", "Random.choice") == 0


def _totals(*args: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="random")
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "opcounts.py"),
                           str(ROOT / "fixtures" / "shipment.bpmn"),
                           str(ROOT / "fixtures" / "shipment.dmn"), "-n", "50", *args],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_two_fresh_processes_count_the_same():
    for mode in ((), ("--parallel",)):
        first = _totals(*mode)
        assert first["runs"] == 50 and first["opcodes"] > 0 and first["calls"] > 0
        assert _totals(*mode) == first, mode
