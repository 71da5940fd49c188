"""Every script under demos/ runs to completion against the bundled fixtures."""

import pathlib
import subprocess
import sys

import pytest

from conftest import child_env

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

KEY_LINES = {
    "coverage_campaign.py": "[fixed budget] PASS",
    "run_and_trace.py": "at   EndEvent_Unsupported",
    "translate_and_inspect.py": "process 'shipment': 14 nodes, 17 edges",
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(tmp_path, name):
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert any(line.startswith(KEY_LINES[name]) for line in proc.stdout.splitlines())
