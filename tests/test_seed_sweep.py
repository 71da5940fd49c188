"""`tools/seed_sweep.py` reports each seed at which a planted test fails."""

import subprocess
import sys
from pathlib import Path

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "seed_sweep.py"
PLANTED = '''from hypothesis import given, strategies as st
@given(st.integers(0, 10))
def test_planted_failure(n):
    assert n != 7, "seven is planted"
def test_passes():
    pass
'''


def test_each_failing_seed_is_reported_with_its_error(tmp_path):
    (tmp_path / "test_planted.py").write_text(PLANTED)

    def sweep(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, str(SWEEP), *args, str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
    done = sweep("--seeds", "3-4", "-j", "2")
    assert done.returncode == 1, done.stdout + done.stderr
    assert [line.split(" FAILED ")[0] for line in done.stdout.splitlines()[:2]] == \
        ["seed 3:", "seed 4:"]
    assert done.stdout.count("test_planted_failure - AssertionError: seven is planted") == 2
    assert done.stdout.endswith("2 of 2 seeds (3-4) failed\n") and "test_passes" not in done.stdout
    done = sweep("--seeds", "5", "-k", "passes")
    assert (done.returncode, done.stdout) == (0, "0 of 1 seeds (5-5) failed\n")
