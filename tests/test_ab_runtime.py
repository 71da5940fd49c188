"""`tools/ab_runtime.py` reports a base revision it cannot load in one line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_runtime.py"


def test_a_base_runtime_that_does_not_load_is_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    monkeypatch.setitem(sys.modules, "bproc._ab_runtime_base", None)  # removed afterwards
    spec = importlib.util.spec_from_file_location("ab_runtime", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    shown = subprocess.CompletedProcess([], 0, stdout="from .compiler import NoSuchStep\n",
                                        stderr="")
    monkeypatch.setattr(tool.subprocess, "run", lambda *args, **kwargs: shown)
    assert tool.main(["--base", "OLD", "--pairs", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    [line] = err.splitlines()
    assert line.startswith("OLD cannot be compared in process: its runtime.py does not load "
                           "or run next to the working tree's modules (ImportError: cannot "
                           "import name 'NoSuchStep' from 'bproc.compiler'")
