"""`tools/ab.py`'s decision rule, count table and exits, with git, the benchmark runs
and, but for one test, the count runs faked."""

import io
import json
import subprocess
import tarfile
from pathlib import Path

import pytest

from conftest import load_tool

ROOT = Path(__file__).resolve().parent.parent
ab = load_tool("ab")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

HIGHER = {"name": "runs_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = dict(HIGHER, name="wall_s", better="lower")
BASE = [100, 101, 102, 103, 104] * 2  # median 102, inter-quartile range 2.5
WIDE = [60, 140] * 5  # inter-quartile range 80, past the bound of 25


@pytest.mark.parametrize("metric, base, work, won, call, bound", [
    (HIGHER, BASE, [b + 5 for b in BASE], "10–0", "gain", "ok"),
    (HIGHER, BASE, [b - 5 for b in BASE], "0–10", "loss", "ok"),
    (HIGHER, BASE, [b + 1 for b in BASE], "10–0", "none", "ok"),  # a gap inside the spread
    (HIGHER, BASE, [b + 5 for b in BASE[:8]] + BASE[8:], "8–0", "none", "ok"),
    (HIGHER, BASE, BASE, "0–0", "none", "ok"),
    (LOWER, BASE, [b * 1.3 for b in BASE], "0–10", "loss", "past bound"),
    (HIGHER, WIDE, [b + 1 for b in WIDE], "10–0", "none", "unresolved"),
])
def test_the_decision_rule(metric, base, work, won, call, bound):
    cells = [c.strip() for c in ab.row("w", metric, base, work).split("|")[1:-1]]
    assert cells[5:] == [won, call, bound]


def last_line(side, seed, correct=True):
    value = {"value": 100 + seed + 50 * (side == "work")}
    metrics = {f"{w['name']}/{m['name']}": value
               for w in SPEC["workloads"] for m in SPEC["end_to_end"]}
    return json.dumps({"correct": correct, "attempted": 10, "failed": 0, "metrics": metrics})


def counts_line(side):
    """What a fake `tools/opcounts.py` run prints last: 1,000 opcodes and 20
    calls per run, 10 opcodes more on the work side."""
    return json.dumps({"runs": 50, "opcodes": 50 * (1000 + 10 * (side == "work")),
                       "calls": 50 * 20})


@pytest.fixture
def fake(monkeypatch, tmp_path):
    """What the fake benchmark and count runs print (by side and seed, or
    side and campaign) and the runs made. With `state["source"]`, a list of
    files of this checkout, both sides hold those files and the counts are
    real `tools/opcounts.py` runs."""
    state = {"outcomes": {}, "counted": {}, "runs": [], "counts": []}
    monkeypatch.setattr(ab.tempfile, "tempdir", str(tmp_path))
    real_run = subprocess.run

    def archive() -> bytes:
        out = io.BytesIO()
        with tarfile.open(fileobj=out, mode="w") as tar:
            tar.addfile(tarfile.TarInfo("perfbench/stale.py"))  # the base's own benchmark
            for name in state.get("source", ()):
                tar.add(ROOT / name, name)
        return out.getvalue()

    def run(args, cwd, **kwargs):
        if args[0] == "git":  # an archive, or the working tree's files; no revision "nope"
            listed = "\0".join(["BENCHMARK.json", "perfbench/run.py", "tools/opcounts.py",
                                *state.get("source", ())]).encode()
            out = archive() if args[1] == "archive" else listed
            return subprocess.CompletedProcess(args, 128 * (args[-1] == "nope"), out,
                                               b"fatal: bad\nmore\n")
        if args[1] == "tools/opcounts.py":
            tree = Path(cwd)
            assert (tree / "tools/opcounts.py").read_bytes() == \
                (ROOT / "tools/opcounts.py").read_bytes()
            campaign = next(c for c, a in ab.COUNTED.items() if tuple(args[2:]) == a)
            state["counts"].append((tree.name, campaign))
            if "source" in state:
                return real_run(args, cwd=cwd, **kwargs)
            code, out = state["counted"].get((tree.name, campaign), (0, counts_line(tree.name)))
            return subprocess.CompletedProcess(args, code, "| table |\n" + out, "")
        tree, seed = Path(cwd), int(args[args.index("--seed") + 1])
        assert (tree / "perfbench/run.py").is_file() and not (tree / "perfbench/stale.py").exists()
        state["runs"].append((tree.name, seed))
        if "kernel_s" in state:  # the results file each workload's run leaves
            (tree / ".perfbench_out").mkdir(exist_ok=True)
            for w in SPEC["workloads"]:
                (tree / ".perfbench_out" / f"results_{w['name']}_seed{seed}.json").write_text(
                    json.dumps({"workload": w["name"], "metrics": {"kernel_s": state["kernel_s"]}}))
        code, out = state["outcomes"].get((tree.name, seed), (0, last_line(tree.name, seed)))
        return subprocess.CompletedProcess(args, code, "== progress\n" + out, "")

    monkeypatch.setattr(ab.subprocess, "run", run)
    yield state
    assert list(tmp_path.iterdir()) == []  # gone on every path


def test_pairs_alternate_and_every_metric_gets_a_row(fake, capsys):
    assert ab.main(["--base", "OLD", "--pairs", "2"]) == 0
    assert fake["runs"] == [("base", 1), ("work", 1), ("work", 2), ("base", 2)]
    assert fake["counts"] == [(side, campaign) for side in ab.SIDES for campaign in ab.COUNTED]
    out = capsys.readouterr().out
    times, counts, failed = out.split("\n\n")[1:]
    rows = [line for line in times.splitlines() if "---" not in line]
    assert len(rows) == 1 + len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert "| loop_budget | steps_per_s (1/s) | 101.5 [100.8, 102.2] | 151.5 [150.8, 152.2] " \
           "| +49.3% | 2–0 | none | ok |" in rows  # no call from two pairs
    assert counts.splitlines()[2:] == [
        "| shipment sequential | 1,000.0 | 1,010.0 | +10.0 | 20.00 | 20.00 | +0.00 |",
        "| shipment parallel | 1,000.0 | 1,010.0 | +10.0 | 20.00 | 20.00 | +0.00 |"]
    assert failed == "base: 0 of 20 operations failed (0)\nwork: 0 of 20 operations failed (0)\n"


@pytest.mark.parametrize("side, seed, code, out", [
    ("work", 2, 3, last_line("work", 2)),
    ("base", 1, 0, "Traceback (most recent call last):"),
    ("work", 1, 0, last_line("work", 1, correct=False)),
])
def test_a_failed_run_is_named_by_side_and_seed(fake, capsys, side, seed, code, out):
    fake["outcomes"][side, seed] = (code, out)
    assert ab.main(["--base", "OLD", "--pairs", "3"]) == 1
    printed, err = capsys.readouterr()
    assert err.splitlines()[-1].startswith(f"ab.py: {side} run at seed {seed} failed (exit ")
    assert printed == "" and fake["runs"][-1] == (side, seed)


@pytest.mark.parametrize("side, code, out", [("base", 1, "Traceback (most recent call last):"),
                                             ("work", 0, "no JSON")])
def test_a_failed_count_is_named_by_side_and_campaign(fake, capsys, side, code, out):
    fake["counted"][side, "shipment parallel"] = (code, out)
    assert ab.main(["--base", "OLD", "--pairs", "3"]) == 1
    printed, err = capsys.readouterr()
    assert err.splitlines()[-1].startswith(
        f"ab.py: {side} count of shipment parallel failed (exit {code}): ")
    assert printed == "" and fake["runs"] == []  # counted before the first pair


def test_the_same_source_on_both_sides_counts_zero_deltas(fake, capsys, tmp_path_factory):
    # what `--base HEAD` reports on a clean checkout: both trees hold this
    # checkout's package and fixtures, and the real counts agree exactly
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "fixtures").glob("shipment.*")]
    fake["source"] = sorted(str(path.relative_to(ROOT)) for path in files)
    path = tmp_path_factory.mktemp("bench") / "BENCH.json"
    assert ab.main(["--base", "HEAD", "--pairs", "1", "--json", str(path)]) == 0
    counted = json.loads(path.read_text())["counts"]
    assert [c["campaign"] for c in counted] == list(ab.COUNTED)
    for c in counted:
        assert c["delta"] == {"opcodes": 0, "calls": 0} and c["base"] == c["work"]
        assert c["base"]["opcodes"] > 1000 and c["base"]["calls"] > 15
    rows = [[cell.strip() for cell in line.split("|")[1:-1]]
            for line in capsys.readouterr().out.splitlines() if line.startswith("| shipment ")]
    assert [(row[3], row[6]) for row in rows] == [("+0.0", "+0.00")] * 2


def test_an_unknown_revision_is_one_line_and_exit_2(fake, capsys):
    assert ab.main(["--base", "nope"]) == 2
    assert capsys.readouterr() == ("", "ab.py: git archive --format=tar nope: fatal: bad\n")


def test_json_holds_the_table_the_machine_and_each_sides_kernel_spread(
        fake, capsys, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "BENCH.json"
    fake["kernel_s"] = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert ab.main(["--base", "OLD", "--pairs", "2", "--json", str(path)]) == 0
    data = json.loads(path.read_text())
    assert list(data) == ["base", "pairs", "machine", "rows", "counts", "operations",
                          "speed_kernel"]
    assert (data["base"], data["pairs"]) == ("OLD", 2)
    assert sorted(data["machine"]) == ["cpus", "loadavg", "loadavg_after", "python"]
    assert len(data["rows"]) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert {"workload": "loop_budget", "metric": "steps_per_s", "unit": "1/s",
            "base": {"median": 101.5, "q1": 100.75, "q3": 102.25, "values": [101, 102]},
            "work": {"median": 151.5, "q1": 150.75, "q3": 152.25, "values": [151, 152]},
            "gap": 50 / 101.5, "won_work": 2, "won_base": 0, "call": "none",
            "bound": "ok"} in data["rows"]
    assert data["counts"] == [{"campaign": campaign, "base": {"opcodes": 1000, "calls": 20},
                               "work": {"opcodes": 1010, "calls": 20},
                               "delta": {"opcodes": 10, "calls": 0}} for campaign in ab.COUNTED]
    assert data["operations"] == {side: {"failed": 0, "attempted": 20} for side in ab.SIDES}
    spread = {"median_s": 3.0, "iqr_share": 2.5 / 3.0, "samples": 10}
    assert data["speed_kernel"] == {side: {w["name"]: spread for w in SPEC["workloads"]}
                                    for side in ab.SIDES}
    # the printed table is the same with or without the file
    assert "| loop_budget | steps_per_s (1/s) | 101.5 [100.8, 102.2] |" in capsys.readouterr().out
