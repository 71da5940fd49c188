#!/usr/bin/env python3
"""Paired benchmark runs of a git revision against the working tree.

    python tools/ab.py --base REV [--pairs N] [--json PATH]

Builds `base/` (`git archive REV`) and `work/` (the working tree's tracked
and untracked, non-ignored files) in one temporary directory, both with the
working tree's BENCHMARK.json, the paths it lists and `tools/opcounts.py`.
In each it first counts a 50-run sequential and a 50-run parallel shipment
campaign with that `tools/opcounts.py` (about 2 s). For k = 1..N it then
runs the benchmark command with `--workload all --seed k --seconds 3` in
both, the side that goes first alternating: about 35 s a pair on 2 CPUs.

Prints a Markdown row per end-to-end metric and workload (both medians with
their quartiles, the gap, the pairs each side won, the call, the bound);
under it a row per counted campaign (opcodes and Python calls per run on
each side, and the work side's delta, which depends on neither the host
nor its load); then each side's failed-operation share. `--json PATH` also
writes both tables to PATH as JSON, with the machine (CPUs, load averages
before and after, Python) and each side's speed-kernel times per workload
(median and inter-quartile range over median), read from the
`.perfbench_out/` files its runs wrote. The call is "gain" or "loss" only
when one side wins nine tenths of the pairs, and at least nine, and the gap
is wider than the base's inter-quartile range (Kalibera & Jones, ISMM 2013).
The bound is "unresolved" when that range is wider than the metric's bound,
"past bound" when the work side is worse by more than it, else "ok". Exits
2 when REV cannot be exported, or 1, naming side and seed (or campaign),
when a run exits non-zero, prints no JSON last line or reports `correct:
false`. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "work")
#: the campaigns counted on each side: `tools/opcounts.py` arguments
COUNTED = {"shipment sequential": ("fixtures/shipment.bpmn", "fixtures/shipment.dmn", "-n", "50"),
           "shipment parallel": ("fixtures/shipment.bpmn", "fixtures/shipment.dmn", "-n", "50",
                                 "--parallel")}


class Stop(Exception):
    """A one-line reason to stop, with the exit status."""


def git(*args: str) -> bytes:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if done.returncode:
        reason = (done.stderr.decode(errors="replace").strip().splitlines() or ["failed"])[0]
        raise Stop(f"git {' '.join(args)}: {reason}", 2)
    return done.stdout


def build(rev: str, tmp: Path, spec: dict) -> None:
    """`tmp/base` from REV and `tmp/work` from the working tree, both with
    the working tree's benchmark and opcode counter."""
    ours = ["BENCHMARK.json", *spec["paths"], "tools/opcounts.py"]
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        theirs = [m for m in tar if not any(f"{m.name}/".startswith(f"{p}/") for p in ours)]
        tar.extractall(tmp / "base", theirs, filter="data")
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        if (ROOT / name).is_file():  # not a tracked file deleted from the working tree
            (tmp / "work" / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, tmp / "work" / name)
    for name in ours:
        source, target = tmp / "work" / name, tmp / "base" / name
        target.parent.mkdir(parents=True, exist_ok=True)
        (shutil.copytree if source.is_dir() else shutil.copy2)(source, target)


def bench(tree: Path, seed: int, spec: dict) -> dict:
    """The last line of one benchmark run, checked."""
    done = subprocess.run([*spec["command"], "--workload", "all", "--seed", str(seed),
                           "--seconds", "3"], cwd=tree, capture_output=True, text=True)
    last = (done.stdout.strip().splitlines() or [""])[-1]
    try:
        result = json.loads(last)
        ok = done.returncode == 0 and result["correct"] is True
    except (ValueError, TypeError, KeyError):
        ok = False
    if not ok:
        raise Stop(f"{tree.name} run at seed {seed} failed (exit {done.returncode}): "
                   f"{last[:300] or done.stderr.strip()[-300:]}", 1)
    return result


def opcounts(tree: Path) -> dict:
    """Campaign -> the last line of its `tools/opcounts.py` run in `tree`
    (runs, opcodes and calls), checked."""
    totals = {}
    for campaign, args in COUNTED.items():
        done = subprocess.run([sys.executable, "tools/opcounts.py", *args], cwd=tree,
                              capture_output=True, text=True)
        last = (done.stdout.strip().splitlines() or [""])[-1]
        try:
            totals[campaign] = json.loads(last)
            ok = done.returncode == 0 and totals[campaign]["runs"] > 0
        except (ValueError, TypeError, KeyError):
            ok = False
        if not ok:
            raise Stop(f"{tree.name} count of {campaign} failed (exit {done.returncode}): "
                       f"{last[:300] or done.stderr.strip()[-300:]}", 1)
    return totals


def count_rows(counts: dict) -> list[dict]:
    """A row per counted campaign: each side's opcodes and calls per run,
    and the work side's delta, taken from the integer totals of the same
    number of runs, so that equal counts give a delta of exactly 0."""
    rows = []
    for campaign in COUNTED:
        base, work = counts["base"][campaign], counts["work"][campaign]
        rows.append({"campaign": campaign,
                     **{side: {k: totals[k] / totals["runs"] for k in ("opcodes", "calls")}
                        for side, totals in (("base", base), ("work", work))},
                     "delta": {k: (work[k] - base[k]) / base["runs"]
                               for k in ("opcodes", "calls")}})
    return rows


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median, third quartile."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def compare(workload: str, metric: dict, base: list[float], work: list[float]) -> dict:
    """One metric of one workload on both sides: quartiles, gap, pairs won,
    the call and the bound (see the module docstring)."""
    sign = 1 if metric["better"] == "higher" else -1
    (b1, bm, b3), (w1, wm, w3) = quartiles(base), quartiles(work)
    won = [sum(sign * (w - b) > 0 for b, w in zip(base, work)),
           sum(sign * (w - b) < 0 for b, w in zip(base, work))]
    enough = max(9, 0.9 * len(base))  # nine tenths, and no call from fewer than nine pairs
    call = ("gain" if won[0] >= enough and sign * (wm - bm) > b3 - b1 else
            "loss" if won[1] >= enough and sign * (bm - wm) > b3 - b1 else "none")
    bound = ("unresolved" if b3 - b1 > metric["bound"] * abs(bm) else
             "past bound" if sign * (bm - wm) > metric["bound"] * abs(bm) else "ok")
    return {"workload": workload, "metric": metric["name"], "unit": metric["unit"],
            "base": {"median": bm, "q1": b1, "q3": b3, "values": base},
            "work": {"median": wm, "q1": w1, "q3": w3, "values": work},
            "gap": (wm - bm) / abs(bm), "won_work": won[0], "won_base": won[1],
            "call": call, "bound": bound}


def row(workload: str, metric: dict, base: list[float], work: list[float]) -> str:
    c = compare(workload, metric, base, work)
    b, w = c["base"], c["work"]
    return (f"| {workload} | {metric['name']} ({metric['unit']}) | {b['median']:.4g} "
            f"[{b['q1']:.4g}, {b['q3']:.4g}] | {w['median']:.4g} [{w['q1']:.4g}, {w['q3']:.4g}]"
            f" | {c['gap']:+.1%} | {c['won_work']}–{c['won_base']} | {c['call']} | {c['bound']} |")


def kernel_spread(tree: Path) -> dict:
    """Workload -> the median and inter-quartile range over median of the
    speed-kernel times in every results file of `tree/.perfbench_out/`."""
    times: dict[str, list[float]] = {}
    for path in sorted((tree / ".perfbench_out").glob("results_*.json")):
        result = json.loads(path.read_text())
        times.setdefault(result["workload"], []).extend(result["metrics"]["kernel_s"])
    spread = {}
    for workload, values in times.items():
        q1, median, q3 = quartiles(values)
        spread[workload] = {"median_s": median, "iqr_share": (q3 - q1) / median,
                            "samples": len(values)}
    return spread


def machine() -> dict:
    return {"cpus": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="pairs of runs (default 10)")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the table and machine information here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {side: [] for side in SIDES}
    before = machine()
    try:
        with tempfile.TemporaryDirectory(prefix="ab_") as tmp:
            build(args.base, Path(tmp), spec)
            counts = {side: opcounts(Path(tmp) / side) for side in SIDES}
            for k in range(1, args.pairs + 1):
                for side in SIDES[::1 if k % 2 else -1]:
                    results[side].append(bench(Path(tmp) / side, k, spec))
                print(f"pair {k} of {args.pairs} done", file=sys.stderr, flush=True)
            kernels = {side: kernel_spread(Path(tmp) / side) for side in SIDES}
    except Stop as stop:
        print(f"ab.py: {stop.args[0]}", file=sys.stderr)
        return stop.args[1]
    print(f"base = {args.base}, work = working tree, {args.pairs} pairs\n\n| workload | metric"
          " | base median [q1, q3] | work median [q1, q3] | gap | won work–base | call |"
          " bound |\n| --- | --- | --- | --- | --- | --- | --- | --- |")
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}/{metric['name']}"
            values = [[r["metrics"][key]["value"] for r in results[side]] for side in SIDES]
            print(row(workload, metric, *values))
            rows.append(compare(workload, metric, *values))
    print("\n| campaign (per run) | base opcodes | work opcodes | delta | base calls | work calls"
          " | delta |\n| --- | ---: | ---: | ---: | ---: | ---: | ---: |")
    counted = count_rows(counts)
    for c in counted:
        b, w, d = c["base"], c["work"], c["delta"]
        print(f"| {c['campaign']} | {b['opcodes']:,.1f} | {w['opcodes']:,.1f} "
              f"| {d['opcodes']:+,.1f} | {b['calls']:.2f} | {w['calls']:.2f} | {d['calls']:+.2f} |")
    print()
    failed = {}
    for side in SIDES:
        failed[side] = {k: sum(r[k] for r in results[side]) for k in ("failed", "attempted")}
        print(f"{side}: {failed[side]['failed']} of {failed[side]['attempted']} operations "
              f"failed ({failed[side]['failed'] / max(failed[side]['attempted'], 1):.3g})")
    if args.json is not None:
        args.json.write_text(json.dumps({
            "base": args.base, "pairs": args.pairs,
            "machine": {**before, "loadavg_after": machine()["loadavg"]},
            "rows": rows, "counts": counted, "operations": failed,
            "speed_kernel": kernels}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
