#!/usr/bin/env python3
"""Run the tests once per hypothesis seed and report every seed that fails.

    python tools/seed_sweep.py --seeds A-B [-k EXPR] [-j JOBS] [PATH ...]

Each seed runs `python -m pytest -q -p no:cacheprovider
--hypothesis-seed=SEED` in a process of its own, from the repository root,
with `src` first on PYTHONPATH and a fresh, empty
HYPOTHESIS_STORAGE_DIRECTORY: no example saved by an earlier run replays,
so each seed draws its examples from scratch. PATHs (by default the
configured test paths) and `-k EXPR` pass through to pytest; `-j` runs that
many seeds at a time.

Prints each failing seed with pytest's summary line of every test that
failed at it (or, when pytest ended otherwise, its exit code and last
line), then a count; exits 1 when some seed failed. Standard library only.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range A-B: {text!r}") from None
    if first > last:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return range(first, last + 1)


def run_seed(seed: int, pytest_args: list[str]) -> list[str]:
    """The failures of one pytest run at `seed`; empty when it passed."""
    with tempfile.TemporaryDirectory(prefix="seed_sweep_") as storage:
        paths = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, HYPOTHESIS_STORAGE_DIRECTORY=storage,
                   PYTHONPATH=os.pathsep.join(paths),
                   COLUMNS="1000")  # summary lines keep their message whole
        proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               f"--hypothesis-seed={seed}", *pytest_args],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return []
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    last = next((line for line in reversed(lines + proc.stderr.splitlines()) if line.strip()),
                "")
    return failed or [f"pytest exited {proc.returncode}: {last}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, required=True, metavar="A-B")
    parser.add_argument("-k", metavar="EXPR", help="pytest's -k: the tests to run")
    parser.add_argument("-j", "--jobs", type=int, default=1, help="seeds run at a time")
    parser.add_argument("paths", nargs="*", metavar="PATH", help="test files or directories")
    args = parser.parse_args(argv)
    pytest_args = (["-k", args.k] if args.k else []) + args.paths
    failing = 0
    with ThreadPoolExecutor(max(1, args.jobs)) as pool:
        for seed, failures in zip(args.seeds, pool.map(lambda s: run_seed(s, pytest_args),
                                                       args.seeds)):
            if failures:
                failing += 1
                print(f"seed {seed}: " + "\n    ".join(failures), flush=True)
    seeds = f"{args.seeds.start}-{args.seeds.stop - 1}"
    print(f"{failing} of {len(args.seeds)} seeds ({seeds}) failed")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
