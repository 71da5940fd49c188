#!/usr/bin/env python3
"""Opcodes and Python calls per campaign run, by code object.

    python tools/opcounts.py BPMN [DMN ...] [-n RUNS] [--parallel]

Compiles the model (`compile_model(..., sample_seed=1)`), runs one
campaign of `FixedBudget(n=RUNS)`, seed 1, untraced, so that lowering,
table compiling and every cache a first run fills are done, then runs
the same campaign again under `sys.settrace` with
`frame.f_trace_opcodes` set. It prints each code object's opcodes and
Python calls per run, by `(co_filename, co_qualname)` (`co_name` before
Python 3.11), the heaviest 25 first, then the totals per run, and last a
JSON line with the totals. A call is a Python frame entered (a
comprehension's frame counts, a C function does not); an opcode is a
bytecode instruction a traced frame runs. Neither depends on the host or
its load, so two runs of one tree print the same numbers; but neither
weighs work done in C, such as `Random.seed`, and the opcodes depend on
the CPython version, which compiles the same code differently. The
tracer makes a campaign about 60 times slower. Stdlib only; run it from
the repository root, or anywhere with `src/` on the path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bproc import CampaignConfig, FixedBudget, compile_model, parse_bpmn, parse_dmn  # noqa: E402
from bproc.verifier import run_campaign  # noqa: E402

#: the campaign seed and the sample seed every count is made with
SEED = SAMPLE_SEED = 1
#: the code objects listed, heaviest first
TOP = 25


def _where(code) -> tuple[str, str]:
    path = code.co_filename
    if path.startswith(str(ROOT) + os.sep):
        path = os.path.relpath(path, ROOT)
    else:
        path = os.path.basename(path)
    return path, getattr(code, "co_qualname", code.co_name)  # Python 3.11 on


def warm_counts(model, cfg: CampaignConfig) -> dict[tuple[str, str], list[int]]:
    """(file, qualified name) -> [opcodes, calls] of a traced
    `run_campaign(model, cfg)`, with no run files, run after an untraced
    one of the same configuration."""
    run_campaign(model, cfg)
    counts: dict[object, list[int]] = {}

    def local(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code][0] += 1
        return local

    def on_call(frame, event, arg):
        if event != "call":
            return None
        tally = counts.get(frame.f_code)
        if tally is None:
            tally = counts[frame.f_code] = [0, 0]
        tally[1] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run_campaign(model, cfg)
    finally:
        sys.settrace(previous)
    by_name: dict[tuple[str, str], list[int]] = {}
    for code, (opcodes, calls) in counts.items():
        tally = by_name.setdefault(_where(code), [0, 0])
        tally[0] += opcodes
        tally[1] += calls
    return by_name


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("bpmn", type=Path)
    parser.add_argument("dmn", type=Path, nargs="*")
    parser.add_argument("-n", "--runs", type=int, default=200, help="runs (default 200)")
    parser.add_argument("--parallel", action="store_true",
                        help="parallel mode (default: sequential)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    tables = [table for path in args.dmn for table in parse_dmn(path.read_bytes())]
    model = compile_model(parse_bpmn(args.bpmn.read_bytes()), tables,
                          sample_seed=SAMPLE_SEED)
    cfg = CampaignConfig(mode=FixedBudget(n=args.runs), seed=SEED,
                         sequential=not args.parallel)
    counts = warm_counts(model, cfg)
    runs = args.runs
    print("| opcodes/run | calls/run | code |\n| ---: | ---: | --- |")
    for (path, name), (opcodes, calls) in sorted(counts.items(),
                                                 key=lambda item: -item[1][0])[:TOP]:
        print(f"| {opcodes / runs:.1f} | {calls / runs:.2f} | {path}:{name} |")
    opcodes = sum(tally[0] for tally in counts.values())
    calls = sum(tally[1] for tally in counts.values())
    print(f"\ntotal per run: {opcodes / runs:.1f} opcodes, {calls / runs:.2f} calls")
    print(json.dumps({"runs": runs, "opcodes": opcodes, "calls": calls}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
