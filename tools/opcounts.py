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
JSON line with the totals.

The counting primitive is `count(fn, *args)`: the opcodes and calls one
call `fn(*args)` makes, by `(co_filename, co_qualname)`, or by code object
with `key=`; `warm_counts`, behind the command, is a `count` of a warm
campaign, and every cost check of the tests is a `count`: the budgets of
`tests/test_opcounts.py` on runs, steps and table calls, and the checks
on how many calls set-up, compiling and a campaign make, which pass
`opcodes=False` to count calls alone, at about the speed of
`sys.setprofile`. A call is a Python frame entered (a comprehension's
frame counts on Python 3.11, which gives it one; a C function does not);
an opcode is a bytecode instruction a traced frame runs. Neither depends
on the host or its load, so two runs of one tree print the same numbers;
but neither weighs work done in C, such as `Random.seed`, and the opcodes
depend on the CPython version, which compiles the same code differently.
The opcode tracer makes a campaign about 60 times slower. Stdlib only;
run it from the repository root, or anywhere with `src/` on the path.
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


def count(fn, *args, key=_where, opcodes: bool = True) -> dict:
    """key(code object) -> [opcodes, calls] of one call `fn(*args)`, made
    under `sys.settrace`: `fn`'s own frame, if it is a Python function, and
    every Python frame it enters. `key` names a code object, by default as
    (file, qualified name); two code objects of one name, such as the
    `__init__` that `dataclasses` generates for each class, share a key,
    so pass `key=lambda code: code` to tell them apart. With `opcodes`
    false no frame traces its opcodes: the calls are counted by the same
    rule, the opcodes stay 0. The tracer in place before the call is put
    back after it."""
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
        if not opcodes:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    by_key: dict = {}
    for code, (ops, calls) in counts.items():
        tally = by_key.setdefault(key(code), [0, 0])
        tally[0] += ops
        tally[1] += calls
    return by_key


def warm_counts(model, cfg: CampaignConfig) -> dict[tuple[str, str], list[int]]:
    """The `count` of `run_campaign(model, cfg)`, with no run files, made
    after an untraced call of the same configuration."""
    run_campaign(model, cfg)
    return count(run_campaign, model, cfg)


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
