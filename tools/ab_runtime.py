#!/usr/bin/env python3
"""Paired A/B timing of two versions of `src/bproc/runtime.py` in one process.

    python tools/ab_runtime.py --base REV [--pairs N]

Loads REV's `src/bproc/runtime.py` (read with `git show`) as a second
module of the `bproc` package, next to the working tree's `bproc.runtime`,
and binds a second copy of the working tree's `verifier` to it; every other
module is shared. It measures only changes confined to `runtime.py`: a
change anywhere else is on both sides, and REV's `runtime.py` must offer
what the working tree's other modules call and lower the routines the
working tree's compiler emits. A REV whose runtime does not is reported
in one line, with exit status 2.

1. Checks that both sides give the same trace records, run summaries and
   campaign verdicts (timing fields aside) on the bundled fixtures, in both
   modes, and stops if they differ.
2. A null pass (A/A): the working tree's runtime against a second copy of
   itself, loaded the same way. Its ratios show what "no change" reads on
   this machine now.
3. The A/B pass: REV against the working tree.

Each pass alternates timed runs of three workloads, the side that goes
first alternating from pair to pair:

  loop      one traced sequential run of fixtures/loop.bpmn, ended by a
            200,000-step budget (the model lowered beforehand)
  diamonds  perfbench.models.diamonds(300, 7), parsed and compiled untimed
            for every run, then a 12-run parallel error-seeking campaign:
            the first run's lowering is timed
  shipment  a 2,000-run sequential fixed-budget campaign on
            fixtures/shipment.bpmn without run files

and prints, per workload: each side's minimum and median time, the median
of the per-pair ratios (second side over first) and the pairs the second
side was faster in. Standard library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bproc import bpmn, compiler, dmn, runtime  # noqa: E402

import models  # noqa: E402  (perfbench/models.py)

FIXTURES = ROOT / "fixtures"
LOOP_STEPS = 200_000
DIAMONDS, DIAMONDS_SEED, DIAMONDS_RUNS = 300, 7, 12
SHIPMENT_RUNS = 2000
CHECK_SEEDS = range(20)


def load(name: str, source: str, **attrs):
    """`source` executed as module `bproc.<name>`, with `attrs` set after."""
    spec = importlib.util.spec_from_loader(f"bproc.{name}", loader=None)
    module = importlib.util.module_from_spec(spec)
    module.__package__ = "bproc"
    sys.modules[spec.name] = module  # dataclasses look their module up
    exec(compile(source, f"<{spec.name}>", "exec"), module.__dict__)
    module.__dict__.update(attrs)
    return module


class Side:
    """One runtime with its own verifier; models are compiled per side,
    since a model keeps the program its first run lowered."""

    def __init__(self, key: str, label: str, rt):
        self.label, self.runtime = label, rt
        verifier_source = (ROOT / "src/bproc/verifier.py").read_text()
        self.verifier = load(f"_ab_verifier_{key}", verifier_source, runtime=rt)
        self.loop = fixture("loop")
        self.shipment = fixture("shipment", "shipment")
        self.diamonds_xml = models.diamonds(DIAMONDS, DIAMONDS_SEED).xml

    def run_loop(self, max_steps=LOOP_STEPS, mode="sequential"):
        options = self.runtime.RunOptions(mode=mode, timeout_s=60.0, seed=0,
                                          max_steps=max_steps)
        return self.runtime.run_once(self.loop, {}, options)

    def fresh_diamonds(self):
        return compiler.compile_model(bpmn.parse_bpmn(self.diamonds_xml), [],
                                      sample_seed=DIAMONDS_SEED)

    def run_diamonds(self, model):
        v = self.verifier
        cfg = v.CampaignConfig(mode=v.ErrorSeek(n=DIAMONDS_RUNS), seed=DIAMONDS_SEED)
        return v.run_campaign(model, cfg)

    def run_shipment(self, sequential=True):
        v = self.verifier
        cfg = v.CampaignConfig(mode=v.FixedBudget(n=SHIPMENT_RUNS), seed=42,
                               sequential=sequential)
        return v.run_campaign(self.shipment, cfg)


def fixture(name: str, *dmn_names: str):
    tables = [t for d in dmn_names for t in dmn.parse_dmn((FIXTURES / f"{d}.dmn").read_bytes())]
    return compiler.compile_model(bpmn.parse_bpmn((FIXTURES / f"{name}.bpmn").read_bytes()),
                                  tables, sample_seed=42)


def outcome(trace, summary) -> tuple:
    """A run's records and summary, comparable across the two modules."""
    records = None if trace is None else [repr(r) for r in trace.records]
    return records, summary.status, summary.code, summary.message, summary.diagnostics


def verdict_fields(verdict) -> str:
    verdict.mean_run_ms = verdict.stddev_run_ms = 0.0
    return verdict.to_json()


def observations(side: Side) -> list:
    """What the two sides must agree on."""
    rt, seen = side.runtime, []
    seen.append(outcome(*side.run_loop(max_steps=2000)))
    names = [("shipment", ("shipment",)), ("discount", ("discount",)), ("triage", ()),
             ("quote", ()), ("onboarding", ()), ("pingpong", ()), ("pingpong_sendfirst", ())]
    for name, dmns in names:
        model = fixture(name, *dmns)
        for mode in ("sequential", "parallel"):
            for seed in CHECK_SEEDS:
                lists = {s.name: [s.sample] for s in model.input_vars}
                options = rt.RunOptions(mode=mode, seed=seed, max_steps=5000)
                seen.append(outcome(*rt.run_once(model, lists, options)))
    seen.append(verdict_fields(side.run_diamonds(side.fresh_diamonds())))
    seen.append(verdict_fields(side.run_shipment(sequential=True)))
    seen.append(verdict_fields(side.run_shipment(sequential=False)))
    return seen


def timed(fn, *args) -> float:
    gc.collect()
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def workloads(side: Side):
    """(name, function of no arguments returning its time in seconds)."""
    def diamonds():
        model = side.fresh_diamonds()  # untimed: parse and compile
        return timed(side.run_diamonds, model)
    return [("loop", lambda: timed(side.run_loop)),
            ("diamonds", diamonds),
            ("shipment", lambda: timed(side.run_shipment))]


def compare(title: str, a: Side, b: Side, pairs: int):
    print(f"{title}: A = {a.label}, B = {b.label}, {pairs} pairs")
    times = {}
    for (name, run_a), (_, run_b) in zip(workloads(a), workloads(b)):
        run_a(), run_b()  # warm-up: lowering, caches
        ta, tb = [], []
        for k in range(pairs):
            if k % 2:
                tb.append(run_b())
                ta.append(run_a())
            else:
                ta.append(run_a())
                tb.append(run_b())
        times[name] = ta, tb
    for name, (ta, tb) in times.items():
        ratios = [y / x for x, y in zip(ta, tb)]
        won = sum(r < 1 for r in ratios)
        print(f"  {name:9} A min {min(ta) * 1e3:8.2f} ms  med {statistics.median(ta) * 1e3:8.2f}"
              f" | B min {min(tb) * 1e3:8.2f} ms  med {statistics.median(tb) * 1e3:8.2f}"
              f" | B/A median {statistics.median(ratios):.3f}  B faster {won}/{pairs}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs per workload")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    shown = subprocess.run(["git", "show", f"{args.base}:src/bproc/runtime.py"],
                           cwd=ROOT, capture_output=True, text=True)
    if shown.returncode:
        parser.error(f"no src/bproc/runtime.py at {args.base}: {shown.stderr.strip()}")
    try:
        base = Side("base", args.base, load("_ab_runtime_base", shown.stdout))
        base_seen = observations(base)
    except Exception as exc:
        print(f"{args.base} cannot be compared in process: its runtime.py does not load or "
              f"run next to the working tree's modules ({type(exc).__name__}: {exc})",
              file=sys.stderr)
        return 2
    head_source = Path(runtime.__file__).read_text()
    head = Side("head", "working tree", runtime)
    copy = Side("copy", "working tree (copy)", load("_ab_runtime_copy", head_source))
    if base_seen != observations(head):
        print("the two runtimes give different records or verdicts; no timing", file=sys.stderr)
        return 1
    print("records and verdicts: identical")
    compare("null pass (A/A)", copy, head, args.pairs)
    compare("A/B", base, head, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
