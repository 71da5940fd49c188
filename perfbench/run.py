#!/usr/bin/env python3
"""bproc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of shipment_seq, shipment_cli,
diamonds_par, loop_budget (BENCHMARK.json says why each exists), or `all`,
which runs the four in turn, each in its own process. The process pins
itself and its children to one CPU (see pin_to_one_cpu).

--trace 0 measures the workload for S seconds with nothing patched and
prints the end-to-end metrics: each is the median over the repetitions,
each repetition scaled to a reference machine speed by a fixed kernel of
the benchmark's own timed just before, during and after it (see speed.py).
--trace 1 is the separate traced run: it wraps the public entry points of
every bproc module (see tracing.py), traces one repetition of each of the
four workloads, runs the scaling and import probes, and prints the
per-layer metrics. Each layer metric is taken from the workload it is meant
to move (LAYER_METRICS below); trace.overhead is the named workload's.

Every repetition is checked for correctness outside its timed region. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the exit code is 1 when a check failed.
Details (machine, every repetition, spreads, per-workload layer tables) go
to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bproc  # noqa: E402
from bproc import bpmn, compiler, runtime  # noqa: E402

if Path(bproc.__file__).resolve().parent != ROOT / "src" / "bproc":
    raise SystemExit(f"bproc must come from {ROOT / 'src'}, not {bproc.__file__}")

import models  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
MIN_REPS = 5
SETUP_SHARE = 0.15
END_TO_END = (("setup_s", "s"), ("runs_per_s", "1/s"), ("steps_per_s", "1/s"),
              ("wall_s", "s"), ("peak_rss_mb", "MB"))

# name, unit, the workload whose traced repetition it is read from (None:
# from the probes or the named workload), how it is read.
LAYER_METRICS = (
    ("bpmn.parse_s", "s", "diamonds_par", lambda t: t.spans["bpmn.parse"].busy),
    ("bpmn.parse_exp", "exponent", None, None),
    ("bpmn.nodes", "count", "diamonds_par", lambda t: t.model_nodes),
    ("compiler.compile_s", "s", "diamonds_par", lambda t: t.spans["compiler.compile"].self_time),
    ("compiler.compile_exp", "exponent", None, None),
    ("compiler.steps", "count", "diamonds_par", lambda t: t.ir_steps),
    ("inputs.infer_s", "s", "diamonds_par", lambda t: t.spans["inputs.infer"].busy),
    ("inputs.sample_calls", "count", "shipment_seq", lambda t: t.spans["inputs.sample"].calls),
    ("inputs.sample_s", "s", "shipment_seq", lambda t: t.spans["inputs.sample"].busy),
    ("dmn.parse_s", "s", "shipment_seq", lambda t: t.spans["dmn.parse"].busy),
    ("dmn.eval_calls", "count", "shipment_seq", lambda t: t.spans["dmn.eval"].calls),
    ("dmn.eval_self_s", "s", "shipment_seq", lambda t: t.spans["dmn.eval"].self_time),
    ("feel.eval_calls", "count", "shipment_seq", lambda t: t.spans["feel.eval"].calls),
    ("feel.eval_s", "s", "shipment_seq", lambda t: t.spans["feel.eval"].busy),
    ("feel.match_calls", "count", "shipment_seq", lambda t: t.spans["feel.match"].calls),
    ("feel.match_s", "s", "shipment_seq", lambda t: t.spans["feel.match"].busy),
    ("runtime.run_calls", "count", "shipment_seq", lambda t: t.spans["runtime.run"].calls),
    ("runtime.run_self_s", "s", "shipment_seq", lambda t: t.spans["runtime.run"].self_time),
    ("runtime.run_p50_us", "us", "shipment_seq", lambda t: _quantile_us(t.run_durations, 50)),
    ("runtime.run_p99_us", "us", "shipment_seq", lambda t: _quantile_us(t.run_durations, 99)),
    ("runtime.threads_started", "count", "diamonds_par", lambda t: t.threads_started),
    ("runtime.trace_records", "count", "loop_budget", lambda t: t.trace_records),
    ("runtime.write_s", "s", "shipment_cli", lambda t: t.spans["runtime.write"].busy),
    ("runtime.files_written", "count", "shipment_cli", lambda t: len(t.written_paths)),
    ("runtime.bytes_written", "bytes", "shipment_cli", lambda t: t.bytes_written),
    ("verifier.draw_s", "s", "shipment_seq", lambda t: t.spans["verifier.draw"].busy),
    ("verifier.merge_calls", "count", "shipment_seq", lambda t: t.spans["verifier.merge"].calls),
    ("verifier.merge_s", "s", "shipment_seq", lambda t: t.spans["verifier.merge"].busy),
    ("verifier.campaign_self_s", "s", "shipment_seq",
     lambda t: t.spans["verifier.campaign"].self_time),
    ("cli.import_s", "s", None, None),
    ("cli.main_self_s", "s", "shipment_cli", lambda t: t.spans["cli.main"].self_time),
    ("trace.overhead", "ratio", None, None),
)

SCALING_SIZES = {"diamonds": (50, 200), "chain": (250, 1000)}


def _quantile_us(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e6
    return statistics.quantiles(values, n=100)[pct - 1] * 1e6


def iqr_share(values: list[float]) -> float | None:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def pin_to_one_cpu() -> int:
    """Run this process, its threads and its children on one CPU. On a
    shared 2-vCPU host, hand-offs between threads on different vCPUs made
    parallel-mode throughput swing twofold over minutes; on one CPU it is
    steadier. The thread costs are still paid, minus cross-CPU wake-ups."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "loadavg_at_start": os.getloadavg()}


def benchmark_spec() -> dict | None:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.exists() else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


class Ledger:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def run(self, what: str, op, check=None):
        """Run op(); check(result) returns failures. None if op raised."""
        self.attempted += 1
        try:
            result = op()
            problems = check(result) if check else []
        except Exception as exc:  # a failing operation is data, not a crash
            result, problems = None, [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.messages.extend(f"{what}: {p}" for p in problems[:3])
        return result

    def record(self, what: str, problems: list[str]):
        self.run(what, lambda: None, lambda _: problems)


def measure(workload: workloads.Workload, seconds: float, ledger: Ledger) -> tuple:
    """Repetitions for `seconds`. The speed kernel is timed just before a
    repetition, between its set-up and its work, and just after it, and
    each part is scaled by the kernel times on either side of it. Where
    set-up is cheap, set-ups timed on their own fill SETUP_SHARE of the
    time, after the work. Returns each repetition's values scaled, as
    measured, and the kernel times."""
    scaled: dict[str, list[float]] = {metric: [] for metric, _ in END_TO_END}
    measured: dict[str, list[float]] = {metric: [] for metric, _ in END_TO_END}
    kernel_s: list[float] = []
    child_rss: list[float] = []

    def timed_setup():
        t0 = time.perf_counter()
        workload.setup()
        return time.perf_counter() - t0

    def timed_kernel():
        times = speed.time_kernel()
        kernel_s.extend(times)
        return times

    ledger.run("warm-up", workload.rep, workload.check)
    # the harness's own objects (reference results, oracle) would otherwise
    # make every full collection inside the program's work slower
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    setup_spent = 0.0
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > 3 * seconds:
            break  # repetitions keep failing
        gc.collect()
        before, middle = timed_kernel(), []
        rep = ledger.run("repetition", lambda: workload.rep(
            lambda: middle.extend(timed_kernel())), workload.check)
        setups = []
        while workload.cheap_setup and \
                setup_spent < SETUP_SHARE * (time.perf_counter() - start):
            elapsed = ledger.run("set-up", timed_setup)
            if elapsed is None:
                break
            setups.append(elapsed)
            setup_spent += elapsed
        after = timed_kernel()
        if rep is None:
            continue
        rep.output = None
        reps += 1
        if rep.peak_rss_mb is not None:
            child_rss.append(rep.peak_rss_mb)
        # a repetition without set-up calls no `between`: its work spans all
        work = speed.at_reference_speed(rep.timed_s, middle or before, after)
        setups_scaled = [speed.at_reference_speed(t, middle or before, after)
                         for t in setups]
        setup = 0.0
        if rep.setup_s is not None:
            setup = speed.at_reference_speed(rep.setup_s, before, middle)
            setups.append(rep.setup_s)
            setups_scaled.append(setup)
        if setups:
            measured["setup_s"].append(statistics.fmean(setups))
            scaled["setup_s"].append(statistics.fmean(setups_scaled))
        for metric, value, value_scaled in (
                ("runs_per_s", rep.runs / rep.timed_s, rep.runs / work),
                ("steps_per_s", rep.steps / rep.timed_s, rep.steps / work),
                ("wall_s", rep.wall_s, setup + work)):
            measured[metric].append(value)
            scaled[metric].append(value_scaled)
    scaled["peak_rss_mb"] = measured["peak_rss_mb"] = child_rss or [peak_rss_mb()]
    return scaled, measured, kernel_s


def untraced(name: str, seed: int, seconds: float, ledger: Ledger, spec: dict | None):
    workload = workloads.make(name, seed, WORK_DIR)
    ledger.record("reference", workload.reference_failures)
    try:
        scaled, measured, kernel_s = measure(workload, seconds, ledger)
    finally:
        workload.close()
    bounds = {m["name"]: m.get("bound") for m in (spec or {}).get("end_to_end", [])}
    metrics, details = {}, {"kernel_s": kernel_s}
    for metric, unit in END_TO_END:
        values, raw = scaled[metric], measured[metric]
        value = statistics.median(values) if values else float("nan")
        as_measured = statistics.median(raw) if raw else float("nan")
        spread = iqr_share(values)
        metrics[metric] = {"value": value, "unit": unit}
        details[metric] = {"value": value, "unit": unit, "samples": values,
                           "iqr_share": spread, "bound": bounds.get(metric),
                           "as_measured": as_measured, "samples_as_measured": raw}
        shown = "-" if spread is None else f"{spread:.3f}"
        print(f"{metric:12s} {value:14.6g} {unit:4s}  n={len(values):<4d} "
              f"iqr/median={shown} bound={bounds.get(metric)}  as measured "
              f"{as_measured:.6g}")
    print(f"speed kernel {statistics.median(kernel_s) * 1e3:.3f} ms median of "
          f"{len(kernel_s)} (reference {speed.REFERENCE_S * 1e3:.3f} ms), "
          f"iqr/median {iqr_share(kernel_s) or 0:.3f}")
    return metrics, details


# --- traced run --------------------------------------------------------------

def scaling_probe(seed: int, ledger: Ledger) -> dict:
    """Parse and compile each generated shape at two sizes; fit t ~ nodes^k."""
    oracles = workloads._load_oracle()
    result = {}
    for shape, sizes in SCALING_SIZES.items():
        points = []
        for size in sizes:
            xml = models.diamonds(size, seed).xml if shape == "diamonds" \
                else models.chain(size, seed)
            parse_times, compile_times = [], []
            for _ in range(3):
                t0 = time.perf_counter()
                model = bpmn.parse_bpmn(xml)
                t1 = time.perf_counter()
                executable = compiler.compile_model(model, [], sample_seed=seed)
                compile_times.append(time.perf_counter() - t1)
                parse_times.append(t1 - t0)
            points.append({"size": size, "nodes": len(model.nodes),
                           "parse_s": statistics.median(parse_times),
                           "compile_s": statistics.median(compile_times)})
        if shape == "chain":  # parallel-free, so the oracle can walk it
            ledger.run("chain vs walk_process",
                       lambda: runtime.run_once(executable, {},
                                                runtime.RunOptions(mode="sequential")),
                       lambda result: _walk_differs(oracles, model, result))
        small, large = points
        ratio = math.log(large["nodes"] / small["nodes"])
        result[shape] = {
            "points": points,
            "parse_exp": math.log(large["parse_s"] / small["parse_s"]) / ratio,
            "compile_exp": math.log(large["compile_s"] / small["compile_s"]) / ratio,
        }
    return result


def _walk_differs(oracles, model, result) -> list[str]:
    trace, summary = result
    walked = oracles.walk_process(model, [], {})
    same = (trace.node_sequence(), trace.writes(), (summary.status, summary.code)) == \
        (walked.nodes, walked.writes, walked.outcome)
    return [] if same else ["run differs from walk_process"]


def import_probe() -> float:
    """Median time of `import bproc` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import bproc; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                                  capture_output=True, text=True, check=True,
                                  timeout=60).stdout)
             for _ in range(3)]
    return statistics.median(times)


def traced_workload(name: str, seed: int, ledger: Ledger) -> dict:
    """An untraced, a traced and another untraced repetition. The CLI
    workload runs cli.main in-process on all three, so that the ratio
    compares like with like."""
    workload = workloads.make(name, seed, WORK_DIR)
    ledger.record(f"{name} reference", workload.reference_failures)
    rep = workload.rep_in_process if name == "shipment_cli" else workload.rep
    tracer = tracing.Tracer()
    try:
        gc.collect()
        before = ledger.run(f"{name} untraced", rep, workload.check)
        gc.collect()

        def traced_rep():  # the checks run after, untraced
            with tracer.installed():
                return rep()

        traced = ledger.run(f"{name} traced", traced_rep, workload.check)
        tracer.bytes_written = sum(os.path.getsize(p) for p in tracer.written_paths)
        gc.collect()
        after = ledger.run(f"{name} untraced", rep, workload.check)
    finally:
        workload.close()
    nan = float("nan")
    walls = [r.wall_s if r else nan for r in (before, after)]
    traced_wall = traced.wall_s if traced else nan
    return {"table": {metric: extract(tracer) for metric, _, _, extract in LAYER_METRICS
                      if extract},
            "traced_wall_s": traced_wall, "untraced_wall_s": walls,
            "overhead": traced_wall / statistics.fmean(walls),
            "self_time_sum_s": tracer.self_total(),
            "spans": {k: vars_of(s) for k, s in tracer.spans.items()}}


def vars_of(span) -> dict:
    return {"calls": span.calls, "busy_s": span.busy, "self_s": span.self_time}


def traced_run(name: str, seed: int, ledger: Ledger) -> tuple[dict, dict]:
    per_workload = {w: traced_workload(w, seed, ledger) for w in workloads.NAMES}
    scaling = scaling_probe(seed, ledger)
    import_s = ledger.run("import probe", import_probe)
    metrics = {}
    for metric, unit, home, _ in LAYER_METRICS:
        if home:
            value = per_workload[home]["table"][metric]
        elif metric == "bpmn.parse_exp":
            value = scaling["diamonds"]["parse_exp"]
        elif metric == "compiler.compile_exp":
            value = scaling["diamonds"]["compile_exp"]
        elif metric == "cli.import_s":
            value = import_s if import_s is not None else float("nan")
        else:
            value = per_workload[name]["overhead"]
        metrics[metric] = {"value": value, "unit": unit}

    print(f"{'layer metric':26s}" + "".join(f"{w:>15s}" for w in workloads.NAMES))
    for metric, unit, home, extract in LAYER_METRICS:
        if extract:
            print(f"{metric:26s}" + "".join(f"{per_workload[w]['table'][metric]:15.6g}"
                                            for w in workloads.NAMES) + f"  {unit} <- {home}")
    for w in workloads.NAMES:
        info = per_workload[w]
        print(f"{w}: traced wall {info['traced_wall_s']:.4f} s, untraced "
              f"{statistics.fmean(info['untraced_wall_s']):.4f} s, overhead "
              f"{info['overhead']:.3f}, self-time sum {info['self_time_sum_s']:.4f} s")
    for shape, fit in scaling.items():
        print(f"scaling {shape}: parse_exp {fit['parse_exp']:.3f} compile_exp "
              f"{fit['compile_exp']:.3f} " + " ".join(
                  f"[{p['nodes']} nodes: parse {p['parse_s']:.4f} s compile "
                  f"{p['compile_s']:.4f} s]" for p in fit["points"]))
    print(f"cli.import_s {metrics['cli.import_s']['value']:.4f} s")
    return metrics, {"workloads": per_workload, "scaling": scaling, "import_s": import_s}


# --- entry point -------------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process); the last
    line merges their results, with metric names prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    codes = []
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})", *lines[:-1], proc.stderr.strip(),
              sep="\n", flush=True)
        codes.append(proc.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    spec = benchmark_spec()
    info = machine()
    info["pinned_cpu"] = pin_to_one_cpu()
    print(f"machine: nproc={info['nproc']} pinned to cpu {info['pinned_cpu']} "
          f"python={info['python']} loadavg={info['loadavg_at_start']}")
    ledger = Ledger()
    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, details = traced_run(args.workload, args.seed, ledger)
            wanted = [m["name"] for m in (spec or {}).get("per_layer", [])]
            kind = "trace"
        else:
            metrics, details = untraced(args.workload, args.seed, args.seconds, ledger, spec)
            wanted = [m["name"] for m in (spec or {}).get("end_to_end", [])]
            kind = "results"
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    if spec is not None and sorted(wanted) != sorted(metrics):
        raise SystemExit(f"BENCHMARK.json lists {sorted(wanted)}, the run measures "
                         f"{sorted(metrics)}")

    correct = ledger.failed == 0
    print(f"failed_share {ledger.failed / max(ledger.attempted, 1):.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    for message in ledger.messages[:20]:
        print(f"FAILED {message}")
    (OUT_DIR / f"{kind}_{args.workload}_seed{args.seed}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": info, "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed, "failures": ledger.messages, "metrics": details,
    }, indent=1))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
