"""The four workloads. Each drives bproc through its public modules and CLI.

A workload is built from its seed (untimed: inputs, the independent
reference results), then measured repetition by repetition. `setup` is one
timed set-up (model bytes in memory -> ExecutableModel), `rep` one
repetition (a timed set-up, then the timed `work`), and `check` the
correctness checks on a repetition's output, which run outside the timed
region and return a list of failures.

Every call into bproc goes through a module attribute (`bpmn.parse_bpmn`,
`verifier.run_campaign`, ...) so that the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bproc import bpmn, cli, compiler, dmn, runtime, verifier

import models

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
VERDICT_KEYS = {"result", "reason", "c_n", "c_e", "runs", "mean_run_ms",
                "stddev_run_ms", "failing_trace"}
# criterion 3 of the acceptance suite
SHIPMENT_MIN_CN, SHIPMENT_MIN_CE = 70.0, 65.0
LONG_TIMEOUT_S = 60.0
# `python -m bproc` that reports its own peak RSS on stderr at exit. The
# rusage of a child also counts the pages of the process it was forked
# from; VmHWM starts afresh at exec.
CLI_MAIN = """import runpy, sys
sys.argv[0] = "bproc"
try:
    runpy.run_module("bproc", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        print(next(line for line in fh if line.startswith("VmHWM:")), file=sys.stderr)
"""


def _load_oracle():
    """tests/oracles.py: an interpreter independent of the compiled routines."""
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles
    finally:
        sys.path.remove(str(ROOT / "tests"))
    return oracles


def campaign_draws(model, campaign_seed: int, index: int) -> dict[str, list]:
    """The input lists run `index` of a campaign draws; this mirrors the
    per-run seeding in verifier.run_campaign, and the coverage checks below
    fail if the two ever diverge."""
    return verifier.draw_input_lists(model.input_vars, {},
                                     random.Random(campaign_seed * 1_000_003 + index))


@dataclass
class Rep:
    timed_s: float  # the part runs_per_s and steps_per_s are taken over
    runs: int
    steps: int
    setup_s: float | None = None
    output: object = None
    peak_rss_mb: float | None = None  # set where the work runs in a child

    @property
    def wall_s(self) -> float:
        return (self.setup_s or 0.0) + self.timed_s


@dataclass
class Reference:
    """Sequential replay of a campaign's runs, one by one."""
    nodes: set = field(default_factory=set)
    edges: set = field(default_factory=set)
    steps: int = 0
    runs: list = field(default_factory=list)  # (node path, status, code) per run
    failures: list = field(default_factory=list)


class Workload:
    cheap_setup = True  # also time set-ups on their own, between repetitions
    reference_failures: list[str] = []

    runs: int
    steps: int

    def setup(self):
        raise NotImplementedError

    def work(self, model):
        """The timed work on a set-up model; returns what `check` checks."""
        raise NotImplementedError

    def rep(self, between=lambda: None) -> Rep:
        """A timed set-up, then `between` (not timed), then the timed work."""
        t0 = time.perf_counter()
        model = self.setup()
        t1 = time.perf_counter()
        between()
        t2 = time.perf_counter()
        output = self.work(model)
        t3 = time.perf_counter()
        return Rep(t3 - t2, self.runs, self.steps, t1 - t0, output)

    def check(self, rep: Rep) -> list[str]:
        raise NotImplementedError

    def close(self):
        pass


class _Shipment(Workload):
    runs = 0

    def __init__(self, seed: int):
        self.seed = seed
        self.bpmn_bytes = (FIXTURES / "shipment.bpmn").read_bytes()
        self.dmn_bytes = (FIXTURES / "shipment.dmn").read_bytes()
        self.model = self.setup()
        self.ref = self._reference()
        self.steps = self.ref.steps
        self.reference_failures = self.ref.failures

    def setup(self):
        model = bpmn.parse_bpmn(self.bpmn_bytes)
        tables = dmn.parse_dmn(self.dmn_bytes)
        return compiler.compile_model(model, tables, sample_seed=self.seed)

    def _reference(self) -> Reference:
        oracles = _load_oracle()
        parsed = bpmn.parse_bpmn(self.bpmn_bytes)
        tables = dmn.parse_dmn(self.dmn_bytes)
        sample = set(random.Random(self.seed).sample(range(self.runs), 50))
        ref = Reference()
        for k in range(self.runs):
            lists = campaign_draws(self.model, self.seed, k)
            trace, summary = runtime.run_once(self.model, lists,
                                              runtime.RunOptions(mode="sequential", seed=k))
            path = trace.node_sequence()
            ref.nodes.update(path)
            ref.edges.update(trace.edges())
            ref.steps += len(path)
            if summary.status not in ("success", "error"):
                ref.failures.append(f"run {k}: unexpected {summary.code} ({summary.message})")
            ref.runs.append((path, summary.status, summary.code))
            if k in sample:
                walked = oracles.walk_process(parsed, tables,
                                              {name: values[0] for name, values in lists.items()})
                if (path, trace.writes(), (summary.status, summary.code)) != (
                        walked.nodes, walked.writes, walked.outcome):
                    ref.failures.append(f"run {k}: path differs from walk_process")
        return ref

    def _check_coverage(self, c_n: float, c_e: float, runs: int) -> list[str]:
        graph = self.model.graph
        failures = []
        if runs != self.runs:
            failures.append(f"runs {runs} != {self.runs}")
        expected_cn = 100.0 * len(self.ref.nodes) / len(graph.nodes)
        expected_ce = 100.0 * len(self.ref.edges) / len(graph.edges)
        if abs(c_n - expected_cn) > 1e-3 or abs(c_e - expected_ce) > 1e-3:
            failures.append(f"coverage {c_n:.3f}/{c_e:.3f} != replay "
                            f"{expected_cn:.3f}/{expected_ce:.3f}")
        if c_n < SHIPMENT_MIN_CN or c_e < SHIPMENT_MIN_CE:
            failures.append(f"coverage {c_n:.1f}/{c_e:.1f} below the criterion-3 band")
        return failures


class ShipmentSeq(_Shipment):
    """Library campaign, FixedBudget, sequential, no out_dir."""
    runs = 2000

    def work(self, model):
        cfg = verifier.CampaignConfig(mode=verifier.FixedBudget(n=self.runs),
                                      seed=self.seed, sequential=True)
        return verifier.run_campaign(model, cfg)

    def check(self, rep: Rep) -> list[str]:
        verdict = rep.output
        cov = verdict.coverage
        failures = self._check_coverage(cov.c_n, cov.c_e, cov.runs_executed)
        if verdict.result != "PASS":
            failures.append(f"verdict {verdict.result}: {verdict.reason}")
        if set(cov.visited_nodes) != self.ref.nodes or set(cov.visited_edges) != self.ref.edges:
            failures.append("visited nodes/edges differ from the sequential replay")
        return failures


class ShipmentCli(_Shipment):
    """`python -m bproc test` as a child process, default (threaded) mode,
    per-run artifacts written."""
    runs = 500

    def __init__(self, seed: int, work_dir: Path):
        super().__init__(seed)
        self.work_dir = work_dir
        self.out_dir = work_dir / "cli_out"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def argv(self) -> list[str]:
        return ["test", str(FIXTURES / "shipment.bpmn"), str(FIXTURES / "shipment.dmn"),
                "-n", str(self.runs), "--seed", str(self.seed), "--out", str(self.out_dir)]

    def rep(self, between=None) -> Rep:
        """One child process; it has no set-up of its own to time."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *self.argv()], cwd=ROOT,
                              env=self.env, capture_output=True, text=True, timeout=120)
        wall = time.perf_counter() - t0
        rep = Rep(wall, self.runs, self.steps, None, proc)
        hwm = [line.split() for line in proc.stderr.splitlines() if line.startswith("VmHWM:")]
        if hwm:
            rep.peak_rss_mb = int(hwm[-1][1]) / 1024.0  # kB
        return rep

    def rep_in_process(self) -> Rep:
        """The same command through cli.main, for the traced run."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):  # keep the result line last
            t0 = time.perf_counter()
            code = cli.main(self.argv())
            wall = time.perf_counter() - t0
        return Rep(wall, self.runs, self.steps, None, code)

    def check(self, rep: Rep) -> list[str]:
        if isinstance(rep.output, int):
            code, detail = rep.output, ""
        else:
            code, detail = rep.output.returncode, rep.output.stderr.strip()[-300:]
            if rep.peak_rss_mb is None:
                return [f"the child reported no peak RSS {detail}"]
        if code != 0:
            return [f"exit code {code} {detail}"]
        try:
            payload = json.loads((self.out_dir / "verdict.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"verdict.json unreadable: {exc}"]
        if set(payload) != VERDICT_KEYS:
            return [f"verdict.json keys {sorted(payload)}"]
        failures = self._check_coverage(payload["c_n"], payload["c_e"], payload["runs"])
        if payload["result"] != "PASS":
            failures.append(f"verdict {payload['result']}: {payload['reason']}")
        expected = {f"run_{k}{suffix}" for k in range(self.runs) for suffix in (".trace", ".out")}
        if set(os.listdir(self.out_dir / "runs")) != expected:
            failures.append(f"runs/ does not hold exactly the {2 * self.runs} run files")
            return failures
        for k, (path, status, end_code) in enumerate(self.ref.runs):
            lines = (self.out_dir / "runs" / f"run_{k}.trace").read_text().splitlines()
            nodes = [line.split()[1] for line in lines if line.startswith("node ")]
            summary = (self.out_dir / "runs" / f"run_{k}.out").read_text().splitlines()
            if nodes != path or f"status: {status}" not in summary \
                    or f"code: {end_code}" not in summary:
                failures.append(f"runs/run_{k} differs from the replay")
        return failures

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)


class DiamondsPar(Workload):
    """A generated fork/join model, parsed and compiled in every repetition,
    then a campaign in the default parallel mode. Every run of the model
    ends in success, so the error-seeking rule runs the whole budget unless
    a run faults or times out."""
    cheap_setup = False  # every repetition sets up
    diamonds = 300
    runs = 12
    early_exits = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.shape = models.diamonds(self.diamonds, seed)
        self.xml = self.shape.xml
        self.model = self.setup()
        self.campaign_seed, self.xs = self._pick_campaign_seed(self.model)
        self.steps = sum(len(self.shape.expected_path(x)) for x in self.xs)
        self.reference_failures = self._reference(self.model)
        self.checked = -1  # the last run _check_parallel_run replayed

    def _pick_campaign_seed(self, model) -> tuple[int, list[int]]:
        """The first campaign seed derived from the workload seed whose runs
        hold exactly `early_exits` early exits, so that every seed measures
        the same mix of short and long runs."""
        for offset in range(1000):
            campaign_seed = self.seed * 1000 + offset
            xs = [campaign_draws(model, campaign_seed, k)["x"][0] for k in range(self.runs)]
            if sum(self.shape.exits_early(x) for x in xs) == self.early_exits:
                return campaign_seed, xs
        raise RuntimeError("no campaign seed gives the wanted mix")

    def _reference(self, model) -> list[str]:
        oracles = _load_oracle()
        parsed = bpmn.parse_bpmn(self.xml)
        failures = []
        for k, x in enumerate(self.xs):
            trace, summary = runtime.run_once(model, {"x": [x]},
                                              runtime.RunOptions(mode="sequential", seed=k))
            path = trace.node_sequence()
            if path != self.shape.expected_path(x) or summary.status != "success":
                failures.append(f"run {k}: sequential path differs from the generator's")
            last = self.shape.expected_last_write(x)
            if last is not None and trace.writes()[-1] != last:
                failures.append(f"run {k}: last write {trace.writes()[-1]} != {last}")
            if self.shape.exits_early(x):  # walk_process cannot walk forks
                if oracles.walk_process(parsed, [], {"x": x}).nodes != path:
                    failures.append(f"run {k}: path differs from walk_process")
        return failures

    def setup(self):
        return compiler.compile_model(bpmn.parse_bpmn(self.xml), [], sample_seed=self.seed)

    def work(self, model):
        cfg = verifier.CampaignConfig(mode=verifier.ErrorSeek(n=self.runs),
                                      seed=self.campaign_seed)
        return verifier.run_campaign(model, cfg)

    def check(self, rep: Rep) -> list[str]:
        verdict = rep.output
        cov = verdict.coverage
        failures = []
        if verdict.result != "PASS" or cov.runs_executed != self.runs:
            failures.append(f"{verdict.result} after {cov.runs_executed} runs: {verdict.reason}")
        if cov.c_n != 100.0 or cov.c_e != 100.0:  # the mix holds both kinds of run
            failures.append(f"coverage {cov.c_n:.3f}/{cov.c_e:.3f}, expected 100/100")
        return failures + self._check_parallel_run()

    def _check_parallel_run(self) -> list[str]:
        """One of the campaign's runs again in parallel mode, in turn: the
        campaign does not show a run's trace or values."""
        self.checked = (self.checked + 1) % self.runs
        k, x = self.checked, self.xs[self.checked]
        trace, summary = runtime.run_once(self.model, {"x": [x]}, runtime.RunOptions(seed=k))
        last = self.shape.expected_last_write(x)
        if summary.status != "success" \
                or sorted(trace.node_sequence()) != sorted(self.shape.expected_path(x)) \
                or (last is not None and dict(trace.writes()).get(last[0]) != last[1]):
            return [f"parallel run {k} ({summary.code}) differs from the generator's"]
        return []


class LoopBudget(Workload):
    """One long sequential run of fixtures/loop.bpmn, ended by the step budget."""
    runs = 1
    base_steps = 200_000

    def __init__(self, seed: int):
        self.seed = seed
        self.bpmn_bytes = (FIXTURES / "loop.bpmn").read_bytes()
        # the seed picks where in the three-node cycle the budget cuts
        self.max_steps = self.steps = self.base_steps + seed % 3

    def setup(self):
        return compiler.compile_model(bpmn.parse_bpmn(self.bpmn_bytes), [],
                                      sample_seed=self.seed)

    def work(self, model):
        options = runtime.RunOptions(mode="sequential", timeout_s=LONG_TIMEOUT_S,
                                     seed=self.seed, max_steps=self.max_steps)
        return runtime.run_once(model, {}, options)

    def expected(self) -> tuple[int, int]:
        """(trace records, spins) for the budget: start and init give 2 and
        3 records, then the cycle gate, spin and again gate give 2, 3 and 2."""
        cycles, extra = divmod(self.max_steps - 2, 3)
        records = 5 + 7 * cycles + (0, 2, 5)[extra]
        spins = cycles + (extra >= 2)
        return records, spins

    def check(self, rep: Rep) -> list[str]:
        trace, summary = rep.output
        rep.output = None  # the trace is the bulk of the process's memory
        records, spins = self.expected()
        failures = []
        if (summary.status, summary.code) != ("fault", "ENGINE_FAULT") or \
                summary.message != f"step budget of {self.max_steps} exceeded":
            failures.append(f"ended {summary.code} ({summary.message})")
        if len(trace.records) != records:
            failures.append(f"{len(trace.records)} trace records, expected {records}")
        if trace.node_sequence().count("Activity_Spin") != spins or \
                trace.writes()[-1] != ("n", spins):
            failures.append("the spin count or the last write of n is wrong")
        return failures


def make(name: str, seed: int, work_dir: Path) -> Workload:
    if name == "shipment_seq":
        return ShipmentSeq(seed)
    if name == "shipment_cli":
        return ShipmentCli(seed, work_dir)
    if name == "diamonds_par":
        return DiamondsPar(seed)
    if name == "loop_budget":
        return LoopBudget(seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("shipment_seq", "shipment_cli", "diamonds_par", "loop_budget")
