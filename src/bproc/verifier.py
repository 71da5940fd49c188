"""Verification campaigns: repeated randomized runs, node/edge coverage
against the process graph, and three stopping rules.

  fixed budget   up to n runs, early stop once the threshold combiner holds
  error seeking  up to n runs, stop (and fail) as soon as a run fails
  smc            the sample count comes from the (epsilon, delta) contract;
                 a FAIL verdict is always backed by a concrete witness run,
                 so only type-I (wrong PASS) errors are possible

A campaign runs its runs in index order on one thread. Run k is a function
of (seed, k), so a verdict is reproducible from the configuration.

Once per campaign, before its first run, it works out what no run changes:
one sampler per input variable (inputs.sampler), one runtime.RunOptions,
one engine (runtime._Engine), and the stopping rule's constants. Making
the engine lowers the model, which refuses a model whose routines reach a
node or edge its graph lacks, before any run or file. Each run then only
seeds the random generator with seed * 1_000_003 + k, draws its inputs, in
parallel mode takes its scheduler seed from the same stream, and runs on
that engine, which resets the run's own state first.

What a run costs besides its steps is, in order:
  the reseed    the C seeding that `Random.seed` wraps (`_reseeder`), the
                one cost that fixes every run's draws
  the draws     one frame per run and one per input; an enum draw makes
                on the generator exactly the calls `Random.choice` makes,
                without its frames (inputs.sampler)
  the scheduler `getrandbits(64)`, in parallel mode only: a sequential run
  seed          reads no seed, and the next run reseeds
then the steps. The engine's reset clears only what the last run left; the
hit counts are read only for a stopping rule on coverage; the run times'
running mean and variance are kept in locals, in constant memory. A warm
run's cost is held to `CAMPAIGN_RUN` in tests/test_opcounts.py.

Runs build no trace: each marks the nodes and edges it reaches in one
campaign-wide pair of hit arrays, one byte per node and one per distinct
(source, target) pair of the process graph, in the graph's numbering
(bpmn.ProcessGraph.node_index and edge_index), in the manner of AFL's edge
bitmap (Zalewski, "AFL technical details"). The stopping rules read
their counts, and the coverage report is built from them and the graph
once, after the last run. A run's summary is built only for a run the
campaign keeps: the failing run that decides an error seeking or smc
verdict, and every run when the campaign writes run files. Such a
campaign writes each run's files, in the formats of `bproc run`, from a
replay with the run's input lists and scheduler seed on a second engine
(runtime._Replay) that keeps a trace and reads no clock; a timed-out
run's replay stops at its step.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field, replace
from itertools import compress

from . import inputs as inputs_mod, runtime
from .bpmn import ProcessGraph
from .compiler import ExecutableModel
from .errors import ConfigError, MissingOverrideError, UnknownIdError


@dataclass(frozen=True)
class CoverageReport:
    visited_nodes: frozenset[str] = frozenset()
    visited_edges: frozenset[tuple[str, str]] = frozenset()
    total_nodes: int = 0
    total_edges: int = 0
    runs_executed: int = 0

    @property
    def c_n(self) -> float:
        return 100.0 * len(self.visited_nodes) / self.total_nodes if self.total_nodes else 0.0

    @property
    def c_e(self) -> float:
        return 100.0 * len(self.visited_edges) / self.total_edges if self.total_edges else 0.0


def accumulate_coverage(report: CoverageReport, trace: runtime.Trace,
                        graph: ProcessGraph) -> CoverageReport:
    """Union the trace's nodes and edges into the report.

    Raises UnknownIdError when the trace mentions anything outside the
    graph: a trace not made by a run of a model with this graph.
    """
    nodes = set(trace.node_sequence())
    edges = set(trace.edges())
    _check_known(nodes, edges, graph)
    return replace(report,
                   visited_nodes=report.visited_nodes | nodes,
                   visited_edges=report.visited_edges | edges,
                   runs_executed=report.runs_executed + 1)


def _check_known(nodes, edges, graph: ProcessGraph):
    stray_nodes = nodes - graph.node_index.keys()
    stray_edges = edges - graph.edge_index.keys()
    if stray_nodes or stray_edges:
        raise UnknownIdError(f"trace mentions unknown nodes {sorted(stray_nodes)} "
                             f"or edges {sorted(stray_edges)}")


def _hits_report(node_hits: bytearray, edge_hits: bytearray, graph: ProcessGraph,
                 runs: int) -> CoverageReport:
    """The report of a campaign's hit arrays. The denominators are the
    graph's node and flow counts; visited edges are (source, target) pairs,
    so parallel flows between one node pair can never be told apart and
    cap C_e below 100."""
    nodes = frozenset(compress(graph.node_index, node_hits))
    edges = frozenset(compress(graph.edge_index, edge_hits))
    return CoverageReport(nodes, edges, len(graph.nodes), len(graph.edges), runs)


# --- configuration -----------------------------------------------------------

COMBINERS = ("and", "or", "nodes", "edges")


@dataclass(frozen=True)
class FixedBudget:
    n: int = 1000
    theta_nodes: float = 0.0
    theta_edges: float = 0.0
    combiner: str = "and"


@dataclass(frozen=True)
class ErrorSeek:
    n: int = 1000


@dataclass(frozen=True)
class Smc:
    epsilon: float = 0.01
    delta: float = 0.01
    property: str = "no-error"  # "no-error" | "coverage-unreachable"
    theta_nodes: float = 0.0
    theta_edges: float = 0.0
    combiner: str = "and"


@dataclass(frozen=True)
class CampaignConfig:
    mode: FixedBudget | ErrorSeek | Smc = field(default_factory=FixedBudget)
    timeout_s: float = runtime.DEFAULT_TIMEOUT_S
    seed: int = 0
    sequential: bool = False

    def __post_init__(self):
        mode = self.mode
        if isinstance(mode, (FixedBudget, ErrorSeek)) and mode.n < 1:
            raise ConfigError("the run budget n must be at least 1")
        if isinstance(mode, Smc):
            _check_smc_parameters(mode.epsilon, mode.delta)
        if not self.timeout_s > 0:
            raise ConfigError("the timeout must be positive")
        if isinstance(mode, (FixedBudget, Smc)):
            if mode.combiner not in COMBINERS:
                raise ConfigError(f"unknown combiner {mode.combiner!r}")
            for theta in (mode.theta_nodes, mode.theta_edges):
                if not 0 <= theta <= 100:
                    raise ConfigError("coverage thresholds must lie in [0, 100]")


@dataclass
class Verdict:
    result: str  # "PASS" | "FAIL"
    reason: str
    coverage: CoverageReport
    failing_trace: str | None = None
    mean_run_ms: float = 0.0
    stddev_run_ms: float = 0.0

    def to_json(self) -> str:
        return json.dumps({
            "result": self.result,
            "reason": self.reason,
            "c_n": round(self.coverage.c_n, 3),
            "c_e": round(self.coverage.c_e, 3),
            "runs": self.coverage.runs_executed,
            "mean_run_ms": round(self.mean_run_ms, 3),
            "stddev_run_ms": round(self.stddev_run_ms, 3),
            "failing_trace": self.failing_trace,
        }, indent=2) + "\n"


def _check_smc_parameters(epsilon: float, delta: float):
    if not (0 < epsilon < 1 and 0 < delta < 1):
        raise ConfigError("epsilon and delta must lie in (0, 1)")
    if 1.0 - epsilon == 1.0:  # no number of runs would ever be enough
        raise ConfigError(f"epsilon {epsilon!r} is too small: 1 - epsilon rounds to 1")


def smc_sample_size(epsilon: float, delta: float) -> int:
    """Smallest N with (1 - epsilon)^N <= delta: if a violating run has
    probability at least epsilon, N clean runs occur with probability at
    most delta."""
    _check_smc_parameters(epsilon, delta)
    n = max(1, math.ceil(math.log(delta) / math.log(1.0 - epsilon)))
    while (1.0 - epsilon) ** n > delta:  # guard against float rounding at the edge
        n += 1
    while n > 1 and (1.0 - epsilon) ** (n - 1) <= delta:
        n -= 1
    return n


def _thresholds_hold(mode, c_n: float, c_e: float) -> bool:
    nodes_ok = c_n >= mode.theta_nodes
    edges_ok = c_e >= mode.theta_edges
    return {"and": nodes_ok and edges_ok,
            "or": nodes_ok or edges_ok,
            "nodes": nodes_ok,
            "edges": edges_ok}[mode.combiner]


def _meaningful_thresholds(mode) -> bool:
    # A zero threshold asks for nothing; early stopping on it would cut the
    # campaign after the first run.
    if mode.combiner == "nodes":
        return mode.theta_nodes > 0
    if mode.combiner == "edges":
        return mode.theta_edges > 0
    if mode.combiner == "or":
        return mode.theta_nodes > 0 and mode.theta_edges > 0
    return mode.theta_nodes > 0 or mode.theta_edges > 0


@dataclass
class _RunResult:
    index: int
    summary: runtime.RunSummary


def draw_input_lists(specs: list[inputs_mod.InputSpec],
                     overrides: dict[str, list],
                     rng: random.Random) -> dict[str, list]:
    """One fresh random value per input variable (loops reuse that value)."""
    return _input_draw(specs, overrides)(rng)


def _input_draw(specs: list[inputs_mod.InputSpec], overrides: dict[str, list]):
    """The function `draw(rng)` behind `draw_input_lists`, with one sampler
    per input built once: a campaign draws every run's inputs through it,
    in one Python frame per run and one per input."""
    samplers = tuple((spec.name, inputs_mod.sampler(spec.domain, spec.static_type,
                                                    overrides.get(spec.name), spec.name))
                     for spec in specs)

    def draw(rng):
        lists = {}
        for name, sample in samplers:
            lists[name] = [sample(rng)]
        return lists
    return draw


def _reseeder(rng: random.Random):
    """`rng.seed` for an int seed without `Random.seed`'s Python wrapper:
    the C seeding that the wrapper ends in, which leaves the same state.
    The wrapper also drops the value `gauss` keeps for its next call,
    which no sampler makes."""
    return super(random.Random, rng).seed


def run_campaign(model: ExecutableModel, cfg: CampaignConfig,
                 overrides: dict[str, list] | None = None,
                 out_dir: str | None = None) -> Verdict:
    """Drive repeated runs per the configured stopping rule.

    Per-run faults and error outcomes are data, not campaign errors. When
    out_dir is given, each run's trace and summary land under
    runs/run_<k>.{trace,out} for replay and audit.
    """
    overrides = overrides or {}
    for spec in model.input_vars:
        if isinstance(spec.domain, inputs_mod.UnhandledDomain) \
                and not overrides.get(spec.name):
            raise MissingOverrideError(spec.name)

    mode = cfg.mode
    if isinstance(mode, Smc):
        budget = smc_sample_size(mode.epsilon, mode.delta)
    else:
        budget = mode.n

    graph = model.graph
    node_hits, edge_hits = bytearray(len(graph.node_index)), bytearray(len(graph.edge_index))
    total_nodes, total_edges = len(graph.nodes), len(graph.edges)
    counts = (0, 0)  # nodes and edges hit so far
    smc_coverage = isinstance(mode, Smc) and mode.property == "coverage-unreachable"
    # the stopping rule: on coverage, which changes only when it grows (in smc,
    # crossing the thresholds refutes the claim), or on a failed run (error
    # seeking, or smc no-error)
    stop_on_coverage = smc_coverage or (isinstance(mode, FixedBudget)
                                        and _meaningful_thresholds(mode))
    stop_on_failure = not smc_coverage and not isinstance(mode, FixedBudget)
    covered = stop_on_coverage and _thresholds_hold(mode, 0.0, 0.0)
    failing: _RunResult | None = None
    stopped_early = False
    options = runtime.RunOptions(mode="sequential" if cfg.sequential else "parallel",
                                 timeout_s=cfg.timeout_s)
    engine = runtime._Engine(model, options, (node_hits, edge_hits))
    replay = None if out_dir is None else runtime._Replay(model, options)
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    draw_lists = _input_draw(model.input_vars, overrides)
    run, sequential, seed_base = engine.run, cfg.sequential, cfg.seed * 1_000_003
    run_rng = random.Random()  # reseeded per run: as good as a fresh Random(seed)
    reseed, getrandbits = _reseeder(run_rng), run_rng.getrandbits
    # run times in ms: their running mean and sum of squared deviations, in
    # constant memory (Welford, "Note on a Method for Calculating Corrected
    # Sums of Squares and Products", 1962)
    mean = m2 = 0.0
    for index in range(budget):
        reseed(seed_base + index)
        lists = draw_lists(run_rng)
        # parallel mode: the scheduler seed comes after the inputs from the same
        # stream, so a run is a function of (cfg.seed, index) and the inputs stay
        # as drawn; a sequential run reads none, and the next run reseeds
        seed = None if sequential else getrandbits(64)
        status = run(lists, seed)
        if replay is not None:
            replay.timed_out_at = engine.timed_out_at if status == "timeout" else None
            replay.run(lists, seed)
            summary = replay.summary()  # built only for a run the campaign keeps
            runtime.write_artifacts(replay.trace, summary, graph, out_dir,
                                    stem=os.path.join("runs", f"run_{index}"),
                                    include_graph=False)
        if stop_on_coverage:
            grown = (node_hits.count(1), edge_hits.count(1))
            if grown != counts:
                counts = grown
                covered = _thresholds_hold(
                    mode, 100.0 * counts[0] / total_nodes if total_nodes else 0.0,
                    100.0 * counts[1] / total_edges if total_edges else 0.0)
        ms = engine.elapsed_s * 1000.0
        delta = ms - mean
        mean += delta / (index + 1)
        m2 += delta * (ms - mean)
        if covered or stop_on_failure and status != "success":
            if not isinstance(mode, FixedBudget):
                failing = _RunResult(index, engine.summary() if replay is None else summary)
            stopped_early = index + 1 < budget
            break

    runs = index + 1
    report = _hits_report(node_hits, edge_hits, graph, runs)
    verdict = _decide(mode, report, failing, stopped_early)
    verdict.mean_run_ms = mean
    verdict.stddev_run_ms = math.sqrt(m2 / (runs - 1)) if runs > 1 else 0.0  # the sample's
    if failing is not None and out_dir is not None:
        verdict.failing_trace = os.path.join("runs", f"run_{failing.index}.trace")
    if out_dir is not None:
        with open(os.path.join(out_dir, "verdict.json"), "w", encoding="utf-8") as fh:
            fh.write(verdict.to_json())
    return verdict


def _decide(mode, report: CoverageReport, failing: _RunResult | None,
            stopped_early: bool) -> Verdict:
    c = f"C_n={report.c_n:.1f}%, C_e={report.c_e:.1f}% after {report.runs_executed} runs"
    if isinstance(mode, FixedBudget):
        if _thresholds_hold(mode, report.c_n, report.c_e):
            how = "early" if stopped_early else "at budget"
            return Verdict("PASS", f"coverage thresholds reached {how}: {c}", report)
        return Verdict("FAIL", f"coverage thresholds not reached: {c}", report)
    if isinstance(mode, ErrorSeek):
        if failing is not None:
            return Verdict("FAIL", f"run {failing.index} failed: "
                                   f"{failing.summary.status} {failing.summary.code} "
                                   f"({failing.summary.message}); {c}", report)
        return Verdict("PASS", f"no failing run within the budget; {c}", report)
    # Smc
    if mode.property == "no-error":
        if failing is not None:
            return Verdict("FAIL", f"witness run {failing.index} failed: "
                                   f"{failing.summary.status} {failing.summary.code} "
                                   f"({failing.summary.message}); {c}", report)
        return Verdict("PASS", f"no error within the statistical budget "
                               f"(epsilon={mode.epsilon}, delta={mode.delta}); {c}", report)
    if failing is not None:
        return Verdict("FAIL", f"coverage thresholds were reached at run "
                               f"{failing.index}, refuting unreachability; {c}", report)
    return Verdict("PASS", f"statistical: thresholds stayed out of reach "
                           f"(epsilon={mode.epsilon}, delta={mode.delta}); {c}", report)
