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
the stopping rule's constants, and which hit indexes name a node or edge
the graph lacks. Each run then only seeds the random generator with
seed * 1_000_003 + k, draws its inputs, takes its scheduler seed from the
same stream and runs (runtime.run_covering). Runs build no trace: each
marks the nodes and edges it reaches in one campaign-wide pair of hit
arrays (runtime.CoverageHits), whose counts the stopping rules read; the
coverage report is built once, after the last run. A campaign that writes
run files keeps each run's trace instead, writes it in chunks, in the
formats of `bproc run`, and folds it into the same arrays. Run times are
kept as a running mean and variance, in constant memory.
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


def empty_report(graph: ProcessGraph) -> CoverageReport:
    # the denominators are the extracted graph's node and flow counts; visited
    # edges are (source, target) pairs, so parallel flows between one node
    # pair can never be told apart in a trace and cap C_e below 100
    return CoverageReport(total_nodes=len(graph.nodes),
                          total_edges=len(graph.edges))


def accumulate_coverage(report: CoverageReport, trace: runtime.Trace,
                        graph: ProcessGraph) -> CoverageReport:
    """Union the trace's nodes and edges into the report.

    Raises UnknownIdError when the trace mentions anything outside the
    graph; that signals a compiler/runtime mismatch, not bad luck.
    """
    nodes = set(trace.node_sequence())
    edges = set(trace.edges())
    _check_known(nodes, edges, graph)
    return replace(report,
                   visited_nodes=report.visited_nodes | nodes,
                   visited_edges=report.visited_edges | edges,
                   runs_executed=report.runs_executed + 1)


def _check_known(nodes, edges, graph: ProcessGraph):
    stray_nodes = nodes - graph.node_ids
    stray_edges = edges - graph.edge_set
    if stray_nodes or stray_edges:
        raise UnknownIdError(f"trace mentions unknown nodes {sorted(stray_nodes)} "
                             f"or edges {sorted(stray_edges)}")


def _hits_report(hits: runtime.CoverageHits, graph: ProcessGraph,
                 runs: int) -> CoverageReport:
    """The report of a campaign's hit arrays; raises UnknownIdError as
    accumulate_coverage does."""
    nodes = frozenset(compress(hits.node_ids, hits.nodes))
    edges = frozenset(compress(hits.edge_pairs, hits.edges))
    _check_known(nodes, edges, graph)
    return CoverageReport(nodes, edges, len(graph.nodes), len(graph.edges), runs)


def _unknown_indexes(ids: tuple, known: frozenset) -> list[int]:
    """The indexes of the hit ids that `known` lacks: a program lowered
    against another graph, or a compiler/runtime mismatch. There are almost
    never any, so a set test in C comes first."""
    if known.issuperset(ids):
        return []
    return [i for i, id_ in enumerate(ids) if id_ not in known]


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
    per input built once: a campaign draws every run's inputs through it."""
    samplers = [(spec.name, inputs_mod.sampler(spec.domain, spec.static_type,
                                               overrides.get(spec.name), spec.name))
                for spec in specs]
    return lambda rng: {name: [draw(rng)] for name, draw in samplers}


class _RunningStats:
    """Count, mean and sum of squared deviations of a stream of numbers,
    in constant memory (Welford, "Note on a Method for Calculating
    Corrected Sums of Squares and Products", 1962)."""

    __slots__ = ("n", "mean", "m2")

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, x: float):
        self.n += 1
        delta = x - self.mean
        self.mean += delta / self.n
        self.m2 += delta * (x - self.mean)

    @property
    def stdev(self) -> float:
        """The sample standard deviation; 0 for fewer than two numbers."""
        return math.sqrt(self.m2 / (self.n - 1)) if self.n > 1 else 0.0


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
    hits = runtime.CoverageHits(model)
    node_hits, edge_hits = hits.nodes, hits.edges
    stray_nodes = _unknown_indexes(hits.node_ids, graph.node_ids)
    stray_edges = _unknown_indexes(hits.edge_pairs, graph.edge_set)
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
    durations = _RunningStats()
    failing: _RunResult | None = None
    stopped_early = False
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    draw_lists = _input_draw(model.input_vars, overrides)
    options = runtime.RunOptions(mode="sequential" if cfg.sequential else "parallel",
                                 timeout_s=cfg.timeout_s)
    seed_base = cfg.seed * 1_000_003
    run_rng = random.Random()  # reseeded per run: as good as a fresh Random(seed)
    for index in range(budget):
        run_rng.seed(seed_base + index)
        lists = draw_lists(run_rng)
        # the scheduler seed comes after the inputs from the same stream, so a
        # run is a function of (cfg.seed, index) and the inputs stay as drawn
        seed = run_rng.getrandbits(64)
        if out_dir is None:
            summary = runtime.run_covering(model, lists, options, seed, hits)[1]
        else:
            trace, summary = runtime.run_covering(model, lists, options, seed)
            hits.fold(trace)
            runtime.write_artifacts(trace, summary, graph, out_dir,
                                    stem=os.path.join("runs", f"run_{index}"),
                                    include_graph=False)
        grown = (node_hits.count(1), edge_hits.count(1))
        if grown != counts:
            counts = grown
            if any(node_hits[i] for i in stray_nodes) or any(edge_hits[i] for i in stray_edges):
                _hits_report(hits, graph, index + 1)  # raises UnknownIdError
            if stop_on_coverage:
                covered = _thresholds_hold(
                    mode, 100.0 * counts[0] / total_nodes if total_nodes else 0.0,
                    100.0 * counts[1] / total_edges if total_edges else 0.0)
        durations.add(summary.elapsed_s * 1000.0)
        if covered or stop_on_failure and summary.failed:
            if not isinstance(mode, FixedBudget):
                failing = _RunResult(index, summary)
            stopped_early = index + 1 < budget
            break

    report = _hits_report(hits, graph, durations.n)
    verdict = _decide(mode, report, failing, stopped_early)
    verdict.mean_run_ms, verdict.stddev_run_ms = durations.mean, durations.stdev
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
