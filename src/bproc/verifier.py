"""Verification campaigns: repeated randomized runs, node/edge coverage
against the process graph, and three stopping rules.

  fixed budget   up to n runs, early stop once the threshold combiner holds
  error seeking  up to n runs, stop (and fail) as soon as a run fails
  smc            the sample count comes from the (epsilon, delta) contract;
                 a FAIL verdict is always backed by a concrete witness run,
                 so only type-I (wrong PASS) errors are possible

A campaign runs its runs in index order on one thread. Run k is a function
of (seed, k), so a verdict is reproducible from the configuration. Runs
build no trace: each marks the nodes and edges it reaches in one
campaign-wide pair of hit arrays (runtime.CoverageHits), whose counts the
stopping rules read. A campaign that writes run files runs each run as
runtime.run_once does instead, writes its trace in chunks, in the formats
of `bproc run`, and folds it into the same arrays.
"""

from __future__ import annotations

import json
import math
import os
import random
import statistics
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


def _thresholds_hold(mode, report: CoverageReport) -> bool:
    nodes_ok = report.c_n >= mode.theta_nodes
    edges_ok = report.c_e >= mode.theta_edges
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
    lists = {}
    for spec in specs:
        value = inputs_mod.sample_domain(spec.domain, spec.static_type, rng,
                                         overrides.get(spec.name), spec.name)
        lists[spec.name] = [value]
    return lists


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
    report = empty_report(graph)
    counts = (0, 0)  # nodes and edges hit so far
    durations_ms: list[float] = []
    failing: _RunResult | None = None
    stopped_early = False
    smc_coverage = isinstance(mode, Smc) and mode.property == "coverage-unreachable"
    if out_dir is not None:
        os.makedirs(os.path.join(out_dir, "runs"), exist_ok=True)
    for index in range(budget):
        run_rng = random.Random(cfg.seed * 1_000_003 + index)
        lists = draw_input_lists(model.input_vars, overrides, run_rng)
        # the scheduler seed comes after the inputs from the same stream, so a
        # run is a function of (cfg.seed, index) and the inputs stay as drawn
        options = runtime.RunOptions(
            mode="sequential" if cfg.sequential else "parallel",
            timeout_s=cfg.timeout_s, seed=run_rng.getrandbits(64))
        if out_dir is None:
            summary = runtime.run_covering(model, lists, options, hits)
        else:
            trace, summary = runtime.run_once(model, lists, options)
            hits.fold(trace)
            runtime.write_artifacts(trace, summary, graph, out_dir,
                                    stem=os.path.join("runs", f"run_{index}"),
                                    include_graph=False)
        grown = (hits.nodes.count(1), hits.edges.count(1))
        if grown != counts:  # also where a node or edge outside the graph shows
            counts = grown
            report = _hits_report(hits, graph, index + 1)
        durations_ms.append(summary.elapsed_s * 1000.0)
        if isinstance(mode, FixedBudget):
            stop = _meaningful_thresholds(mode) and _thresholds_hold(mode, report)
        elif smc_coverage:  # crossing the thresholds refutes the claim
            stop = _thresholds_hold(mode, report)
        else:  # error seeking, or smc no-error
            stop = summary.failed
        if stop:
            if not isinstance(mode, FixedBudget):
                failing = _RunResult(index, summary)
            stopped_early = index + 1 < budget
            break

    report = _hits_report(hits, graph, len(durations_ms))
    verdict = _decide(mode, report, failing, stopped_early)
    if durations_ms:
        verdict.mean_run_ms = statistics.fmean(durations_ms)
        verdict.stddev_run_ms = statistics.stdev(durations_ms) if len(durations_ms) > 1 else 0.0
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
        if _thresholds_hold(mode, report):
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
