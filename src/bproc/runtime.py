"""Execution engine: runs a compiled model once.

A run owns a variable store (every declared variable starts undefined),
per-variable input cursors, FIFO message channels and a trace. One
interpreter serves both modes: each branch of a run is a generator that
yields at every node boundary, hands its children over at a fork, and
yields while the channel of its receive is empty. A scheduler on a single
OS thread decides which branch steps next. Sequential mode runs the
branches one at a time in case order, so a receive that waits for a later
branch is a deadlock. Parallel mode gives each step to a runnable branch
drawn with a random generator seeded from `RunOptions.seed`, so every
interleaving is reproducible from the seed, and a run whose live branches
all wait on empty channels ends as a deadlock. Both deadlocks are engine
faults naming the blocked receive node. Trace length is bounded by the
step budget and the wall-clock timeout rather than any call stack.
"""

from __future__ import annotations

import collections
import itertools
import random
import time
from dataclasses import dataclass, field

from . import dmn, feel
from .compiler import (Assign, Branch, Continue, ConsumeInput, ExecutableModel, Fork,
                       InvokeTable, JoinBarrier, Receive, Send, Terminate)
from .errors import BprocError, ConfigError, MessageTypeMismatchError
from .feel.values import UNDEFINED

DEFAULT_TIMEOUT_S = 5.0
DEFAULT_MAX_STEPS = 1_000_000


# --- trace records ----------------------------------------------------------

@dataclass(frozen=True)
class NodeActivated:
    node: str


@dataclass(frozen=True)
class EdgeTraversed:
    source: str
    target: str


@dataclass(frozen=True)
class TableEvaluated:
    table: str
    outputs: tuple


@dataclass(frozen=True)
class VarWritten:
    name: str
    value: object


@dataclass
class Trace:
    records: list = field(default_factory=list)

    def node_sequence(self) -> list[str]:
        return [r.node for r in self.records if isinstance(r, NodeActivated)]

    def edges(self) -> list[tuple[str, str]]:
        return [(r.source, r.target) for r in self.records if isinstance(r, EdgeTraversed)]

    def writes(self) -> list[tuple[str, object]]:
        return [(r.name, r.value) for r in self.records if isinstance(r, VarWritten)]


@dataclass
class RunSummary:
    inputs_used: dict
    status: str  # "success" | "error" | "timeout" | "fault"
    code: str
    message: str
    elapsed_s: float
    diagnostics: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.status != "success"


@dataclass
class RunOptions:
    mode: str = "parallel"  # "parallel" | "sequential"
    timeout_s: float = DEFAULT_TIMEOUT_S
    seed: int | None = None  # parallel mode: seeds the branch scheduler
    max_steps: int = DEFAULT_MAX_STEPS


@dataclass
class ExecState:
    bindings: dict
    cursors: dict


class _Aborted(Exception):
    """Internal: the timeout or the step budget decided the run outcome."""


_ENDED = object()  # what `next` returns for a branch that has finished


class _Barrier:
    __slots__ = ("join_id", "expected", "parent", "_arrived")

    def __init__(self, join_id: str, expected: int, parent: "_Barrier | None"):
        self.join_id = join_id
        self.expected = expected
        self.parent = parent
        self._arrived = 0

    def arrive(self) -> bool:
        """True exactly once, for the arrival that releases the continuation."""
        self._arrived += 1
        return self._arrived == self.expected


class _Engine:
    def __init__(self, model: ExecutableModel, input_lists: dict, options: RunOptions):
        self.model = model
        self.options = options
        self.input_lists = input_lists
        self.state = ExecState(
            bindings={name: UNDEFINED for name in model.declared_variables()},
            cursors={name: 0 for name in input_lists},
        )
        self.trace = Trace()
        self._record = self.trace.records.append
        self.diagnostics: list[str] = []
        self._outcome: tuple[str, str, str] | None = None
        self._parallel = options.mode == "parallel"
        self._steps = 0
        self._writers: dict[str, set[int]] = {}
        self._branch = 1  # id of the branch being stepped
        self._branch_ids = itertools.count(2)
        self._ready: list[tuple[int, object]] = []  # (branch id, walker) that can step
        self._waiting: dict[str, list] = {}  # channel -> (branch id, walker, node)
        self._channels = {name: collections.deque() for name in model.channel_names}
        self._started = time.monotonic()
        self._deadline = self._started + options.timeout_s

    # --- bookkeeping ---

    def _set_outcome(self, status: str, code: str, message: str):
        if self._outcome is None:
            self._outcome = (status, code, message)

    def _tick(self):
        if time.monotonic() > self._deadline:
            self._set_outcome("timeout", "TIMEOUT",
                              f"execution exceeded {self.options.timeout_s:g}s")
            raise _Aborted()
        self._steps += 1
        if self._steps > self.options.max_steps:
            self._set_outcome("fault", "ENGINE_FAULT",
                              f"step budget of {self.options.max_steps} exceeded")
            raise _Aborted()

    def _write(self, name: str, value):
        self.state.bindings[name] = value
        self._record(VarWritten(name, value))
        if self._parallel:
            writers = self._writers.setdefault(name, set())
            writers.add(self._branch)
            if len(writers) > 1:
                note = f"variable {name!r} written by several parallel branches"
                if note not in self.diagnostics:
                    self.diagnostics.append(note)

    # --- scheduling ---

    def run(self):
        """Step the branches, from the entry node, until the run has an outcome."""
        parallel = self._parallel
        ready = self._ready
        ready.append((self._branch, self._walk(self.model.entry, None, None)))
        rng = None  # built when two branches first compete for a step
        try:
            while ready and self._outcome is None:
                index = -1  # sequential: the top of the stack
                if parallel and len(ready) > 1:
                    if rng is None:
                        rng = random.Random(self.options.seed)
                    index = rng.randrange(len(ready))
                branch, walker = ready[index]
                self._branch = branch
                event = next(walker, _ENDED)
                if event is None:  # a node boundary: the branch stays runnable
                    continue
                del ready[index]
                if event is _ENDED:
                    continue
                if type(event) is list:  # a fork: its children, in case order
                    children = [(next(self._branch_ids), self._walk(*child))
                                for child in event]
                    ready.extend(reversed(children))  # the first case on top
                else:  # a receive on an empty channel
                    node, channel = event
                    if parallel:
                        self._waiting.setdefault(channel, []).append((branch, walker, node))
                    else:
                        self._set_outcome("fault", "ENGINE_FAULT",
                                          f"sequential deadlock: receive {node!r} blocked "
                                          f"on empty channel {channel!r}")
        except _Aborted:
            pass
        except BprocError as exc:
            self._set_outcome("fault", "ENGINE_FAULT", str(exc))
        if self._outcome is None and self._waiting:
            blocked = "; ".join(f"receive {node!r} blocked on empty channel {channel!r}"
                                for channel, waiters in self._waiting.items()
                                for _, _, node in waiters)
            self._set_outcome("fault", "ENGINE_FAULT",
                              f"deadlock: every branch is waiting: {blocked}")
        elif self._outcome is None:
            self._set_outcome("fault", "ENGINE_FAULT",
                              "all branches ended without an outcome" if parallel
                              else "run ended without an outcome")

    # --- interpretation of one branch ---

    def _walk(self, current: str, barrier: _Barrier | None, source: str | None):
        """Interpret one branch from `current`, entered over the fork edge
        from `source` when it has one.

        Yields None after every node, the list of (target, barrier, split)
        children at a fork (and then ends), and (node, channel) while a
        receive waits on an empty channel. Ends at a join some other
        branch still has to reach, or once the run has an outcome.
        """
        routines = self.model.routines
        record = self._record
        if source is not None:
            record(EdgeTraversed(source, current))
        while True:
            if barrier is not None and current == barrier.join_id:
                if not barrier.arrive():
                    return  # another arrival will continue past the join
                self._tick()
                record(NodeActivated(current))
                target = routines[current].steps[0].next
                record(EdgeTraversed(current, target))
                current, barrier = target, barrier.parent
                yield
                continue
            self._tick()
            record(NodeActivated(current))
            for step in routines[current].steps:
                if isinstance(step, Terminate):
                    self._set_outcome("success" if step.status == "success" else "error",
                                      step.code, step.message)
                    return
                if isinstance(step, Continue):
                    record(EdgeTraversed(current, step.target))
                    current = step.target
                    break
                if isinstance(step, Branch):
                    current = self._pick_branch(step, current)
                    if current is None:
                        return
                    break
                if isinstance(step, JoinBarrier):
                    raise BprocError(f"join {current!r} reached outside its fork")
                if isinstance(step, Fork):
                    try:
                        selected = self._selected_branches(step)
                    except BprocError as exc:
                        self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
                        return
                    child = _Barrier(step.join_id, len(selected), barrier)
                    yield [(target, child, current) for target in selected]
                    return
                if isinstance(step, Receive):
                    while not self._channels[step.channel]:
                        yield current, step.channel
                try:
                    self._run_plain_step(step, current)
                except BprocError as exc:
                    self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
                    return
            else:
                raise BprocError(f"routine {current!r} fell through without a "
                                 f"terminal step")
            yield

    def _run_plain_step(self, step, node_id: str):
        if isinstance(step, ConsumeInput):
            values = self.input_lists[step.var]
            j = self.state.cursors[step.var]
            self.state.cursors[step.var] = min(j + 1, len(values))
            self._write(step.var, values[min(j, len(values) - 1)])
        elif isinstance(step, Assign):
            self._write(step.var, feel.evaluate(step.expr, self.state.bindings))
        elif isinstance(step, InvokeTable):
            table = self.model.tables[step.table_ref]
            args = {label: feel.evaluate(expr, self.state.bindings)
                    for label, expr in step.arg_bindings}
            outputs = dmn.evaluate_table(table, args)
            self._record(TableEvaluated(table.id, tuple(sorted(outputs.items()))))
            for out_name, var in step.out_bindings:
                self._write(var, outputs[out_name])
        elif isinstance(step, Send):
            payload = {part: feel.evaluate(expr, self.state.bindings)
                       for part, expr in step.parts}
            self._channels[step.channel].append((step.msg_type, payload))
            waiters = self._waiting.pop(step.channel, None)
            if waiters:  # they compete for the message again
                self._ready.extend((branch, walker) for branch, walker, _ in waiters)
        elif isinstance(step, Receive):
            msg_type, payload = self._channels[step.channel].popleft()
            if msg_type != step.msg_type:
                raise MessageTypeMismatchError(
                    f"receive {node_id!r} expected message type {step.msg_type!r}, "
                    f"got {msg_type!r}")
            for part, var in step.targets:
                if part not in payload:
                    raise MessageTypeMismatchError(
                        f"message on channel {step.channel!r} has no part {part!r}")
                self._write(var, payload[part])
        else:
            raise ConfigError(f"unexpected step {step!r}")

    def _selected_branches(self, step: Fork):
        if step.conditions is None:
            return list(step.targets)
        selected = []
        for target, condition in zip(step.targets, step.conditions):
            verdict = feel.evaluate(condition, self.state.bindings)
            if not isinstance(verdict, bool):
                raise BprocError(f"inclusive condition is not boolean: {verdict!r}")
            if verdict:
                selected.append(target)
        if not selected:
            raise BprocError("no inclusive gateway condition holds (unhandled condition)")
        return selected

    def _pick_branch(self, step: Branch, current: str) -> str | None:
        for condition, target in step.cases:
            try:
                verdict = feel.evaluate(condition, self.state.bindings)
            except BprocError as exc:
                self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
                return None
            if not isinstance(verdict, bool):
                self._set_outcome("fault", "ENGINE_FAULT",
                                  f"{current}: condition is not boolean")
                return None
            if verdict:
                self._record(EdgeTraversed(current, target))
                return target
        if step.default is not None:
            self._record(EdgeTraversed(current, step.default))
            return step.default
        self._set_outcome("error", "UNHANDLED_CONDITION", "unhandled condition")
        return None


def run_once(model: ExecutableModel, input_lists: dict[str, list],
             options: RunOptions | None = None) -> tuple[Trace, RunSummary]:
    """Execute the model once against per-variable input value lists.

    Each consuming node takes the next value of its variable's list and
    keeps reusing the last one once the list is exhausted. The summary
    carries the outcome: success or error (a reached end event), timeout,
    or fault (an evaluation error such as a type mismatch, a division by
    zero, a decision with no matching rule, or a deadlock).
    """
    options = options or RunOptions()
    if options.mode not in ("parallel", "sequential"):
        raise ConfigError(f"unknown mode {options.mode!r}")
    missing = [s.name for s in model.input_vars
               if not input_lists.get(s.name)]
    if missing:
        raise ConfigError(f"no input values supplied for {missing}")

    engine = _Engine(model, input_lists, options)
    engine.run()

    status, code, message = engine._outcome
    inputs_used = {s.name: input_lists[s.name][0] for s in model.input_vars}
    summary = RunSummary(inputs_used, status, code, message,
                         elapsed_s=time.monotonic() - engine._started,
                         diagnostics=engine.diagnostics)
    return engine.trace, summary


# --- artifact files ----------------------------------------------------------

def _label_token(label: str, node_id: str) -> str:
    token = (label or node_id).strip().replace(" ", "_")
    return token or node_id


def render_graph_file(graph) -> str:
    lines = [f"node {node_id} {_label_token(label, node_id)}"
             for node_id, label in graph.nodes]
    lines += [f"edge {src} {dst}" for src, dst in graph.edges]
    return "\n".join(lines) + "\n"


def render_trace_file(trace: Trace, graph) -> str:
    """Same line syntax as the graph file, in activation order."""
    labels = dict(graph.nodes)
    lines = []
    for record in trace.records:
        if isinstance(record, NodeActivated):
            lines.append(f"node {record.node} {_label_token(labels.get(record.node, ''), record.node)}")
        elif isinstance(record, EdgeTraversed):
            lines.append(f"edge {record.source} {record.target}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_summary_file(summary: RunSummary) -> str:
    lines = [f"input {name} = {feel.render_value(value)}"
             for name, value in summary.inputs_used.items()]
    lines.append(f"status: {summary.status}")
    lines.append(f"code: {summary.code}")
    lines.append(f"message: {summary.message}")
    return "\n".join(lines) + "\n"


def write_artifacts(trace: Trace, summary: RunSummary, graph, out_dir,
                    stem: str, include_graph: bool = True) -> dict[str, str]:
    """Write the graph, trace and summary files under out_dir."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    contents = [(".trace", render_trace_file(trace, graph)),
                (".out", render_summary_file(summary))]
    if include_graph:
        contents.insert(0, (".graph", render_graph_file(graph)))
    paths = {}
    for suffix, content in contents:
        path = os.path.join(out_dir, stem + suffix)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
        paths[suffix] = path
    return paths


def parse_summary_inputs(path) -> dict[str, object]:
    """Read back the `input <name> = <value>` lines of a summary file."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("input ") and " = " in line:
                head, value_text = line[len("input "):].split(" = ", 1)
                values[head.strip()] = feel.evaluate(feel.parse_expr(value_text), {})
    return values
