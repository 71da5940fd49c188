"""Execution engine: runs a compiled model once.

A run owns a variable store (every declared variable starts undefined),
per-variable input cursors, FIFO message channels and a trace. Parallel
branches either get real threads (the default) or run sequentially in
case order; sequential execution of synchronizing branches can deadlock,
which is reported as an engine fault naming the blocked receive node.
Execution is worklist-based, so trace length is bounded by the step
budget and the wall-clock timeout rather than any call stack.
"""

from __future__ import annotations

import collections
import itertools
import queue
import threading
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
    seed: int | None = None
    max_steps: int = DEFAULT_MAX_STEPS


@dataclass
class ExecState:
    bindings: dict
    cursors: dict


class _Aborted(Exception):
    """Internal: the run outcome has been decided; unwind the worker."""


class _Barrier:
    def __init__(self, join_id: str, expected: int, parent: "_Barrier | None"):
        self.join_id = join_id
        self.expected = expected
        self.parent = parent
        self._arrived = 0
        self._lock = threading.Lock()

    def arrive(self) -> bool:
        """True exactly once, for the arrival that releases the continuation."""
        with self._lock:
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
        self.diagnostics: list[str] = []
        self._trace_lock = threading.Lock()
        self._outcome_lock = threading.Lock()
        self._outcome: tuple[str, str, str] | None = None
        self._outcome_event = threading.Event()
        self._stop = threading.Event()
        self._steps = 0
        self._step_lock = threading.Lock()
        self._writers: dict[str, set[int]] = {}
        self._local = threading.local()  # logical branch id; idents get reused
        self._branch_counter = itertools.count(1)
        self._threads: list[threading.Thread] = []
        new_channel = queue.SimpleQueue if options.mode == "parallel" else collections.deque
        self._channels = {name: new_channel() for name in model.channel_names}
        self._started = time.monotonic()
        self._deadline = self._started + options.timeout_s

    # --- bookkeeping ---

    def _record(self, record):
        with self._trace_lock:
            self.trace.records.append(record)

    def _set_outcome(self, status: str, code: str, message: str):
        with self._outcome_lock:
            if self._outcome is None:
                self._outcome = (status, code, message)
                self._stop.set()
                self._outcome_event.set()

    def _tick(self):
        if self._stop.is_set():
            raise _Aborted()
        if time.monotonic() > self._deadline:
            self._set_outcome("timeout", "TIMEOUT",
                              f"execution exceeded {self.options.timeout_s:g}s")
            raise _Aborted()
        with self._step_lock:
            self._steps += 1
            if self._steps > self.options.max_steps:
                self._set_outcome("fault", "ENGINE_FAULT",
                                  f"step budget of {self.options.max_steps} exceeded")
                raise _Aborted()

    def _write(self, name: str, value):
        self.state.bindings[name] = value
        self._record(VarWritten(name, value))
        writers = self._writers.setdefault(name, set())
        writers.add(getattr(self._local, "branch", 0))
        if len(writers) > 1 and self.options.mode == "parallel":
            note = f"variable {name!r} written by several parallel branches"
            if note not in self.diagnostics:
                self.diagnostics.append(note)

    def _channel(self, name: str):
        return self._channels[name]

    # --- step execution (shared between modes) ---

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
            channel = self._channel(step.channel)
            message = (step.msg_type, payload)
            if isinstance(channel, collections.deque):
                channel.append(message)
            else:
                channel.put(message)
        elif isinstance(step, Receive):
            message = self._receive(step, node_id)
            msg_type, payload = message
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

    def _receive(self, step: Receive, node_id: str):
        channel = self._channel(step.channel)
        if isinstance(channel, collections.deque):
            if not channel:
                raise _SequentialDeadlock(node_id, step.channel)
            return channel.popleft()
        while True:
            try:
                return channel.get(timeout=0.02)
            except queue.Empty:
                self._tick()

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

    # --- sequential interpretation ---

    def run_sequential(self):
        try:
            self._walk_seq(self.model.entry, stop_join=None)
        except _SequentialDeadlock as exc:
            self._set_outcome("fault", "ENGINE_FAULT",
                              f"sequential deadlock: receive {exc.node!r} blocked on "
                              f"empty channel {exc.channel!r}")
        except _Aborted:
            pass
        except BprocError as exc:
            self._set_outcome("fault", "ENGINE_FAULT", str(exc))

    def _walk_seq(self, current: str, stop_join: str | None) -> str:
        """Interpret from `current`; returns "arrived" at stop_join or
        "terminated" when the run outcome is decided."""
        while True:
            if current == stop_join:
                return "arrived"
            self._tick()
            routine = self.model.routines[current]
            self._record(NodeActivated(current))
            for step in routine.steps:
                if isinstance(step, Terminate):
                    self._set_outcome(
                        "success" if step.status == "success" else "error",
                        step.code, step.message)
                    return "terminated"
                if isinstance(step, Continue):
                    self._record(EdgeTraversed(current, step.target))
                    current = step.target
                    break
                if isinstance(step, Branch):
                    target = self._pick_branch(step, current)
                    if target is None:
                        return "terminated"
                    current = target
                    break
                if isinstance(step, JoinBarrier):
                    raise BprocError(f"join {current!r} reached outside its fork")
                if isinstance(step, Fork):
                    current = self._fork_sequential(step, current)
                    if current is None:
                        return "terminated"
                    break
                try:
                    self._run_plain_step(step, current)
                except _SequentialDeadlock:
                    raise
                except BprocError as exc:
                    self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
                    return "terminated"
            else:
                raise BprocError(f"routine {current!r} fell through without a "
                                 f"terminal step")

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

    def _fork_sequential(self, step: Fork, current: str) -> str | None:
        try:
            selected = self._selected_branches(step)
        except BprocError as exc:
            self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
            return None
        for target in selected:  # one branch at a time, in case order
            self._record(EdgeTraversed(current, target))
            if self._walk_seq(target, stop_join=step.join_id) == "terminated":
                return None
        join_routine = self.model.routines[step.join_id]
        self._record(NodeActivated(step.join_id))
        barrier_step = join_routine.steps[0]
        self._record(EdgeTraversed(step.join_id, barrier_step.next))
        return barrier_step.next

    # --- parallel interpretation ---

    def run_parallel(self):
        self._spawn(self.model.entry, None)
        remaining = self._deadline - time.monotonic()
        self._outcome_event.wait(timeout=max(remaining, 0) + 0.25)
        if self._outcome is None:
            if time.monotonic() > self._deadline:
                self._set_outcome("timeout", "TIMEOUT",
                                  f"execution exceeded {self.options.timeout_s:g}s")
            else:
                self._set_outcome("fault", "ENGINE_FAULT",
                                  "all branches ended without an outcome")
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=0.5)

    def _spawn(self, start: str, barrier: _Barrier | None):
        thread = threading.Thread(target=self._thread_main,
                                  args=(start, barrier, next(self._branch_counter)),
                                  daemon=True)
        self._threads.append(thread)
        thread.start()

    def _thread_main(self, current: str, barrier: _Barrier | None, branch: int):
        self._local.branch = branch
        try:
            self._walk_par(current, barrier)
        except _Aborted:
            pass
        except BprocError as exc:
            self._set_outcome("fault", "ENGINE_FAULT", str(exc))

    def _walk_par(self, current: str, barrier: _Barrier | None):
        while True:
            if barrier is not None and current == barrier.join_id:
                if not barrier.arrive():
                    return  # another arrival will release the continuation
                join_routine = self.model.routines[current]
                self._tick()
                self._record(NodeActivated(current))
                barrier_step = join_routine.steps[0]
                self._record(EdgeTraversed(current, barrier_step.next))
                current = barrier_step.next
                barrier = barrier.parent
                continue
            self._tick()
            routine = self.model.routines[current]
            self._record(NodeActivated(current))
            dispatch = self._run_routine_par(routine, current, barrier)
            if dispatch is None:
                return
            current = dispatch

    def _run_routine_par(self, routine, current: str, barrier: _Barrier | None):
        for step in routine.steps:
            if isinstance(step, Terminate):
                self._set_outcome("success" if step.status == "success" else "error",
                                  step.code, step.message)
                return None
            if isinstance(step, Continue):
                self._record(EdgeTraversed(current, step.target))
                return step.target
            if isinstance(step, Branch):
                return self._pick_branch(step, current)
            if isinstance(step, JoinBarrier):
                raise BprocError(f"join {current!r} reached outside its fork")
            if isinstance(step, Fork):
                try:
                    selected = self._selected_branches(step)
                except BprocError as exc:
                    self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
                    return None
                child = _Barrier(step.join_id, len(selected), parent=barrier)
                for target in selected:
                    self._record(EdgeTraversed(current, target))
                    self._spawn(target, child)
                return None  # the forking thread terminates
            try:
                self._run_plain_step(step, current)
            except BprocError as exc:
                self._set_outcome("fault", "ENGINE_FAULT", f"{current}: {exc}")
                return None
        raise BprocError(f"routine {current!r} fell through without a terminal step")


class _SequentialDeadlock(Exception):
    def __init__(self, node: str, channel: str):
        super().__init__(node)
        self.node = node
        self.channel = channel


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
    if options.mode == "sequential":
        engine.run_sequential()
        if engine._outcome is None:
            engine._set_outcome("fault", "ENGINE_FAULT", "run ended without an outcome")
    else:
        engine.run_parallel()

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
