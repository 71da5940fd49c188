"""Execution engine: runs a compiled model once.

On its first run, a model's routines are lowered once into a node program
(Feeley & Lapalme, "Using Closures for Code Generation", 1987): each
routine is one step, and the lowerer of its class (`_LOWER`) makes it one
closure over the engine that returns the edge to take, with no wrapper. A
step that names its successor (inputs, assign, table, send, receive) is
fused with the edge to it, and a gateway with one condition and a default
is tested without a loop (superoperators: Proebsting, POPL 1995). A
gateway whose conditions all test one variable for equality with a
constant looks its edge up by the variable's value, as a compiler's jump
table does for a case statement (Bernstein, "Producing Good Code for the
Case Statement", 1985), and scans its conditions only for a value the
lookup cannot judge (`_hashed`). A
receive on an empty channel returns a `_Wait` instead, and the engine
calls the same closure again once a send wakes it. Every (source, target)
pair a branch can take is one `_Edge`: its target node and its coverage
index; every node has a coverage index too. So the engine makes one call
per node and follows edges with no lookup (Ertl & Gregg, "The Structure
and Performance of Efficient Interpreters", 2003). Two kinds of node make
none. A pass-through node (a start event or task that reads no input, or
an exclusive merge) has no closure: the engine takes its one edge
(`_Node.passed`) itself. A join is taken the same way by the last branch
to arrive from its fork, and every join's closure is the one shared
`_join_fault`, which only a branch outside that fork calls.

The model's graph numbers coverage (`bpmn.ProcessGraph.node_index` and
`edge_index`), and lowering takes every node's and edge's index from it: a
model whose routines reach a node or (source, target) pair its graph lacks
is refused with UnknownIdError before its first run, so no run reaches
outside its graph.

A closure holds what it reads (edges, compiled expressions, names) as
default parameters, not as free variables. CPython gives a closure one cell
per free name and a tuple of the cells, each an object the cyclic collector
tracks, where the defaults are one tuple, read with LOAD_FAST: lowering
makes about half the objects and two thirds of the bytes (the object budget
of `tests/test_construction.py`; the figures in CHANGES.md). `_Node` and
`_Edge`, and the write and table records of a traced run, are built with no
`__init__` frame: `object.__new__` and slot stores. Lowering runs with the
cyclic collector paused, as set-up does (`bpmn.collector_paused`), so the
first young collection after it walks all of them. The trace records of the
nodes and edges are built on the first run that keeps a trace, also with
the collector paused, and every later run shares them; a model that only
ever runs in campaigns without run files never builds them. Expressions
inside are compiled closures too; a table task calls its table's selector
(`dmn.DecisionTable.select`) and writes the chosen rule's outputs, folded
once per task as (variable, value) pairs.

A run owns a variable store (every declared variable starts undefined),
per-variable input cursors, FIFO message channels (each made on its first
use) and a trace. An engine (`_Engine`) holds what runs share and resets
the rest at the start of each run: `run_once` runs a new one once, with
`RunOptions.seed`; a campaign runs every run on one, with the run's own
scheduler seed. A campaign's run builds no trace and no record: it marks
each node and edge it reaches in the campaign's two hit arrays, one byte
per index of the graph, so its memory does not grow with its length. A
campaign with run files replays each run on a second engine, `_Replay`,
which keeps a trace and reads no clock, and writes the trace
TRACE_CHUNK_LINES lines at a time. One loop,
`_Engine.run`, steps every branch of a run on a single OS thread, in both
modes, and is the only code that records or marks nodes and edges; between
two picks, a branch is a plain record (`_Branch`). Sequential mode runs the
branches one at a time in case order, so a receive that waits for a later
branch is a deadlock. Parallel mode gives each step to a runnable branch
drawn with a random generator seeded from `RunOptions.seed`, or from the
seed a campaign draws for the run (a lone runnable branch needs no draw and
keeps the step), so every interleaving is reproducible from the seed, and a
run whose live branches all wait on empty channels ends as a deadlock. Both
deadlocks are engine faults naming each blocked receive node. Parallel mode
also notes a variable written by two branches that no fork or join edge
orders: each branch carries its writer token, its (fork barrier, case)
pair, and a forked write keeps it as the variable's last token, with no new
tuple (see `_Engine._note_writer`). A channel's message queue and its
list of waiting receives are made on the channel's first use and kept,
emptied, for the engine's later runs; a run's reset clears only what the
last run left, and an end event sets the run's outcome itself, with no
second call. Trace length is bounded by the step budget and the
wall-clock timeout rather than any call stack. The clock is read on the
first step and then every CLOCK_EVERY steps, so a run that exhausts its
step budget ends the same way on any machine; only a TIMEOUT depends on
the machine's speed, and it can come up to CLOCK_EVERY - 1 steps after
the limit; a replay of such a run times out at the step the run did.
"""

from __future__ import annotations

import collections
import os
import random
import time
from dataclasses import dataclass, field
from itertools import islice

from . import feel
from .bpmn import collector_paused
from .compiler import (Assign, Branch, Continue, ConsumeInputs, ExecutableModel, Fork,
                       InvokeTable, JoinBarrier, Receive, Send, Terminate)
from .errors import BprocError, ConfigError, MessageTypeMismatchError, UnknownIdError
from .feel import ast
from .feel.evaluator import hashed_classes
from .feel.values import UNDEFINED

DEFAULT_TIMEOUT_S = 5.0
DEFAULT_MAX_STEPS = 1_000_000
CLOCK_EVERY = 1024  # steps between two reads of the wall clock
TRACE_CHUNK_LINES = 8192  # trace file lines rendered and written at a time


# --- trace records ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class NodeActivated:
    node: str


@dataclass(frozen=True, slots=True)
class EdgeTraversed:
    source: str
    target: str


# A run builds one of these per table result or variable write and never
# shares it, so, like the other records built in bulk (see the `bproc`
# package docstring), they are not frozen; the lowered closures build them
# with `object.__new__` and two slot stores, with no `__init__` frame. They
# still compare and hash by value, so they must not be modified once built:
# a record assigned to would no longer be what the run did, and would
# change its hash in any set or dict that holds it.
@dataclass(slots=True, unsafe_hash=True)
class TableEvaluated:
    table: str
    outputs: tuple


@dataclass(slots=True, unsafe_hash=True)
class VarWritten:
    name: str
    value: object


@dataclass
class Trace:
    """A run's records in order. Node and edge records are frozen and shared
    by every run of a model; write and table records are the run's own,
    built in bulk and not frozen (see the `bproc` package docstring). No
    record may be modified."""

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


@dataclass
class RunOptions:
    mode: str = "parallel"  # "parallel" | "sequential"
    timeout_s: float = DEFAULT_TIMEOUT_S
    seed: int | None = None  # parallel mode: seeds the branch scheduler
    max_steps: int = DEFAULT_MAX_STEPS


# --- lowering: each routine once per model, into closures ---------------------

class _Edge:
    """A (source, target) pair a branch can take: the target's `_Node` (set
    once every routine is lowered), the pair's coverage index and, from the
    first run that keeps a trace on, its trace record. Built with no
    `__init__` frame, as `_Node` is."""

    __slots__ = ("node", "index", "record")


class _Node:
    """A lowered routine.

    `run` is a function of the engine that runs the routine and returns
    the `_Edge` taken, None (the branch ended and the outcome is set), the
    children of a fork, one `_Edge` each, or a `_Wait` (a receive on an
    empty channel, which did nothing); it is the node's one closure, with
    no wrapper around it, and holds what it reads as its default
    parameters. A pass-through node (a start event or task that reads no
    input, or an exclusive merge) has no `run` (None): `_Engine.run`
    takes its `passed`, its one `_Edge`, with no call. A fork's children
    meet at its `join` node; the last of them to arrive there takes the
    join's `passed` the same way; a join's `run` is `_join_fault`, which
    only a branch that reached the join outside its fork calls. Lowering
    builds the edges once, shared by every run; the activation record is
    built on the first run that keeps a trace and shared by every later
    one, which is why node and edge records stay frozen (and compare by
    value). Only `_Engine.run` records or marks them. `index` is the
    node's coverage index. `_Program` sets the six, with no `__init__`
    frame per node.
    """

    __slots__ = ("id", "activated", "index", "run", "join", "passed")


class _Program:
    """A model's routines lowered to closures (`nodes`: node id -> _Node),
    with the one `_Edge` of every distinct (source, target) pair of the
    model's graph (`edges`, in coverage index order). Every node and edge
    takes its coverage index from the graph (`bpmn.ProcessGraph.node_index`
    and `edge_index`), and a routine that is no node of the graph, or that
    reaches a pair the graph lacks, is refused with UnknownIdError before
    any run. Every run starts from a copy of `bindings`, which holds every
    declared variable undefined. `traced` tells whether the trace records
    are built."""

    __slots__ = ("nodes", "edges", "bindings", "traced")

    def __init__(self, model: ExecutableModel):
        self.bindings = dict.fromkeys(model.declared_variables(), UNDEFINED)
        graph = model.graph
        edges: dict[tuple[str, str], _Edge] = {}
        self.edges, self.traced = edges, False
        for pair, index in graph.edge_index.items():
            edge = edges[pair] = _Edge()
            edge.index, edge.record = index, None
        node_index = graph.node_index
        nodes: dict[str, _Node] = {}
        self.nodes = nodes
        for node_id, routine in model.routines.items():
            index = node_index.get(node_id)
            if index is None:
                raise UnknownIdError(f"the process graph lacks a node the model runs: "
                                     f"unknown nodes {[node_id]}")
            # the routine's one step as one closure, by the lowerer of its class
            node = nodes[node_id] = _Node()
            node.id, node.index, node.activated, node.join, node.passed = (
                node_id, index, None, None, None)
            step = routine.step
            node.run = _LOWER[step.__class__](step, node, model, self)
        for (_, target), edge in edges.items():
            edge.node = nodes.get(target)
        for node in nodes.values():
            if node.join is not None:  # a fork's join id until now
                node.join = nodes.get(node.join)

    def edge(self, source: str, target: str) -> _Edge:
        edge = self.edges.get((source, target))
        if edge is None:
            raise UnknownIdError(f"the process graph lacks a flow the model takes: "
                                 f"unknown edges {[(source, target)]}")
        return edge

    @collector_paused
    def build_records(self):
        """Give every node its activation record and every edge its
        traversal record: on the first run that keeps a trace, for it and
        every later run to share. Like lowering, it runs with the cyclic
        collector paused: every record it builds lives as long as the
        program."""
        for node_id, node in self.nodes.items():
            node.activated = NodeActivated(node_id)
        for (source, target), edge in self.edges.items():
            edge.record = EdgeTraversed(source, target)
        self.traced = True


def _program(model: ExecutableModel) -> _Program:
    """The model's lowered program; built on the first run, with the
    cyclic collector paused."""
    program = model.program
    if program is None:
        program = model.program = _lowered(model)
    return program


@collector_paused
def _lowered(model: ExecutableModel) -> _Program:
    return _Program(model)


# --- lowerers: each returns the node's `run` (see `_Node`), None for a
# pass-through node; a step that names its successor returns a closure that
# does the step and returns that edge. A closure takes what it reads as
# default parameters, not free variables ---

def _lower_terminate(step: Terminate, node: _Node, model: ExecutableModel, program: _Program):
    status = "success" if step.status == "success" else "error"

    def terminate(engine, outcome=(status, step.code, step.message)):
        engine._outcome = outcome  # a node runs only while its run has no outcome
    return terminate


def _lower_continue(step: Continue, node: _Node, model: ExecutableModel, program: _Program):
    """No closure: the engine takes `passed`, as at a join's last arrival."""
    node.passed = program.edge(node.id, step.target)


def _lower_branch(step: Branch, node: _Node, model: ExecutableModel, program: _Program):
    cases = tuple((feel.compile_expr(condition), program.edge(node.id, target))
                  for condition, target in step.cases)
    default = None if step.default is None else program.edge(node.id, step.default)
    scan = _scan(cases, default)
    hashed = _hashed(step, cases, default, scan)
    return scan if hashed is None else hashed


def _scan(cases: tuple, default: _Edge | None):
    """A gateway that tests its cases in order: the edge of the first that
    holds, else the default, or with none an unhandled-condition failure."""
    if len(cases) == 1 and default is not None:  # one condition and the default
        ((condition, edge),) = cases

        def branch_one(engine, condition=condition, edge=edge, default=default):
            verdict = condition(engine.bindings)
            if verdict is True:
                return edge
            if verdict is False:
                return default
            raise BprocError("condition is not boolean")
        return branch_one

    def branch(engine, cases=cases, default=default):
        bindings = engine.bindings
        for condition, edge in cases:
            verdict = condition(bindings)
            if verdict is True:
                return edge
            if verdict is not False:
                raise BprocError("condition is not boolean")
        if default is None:
            engine._set_outcome("error", "UNHANDLED_CONDITION", "unhandled condition")
        return default
    return branch


def _hashed(step: Branch, cases: tuple, default: _Edge | None, scan):
    """A gateway whose cases all test one variable for equality with a
    constant (`x = c`, `c` by `feel.constant`) as one closure that looks
    the variable's value up in {constant: edge}, where a repeated constant
    keeps its first case's edge, and takes the default on a miss. It does
    so only for a value of the constants' `hashed_classes`, against which
    no case raises and only the cases of its key hold. Any other value, or
    a miss with no default, takes `scan`, which raises or ends the run as
    it does at every gateway. None for any other gateway."""
    name, constants = None, []
    for condition, _ in step.cases:
        if type(condition) is not ast.BinOp or condition.op != "=" \
                or type(condition.left) is not ast.Var \
                or name not in (None, condition.left.name):
            return None
        answer = feel.constant(condition.right)
        if not answer.shared:
            return None
        name = condition.left.name
        constants.append(answer.value)
    classes = hashed_classes(constants)
    if not classes:
        return None
    targets: dict[object, _Edge] = {}
    for value, (_, edge) in zip(constants, cases):
        targets.setdefault(value, edge)

    def branch_hashed(engine, name=name, classes=classes, targets=targets, default=default,
                      scan=scan):
        value = engine.bindings.get(name)
        if type(value) in classes:
            edge = targets.get(value, default)
            if edge is not None:
                return edge
        return scan(engine)
    return branch_hashed


def _lower_fork(step: Fork, node: _Node, model: ExecutableModel, program: _Program):
    node.join = step.join_id  # its _Node once every routine is lowered
    children = tuple(program.edge(node.id, target) for target in step.targets)
    if step.conditions is None:
        return lambda engine, children=children: children
    guarded = tuple(zip(map(feel.compile_expr, step.conditions), children))

    def inclusive_fork(engine, guarded=guarded):
        bindings = engine.bindings
        selected = []
        for condition, child in guarded:
            verdict = condition(bindings)
            if not isinstance(verdict, bool):
                raise BprocError(f"inclusive condition is not boolean: {verdict!r}")
            if verdict:
                selected.append(child)
        if not selected:
            raise BprocError("no inclusive gateway condition holds (unhandled condition)")
        return selected
    return inclusive_fork


class _OutsideFork(Exception):
    """Internal: a branch reached a join outside the fork it closes."""


def _join_fault(engine):
    """Every join's `run`: the last arrival from its fork takes the join's
    `passed` instead (see `_Engine.run`), so only a branch outside that
    fork calls this. `_Engine.run` ends the run with the fault."""
    raise _OutsideFork()


def _lower_join(step: JoinBarrier, node: _Node, model: ExecutableModel, program: _Program):
    node.passed = program.edge(node.id, step.next)
    return _join_fault


def _lower_consume(step: ConsumeInputs, node: _Node, model: ExecutableModel,
                   program: _Program):
    """Writes each variable's next input value (its last once the list is
    exhausted) as `_lower_assign` writes."""

    def consume(engine, variables=step.vars, edge=program.edge(node.id, step.next),
                new=object.__new__, VarWritten=VarWritten):
        input_lists, cursors, bindings = engine.input_lists, engine.cursors, engine.bindings
        for var in variables:
            values = input_lists[var]
            j = cursors[var]
            if j < len(values):
                cursors[var] = j + 1
            else:
                j -= 1
            value = bindings[var] = values[j]
            if engine._record is not None:
                write = new(VarWritten)
                write.name = var
                write.value = value
                engine._record(write)
            if engine._forked:
                engine._note_writer(var)
        return edge
    return consume


def _lower_assign(step: Assign, node: _Node, model: ExecutableModel, program: _Program):
    """Writes, records the write in a traced run and, once forked, keeps the
    variable's last writer token (`_Engine._note_writer`)."""

    def assign(engine, var=step.var, evaluate=feel.compile_expr(step.expr),
               edge=program.edge(node.id, step.next), new=object.__new__,
               VarWritten=VarWritten):
        value = engine.bindings[var] = evaluate(engine.bindings)
        if engine._record is not None:
            write = new(VarWritten)
            write.name = var
            write.value = value
            engine._record(write)
        if engine._forked:
            engine._note_writer(var)
        return edge
    return assign


def _lower_invoke(step: InvokeTable, node: _Node, model: ExecutableModel, program: _Program):
    """Selects the table's rule and writes its `bound_outputs` as `_lower_assign` writes."""
    table = model.tables[step.table_ref]
    # every input column bound, in column order, as the selector takes them
    args = tuple(feel.compile_expr(expr) for _, expr in step.arg_bindings)
    outcomes = tuple(table.bound_outputs(rule, step.out_bindings)
                     for rule in range(len(table.rules)))

    def invoke(engine, args=args, select=table.select, table_id=table.id, outcomes=outcomes,
               edge=program.edge(node.id, step.next), new=object.__new__,
               TableEvaluated=TableEvaluated, VarWritten=VarWritten):
        bindings = engine.bindings
        writes, items = outcomes[select([arg(bindings) for arg in args])]
        if items is None:  # an output fresh at each use
            writes, items = writes()
        record = engine._record
        if record is not None:
            evaluated = new(TableEvaluated)
            evaluated.table = table_id
            evaluated.outputs = items
            record(evaluated)
        for var, value in writes:
            bindings[var] = value
            if record is not None:
                write = new(VarWritten)
                write.name = var
                write.value = value
                record(write)
            if engine._forked:
                engine._note_writer(var)
        return edge
    return invoke


def _lower_send(step: Send, node: _Node, model: ExecutableModel, program: _Program):
    parts = tuple((part, feel.compile_expr(expr)) for part, expr in step.parts)

    def send(engine, channel=step.channel, msg_type=step.msg_type, parts=parts,
             edge=program.edge(node.id, step.next)):
        bindings = engine.bindings
        payload = {}
        for part, evaluate in parts:
            payload[part] = evaluate(bindings)
        engine._channels[channel].append((msg_type, payload))
        waiters = engine._waiting[channel]
        if waiters:  # the waiters compete for the message again
            engine._ready.extend(waiters)
            waiters.clear()
        return edge
    return send


class _Wait:
    """What a receive on an empty channel returns, having done nothing: the
    channel it waits on."""

    __slots__ = ("channel",)

    def __init__(self, channel: str):
        self.channel = channel


def _lower_receive(step: Receive, node: _Node, model: ExecutableModel, program: _Program):
    """Takes the message, writes its parts as `_lower_assign` writes, and
    returns the edge that follows; or returns a `_Wait` while the channel is
    empty."""

    def receive(engine, node_id=node.id, channel=step.channel, expected=step.msg_type,
                targets=step.targets, wait=_Wait(step.channel),
                edge=program.edge(node.id, step.next), new=object.__new__,
                VarWritten=VarWritten):
        queue = engine._channels[channel]
        if not queue:
            return wait
        msg_type, payload = queue.popleft()
        if msg_type != expected:
            raise MessageTypeMismatchError(
                f"receive {node_id!r} expected message type {expected!r}, "
                f"got {msg_type!r}")
        bindings = engine.bindings
        for part, var in targets:
            if part not in payload:
                raise MessageTypeMismatchError(
                    f"message on channel {channel!r} has no part {part!r}")
            value = bindings[var] = payload[part]
            if engine._record is not None:
                write = new(VarWritten)
                write.name = var
                write.value = value
                engine._record(write)
            if engine._forked:
                engine._note_writer(var)
        return edge
    return receive


#: step class -> its lowerer
_LOWER = {ConsumeInputs: _lower_consume, Assign: _lower_assign, InvokeTable: _lower_invoke,
          Send: _lower_send, Receive: _lower_receive, Branch: _lower_branch, Fork: _lower_fork,
          JoinBarrier: _lower_join, Continue: _lower_continue, Terminate: _lower_terminate}


# --- execution ------------------------------------------------------------------

class _Aborted(Exception):
    """Internal: the timeout or the step budget decided the run outcome."""


class _Barrier:
    """Where the cases of one fork meet, at the `join` node: `pending`
    counts the cases that have yet to arrive there; `writer` is the forking
    branch's writer token (see `_Branch`), which the last arrival takes on
    past the join. `_Engine.run` sets the three."""

    __slots__ = ("join", "pending", "writer")


class _Branch:
    """A branch of a run, as `_Engine.run` leaves it between two picks:
    `node`, the next node to step; `writer`, its writer token, the pair of
    the innermost fork barrier it is inside (None outside every fork) and
    its case index there; and `resume`, what it does first on its next
    pick, if anything: record the fork edge it entered by (that `_Edge`),
    or run its receive node again, in the same step, once a send has woken
    it (the `_Wait` the receive returned). The token is made once, where
    the branch enters a fork case, and taken back from the barrier where
    it passes a join, so a write shares it instead of building one.
    `_Engine.run` sets them, with no `__init__` frame per fork case."""

    __slots__ = ("node", "writer", "resume")


def _concurrent(a: tuple, b: tuple) -> bool:
    """Do two writers, each a writer token (barrier, case) as a `_Branch`
    holds it, lie in different cases of one fork? Only then does no fork or
    join edge order what the two do. The fork that decides is the two
    writers' innermost common one: the tokens walk up the fork nesting
    (`_Barrier.writer`) in turn, each noting its case at every barrier it
    passes, until one reaches a barrier the other has passed. So the check
    costs the writers' distance to their common fork, not the depth of the
    nesting (tests/oracles.py keeps the whole-path check it replaces)."""
    (fork_a, i), (fork_b, j) = a, b
    cases_a, cases_b = {}, {}
    while fork_a is not None or fork_b is not None:
        if fork_a is not None:
            if fork_a in cases_b:
                return cases_b[fork_a] != i
            cases_a[fork_a] = i
            fork_a, i = fork_a.writer
        if fork_b is not None:
            if fork_b in cases_a:
                return cases_a[fork_b] != j
            cases_b[fork_b] = j
            fork_b, j = fork_b.writer
    return False


class _Engine:
    """Runs of a model, one at a time, under one set of options. Without
    `hits` a run keeps a trace: every node and edge record (shared, frozen)
    and a record of each write and table result (its own, built in bulk,
    not frozen). With `hits`, a campaign's pair of byte arrays, one byte
    per node and one per distinct (source, target) pair of the model's
    graph in the graph's numbering (`ProcessGraph.node_index` and
    `edge_index`), it sets the byte of each node and edge it reaches to 1
    instead. `run` steps every branch in one loop; between
    two picks a branch is a `_Branch` in `_ready`, or in `_waiting` while
    its receive waits. Lowering the model, on its first engine, refuses a
    model that reaches outside its graph (`_Program`)."""

    def __init__(self, model: ExecutableModel, options: RunOptions,
                 hits: tuple[bytearray, bytearray] | None = None):
        self.model = model
        program = _program(model)
        self._bindings, self._entry = program.bindings, program.nodes[model.entry]
        if hits is None:
            if not program.traced:
                program.build_records()
            self._node_hits = self._edge_hits = None
        else:
            self._node_hits, self._edge_hits = hits
        self.trace = self._record = self.timed_out_at = None
        self._clock = time.monotonic
        self._parallel = options.mode == "parallel"
        self._max_steps, self._timeout_s = options.max_steps, options.timeout_s
        # parallel mode, from a run's first fork on: only then can two writes race
        self._forked = False
        self._last_writer: dict[str, tuple] = {}  # variable -> its last writer's token
        self._ready: list[_Branch] = []  # the branches that can step
        # channel -> its messages, and channel -> the branches its receives
        # block; each queue and list is made on the channel's first use and
        # kept, emptied, for the engine's later runs
        self._channels = collections.defaultdict(collections.deque)
        self._waiting = collections.defaultdict(list)

    # --- bookkeeping ---

    def _set_outcome(self, status: str, code: str, message: str):
        if self._outcome is None:
            self._outcome = (status, code, message)

    def _check_limits(self, steps: int) -> int:
        """Called by `run` on the step that reads the clock (the first, then
        every CLOCK_EVERY, so the step budget, not the machine's speed, ends
        a run that exhausts it) and on the first step past the budget.
        Returns the next such step."""
        if steps % CLOCK_EVERY == 1 and self._clock() > self._deadline:
            self.timed_out_at = steps  # read only by a replay of this run (`_Replay`)
            self._set_outcome("timeout", "TIMEOUT", f"execution exceeded {self._timeout_s:g}s")
            raise _Aborted()
        if steps > self._max_steps:
            self._set_outcome("fault", "ENGINE_FAULT",
                              f"step budget of {self._max_steps} exceeded")
            raise _Aborted()
        return min(steps + CLOCK_EVERY, self._max_steps + 1)

    def _note_writer(self, name: str):
        """Parallel mode, once forked: the current branch wrote `name`; keep
        its writer token as the variable's last and note `name` if no fork
        or join orders this write and the last one. The token is the
        branch's own (`_Branch.writer`), so a write builds no tuple. A
        write before the first fork has the empty path, which is concurrent
        with none, so it need not be kept."""
        writer = self._branch.writer
        last = self._last_writer.get(name, writer)
        self._last_writer[name] = writer
        if last is not writer and _concurrent(last, writer):
            note = f"variable {name!r} written by several parallel branches"
            if note not in self.diagnostics:
                self.diagnostics.append(note)

    # --- scheduling and stepping ---

    def run(self, input_lists: dict, seed: int | None) -> str:
        """Run once, `seed` seeding the scheduler, and return the status
        (`summary` gives the rest): reset all that a run owns, then step the
        branches, from the entry node, until the run has an outcome,
        recording (or marking in the campaign's hit arrays) a fork case's
        entry edge, each activated node and each edge taken, in that order.

        Each pick takes one ready branch (sequential: the top of the stack;
        parallel: a `randrange(n)` draw, made only when n > 1) and steps its
        nodes until it ends, waits, forks or, in parallel mode only, has
        taken a node's edge while another branch is ready (a send can make
        waiters ready in the middle of a node). A fork appends its cases
        k - 1 down to 1, then the forking branch as case 0; each records its
        fork edge on its first pick. The last case to arrive at the join goes
        on past it, taking the join's edge with no call, as every branch
        takes a pass-through node's edge; the others end there without
        taking a step. A woken receive runs again in the same step: no step
        count, no second activation record. One step count serves the whole
        run.
        """
        self.input_lists, self.cursors = input_lists, dict.fromkeys(input_lists, 0)
        self.bindings = self._bindings.copy()
        node_hits, edge_hits = self._node_hits, self._edge_hits
        if node_hits is None:
            self.trace = Trace()
            self._record = self.trace.records.append
        self.diagnostics, self._outcome = [], None
        parallel, ready, record = self._parallel, self._ready, self._record
        # what the last run left, if anything: branches still ready, the
        # writer tokens of a forked run, unread messages and blocked receives
        if ready:
            ready.clear()
        if self._forked:
            self._forked = False
            self._last_writer.clear()
        if any(self._channels.values()):
            for queue in self._channels.values():
                queue.clear()
        if any(self._waiting.values()):
            for waiters in self._waiting.values():
                waiters.clear()
        started = self._clock()
        self._deadline = started + self._timeout_s
        root = _Branch()  # the entry node's branch, outside every fork
        root.node, root.writer, root.resume = self._entry, (None, 0), None
        ready.append(root)
        getrandbits = None  # bound when two branches first compete for a step
        steps, next_check = 0, 1
        try:
            while ready:
                index = -1  # sequential: the top of the stack
                n = len(ready)
                if parallel and n > 1:
                    if getrandbits is None:
                        getrandbits = random.Random(seed).getrandbits
                    # Random.randrange(n), inlined: the same draws, one for one
                    k = n.bit_length()
                    index = getrandbits(k)
                    while index >= n:
                        index = getrandbits(k)
                branch = self._branch = ready[index]
                node, barrier, resume = branch.node, branch.writer[0], branch.resume
                join = None if barrier is None else barrier.join
                if resume is not None:  # a fork case's first pick, or a woken receive
                    woken = resume.__class__ is _Wait
                    if woken:  # a send woke the receive: it runs again, in the same step
                        resume = node.run(self)  # the edge it takes, or another _Wait
                        if resume.__class__ is _Wait:  # another waiter took the message
                            del ready[index]
                            self._waiting[resume.channel].append(branch)
                            continue
                        node = branch.node = resume.node
                    branch.resume = None
                    if edge_hits is None:
                        record(resume.record)
                    else:
                        edge_hits[resume.index] = 1
                    if woken and len(ready) > 1:  # a node boundary, as in the loop below
                        continue
                while True:
                    run = node.run
                    if node is join:
                        barrier.pending -= 1
                        if barrier.pending:  # the last arrival will go on past the join
                            taken = None
                            break
                        branch.writer = barrier.writer  # on as the forking branch
                        barrier = barrier.writer[0]
                        join = None if barrier is None else barrier.join
                        run = None  # it takes the join's edge
                    steps += 1
                    if steps >= next_check:
                        next_check = self._check_limits(steps)
                    if node_hits is None:
                        record(node.activated)
                    else:
                        node_hits[node.index] = 1
                    if run is None:
                        taken = node.passed
                    else:
                        taken = run(self)
                        if taken.__class__ is not _Edge:
                            break
                    if edge_hits is None:
                        record(taken.record)
                    else:
                        edge_hits[taken.index] = 1
                    node = taken.node
                    if parallel and len(ready) > 1:
                        break
                if taken.__class__ is _Edge:  # a node boundary: the branch stays ready
                    branch.node = node
                    continue
                del ready[index]
                if taken is None:  # the branch ended, at a join or with the run's outcome
                    if self._outcome is not None:
                        break
                    continue
                if taken.__class__ is _Wait:  # the receive's channel is empty
                    if not parallel:
                        self._set_outcome("fault", "ENGINE_FAULT",
                                          f"sequential deadlock: receive {node.id!r} blocked "
                                          f"on empty channel {taken.channel!r}")
                        break
                    branch.node, branch.resume = node, taken
                    self._waiting[taken.channel].append(branch)
                    continue
                # a fork: its cases after the first, last first, then the branch as the first
                self._forked = parallel
                barrier = _Barrier()
                barrier.join, barrier.pending, barrier.writer = node.join, len(taken), branch.writer
                for i in range(len(taken) - 1, 0, -1):
                    child, edge = _Branch(), taken[i]
                    child.node, child.writer, child.resume = edge.node, (barrier, i), edge
                    ready.append(child)
                edge = taken[0]
                branch.node, branch.writer, branch.resume = edge.node, (barrier, 0), edge
                ready.append(branch)
        except _Aborted:
            pass
        except _OutsideFork:
            self._set_outcome("fault", "ENGINE_FAULT", f"join {node.id!r} reached outside its fork")
        except BprocError as exc:
            self._set_outcome("fault", "ENGINE_FAULT", f"{node.id}: {exc}")
        outcome = self._outcome
        if outcome is None:
            # in node order: one message per deadlock
            blocked = "; ".join(f"receive {node!r} blocked on empty channel {channel!r}"
                                for _, node, channel in sorted(
                                    (branch.node.index, branch.node.id, channel)
                                    for channel, waiters in self._waiting.items()
                                    for branch in waiters))
            if blocked:
                self._set_outcome("fault", "ENGINE_FAULT",
                                  f"deadlock: every branch is waiting: {blocked}")
            else:
                self._set_outcome("fault", "ENGINE_FAULT",
                                  "all branches ended without an outcome" if parallel
                                  else "run ended without an outcome")
            outcome = self._outcome
        self.elapsed_s = self._clock() - started
        return outcome[0]

    def summary(self) -> RunSummary:
        """The last run's summary, with the first value of each input."""
        lists = self.input_lists
        return RunSummary({s.name: lists[s.name][0] for s in self.model.input_vars},
                          *self._outcome, self.elapsed_s, self.diagnostics)


class _Replay(_Engine):
    """Replays a campaign's runs from their input lists and scheduler seeds,
    keeping traces for their run files. Its clock, `float`, reads 0.0, so it
    times out only at `timed_out_at`, where the run timed out (None: never)."""

    def __init__(self, model: ExecutableModel, options: RunOptions):
        super().__init__(model, options)
        self._clock = float

    def _check_limits(self, steps: int) -> int:
        if steps == self.timed_out_at:
            self._deadline = -1.0  # the clock's 0.0 is past it
        return super()._check_limits(steps)


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
    if not options.timeout_s > 0:
        raise ConfigError("the timeout must be positive")
    missing = [s.name for s in model.input_vars
               if not input_lists.get(s.name)]
    if missing:
        raise ConfigError(f"no input values supplied for {missing}")
    engine = _Engine(model, options)
    engine.run(input_lists, options.seed)
    return engine.trace, engine.summary()


# --- artifact files ----------------------------------------------------------

def render_graph_file(graph) -> str:
    node_lines = graph.node_lines
    lines = [node_lines[node_id] for node_id, _ in graph.nodes]
    lines += [f"edge {src} {dst}" for src, dst in graph.edges]
    return "\n".join(lines) + "\n"


def render_trace_file(trace: Trace, graph) -> str:
    """Same line syntax as the graph file, in activation order."""
    return "".join(_trace_chunks(trace, graph))


def _trace_chunks(trace: Trace, graph):
    """The trace file's text, TRACE_CHUNK_LINES lines at a time."""
    lines = _trace_lines(trace, graph)
    while chunk := list(islice(lines, TRACE_CHUNK_LINES)):
        yield "\n".join(chunk) + "\n"


def _trace_lines(trace: Trace, graph):
    node_lines = graph.node_lines
    for record in trace.records:
        if isinstance(record, NodeActivated):
            yield node_lines[record.node]
        elif isinstance(record, EdgeTraversed):
            yield f"edge {record.source} {record.target}"


def render_summary_file(summary: RunSummary) -> str:
    lines = [f"input {name} = {feel.render_value(value)}"
             for name, value in summary.inputs_used.items()]
    lines.append(f"status: {summary.status}")
    lines.append(f"code: {summary.code}")
    lines.append(f"message: {summary.message}")
    return "\n".join(lines) + "\n"


def write_artifacts(trace: Trace, summary: RunSummary, graph, out_dir,
                    stem: str, include_graph: bool = True) -> dict[str, str]:
    """Write the graph, trace and summary files under out_dir, making the
    directories they need. The trace is written a chunk at a time, so its
    whole text is never held at once."""
    files = [(".trace", _trace_chunks(trace, graph)),
             (".out", (render_summary_file(summary),))]
    if include_graph:
        files.insert(0, (".graph", (render_graph_file(graph),)))
    paths = {}
    for suffix, chunks in files:
        path = os.path.join(out_dir, stem + suffix)
        try:
            fh = open(path, "w", encoding="utf-8")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fh = open(path, "w", encoding="utf-8")
        with fh:
            fh.writelines(chunks)
        paths[suffix] = path
    return paths
