"""Execution engine: runs a compiled model once.

On its first run, a model's routines are lowered once into a node program
(Feeley & Lapalme, "Using Closures for Code Generation", 1987): each
routine is one step, and the lowerer of its class (`_LOWER`) makes it one
closure over the engine that returns the edge to take, with no wrapper. A
step that names its successor (inputs, assign, table, send, receive, or a
pass-through continue) is fused with the edge to it, and a gateway with one
condition and a default is tested without a loop (superoperators:
Proebsting, POPL 1995). A receive on an empty channel returns a `_Wait`
instead, and the walker calls the same closure again once resumed. Every
(source, target) pair a branch can take is one `_Edge`: its target node
and its coverage index; every node has a coverage index too. So the walker
makes one call per node and follows edges with no lookup (Ertl & Gregg,
"The Structure and Performance of Efficient Interpreters", 2003).
Lowering runs with the cyclic collector paused, as set-up does
(`bpmn.collector_paused`). The trace records of the nodes and edges are
built on the first run that keeps a trace, and every later run shares
them; a model that only ever runs in campaigns without run files never
builds them. Expressions inside are compiled closures too, and decision
tables compile themselves once with their output entries folded.

A run owns a variable store (every declared variable starts undefined),
per-variable input cursors, FIFO message channels (each made on its first
use) and a trace. Every run enters through `run_covering`: `run_once`'s
with `RunOptions.seed`, a campaign's with the run's own scheduler seed and
the campaign's options, shared by all its runs. Without run files a
run builds no trace and no record: it marks each node and edge it reaches
in the campaign's `CoverageHits`, so its memory does not grow with its
length. With run files a run keeps its trace as `run_once` does; the
campaign folds that trace into its hits and writes the trace file
TRACE_CHUNK_LINES lines at a time. One walker, the only code that records
or marks nodes and edges, serves both modes: each branch of a run is a
generator that hands its later children over at a fork, going on as the
first itself, and yields while the channel of its receive is empty; in
parallel mode it also yields at a node boundary when another branch is
ready. A scheduler on a single OS thread decides which branch steps next.
Sequential mode runs the branches one at a time in case order, so a
receive that waits for a later branch is a deadlock. Parallel mode gives
each step to a runnable branch drawn with a random generator seeded from
`RunOptions.seed`, or from the seed a campaign passes `run_covering` for
the run (a lone runnable branch needs no draw and keeps the step), so
every interleaving is reproducible from the seed, and a run whose live
branches all wait on empty channels ends as a deadlock. Both deadlocks
are engine faults naming the blocked receive node. Parallel mode also
notes a variable written by two branches that no fork or join edge
orders. Trace length is bounded by the step budget and the wall-clock
timeout rather than any call stack. The clock is read on the first step
and then every CLOCK_EVERY steps, so a run that exhausts its step budget
ends the same way on any machine; only a TIMEOUT depends on the machine's
speed, and it can come up to CLOCK_EVERY - 1 steps after the limit.
"""

from __future__ import annotations

import collections
import os
import random
import time
from dataclasses import dataclass, field
from itertools import islice

from . import feel
from .bpmn import _label_token, collector_paused
from .compiler import (Assign, Branch, Continue, ConsumeInputs, ExecutableModel, Fork,
                       InvokeTable, JoinBarrier, Receive, Send, Terminate)
from .errors import BprocError, ConfigError, MessageTypeMismatchError
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
# package docstring), they are not frozen. They still compare and hash by
# value, so they must not be modified once built: a record assigned to
# would no longer be what the run did, and would change its hash in any
# set or dict that holds it.
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

    @property
    def failed(self) -> bool:
        return self.status != "success"


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
    first run that keeps a trace on, its trace record."""

    __slots__ = ("node", "index", "record")

    def __init__(self, index: int):
        self.node: _Node | None = None
        self.index = index
        self.record: EdgeTraversed | None = None


class _Node:
    """A lowered routine.

    `run` is a function of the engine that runs the routine and returns
    the `_Edge` taken, None (the branch ended and the outcome is set), the
    children of a fork, one `_Edge` each, or a `_Wait` (a receive on an
    empty channel, which did nothing); it is the node's one closure, with
    no wrapper around it (see `_lower`). A fork's children meet at its
    `join` node; the last of them to arrive there calls the join's
    `passed`, which returns the join's edge, instead of its `run`, which
    faults. Lowering builds the edges once, shared by every run; the
    activation record is built on the first run that keeps a trace and
    shared by every later one, which is why node and edge records stay
    frozen (and compare by value). Only the walker records or marks them.
    `index` is the node's coverage index.
    """

    __slots__ = ("id", "activated", "index", "run", "join", "passed")

    def __init__(self, node_id: str, index: int):
        self.id = node_id
        self.activated: NodeActivated | None = None
        self.index = index
        self.run = self.join = self.passed = None


class _Program:
    """A model's routines lowered to closures (`nodes`: node id -> _Node),
    with the coverage index of every node (`node_index`) and the one
    `_Edge` of every distinct (source, target) pair they can reach
    (`edges`, in coverage index order): the graph's nodes and pairs first,
    in document order, then any the routines reach outside the graph.
    Every run starts from a copy of `bindings`, which holds every declared
    variable undefined. `traced` tells whether the trace records are
    built."""

    __slots__ = ("nodes", "node_index", "edges", "bindings", "traced")

    def __init__(self, model: ExecutableModel):
        self.bindings = dict.fromkeys(model.declared_variables(), UNDEFINED)
        self.node_index: dict[str, int] = {}
        self.edges: dict[tuple[str, str], _Edge] = {}
        self.traced = False
        for node_id, _ in model.graph.nodes:
            self.node_index.setdefault(node_id, len(self.node_index))
        edges = self.edges
        for pair in model.graph.edges:
            if pair not in edges:
                edges[pair] = _Edge(len(edges))
        nodes = self.nodes = {node_id: _lower(routine, model, self)
                              for node_id, routine in model.routines.items()}
        for (_, target), edge in edges.items():
            edge.node = nodes.get(target)
        for node in nodes.values():
            if node.join is not None:  # a fork's join id until now
                node.join = nodes.get(node.join)

    def edge(self, source: str, target: str) -> _Edge:
        edge = self.edges.get((source, target))
        if edge is None:
            edge = self.edges[source, target] = _Edge(len(self.edges))
        return edge

    def build_records(self):
        """Give every node its activation record and every edge its
        traversal record: on the first run that keeps a trace, for it and
        every later run to share."""
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


def _lower(routine, model: ExecutableModel, program: _Program) -> _Node:
    """The routine's one step as one closure, by the lowerer of its class."""
    node_id = routine.id
    node_index = program.node_index
    node = _Node(node_id, node_index.setdefault(node_id, len(node_index)))
    step = routine.step
    node.run = _LOWER[step.__class__](step, node, model, program)
    return node


# --- lowerers: each returns the node's `run` (see `_Node`); a step that names
# its successor returns a closure that does the step and returns that edge ---

def _lower_terminate(step: Terminate, node: _Node, model: ExecutableModel, program: _Program):
    outcome = ("success" if step.status == "success" else "error", step.code, step.message)
    return lambda engine: engine._set_outcome(*outcome)


def _lower_continue(step: Continue, node: _Node, model: ExecutableModel, program: _Program):
    edge = program.edge(node.id, step.target)
    return lambda engine: edge


def _lower_branch(step: Branch, node: _Node, model: ExecutableModel, program: _Program):
    cases = tuple((feel.compile_expr(condition), program.edge(node.id, target))
                  for condition, target in step.cases)
    default = None if step.default is None else program.edge(node.id, step.default)
    if len(cases) == 1 and default is not None:  # one condition and the default
        ((condition, edge),) = cases

        def branch_one(engine):
            verdict = condition(engine.bindings)
            if verdict is True:
                return edge
            if verdict is False:
                return default
            raise BprocError("condition is not boolean")
        return branch_one

    def branch(engine):
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


def _lower_fork(step: Fork, node: _Node, model: ExecutableModel, program: _Program):
    node.join = step.join_id  # its _Node once every routine is lowered
    children = tuple(program.edge(node.id, target) for target in step.targets)
    if step.conditions is None:
        return lambda engine: children
    guarded = tuple(zip(map(feel.compile_expr, step.conditions), children))

    def inclusive_fork(engine):
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


def _lower_join(step: JoinBarrier, node: _Node, model: ExecutableModel, program: _Program):
    edge = program.edge(node.id, step.next)
    node.passed = lambda engine: edge  # the last arrival from its fork (see _Engine._walk)
    message = f"join {node.id!r} reached outside its fork"

    def fault(engine):
        engine._set_outcome("fault", "ENGINE_FAULT", message)
    return fault


def _lower_consume(step: ConsumeInputs, node: _Node, model: ExecutableModel,
                   program: _Program):
    variables, edge = step.vars, program.edge(node.id, step.next)

    def consume(engine):
        input_lists, cursors = engine.input_lists, engine.cursors
        for var in variables:
            values = input_lists[var]
            j = cursors[var]
            cursors[var] = min(j + 1, len(values))
            engine._write(var, values[min(j, len(values) - 1)])
        return edge
    return consume


def _lower_assign(step: Assign, node: _Node, model: ExecutableModel, program: _Program):
    """Writes as `_Engine._write` does, without calling it."""
    var, evaluate = step.var, feel.compile_expr(step.expr)
    edge = program.edge(node.id, step.next)

    def assign(engine):
        value = engine.bindings[var] = evaluate(engine.bindings)
        if engine._record is not None:
            engine._record(VarWritten(var, value))
        if engine._forked:
            engine._note_writer(var)
        return edge
    return assign


def _lower_invoke(step: InvokeTable, node: _Node, model: ExecutableModel, program: _Program):
    table, edge = model.tables[step.table_ref], program.edge(node.id, step.next)
    # every input column bound, in column order, as the compiled table takes them
    args = tuple(feel.compile_expr(expr) for _, expr in step.arg_bindings)
    evaluator, out_bindings = table.evaluator, step.out_bindings

    def invoke(engine):
        bindings = engine.bindings
        engine._write_outputs(table.id, evaluator([arg(bindings) for arg in args]),
                              out_bindings)
        return edge
    return invoke


def _lower_send(step: Send, node: _Node, model: ExecutableModel, program: _Program):
    channel, msg_type = step.channel, step.msg_type
    parts = tuple((part, feel.compile_expr(expr)) for part, expr in step.parts)
    edge = program.edge(node.id, step.next)

    def send(engine):
        bindings = engine.bindings
        payload = {}
        for part, evaluate in parts:
            payload[part] = evaluate(bindings)
        engine._channels[channel].append((msg_type, payload))
        waiting = engine._waiting
        if channel in waiting:  # the waiters compete for the message again
            waiters = waiting.pop(channel)
            engine._ready.extend((branch, walker) for branch, walker, _ in waiters)
        return edge
    return send


class _Wait(tuple):
    """What a receive on an empty channel returns: (node id, channel)."""

    __slots__ = ()


def _lower_receive(step: Receive, node: _Node, model: ExecutableModel, program: _Program):
    """Takes the message and returns the edge that follows, or returns a
    `_Wait` while the channel is empty."""
    node_id, channel, expected, targets = node.id, step.channel, step.msg_type, step.targets
    wait, edge = _Wait((node_id, channel)), program.edge(node_id, step.next)

    def receive(engine):
        queue = engine._channels[channel]
        if not queue:
            return wait
        msg_type, payload = queue.popleft()
        if msg_type != expected:
            raise MessageTypeMismatchError(
                f"receive {node_id!r} expected message type {expected!r}, "
                f"got {msg_type!r}")
        for part, var in targets:
            if part not in payload:
                raise MessageTypeMismatchError(
                    f"message on channel {channel!r} has no part {part!r}")
            engine._write(var, payload[part])
        return edge
    return receive


#: step class -> its lowerer
_LOWER = {ConsumeInputs: _lower_consume, Assign: _lower_assign, InvokeTable: _lower_invoke,
          Send: _lower_send, Receive: _lower_receive, Branch: _lower_branch, Fork: _lower_fork,
          JoinBarrier: _lower_join, Continue: _lower_continue, Terminate: _lower_terminate}


# --- execution ------------------------------------------------------------------

class _Aborted(Exception):
    """Internal: the timeout or the step budget decided the run outcome."""


_ENDED = object()  # what `next` returns for a branch that has finished


class _Barrier:
    """Where the children of one fork meet, at the `join` node: `edges` are
    the fork edges they start over, in case order; `pending` counts the
    children that have yet to arrive at the join."""

    __slots__ = ("join", "edges", "pending", "parent")

    def __init__(self, join: _Node, edges, parent: "_Barrier | None"):
        self.join = join
        self.edges = edges
        self.pending = len(edges)
        self.parent = parent


class _Branch:
    """A branch of a run, named by its path: one (fork barrier, branch
    index) pair per fork it is inside, outermost first."""

    __slots__ = ("path",)

    def __init__(self, path: tuple):
        self.path = path


def _concurrent(a: tuple, b: tuple) -> bool:
    """Do two branch paths lie in different branches of one fork? Only
    then does no fork or join edge order what the two branches do."""
    for (fork_a, i), (fork_b, j) in zip(a, b):
        if fork_a is not fork_b:
            return False
        if i != j:
            return True
    return False


class _Engine:
    """One run. Without `hits` it keeps a trace: every node and edge
    record (shared, frozen) and a record of each variable write and table
    result (its own, built in bulk, not frozen). With a CoverageHits it keeps
    no trace and marks each node and edge the run reaches in the
    campaign's hit arrays instead."""

    def __init__(self, model: ExecutableModel, input_lists: dict, options: RunOptions,
                 hits: CoverageHits | None, seed: int | None):
        self.model = model
        self.options = options
        self._seed = seed  # of the scheduler
        self.input_lists = input_lists
        program = _program(model)
        self.bindings = program.bindings.copy()
        self.cursors = dict.fromkeys(input_lists, 0)
        if hits is None:
            if not program.traced:
                program.build_records()
            self.trace = Trace()
            self._record = self.trace.records.append
            self._node_hits = self._edge_hits = None
        else:
            self.trace = self._record = None
            self._node_hits, self._edge_hits = hits.nodes, hits.edges
        self.diagnostics: list[str] = []
        self._outcome: tuple[str, str, str] | None = None
        self._parallel = options.mode == "parallel"
        # parallel mode, from the first fork on: only then can two writes race
        self._forked = False
        self._steps = 0  # steps taken; a walker keeps its own count until it yields
        self._next_check = 1  # the next step that calls _check_limits
        self._max_steps = options.max_steps
        self._last_writer: dict[str, tuple] = {}  # variable -> path of its last writer
        self._branch: _Branch | None = None  # the branch being stepped
        self._ready: list[tuple] = []  # (branch, walker) that can step
        self._waiting: dict[str, list] = {}  # channel -> (branch, walker, receive node)
        self._channels = collections.defaultdict(collections.deque)  # channel -> messages
        self._started = time.monotonic()
        self._deadline = self._started + options.timeout_s

    # --- bookkeeping ---

    def _set_outcome(self, status: str, code: str, message: str):
        if self._outcome is None:
            self._outcome = (status, code, message)

    def _check_limits(self, steps: int) -> int:
        """Called by the walker on the step that reads the clock (the first,
        then every CLOCK_EVERY, so the step budget, not the machine's speed,
        ends a run that exhausts it) and on the first step past the budget.
        Returns the next such step, which it also keeps in `_next_check`."""
        if steps % CLOCK_EVERY == 1 and time.monotonic() > self._deadline:
            self._set_outcome("timeout", "TIMEOUT",
                              f"execution exceeded {self.options.timeout_s:g}s")
            raise _Aborted()
        if steps > self._max_steps:
            self._set_outcome("fault", "ENGINE_FAULT",
                              f"step budget of {self._max_steps} exceeded")
            raise _Aborted()
        self._next_check = min(steps + CLOCK_EVERY, self._max_steps + 1)
        return self._next_check

    def _write_outputs(self, table_id: str, outputs: dict, out_bindings: tuple):
        if self._record is not None:
            self._record(TableEvaluated(table_id, tuple(sorted(outputs.items()))))
        for out_name, var in out_bindings:
            self._write(var, outputs[out_name])

    def _write(self, name: str, value):
        self.bindings[name] = value
        if self._record is not None:
            self._record(VarWritten(name, value))
        if self._forked:
            self._note_writer(name)

    def _note_writer(self, name: str):
        """Parallel mode, once forked: note `name` if no fork or join orders
        its writes. A write before the first fork has the empty path, which
        is concurrent with none, so it need not be noted."""
        path = self._branch.path
        last = self._last_writer.get(name)
        self._last_writer[name] = path
        if last is not None and _concurrent(last, path):
            note = f"variable {name!r} written by several parallel branches"
            if note not in self.diagnostics:
                self.diagnostics.append(note)

    # --- scheduling ---

    def run(self):
        """Step the branches, from the entry node, until the run has an outcome."""
        parallel = self._parallel
        ready = self._ready
        walk = self._walk
        root = _Branch(())
        ready.append((root, walk(_program(self.model).nodes[self.model.entry], None, None,
                                 root)))
        getrandbits = None  # bound when two branches first compete for a step
        try:
            while ready and self._outcome is None:
                index = -1  # sequential: the top of the stack
                n = len(ready)
                if parallel and n > 1:
                    if getrandbits is None:
                        getrandbits = random.Random(self._seed).getrandbits
                    # Random.randrange(n), inlined: the same draws, one for one
                    k = n.bit_length()
                    index = getrandbits(k)
                    while index >= n:
                        index = getrandbits(k)
                branch, walker = ready[index]
                self._branch = branch
                event = next(walker, _ENDED)
                if event is None:  # a node boundary: the branch stays runnable
                    continue
                del ready[index]
                if event is _ENDED:
                    continue
                if event.__class__ is _Barrier:  # a fork: its walker goes on as the first case
                    self._forked = parallel
                    path, edges = branch.path, event.edges
                    for i in range(len(edges) - 1, 0, -1):
                        edge = edges[i]
                        child = _Branch(path + ((event, i),))
                        ready.append((child, walk(edge.node, event, edge, child)))
                    branch.path = path + ((event, 0),)
                    ready.append((branch, walker))
                else:  # the _Wait of a receive on an empty channel
                    node, channel = event
                    if parallel:
                        self._waiting.setdefault(channel, []).append((branch, walker, node))
                    else:
                        self._set_outcome("fault", "ENGINE_FAULT",
                                          f"sequential deadlock: receive {node!r} blocked "
                                          f"on empty channel {channel!r}")
        except _Aborted:
            pass
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

    # --- one branch ---

    def _walk(self, node: _Node, barrier: _Barrier | None, entry: _Edge | None,
              branch: _Branch):
        """Run one branch from `node`, entered over the fork edge `entry`
        when it has one. Records, or marks in the campaign's hit arrays, the
        fork edge, each activated node and each edge taken, in that order.

        In parallel mode, yields None after a node and its edge when another
        branch is ready (a send can make waiters ready in the middle of a
        node); a lone branch keeps the step, as the scheduler would give it
        back without a draw. In both modes, yields the `_Wait` of a receive
        on an empty channel, and calls the receive node's `run` again once
        resumed, in the same step; and yields the barrier of the children
        at a fork: the scheduler starts a walker for every case but the
        first, and this one goes on as the first once resumed. Ends at a
        join some other branch still has to reach, or once the run has an
        outcome. A sequential branch keeps the only step until it yields,
        so it needs no node boundaries. The step count is a local, read
        from the engine on every resume and written back where the walker
        yields or waits at a join (once the run has an outcome, it is not
        read again), and compared with one step: the next to check limits.
        """
        record = self._record
        node_hits, edge_hits = self._node_hits, self._edge_hits
        parallel = self._parallel
        ready = self._ready
        join = None if barrier is None else barrier.join
        if entry is not None:
            if edge_hits is None:
                record(entry.record)
            else:
                edge_hits[entry.index] = 1
        steps, next_check = self._steps, self._next_check
        while True:
            run = node.run
            if node is join:
                barrier.pending -= 1
                if barrier.pending:
                    self._steps = steps
                    return  # the last arrival will continue past the join
                barrier = barrier.parent  # the last arrival: on over the join's edge
                join = None if barrier is None else barrier.join
                branch.path = branch.path[:-1]  # the fork's own branch again
                run = node.passed
            steps += 1
            if steps >= next_check:
                self._steps = steps
                next_check = self._check_limits(steps)
            if node_hits is None:
                record(node.activated)
            else:
                node_hits[node.index] = 1
            try:
                taken = run(self)
                if taken.__class__ is not _Edge:
                    if taken is None:  # the outcome is set
                        return
                    self._steps = steps
                    if taken.__class__ is not _Wait:  # a fork: on as its first case
                        barrier = _Barrier(node.join, taken, barrier)
                        yield barrier
                        steps, next_check = self._steps, self._next_check
                        join, entry = barrier.join, taken[0]
                        if edge_hits is None:
                            record(entry.record)
                        else:
                            edge_hits[entry.index] = 1
                        node = entry.node
                        continue
                    while taken.__class__ is _Wait:  # an empty channel: run again once resumed
                        yield taken
                        taken = run(self)
                    steps, next_check = self._steps, self._next_check
            except BprocError as exc:
                self._set_outcome("fault", "ENGINE_FAULT", f"{node.id}: {exc}")
                return
            if edge_hits is None:
                record(taken.record)
            else:
                edge_hits[taken.index] = 1
            node = taken.node
            if parallel and len(ready) > 1:
                self._steps = steps
                yield
                steps, next_check = self._steps, self._next_check


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
    return run_covering(model, input_lists, options, options.seed)


class CoverageHits:
    """A campaign's coverage of a model: one byte per node and one per
    distinct (source, target) pair, set to 1 once a run reaches it, in
    the manner of AFL's edge bitmap (Zalewski, "AFL technical details").
    `node_ids` and `edge_pairs` name the indexes; the graph's own nodes
    and pairs come first, in document order."""

    def __init__(self, model: ExecutableModel):
        program = _program(model)
        self._node_index, self._edges = program.node_index, program.edges
        self.node_ids = tuple(program.node_index)
        self.edge_pairs = tuple(program.edges)
        self.nodes = bytearray(len(self.node_ids))
        self.edges = bytearray(len(self.edge_pairs))

    def fold(self, trace: Trace):
        """Mark the nodes and edges of a `run_once` trace; skip its writes."""
        node_index, edge_of = self._node_index, self._edges
        nodes, edges = self.nodes, self.edges
        for record in trace.records:
            if record.__class__ is NodeActivated:
                nodes[node_index[record.node]] = 1
            elif record.__class__ is EdgeTraversed:
                edges[edge_of[record.source, record.target].index] = 1


def run_covering(model: ExecutableModel, input_lists: dict[str, list], options: RunOptions,
                 seed: int | None,
                 hits: CoverageHits | None = None) -> tuple[Trace | None, RunSummary]:
    """Execute the model once as run_once does, with `seed` seeding the
    scheduler: run_once's one engine entry, after its checks, with
    `options.seed`, and a campaign's for each of its runs, with the
    campaign's options and the run's seed (the campaign has already made
    run_once's checks). With `hits`, the run marks the nodes and edges it
    reaches in them and builds no trace (the trace returned is None);
    without, it keeps its trace."""
    engine = _Engine(model, input_lists, options, hits, seed)
    engine.run()
    status, code, message = engine._outcome
    inputs_used = {s.name: input_lists[s.name][0] for s in model.input_vars}
    summary = RunSummary(inputs_used, status, code, message,
                         elapsed_s=time.monotonic() - engine._started,
                         diagnostics=engine.diagnostics)
    return engine.trace, summary


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
            node_id = record.node
            yield node_lines.get(node_id) or f"node {node_id} {_label_token('', node_id)}"
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
