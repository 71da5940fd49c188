"""Lowering of a process model plus its decision tables into an executable
model: one routine per element, one evaluator per table, plus the inferred
input specifications. A readable source rendering is available for
inspection. The routines are plain data; the runtime lowers them once per
model, on its first run, into closures (`runtime` module), and each used
table compiles itself once into a closure with its output entries folded
(`dmn` module), which type inference reads too.

Compiling is one pass over the nodes, each lowered by the `_Lowering`
method of its kind and named by the display prefix of its kind, both
found in one lookup (`_LOWERERS`); each parallel or inclusive split finds
its join in a search over the flow index that parsing built
(`_matching_join`). Then come type and domain inference over one list of
expressions. Type inference reads what parsing found when it walked each
expression (`ProcessModel.variable_uses`: free variables and type
evidence), so only the input expressions of a table and the expressions
its cells test (`x <= 9` for the cell `<= 9` of a column bound to `x`),
which parsing did not see, are scanned here. Domain inference walks again
each expression that reads an input variable (`inputs.facts_from_expr`)
and skips the rest. Each business rule task is
resolved once, when it is lowered, into its `InvokeTable` step (every
binding, an ioMapping side it leaves out defaulted to the table's
columns); inference reads the task from that step and its table. Output
type inference evaluates every entry of each table column a task writes,
so such an entry that raises fails compilation, its message starting
with its table, rule and output column, as a cell the DMN parser cannot
read does.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from functools import partial

from . import dmn, feel, inputs as inputs_mod
from .bpmn import (ProcessGraph, ProcessModel, Scanned, SequenceFlow, classify_variables,
                   collector_paused, extract_graph)
from .errors import SchemaError, UnresolvedTableError
from .feel import ast
from .feel.types import StaticType, apply_evidence, join, scan, synthesize

# --- steps -----------------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class ConsumeInputs:
    vars: tuple[str, ...]  # each takes the next value of its input list, in order
    next: str


@dataclass(slots=True, unsafe_hash=True)
class Assign:
    var: str
    expr: ast.FeelExpr
    next: str


@dataclass(slots=True, unsafe_hash=True)
class InvokeTable:
    table_ref: str
    arg_bindings: tuple[tuple[str, ast.FeelExpr], ...]  # every table input, in column order
    out_bindings: tuple[tuple[str, str], ...]  # table output -> variable
    next: str


@dataclass(slots=True, unsafe_hash=True)
class Send:
    channel: str
    msg_type: str
    parts: tuple[tuple[str, ast.FeelExpr], ...]
    next: str


@dataclass(slots=True, unsafe_hash=True)
class Receive:
    """Waits while the channel is empty, then takes its first message."""

    channel: str
    msg_type: str
    targets: tuple[tuple[str, str], ...]  # part -> variable
    next: str


@dataclass(slots=True, unsafe_hash=True)
class Branch:
    """First case whose condition holds wins; otherwise the default target;
    with no default the run ends with an unhandled-condition failure."""

    cases: tuple[tuple[ast.FeelExpr, str], ...]
    default: str | None


@dataclass(slots=True, unsafe_hash=True)
class Fork:
    targets: tuple[str, ...]
    join_id: str
    conditions: tuple[ast.FeelExpr, ...] | None = None  # None: start every branch


@dataclass(slots=True, unsafe_hash=True)
class JoinBarrier:
    next: str  # expected arrivals are fixed per fork at run time


@dataclass(slots=True, unsafe_hash=True)
class Continue:
    """A pass-through node: an exclusive join, or an input node without
    variables."""

    target: str


@dataclass(slots=True, unsafe_hash=True)
class Terminate:
    status: str  # "success" | "error"
    code: str
    message: str


Step = (ConsumeInputs | Assign | InvokeTable | Send | Receive | Branch | Fork
        | JoinBarrier | Continue | Terminate)


@dataclass(slots=True, unsafe_hash=True)
class Routine:
    """One node's procedure: a single step. A step that neither ends nor
    splits the branch names the routine that follows it (`next`, or a
    `Continue`'s `target`); the runtime lowers each step to one closure."""

    id: str
    display_name: str
    step: Step

    @property
    def steps(self) -> tuple[Step]:
        """`(step,)`, as the benchmark's layer trace (`perfbench/tracing.py`)
        counts them."""
        return (self.step,)


@dataclass
class ExecutableModel:
    process_id: str
    name: str
    entry: str
    routines: dict[str, Routine]
    tables: dict[str, dmn.DecisionTable]
    graph: ProcessGraph
    input_vars: list[inputs_mod.InputSpec]
    process_vars: list[tuple[str, StaticType]]
    diagnostics: list[str] = field(default_factory=list)
    # The runtime's lowered form of the routines (closures), built on the
    # first run; it is not pickled, and an unpickled model builds it again.
    program: object = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {**self.__dict__, "program": None}

    def declared_variables(self) -> list[str]:
        return [s.name for s in self.input_vars] + [n for n, _ in self.process_vars]

    def input_spec(self, name: str) -> inputs_mod.InputSpec:
        return next(s for s in self.input_vars if s.name == name)


def _safe_label(label: str) -> str:
    """A label as it ends a display name: `<PREFIX>_<id>_<label>`, each
    character that is not a letter or digit made `_`."""
    return "".join(c if c.isalnum() else "_" for c in label)


@collector_paused
def compile_model(model: ProcessModel, tables, *, sample_seed: int = 0) -> ExecutableModel:
    """Translate a validated model and its tables into the executable form.

    Deterministic: identical inputs (including sample_seed) give identical
    results and byte-identical rendered source. Runs with the cyclic
    collector paused, as `parse_bpmn` does.
    """
    roles = classify_variables(model, tables)
    diagnostics = list(model.diagnostics)

    out, _ = model.adjacency
    lowering = _Lowering(model, dmn.by_reference(tables))
    routines: dict[str, Routine] = {}
    for node in model.nodes:
        kind, node_id, label = node.kind, node.id, node.label
        try:
            lower, prefix = _LOWERERS[kind]
        except KeyError:
            raise SchemaError(f"cannot lower node kind {kind!r}") from None
        name = f"{prefix}_{node_id}"
        if label and label != node_id:
            name += f"_{_safe_label(label)}"
        routines[node_id] = Routine(node_id, name, lower(lowering, node, out[node_id]))

    calls = lowering.table_calls
    expressions, opaque = _expressions(model, calls)
    types = _infer_variable_types(model, calls, roles, diagnostics, expressions)
    domains, domain_diags = _infer_input_domains(roles, expressions, opaque)
    diagnostics.extend(domain_diags)

    rng = random.Random(sample_seed)
    input_specs = inputs_mod.build_input_specs(roles, types, domains, rng)
    string = StaticType.STRING
    process_vars = [(name, types.get(name, string))
                    for name in sorted(roles) if roles[name].role == "process"]

    return ExecutableModel(
        process_id=model.process_id,
        name=model.name,
        entry=model.start.id,
        routines=routines,
        tables={step.table_ref: table for step, table in calls.values()},
        graph=extract_graph(model),
        input_vars=input_specs,
        process_vars=process_vars,
        diagnostics=diagnostics,
    )


#: business rule task id -> (the table call it lowered to, the table called)
TableCalls = dict[str, tuple[InvokeTable, dmn.DecisionTable]]


class _Lowering:
    """Lowers each node to its one step: one method per node kind (see
    `_LOWERERS`), given the node and its outgoing flows."""

    def __init__(self, model: ProcessModel, by_ref: dict[str, dmn.DecisionTable]):
        self.out, _ = model.adjacency
        self.barriers = {n.id for n in model.nodes
                         if n.kind == "join_gateway" and n.join_kind in ("parallel", "inclusive")}
        self.by_ref = by_ref
        self.table_calls: TableCalls = {}  # each business rule task, in node order

    def inputs(self, node, outgoing) -> Step:
        variables = tuple(dict.fromkeys(node.writes))
        if not variables:
            return Continue(outgoing[0].target)
        return ConsumeInputs(variables, outgoing[0].target)

    def end_success(self, node, outgoing) -> Step:
        return Terminate("success", node.id, node.label)

    def end_error(self, node, outgoing) -> Step:
        return Terminate("error", node.error_code or f"ERR_{node.id}",
                         node.error_description or node.label)

    def assign(self, node, outgoing) -> Step:
        return Assign(node.target, node.expr, outgoing[0].target)

    def invoke_table(self, node, outgoing) -> Step:
        table = self.by_ref.get(node.table_ref)
        if table is None:
            raise UnresolvedTableError(node.table_ref)
        labels = [label for label, _ in table.inputs]
        if node.input_map is not None:
            bound = dict(node.input_map)
            unknown = sorted(set(bound) - set(labels))
            if unknown:
                raise SchemaError(f"task {node.id!r} binds unknown table inputs {unknown}")
            missing = sorted(set(labels) - set(bound))
            if missing:
                raise SchemaError(f"task {node.id!r} leaves table inputs {missing} unbound")
            arg_bindings = tuple((label, bound[label]) for label in labels)
        else:
            arg_bindings = table.inputs
        if node.output_map is not None:
            unknown = sorted(set(o for o, _ in node.output_map) - set(table.outputs))
            if unknown:
                raise SchemaError(f"task {node.id!r} maps unknown table outputs {unknown}")
            out_bindings = tuple(node.output_map)
        else:
            out_bindings = tuple((out, out) for out in table.outputs)
        step = InvokeTable(node.table_ref, arg_bindings, out_bindings, outgoing[0].target)
        self.table_calls[node.id] = step, table
        return step

    def send(self, node, outgoing) -> Step:
        return Send(node.channel, node.msg_type, node.send_parts, outgoing[0].target)

    def receive(self, node, outgoing) -> Step:
        return Receive(node.channel, node.msg_type, node.receive_parts, outgoing[0].target)

    def branch(self, node, outgoing) -> Step:
        cases = []
        default = None
        for flow in outgoing:
            if flow.is_default:
                default = flow.target
            elif flow.condition is None:
                raise SchemaError(f"gateway {node.id!r}: flow {flow.id!r} has neither a "
                                  f"condition nor the default mark")
            else:
                cases.append((flow.condition, flow.target))
        return Branch(tuple(cases), default)

    def fork(self, node, outgoing) -> Step:
        join_id = _matching_join(node.id, self.out, self.barriers)
        targets = []
        for flow in outgoing:
            targets.append(flow.target)
        targets = tuple(targets)
        if node.kind == "parallel_gateway":
            return Fork(targets, join_id)
        conditions = []
        for flow in outgoing:
            if flow.condition is None and not flow.is_default:
                raise SchemaError(f"inclusive gateway {node.id!r}: flow {flow.id!r} "
                                  f"needs a condition")
            conditions.append(flow.condition or ast.Lit(True))
        return Fork(targets, join_id, tuple(conditions))

    def join(self, node, outgoing) -> Step:
        if node.join_kind in ("parallel", "inclusive"):
            return JoinBarrier(outgoing[0].target)
        return Continue(outgoing[0].target)


#: node kind -> (the `_Lowering` method that lowers it, the prefix of its
#: routine's display name)
_LOWERERS = {
    "start": (_Lowering.inputs, "EVENT"), "user_task": (_Lowering.inputs, "TASK"),
    "manual_task": (_Lowering.inputs, "TASK"),
    "end_success": (_Lowering.end_success, "EVENT"), "end_error": (_Lowering.end_error, "EVENT"),
    "script_task": (_Lowering.assign, "TASK"), "service_task": (_Lowering.assign, "TASK"),
    "business_rule_task": (_Lowering.invoke_table, "TASK"),
    "send_task": (_Lowering.send, "TASK"), "receive_task": (_Lowering.receive, "TASK"),
    "exclusive_gateway": (_Lowering.branch, "GATEWAY"),
    "parallel_gateway": (_Lowering.fork, "GATEWAY"),
    "inclusive_gateway": (_Lowering.fork, "GATEWAY"),
    "join_gateway": (_Lowering.join, "GATEWAY"),
}


def _matching_join(gateway_id: str, out: dict[str, list[SequenceFlow]],
                   barriers: set[str]) -> str:
    """The parallel/inclusive join every branch of the split reaches: the one
    with the least maximum BFS distance over the branches, ties broken on id.

    The branches' searches advance one level at a time, together, as one
    search whose frontier maps each node to the bits of the branches that
    reach it first at this level; `reached` holds the bits of every branch
    that has reached a node. The search stops at the first level where a
    barrier is reached by all branches, so it covers the split's region,
    not the whole model.
    """
    frontier: dict[str, int] = {}
    bit = 1
    for flow in out[gateway_id]:
        target = flow.target
        frontier[target] = frontier.get(target, 0) | bit
        bit <<= 1
    every = bit - 1
    reached = dict(frontier)
    while frontier:
        complete = None
        for node_id in frontier:
            if node_id in barriers and reached[node_id] == every \
                    and (complete is None or node_id < complete):
                complete = node_id
        if complete is not None:
            return complete
        level: dict[str, int] = {}
        for node_id, bits in frontier.items():
            for flow in out[node_id]:
                target = flow.target
                seen = reached.get(target, 0)
                new = bits & ~seen
                if new:
                    reached[target] = seen | new
                    level[target] = level.get(target, 0) | new
        frontier = level
    raise SchemaError(f"parallel/inclusive split {gateway_id!r} has no join gateway "
                      f"reachable from every branch")


# --- variable typing and input domains --------------------------------------

def _expressions(model: ProcessModel, calls: TableCalls):
    """Every expression the inference reads, with its free variables and
    type evidence: the flow conditions, each node's in step order, then the
    expressions the table cells test (`_cell_facts`); and the domain facts
    of table columns bound to more than a plain variable. The model's own
    expressions were walked when it was parsed (`ProcessModel.variable_uses`);
    only the arguments of a table call that a business rule task leaves to
    its table, and the cells, are walked here."""
    uses = model.variable_uses
    expressions = list(uses.conditions)
    for node, scanned in uses.writers:
        if scanned is None:
            step, _ = calls[node.id]
            scanned = [(expr, *scan(expr)) for _, expr in step.arg_bindings]
        expressions.extend(scanned)
    opaque = []
    for step, table in calls.values():
        tested, richer = _cell_facts(step, table)
        expressions.extend(tested)
        opaque.extend(richer)
    return expressions, opaque


def _cell_facts(step: InvokeTable, table: dmn.DecisionTable):
    """The expressions that the cells of each column bound to a plain
    variable test (`_test_as_exprs`), scanned, in column then rule order;
    and an unhandled-domain fact for each variable of a column bound to
    anything richer."""
    tested: list[Scanned] = []
    opaque = []
    for j, (_, expr) in enumerate(step.arg_bindings):  # in column order
        if isinstance(expr, ast.Var):
            for rule in table.rules:
                for test_expr in _test_as_exprs(expr.name, rule.input_entries[j]):
                    tested.append((test_expr, *scan(test_expr)))
        else:
            fact = inputs_mod._Fact("other", source=feel.render(expr))
            opaque.extend((var, fact) for var in sorted(ast.free_variables(expr)))
    return tested, opaque


def _test_as_exprs(var: str, test: ast.UnaryTest):
    """The expressions a cell bound to `var` tests, such as `var <= 9` for
    `<= 9`; a dash and an equality with null test none."""
    if isinstance(test, ast.EqualsConst) and test.value is not None:
        yield ast.BinOp("=", ast.Var(var), ast.Lit(test.value))
    elif isinstance(test, ast.Comparison):
        yield ast.BinOp(test.op, ast.Var(var), test.operand)
    elif isinstance(test, ast.RangeTest):
        r = test.range
        yield ast.InTest(ast.Var(var),
                         ast.RangeLit(ast.Lit(r.lo), ast.Lit(r.hi), r.lo_incl, r.hi_incl))
    elif isinstance(test, ast.Negation):
        yield from _test_as_exprs(var, test.inner)
    elif isinstance(test, ast.Disjunction):
        for alt in test.alternatives:
            yield from _test_as_exprs(var, alt)


def _infer_variable_types(model, calls: TableCalls, roles, diagnostics,
                          expressions: list[Scanned]) -> dict[str, StaticType]:
    types: dict[str, StaticType] = {}
    for _, _, evidence in expressions:
        apply_evidence(types, evidence)
    unknown = StaticType.UNKNOWN
    for name in roles:
        types.setdefault(name, unknown)

    _propagate_assigned_types(model, calls, roles, types)

    annotated = None
    for name, t in list(types.items()):
        if t is unknown:
            if annotated is None:
                annotated = _annotated(model)
            if name not in annotated:
                diagnostics.append(f"variable {name!r} has no type evidence and no "
                                   f"annotation; compiled as String")
            types[name] = StaticType.STRING
    return types


def _annotated(model) -> set[str]:
    """The variables some node names as written, read or assigned."""
    annotated = set()
    for node in model.nodes:
        annotated.update(node.writes)
        annotated.update(node.reads)
        if node.target:
            annotated.add(node.target)
    return annotated


def _propagate_assigned_types(model, calls: TableCalls, roles, types) -> None:
    """Join into `types` the type of every value a task assigns, to a fixpoint.

    The result and any TypeConflictError are those of rounds that each visit
    every writer in document order, until a round changes nothing, with a
    receive taking its message parts' types as of the round's start. A
    round here visits only the writers whose operands changed since their
    last visit (every writer in the first), so a chain of assignments
    settles in any order; each variable's type changes at most twice, which
    keeps the work linear in the model.
    """
    writers = []
    part_exprs = {}  # (channel, message type, part) -> its expression in the last send
    for node, _ in model.variable_uses.writers:
        if node.kind == "send_task":
            for part, expr in node.send_parts:
                part_exprs[(node.channel, node.msg_type, part)] = (node.id, expr)
        else:
            writers.append(node)
    position = {node.id: i for i, node in enumerate(writers)}
    parts_sent_by: dict[str, list] = {}
    for key, (node_id, _) in part_exprs.items():
        parts_sent_by.setdefault(node_id, []).append(key)
    receivers: dict[tuple, list[int]] = {}
    for i, node in enumerate(writers):
        if node.kind == "receive_task":
            for part, _ in node.receive_parts:
                receivers.setdefault((node.channel, node.msg_type, part), []).append(i)

    part_types: dict[tuple, StaticType] = {}
    changed: list[str] = []
    unknown = StaticType.UNKNOWN

    def note(name, t):
        current = types.get(name)
        joined = join(unknown if current is None else current, t, name)
        if joined is not current:
            types[name] = joined
            changed.append(name)

    round_ = list(range(len(writers)))
    stale_parts = set(part_exprs)
    while round_ or stale_parts:
        queued = set(round_)
        for key in stale_parts:
            t = synthesize(part_exprs[key][1], types)
            if t is not part_types.get(key):
                part_types[key] = t
                queued.update(receivers.get(key, ()))
        round_ = sorted(queued)
        next_round: set[int] = set()
        stale_parts = set()
        while round_:
            i = heapq.heappop(round_)
            node = writers[i]
            if node.kind in ("script_task", "service_task"):
                note(node.target, synthesize(node.expr, types))
            elif node.kind == "business_rule_task":
                step, table = calls[node.id]
                for out_name, var in step.out_bindings:
                    col = table.outputs.index(out_name)
                    for rule in range(len(table.rules)):
                        # folded once per table; an entry that raises is located
                        value = dmn._located(partial(table.output_value, rule), col,
                                             f"table {table.id!r} rule {rule + 1} output {col + 1}")
                        if value is not None:
                            note(var, feel.type_of_constant(value))
            else:
                for part, var in node.receive_parts:
                    t = part_types.get((node.channel, node.msg_type, part))
                    if t is not None:
                        note(var, t)
            for name in changed:
                role = roles.get(name)
                for reader in role.readers if role is not None else ():
                    j = position.get(reader)
                    if j is None:
                        stale_parts.update(parts_sent_by.get(reader, ()))
                    elif j <= i:
                        next_round.add(j)
                    elif j not in queued:
                        queued.add(j)
                        heapq.heappush(round_, j)
            changed.clear()
        round_ = list(next_round)


def _infer_input_domains(roles, expressions: list[Scanned], opaque: list):
    input_vars = {n for n, role in roles.items() if role.role == "input"}
    # only a name that is read gives a fact, and every name read is free
    # but `item` in a filter
    every = "item" in input_vars
    facts = []
    for expr, free, _ in expressions:
        if every or not free.isdisjoint(input_vars):
            facts.extend(inputs_mod.facts_from_expr(expr, input_vars))
    return inputs_mod.infer_domains(input_vars, facts + opaque)


# --- readable source ---------------------------------------------------------

def render_source(x: ExecutableModel) -> str:
    """Human-readable imperative rendering of the executable model, one
    procedure per routine plus the init/execute/main preamble."""
    out: list[str] = [f"model {x.process_id} \"{x.name}\"", ""]
    out.append("inputs:")
    for spec in x.input_vars:
        out.append(f"  {spec.name} : {spec.static_type} : "
                   f"{inputs_mod.render_domain(spec.domain)}")
    out.append("process variables:")
    for name, static_type in x.process_vars:
        out.append(f"  {name} : {static_type}")
    out.append("")

    unique_tables = {table.id: table for table in x.tables.values()}
    for table_id in sorted(unique_tables):
        table = unique_tables[table_id]
        out.append(f"table {table.id} \"{table.name}\" hit policy {table.hit_policy}")
        out.append("  inputs:  " + ", ".join(f"{label} = {feel.render(expr)}"
                                             for label, expr in table.inputs))
        out.append("  outputs: " + ", ".join(table.outputs))
        for i, rule in enumerate(table.rules, start=1):
            cells = ", ".join(feel.render_unary_test(t) for t in rule.input_entries)
            assigns = ", ".join(f"{name} := {feel.render(e)}"
                                for name, e in zip(table.outputs, rule.output_entries))
            out.append(f"  rule {i}: [{cells}] -> {assigns}")
        out.append("")

    for node_id, _ in x.graph.nodes:  # document order
        routine = x.routines[node_id]
        out.append(f"proc {routine.display_name}:")
        out.extend("  " + line for line in _render_step(routine.step, x))
        out.append("")

    out.append("init: every variable := undefined")
    out.append(f"execute: call {x.routines[x.entry].display_name}")
    out.append("main: init; execute")
    out.append("")
    return "\n".join(out)


def _render_step(step: Step, x: ExecutableModel) -> list[str]:
    name = lambda node_id: x.routines[node_id].display_name
    call = lambda node_id: f"call {name(node_id)}"
    if isinstance(step, ConsumeInputs):
        return [f"{var} := next input value for {var}" for var in step.vars] + [call(step.next)]
    if isinstance(step, Assign):
        return [f"{step.var} := {feel.render(step.expr)}", call(step.next)]
    if isinstance(step, InvokeTable):
        args = ", ".join(f"{label} := {feel.render(e)}" for label, e in step.arg_bindings)
        outs = ", ".join(f"{var} := {out}" for out, var in step.out_bindings)
        return [f"result := {step.table_ref}({args})", f"unpack {outs}", call(step.next)]
    if isinstance(step, Send):
        parts = ", ".join(f"{p} := {feel.render(e)}" for p, e in step.parts)
        return [f"send {step.msg_type}({parts}) on channel {step.channel}", call(step.next)]
    if isinstance(step, Receive):
        parts = ", ".join(f"{var} := {p}" for p, var in step.targets)
        return [f"receive {step.msg_type} from channel {step.channel}; {parts}",
                call(step.next)]
    if isinstance(step, Branch):
        lines = [f"if {feel.render(cond)}: {call(target)}" for cond, target in step.cases]
        if step.default is not None:
            lines.append(f"else: {call(step.default)}  (default)")
        else:
            lines.append("else: fail \"unhandled condition\"")
        return lines
    if isinstance(step, Fork):
        if step.conditions is None:
            branches = ", ".join(name(t) for t in step.targets)
            return [f"fork {branches}; join at {name(step.join_id)}"]
        branches = ", ".join(f"{name(t)} if {feel.render(c)}"
                             for t, c in zip(step.targets, step.conditions))
        return [f"fork {branches}; join at {name(step.join_id)}"]
    if isinstance(step, JoinBarrier):
        return [f"await all branches; {call(step.next)}"]
    if isinstance(step, Continue):
        return [call(step.target)]
    if isinstance(step, Terminate):
        return [f"end {step.status} code={step.code} message=\"{step.message}\""]
    raise TypeError(step)
