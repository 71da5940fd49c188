"""BPMN 2.0 XML parsing into a validated process model.

Element matching is by local name, so the standard namespaces and the
common vendor extension namespaces (calledDecision / ioMapping / script)
are all accepted. Parsing also applies the multiple-outgoing-flow fix:
a task with several outgoing flows gets an inserted exclusive gateway
(`autogw_<taskId>`) carrying those flows, keeping traces traceable to the
original diagram.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property

from . import feel, safexml
from .errors import RoleConflictError, SchemaError, UnsupportedElementError
from .feel import ast

log = logging.getLogger("bproc")

TASK_KINDS = ("user_task", "manual_task", "script_task", "service_task",
              "business_rule_task", "send_task", "receive_task")
INPUT_WRITER_KINDS = ("start", "user_task", "manual_task")

_UNSUPPORTED = {"eventBasedGateway", "complexGateway", "boundaryEvent", "subProcess",
                "intermediateCatchEvent", "intermediateThrowEvent", "callActivity",
                "transaction", "adHocSubProcess"}
_SKIPPED = {"laneSet", "lane", "textAnnotation", "association", "documentation",
            "dataObject", "dataObjectReference", "dataStoreReference", "extensionElements",
            "ioSpecification", "category", "group"}


@dataclass(frozen=True)
class Node:
    id: str
    label: str
    kind: str
    # variables written/read through data associations or io mappings
    writes: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()
    # end events
    error_code: str | None = None
    error_description: str | None = None
    # script / service tasks
    expr: ast.FeelExpr | None = None
    target: str | None = None
    # business rule tasks
    table_ref: str | None = None
    input_map: tuple[tuple[str, ast.FeelExpr], ...] | None = None  # table label <- expr
    output_map: tuple[tuple[str, str], ...] | None = None  # table output -> variable
    # send / receive tasks
    channel: str | None = None
    msg_type: str | None = None
    send_parts: tuple[tuple[str, ast.FeelExpr], ...] = ()
    receive_parts: tuple[tuple[str, str], ...] = ()  # part -> variable
    # join gateways
    join_kind: str | None = None


@dataclass(frozen=True)
class SequenceFlow:
    id: str
    source: str
    target: str
    condition: ast.FeelExpr | None = None
    is_default: bool = False


@dataclass(frozen=True)
class VariableRole:
    role: str  # "input" | "process"
    writers: frozenset[str]
    readers: frozenset[str]


@dataclass(frozen=True)
class MessageDef:
    id: str
    name: str


@dataclass(frozen=True)
class ProcessGraph:
    nodes: tuple[tuple[str, str], ...]  # (id, label) in document order
    edges: tuple[tuple[str, str], ...]  # (source id, target id) in document order

    @cached_property
    def node_ids(self) -> frozenset[str]:
        return frozenset(node_id for node_id, _ in self.nodes)

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    @cached_property
    def node_lines(self) -> dict[str, str]:
        """node id -> its `node <id> <label>` line in graph and trace files."""
        return {node_id: f"node {node_id} {_label_token(label, node_id)}"
                for node_id, label in self.nodes}


def _label_token(label: str, node_id: str) -> str:
    token = (label or node_id).strip().replace(" ", "_")
    return token or node_id


@dataclass
class ProcessModel:
    process_id: str
    name: str
    nodes: list[Node]
    flows: list[SequenceFlow]
    messages: list[MessageDef]
    diagnostics: list[str] = field(default_factory=list)

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(node_id)

    @property
    def start(self) -> Node:
        return next(n for n in self.nodes if n.kind == "start")


def adjacency(flows) -> tuple[dict[str, list[SequenceFlow]], dict[str, list[SequenceFlow]]]:
    """(outgoing, incoming): node id -> its flows, in document order. A node
    without flows on a side maps to an empty list."""
    out: dict[str, list[SequenceFlow]] = defaultdict(list)
    inc: dict[str, list[SequenceFlow]] = defaultdict(list)
    for flow in flows:
        out[flow.source].append(flow)
        inc[flow.target].append(flow)
    return out, inc


def _local(tag) -> str:
    return tag.rsplit("}", 1)[-1]


def _children_named(element, *names):
    return [c for c in element if _local(c.tag) in names]


def _strip_expr(text: str) -> str:
    text = (text or "").strip()
    return text[1:].strip() if text.startswith("=") else text


def parse_bpmn(data: bytes | str) -> ProcessModel:
    """Parse one BPMN document (one process) into a preprocessed, validated model."""
    root = safexml.fromstring(data, "BPMN")

    processes, messages, errors, data_names = [], [], {}, {}
    has_participant = False
    for el in root.iter():  # one walk over the document collects every kind
        tag = _local(el.tag)
        if tag == "process":
            processes.append(el)
        elif tag == "participant":
            has_participant = True
        elif tag == "message":
            messages.append(MessageDef(el.get("id") or el.get("name"),
                                       el.get("name") or el.get("id")))
        elif tag == "error":
            errors[el.get("id")] = (el.get("errorCode"), el.get("name"))
        elif tag in ("dataObjectReference", "dataObject"):
            data_names[el.get("id")] = el.get("name") or el.get("id")
    if not processes:
        raise SchemaError("document contains no process element")
    if len(processes) > 1:
        raise SchemaError("document contains more than one process; one per file is supported")
    process = processes[0]

    if has_participant:
        log.warning("pools/lanes present; they carry no execution semantics and are skipped")

    message_names = {m.id: m.name for m in messages}

    builder = _Builder(errors, data_names, message_names)
    for element in process:
        builder.add(element)

    model = ProcessModel(
        process_id=process.get("id") or "process",
        name=process.get("name") or process.get("id") or "process",
        nodes=builder.nodes,
        flows=builder.flows,
        messages=messages,
        diagnostics=builder.diagnostics,
    )
    _mark_defaults_from_attributes(model, builder.defaults)
    _fix_multi_output_nodes(model)
    _validate(model)
    classify_variables(model, ())  # raises RoleConflictError on a conflicting writer
    return model


class _Builder:
    def __init__(self, errors, data_names, message_names):
        self.errors = errors
        self.data_names = data_names
        self.message_names = message_names
        self.nodes: list[Node] = []
        self.flows: list[SequenceFlow] = []
        self.defaults: dict[str, str] = {}  # node id -> default flow id
        self.diagnostics: list[str] = []

    def add(self, el):
        tag = _local(el.tag)
        if tag in _SKIPPED:
            if tag in ("laneSet", "lane", "textAnnotation", "association"):
                log.warning("skipping %s element (no execution semantics)", tag)
                self.diagnostics.append(f"skipped {tag}")
            return
        if tag in _UNSUPPORTED:
            raise UnsupportedElementError(f"element kind {tag!r} is not supported")
        handler = getattr(self, f"_on_{tag}", None)
        if handler is None:
            log.warning("ignoring unknown element %r", tag)
            self.diagnostics.append(f"ignored unknown element {tag}")
            return
        handler(el)

    # --- common pieces ---

    def _base(self, el):
        node_id = el.get("id")
        if not node_id:
            raise SchemaError(f"{_local(el.tag)} without id")
        if el.get("default"):
            self.defaults[node_id] = el.get("default")
        return node_id, el.get("name") or node_id

    def _associations(self, el):
        writes, reads = [], []
        for assoc in _children_named(el, "dataOutputAssociation"):
            for ref in _children_named(assoc, "targetRef"):
                name = self.data_names.get((ref.text or "").strip())
                if name:
                    writes.append(name)
        for assoc in _children_named(el, "dataInputAssociation"):
            for ref in _children_named(assoc, "sourceRef"):
                name = self.data_names.get((ref.text or "").strip())
                if name:
                    reads.append(name)
        return tuple(writes), tuple(reads)

    def _extensions(self, el):
        """(calledDecision id, io inputs, io outputs, channel, script expr/result)."""
        decision = None
        io_inputs: list[tuple[str, str]] = []  # (source text, target)
        io_outputs: list[tuple[str, str]] = []
        channel = None
        script = None
        for ext in _children_named(el, "extensionElements"):
            for item in ext:
                name = _local(item.tag)
                if name == "calledDecision":
                    decision = item.get("decisionId") or item.get("decisionRef")
                elif name == "ioMapping":
                    channel = item.get("channel") or channel
                    for entry in item:
                        pair = (entry.get("source") or "", entry.get("target") or "")
                        if _local(entry.tag) == "input":
                            io_inputs.append(pair)
                        elif _local(entry.tag) == "output":
                            io_outputs.append(pair)
                elif name == "script":
                    script = (item.get("expression") or "",
                              item.get("resultVariable") or "")
        return decision, io_inputs, io_outputs, channel, script

    # --- element handlers ---

    def _on_startEvent(self, el):
        node_id, label = self._base(el)
        writes, reads = self._associations(el)
        _, _, io_outputs, _, _ = self._extensions(el)
        writes += tuple(t for _, t in io_outputs if t)
        self.nodes.append(Node(node_id, label, "start", writes=writes, reads=reads))

    def _on_endEvent(self, el):
        node_id, label = self._base(el)
        error_defs = _children_named(el, "errorEventDefinition")
        if error_defs:
            ref = error_defs[0].get("errorRef")
            code, err_name = self.errors.get(ref, (None, None))
            code = error_defs[0].get("errorCode") or code
            self.nodes.append(Node(node_id, label, "end_error", error_code=code,
                                   error_description=err_name or label))
        else:
            self.nodes.append(Node(node_id, label, "end_success"))

    def _on_task(self, el):
        self._plain_task(el, "manual_task")  # untyped tasks behave like manual ones

    def _on_userTask(self, el):
        self._plain_task(el, "user_task")

    def _on_manualTask(self, el):
        self._plain_task(el, "manual_task")

    def _plain_task(self, el, kind):
        node_id, label = self._base(el)
        writes, reads = self._associations(el)
        _, _, io_outputs, _, _ = self._extensions(el)
        writes += tuple(t for _, t in io_outputs if t)
        self.nodes.append(Node(node_id, label, kind, writes=writes, reads=reads))

    def _on_scriptTask(self, el):
        self._expr_task(el, "script_task")

    def _on_serviceTask(self, el):
        self._expr_task(el, "service_task")

    def _expr_task(self, el, kind):
        node_id, label = self._base(el)
        writes, reads = self._associations(el)
        _, io_inputs, io_outputs, _, script = self._extensions(el)
        expr_text, target = None, None
        body = _children_named(el, "script")
        if body and (body[0].text or "").strip():
            expr_text = body[0].text.strip()
            target = el.get("resultVariable") or next(
                (el.get(k) for k in el.keys() if _local(k) == "resultVariable"), None)
        elif script:
            expr_text, target = script
        elif io_outputs:
            expr_text, target = io_outputs[0]
        if not expr_text or not target:
            raise SchemaError(f"{kind} {node_id!r} needs an expression and a result variable")
        self.nodes.append(Node(node_id, label, kind, writes=writes, reads=reads,
                               expr=feel.parse_expr(_strip_expr(expr_text)), target=target))

    def _on_businessRuleTask(self, el):
        node_id, label = self._base(el)
        writes, reads = self._associations(el)
        decision, io_inputs, io_outputs, _, _ = self._extensions(el)
        if not decision:
            raise SchemaError(f"business rule task {node_id!r} has no calledDecision")
        input_map = tuple((target, feel.parse_expr(_strip_expr(source)))
                          for source, target in io_inputs) or None
        output_map = tuple((_strip_expr(source), target)
                           for source, target in io_outputs) or None
        self.nodes.append(Node(node_id, label, "business_rule_task", writes=writes,
                               reads=reads, table_ref=decision, input_map=input_map,
                               output_map=output_map))

    def _on_sendTask(self, el):
        node_id, label = self._base(el)
        _, io_inputs, _, channel, _ = self._extensions(el)
        if not channel:
            raise SchemaError(f"send task {node_id!r} has no channel")
        msg_type = self.message_names.get(el.get("messageRef"), f"M_{channel}")
        parts = tuple((target, feel.parse_expr(_strip_expr(source)))
                      for source, target in io_inputs)
        if not parts:
            raise SchemaError(f"send task {node_id!r} declares no message parts")
        self.nodes.append(Node(node_id, label, "send_task", channel=channel,
                               msg_type=msg_type, send_parts=parts))

    def _on_receiveTask(self, el):
        node_id, label = self._base(el)
        _, _, io_outputs, channel, _ = self._extensions(el)
        if not channel:
            raise SchemaError(f"receive task {node_id!r} has no channel")
        msg_type = self.message_names.get(el.get("messageRef"), f"M_{channel}")
        parts = tuple((source, target) for source, target in io_outputs)
        if not parts:
            raise SchemaError(f"receive task {node_id!r} declares no message parts")
        self.nodes.append(Node(node_id, label, "receive_task", channel=channel,
                               msg_type=msg_type, receive_parts=parts,
                               writes=tuple(t for _, t in parts)))

    def _on_exclusiveGateway(self, el):
        node_id, label = self._base(el)
        self.nodes.append(Node(node_id, label, "exclusive_gateway"))

    def _on_parallelGateway(self, el):
        node_id, label = self._base(el)
        self.nodes.append(Node(node_id, label, "parallel_gateway"))

    def _on_inclusiveGateway(self, el):
        node_id, label = self._base(el)
        self.nodes.append(Node(node_id, label, "inclusive_gateway"))

    def _on_sequenceFlow(self, el):
        flow_id = el.get("id")
        source, target = el.get("sourceRef"), el.get("targetRef")
        if not (flow_id and source and target):
            raise SchemaError("sequence flow needs id, sourceRef and targetRef")
        condition = None
        for cond in _children_named(el, "conditionExpression"):
            text = _strip_expr(cond.text or "")
            if text:
                condition = feel.parse_expr(text)
        self.flows.append(SequenceFlow(flow_id, source, target, condition))


def _fix_multi_output_nodes(model: ProcessModel) -> None:
    """Insert an exclusive gateway `autogw_<id>` behind every non-gateway node
    that has several outgoing flows. The gateway follows the node, and the
    flow `autoflow_<id>` into it precedes the node's first outgoing flow.
    Idempotent: a second application is a no-op."""
    out, _ = adjacency(model.flows)
    split = {node.id for node in model.nodes
             if node.kind not in ("exclusive_gateway", "parallel_gateway",
                                  "inclusive_gateway", "join_gateway")
             and len(out[node.id]) > 1}
    nodes = []
    for node in model.nodes:
        nodes.append(node)
        if node.id in split:
            gw_id = f"autogw_{node.id}"
            nodes.append(Node(gw_id, node.label, "exclusive_gateway"))
            model.diagnostics.append(f"inserted {gw_id} for multi-output node {node.id}")
    flows = []
    rerouted = set()
    for flow in model.flows:
        if flow.source in split:
            gw_id = f"autogw_{flow.source}"
            if flow.source not in rerouted:
                rerouted.add(flow.source)
                flows.append(SequenceFlow(f"autoflow_{flow.source}", flow.source, gw_id))
            flow = replace(flow, source=gw_id)  # conditions and default flags move along
        flows.append(flow)
    model.nodes = nodes
    model.flows = flows


def _mark_defaults_from_attributes(model: ProcessModel, builder_defaults: dict[str, str]):
    default_ids = set(builder_defaults.values())
    model.flows = [replace(flow, is_default=True) if flow.id in default_ids else flow
                   for flow in model.flows]


def _validate(model: ProcessModel) -> None:
    ids = [n.id for n in model.nodes]
    if len(ids) != len(set(ids)):
        raise SchemaError("duplicate node ids")
    id_set = set(ids)
    for flow in model.flows:
        if flow.source not in id_set or flow.target not in id_set:
            raise SchemaError(f"flow {flow.id!r} has a dangling endpoint")

    starts = [n for n in model.nodes if n.kind == "start"]
    ends = [n for n in model.nodes if n.kind.startswith("end_")]
    if len(starts) != 1:
        raise SchemaError(f"expected exactly one start event, found {len(starts)}")
    if not ends:
        raise SchemaError("process has no end event")
    out, inc = adjacency(model.flows)
    start = starts[0]
    if inc[start.id] or len(out[start.id]) != 1:
        raise SchemaError("start event must have no incoming and one outgoing flow")
    for end in ends:
        if out[end.id] or len(inc[end.id]) != 1:
            raise SchemaError(f"end event {end.id!r} must have one incoming and no "
                              f"outgoing flow")

    _classify_gateways(model, out, inc)

    for node in model.nodes:
        if node.kind in ("exclusive_gateway", "inclusive_gateway"):
            defaults = [f for f in out[node.id] if f.is_default]
            if len(defaults) > 1:
                raise SchemaError(f"gateway {node.id!r} has several default flows")
        if node.kind not in ("exclusive_gateway", "inclusive_gateway"):
            for flow in out[node.id]:
                if flow.condition is not None:
                    raise SchemaError(
                        f"flow {flow.id!r} carries a condition but leaves {node.kind} "
                        f"{node.id!r}; conditions belong on exclusive/inclusive gateways")
        if node.kind in TASK_KINDS and len(out[node.id]) > 1:
            raise SchemaError(f"node {node.id!r} still has several outgoing flows "
                              f"after preprocessing")

    _check_weakly_connected(model)


def _classify_gateways(model: ProcessModel, out, inc) -> None:
    for i, node in enumerate(model.nodes):
        if node.kind not in ("exclusive_gateway", "parallel_gateway", "inclusive_gateway"):
            continue
        n_in = len(inc[node.id])
        n_out = len(out[node.id])
        if n_in == 1 and n_out >= 2:
            continue  # split; keeps its kind
        if n_in >= 2 and n_out == 1:
            base = node.kind.removesuffix("_gateway")
            model.nodes[i] = replace(node, kind="join_gateway", join_kind=base)
            continue
        raise SchemaError(f"gateway {node.id!r} has {n_in} incoming and {n_out} outgoing "
                          f"flows; expected a split (1 in, 2+ out) or a join (2+ in, 1 out)")


def _check_weakly_connected(model: ProcessModel) -> None:
    if not model.nodes:
        raise SchemaError("empty process")
    neighbours: dict[str, set[str]] = {n.id: set() for n in model.nodes}
    for flow in model.flows:
        neighbours[flow.source].add(flow.target)
        neighbours[flow.target].add(flow.source)
    seen = {model.nodes[0].id}
    stack = [model.nodes[0].id]
    while stack:
        for nxt in neighbours[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    if len(seen) != len(model.nodes):
        missing = sorted(set(neighbours) - seen)
        raise SchemaError(f"process graph is not connected; unreachable: {missing}")


def classify_variables(model: ProcessModel, tables) -> dict[str, VariableRole]:
    """Assign every mentioned variable an input or process role.

    Input variables are written only by start/user/manual nodes, or read and
    never written; process variables are written by script/service/rule/
    receive nodes. A variable written on both sides is a role conflict and
    is reported with the writer node ids so it can be renamed.
    """
    table_by_ref = {}
    for table in tables:
        table_by_ref[table.id] = table
        table_by_ref.setdefault(table.name, table)

    input_writers: dict[str, set[str]] = {}
    process_writers: dict[str, set[str]] = {}
    readers: dict[str, set[str]] = {}

    def wrote(group, name, node_id):
        group.setdefault(name, set()).add(node_id)

    def read_expr(expr, node_id):
        for name in ast.free_variables(expr):
            readers.setdefault(name, set()).add(node_id)

    for node in model.nodes:
        if node.kind in INPUT_WRITER_KINDS:
            for name in node.writes:
                wrote(input_writers, name, node.id)
        elif node.kind in ("script_task", "service_task"):
            wrote(process_writers, node.target, node.id)
            read_expr(node.expr, node.id)
        elif node.kind == "business_rule_task":
            table = table_by_ref.get(node.table_ref)
            if node.output_map is not None:
                for _, var in node.output_map:
                    wrote(process_writers, var, node.id)
            elif table is not None:
                for out in table.outputs:
                    wrote(process_writers, out, node.id)
            if node.input_map is not None:
                for _, expr in node.input_map:
                    read_expr(expr, node.id)
            elif table is not None:
                for _, expr in table.inputs:
                    read_expr(expr, node.id)
        elif node.kind == "send_task":
            for _, expr in node.send_parts:
                read_expr(expr, node.id)
        elif node.kind == "receive_task":
            for _, var in node.receive_parts:
                wrote(process_writers, var, node.id)
        for name in node.reads:
            readers.setdefault(name, set()).add(node.id)

    for flow in model.flows:
        if flow.condition is not None:
            read_expr(flow.condition, flow.source)

    roles: dict[str, VariableRole] = {}
    every_name = set(input_writers) | set(process_writers) | set(readers)
    for name in sorted(every_name):
        inn = input_writers.get(name, set())
        proc = process_writers.get(name, set())
        if inn and proc:
            raise RoleConflictError(name, inn, proc)
        role = "process" if proc else "input"
        roles[name] = VariableRole(role, frozenset(inn | proc),
                                   frozenset(readers.get(name, set())))
    return roles


def extract_graph(model: ProcessModel) -> ProcessGraph:
    """Plain directed graph over the preprocessed model: the denominators for
    node and edge coverage."""
    nodes = tuple((n.id, n.label) for n in model.nodes)
    edges = tuple((f.source, f.target) for f in model.flows)
    return ProcessGraph(nodes, edges)
