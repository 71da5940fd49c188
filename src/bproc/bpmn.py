"""BPMN 2.0 XML parsing into a validated process model.

Element matching is by local name, so the standard namespaces and the
common vendor extension namespaces (calledDecision / ioMapping / script)
are all accepted. Parsing also applies the multiple-outgoing-flow fix:
a task with several outgoing flows gets an inserted exclusive gateway
(`autogw_<taskId>`) carrying those flows, keeping traces traceable to the
original diagram.

Parsing walks the document once for its process, messages, errors and
data objects (elements of other kinds are passed over in C), then reads
each element of the process in one pass over its children and builds its
node or flow record once: a gateway's record waits until every flow is
read, when its degree tells a split from a join, and a flow read before
the element that names it its default, or moved to an inserted gateway,
is built again (`_Builder.finished_flows`). The gateways are inserted
while the records are finished, before anything indexes them, so the
flow index (`ProcessModel.adjacency`) and the variable uses that roles
are classified from (`ProcessModel.variable_uses`) are computed once for
every model, and `compile_model` reuses them. Computing the variable
uses walks each expression once (`feel.types.scan`), for its free
variables and its type evidence together; the walk's result is kept
there, so type and domain inference in `compile_model` walk no
expression of the model again.
Validation checks whole lists with comprehensions, and walks the nodes
in order only to report the first fault of a kind it found.

Set-up runs with the cyclic garbage collector paused (`collector_paused`):
nearly every object a model's construction allocates survives it, so a
collection during construction only walks the growing model again.
"""

from __future__ import annotations

import functools
import gc
import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress
from operator import attrgetter

from . import dmn, feel, safexml
from .safexml import LocalNames
from .errors import RoleConflictError, SchemaError, UnsupportedElementError
from .feel import ast
from .feel.types import scan

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


@dataclass(slots=True, unsafe_hash=True)
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


@dataclass(slots=True, unsafe_hash=True)
class SequenceFlow:
    id: str
    source: str
    target: str
    condition: ast.FeelExpr | None = None
    is_default: bool = False


@dataclass(slots=True, unsafe_hash=True)
class VariableRole:
    role: str  # "input" | "process"
    writers: frozenset[str]
    readers: frozenset[str]


@dataclass(slots=True, unsafe_hash=True)
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
    # Indexes over the nodes and flows, computed here (parse_bpmn passes the
    # flow index it built first); the model is not changed after parse_bpmn.
    # (outgoing, incoming) flows of every node, see `adjacency`:
    adjacency: tuple[dict[str, list[SequenceFlow]], dict[str, list[SequenceFlow]]] | None = \
        field(default=None, repr=False, compare=False)
    # who writes and reads each variable, see `classify_variables`:
    variable_uses: _VariableUses = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.adjacency is None:
            self.adjacency = adjacency(self.flows)
        self.variable_uses = _variable_uses(self)

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


def _strip_expr(text: str) -> str:
    text = (text or "").strip()
    return text[1:].strip() if text.startswith("=") else text


def collector_paused(fn):
    """Wrap `fn` to run with the cyclic garbage collector disabled.

    The collector's previous state comes back when `fn` returns or
    raises, so a caller that had disabled it keeps it disabled. What `fn`
    allocates must hold no reference cycles: nothing collects them later.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


_DOCUMENT_TAGS = frozenset({"process", "participant", "message", "error", "dataObjectReference",
                            "dataObject"})
_TAG = attrgetter("tag")


class _DocumentKinds(dict):
    """Element tag -> its local name if that is one of `_DOCUMENT_TAGS`,
    else the empty string; worked out once per distinct tag."""

    def __init__(self, local: LocalNames):
        super().__init__()
        self.local = local

    def __missing__(self, tag: str) -> str:
        name = self.local[tag]
        kind = self[tag] = name if name in _DOCUMENT_TAGS else ""
        return kind


@collector_paused
def parse_bpmn(data: bytes | str) -> ProcessModel:
    """Parse one BPMN document (one process) into a preprocessed, validated model."""
    root = safexml.fromstring(data, "BPMN")
    local = LocalNames()

    processes, messages, errors, data_names = [], [], {}, {}
    has_participant = False
    # one walk over the document collects every kind; the elements of the
    # other kinds are passed over in C, one local-name lookup per element
    kinds = _DocumentKinds(local)
    for el in compress(root.iter(), map(kinds.__getitem__, map(_TAG, root.iter()))):
        tag = kinds[el.tag]
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

    builder = _Builder(errors, data_names, message_names, local)
    builder.add_all(process)

    flows = builder.finished_flows()
    index = adjacency(flows)
    model = ProcessModel(
        process_id=process.get("id") or "process",
        name=process.get("name") or process.get("id") or "process",
        nodes=builder.finished_nodes(*index),
        flows=flows,
        messages=messages,
        diagnostics=builder.diagnostics,
        adjacency=index,
    )
    _validate(model)
    _check_roles(model.variable_uses)
    return model


_GATEWAY_KINDS = ("exclusive_gateway", "parallel_gateway", "inclusive_gateway")
#: gateway kind -> the join kind of such a gateway when it joins
_JOIN_KINDS = {kind: kind.removesuffix("_gateway") for kind in _GATEWAY_KINDS}


class _Builder:
    """Builds the records of one process's elements, read in document order.

    Each element is read in one pass over its children (`_children`), and
    its record is built once. The code for the commonest elements (flows,
    gateways, tasks) loops where a comprehension or generator expression
    would be a function call of its own. A task's `Node` gets its leading
    fields by position and its kind's own fields set right after, before
    anything else sees it: matching keywords against the 18 fields costs
    about as much as the rest of the call."""

    def __init__(self, errors, data_names, message_names, local: LocalNames):
        self.errors = errors
        self.data_names = data_names
        self.message_names = message_names
        self.local = local
        # a gateway stays (id, label, kind) until its flows are all known;
        # `gateways` holds the positions of those tuples in `nodes`
        self.nodes: list[Node | tuple[str, str, str]] = []
        self.gateways: list[int] = []
        self.flows: list[SequenceFlow] = []
        self.default_ids: set[str] = set()  # the flows elements read so far name as default
        self.split: set[str] = set()  # the tasks and events with several outgoing flows
        self.diagnostics: list[str] = []

    def add_all(self, process) -> None:
        """Read every child element of `process`, in document order."""
        local, handlers = self.local, _HANDLERS
        for el in process:
            tag = local[el.tag]
            handler = handlers.get(tag)
            if handler is not None:
                handler(self, el)
            elif tag in _SKIPPED:
                if tag in ("laneSet", "lane", "textAnnotation", "association"):
                    log.warning("skipping %s element (no execution semantics)", tag)
                    self.diagnostics.append(f"skipped {tag}")
            elif tag in _UNSUPPORTED:
                raise UnsupportedElementError(f"element kind {tag!r} is not supported")
            else:
                log.warning("ignoring unknown element %r", tag)
                self.diagnostics.append(f"ignored unknown element {tag}")

    def finished_flows(self) -> list[SequenceFlow]:
        """The flows in document order, with the multiple-outgoing-flow fix:
        the flows out of a task or event with several of them (`split`)
        leave the exclusive gateway `autogw_<id>` instead, and the flow
        `autoflow_<id>` into that gateway comes right before the first of
        them. A flow is marked default when it is read; one read before the
        element that names it, or moved to an inserted gateway, gets a
        second record here, the only records built twice."""
        flows, default_ids = self.flows, self.default_ids
        degree: dict[str, int] = defaultdict(int)  # node id -> its outgoing flows
        for flow in flows:
            degree[flow.source] += 1
        self.split = split = {node.id for node in self.nodes
                              if type(node) is Node and degree[node.id] > 1}
        if default_ids:
            for i, flow in enumerate(flows):
                if not flow.is_default and flow.id in default_ids:
                    flows[i] = replace(flow, is_default=True)
        if not split:
            return flows
        finished = []
        rerouted = set()
        for flow in flows:
            source = flow.source
            if source in split:
                gw_id = f"autogw_{source}"
                if source not in rerouted:
                    rerouted.add(source)
                    finished.append(SequenceFlow(f"autoflow_{source}", source, gw_id))
                flow = replace(flow, source=gw_id)  # conditions and default flags move along
            finished.append(flow)
        return finished

    def finished_nodes(self, outgoing, incoming) -> list[Node]:
        """The nodes in document order, each gateway with two or more
        incoming flows and one outgoing flow made a join, and each node in
        `split` followed by its inserted gateway (see `finished_flows`)."""
        nodes = self.nodes
        for i in self.gateways:
            node_id, label, kind = nodes[i]
            if len(incoming[node_id]) >= 2 and len(outgoing[node_id]) == 1:
                nodes[i] = Node(node_id, label, "join_gateway", join_kind=_JOIN_KINDS[kind])
            else:  # a split; _validate rejects any other degree
                nodes[i] = Node(node_id, label, kind)
        split = self.split
        if not split:
            return nodes
        finished = []
        for node in nodes:
            finished.append(node)
            if node.id in split:
                gw_id = f"autogw_{node.id}"
                finished.append(Node(gw_id, node.label, "exclusive_gateway"))
                self.diagnostics.append(f"inserted {gw_id} for multi-output node {node.id}")
        return finished

    # --- common pieces ---

    def _base(self, el):
        attrib = el.attrib
        node_id = attrib.get("id")
        if not node_id:
            raise SchemaError(f"{self.local[el.tag]} without id")
        default = attrib.get("default")
        if default:
            self.default_ids.add(default)
        return node_id, attrib.get("name") or node_id

    def _children(self, el) -> _Children:
        """What the children of a task or event declare, in one pass."""
        found = _Children()
        local = self.local
        for child in el:
            name = local[child.tag]
            if name == "extensionElements":
                self._extensions(child, found)
            elif name == "dataOutputAssociation":
                self._association(child, "targetRef", found.writes)
            elif name == "dataInputAssociation":
                self._association(child, "sourceRef", found.reads)
            elif name == "script":
                if found.body is None:
                    found.body = child
            elif name == "errorEventDefinition":
                if found.error is None:
                    found.error = child
        return found

    def _association(self, assoc, ref_name: str, names: list[str]) -> None:
        local, data_names = self.local, self.data_names
        for ref in assoc:
            if local[ref.tag] == ref_name:
                data_name = data_names.get((ref.text or "").strip())
                if data_name:
                    names.append(data_name)

    def _extensions(self, ext, found: _Children) -> None:
        local = self.local
        for item in ext:
            name = local[item.tag]
            if name == "calledDecision":
                found.decision = item.get("decisionId") or item.get("decisionRef")
            elif name == "ioMapping":
                found.channel = item.get("channel") or found.channel
                for entry in item:
                    pair = (entry.get("source") or "", entry.get("target") or "")
                    entry_name = local[entry.tag]
                    if entry_name == "input":
                        found.io_inputs.append(pair)
                    elif entry_name == "output":
                        found.io_outputs.append(pair)
            elif name == "script":
                found.script = (item.get("expression") or "", item.get("resultVariable") or "")

    # --- element handlers, one per element local name (see _HANDLERS) ---

    def _on_startEvent(self, el):
        self._plain_task(el, "start")

    def _on_endEvent(self, el):
        node_id, label = self._base(el)
        error_def = self._children(el).error
        if error_def is not None:
            ref = error_def.get("errorRef")
            code, err_name = self.errors.get(ref, (None, None))
            code = error_def.get("errorCode") or code
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
        found = self._children(el)
        writes = found.writes
        for _, target in found.io_outputs:
            if target:
                writes.append(target)
        self.nodes.append(Node(node_id, label, kind, tuple(writes), tuple(found.reads)))

    def _on_scriptTask(self, el):
        self._expr_task(el, "script_task")

    def _on_serviceTask(self, el):
        self._expr_task(el, "service_task")

    def _expr_task(self, el, kind):
        node_id, label = self._base(el)
        found = self._children(el)
        expr_text, target = None, None
        body = found.body
        if body is not None and (body.text or "").strip():
            expr_text = body.text.strip()
            target = el.get("resultVariable") or next(
                (el.get(k) for k in el.keys() if _local(k) == "resultVariable"), None)
        elif found.script:
            expr_text, target = found.script
        elif found.io_outputs:
            expr_text, target = found.io_outputs[0]
        if not expr_text or not target:
            raise SchemaError(f"{kind} {node_id!r} needs an expression and a result variable")
        node = Node(node_id, label, kind, tuple(found.writes), tuple(found.reads))
        node.expr, node.target = feel.parse_expr(_strip_expr(expr_text)), target
        self.nodes.append(node)

    def _on_businessRuleTask(self, el):
        node_id, label = self._base(el)
        found = self._children(el)
        if not found.decision:
            raise SchemaError(f"business rule task {node_id!r} has no calledDecision")
        input_map = tuple((target, feel.parse_expr(_strip_expr(source)))
                          for source, target in found.io_inputs) or None
        output_map = tuple((_strip_expr(source), target)
                           for source, target in found.io_outputs) or None
        node = Node(node_id, label, "business_rule_task", tuple(found.writes),
                    tuple(found.reads))
        node.table_ref, node.input_map, node.output_map = found.decision, input_map, output_map
        self.nodes.append(node)

    def _on_sendTask(self, el):
        node_id, label = self._base(el)
        found = self._children(el)
        channel = found.channel
        if not channel:
            raise SchemaError(f"send task {node_id!r} has no channel")
        msg_type = self.message_names.get(el.get("messageRef"), f"M_{channel}")
        parts = []
        for source, target in found.io_inputs:
            parts.append((target, feel.parse_expr(_strip_expr(source))))
        if not parts:
            raise SchemaError(f"send task {node_id!r} declares no message parts")
        node = Node(node_id, label, "send_task")
        node.channel, node.msg_type, node.send_parts = channel, msg_type, tuple(parts)
        self.nodes.append(node)

    def _on_receiveTask(self, el):
        node_id, label = self._base(el)
        found = self._children(el)
        channel = found.channel
        if not channel:
            raise SchemaError(f"receive task {node_id!r} has no channel")
        msg_type = self.message_names.get(el.get("messageRef"), f"M_{channel}")
        parts = found.io_outputs
        if not parts:
            raise SchemaError(f"receive task {node_id!r} declares no message parts")
        writes = []
        for _, target in parts:
            writes.append(target)
        node = Node(node_id, label, "receive_task", tuple(writes))
        node.channel, node.msg_type, node.receive_parts = channel, msg_type, tuple(parts)
        self.nodes.append(node)

    def _gateway(self, el, kind):
        node_id, label = self._base(el)
        self.gateways.append(len(self.nodes))
        self.nodes.append((node_id, label, kind))

    def _on_exclusiveGateway(self, el):
        self._gateway(el, "exclusive_gateway")

    def _on_parallelGateway(self, el):
        self._gateway(el, "parallel_gateway")

    def _on_inclusiveGateway(self, el):
        self._gateway(el, "inclusive_gateway")

    def _on_sequenceFlow(self, el):
        attrib = el.attrib  # a dict: its `get` is cheaper than the element's
        flow_id = attrib.get("id")
        source, target = attrib.get("sourceRef"), attrib.get("targetRef")
        if not (flow_id and source and target):
            raise SchemaError("sequence flow needs id, sourceRef and targetRef")
        condition = None
        if len(el):
            local = self.local
            for cond in el:
                if local[cond.tag] == "conditionExpression":
                    text = _strip_expr(cond.text or "")
                    if text:
                        condition = feel.parse_expr(text)
        self.flows.append(SequenceFlow(flow_id, source, target, condition,
                                       flow_id in self.default_ids))


class _Children:
    """What one element's children declare (see `_Builder._children`)."""

    __slots__ = ("writes", "reads", "decision", "io_inputs", "io_outputs", "channel",
                 "script", "body", "error")

    def __init__(self):
        self.writes: list[str] = []  # through data output associations
        self.reads: list[str] = []  # through data input associations
        self.decision: str | None = None  # calledDecision id
        self.io_inputs: list[tuple[str, str]] = []  # (source text, target)
        self.io_outputs: list[tuple[str, str]] = []
        self.channel: str | None = None
        self.script: tuple[str, str] | None = None  # (expression, result variable)
        self.body = None  # the first <script> child
        self.error = None  # the first <errorEventDefinition> child


#: element local name -> its handler
_HANDLERS = {name.removeprefix("_on_"): handler for name, handler in vars(_Builder).items()
             if name.startswith("_on_")}


_END_KINDS = frozenset(("end_success", "end_error"))
_CONDITIONAL_KINDS = frozenset(("exclusive_gateway", "inclusive_gateway"))
_TASK_KINDS = frozenset(TASK_KINDS)


def _validate(model: ProcessModel) -> None:
    """Raise SchemaError for the first fault, taking the checks in this
    order: duplicate node ids, dangling flows, the start and end events,
    gateway degrees (in node order), the outgoing flows of each node (in
    node order), connectedness."""
    nodes, flows = model.nodes, model.flows
    out, inc = model.adjacency
    ids = {node.id for node in nodes}
    if len(ids) != len(nodes):
        raise SchemaError("duplicate node ids")
    for flow in flows:
        if flow.source not in ids or flow.target not in ids:
            raise SchemaError(f"flow {flow.id!r} has a dangling endpoint")

    kinds = [node.kind for node in nodes]
    starts = kinds.count("start")
    if starts != 1:
        raise SchemaError(f"expected exactly one start event, found {starts}")
    ends = [node for node in nodes if node.kind in _END_KINDS]
    if not ends:
        raise SchemaError("process has no end event")
    start = nodes[kinds.index("start")]
    if inc[start.id] or len(out[start.id]) != 1:
        raise SchemaError("start event must have no incoming and one outgoing flow")
    for end in ends:
        if out[end.id] or len(inc[end.id]) != 1:
            raise SchemaError(f"end event {end.id!r} must have one incoming and no "
                              f"outgoing flow")

    # the joins are made when the nodes are built, so every gateway left is a split
    gateways = [node for node in nodes if node.kind in _GATEWAY_KINDS]
    for gateway in gateways:
        n_in, n_out = len(inc[gateway.id]), len(out[gateway.id])
        if n_in != 1 or n_out < 2:
            raise SchemaError(
                f"gateway {gateway.id!r} has {n_in} incoming and {n_out} outgoing flows; "
                f"expected a split (1 in, 2+ out) or a join (2+ in, 1 out)")

    _check_flows(model, gateways)
    _check_weakly_connected(model, start)


def _check_flows(model: ProcessModel, gateways: list[Node]) -> None:
    """Raise SchemaError for the first node, in node order, whose outgoing
    flows break a rule: several default flows out of an exclusive or
    inclusive gateway, a condition on a flow out of any other node, or a
    task with no outgoing flow. One pass per rule finds the nodes that
    break one (a node can break only one, and most models break none)."""
    out, _ = model.adjacency
    conditional = {node.id for node in gateways if node.kind in _CONDITIONAL_KINDS}
    faulty = set()
    defaults = set()
    for flow in model.flows:
        if flow.is_default:
            if flow.source in defaults and flow.source in conditional:
                faulty.add(flow.source)
            defaults.add(flow.source)
    faulty.update(flow.source for flow in model.flows
                  if flow.condition is not None and flow.source not in conditional)
    faulty.update(node.id for node in model.nodes
                  if node.kind in _TASK_KINDS and not out[node.id])
    if not faulty:
        return
    node = next(node for node in model.nodes if node.id in faulty)
    if node.id in conditional:
        raise SchemaError(f"gateway {node.id!r} has several default flows")
    if not out[node.id]:
        raise SchemaError(f"task {node.id!r} has no outgoing flow; "
                          f"only an end event ends a path")
    flow = next(flow for flow in out[node.id] if flow.condition is not None)
    raise SchemaError(f"flow {flow.id!r} carries a condition but leaves {node.kind} "
                      f"{node.id!r}; conditions belong on exclusive/inclusive gateways")


def _check_weakly_connected(model: ProcessModel, start: Node) -> None:
    out, inc = model.adjacency
    # most processes reach every node from the start event along their flows
    seen = {start.id}
    stack = [start.id]
    while stack:
        for flow in out.get(stack.pop(), ()):
            target = flow.target
            if target not in seen:
                seen.add(target)
                stack.append(target)
    if len(seen) == len(model.nodes):
        return
    first = model.nodes[0].id
    seen = {first}
    stack = [first]
    while stack:
        node_id = stack.pop()
        for flow in out.get(node_id, ()):
            if flow.target not in seen:
                seen.add(flow.target)
                stack.append(flow.target)
        for flow in inc.get(node_id, ()):
            if flow.source not in seen:
                seen.add(flow.source)
                stack.append(flow.source)
    if len(seen) != len(model.nodes):
        missing = sorted({n.id for n in model.nodes} - seen)
        raise SchemaError(f"process graph is not connected; unreachable: {missing}")


#: (expression, its free variables, its type evidence), see `feel.types.scan`
Scanned = tuple[ast.FeelExpr, set[str], list]


@dataclass(frozen=True, slots=True)
class _VariableUses:
    """Who writes and reads each variable, from everything but the decision
    tables: variable -> node ids. `rule_tasks` are the business rule tasks
    that leave their outputs or their inputs to their table.

    Each expression of the model is walked once, here (`feel.types.scan`),
    and what the walk finds is kept for type and domain inference:
    `conditions` for the flow conditions, in flow order, and `writers`
    for the tasks that write a variable or a message part (script,
    service, business rule, send and receive tasks), in document order,
    each with its expressions in step order (None for a business rule task
    whose table gives its inputs)."""

    input_writers: dict[str, set[str]]
    process_writers: dict[str, set[str]]
    readers: dict[str, set[str]]
    rule_tasks: tuple[Node, ...]
    conditions: list[Scanned]
    writers: list[tuple[Node, list[Scanned] | None]]


def _variable_uses(model: ProcessModel) -> _VariableUses:
    input_writers: dict[str, set[str]] = {}
    process_writers: dict[str, set[str]] = {}
    readers: dict[str, set[str]] = {}
    rule_tasks = []
    writers = []

    def read_expr(expr, node_id) -> Scanned:
        free, evidence = scan(expr)
        for name in free:
            readers.setdefault(name, set()).add(node_id)
        return expr, free, evidence

    for node in model.nodes:
        kind = node.kind
        if kind in INPUT_WRITER_KINDS:
            for name in node.writes:
                input_writers.setdefault(name, set()).add(node.id)
        elif kind == "script_task" or kind == "service_task":
            process_writers.setdefault(node.target, set()).add(node.id)
            writers.append((node, [read_expr(node.expr, node.id)]))
        elif kind == "send_task":
            scanned = []
            for _, expr in node.send_parts:
                scanned.append(read_expr(expr, node.id))
            writers.append((node, scanned))
        elif kind == "receive_task":
            for _, var in node.receive_parts:
                process_writers.setdefault(var, set()).add(node.id)
            writers.append((node, []))
        elif kind == "business_rule_task":
            if node.output_map is not None:
                for _, var in node.output_map:
                    process_writers.setdefault(var, set()).add(node.id)
            scanned = None
            if node.input_map is not None:
                scanned = []
                for _, expr in node.input_map:
                    scanned.append(read_expr(expr, node.id))
            if node.output_map is None or node.input_map is None:
                rule_tasks.append(node)
            writers.append((node, scanned))
        for name in node.reads:
            readers.setdefault(name, set()).add(node.id)

    conditions = []
    for flow in model.flows:
        if flow.condition is not None:
            conditions.append(read_expr(flow.condition, flow.source))
    return _VariableUses(input_writers, process_writers, readers, tuple(rule_tasks),
                         conditions, writers)


def _check_roles(uses: _VariableUses) -> None:
    """Raise RoleConflictError for the first variable, by name, that is
    written on both the input and the process side."""
    conflicts = uses.input_writers.keys() & uses.process_writers.keys()
    if conflicts:
        name = min(conflicts)
        raise RoleConflictError(name, uses.input_writers[name], uses.process_writers[name])


_NONE: frozenset[str] = frozenset()


def classify_variables(model: ProcessModel, tables) -> dict[str, VariableRole]:
    """Assign every mentioned variable an input or process role.

    Input variables are written only by start/user/manual nodes, or read and
    never written; process variables are written by script/service/rule/
    receive nodes. A variable written on both sides is a role conflict and
    is reported with the writer node ids so it can be renamed.
    """
    uses = model.variable_uses
    by_ref = dmn.by_reference(tables)

    # what the business rule tasks leave to their tables
    table_writers: dict[str, set[str]] = {}
    table_readers: dict[str, set[str]] = {}
    for node in uses.rule_tasks:
        table = by_ref.get(node.table_ref)
        if table is None:
            continue
        if node.output_map is None:
            for out in table.outputs:
                table_writers.setdefault(out, set()).add(node.id)
        if node.input_map is None:
            for _, expr in table.inputs:
                for name in ast.free_variables(expr):
                    table_readers.setdefault(name, set()).add(node.id)

    roles: dict[str, VariableRole] = {}
    every_name = (uses.input_writers.keys() | uses.process_writers.keys()
                  | uses.readers.keys() | table_writers.keys() | table_readers.keys())
    input_writers, process_writers, readers = uses.input_writers, uses.process_writers, uses.readers
    for name in sorted(every_name):
        inn = input_writers.get(name, _NONE)
        proc = process_writers.get(name, _NONE)
        if table_writers:
            proc = proc | table_writers.get(name, _NONE)
        if inn and proc:
            raise RoleConflictError(name, inn, proc)
        read_by = readers.get(name, _NONE)
        if table_readers:
            read_by = read_by | table_readers.get(name, _NONE)
        roles[name] = VariableRole("process" if proc else "input",
                                   frozenset(inn | proc if inn else proc), frozenset(read_by))
    return roles


def extract_graph(model: ProcessModel) -> ProcessGraph:
    """Plain directed graph over the preprocessed model: the denominators for
    node and edge coverage."""
    return ProcessGraph(tuple([(n.id, n.label) for n in model.nodes]),
                        tuple([(f.source, f.target) for f in model.flows]))
