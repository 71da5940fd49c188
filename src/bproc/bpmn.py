"""BPMN 2.0 XML parsing into a validated process model.

Element matching is by local name, so the standard namespaces and the
common vendor extension namespaces (calledDecision / ioMapping / script)
are all accepted. Parsing also applies the multiple-outgoing-flow fix:
a task with several outgoing flows gets an inserted exclusive gateway
(`autogw_<taskId>`) carrying those flows, keeping traces traceable to the
original diagram.

Parsing reads each element where BPMN puts it, and no other: the process,
its messages and errors among the root's children, the pools among a
collaboration's children, and the nodes, flows and data objects among the
process's own children. Each child of the process is read by what its tag
maps to, worked out once per distinct tag (`_Handlers`); the flows and
gateways, the commonest children, are read in that loop itself. Each node
and flow record is built once. A gateway's record waits until every flow
is read, when its degree tells a split from a join. The flow index
(`ProcessModel.adjacency`) is built once, over the flows as read, and
finishing the records reads it and patches it in place
(`_Builder.finish`): a flow named default by an element read after it is
marked, and the flows out of a task with several move to its inserted
gateway. Validation reads the same index, and walks the nodes or flows
in order only to name the first fault of a kind it found. The variable
uses that roles are classified from (`ProcessModel.variable_uses`) are
computed once, and `compile_model` reuses them and the index. Computing
the variable uses walks each expression once (`feel.types.scan`), for
its free variables and its type evidence together; the walk's result is
kept there, so type inference in `compile_model` walks no expression of
the model again. Domain inference walks again each expression that reads
an input variable (`inputs.facts_from_expr`).

Set-up runs with the cyclic garbage collector paused
(`collector_paused`): nearly every object a model's construction
allocates survives it, so a collection during construction only walks
the growing model again. The pause defers that walk rather than saving
it: the first young collection after a paused call walks every tracked
object the call built that is still alive. In
`compile_model(parse_bpmn(...))` no collection runs between the two
calls (seen with `gc.callbacks`): no new tracked object is allocated
before `compile_model` pauses the collector, and most parsed records die
when it returns. The first collection after lowering (`runtime`) walks
what is left and the lowered program, fewer objects since the lowered
closures stopped holding their names in cells (the counts and times:
CHANGES.md).
"""

from __future__ import annotations

import functools
import gc
import logging
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, partial

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

    # The model's one numbering of coverage: a node's or a (source, target)
    # pair's index is its position among the distinct ones, in document
    # order. The runtime lowers every node and pair to these indexes, and a
    # campaign's hit arrays are sized and named by them.

    @cached_property
    def node_index(self) -> dict[str, int]:
        """Distinct node id -> its coverage index."""
        return {node_id: i for i, node_id in enumerate(dict.fromkeys(
            node_id for node_id, _ in self.nodes))}

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], int]:
        """Distinct (source, target) pair -> its coverage index."""
        return {pair: i for i, pair in enumerate(dict.fromkeys(self.edges))}

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

    @property
    def start(self) -> Node:
        return next(n for n in self.nodes if n.kind == "start")


def adjacency(flows) -> tuple[dict[str, list[SequenceFlow]], dict[str, list[SequenceFlow]]]:
    """(outgoing, incoming): node id -> its flows, in document order. A node
    without flows on a side maps to an empty list."""
    out: dict[str, list[SequenceFlow]] = {}
    inc: dict[str, list[SequenceFlow]] = {}
    for flow in flows:  # a plain dict's lookups are quicker than a defaultdict's
        source, target = flow.source, flow.target
        if source in out:
            out[source].append(flow)
        else:
            out[source] = [flow]
        if target in inc:
            inc[target].append(flow)
        else:
            inc[target] = [flow]
    return defaultdict(list, out), defaultdict(list, inc)


def _strip_expr(text: str) -> str:
    text = (text or "").strip()
    return text[1:].strip() if text.startswith("=") else text


def collector_paused(fn):
    """Wrap `fn` to run with the cyclic garbage collector disabled.

    The collector's previous state comes back when `fn` returns or
    raises, so a caller that had disabled it keeps it disabled. What `fn`
    allocates must hold no reference cycles: nothing collects them later.
    The pause costs later what it saves now: the first collection after
    `fn` returns walks every tracked object `fn` built that is still alive
    (see the module docstring for the figures), so a paused call should
    build few.
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


#: the process children that declare data objects
_DATA_KINDS = frozenset({"dataObjectReference", "dataObject"})


@collector_paused
def parse_bpmn(data: bytes | str) -> ProcessModel:
    """Parse one BPMN document (one process) into a preprocessed, validated model."""
    root = safexml.fromstring(data, "BPMN")
    local = LocalNames()

    # the process, messages, errors and collaborations are the root's
    # children; the pools are a collaboration's participants
    processes, messages, errors = [], [], {}
    has_participant = False
    for el in root:
        tag = local[el.tag]
        if tag == "process":
            processes.append(el)
        elif tag == "message":
            messages.append(MessageDef(el.get("id") or el.get("name"),
                                       el.get("name") or el.get("id")))
        elif tag == "error":
            errors[el.get("id")] = (el.get("errorCode"), el.get("name"))
        elif tag == "collaboration" and not has_participant:
            has_participant = any(local[child.tag] == "participant" for child in el)
    if not processes:
        raise SchemaError("document contains no process element")
    if len(processes) > 1:
        raise SchemaError("document contains more than one process; one per file is supported")
    process = processes[0]

    if has_participant:
        log.warning("pools/lanes present; they carry no execution semantics and are skipped")

    message_names = {m.id: m.name for m in messages}

    builder = _Builder(errors, message_names, local)
    builder.add_all(process)

    index = adjacency(builder.flows)
    nodes, flows = builder.finish(*index)
    model = ProcessModel(
        process_id=process.get("id") or "process",
        name=process.get("name") or process.get("id") or "process",
        nodes=nodes,
        flows=flows,
        messages=messages,
        diagnostics=builder.diagnostics,
        adjacency=index,
    )
    _validate(model, builder.split_gateways)
    _check_roles(model.variable_uses)
    return model


_GATEWAY_KINDS = ("exclusive_gateway", "parallel_gateway", "inclusive_gateway")
#: gateway kind -> the join kind of such a gateway when it joins
_JOIN_KINDS = {kind: kind.removesuffix("_gateway") for kind in _GATEWAY_KINDS}


class _Builder:
    """Builds the records of one process's elements, read in document order.

    Each child of the process is read by the handler its tag maps to
    (`_Handlers`), and its record is built once. An element's own children
    are read in one pass (`_children`, or `_io_mapping` for the send and
    receive tasks, which read only their ioMapping). The code for the
    commonest elements (flows, gateways, tasks) loops where a comprehension
    or generator expression would be a function call of its own. A task's
    `Node` gets its leading fields by position and its kind's own fields set
    right after, before anything else sees it: matching keywords against the
    18 fields costs about as much as the rest of the call."""

    def __init__(self, errors, message_names, local: LocalNames):
        self.errors = errors
        self.message_names = message_names
        self.local = local
        self.process = None  # the element whose children `add_all` reads
        # data object (reference) id -> its variable; read when a data
        # association first needs it (`_association`)
        self.data_names: dict[str, str] | None = None
        # a gateway stays (id, label, kind) until its flows are all known;
        # `gateways` holds the positions of those tuples in `nodes`
        self.nodes: list[Node | tuple[str, str, str]] = []
        self.gateways: list[int] = []
        self.flows: list[SequenceFlow] = []
        self.default_ids: set[str] = set()  # the flows elements read so far name as default
        self.split_gateways: list[Node] = []  # every split gateway, once `finish` made them
        self.diagnostics: list[str] = []

    def add_all(self, process) -> None:
        """Read every child element of `process`, in document order, by what
        its tag maps to (`_Handlers`): a sequence flow or a gateway is read
        here, any other element by its function."""
        self.process = process
        handlers = _Handlers(self)
        flows, nodes, gateways, default_ids = self.flows, self.nodes, self.gateways, \
            self.default_ids
        for el in process:
            handler = handlers[el.tag]
            if handler is _FLOW:
                attrib = el.attrib  # a dict: its `get` is cheaper than the element's
                flow_id = attrib.get("id")
                source, target = attrib.get("sourceRef"), attrib.get("targetRef")
                if not (flow_id and source and target):
                    raise SchemaError("sequence flow needs id, sourceRef and targetRef")
                condition = self._condition(el) if len(el) else None
                flows.append(SequenceFlow(flow_id, source, target, condition,
                                          flow_id in default_ids))
            elif handler.__class__ is str:  # the kind of a gateway
                attrib = el.attrib
                node_id = attrib.get("id")
                if not node_id:
                    raise SchemaError(f"{self.local[el.tag]} without id")
                default = attrib.get("default")
                if default:
                    default_ids.add(default)
                gateways.append(len(nodes))
                nodes.append((node_id, attrib.get("name") or node_id, handler))
            else:
                handler(el)

    def _handler(self, name: str):
        """What reads a process child of local name `name`: `_FLOW` for a
        sequence flow, its kind for a gateway, else a function of the
        element."""
        if name == "sequenceFlow":
            return _FLOW
        if name in _GATEWAYS:
            return _GATEWAYS[name]
        if name in _READERS:
            reader, kind = _READERS[name]
            return reader.__get__(self) if kind is None else partial(reader, self, kind)
        if name in _SKIPPED:
            if name in ("laneSet", "lane", "textAnnotation", "association"):
                return partial(self._skipped, name)
            return _ignored
        if name in _UNSUPPORTED:
            return partial(_unsupported, name)
        return partial(self._unknown, name)

    def _skipped(self, name: str, el) -> None:
        log.warning("skipping %s element (no execution semantics)", name)
        self.diagnostics.append(f"skipped {name}")

    def _unknown(self, name: str, el) -> None:
        log.warning("ignoring unknown element %r", name)
        self.diagnostics.append(f"ignored unknown element {name}")

    def finish(self, outgoing, incoming) -> tuple[list[Node], list[SequenceFlow]]:
        """The nodes and flows in document order, finished against the flow
        index `adjacency` built over the flows as read, which is patched to
        match. Every record is built once; a flow is changed in place:
        - a flow is marked default when it is read, or here when the element
          naming it is read after it;
        - the flows out of a task or event with several of them leave an
          inserted exclusive gateway `autogw_<id>` instead, with their
          conditions and default marks; the gateway comes right after the
          node, and the flow `autoflow_<id>` into it right before the first
          of them (the multiple-outgoing-flow fix);
        - each gateway with two or more incoming flows and one outgoing flow
          is made a join, any other a split (`split_gateways`, in node
          order, then the inserted ones); `_validate` checks their degrees.
        """
        nodes, flows, default_ids = self.nodes, self.flows, self.default_ids
        if default_ids:
            for flow in flows:
                if flow.id in default_ids:
                    flow.is_default = True
        split = dict.fromkeys([node.id for node in nodes
                               if type(node) is Node and len(outgoing[node.id]) > 1])
        autoflows = {}  # inserted gateway id -> the flow into it
        for source in split:
            gw_id = f"autogw_{source}"
            autoflows[gw_id] = into = SequenceFlow(f"autoflow_{source}", source, gw_id)
            moved = outgoing[gw_id] = outgoing[source]
            for flow in moved:
                flow.source = gw_id
            outgoing[source] = incoming[gw_id] = [into]
        splits = self.split_gateways
        for i in self.gateways:
            node_id, label, kind = nodes[i]
            if len(incoming[node_id]) >= 2 and len(outgoing[node_id]) == 1:
                nodes[i] = node = Node(node_id, label, "join_gateway")
                node.join_kind = _JOIN_KINDS[kind]
            else:
                nodes[i] = node = Node(node_id, label, kind)
                splits.append(node)
        if not split:
            return nodes, flows
        finished_nodes = []
        for node in nodes:
            finished_nodes.append(node)
            if node.id in split:
                gw_id = f"autogw_{node.id}"
                gateway = Node(gw_id, node.label, "exclusive_gateway")
                finished_nodes.append(gateway)
                splits.append(gateway)
                self.diagnostics.append(f"inserted {gw_id} for multi-output node {node.id}")
        finished_flows = []
        for flow in flows:
            into = autoflows.pop(flow.source, None)
            if into is not None:
                finished_flows.append(into)
            finished_flows.append(flow)
        return finished_nodes, finished_flows

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
        if data_names is None:  # a data object may come after the tasks that use it
            data_names = self.data_names = {
                el.get("id"): el.get("name") or el.get("id")
                for el in self.process if local[el.tag] in _DATA_KINDS}
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

    def _io_mapping(self, el, side: str) -> tuple[str | None, list[tuple[str, str]]]:
        """The channel, and the (source, target) pairs of the `side` entries
        ("input" or "output"), that the ioMappings among `el`'s extension
        elements declare, as `_children` reads them."""
        local = self.local
        channel, pairs = None, []
        for child in el:
            if local[child.tag] == "extensionElements":
                for item in child:
                    if local[item.tag] == "ioMapping":
                        channel = item.get("channel") or channel
                        for entry in item:
                            if local[entry.tag] == side:
                                pairs.append((entry.get("source") or "",
                                              entry.get("target") or ""))
        return channel, pairs

    # --- element readers, one per element local name (see _READERS) ---

    def _end_event(self, el):
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

    def _plain_task(self, kind, el):
        node_id, label = self._base(el)
        found = self._children(el)
        writes = found.writes
        for _, target in found.io_outputs:
            if target:
                writes.append(target)
        self.nodes.append(Node(node_id, label, kind, tuple(writes), tuple(found.reads)))

    def _expr_task(self, kind, el):
        node_id, label = self._base(el)
        found = self._children(el)
        expr_text, target = None, None
        body = found.body
        if body is not None and (body.text or "").strip():
            expr_text = body.text.strip()
            target = el.get("resultVariable") or next(
                (el.get(k) for k in el.keys() if self.local[k] == "resultVariable"), None)
        elif found.script:
            expr_text, target = found.script
        elif found.io_outputs:
            expr_text, target = found.io_outputs[0]
        if not expr_text or not target:
            raise SchemaError(f"{kind} {node_id!r} needs an expression and a result variable")
        node = Node(node_id, label, kind, tuple(found.writes), tuple(found.reads))
        node.expr, node.target = feel.parse_expr(_strip_expr(expr_text)), target
        self.nodes.append(node)

    def _rule_task(self, el):
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

    def _send_task(self, el):
        node_id, label = self._base(el)
        channel, inputs = self._io_mapping(el, "input")
        if not channel:
            raise SchemaError(f"send task {node_id!r} has no channel")
        msg_type = self.message_names.get(el.get("messageRef"), f"M_{channel}")
        parts = []
        for source, target in inputs:
            parts.append((target, feel.parse_expr(_strip_expr(source))))
        if not parts:
            raise SchemaError(f"send task {node_id!r} declares no message parts")
        node = Node(node_id, label, "send_task")
        node.channel, node.msg_type, node.send_parts = channel, msg_type, tuple(parts)
        self.nodes.append(node)

    def _receive_task(self, el):
        node_id, label = self._base(el)
        channel, parts = self._io_mapping(el, "output")
        if not channel:
            raise SchemaError(f"receive task {node_id!r} has no channel")
        msg_type = self.message_names.get(el.get("messageRef"), f"M_{channel}")
        if not parts:
            raise SchemaError(f"receive task {node_id!r} declares no message parts")
        writes = []
        for _, target in parts:
            writes.append(target)
        node = Node(node_id, label, "receive_task", tuple(writes))
        node.channel, node.msg_type, node.receive_parts = channel, msg_type, tuple(parts)
        self.nodes.append(node)

    def _condition(self, flow) -> ast.FeelExpr | None:
        """The condition of a sequence flow element: its last
        conditionExpression child with text."""
        condition = None
        local = self.local
        for cond in flow:
            if local[cond.tag] == "conditionExpression":
                text = _strip_expr(cond.text or "")
                if text:
                    condition = feel.parse_expr(text)
        return condition


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


#: element local name -> (the `_Builder` method that reads it, the node kind
#: it is passed first, or None for a method that reads one kind)
_READERS = {
    "startEvent": (_Builder._plain_task, "start"),
    "userTask": (_Builder._plain_task, "user_task"),
    "manualTask": (_Builder._plain_task, "manual_task"),
    "task": (_Builder._plain_task, "manual_task"),  # untyped tasks behave like manual ones
    "endEvent": (_Builder._end_event, None),
    "scriptTask": (_Builder._expr_task, "script_task"),
    "serviceTask": (_Builder._expr_task, "service_task"),
    "businessRuleTask": (_Builder._rule_task, None),
    "sendTask": (_Builder._send_task, None),
    "receiveTask": (_Builder._receive_task, None),
}
#: gateway local name -> its node kind; `_Builder.add_all` reads gateways
_GATEWAYS = {"exclusiveGateway": "exclusive_gateway", "parallelGateway": "parallel_gateway",
             "inclusiveGateway": "inclusive_gateway"}
#: what `_Builder.handler` gives for a sequence flow, which `add_all` reads
_FLOW = object()


class _Handlers(dict):
    """Element tag -> the function that reads a process child of that tag
    (`_Builder._handler`), worked out once per distinct tag of a document."""

    def __init__(self, builder: _Builder):
        super().__init__()
        self.builder = builder

    def __missing__(self, tag: str):
        builder = self.builder
        handler = self[tag] = builder._handler(builder.local[tag])
        return handler


def _ignored(el) -> None:
    """Reads a process child that carries nothing bproc uses."""


def _unsupported(name: str, el) -> None:
    raise UnsupportedElementError(f"element kind {name!r} is not supported")


_END_KINDS = frozenset(("end_success", "end_error"))
_CONDITIONAL_KINDS = frozenset(("exclusive_gateway", "inclusive_gateway"))
_TASK_KINDS = frozenset(TASK_KINDS)


def _validate(model: ProcessModel, gateways: list[Node]) -> None:
    """Raise SchemaError for the first fault, taking the checks in this
    order: duplicate node ids, dangling flows, the start and end events,
    gateway degrees (in node order), the outgoing flows of each node (in
    node order), connectedness. `gateways` are the splits (`_Builder.finish`
    made the joins), the document's in node order. The checks read the
    flow index (`ProcessModel.adjacency`): its keys are the node ids and the
    flows' endpoints, so the flows are walked only to name a dangling one."""
    nodes, flows = model.nodes, model.flows
    out, inc = model.adjacency
    ids = {node.id for node in nodes}
    if len(ids) != len(nodes):
        raise SchemaError("duplicate node ids")
    if not (out.keys() <= ids and inc.keys() <= ids):
        flow = next(flow for flow in flows if flow.source not in ids or flow.target not in ids)
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
    for flow in [flow for flow in model.flows if flow.is_default]:
        if flow.source in defaults and flow.source in conditional:
            faulty.add(flow.source)
        defaults.add(flow.source)
    faulty.update([flow.source for flow in model.flows
                   if flow.condition is not None and flow.source not in conditional])
    faulty.update([node.id for node in model.nodes
                   if node.kind in _TASK_KINDS and not out[node.id]])
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
    conditions = []

    def scanned(expr, node_id: str) -> Scanned:
        free, evidence = scan(expr)
        for name in free:
            ids = readers.get(name)
            if ids is None:
                readers[name] = {node_id}
            else:
                ids.add(node_id)
        return expr, free, evidence

    for node in model.nodes:
        kind = node.kind
        if kind in _GATEWAY_OR_END_KINDS and not node.reads:
            continue  # writes nothing and reads nothing
        node_id = node.id
        if kind in INPUT_WRITER_KINDS:
            _note(input_writers, node.writes, node_id)
        elif kind == "script_task" or kind == "service_task":
            _note(process_writers, (node.target,), node_id)
            writers.append((node, [scanned(node.expr, node_id)]))
        elif kind == "send_task":
            parts = []
            for _, expr in node.send_parts:
                parts.append(scanned(expr, node_id))
            writers.append((node, parts))
        elif kind == "receive_task":
            for _, var in node.receive_parts:
                _note(process_writers, (var,), node_id)
            writers.append((node, []))
        elif kind == "business_rule_task":
            if node.output_map is not None:
                for _, var in node.output_map:
                    _note(process_writers, (var,), node_id)
            inputs = None
            if node.input_map is not None:
                inputs = []
                for _, expr in node.input_map:
                    inputs.append(scanned(expr, node_id))
            if node.output_map is None or node.input_map is None:
                rule_tasks.append(node)
            writers.append((node, inputs))
        if node.reads:
            _note(readers, node.reads, node_id)

    for flow in model.flows:
        if flow.condition is not None:
            conditions.append(scanned(flow.condition, flow.source))
    return _VariableUses(input_writers, process_writers, readers, tuple(rule_tasks),
                         conditions, writers)


#: the node kinds that write no variable: a node of one reads only `reads`
_GATEWAY_OR_END_KINDS = frozenset((*_GATEWAY_KINDS, "join_gateway", *_END_KINDS))


def _note(uses: dict[str, set[str]], names, node_id: str) -> None:
    """Add `node_id` to the set of each of `names` in `uses`."""
    for name in names:
        ids = uses.get(name)
        if ids is None:
            uses[name] = {node_id}
        else:
            ids.add(node_id)


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
