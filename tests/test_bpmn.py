import pytest

from bproc import classify_variables, extract_graph, parse_bpmn
from bproc.errors import RoleConflictError, SchemaError, UnsupportedElementError

from conftest import DTD_BPMN, PROLOG_ITEMS, after_declaration, with_doctype
from oracles import incoming, node_of, outgoing

HEADER = '<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" ' \
         'xmlns:ext="http://x/ext">'


def doc(process_body: str, prelude: str = "") -> str:
    return (f'<?xml version="1.0"?>{HEADER}{prelude}'
            f'<process id="p" name="P">{process_body}</process></definitions>')


def test_shipment_node_inventory(shipment_parsed):
    model, _ = shipment_parsed
    kinds = {}
    for node in model.nodes:
        kinds.setdefault(node.kind, []).append(node.label)
    assert kinds["start"] == ["package received"]
    assert sorted(kinds["business_rule_task"]) == ["choose consent", "determine mode",
                                                   "get length"]
    assert kinds["user_task"] == ["measure weight"]
    assert len(kinds["exclusive_gateway"]) == 4
    assert len(kinds["join_gateway"]) == 1
    assert len(kinds["end_success"]) == 1
    assert len(kinds["end_error"]) == 3
    assert len(model.nodes) == 14


def test_shipment_graph_counts(shipment_parsed):
    model, _ = shipment_parsed
    graph = extract_graph(model)
    assert len(graph.nodes) == 14
    assert len(graph.edges) == 17


def test_trivial_process_graph():
    model = parse_bpmn(doc("""
      <startEvent id="s"/>
      <endEvent id="e"/>
      <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
    """))
    graph = extract_graph(model)
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1


def test_extraction_is_deterministic(fixtures_dir):
    data = (fixtures_dir / "shipment.bpmn").read_bytes()
    g1 = extract_graph(parse_bpmn(data))
    g2 = extract_graph(parse_bpmn(data))
    assert g1 == g2


def test_two_start_events_rejected():
    with pytest.raises(SchemaError):
        parse_bpmn(doc("""
          <startEvent id="s1"/><startEvent id="s2"/>
          <endEvent id="e"/>
          <sequenceFlow id="f1" sourceRef="s1" targetRef="e"/>
        """))


def test_dangling_flow_rejected():
    with pytest.raises(SchemaError):
        parse_bpmn(doc("""
          <startEvent id="s"/><endEvent id="e"/>
          <sequenceFlow id="f" sourceRef="s" targetRef="ghost"/>
        """))


def test_disconnected_node_rejected():
    with pytest.raises(SchemaError):
        parse_bpmn(doc("""
          <startEvent id="s"/><endEvent id="e"/>
          <manualTask id="island" name="never wired"/>
          <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
        """))


def test_event_based_gateway_unsupported():
    with pytest.raises(UnsupportedElementError):
        parse_bpmn(doc("""
          <startEvent id="s"/><eventBasedGateway id="g"/><endEvent id="e"/>
          <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
        """))


def test_pools_and_lanes_skipped_with_warning(caplog):
    body = """
      <startEvent id="s"/><endEvent id="e"/>
      <laneSet id="ls"><lane id="l1"/></laneSet>
      <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
    """
    with caplog.at_level("WARNING", logger="bproc"):
        model = parse_bpmn(doc(body))
    assert any("laneSet" in m for m in caplog.messages)
    assert len(model.nodes) == 2


def test_multi_output_task_gets_inserted_gateway():
    model = parse_bpmn(doc("""
      <startEvent id="s"/>
      <manualTask id="t" name="pick" default="f3"/>
      <endEvent id="e1"/><endEvent id="e2"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="t"/>
      <sequenceFlow id="f2" sourceRef="t" targetRef="e1">
        <conditionExpression>1 = 1</conditionExpression>
      </sequenceFlow>
      <sequenceFlow id="f3" sourceRef="t" targetRef="e2"/>
    """))
    gw = node_of(model, "autogw_t")
    assert gw.kind == "exclusive_gateway"
    assert [f.target for f in outgoing(model, "t")] == ["autogw_t"]
    assert [f.source for f in incoming(model, "autogw_t")] == ["t"]
    outs = outgoing(model, "autogw_t")
    assert {f.id for f in outs} == {"f2", "f3"}
    assert next(f for f in outs if f.id == "f3").is_default
    assert next(f for f in outs if f.id == "f2").condition is not None


def test_flow_ids_unique(shipment_parsed):
    model, _ = shipment_parsed
    ids = [f.id for f in model.flows]
    assert len(ids) == len(set(ids))


def test_condition_on_parallel_gateway_edge_rejected():
    with pytest.raises(SchemaError):
        parse_bpmn(doc("""
          <startEvent id="s"/><parallelGateway id="g"/>
          <endEvent id="e1"/><endEvent id="e2"/>
          <sequenceFlow id="f1" sourceRef="s" targetRef="g"/>
          <sequenceFlow id="f2" sourceRef="g" targetRef="e1">
            <conditionExpression>1 = 1</conditionExpression>
          </sequenceFlow>
          <sequenceFlow id="f3" sourceRef="g" targetRef="e2"/>
        """))



@pytest.mark.parametrize("body, degree", [
    ("""<startEvent id="s"/><exclusiveGateway id="split"/><manualTask id="a"/>
        <manualTask id="b"/><parallelGateway id="g"/><endEvent id="e1"/><endEvent id="e2"/>
        <sequenceFlow id="f0" sourceRef="s" targetRef="split"/>
        <sequenceFlow id="f1" sourceRef="split" targetRef="a"/>
        <sequenceFlow id="f2" sourceRef="split" targetRef="b"/>
        <sequenceFlow id="f3" sourceRef="a" targetRef="g"/>
        <sequenceFlow id="f4" sourceRef="b" targetRef="g"/>
        <sequenceFlow id="f5" sourceRef="g" targetRef="e1"/>
        <sequenceFlow id="f6" sourceRef="g" targetRef="e2"/>""", (2, 2)),
    ("""<startEvent id="s"/><inclusiveGateway id="g"/><endEvent id="e"/>
        <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
        <sequenceFlow id="f1" sourceRef="g" targetRef="e"/>""", (1, 1)),
], ids=["two_in_two_out", "one_in_one_out"])
def test_gateway_neither_split_nor_join_rejected(body, degree):
    with pytest.raises(SchemaError) as exc_info:
        parse_bpmn(doc(body))
    assert str(exc_info.value) == (
        f"gateway 'g' has {degree[0]} incoming and {degree[1]} outgoing flows; "
        f"expected a split (1 in, 2+ out) or a join (2+ in, 1 out)")

# --- variable classification ---------------------------------------------------

def test_shipment_variable_roles(shipment_parsed):
    model, tables = shipment_parsed
    roles = classify_variables(model, tables)
    assert {n for n, r in roles.items() if r.role == "input"} == {"pType", "pWeight"}
    assert {n for n, r in roles.items() if r.role == "process"} == \
        {"pLength", "consent", "sMode"}


def test_read_never_written_becomes_input():
    model = parse_bpmn(doc("""
      <startEvent id="s"/>
      <scriptTask id="t" name="compute" resultVariable="x"><script>limit + 1</script></scriptTask>
      <endEvent id="e"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="t"/>
      <sequenceFlow id="f2" sourceRef="t" targetRef="e"/>
    """))
    roles = classify_variables(model, ())
    assert roles["limit"].role == "input"
    assert roles["x"].role == "process"


def test_variable_read_only_inside_a_decision_header_is_input():
    from bproc import parse_dmn as _parse_dmn

    # nothing writes pType; only the table's header expression reads it
    model = parse_bpmn(doc("""
      <startEvent id="s"/>
      <businessRuleTask id="b">
        <extensionElements><ext:calledDecision decisionId="GetLengthDT"/></extensionElements>
      </businessRuleTask>
      <endEvent id="e"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="b"/>
      <sequenceFlow id="f2" sourceRef="b" targetRef="e"/>
    """))
    tables = _parse_dmn("""<?xml version="1.0"?>
      <definitions xmlns="https://www.omg.org/spec/DMN/20191111/MODEL/">
        <decision id="GetLengthDT" name="get length">
          <decisionTable>
            <input label="package type">
              <inputExpression><text>pType</text></inputExpression>
            </input>
            <output name="pLength"/>
            <rule><inputEntry><text>-</text></inputEntry>
                  <outputEntry><text>1</text></outputEntry></rule>
          </decisionTable>
        </decision>
      </definitions>""")
    roles = classify_variables(model, tables)
    assert roles["pType"].role == "input"
    assert "b" in roles["pType"].readers
    assert roles["pLength"].role == "process"


def test_role_conflict_reports_both_writers():
    body = """
      <dataObject id="d"/>
      <dataObjectReference id="dr" name="pType" dataObjectRef="d"/>
      <startEvent id="s">
        <dataOutputAssociation id="a1"><targetRef>dr</targetRef></dataOutputAssociation>
      </startEvent>
      <scriptTask id="t" name="rewrite" resultVariable="pType"><script>"xl"</script></scriptTask>
      <endEvent id="e"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="t"/>
      <sequenceFlow id="f2" sourceRef="t" targetRef="e"/>
    """
    with pytest.raises(RoleConflictError) as exc_info:
        parse_bpmn(doc(body))
    assert exc_info.value.name == "pType"
    assert "s" in exc_info.value.input_writers
    assert "t" in exc_info.value.process_writers


def test_vendor_namespace_prefixes_accepted():
    # zeebe-style prefixes on every element; matching is by local name
    xml = """<?xml version="1.0"?>
    <bpmn:definitions xmlns:bpmn="http://www.omg.org/spec/BPMN/20100524/MODEL"
                      xmlns:zeebe="http://camunda.org/schema/zeebe/1.0">
      <bpmn:process id="p">
        <bpmn:startEvent id="s"/>
        <bpmn:serviceTask id="t" name="calc">
          <bpmn:extensionElements>
            <zeebe:script expression="=1 + 2" resultVariable="x"/>
          </bpmn:extensionElements>
        </bpmn:serviceTask>
        <bpmn:endEvent id="e"/>
        <bpmn:sequenceFlow id="f1" sourceRef="s" targetRef="t"/>
        <bpmn:sequenceFlow id="f2" sourceRef="t" targetRef="e"/>
      </bpmn:process>
    </bpmn:definitions>"""
    model = parse_bpmn(xml)
    task = node_of(model, "t")
    assert task.kind == "service_task"
    assert task.target == "x"


def test_roles_partition_input_and_process(shipment_parsed):
    model, tables = shipment_parsed
    roles = classify_variables(model, tables)
    inputs = {n for n, r in roles.items() if r.role == "input"}
    process = {n for n, r in roles.items() if r.role == "process"}
    assert inputs & process == set()
    assert inputs | process == set(roles)


def test_multi_output_fix_keeps_document_order():
    model = parse_bpmn(doc("""
      <startEvent id="s"/>
      <manualTask id="a" default="fa2"/>
      <manualTask id="b" name="second" default="fb2"/>
      <endEvent id="e1"/><endEvent id="e2"/><endEvent id="e3"/>
      <sequenceFlow id="f0" sourceRef="s" targetRef="a"/>
      <sequenceFlow id="fa1" sourceRef="a" targetRef="b">
        <conditionExpression>1 = 1</conditionExpression>
      </sequenceFlow>
      <sequenceFlow id="fb1" sourceRef="b" targetRef="e1">
        <conditionExpression>1 = 1</conditionExpression>
      </sequenceFlow>
      <sequenceFlow id="fa2" sourceRef="a" targetRef="e3"/>
      <sequenceFlow id="fb2" sourceRef="b" targetRef="e2"/>
    """))
    assert [n.id for n in model.nodes] == ["s", "a", "autogw_a", "b", "autogw_b",
                                           "e1", "e2", "e3"]
    assert node_of(model, "autogw_b").label == "second"
    assert [(f.id, f.source, f.target, f.is_default) for f in model.flows] == [
        ("f0", "s", "a", False),
        ("autoflow_a", "a", "autogw_a", False),
        ("fa1", "autogw_a", "b", False),
        ("autoflow_b", "b", "autogw_b", False),
        ("fb1", "autogw_b", "e1", False),
        ("fa2", "autogw_a", "e3", True),
        ("fb2", "autogw_b", "e2", True),
    ]
    assert model.diagnostics == ["inserted autogw_a for multi-output node a",
                                 "inserted autogw_b for multi-output node b"]


@pytest.mark.parametrize("attack", ["laughs", "system"])
def test_document_type_declaration_rejected(attack):
    assert parse_bpmn(DTD_BPMN.format(ref="")).name == "P"
    with pytest.raises(SchemaError, match="document type declarations are not accepted"):
        parse_bpmn(with_doctype(attack, DTD_BPMN))


@pytest.mark.parametrize("prolog", PROLOG_ITEMS)
def test_document_type_declaration_after_a_comment_or_instruction_rejected(prolog):
    plain = '<?xml version="1.0"?>' + DTD_BPMN.format(ref="")
    assert parse_bpmn(after_declaration(prolog, plain)).name == "P"
    for attack in ("laughs", "system"):
        with pytest.raises(SchemaError, match="document type declarations are not accepted"):
            parse_bpmn(after_declaration(prolog, with_doctype(attack, DTD_BPMN)))


def test_a_task_with_no_outgoing_flow_rejected():
    xml = doc("""
      <startEvent id="s"/><exclusiveGateway id="g" default="f_e"/><task id="t"/>
      <endEvent id="e"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="g"/>
      <sequenceFlow id="f_t" sourceRef="g" targetRef="t">
        <conditionExpression>true</conditionExpression></sequenceFlow>
      <sequenceFlow id="f_e" sourceRef="g" targetRef="e"/>
    """)
    with pytest.raises(SchemaError, match="task 't' has no outgoing flow"):
        parse_bpmn(xml)


FLOW_FAULTS = {
    # task `a` names a second default flow out of `g`, and has no outgoing flow itself
    "g": ('<exclusiveGateway id="g" default="f_b"/>',
          "gateway 'g' has several default flows"),
    "a": ('<task id="a" default="f_c"/>',
          "task 'a' has no outgoing flow; only an end event ends a path"),
    "b": ('<task id="b"/>',
          "flow 'f_b2' carries a condition but leaves manual_task 'b'; conditions belong on "
          "exclusive/inclusive gateways"),
}


@pytest.mark.parametrize("order", ["gab", "bga", "abg"])
def test_the_first_flow_fault_in_node_order_is_raised(order):
    xml = doc("".join(FLOW_FAULTS[node_id][0] for node_id in order) + """
      <startEvent id="s"/><task id="c"/><endEvent id="e1"/><endEvent id="e2"/>
      <sequenceFlow id="f1" sourceRef="s" targetRef="g"/>
      <sequenceFlow id="f_b" sourceRef="g" targetRef="b"/>
      <sequenceFlow id="f_c" sourceRef="g" targetRef="c"/>
      <sequenceFlow id="f_b2" sourceRef="b" targetRef="e1">
        <conditionExpression>true</conditionExpression></sequenceFlow>
      <sequenceFlow id="f_c2" sourceRef="c" targetRef="e2"/>
    """)
    with pytest.raises(SchemaError) as info:
        parse_bpmn(xml)
    assert str(info.value) == FLOW_FAULTS[order[0]][1]


def test_document_level_definitions_anywhere_in_the_document(caplog):
    # messages, errors and data objects before, inside and after the process
    text = (f'<?xml version="1.0"?>{HEADER}'
            '<collaboration id="c"><participant id="pool" processRef="p"/></collaboration>'
            '<message id="M2" name="Second"/><error id="Err" errorCode="OLD"/>'
            '<process id="p" name="P">'
            '<dataObject id="d"/><dataObjectReference id="dr" name="amount" dataObjectRef="d"/>'
            '<startEvent id="s"><dataOutputAssociation id="a">'
            '<targetRef>dr</targetRef></dataOutputAssociation></startEvent>'
            '<endEvent id="e"><errorEventDefinition errorRef="Err"/></endEvent>'
            '<sequenceFlow id="f" sourceRef="s" targetRef="e"/></process>'
            '<message name="First"/><error id="Err" errorCode="LATE" name="late error"/>'
            '</definitions>')
    with caplog.at_level("WARNING", logger="bproc"):
        model = parse_bpmn(text)
    assert any("pools/lanes" in m for m in caplog.messages)
    assert [(m.id, m.name) for m in model.messages] == [("M2", "Second"),
                                                        ("First", "First")]
    end = node_of(model, "e")
    assert (end.error_code, end.error_description) == ("LATE", "late error")  # last wins
    assert node_of(model, "s").writes == ("amount",)


@pytest.mark.parametrize("processes, message", [
    ("", "no process element"),
    ('<process id="p1"/><process id="p2"/>', "more than one process"),
], ids=["no_process", "two_processes"])
def test_process_count_errors(processes, message):
    with pytest.raises(SchemaError, match=message):
        parse_bpmn(f'<?xml version="1.0"?>{HEADER}<message id="m"/>{processes}'
                   f'</definitions>')
