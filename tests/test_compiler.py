import re
from dataclasses import replace

import pytest

from bproc import (RunOptions, StaticType, compile_model, feel, parse_bpmn, render_source,
                   run_once)
from bproc.compiler import (Assign, Branch, Continue, ConsumeInputs, Fork, InvokeTable,
                            JoinBarrier, Step, Terminate)
from bproc.dmn import DecisionTable, Rule
from bproc.errors import (DateOutOfRangeError, DivisionByZeroError, SchemaError,
                          UnresolvedTableError)
from bproc.feel import ast, parse_expr, render
from bproc.inputs import render_domain

from conftest import FIXTURES, compile_fixture, input_spec, load_fixture
from test_runtime import INCLUSIVE, compile_inline


def test_one_routine_per_node(shipment):
    assert set(shipment.routines) == {n for n, _ in shipment.graph.nodes}
    assert len(shipment.routines) == 14


def test_display_names_follow_the_scheme(shipment):
    assert shipment.routines["StartEvent_Package"].display_name == \
        "EVENT_StartEvent_Package_package_received"
    assert shipment.routines["Gateway_ModeCheck"].display_name == \
        "GATEWAY_Gateway_ModeCheck_mode"
    assert shipment.routines["Activity_GetLength"].display_name == \
        "TASK_Activity_GetLength_get_length"


def test_start_event_consumes_then_continues(shipment):
    step = shipment.routines["StartEvent_Package"].step
    assert step == ConsumeInputs(("pType",), "Activity_GetLength")


def test_branch_case_order_and_default_last(shipment):
    branch = shipment.routines["Gateway_ModeCheck"].step
    assert isinstance(branch, Branch)
    assert [t for _, t in branch.cases] == ["Activity_ChooseConsent", "Gateway_Join",
                                            "Gateway_Join"]
    assert [render(c) for c, _ in branch.cases] == \
        ['sMode = "air"', 'sMode = "car"', 'sMode = "train"']
    assert branch.default == "Gateway_Join"


def test_gateway_after_choose_consent_has_two_cases_plus_join(shipment):
    branch = shipment.routines["Gateway_ConsentCheck"].step
    assert len(branch.cases) == 2
    assert [t for _, t in branch.cases] == ["EndEvent_NoShipment", "Gateway_Join"]
    assert branch.default == "Gateway_Join"


def test_receive_task_lowers_to_part_assignments():
    x = compile_fixture("pingpong")
    receive = x.routines["Activity_Await"].step
    assert receive.channel == "c" and receive.msg_type == "M"
    assert receive.targets == (("v1", "m1"),) and receive.next == "Gateway_Sync"
    send = x.routines["Activity_Send"].step
    assert send.channel == "c" and send.msg_type == "M"
    assert [(part, render(e)) for part, e in send.parts] == [("v1", "3")]


def test_gateway_without_default_fails_unhandled():
    model = parse_bpmn("""<?xml version="1.0"?>
    <definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
      <process id="p">
        <startEvent id="s"/>
        <exclusiveGateway id="g"/>
        <endEvent id="e1"/><endEvent id="e2"/>
        <sequenceFlow id="f0" sourceRef="s" targetRef="g"/>
        <sequenceFlow id="f1" sourceRef="g" targetRef="e1">
          <conditionExpression>1 = 2</conditionExpression>
        </sequenceFlow>
        <sequenceFlow id="f2" sourceRef="g" targetRef="e2">
          <conditionExpression>2 = 3</conditionExpression>
        </sequenceFlow>
      </process>
    </definitions>""")
    x = compile_model(model, ())
    branch = x.routines["g"].step
    assert branch.default is None
    assert len(branch.cases) == 2


def test_business_rule_default_bindings(shipment):
    invoke = shipment.routines["Activity_ChooseConsent"].step
    assert isinstance(invoke, InvokeTable)
    assert [label for label, _ in invoke.arg_bindings] == ["shipping mode", "weight"]
    assert [render(e) for _, e in invoke.arg_bindings] == ["sMode", "pWeight"]
    assert invoke.out_bindings == (("consent", "consent"),)


def test_business_rule_explicit_io_mapping():
    x = compile_fixture("discount", "discount")
    invoke = x.routines["Activity_Discount"].step
    assert invoke.arg_bindings[0][0] == "purchase amount"
    assert render(invoke.arg_bindings[0][1]) == "amount"
    assert invoke.out_bindings == (("rate", "rate"),)


def _counting_entry_evaluations(monkeypatch, tables):
    """Count, per output entry of `tables`, its evaluations: the walk that
    folds it (`feel.constant`, which evaluates a variable-free entry once)
    and the calls of its compiled form."""
    entries = {id(entry): entry for table in tables for rule in table.rules
               for entry in rule.output_entries}
    calls = {key: 0 for key in entries}
    compile_expr, constant = feel.compile_expr, feel.constant

    def counting_constant(expr):
        if id(expr) in entries:
            calls[id(expr)] += 1
        return constant(expr)

    def counting(expr):
        compiled = compile_expr(expr)
        if id(expr) not in entries:
            return compiled

        def counted(env):
            calls[id(expr)] += 1
            return compiled(env)
        return counted

    monkeypatch.setattr(feel, "compile_expr", counting)
    monkeypatch.setattr(feel.evaluator, "compile_expr", counting)  # inside feel.evaluate
    monkeypatch.setattr(feel, "constant", counting_constant)
    return calls


def test_table_outputs_are_evaluated_once_per_table(monkeypatch):
    model, tables = load_fixture("shipment", "shipment")
    unused = DecisionTable("Unused", "Unused", "First", (("x", ast.Var("x")),), ("o",),
                           (Rule((ast.Dash(),), (parse_expr("1 / 0"),)),))
    calls = _counting_entry_evaluations(monkeypatch, tables + [unused])
    x = compile_model(model, tables + [unused])  # inference runs several rounds
    assert set(x.tables.values()) == set(tables)
    for _ in range(20):  # the runs share the values inference folded
        draws = {spec.name: [spec.sample] for spec in x.input_vars}
        run_once(x, draws, RunOptions(mode="sequential"))
    used = {id(e) for t in tables for r in t.rules for e in r.output_entries}
    assert all(calls[key] == 1 for key in used)
    assert calls[id(unused.rules[0].output_entries[0])] == 0  # never for an unused table


def test_raising_output_entry_of_a_used_table_fails_compilation():
    model, (length, *others) = load_fixture("shipment", "shipment")
    first = length.rules[0]
    broken = replace(length, rules=(replace(first, output_entries=(parse_expr("1 / 0"),)),)
                     + length.rules[1:])
    with pytest.raises(DivisionByZeroError, match="division by zero"):
        compile_model(model, [broken, *others])


def test_unresolved_table_reference(shipment_parsed):
    model, _ = shipment_parsed
    with pytest.raises(UnresolvedTableError):
        compile_model(model, ())


def test_error_end_gets_code_and_description(shipment):
    terminate = shipment.routines["EndEvent_NoShipment"].step
    assert terminate == Terminate("error", "NO_SHIPMENT", "no shipment")


def test_error_end_without_code_gets_synthetic_one():
    model = parse_bpmn("""<?xml version="1.0"?>
    <definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL">
      <process id="p">
        <startEvent id="s"/>
        <endEvent id="e" name="boom"><errorEventDefinition/></endEvent>
        <sequenceFlow id="f" sourceRef="s" targetRef="e"/>
      </process>
    </definitions>""")
    x = compile_model(model, ())
    terminate = x.routines["e"].step
    assert terminate.code == "ERR_e"


def test_fork_and_barrier_lowering():
    x = compile_fixture("pingpong")
    fork = x.routines["Gateway_Split"].step
    assert fork == Fork(("Activity_Await", "Activity_Send"), "Gateway_Sync")
    barrier = x.routines["Gateway_Sync"].step
    assert barrier == JoinBarrier("Activity_Combine")


def test_inclusive_gateway_gets_conditions():
    x = compile_inline(INCLUSIVE.format(value=4))
    fork = x.routines["g"].step
    assert fork.conditions is not None
    assert [render(c) for c in fork.conditions] == ["x > 1", "x > 10"]
    assert fork.join_id == "j"


def test_variable_typing(shipment):
    types = dict(shipment.process_vars)
    assert types["pLength"] is StaticType.INTEGER
    assert types["sMode"] is StaticType.STRING
    assert types["consent"] is StaticType.STRING
    assert input_spec(shipment, "pWeight").static_type is StaticType.DOUBLE
    assert input_spec(shipment, "pType").static_type is StaticType.STRING


def test_assignment_types_propagate():
    x = compile_fixture("quote")
    assert dict(x.process_vars)["price"] is StaticType.DOUBLE
    x = compile_fixture("onboarding")
    assert dict(x.process_vars)["done"] is StaticType.BOOLEAN


def reversed_chain(length: int, messages: bool) -> str:
    """start -> tasks v1 := 5, v2 := v1, ... -> end, the tasks listed last to
    first. With `messages`, each value after the first reaches its task
    through a send and a receive: w<i> is received from channel c<i>."""
    tasks, order = [], []
    for i in range(1, length + 1):
        source = "5" if i == 1 else (f"w{i - 1}" if messages else f"v{i - 1}")
        if messages and i > 1:
            tasks.append(f'<sendTask id="S{i}"><extensionElements><ext:ioMapping '
                         f'channel="c{i}"><ext:input source="=v{i - 1}" target="p"/>'
                         f'</ext:ioMapping></extensionElements></sendTask>'
                         f'<receiveTask id="R{i}"><extensionElements><ext:ioMapping '
                         f'channel="c{i}"><ext:output source="p" target="w{i - 1}"/>'
                         f'</ext:ioMapping></extensionElements></receiveTask>')
            order += [f"S{i}", f"R{i}"]
        tasks.append(f'<scriptTask id="T{i}" resultVariable="v{i}">'
                     f'<script>{source}</script></scriptTask>')
        order.append(f"T{i}")
    chain = ["s", *order, "e"]
    flows = [f'<sequenceFlow id="f{k}" sourceRef="{a}" targetRef="{b}"/>'
             for k, (a, b) in enumerate(zip(chain, chain[1:]))]
    return ('<definitions xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" '
            'xmlns:ext="http://x/ext"><process id="p"><startEvent id="s"/><endEvent id="e"/>'
            + "".join(reversed(tasks)) + "".join(flows) + "</process></definitions>")


@pytest.mark.parametrize("messages", [False, True], ids=["scripts", "messages"])
@pytest.mark.parametrize("length", [15, 60])
def test_assignment_types_reach_their_fixpoint(length, messages):
    x = compile_model(parse_bpmn(reversed_chain(length, messages)), ())
    names = [f"v{i}" for i in range(1, length + 1)]
    if messages:
        names += [f"w{i}" for i in range(1, length)]
    assert dict(x.process_vars) == {name: StaticType.INTEGER for name in names}
    assert not any("no type evidence" in note for note in x.diagnostics)
    assert f"  v{length} : Integer" in render_source(x).splitlines()


def test_compilation_is_deterministic(shipment_parsed):
    model, tables = shipment_parsed
    a = render_source(compile_model(model, tables, sample_seed=42))
    b = render_source(compile_model(model, tables, sample_seed=42))
    assert a == b


def test_rendered_source_mentions_every_routine(shipment):
    text = render_source(shipment)
    for routine in shipment.routines.values():
        assert f"proc {routine.display_name}:" in text
    assert text.count("\n") >= len(shipment.routines)
    assert "init: every variable := undefined" in text
    assert "execute: call EVENT_StartEvent_Package_package_received" in text


def test_pass_through_join_renders_as_a_single_call(shipment):
    text = render_source(shipment)
    block = text.split("proc GATEWAY_Gateway_Join_join:\n", 1)[1].split("\n\n", 1)[0]
    assert block.splitlines() == ["  call EVENT_EndEvent_Ready_ready_for_shipment"]


def test_embedded_expressions_parse_back(shipment):
    for routine in shipment.routines.values():
        step = routine.step
        exprs = []
        if isinstance(step, Assign):
            exprs.append(step.expr)
        elif isinstance(step, Branch):
            exprs.extend(c for c, _ in step.cases)
        elif isinstance(step, InvokeTable):
            exprs.extend(e for _, e in step.arg_bindings)
        for expr in exprs:
            assert parse_expr(render(expr)) == expr


def successors(step: Step) -> list[str]:
    """The routines a step names: those it can call next, and a fork's join."""
    if isinstance(step, Branch):
        return [t for _, t in step.cases] + ([step.default] if step.default else [])
    if isinstance(step, Fork):
        return [*step.targets, step.join_id]
    if isinstance(step, Continue):
        return [step.target]
    return [] if isinstance(step, Terminate) else [step.next]


def test_every_continuation_target_exists(shipment):
    pingpong = compile_fixture("pingpong")
    for x in (shipment, pingpong):
        for routine in x.routines.values():
            assert isinstance(routine.step, Step.__args__), routine.id
            assert all(t in x.routines for t in successors(routine.step)), routine.id


def reachable(entry: str, succ) -> set[str]:
    seen, frontier = {entry}, [entry]
    while frontier:
        for nxt in succ(frontier.pop()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_reachable_routines_equal_graph_reachability(shipment):
    # the compiler introduces no dead code
    for x in (shipment, compile_fixture("pingpong"), compile_fixture("loop")):
        graph = reachable(x.entry, lambda n: [dst for src, dst in x.graph.edges if src == n])
        assert reachable(x.entry, lambda n: successors(x.routines[n].step)) == graph, x.name


CHOOSE_CONSENT = '<ext:calledDecision decisionId="ChooseConsentDT"/>'


@pytest.mark.parametrize("mapping, message", [
    ('<ext:input source="=sMode" target="shipping mode"/>',
     "leaves table inputs ['weight'] unbound"),
    ('<ext:input source="=sMode" target="shipping mode"/>'
     '<ext:input source="=pWeight" target="weight"/><ext:input source="=1" target="size"/>',
     "binds unknown table inputs ['size']"),
    ('<ext:output source="verdict" target="consent"/>',
     "maps unknown table outputs ['verdict']"),
], ids=["unbound input", "unknown input", "unknown output"])
def test_an_io_mapping_that_misses_the_table_fails_compilation(mapping, message):
    # every table input is bound at compile time, so a run never meets an unbound one
    _, tables = load_fixture("shipment", "shipment")
    text = (FIXTURES / "shipment.bpmn").read_text()
    assert text.count(CHOOSE_CONSENT) == 1
    text = text.replace(CHOOSE_CONSENT,
                        f"{CHOOSE_CONSENT}<ext:ioMapping>{mapping}</ext:ioMapping>")
    with pytest.raises(SchemaError, match=re.escape(f"task 'Activity_ChooseConsent' {message}")):
        compile_model(parse_bpmn(text.encode()), tables)


ONE_TABLE = ('<?xml version="1.0"?><definitions '
             'xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" xmlns:ext="http://x/ext">'
             '<process id="p" name="P"><startEvent id="s"/><businessRuleTask id="b">'
             '<extensionElements><ext:calledDecision decisionId="T"/></extensionElements>'
             '</businessRuleTask><endEvent id="e"/>'
             '<sequenceFlow id="f0" sourceRef="s" targetRef="b"/>'
             '<sequenceFlow id="f1" sourceRef="b" targetRef="e"/></process></definitions>')


@pytest.mark.parametrize("cell, static_type, domain", [
    ("-", StaticType.STRING, "UNHANDLED()"),
    ('"a"', StaticType.STRING, 'ENUM("a")'),
    ("<= 9", StaticType.INTEGER, "BALL(9)"),
    ("[1..5]", StaticType.INTEGER, "RANGE([1,5])"),
    ('not("a")', StaticType.STRING, 'ENUM("a")'),
    ("1, 2", StaticType.INTEGER, "ENUM(1,2)"),
    # ordering against null holds for no value, so it is no evidence, as
    # `x < null` in a condition is none
    ("< null", StaticType.STRING, "UNHANDLED()"),
])
def test_a_cell_kind_infers_the_type_and_domain_of_its_column(cell, static_type, domain):
    table = DecisionTable("T", "T", "First", (("x", ast.Var("x")),), ("o",),
                          (Rule((feel.parse_unary_test(cell),), (ast.Lit(1),)),))
    x = compile_model(parse_bpmn(ONE_TABLE), [table])
    spec = input_spec(x, "x")
    assert (spec.static_type, render_domain(spec.domain)) == (static_type, domain)
    assert not any("mixed numeric" in note for note in x.diagnostics)


def test_a_raising_output_entry_is_named_by_its_table_rule_and_column():
    # inferring the output types evaluates every entry of a used table, so an
    # entry that raises fails compilation, located as the DMN parser locates
    # a cell it cannot read
    model, (length, *others) = load_fixture("shipment", "shipment")
    rules = list(length.rules)
    rules[2] = replace(rules[2], output_entries=(parse_expr("1 / 0"),))
    broken = replace(length, rules=tuple(rules))
    with pytest.raises(DivisionByZeroError) as raised:
        compile_model(model, [broken, *others])
    assert str(raised.value) == "table 'GetLengthDT' rule 3 output 1: division by zero"


OUT_OF_RANGE_DATE = feel.Temporal("date", 0)  # no date literal parses to it


def test_an_out_of_range_date_in_a_cell_gives_a_domain_or_a_bproc_error():
    def compiled(cell):
        table = DecisionTable("T", "T", "First", (("x", ast.Var("x")),), ("o",),
                              (Rule((cell,), (ast.Lit(1),)),))
        return compile_model(parse_bpmn(ONE_TABLE), [table])

    spec = input_spec(compiled(ast.EqualsConst(OUT_OF_RANGE_DATE)), "x")
    assert (spec.static_type, spec.domain.values) == (StaticType.DATE, (OUT_OF_RANGE_DATE,))
    with pytest.raises(DateOutOfRangeError, match="date ordinal 0 is outside"):
        render_domain(spec.domain)
    # a comparison's domain fact quotes the date it compares with
    with pytest.raises(DateOutOfRangeError):
        compiled(ast.Comparison("<", ast.Lit(OUT_OF_RANGE_DATE)))
