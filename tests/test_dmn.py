import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from bproc import evaluate_table, parse_dmn
from bproc.dmn import DecisionTable, Rule
from bproc.errors import (AnyConflictError, FeelSyntaxError, NoMatchError, SchemaError,
                          UniquenessViolationError, UnsupportedHitPolicyError)
from bproc.feel import ast
from bproc.feel.parser import MAX_INT_DIGITS

from conftest import DTD_DMN, PROLOG_ITEMS, after_declaration, with_doctype
from generators import random_table
from oracles import NO_MATCH, formula_table_outputs

MINIMAL_DMN = """<?xml version="1.0"?>
<definitions xmlns="https://www.omg.org/spec/DMN/20191111/MODEL/">
  <decision id="D1" name="first decision">
    <decisionTable id="DT1"{policy}>
      <input label="x"><inputExpression><text>x</text></inputExpression></input>
      <output name="y"/>
      <rule>
        <inputEntry><text>1</text></inputEntry>
        <outputEntry><text>"one"</text></outputEntry>
      </rule>
      <rule>
        <inputEntry><text>-</text></inputEntry>
        <outputEntry><text>"other"</text></outputEntry>
      </rule>
    </decisionTable>
  </decision>
</definitions>
"""


def table_of(rules, hit_policy="First", n_inputs=1, outputs=("y",)):
    return DecisionTable(
        id="T", name="T", hit_policy=hit_policy,
        inputs=tuple((f"in{j + 1}", ast.Var(f"in{j + 1}")) for j in range(n_inputs)),
        outputs=tuple(outputs), rules=tuple(rules))


def rule(cells, values):
    return Rule(tuple(cells), tuple(ast.Lit(v) for v in values))


def test_parse_fixture_tables(shipment_parsed):
    _, tables = shipment_parsed
    by_id = {t.id: t for t in tables}
    assert set(by_id) == {"GetLengthDT", "DetermineModeDT", "ChooseConsentDT"}
    get_length = by_id["GetLengthDT"]
    assert get_length.hit_policy == "Unique"
    assert [label for label, _ in get_length.inputs] == ["package type"]
    assert get_length.outputs == ("pLength",)
    assert len(get_length.rules) == 5
    consent = by_id["ChooseConsentDT"]
    assert [label for label, _ in consent.inputs] == ["shipping mode", "weight"]
    assert consent.default_rule() is not None


def test_absent_hit_policy_defaults_to_first(shipment_parsed):
    _, tables = shipment_parsed
    determine = next(t for t in tables if t.id == "DetermineModeDT")
    assert determine.hit_policy == "First"
    # and the same via a minimal inline document
    tables = parse_dmn(MINIMAL_DMN.format(policy=""))
    assert tables[0].hit_policy == "First"


def test_single_letter_policies():
    assert parse_dmn(MINIMAL_DMN.format(policy=' hitPolicy="U"'))[0].hit_policy == "Unique"
    assert parse_dmn(MINIMAL_DMN.format(policy=' hitPolicy="A"'))[0].hit_policy == "Any"


def test_unsupported_policy_rejected():
    with pytest.raises(UnsupportedHitPolicyError):
        parse_dmn(MINIMAL_DMN.format(policy=' hitPolicy="COLLECT"'))


def test_zero_output_table_rejected():
    doc = MINIMAL_DMN.format(policy="").replace('<output name="y"/>', "")
    doc = doc.replace('<outputEntry><text>"one"</text></outputEntry>', "")
    doc = doc.replace('<outputEntry><text>"other"</text></outputEntry>', "")
    with pytest.raises(SchemaError):
        parse_dmn(doc)


def test_output_entries_must_be_constant():
    doc = MINIMAL_DMN.format(policy="").replace('>"one"<', ">someVar + 1<")
    with pytest.raises(SchemaError):
        parse_dmn(doc)


def test_an_over_long_integer_cell_is_a_syntax_error():
    at_limit = MINIMAL_DMN.format(policy="").replace("<text>1</text>",
                                                   f"<text>{'1' * MAX_INT_DIGITS}</text>")
    assert parse_dmn(at_limit)[0].rules[0].input_entries[0].value == int("1" * MAX_INT_DIGITS)
    past = MINIMAL_DMN.format(policy="").replace("<text>1</text>",
                                                f"<text>{'1' * (MAX_INT_DIGITS + 1)}</text>")
    with pytest.raises(FeelSyntaxError, match=f"longer than {MAX_INT_DIGITS} digits"):
        parse_dmn(past)


def test_input_cells_must_be_constant():
    doc = MINIMAL_DMN.format(policy="").replace("<text>1</text>",
                                                "<text>someVar + 1</text>")
    with pytest.raises(SchemaError):
        parse_dmn(doc)


def test_get_length_for_xl(shipment_parsed):
    _, tables = shipment_parsed
    get_length = next(t for t in tables if t.id == "GetLengthDT")
    assert evaluate_table(get_length, {"package type": "xl"}) == {"pLength": 2}


def test_first_takes_lowest_matching_rule():
    t = table_of([rule([ast.EqualsConst(1)], ["a"]),
                  rule([ast.Dash()], ["b"]),
                  rule([ast.EqualsConst(1)], ["c"])])
    assert evaluate_table(t, {"in1": 1}) == {"y": "a"}
    assert evaluate_table(t, {"in1": 2}) == {"y": "b"}


def test_all_dash_last_row_is_the_default():
    t = table_of([rule([ast.EqualsConst(1)], ["hit"]),
                  rule([ast.Dash()], ["fallback"])])
    assert evaluate_table(t, {"in1": 99}) == {"y": "fallback"}


def test_no_match_without_default():
    t = table_of([rule([ast.EqualsConst(1)], ["hit"])])
    with pytest.raises(NoMatchError):
        evaluate_table(t, {"in1": 2})


def test_unique_violation_and_default_row_exemption():
    t = table_of([rule([ast.EqualsConst(1)], ["a"]),
                  rule([ast.RangeTest(__import__("bproc").feel.FeelRange(0, 5))], ["b"])],
                 hit_policy="Unique")
    with pytest.raises(UniquenessViolationError):
        evaluate_table(t, {"in1": 1})
    # a default row does not count toward uniqueness
    t = table_of([rule([ast.EqualsConst(1)], ["a"]), rule([ast.Dash()], ["d"])],
                 hit_policy="Unique")
    assert evaluate_table(t, {"in1": 1}) == {"y": "a"}


def test_any_requires_agreeing_outputs():
    agreeing = table_of([rule([ast.EqualsConst(1)], ["same"]),
                         rule([ast.Dash()], ["same"])],
                        hit_policy="Any")
    # both rows match: the all-dash row is last, hence the default; use a
    # middle dash row instead to exercise real overlap
    overlapping = table_of([rule([ast.EqualsConst(1)], ["same"]),
                            rule([ast.RangeTest(__import__("bproc").feel.FeelRange(0, 2))],
                                 ["same"])],
                           hit_policy="Any")
    assert evaluate_table(overlapping, {"in1": 1}) == {"y": "same"}
    conflicting = table_of([rule([ast.EqualsConst(1)], ["a"]),
                            rule([ast.RangeTest(__import__("bproc").feel.FeelRange(0, 2))],
                                 ["b"])],
                           hit_policy="Any")
    with pytest.raises(AnyConflictError):
        evaluate_table(conflicting, {"in1": 1})
    assert evaluate_table(agreeing, {"in1": 1}) == {"y": "same"}


def test_missing_argument_rejected():
    t = table_of([rule([ast.Dash()], ["a"])])
    with pytest.raises(SchemaError):
        evaluate_table(t, {})


# --- oracle equivalence (small version; the acceptance suite scales this up) --

def assert_table_matches_formula(generated) -> int:
    """Checks the table on its exhaustive domain; returns the vectors checked."""
    table = generated.table
    labels = [label for label, _ in table.inputs]
    combos = list(itertools.product(*generated.domains))
    for combo in combos:
        expected = formula_table_outputs(table, list(combo))
        args = dict(zip(labels, combo))
        if expected is NO_MATCH:
            with pytest.raises(NoMatchError):
                evaluate_table(table, args)
        else:
            assert evaluate_table(table, args) == expected, f"table {table.id} on {args}"
    return len(combos)


def test_first_policy_matches_formula_oracle():
    rng = random.Random(7)
    for _ in range(60):
        assert_table_matches_formula(random_table(rng))


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_rule_order_is_irrelevant_under_unique(seed):
    rng = random.Random(seed)
    generated = random_table(rng, max_inputs=2, max_rules=4, max_domain=4)
    base = generated.table
    # the default row's meaning is positional, so only non-default rows reorder
    rules = [r for r in base.rules if not r.is_all_dash()]
    if not rules:
        return
    shuffled = rules[:]
    rng.shuffle(shuffled)
    t1 = table_of(rules, hit_policy="Unique", n_inputs=len(base.inputs),
                  outputs=base.outputs)
    t2 = table_of(shuffled, hit_policy="Unique", n_inputs=len(base.inputs),
                  outputs=base.outputs)
    labels = [label for label, _ in t1.inputs]
    for combo in itertools.product(*generated.domains):
        args = dict(zip(labels, combo))
        try:
            first = evaluate_table(t1, args)
        except (UniquenessViolationError, NoMatchError):
            continue
        assert evaluate_table(t2, args) == first


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_appending_default_row_only_converts_no_match(seed):
    rng = random.Random(seed)
    generated = random_table(rng, max_inputs=2, max_rules=4, max_domain=4)
    base = generated.table
    if base.default_rule() is not None:
        return
    defaults = tuple(ast.Lit("fallback") for _ in base.outputs)
    widened = table_of(list(base.rules) + [Rule(tuple(ast.Dash() for _ in base.inputs),
                                                defaults)],
                       n_inputs=len(base.inputs), outputs=base.outputs)
    labels = [label for label, _ in base.inputs]
    for combo in itertools.product(*generated.domains):
        args = dict(zip(labels, combo))
        try:
            before = evaluate_table(base, args)
        except NoMatchError:
            assert evaluate_table(widened, args) == {o: "fallback" for o in base.outputs}
        else:
            assert evaluate_table(widened, args) == before


@pytest.mark.parametrize("attack", ["laughs", "system"])
def test_document_type_declaration_rejected(attack):
    assert [t.name for t in parse_dmn(DTD_DMN.format(ref=""))] == ["d"]
    with pytest.raises(SchemaError, match="document type declarations are not accepted"):
        parse_dmn(with_doctype(attack, DTD_DMN))


@pytest.mark.parametrize("prolog", PROLOG_ITEMS)
def test_document_type_declaration_after_a_comment_or_instruction_rejected(prolog):
    plain = '<?xml version="1.0"?>' + DTD_DMN.format(ref="")
    assert [t.name for t in parse_dmn(after_declaration(prolog, plain))] == ["d"]
    for attack in ("laughs", "system"):
        with pytest.raises(SchemaError, match="document type declarations are not accepted"):
            parse_dmn(after_declaration(prolog, with_doctype(attack, DTD_DMN)))
