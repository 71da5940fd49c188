"""Decision-table model: DMN XML parsing and hit-policy evaluation.

Tables are immutable after parse; evaluate_table is pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import feel, safexml
from .errors import (AnyConflictError, NoMatchError, SchemaError,
                     UniquenessViolationError, UnsupportedHitPolicyError)
from .feel import ast

_HIT_POLICIES = {"FIRST": "First", "UNIQUE": "Unique", "ANY": "Any"}


@dataclass(frozen=True)
class Rule:
    input_entries: tuple[ast.UnaryTest, ...]
    output_entries: tuple[ast.FeelExpr, ...]  # variable-free
    annotation: str | None = None

    def is_all_dash(self) -> bool:
        return all(isinstance(t, ast.Dash) for t in self.input_entries)


@dataclass(frozen=True)
class DecisionTable:
    id: str
    name: str
    hit_policy: str  # "First" | "Unique" | "Any"
    inputs: tuple[tuple[str, ast.FeelExpr], ...]  # (label, input expression)
    outputs: tuple[str, ...]
    rules: tuple[Rule, ...]

    def __post_init__(self):
        if not self.inputs:
            raise SchemaError(f"table {self.id!r} needs at least one input column")
        if not self.outputs:
            raise SchemaError(f"table {self.id!r} needs at least one output column")
        for i, rule in enumerate(self.rules):
            if len(rule.input_entries) != len(self.inputs):
                raise SchemaError(f"table {self.id!r} rule {i + 1} has "
                                  f"{len(rule.input_entries)} input entries, expected "
                                  f"{len(self.inputs)}")
            if len(rule.output_entries) != len(self.outputs):
                raise SchemaError(f"table {self.id!r} rule {i + 1} has "
                                  f"{len(rule.output_entries)} output entries, expected "
                                  f"{len(self.outputs)}")

    def default_rule(self) -> Rule | None:
        """The all-dash last row, when present."""
        if self.rules and self.rules[-1].is_all_dash():
            return self.rules[-1]
        return None


def _local(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _find_all(element, name):
    return [child for child in element.iter() if _local(child.tag) == name]


def _children_named(element, name):
    return [child for child in element if _local(child.tag) == name]


def parse_dmn(data: bytes | str) -> list[DecisionTable]:
    """Extract every decision table from a DMN XML document.

    A missing hitPolicy attribute maps to First. Policies other than
    UNIQUE/ANY/FIRST (and their U/A/F abbreviations) are rejected.
    """
    root = safexml.fromstring(data, "DMN")

    tables = []
    for decision in _find_all(root, "decision"):
        decision_id = decision.get("id") or decision.get("name")
        if not decision_id:
            raise SchemaError("decision element without id")
        name = decision.get("name") or decision_id
        for dt in _children_named(decision, "decisionTable"):
            tables.append(_parse_table(dt, decision_id, name))
    return tables


def _parse_table(dt, decision_id: str, name: str) -> DecisionTable:
    policy_attr = (dt.get("hitPolicy") or "FIRST").upper()
    long_form = {"U": "UNIQUE", "A": "ANY", "F": "FIRST"}.get(policy_attr, policy_attr)
    if long_form not in _HIT_POLICIES:
        raise UnsupportedHitPolicyError(
            f"table {decision_id!r} uses hit policy {policy_attr!r}; "
            f"supported: FIRST, UNIQUE, ANY")
    hit_policy = _HIT_POLICIES[long_form]

    inputs = []
    for column in _children_named(dt, "input"):
        label = column.get("label")
        expr_el = next(iter(_children_named(column, "inputExpression")), None)
        text_el = None if expr_el is None else next(iter(_children_named(expr_el, "text")), None)
        expr_text = (text_el.text or "").strip() if text_el is not None else ""
        if not expr_text:
            raise SchemaError(f"table {decision_id!r}: input column without expression")
        inputs.append((label or expr_text, feel.parse_expr(expr_text)))

    outputs = []
    for column in _children_named(dt, "output"):
        out_name = column.get("name") or column.get("label")
        if not out_name:
            raise SchemaError(f"table {decision_id!r}: output column without name")
        outputs.append(out_name)

    rules = []
    for rule_el in _children_named(dt, "rule"):
        entries = []
        for cell in _children_named(rule_el, "inputEntry"):
            text_el = next(iter(_children_named(cell, "text")), None)
            entries.append(feel.parse_unary_test(
                (text_el.text or "") if text_el is not None else ""))
        out_entries = []
        for cell in _children_named(rule_el, "outputEntry"):
            text_el = next(iter(_children_named(cell, "text")), None)
            cell_text = ((text_el.text or "") if text_el is not None else "").strip()
            if not cell_text:
                raise SchemaError(f"table {decision_id!r}: empty output entry")
            expr = feel.parse_expr(cell_text)
            if ast.free_variables(expr):
                raise SchemaError(f"table {decision_id!r}: output entry {cell_text!r} "
                                  f"must be variable-free")
            out_entries.append(expr)
        ann_el = next(iter(_children_named(rule_el, "description")), None)
        annotation = ann_el.text.strip() if ann_el is not None and ann_el.text else None
        rules.append(Rule(tuple(entries), tuple(out_entries), annotation))

    return DecisionTable(decision_id, name, hit_policy, tuple(inputs), tuple(outputs),
                         tuple(rules))


def _rule_matches(rule: Rule, args_in_order) -> bool:
    return all(feel.match_unary(test, value)
               for test, value in zip(rule.input_entries, args_in_order))


def _rule_outputs(table: DecisionTable, rule: Rule) -> dict[str, object]:
    return {name: feel.evaluate(entry, {})
            for name, entry in zip(table.outputs, rule.output_entries)}


def evaluate_table(table: DecisionTable, args: dict[str, object]) -> dict[str, object]:
    """Apply the table's hit policy to fully bound arguments.

    First takes the lowest-index matching rule; Unique requires exactly one
    match; Any requires all matches to agree. An all-dash last row serves as
    the default when nothing else matches; with no default, NoMatchError is
    raised and the caller must end the decision with a failure.
    """
    missing = [label for label, _ in table.inputs if label not in args]
    if missing:
        raise SchemaError(f"table {table.id!r} called without arguments {missing}")
    ordered = [args[label] for label, _ in table.inputs]

    default = table.default_rule()
    candidates = table.rules[:-1] if default is not None else table.rules
    matches = [i for i, rule in enumerate(candidates) if _rule_matches(rule, ordered)]

    if not matches:
        if default is not None:
            return _rule_outputs(table, default)
        raise NoMatchError(table.id)

    if table.hit_policy == "First":
        return _rule_outputs(table, candidates[matches[0]])
    if table.hit_policy == "Unique":
        if len(matches) > 1:
            raise UniquenessViolationError(table.id, [m + 1 for m in matches])
        return _rule_outputs(table, candidates[matches[0]])
    # Any
    outcomes = [_rule_outputs(table, candidates[i]) for i in matches]
    first = outcomes[0]
    for other in outcomes[1:]:
        if set(other) != set(first) or not all(feel.equals(other[k], first[k]) for k in first):
            raise AnyConflictError(table.id)
    return first
