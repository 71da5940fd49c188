"""Decision-table model: DMN XML parsing and hit-policy evaluation.

Tables are immutable after parse; evaluate_table is pure and thread-safe.
A table compiles itself on first use: each cell test becomes a closure,
and each variable-free output entry is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import feel, safexml
from .safexml import LocalNames
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

    # The compiled forms below are built on first use and shared by every
    # model that uses the table; they are not pickled.

    @cached_property
    def folded_outputs(self) -> tuple[tuple[tuple[object, object], ...], ...]:
        """Each rule's output entries, each evaluated once: (value, None)
        when the value can be shared, else (None, the compiled entry), which
        gives a fresh list or context, or raises the entry's error again, at
        each use."""
        return tuple(tuple(_fold(entry) for entry in rule.output_entries)
                     for rule in self.rules)

    def output_value(self, rule_index: int, column: int):
        """The value of one output entry (see `folded_outputs`)."""
        value, evaluate = self.folded_outputs[rule_index][column]
        return value if evaluate is None else evaluate({})

    @cached_property
    def evaluator(self) -> Callable[[list], dict[str, object]]:
        """`evaluate_table` on arguments in input-column order, compiled
        once: every cell test a closure, the output entries folded."""
        return _compile_table(self)

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key not in ("folded_outputs", "evaluator")}


def _children_named(element, name: str, local: LocalNames) -> list:
    return [child for child in element if local[child.tag] == name]


def _first_child_named(element, name: str, local: LocalNames):
    for child in element:
        if local[child.tag] == name:
            return child
    return None


def parse_dmn(data: bytes | str) -> list[DecisionTable]:
    """Extract every decision table from a DMN XML document.

    A missing hitPolicy attribute maps to First. Policies other than
    UNIQUE/ANY/FIRST (and their U/A/F abbreviations) are rejected.
    """
    root = safexml.fromstring(data, "DMN")
    local = LocalNames()

    tables = []
    for decision in [el for el in root.iter() if local[el.tag] == "decision"]:
        decision_id = decision.get("id") or decision.get("name")
        if not decision_id:
            raise SchemaError("decision element without id")
        name = decision.get("name") or decision_id
        for dt in _children_named(decision, "decisionTable", local):
            tables.append(_parse_table(dt, decision_id, name, local))
    return tables


def by_reference(tables) -> dict[str, DecisionTable]:
    """Every reference a business rule task may call a table by -> that
    table: a table's id, else the name of the first table with that name."""
    by_ref: dict[str, DecisionTable] = {}
    for table in tables:
        by_ref[table.id] = table
        by_ref.setdefault(table.name, table)
    return by_ref


def _text_of(element, local: LocalNames) -> str | None:
    """The text of the element's first <text> child; None without one."""
    text_el = None if element is None else _first_child_named(element, "text", local)
    return None if text_el is None else text_el.text or ""


def _parse_table(dt, decision_id: str, name: str, local: LocalNames) -> DecisionTable:
    policy_attr = (dt.get("hitPolicy") or "FIRST").upper()
    long_form = {"U": "UNIQUE", "A": "ANY", "F": "FIRST"}.get(policy_attr, policy_attr)
    if long_form not in _HIT_POLICIES:
        raise UnsupportedHitPolicyError(
            f"table {decision_id!r} uses hit policy {policy_attr!r}; "
            f"supported: FIRST, UNIQUE, ANY")
    hit_policy = _HIT_POLICIES[long_form]

    inputs = []
    for column in _children_named(dt, "input", local):
        label = column.get("label")
        expr_el = _first_child_named(column, "inputExpression", local)
        expr_text = (_text_of(expr_el, local) or "").strip()
        if not expr_text:
            raise SchemaError(f"table {decision_id!r}: input column without expression")
        inputs.append((label or expr_text, feel.parse_expr(expr_text)))

    outputs = []
    for column in _children_named(dt, "output", local):
        out_name = column.get("name") or column.get("label")
        if not out_name:
            raise SchemaError(f"table {decision_id!r}: output column without name")
        outputs.append(out_name)

    rules = []
    for rule_el in _children_named(dt, "rule", local):
        entries = []
        for cell in _children_named(rule_el, "inputEntry", local):
            entries.append(feel.parse_unary_test(_text_of(cell, local) or ""))
        out_entries = []
        for cell in _children_named(rule_el, "outputEntry", local):
            cell_text = (_text_of(cell, local) or "").strip()
            if not cell_text:
                raise SchemaError(f"table {decision_id!r}: empty output entry")
            expr = feel.parse_expr(cell_text)
            if ast.free_variables(expr):
                raise SchemaError(f"table {decision_id!r}: output entry {cell_text!r} "
                                  f"must be variable-free")
            out_entries.append(expr)
        ann_el = _first_child_named(rule_el, "description", local)
        annotation = ann_el.text.strip() if ann_el is not None and ann_el.text else None
        rules.append(Rule(tuple(entries), tuple(out_entries), annotation))

    return DecisionTable(decision_id, name, hit_policy, tuple(inputs), tuple(outputs),
                         tuple(rules))


def evaluate_table(table: DecisionTable, args: dict[str, object]) -> dict[str, object]:
    """Apply the table's hit policy to fully bound arguments.

    First takes the lowest-index matching rule; Unique requires exactly one
    match; Any requires all matches to agree. An all-dash last row serves as
    the default when nothing else matches; with no default, NoMatchError is
    raised and the caller must end the decision with a failure. Every rule
    is matched, so a cell that cannot judge its argument raises under every
    policy.
    """
    missing = [label for label, _ in table.inputs if label not in args]
    if missing:
        raise SchemaError(f"table {table.id!r} called without arguments {missing}")
    return table.evaluator([args[label] for label, _ in table.inputs])


def _fold(entry: ast.FeelExpr) -> tuple[object, Callable | None]:
    evaluate = feel.compile_expr(entry)
    try:
        value = evaluate({})
    except Exception:  # raised again at each use
        return None, evaluate
    if isinstance(value, (list, dict)):  # each use gets a list or context of its own
        return None, evaluate
    return value, None


def _outputs_builder(names: tuple[str, ...], folded) -> Callable[[], dict[str, object]]:
    """A function that gives a fresh output dict of one rule."""
    if all(evaluate is None for _, evaluate in folded):
        items = tuple(zip(names, (value for value, _ in folded)))
        return lambda: dict(items)
    entries = tuple(zip(names, folded))
    return lambda: {name: value if evaluate is None else evaluate({})
                    for name, (value, evaluate) in entries}


def _compile_table(table: DecisionTable) -> Callable[[list], dict[str, object]]:
    default = table.default_rule()
    candidates = table.rules[:-1] if default is not None else table.rules
    rules = tuple(tuple(feel.compile_unary(test) for test in rule.input_entries)
                  for rule in candidates)
    outputs = tuple(_outputs_builder(table.outputs, folded) for folded in table.folded_outputs)
    default_outputs = outputs[-1] if default is not None else None
    table_id, policy = table.id, table.hit_policy

    def evaluate(ordered: list) -> dict[str, object]:
        matches = []
        for i, cells in enumerate(rules):
            for cell, value in zip(cells, ordered):
                if not cell(value):
                    break
            else:
                matches.append(i)

        if not matches:
            if default_outputs is not None:
                return default_outputs()
            raise NoMatchError(table_id)
        if policy == "First":
            return outputs[matches[0]]()
        if policy == "Unique":
            if len(matches) > 1:
                raise UniquenessViolationError(table_id, [m + 1 for m in matches])
            return outputs[matches[0]]()
        # Any
        outcomes = [outputs[i]() for i in matches]
        first = outcomes[0]
        for other in outcomes[1:]:
            if set(other) != set(first) or not all(feel.equals(other[k], first[k])
                                                   for k in first):
                raise AnyConflictError(table_id)
        return first
    return evaluate
