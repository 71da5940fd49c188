"""Decision-table model: DMN XML parsing and hit-policy evaluation.

Tables are immutable after parse; evaluate_table is pure and thread-safe.
A table compiles itself on first use: `DecisionTable.select`, whose cell
tests are closures, gives the index of the rule the hit policy chooses, and
each variable-free output entry is evaluated once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from . import feel, safexml
from .safexml import LocalNames
from .errors import (AnyConflictError, BprocError, NoMatchError, SchemaError,
                     UniquenessViolationError, UnsupportedHitPolicyError)
from .feel import ast
from .feel.evaluator import _SCALARS, compile_scalar_unary

_HIT_POLICIES = {"FIRST": "First", "UNIQUE": "Unique", "ANY": "Any"}


@dataclass(frozen=True)
class Rule:
    input_entries: tuple[ast.UnaryTest, ...]
    output_entries: tuple[ast.FeelExpr, ...]  # variable-free

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

    def rule_outputs(self, rule_index: int) -> dict[str, object]:
        """The outputs of one rule by name, each entry evaluated in column
        order (a name given twice keeps its last column's value)."""
        return {name: self.output_value(rule_index, column)
                for column, name in enumerate(self.outputs)}

    def bound_outputs(self, rule_index: int, out_bindings: tuple) -> tuple:
        """What a task binding `out_bindings` (output -> variable) writes
        when the rule is chosen: (variable, value) pairs in that order and
        the sorted (output, value) items of its record; or, when an output
        is a list or a context or raises, so is evaluated at each use, a
        function that gives both, and None."""
        def bound(outputs: dict) -> tuple:
            return (tuple((var, outputs[name]) for name, var in out_bindings),
                    tuple(sorted(outputs.items())))
        if all(evaluate is None for _, evaluate in self.folded_outputs[rule_index]):
            return bound(self.rule_outputs(rule_index))
        return (lambda: bound(self.rule_outputs(rule_index))), None

    @cached_property
    def select(self) -> Callable[[list], int]:
        """The index of the rule the hit policy chooses for arguments in
        input-column order, compiled once (`_compile_table`)."""
        return _compile_table(self)

    def __getstate__(self):
        return {key: value for key, value in self.__dict__.items()
                if key not in ("folded_outputs", "select")}


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
    for j, column in enumerate(_children_named(dt, "input", local), start=1):
        label = column.get("label")
        expr_el = _first_child_named(column, "inputExpression", local)
        expr_text = (_text_of(expr_el, local) or "").strip()
        if not expr_text:
            raise SchemaError(f"table {decision_id!r}: input column without expression")
        expr = _located(feel.parse_expr, expr_text, f"table {decision_id!r} input {j}")
        inputs.append((label or expr_text, expr))

    outputs = []
    for column in _children_named(dt, "output", local):
        out_name = column.get("name") or column.get("label")
        if not out_name:
            raise SchemaError(f"table {decision_id!r}: output column without name")
        outputs.append(out_name)

    rules = []
    for i, rule_el in enumerate(_children_named(dt, "rule", local), start=1):
        where = f"table {decision_id!r} rule {i}"
        rules.append(Rule(_entries(rule_el, "input", feel.parse_unary_test, where, local),
                          _entries(rule_el, "output", _output_entry, where, local)))

    return DecisionTable(decision_id, name, hit_policy, tuple(inputs), tuple(outputs),
                         tuple(rules))


def _entries(rule_el, kind: str, parse: Callable, where: str, local: LocalNames) -> tuple:
    """The rule's input or output entries (`kind`), each read by `parse`."""
    return tuple(_located(parse, _text_of(cell, local) or "", f"{where} {kind} {j}")
                 for j, cell in enumerate(_children_named(rule_el, kind + "Entry", local),
                                          start=1))


def _located(parse: Callable, text: str, where: str):
    """`parse(text)`; a BprocError it raises keeps its class, and its
    message starts with `where`, the place of the text in its table."""
    try:
        return parse(text)
    except BprocError as exc:
        exc.args = (f"{where}: {exc.args[0]}", *exc.args[1:])
        raise


def _output_entry(text: str) -> ast.FeelExpr:
    if not text.strip():
        raise SchemaError("empty output entry")
    expr = feel.parse_expr(text)
    if ast.free_variables(expr):
        raise SchemaError(f"output entry {text.strip()!r} must be variable-free")
    return expr


def evaluate_table(table: DecisionTable, args: dict[str, object]) -> dict[str, object]:
    """Apply the table's hit policy to fully bound arguments.

    First takes the lowest-index matching rule; Unique requires exactly one
    match; Any requires all matches to agree. An all-dash last row serves as
    the default when nothing else matches; with no default, NoMatchError is
    raised and the caller must end the decision with a failure. Every rule
    is matched, so a cell that cannot judge its argument raises under every
    policy, on the scalar cells for plain scalars too (`_compile_table`).
    """
    missing = [label for label, _ in table.inputs if label not in args]
    if missing:
        raise SchemaError(f"table {table.id!r} called without arguments {missing}")
    return table.rule_outputs(table.select([args[label] for label, _ in table.inputs]))


def _fold(entry: ast.FeelExpr) -> tuple[object, Callable | None]:
    answer = feel.constant(entry)
    # a list or context is built afresh, and an error raised again, at each use
    return (answer.value, None) if answer.shared else (None, feel.compile_expr(entry))


def _compile_table(table: DecisionTable) -> Callable[[list], int]:
    """`DecisionTable.select`: an index into `table.rules`, the default row
    when no other rule matches. A rule is its index and its (column, cell)
    pairs: without dashes and value checks when every argument's exact
    class is in _SCALARS, else checked; both give the same index or error.
    Every policy takes the first match; Unique and Any list the matches
    only once a second one matches, then raise, or compare the matches'
    outputs (`rule_outputs`, in match order)."""
    default = len(table.rules) - 1 if table.default_rule() is not None else None
    candidates = table.rules[:-1] if default is not None else table.rules
    checked = tuple((i, tuple(enumerate(map(feel.compile_unary, rule.input_entries))))
                    for i, rule in enumerate(candidates))
    scalar = tuple((i, tuple((j, cell) for j, cell in enumerate(map(compile_scalar_unary,
                                                                    rule.input_entries))
                             if cell))
                   for i, rule in enumerate(candidates))
    table_id, policy = table.id, table.hit_policy
    listed, unique = policy != "First", policy == "Unique"

    def select(ordered: list) -> int:
        rules = scalar
        for value in ordered:
            if type(value) not in _SCALARS:
                rules = checked
                break
        chosen, matches = -1, None
        for i, cells in rules:
            for j, cell in cells:
                if not cell(ordered[j]):
                    break
            else:
                if chosen < 0:
                    chosen = i
                elif listed:
                    if matches is None:
                        matches = [chosen]
                    matches.append(i)
        if matches is not None:
            if unique:
                raise UniquenessViolationError(table_id, [m + 1 for m in matches])
            outcomes = [table.rule_outputs(i) for i in matches]  # Any
            for other in outcomes[1:]:
                if not all(feel.equals(other[k], outcomes[0][k]) for k in outcomes[0]):
                    raise AnyConflictError(table_id)
        if chosen >= 0:
            return chosen
        if default is None:
            raise NoMatchError(table_id)
        return default
    return select
