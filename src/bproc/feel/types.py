"""Static types of process variables, derived from constant comparisons.

Inference is monotone over the join lattice: UNKNOWN below everything,
INTEGER joining DOUBLE gives DOUBLE, and any other mix of concrete types
is a conflict.
"""

from __future__ import annotations

import enum
from typing import Iterable, Mapping

from ..errors import TypeConflictError
from . import ast
from .values import kind_of


class StaticType(enum.Enum):
    INTEGER = "Integer"
    DOUBLE = "Double"
    STRING = "String"
    BOOLEAN = "Boolean"
    DATE = "Date"
    TIME = "Time"
    UNKNOWN = "Unknown"

    def __str__(self):
        return self.value


def join(a: StaticType, b: StaticType, name: str = "?") -> StaticType:
    if a is b:
        return a
    if a is StaticType.UNKNOWN:
        return b
    if b is StaticType.UNKNOWN:
        return a
    if {a, b} == {StaticType.INTEGER, StaticType.DOUBLE}:
        return StaticType.DOUBLE
    raise TypeConflictError(name, (a, b))


def type_of_constant(value) -> StaticType:
    kind = kind_of(value)
    if kind == "boolean":
        return StaticType.BOOLEAN
    if kind == "number":
        return StaticType.DOUBLE if isinstance(value, float) else StaticType.INTEGER
    if kind == "string":
        return StaticType.STRING
    if kind == "date":
        return StaticType.DATE
    if kind == "time":
        return StaticType.TIME
    return StaticType.UNKNOWN


def infer_types(exprs: Iterable[ast.FeelExpr]) -> dict[str, StaticType]:
    """Join, per variable, the types implied by the constants it meets.

    Variables that appear without any constant evidence map to UNKNOWN.
    Raises TypeConflictError when the evidence is contradictory (for
    instance a string and a numeric constant on the same variable).
    """
    types: dict[str, StaticType] = {}

    def note(name: str, t: StaticType):
        current = types.get(name, StaticType.UNKNOWN)
        types[name] = join(current, t, name)

    for expr in exprs:
        _collect_types(expr, types, note)
    return types


def _collect_types(expr: ast.FeelExpr, types: dict, note) -> None:
    """Note the evidence of `expr` and of its parts, in source order.
    Recursion at module level, so that a call leaves no reference cycle
    behind."""
    cls = type(expr)
    if cls is ast.Var:
        types.setdefault(expr.name, StaticType.UNKNOWN)
        return
    if cls is ast.BinOp:
        _note_comparison(expr, note)
    elif cls is ast.InTest:
        _note_membership(expr, note)
    children = ast.CHILDREN.get(cls)
    if children is not None:
        for child in children(expr):
            _collect_types(child, types, note)


def _constant_of(expr: ast.FeelExpr):
    """The literal value of a constant-shaped operand, or None."""
    if isinstance(expr, ast.Lit) and expr.value is not None:
        return expr.value
    if isinstance(expr, ast.Neg) and isinstance(expr.operand, ast.Lit) \
            and kind_of(expr.operand.value) == "number":
        return -expr.operand.value
    return None


def _note_comparison(expr: ast.BinOp, note):
    if expr.op not in ("<", "<=", ">", ">=", "=", "!=", "+", "-", "*", "/", "**"):
        return
    for var_side, const_side in ((expr.left, expr.right), (expr.right, expr.left)):
        if isinstance(var_side, ast.Var):
            const = _constant_of(const_side)
            if const is not None:
                note(var_side.name, type_of_constant(const))


def _note_membership(expr: ast.InTest, note):
    if not isinstance(expr.item, ast.Var):
        return
    name = expr.item.name
    if isinstance(expr.container, ast.ListLit):
        for element in expr.container.items:
            const = _constant_of(element)
            if const is not None:
                note(name, type_of_constant(const))
    if isinstance(expr.container, ast.RangeLit):
        for end in (expr.container.lo, expr.container.hi):
            const = _constant_of(end)
            if const is not None:
                note(name, type_of_constant(const))


def synthesize(expr: ast.FeelExpr, env: Mapping[str, StaticType]) -> StaticType:
    """Best-effort static type of an expression under known variable types."""
    cls = type(expr)
    if cls is ast.Var:
        return env.get(expr.name, StaticType.UNKNOWN)
    if cls is ast.Lit:
        return type_of_constant(expr.value)
    if cls is ast.BinOp:
        if expr.op in ("and", "or", "<", "<=", ">", ">=", "=", "!="):
            return StaticType.BOOLEAN
        left = synthesize(expr.left, env)
        right = synthesize(expr.right, env)
        if expr.op == "+" and StaticType.STRING in (left, right):
            return StaticType.STRING
        if expr.op == "+" and left is StaticType.TIME:
            return StaticType.TIME
        if expr.op == "/":
            return StaticType.DOUBLE
        if StaticType.DOUBLE in (left, right):
            return StaticType.DOUBLE
        if left is StaticType.INTEGER and right is StaticType.INTEGER:
            return StaticType.INTEGER
        return StaticType.UNKNOWN
    if cls is ast.Neg:
        return synthesize(expr.operand, env)
    if cls in (ast.Not, ast.InTest, ast.InstanceOf):
        return StaticType.BOOLEAN
    if cls is ast.Call:
        if expr.name in ("floor", "ceiling", "length"):
            return StaticType.INTEGER
        if expr.name == "sqrt":
            return StaticType.DOUBLE
        if expr.name == "abs" and expr.args:
            return synthesize(expr.args[0], env)
        return StaticType.UNKNOWN
    return StaticType.UNKNOWN
