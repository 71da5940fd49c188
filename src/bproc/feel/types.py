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


# the members as module globals: looking a member up on the class takes
# several times as long, in the loops below
_INTEGER, _DOUBLE, _STRING, _UNKNOWN = (StaticType.INTEGER, StaticType.DOUBLE,
                                        StaticType.STRING, StaticType.UNKNOWN)


def join(a: StaticType, b: StaticType, name: str = "?") -> StaticType:
    if a is b:
        return a
    if a is _UNKNOWN:
        return b
    if b is _UNKNOWN:
        return a
    if (a is _INTEGER and b is _DOUBLE) or (a is _DOUBLE and b is _INTEGER):
        return _DOUBLE
    raise TypeConflictError(name, (a, b))

#: exact class of a constant -> its type, for the common classes
_CONSTANT_TYPES = {int: StaticType.INTEGER, float: StaticType.DOUBLE, str: StaticType.STRING,
                   bool: StaticType.BOOLEAN}


def type_of_constant(value) -> StaticType:
    t = _CONSTANT_TYPES.get(type(value))
    if t is not None:
        return t
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
    for expr in exprs:
        apply_evidence(types, scan(expr)[1])
    return types


Evidence = list[tuple[str, "StaticType | None"]]


def scan(expr: ast.FeelExpr) -> tuple[set[str], Evidence]:
    """The free variables of `expr` (as `ast.free_variables` gives them) and
    its type evidence, from one walk. The evidence lists, in source order,
    (name, None) for every name read, `item` in a filter included, and
    (name, type) for every constant a name is compared with or combined
    with; `apply_evidence` folds it into a type map."""
    free: set[str] = set()
    evidence: Evidence = []
    _scan(expr, False, free, evidence)
    return free, evidence


def apply_evidence(types: dict[str, StaticType], evidence: Evidence) -> None:
    """Fold the evidence of one expression into `types`, in order; raises
    TypeConflictError at the first contradiction."""
    for name, t in evidence:
        if t is None:
            types.setdefault(name, _UNKNOWN)
        else:
            types[name] = join(types.get(name, _UNKNOWN), t, name)


def _scan(expr: ast.FeelExpr, item_bound: bool, free: set[str], evidence: Evidence) -> None:
    """Add the free variables and the evidence of `expr` and of its parts,
    in source order; `item_bound` inside a filter's predicate. Names and
    literals among a node's operands are handled in place, not by a call.
    Recursion at module level, so that a call leaves no reference cycle
    behind."""
    cls = type(expr)
    if cls is ast.Var:
        name = expr.name
        evidence.append((name, None))
        if not item_bound or name != "item":
            free.add(name)
        return
    if cls is ast.BinOp:
        _note_comparison(expr, evidence)
        operands = (expr.left, expr.right)
    elif cls is ast.Filter:
        _scan(expr.seq, item_bound, free, evidence)
        _scan(expr.predicate, True, free, evidence)
        return
    else:
        if cls is ast.InTest:
            _note_membership(expr, evidence)
        children = ast.CHILDREN.get(cls)
        if children is None:
            return
        operands = children(expr)
    for operand in operands:
        operand_cls = type(operand)
        if operand_cls is ast.Var:
            name = operand.name
            evidence.append((name, None))
            if not item_bound or name != "item":
                free.add(name)
        elif operand_cls is not ast.Lit:
            _scan(operand, item_bound, free, evidence)


def _constant_of(expr: ast.FeelExpr):
    """The literal value of a constant-shaped operand, or None."""
    if isinstance(expr, ast.Lit) and expr.value is not None:
        return expr.value
    if isinstance(expr, ast.Neg) and isinstance(expr.operand, ast.Lit) \
            and kind_of(expr.operand.value) == "number":
        return -expr.operand.value
    return None


_TYPED_OPS = frozenset(("<", "<=", ">", ">=", "=", "!=", "+", "-", "*", "/", "**"))


def _note_comparison(expr: ast.BinOp, evidence: Evidence):
    if expr.op not in _TYPED_OPS:
        return
    left, right = expr.left, expr.right
    if type(left) is ast.Var:
        const = right.value if type(right) is ast.Lit else _constant_of(right)
        if const is not None:
            evidence.append((left.name, type_of_constant(const)))
    if type(right) is ast.Var:
        const = left.value if type(left) is ast.Lit else _constant_of(left)
        if const is not None:
            evidence.append((right.name, type_of_constant(const)))


def _note_membership(expr: ast.InTest, evidence: Evidence):
    if not isinstance(expr.item, ast.Var):
        return
    name = expr.item.name
    if isinstance(expr.container, ast.ListLit):
        for element in expr.container.items:
            const = _constant_of(element)
            if const is not None:
                evidence.append((name, type_of_constant(const)))
    if isinstance(expr.container, ast.RangeLit):
        for end in (expr.container.lo, expr.container.hi):
            const = _constant_of(end)
            if const is not None:
                evidence.append((name, type_of_constant(const)))


_BOOLEAN_OPS = frozenset(("and", "or", "<", "<=", ">", ">=", "=", "!="))


def synthesize(expr: ast.FeelExpr, env: Mapping[str, StaticType]) -> StaticType:
    """Best-effort static type of an expression under known variable types."""
    cls = type(expr)
    if cls is ast.Var:
        return env.get(expr.name, _UNKNOWN)
    if cls is ast.Lit:
        return type_of_constant(expr.value)
    if cls is ast.BinOp:
        op = expr.op
        if op in _BOOLEAN_OPS:
            return StaticType.BOOLEAN
        left, right = expr.left, expr.right  # a name or a literal typed in place
        left = (env.get(left.name, _UNKNOWN) if type(left) is ast.Var
                else type_of_constant(left.value) if type(left) is ast.Lit
                else synthesize(left, env))
        right = (env.get(right.name, _UNKNOWN) if type(right) is ast.Var
                 else type_of_constant(right.value) if type(right) is ast.Lit
                 else synthesize(right, env))
        if op == "+" and (left is _STRING or right is _STRING):
            return _STRING
        if op == "+" and left is StaticType.TIME:
            return StaticType.TIME
        if op == "/" or left is _DOUBLE or right is _DOUBLE:
            return _DOUBLE
        if left is _INTEGER and right is _INTEGER:
            return _INTEGER
        return _UNKNOWN
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
