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
from .evaluator import constant
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
    (name, type) for every constant (`constant`) a name is compared with,
    combined with or tested against; `apply_evidence` folds it into a type
    map. A name tested to be in a list or range meets each of its elements
    or ends, unless the whole list or range raises: domain inference
    (`inputs.facts_from_expr`) reads the same answer, so `x in [1, 1/0]`
    gives `x` neither a type nor a domain fact."""
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


def _scan(expr: ast.FeelExpr, item_bound: bool, free: set[str], evidence: Evidence) -> bool:
    """Add the free variables and the evidence of `expr` and of its parts,
    in source order, and tell whether `expr` reads a free variable;
    `item_bound` inside a filter's predicate. A node's own evidence goes
    in front of its parts'. Recursion at module level, so that a call
    leaves no reference cycle behind."""
    cls = type(expr)
    if cls is ast.Var:
        name = expr.name
        evidence.append((name, None))
        if item_bound and name == "item":
            return False
        free.add(name)
        return True
    if cls is ast.Filter:
        reads = _scan(expr.seq, item_bound, free, evidence)
        return _scan(expr.predicate, True, free, evidence) or reads
    children = ast.CHILDREN.get(cls)
    if children is None:
        return False
    operands, mark, reads = children(expr), len(evidence), False
    if cls is ast.InTest and type(expr.item) is ast.Var and type(expr.container) in _CONTAINERS \
            and constant(expr.container).error is None:
        # each element or end of the container is an operand of the item,
        # unless the whole container raises, as domain inference reads it
        operands = (expr.item, *ast.CHILDREN[type(expr.container)](expr.container))
        subjects = (None, *[expr.item] * (len(operands) - 1))
    elif cls is ast.BinOp and expr.op in _TYPED_OPS:  # each operand is the other one's
        subjects = operands[::-1]
    else:
        subjects = [None] * len(operands)
    for operand, subject in zip(operands, subjects):
        read = type(operand) is not ast.Lit and _scan(operand, item_bound, free, evidence)
        t = None if read or type(subject) is not ast.Var else _type_of(operand)
        if t is not None:  # in front of the parts' evidence, in order
            evidence.insert(mark, (subject.name, t))
            mark += 1
        reads = reads or read
    return reads


_TYPED_OPS = frozenset(("<", "<=", ">", ">=", "=", "!=", "+", "-", "*", "/", "**"))
_CONTAINERS = (ast.ListLit, ast.RangeLit)


def _type_of(operand: ast.FeelExpr) -> StaticType | None:
    """The type of a name's operand that `constant` finds gives a value
    other than null, else None. A literal's answer is its value, read
    without asking."""
    if type(operand) is ast.Lit:
        value = operand.value
    else:
        answer = constant(operand)
        if answer.variable is not None or answer.error is not None:
            return None
        value = answer.value
    return None if value is None else type_of_constant(value)


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
