"""Abstract syntax of the expression subset and of decision-table cell tests.

All nodes are slotted dataclasses compared and hashed by value, not frozen
(the rule for records built in bulk is in the `bproc` package docstring).
Trees are finite and acyclic, and, since no code assigns to a node once it
is built, shareable. The walks below dispatch on a node's exact class, one
dictionary lookup per node.
"""

from __future__ import annotations

from dataclasses import dataclass


class FeelExpr:
    """Common base for expression nodes."""

    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Lit(FeelExpr):
    """Numeric, string, boolean, null or temporal constant."""

    value: object


@dataclass(slots=True, unsafe_hash=True)
class Var(FeelExpr):
    name: str


@dataclass(slots=True, unsafe_hash=True)
class Neg(FeelExpr):
    operand: FeelExpr


@dataclass(slots=True, unsafe_hash=True)
class Not(FeelExpr):
    operand: FeelExpr


@dataclass(slots=True, unsafe_hash=True)
class BinOp(FeelExpr):
    op: str  # + - * / ** < <= > >= = != and or
    left: FeelExpr
    right: FeelExpr


@dataclass(slots=True, unsafe_hash=True)
class Call(FeelExpr):
    name: str  # includes the two-word builtin "overlaps before"
    args: tuple[FeelExpr, ...]


@dataclass(slots=True, unsafe_hash=True)
class ListLit(FeelExpr):
    items: tuple[FeelExpr, ...]


@dataclass(slots=True, unsafe_hash=True)
class Index(FeelExpr):
    """1-based element selection."""

    seq: FeelExpr
    index: FeelExpr


@dataclass(slots=True, unsafe_hash=True)
class Filter(FeelExpr):
    """Sublist selection; the predicate sees each element as `item`."""

    seq: FeelExpr
    predicate: FeelExpr


@dataclass(slots=True, unsafe_hash=True)
class ContextLit(FeelExpr):
    entries: tuple[tuple[str, FeelExpr], ...]


@dataclass(slots=True, unsafe_hash=True)
class Path(FeelExpr):
    base: FeelExpr
    key: str


@dataclass(slots=True, unsafe_hash=True)
class RangeLit(FeelExpr):
    lo: FeelExpr
    hi: FeelExpr
    lo_incl: bool = True
    hi_incl: bool = True


@dataclass(slots=True, unsafe_hash=True)
class InTest(FeelExpr):
    """Membership of a value in a list or range."""

    item: FeelExpr
    container: FeelExpr


@dataclass(slots=True, unsafe_hash=True)
class InstanceOf(FeelExpr):
    operand: FeelExpr
    type_name: str  # string | number | boolean


# --- decision-table cell tests -------------------------------------------

class UnaryTest:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Dash(UnaryTest):
    """Don't-care cell; matches every value."""


@dataclass(slots=True, unsafe_hash=True)
class EqualsConst(UnaryTest):
    value: object


@dataclass(slots=True, unsafe_hash=True)
class Comparison(UnaryTest):
    op: str  # < <= > >=
    operand: FeelExpr  # variable-free


@dataclass(slots=True, unsafe_hash=True)
class RangeTest(UnaryTest):
    range: object  # FeelRange


@dataclass(slots=True, unsafe_hash=True)
class Negation(UnaryTest):
    inner: UnaryTest


@dataclass(slots=True, unsafe_hash=True)
class Disjunction(UnaryTest):
    alternatives: tuple[UnaryTest, ...]

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("empty disjunction")


def free_variables(expr: FeelExpr) -> set[str]:
    """Names read by the expression; `item` inside a filter is bound, not free."""
    names: set[str] = set()
    _collect_free(expr, names)
    return names


def _collect_free(expr: FeelExpr, names: set[str]) -> None:
    cls = type(expr)
    if cls is Var:
        names.add(expr.name)
    elif cls is Filter:
        _collect_free(expr.seq, names)
        inner: set[str] = set()
        _collect_free(expr.predicate, inner)
        inner.discard("item")
        names |= inner
    else:
        children = CHILDREN.get(cls)
        if children is not None:
            for child in children(expr):
                _collect_free(child, names)


#: exact node class -> the function giving its sub-expressions in source order;
#: literals and names have none
CHILDREN = {
    Neg: lambda e: (e.operand,),
    Not: lambda e: (e.operand,),
    BinOp: lambda e: (e.left, e.right),
    Call: lambda e: e.args,
    ListLit: lambda e: e.items,
    Index: lambda e: (e.seq, e.index),
    Filter: lambda e: (e.seq, e.predicate),
    ContextLit: lambda e: tuple(v for _, v in e.entries),
    Path: lambda e: (e.base,),
    RangeLit: lambda e: (e.lo, e.hi),
    InTest: lambda e: (e.item, e.container),
    InstanceOf: lambda e: (e.operand,),
}
