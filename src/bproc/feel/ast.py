"""Abstract syntax of the expression subset and of decision-table cell tests.

All nodes are frozen dataclasses; trees are finite, acyclic and shareable
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass


class FeelExpr:
    """Common base for expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Lit(FeelExpr):
    """Numeric, string, boolean, null or temporal constant."""

    value: object


@dataclass(frozen=True)
class Var(FeelExpr):
    name: str


@dataclass(frozen=True)
class Neg(FeelExpr):
    operand: FeelExpr


@dataclass(frozen=True)
class Not(FeelExpr):
    operand: FeelExpr


@dataclass(frozen=True)
class BinOp(FeelExpr):
    op: str  # + - * / ** < <= > >= = != and or
    left: FeelExpr
    right: FeelExpr


@dataclass(frozen=True)
class Call(FeelExpr):
    name: str  # includes the two-word builtin "overlaps before"
    args: tuple[FeelExpr, ...]


@dataclass(frozen=True)
class ListLit(FeelExpr):
    items: tuple[FeelExpr, ...]


@dataclass(frozen=True)
class Index(FeelExpr):
    """1-based element selection."""

    seq: FeelExpr
    index: FeelExpr


@dataclass(frozen=True)
class Filter(FeelExpr):
    """Sublist selection; the predicate sees each element as `item`."""

    seq: FeelExpr
    predicate: FeelExpr


@dataclass(frozen=True)
class ContextLit(FeelExpr):
    entries: tuple[tuple[str, FeelExpr], ...]


@dataclass(frozen=True)
class Path(FeelExpr):
    base: FeelExpr
    key: str


@dataclass(frozen=True)
class RangeLit(FeelExpr):
    lo: FeelExpr
    hi: FeelExpr
    lo_incl: bool = True
    hi_incl: bool = True


@dataclass(frozen=True)
class InTest(FeelExpr):
    """Membership of a value in a list or range."""

    item: FeelExpr
    container: FeelExpr


@dataclass(frozen=True)
class InstanceOf(FeelExpr):
    operand: FeelExpr
    type_name: str  # string | number | boolean


# --- decision-table cell tests -------------------------------------------

class UnaryTest:
    __slots__ = ()


@dataclass(frozen=True)
class Dash(UnaryTest):
    """Don't-care cell; matches every value."""


@dataclass(frozen=True)
class EqualsConst(UnaryTest):
    value: object


@dataclass(frozen=True)
class Comparison(UnaryTest):
    op: str  # < <= > >=
    operand: FeelExpr  # variable-free


@dataclass(frozen=True)
class RangeTest(UnaryTest):
    range: object  # FeelRange


@dataclass(frozen=True)
class Negation(UnaryTest):
    inner: UnaryTest


@dataclass(frozen=True)
class Disjunction(UnaryTest):
    alternatives: tuple[UnaryTest, ...]

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("empty disjunction")


def free_variables(expr: FeelExpr) -> set[str]:
    """Names read by the expression; `item` inside a filter is bound, not free."""
    if isinstance(expr, Filter):
        inner = free_variables(expr.predicate) - {"item"}
        return free_variables(expr.seq) | inner
    names: set[str] = set()
    if isinstance(expr, Var):
        names.add(expr.name)
    for child in _children(expr):
        names |= free_variables(child)
    return names


def _children(expr: FeelExpr):
    if isinstance(expr, (Neg, Not)):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, ListLit):
        return expr.items
    if isinstance(expr, Index):
        return (expr.seq, expr.index)
    if isinstance(expr, Filter):
        return (expr.seq, expr.predicate)
    if isinstance(expr, ContextLit):
        return tuple(v for _, v in expr.entries)
    if isinstance(expr, Path):
        return (expr.base,)
    if isinstance(expr, RangeLit):
        return (expr.lo, expr.hi)
    if isinstance(expr, InTest):
        return (expr.item, expr.container)
    if isinstance(expr, InstanceOf):
        return (expr.operand,)
    return ()
