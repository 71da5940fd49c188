"""Evaluation of expressions and decision-table cell tests.

Each tree is compiled once into a closure (Feeley & Lapalme, "Using
Closures for Code Generation", 1987): `compile_expr` gives a function of
an environment, `compile_unary` a function of a cell value. Compiling
never raises. A compiled closure returns what walking the tree returns,
and raises the same error class with the same message, evaluating
operands in the same left-to-right order. Environments map variable names
to values (UNDEFINED is a legal binding, but any operation reading it
raises). `evaluate` and `match_unary` compile and call in one go.

An ordering or a `+`, `-` or `*` with a variable on the left and a
literal on the right (`n > 0`, `n + 1`: loop counters and their
conditions) compiles to one closure that reads the variable itself and
holds the literal's value, a superoperator (Proebsting, "Optimizing an
ANSI C interpreter with superoperators", 1995): two calls fewer per
evaluation, with the same values and errors. When both operands are plain
numbers it skips the kind checks, which take about a quarter of the time
a counting loop spends per step, and an ordering is one comparison. Every
other shape goes through `compare` and `_arithmetic`.

Orderings read `compare`'s -1, 0 or 1 from a tuple (`_ORDER_HOLDS`), so
they call no function for it. Three operations can make a value grow
without bound: `**` and `*` on two integers and `+` on two strings. Each
checks the size of its result before computing it and raises
ValueTooLargeError past MAX_INT_BITS bits or MAX_STRING_LENGTH characters,
so no single evaluation can run on unbounded. An integer within that
limit can still be too large for a double (past about 2**1024): `+`, `-`,
`*` and `/` with a double, `/` of two such integers and `sqrt` raise
ValueTooLargeError for it, with the message TOO_LARGE_FOR_DOUBLE.
"""

from __future__ import annotations

import math
import operator
from typing import Callable, Mapping

from ..errors import (DivisionByZeroError, FeelTypeError, IndexOutOfRangeError,
                      UndefinedValueError, ValueTooLargeError)
from . import ast
from .values import (_NUMBERS, MAX_INT_BITS, MAX_STRING_LENGTH, SECONDS_PER_DAY, UNDEFINED,
                     FeelRange, Temporal, check_defined, compare, equals, kind_of)

Compiled = Callable[[Mapping[str, object]], object]

TOO_LARGE_FOR_DOUBLE = "number too large for a double"

# does the ordering hold, indexed by compare()'s 0, 1 or -1
_ORDER_HOLDS = {"<": (False, False, True), "<=": (True, False, True),
                ">": (False, True, False), ">=": (True, True, False)}


def evaluate(expr: ast.FeelExpr, env: Mapping[str, object]):
    """Value of `expr` under `env`.

    List filters return sublists preserving order; indexing is 1-based.
    Raises FeelTypeError, UndefinedValueError, DivisionByZeroError or
    IndexOutOfRangeError.
    """
    return compile_expr(expr)(env)


def match_unary(test: ast.UnaryTest, value) -> bool:
    """Does `value` satisfy a decision-table input entry?

    The value must be a scalar (not a list or context); a dash matches
    everything, equality and ranges honor value kinds and inclusivity.
    """
    return compile_unary(test)(value)


def compile_expr(expr: ast.FeelExpr) -> Compiled:
    """A function of an environment that evaluates `expr`."""
    compile_node = _COMPILERS.get(type(expr))
    if compile_node is not None:
        return compile_node(expr)
    name = type(expr).__name__

    def unknown(env):
        raise FeelTypeError(f"cannot evaluate node {name}")
    return unknown


def _lit(expr: ast.Lit) -> Compiled:
    value = expr.value
    return lambda env: value


def _var(expr: ast.Var) -> Compiled:
    name = expr.name

    def var(env):
        try:
            value = env[name]
        except KeyError:
            raise UndefinedValueError(f"variable {name!r} is not bound") from None
        if value is UNDEFINED:
            raise UndefinedValueError("operation touches an undefined variable")
        return value
    return var


def _neg(expr: ast.Neg) -> Compiled:
    operand = compile_expr(expr.operand)

    def neg(env):
        v = operand(env)
        if kind_of(v) != "number":
            raise FeelTypeError(f"cannot negate a {kind_of(v)}")
        return -v
    return neg


def _not(expr: ast.Not) -> Compiled:
    operand = compile_expr(expr.operand)

    def not_(env):
        v = operand(env)
        if v is True or v is False:
            return not v
        raise FeelTypeError(f"'not' needs a boolean, got {kind_of(v)}")
    return not_


def _binop(expr: ast.BinOp) -> Compiled:
    op = expr.op
    if type(expr.left) is ast.Var and type(expr.right) is ast.Lit:
        if op in _ORDER_HOLDS:
            return _var_order_lit(op, expr.left.name, expr.right.value)
        if op in _NUMERIC:
            return _var_arith_lit(op, expr.left.name, expr.right.value)
    left = compile_expr(expr.left)
    right = compile_expr(expr.right)
    if op in ("and", "or"):
        return _logic(op, left, right)
    if op in ("=", "!="):
        return _equality(op == "!=", left, right)
    if op in _ORDER_HOLDS:
        return _order(_ORDER_HOLDS[op], left, right)
    return _arith(op, left, right)


def _logic(op: str, left: Compiled, right: Compiled) -> Compiled:
    stop = op == "or"  # the left value that decides the result alone
    go_on = not stop

    def logic(env):
        v = left(env)
        if v is stop:
            return stop
        if v is not go_on:
            raise FeelTypeError(f"{op!r} needs boolean operands, got {kind_of(v)}")
        v = right(env)
        if v is True or v is False:
            return v
        raise FeelTypeError(f"{op!r} needs boolean operands, got {kind_of(v)}")
    return logic


def _equality(negated: bool, left: Compiled, right: Compiled) -> Compiled:
    return lambda env: equals(left(env), right(env)) is not negated


def _order(holds: tuple, left: Compiled, right: Compiled) -> Compiled:
    return lambda env: holds[compare(left(env), right(env))]


def _arith(op: str, left: Compiled, right: Compiled) -> Compiled:
    return lambda env: _arithmetic(op, left(env), right(env))


def _var_order_lit(op: str, name: str, b) -> Compiled:
    """`_order` of `_var(name)` and `_lit(b)`, in one closure. Two exact
    numbers take one comparison: `a < b`, `a > b`, `not (a > b)` for `<=`
    and `not (a < b)` for `>=`, which agree with `compare` for NaN too (it
    orders NaN as equal to everything)."""
    holds = _ORDER_HOLDS[op]
    below = op in ("<", ">=")  # `a < b` decides it, else `a > b`
    negated = op in ("<=", ">=")
    b_number = type(b) in _NUMBERS

    def var_order_lit(env):
        try:
            a = env[name]
        except KeyError:
            raise UndefinedValueError(f"variable {name!r} is not bound") from None
        if a is UNDEFINED:
            raise UndefinedValueError("operation touches an undefined variable")
        if b_number and type(a) in _NUMBERS:  # compare()'s number rule
            return (a < b if below else a > b) is not negated
        return holds[compare(a, b)]
    return var_order_lit


def _var_arith_lit(op: str, name: str, b) -> Compiled:
    """`_arith` of `_var(name)` and `_lit(b)`, in one closure. Of the three
    operators only `*` can grow a number without bound, so only it checks."""
    numeric = _NUMERIC[op]
    b_number = type(b) in _NUMBERS

    def var_arith_lit(env):
        try:
            a = env[name]
        except KeyError:
            raise UndefinedValueError(f"variable {name!r} is not bound") from None
        if a is UNDEFINED:
            raise UndefinedValueError("operation touches an undefined variable")
        if b_number and type(a) in _NUMBERS:
            try:
                return numeric(a, b)
            except OverflowError:  # an integer past the doubles met a double
                raise ValueTooLargeError(TOO_LARGE_FOR_DOUBLE) from None
        return _arithmetic(op, a, b)
    return var_arith_lit


def _product(left, right):
    """`left * right` for two numbers, checked first if both are integers."""
    if isinstance(left, int) and isinstance(right, int) \
            and left.bit_length() + right.bit_length() > MAX_INT_BITS:
        raise ValueTooLargeError(f"integer product would exceed {MAX_INT_BITS} bits")
    return left * right


_NUMERIC = {"+": operator.add, "-": operator.sub, "*": _product}


def _arithmetic(op: str, left, right):
    lk, rk = kind_of(left), kind_of(right)
    if op == "+" and lk == rk == "string":
        if len(left) + len(right) > MAX_STRING_LENGTH:
            raise ValueTooLargeError(
                f"string concatenation would exceed {MAX_STRING_LENGTH} characters")
        return left + right
    if op == "+" and lk == rk == "time":
        return Temporal("time", (left.scalar + right.scalar) % SECONDS_PER_DAY)
    if lk != "number" or rk != "number":
        raise FeelTypeError(f"cannot apply {op!r} to {lk} and {rk}")
    try:  # an integer past the doubles cannot meet a double, nor give one by `/`
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return _product(left, right)
        if op == "/":
            if right == 0:
                raise DivisionByZeroError("division by zero")
            return left / right
    except OverflowError:
        raise ValueTooLargeError(TOO_LARGE_FOR_DOUBLE) from None
    if op == "**":
        # |left| ** right needs about right * log2|left| bits (a negative
        # exponent gives a float); with |left| >= 2 that is at least right
        if isinstance(left, int) and isinstance(right, int) and right > 0 and abs(left) > 1 \
                and (right > MAX_INT_BITS or right * math.log2(abs(left)) > MAX_INT_BITS):
            raise ValueTooLargeError(f"integer power would exceed {MAX_INT_BITS} bits")
        try:
            result = left ** right
        except ZeroDivisionError as exc:
            raise DivisionByZeroError("zero raised to a negative power") from exc
        except OverflowError as exc:
            raise FeelTypeError("power overflows") from exc
        if isinstance(result, complex):  # negative base, fractional exponent
            raise FeelTypeError("power of a negative base with a fractional exponent")
        return result
    raise FeelTypeError(f"unknown operator {op!r}")


def _call(expr: ast.Call) -> Compiled:
    name = expr.name
    args = tuple(compile_expr(a) for a in expr.args)
    return lambda env: _apply(name, [a(env) for a in args])


def _apply(name: str, args: list):
    def one_number():
        if len(args) != 1 or kind_of(args[0]) != "number":
            raise FeelTypeError(f"{name}(...) takes one number")
        return args[0]

    if name == "abs":
        return abs(one_number())
    if name == "floor" or name == "ceiling":
        v = one_number()
        try:
            return math.floor(v) if name == "floor" else math.ceil(v)
        except (OverflowError, ValueError):  # an infinite or NaN double
            raise FeelTypeError(f"{name}(...) takes a finite number") from None
    if name == "sqrt":
        v = one_number()
        if v < 0:
            raise FeelTypeError("sqrt of a negative number")
        try:
            return math.sqrt(v)
        except OverflowError:  # an integer past the doubles
            raise ValueTooLargeError(TOO_LARGE_FOR_DOUBLE) from None
    if name == "length":
        if len(args) != 1 or kind_of(args[0]) not in ("string", "list"):
            raise FeelTypeError("length(...) takes one string or list")
        return len(args[0])
    if name == "overlaps before":
        if len(args) != 2 or not all(isinstance(a, FeelRange) for a in args):
            raise FeelTypeError("overlaps before(...) takes two ranges")
        return _overlaps_before(args[0], args[1])
    raise FeelTypeError(f"unknown function {name!r}")


def _overlaps_before(a: FeelRange, b: FeelRange) -> bool:
    # a starts before b, they overlap, and a ends inside b
    starts_before = compare(a.lo, b.lo) < 0 or (
        compare(a.lo, b.lo) == 0 and a.lo_incl and not b.lo_incl)
    overlap = compare(a.hi, b.lo) > 0 or (
        compare(a.hi, b.lo) == 0 and a.hi_incl and b.lo_incl)
    ends_inside = compare(a.hi, b.hi) < 0 or (
        compare(a.hi, b.hi) == 0 and (not a.hi_incl or b.hi_incl))
    return starts_before and overlap and ends_inside


def _list(expr: ast.ListLit) -> Compiled:
    items = tuple(compile_expr(item) for item in expr.items)
    return lambda env: [item(env) for item in items]


def _index(expr: ast.Index) -> Compiled:
    seq_of, index_of = compile_expr(expr.seq), compile_expr(expr.index)

    def index(env):
        seq = seq_of(env)
        if kind_of(seq) != "list":
            raise FeelTypeError(f"cannot index a {kind_of(seq)}")
        idx = index_of(env)
        if kind_of(idx) != "number" or isinstance(idx, float):
            raise FeelTypeError("list index must be an integer")
        if not 1 <= idx <= len(seq):
            raise IndexOutOfRangeError(f"index {idx} outside 1..{len(seq)}")
        return seq[idx - 1]
    return index


def _filter(expr: ast.Filter) -> Compiled:
    seq_of, predicate = compile_expr(expr.seq), compile_expr(expr.predicate)

    def filter_(env):
        seq = seq_of(env)
        if kind_of(seq) != "list":
            raise FeelTypeError(f"cannot filter a {kind_of(seq)}")
        kept = []
        for element in seq:
            scoped = dict(env)
            scoped["item"] = element
            verdict = predicate(scoped)
            if kind_of(verdict) != "boolean":
                raise FeelTypeError("filter predicate must be boolean")
            if verdict:
                kept.append(element)
        return kept
    return filter_


def _context(expr: ast.ContextLit) -> Compiled:
    entries = tuple((key, compile_expr(value)) for key, value in expr.entries)
    return lambda env: {key: value(env) for key, value in entries}


def _path(expr: ast.Path) -> Compiled:
    base_of, key = compile_expr(expr.base), expr.key

    def path(env):
        base = base_of(env)
        if kind_of(base) != "context":
            raise FeelTypeError(f"cannot access '.{key}' on a {kind_of(base)}")
        if key not in base:
            raise FeelTypeError(f"context has no entry {key!r}")
        return base[key]
    return path


def _range(expr: ast.RangeLit) -> Compiled:
    lo_of, hi_of = compile_expr(expr.lo), compile_expr(expr.hi)
    lo_incl, hi_incl = expr.lo_incl, expr.hi_incl

    def range_(env):
        lo = lo_of(env)
        hi = hi_of(env)
        compare(lo, hi)  # endpoints must be mutually ordered
        return FeelRange(lo, hi, lo_incl, hi_incl)
    return range_


def _in(expr: ast.InTest) -> Compiled:
    item_of, container_of = compile_expr(expr.item), compile_expr(expr.container)

    def in_(env):
        item = item_of(env)
        container = container_of(env)
        if isinstance(container, FeelRange):
            return container.contains(item)
        if kind_of(container) == "list":
            return any(equals(item, element) for element in container)
        raise FeelTypeError(f"'in' needs a list or range, got {kind_of(container)}")
    return in_


def _instance_of(expr: ast.InstanceOf) -> Compiled:
    operand, type_name = compile_expr(expr.operand), expr.type_name

    def instance_of(env):
        v = operand(env)
        kind = kind_of(v)
        check_defined(v)
        return kind == type_name
    return instance_of


_COMPILERS = {
    ast.Lit: _lit, ast.Var: _var, ast.Neg: _neg, ast.Not: _not, ast.BinOp: _binop,
    ast.Call: _call, ast.ListLit: _list, ast.Index: _index, ast.Filter: _filter,
    ast.ContextLit: _context, ast.Path: _path, ast.RangeLit: _range, ast.InTest: _in,
    ast.InstanceOf: _instance_of,
}


# --- decision-table cell tests -------------------------------------------

def compile_unary(test: ast.UnaryTest) -> Callable[[object], bool]:
    """A function of a cell value that tells whether `test` holds for it."""
    compile_test = _TEST_COMPILERS.get(type(test))
    if compile_test is not None:
        return compile_test(test)
    name = type(test).__name__

    def unknown(value):
        _defined_scalar(value)
        raise FeelTypeError(f"unknown test {name}")
    return unknown


_SCALARS = frozenset((int, float, str, bool, type(None)))  # exact classes


def _scalar(value):
    if type(value) in _SCALARS:
        return
    if kind_of(value) in ("list", "context"):
        raise FeelTypeError(f"cell tests apply to scalars, got a {kind_of(value)}")


def _defined_scalar(value):
    if type(value) in _SCALARS:
        return
    _scalar(value)
    check_defined(value)


def _dash(test: ast.Dash):
    def dash(value):
        _scalar(value)
        return True
    return dash


def _equals_const(test: ast.EqualsConst):
    const = test.value

    def equals_const(value):
        _defined_scalar(value)
        return equals(value, const)
    return equals_const


def _comparison(test: ast.Comparison):
    op = test.op
    operand = compile_expr(test.operand)
    try:
        bound, folded = operand({}), True  # variable-free: evaluated once
    except Exception:  # raised again, after the value checks, on every call
        bound, folded = None, False
    holds = _ORDER_HOLDS[op]

    def comparison(value):
        _defined_scalar(value)
        return holds[compare(value, bound if folded else operand({}))]
    return comparison


def _range_test(test: ast.RangeTest):
    r = test.range

    def range_test(value):
        _defined_scalar(value)
        return r.contains(value)
    return range_test


def _negation(test: ast.Negation):
    inner = compile_unary(test.inner)

    def negation(value):
        _defined_scalar(value)
        return not inner(value)
    return negation


def _disjunction(test: ast.Disjunction):
    alternatives = tuple(compile_unary(t) for t in test.alternatives)

    def disjunction(value):
        _defined_scalar(value)
        return any(alternative(value) for alternative in alternatives)
    return disjunction


_TEST_COMPILERS = {
    ast.Dash: _dash, ast.EqualsConst: _equals_const, ast.Comparison: _comparison,
    ast.RangeTest: _range_test, ast.Negation: _negation, ast.Disjunction: _disjunction,
}
