"""Independent oracles used by the test suite. The benchmark imports this
module in its measured process, so it stays lean and draws nothing: every
generator is in `generators.py`.

`formula_table_outputs` evaluates a decision table as the literal Boolean
formula over rows: an AND of implications where row i fires iff all its
cells hold and no earlier row fully matched, with the all-dash last row as
the fallback clause. It never calls evaluate_table and matches cells with
plain comparisons.

`outgoing` and `incoming` are linear scans over a parsed model's flows,
independent of the adjacency index the front end builds.

`walk_process` interprets a parsed process model and its tables directly
and yields the unique node path, write sequence and outcome for a concrete
input vector. It shares no evaluator with bproc: scripts, conditions and
table arguments go through `reference_evaluate`, tables through
`reference_evaluate_table`, never through the compiled routines, the
compiled FEEL closures or the compiled tables. It keeps the runtime's
fault contract: a BprocError from a script, condition or table, and a
condition that is not a boolean, end the walk at that node in
("fault", "ENGINE_FAULT").

`reference_matching_join` is the original join search for a parallel or
inclusive split: a full BFS from every branch, then the common barrier join
with the least maximum distance, ties broken on id.

`reference_infer_types` is the original type inference: one walk per
expression, noting each name's constant evidence into the type map as it
goes. An operand is a constant when it names no free variable and
`reference_evaluate` gives it a value other than null without raising;
bproc's own folder is never asked. `feel.infer_types` (and
compile_model's inference, which replays the evidence `feel.types.scan`
records at parse time) must agree with it type for type, in the same key
order, and error for error.

`reference_sample_domain` is the original input sampler, which works out
a domain's kind, bounds and bias thresholds again on every draw.
`inputs.sample_domain` and every sampler `inputs.sampler` builds must draw
the same values with the same calls on the random generator, and raise the
same errors.

`reference_campaign` is the campaign loop that builds every run's full
trace with `run_once` and merges it with `accumulate_coverage`, with the
same per-run draws (through `reference_sample_domain`), stopping rules,
run files and verdict as `run_campaign`.

`reference_evaluate`, `reference_match_unary` and `reference_evaluate_table`
are the original tree-walking evaluators of expressions, cell tests and
decision tables, which re-walk the tree (and re-evaluate every output entry
and comparison bound) on every call. The compiled closures must agree with
them value for value and error for error. They judge values with this
module's own `kind_of`, `check_defined`, `compare`, `equals`, `contains`
and `reference_scalar`: isinstance cascades with no exact-class shortcut,
against which `test_value_kernel_matches_the_reference` checks the kernel.
"""

from __future__ import annotations

import math
import operator
import os
import random
import statistics
import sys
from dataclasses import dataclass
from typing import Mapping

from bproc import dmn, runtime, verifier
from bproc.errors import (AnyConflictError, BprocError, DivisionByZeroError, DomainMismatchError,
                          FeelTypeError, IndexOutOfRangeError, MissingOverrideError,
                          NoMatchError, SchemaError, UndefinedValueError,
                          UniquenessViolationError, ValueTooLargeError)
from bproc.feel import ast
from bproc.feel.types import StaticType, join, type_of_constant
from bproc.inputs import (BallDomain, Domain, EnumDomain, RangeDomain, render_domain)
from bproc.feel.values import (MAX_INT_BITS, MAX_STRING_LENGTH, SECONDS_PER_DAY, UNDEFINED,
                               FeelRange, Temporal)

NO_MATCH = object()


# --- decision-table formula oracle ------------------------------------------

def _cell_holds(cell, value) -> bool:
    if isinstance(cell, ast.Dash):
        return True
    if isinstance(cell, ast.EqualsConst):
        c = cell.value
        if isinstance(c, bool) != isinstance(value, bool):
            return False
        if type(c) in (int, float) and type(value) in (int, float):
            return c == value
        return type(c) is type(value) and c == value
    if isinstance(cell, ast.RangeTest):
        r: FeelRange = cell.range
        above = value > r.lo or (r.lo_incl and value == r.lo)
        below = value < r.hi or (r.hi_incl and value == r.hi)
        return above and below
    if isinstance(cell, ast.Comparison):
        bound = cell.operand.value if isinstance(cell.operand, ast.Lit) else None
        return {"<": value < bound, "<=": value <= bound,
                ">": value > bound, ">=": value >= bound}[cell.op]
    raise AssertionError(f"oracle cannot judge cell {cell!r}")


def formula_table_outputs(table: dmn.DecisionTable, args_in_order):
    """Outputs implied by the row-implication formula, or NO_MATCH."""
    rows = list(table.rules)
    default_row = rows[-1] if rows and rows[-1].is_all_dash() else None
    plain_rows = rows[:-1] if default_row is not None else rows

    full_match = [all(_cell_holds(cell, v)
                      for cell, v in zip(row.input_entries, args_in_order))
                  for row in plain_rows]
    implied = []
    for i, row in enumerate(plain_rows):
        antecedent = full_match[i] and not any(full_match[:i])
        if antecedent:
            implied.append(row)
    if not any(full_match):
        if default_row is None:
            return NO_MATCH
        implied.append(default_row)
    assert len(implied) == 1, "the implication chain must select exactly one row"
    row = implied[0]
    return {name: reference_evaluate(entry, {})
            for name, entry in zip(table.outputs, row.output_entries)}


# --- flow scans ---------------------------------------------------------------

def outgoing(model, node_id: str) -> list:
    return [f for f in model.flows if f.source == node_id]


def incoming(model, node_id: str) -> list:
    return [f for f in model.flows if f.target == node_id]


# --- direct process-model interpreter ----------------------------------------

@dataclass
class WalkResult:
    nodes: list[str]
    writes: list[tuple[str, object]]
    outcome: tuple[str, str]  # (status, code)


def walk_process(model, tables, input_values: dict, max_nodes: int = 10_000) -> WalkResult:
    """Follow the one path a deterministic, parallel-free process takes."""
    table_by_ref = {t.name: t for t in reversed(tables)}  # by id, else by the name
    table_by_ref.update((t.id, t) for t in tables)  # of the first table with it

    env: dict[str, object] = {}
    nodes: list[str] = []
    writes: list[tuple[str, object]] = []

    def write(name, value):
        env[name] = value
        writes.append((name, value))

    def holds(condition) -> bool:
        verdict = reference_evaluate(condition, env)
        if not isinstance(verdict, bool):
            raise FeelTypeError("condition is not boolean")
        return verdict

    current = model.start.id
    while len(nodes) < max_nodes:
        node = model.node(current)
        nodes.append(current)
        flows = outgoing(model, current)
        try:
            if node.kind in ("start", "user_task", "manual_task"):
                for var in dict.fromkeys(node.writes):
                    write(var, input_values[var])
            elif node.kind in ("script_task", "service_task"):
                write(node.target, reference_evaluate(node.expr, env))
            elif node.kind == "business_rule_task":
                table = table_by_ref[node.table_ref]
                bindings = node.input_map or tuple(table.inputs)
                result = reference_evaluate_table(
                    table, {label: reference_evaluate(expr, env) for label, expr in bindings})
                for out_name, var in node.output_map or tuple((o, o) for o in table.outputs):
                    write(var, result[out_name])
            elif node.kind == "exclusive_gateway":
                taken = next((f for f in flows if not f.is_default and f.condition is not None
                              and holds(f.condition)), None) \
                    or next((f for f in flows if f.is_default), None)
                if taken is None:
                    return WalkResult(nodes, writes, ("error", "UNHANDLED_CONDITION"))
                flows = [taken]
            elif node.kind == "end_success":
                return WalkResult(nodes, writes, ("success", node.id))
            elif node.kind == "end_error":
                return WalkResult(nodes, writes, ("error", node.error_code or f"ERR_{node.id}"))
            elif node.kind != "join_gateway":
                raise AssertionError(f"oracle cannot walk node kind {node.kind!r}")
        except BprocError:
            return WalkResult(nodes, writes, ("fault", "ENGINE_FAULT"))
        current = flows[0].target
    raise AssertionError("walk exceeded the node budget; does the model loop forever?")


# --- reference join matching --------------------------------------------------

def reference_infer_types(exprs) -> dict:
    """Per variable, the join of the types of the constants it meets."""
    types: dict = {}

    def note(name, t):
        types[name] = join(types.get(name, StaticType.UNKNOWN), t, name)

    def constant_of(expr):
        # a constant names no free variable and evaluates without raising;
        # null, like no constant, is no evidence
        if ast.free_variables(expr):
            return None
        try:
            return reference_evaluate(expr, {})
        except Exception:
            return None

    def walk(expr):
        if isinstance(expr, ast.Var):
            types.setdefault(expr.name, StaticType.UNKNOWN)
            return
        if isinstance(expr, ast.BinOp) and expr.op in ("<", "<=", ">", ">=", "=", "!=", "+",
                                                       "-", "*", "/", "**"):
            for var_side, const_side in ((expr.left, expr.right), (expr.right, expr.left)):
                if isinstance(var_side, ast.Var):
                    const = constant_of(const_side)
                    if const is not None:
                        note(var_side.name, type_of_constant(const))
        elif isinstance(expr, ast.InTest) and isinstance(expr.item, ast.Var):
            container = expr.container
            ends = (container.items if isinstance(container, ast.ListLit)
                    else (container.lo, container.hi) if isinstance(container, ast.RangeLit)
                    else ())
            for end in ends:
                const = constant_of(end)
                if const is not None:
                    note(expr.item.name, type_of_constant(const))
        children = ast.CHILDREN.get(type(expr))
        for child in children(expr) if children is not None else ():
            walk(child)

    for expr in exprs:
        walk(expr)
    return types


def reference_matching_join(gateway_id: str, model) -> str:
    """The join gateway every branch of the split reaches; structured
    diagrams have exactly one such nearest join."""
    succ: dict[str, list[str]] = {}
    for flow in model.flows:
        succ.setdefault(flow.source, []).append(flow.target)

    def distances(origin: str) -> dict[str, int]:
        dist = {origin: 0}
        frontier = [origin]
        while frontier:
            nxt = []
            for node_id in frontier:
                for target in succ.get(node_id, ()):
                    if target not in dist:
                        dist[target] = dist[node_id] + 1
                        nxt.append(target)
            frontier = nxt
        return dist

    branch_dists = [distances(f.target) for f in outgoing(model, gateway_id)]
    barriers = [n.id for n in model.nodes
                if n.kind == "join_gateway" and n.join_kind in ("parallel", "inclusive")]
    common = [b for b in barriers if all(b in d for d in branch_dists)]
    if not common:
        raise SchemaError(f"parallel/inclusive split {gateway_id!r} has no join gateway "
                          f"reachable from every branch")
    return min(common, key=lambda b: (max(d[b] for d in branch_dists), b))


# --- reference value kernel -----------------------------------------------------
# The value kernel of bproc.feel.values as plain isinstance cascades, so that
# its exact-class lookups are checked against code they do not share.

def kind_of(value) -> str:
    if value is UNDEFINED:
        return "undefined"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Temporal):
        return value.kind
    if isinstance(value, FeelRange):
        return "range"
    if isinstance(value, list):
        return "list"
    if isinstance(value, dict):
        return "context"
    raise FeelTypeError(f"not a value of the expression language: {value!r}")


def check_defined(value):
    if value is UNDEFINED:
        raise UndefinedValueError("operation touches an undefined variable")
    return value


def compare(a, b) -> int:
    check_defined(a)
    check_defined(b)
    ka, kb = kind_of(a), kind_of(b)
    if ka == kb == "number":
        return (a > b) - (a < b)
    if ka == kb == "string":
        return (a > b) - (a < b)
    if ka == kb and ka in ("date", "time"):
        return (a.scalar > b.scalar) - (a.scalar < b.scalar)
    raise FeelTypeError(f"cannot order {ka} against {kb}")


def equals(a, b) -> bool:
    check_defined(a)
    check_defined(b)
    ka, kb = kind_of(a), kind_of(b)
    if ka == "null" or kb == "null":
        return ka == kb
    if ka != kb:
        raise FeelTypeError(f"cannot compare {ka} against {kb} for equality")
    if ka == "number":
        return a == b
    if ka == "list":
        if len(a) != len(b):
            return False
        return all(equals(x, y) for x, y in zip(a, b))
    if ka == "context":
        if set(a) != set(b):
            return False
        return all(equals(a[k], b[k]) for k in a)
    return a == b


def contains(r: FeelRange, value) -> bool:
    """FeelRange.contains over the reference `compare`."""
    lo_ok = compare(value, r.lo) >= (0 if r.lo_incl else 1)
    hi_ok = compare(value, r.hi) <= (0 if r.hi_incl else -1)
    return lo_ok and hi_ok


def reference_scalar(value):
    """A cell test's check that its argument is no list or context."""
    if kind_of(value) in ("list", "context"):
        raise FeelTypeError(f"cell tests apply to scalars, got a {kind_of(value)}")


def reference_defined_scalar(value):
    reference_scalar(value)
    check_defined(value)


# --- reference evaluators -------------------------------------------------------

_REF_ORDER_OPS = {"<", "<=", ">", ">="}


def reference_evaluate(expr: ast.FeelExpr, env: Mapping[str, object]):
    """Value of `expr` under `env`, by walking the tree."""
    if isinstance(expr, ast.Lit):
        return expr.value
    if isinstance(expr, ast.Var):
        if expr.name not in env:
            raise UndefinedValueError(f"variable {expr.name!r} is not bound")
        return check_defined(env[expr.name])
    if isinstance(expr, ast.Neg):
        v = reference_evaluate(expr.operand, env)
        if kind_of(v) != "number":
            raise FeelTypeError(f"cannot negate a {kind_of(v)}")
        return -v
    if isinstance(expr, ast.Not):
        v = reference_evaluate(expr.operand, env)
        if kind_of(v) != "boolean":
            raise FeelTypeError(f"'not' needs a boolean, got {kind_of(v)}")
        return not v
    if isinstance(expr, ast.BinOp):
        return _ref_binop(expr, env)
    if isinstance(expr, ast.Call):
        return _ref_call(expr, env)
    if isinstance(expr, ast.ListLit):
        return [reference_evaluate(item, env) for item in expr.items]
    if isinstance(expr, ast.Index):
        seq = reference_evaluate(expr.seq, env)
        if kind_of(seq) != "list":
            raise FeelTypeError(f"cannot index a {kind_of(seq)}")
        idx = reference_evaluate(expr.index, env)
        if kind_of(idx) != "number" or isinstance(idx, float):
            raise FeelTypeError("list index must be an integer")
        if not 1 <= idx <= len(seq):
            raise IndexOutOfRangeError(f"index {idx} outside 1..{len(seq)}")
        return seq[idx - 1]
    if isinstance(expr, ast.Filter):
        seq = reference_evaluate(expr.seq, env)
        if kind_of(seq) != "list":
            raise FeelTypeError(f"cannot filter a {kind_of(seq)}")
        kept = []
        for element in seq:
            scoped = dict(env)
            scoped["item"] = element
            verdict = reference_evaluate(expr.predicate, scoped)
            if kind_of(verdict) != "boolean":
                raise FeelTypeError("filter predicate must be boolean")
            if verdict:
                kept.append(element)
        return kept
    if isinstance(expr, ast.ContextLit):
        return {k: reference_evaluate(v, env) for k, v in expr.entries}
    if isinstance(expr, ast.Path):
        base = reference_evaluate(expr.base, env)
        if kind_of(base) != "context":
            raise FeelTypeError(f"cannot access '.{expr.key}' on a {kind_of(base)}")
        if expr.key not in base:
            raise FeelTypeError(f"context has no entry {expr.key!r}")
        return base[expr.key]
    if isinstance(expr, ast.RangeLit):
        lo = reference_evaluate(expr.lo, env)
        hi = reference_evaluate(expr.hi, env)
        compare(lo, hi)  # endpoints must be mutually ordered
        return FeelRange(lo, hi, expr.lo_incl, expr.hi_incl)
    if isinstance(expr, ast.InTest):
        return _ref_membership(reference_evaluate(expr.item, env), reference_evaluate(expr.container, env))
    if isinstance(expr, ast.InstanceOf):
        v = reference_evaluate(expr.operand, env)
        kind = kind_of(v)
        check_defined(v)
        return kind == expr.type_name
    raise FeelTypeError(f"cannot evaluate node {type(expr).__name__}")


def _ref_binop(expr: ast.BinOp, env):
    op = expr.op
    if op in ("and", "or"):
        left = reference_evaluate(expr.left, env)
        if kind_of(left) != "boolean":
            raise FeelTypeError(f"{op!r} needs boolean operands, got {kind_of(left)}")
        if op == "and" and not left:
            return False
        if op == "or" and left:
            return True
        right = reference_evaluate(expr.right, env)
        if kind_of(right) != "boolean":
            raise FeelTypeError(f"{op!r} needs boolean operands, got {kind_of(right)}")
        return right

    left = reference_evaluate(expr.left, env)
    right = reference_evaluate(expr.right, env)
    if op == "=":
        return equals(left, right)
    if op == "!=":
        return not equals(left, right)
    if op in _REF_ORDER_OPS:
        c = compare(left, right)
        return {"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[op]

    # arithmetic
    lk, rk = kind_of(left), kind_of(right)
    if op == "+" and lk == rk == "string":
        if len(left + right) > MAX_STRING_LENGTH:  # built, then measured: test-sized operands
            raise ValueTooLargeError(
                f"string concatenation would exceed {MAX_STRING_LENGTH} characters")
        return left + right
    if op == "+" and lk == rk == "time":
        return Temporal("time", (left.scalar + right.scalar) % SECONDS_PER_DAY)
    if lk != "number" or rk != "number":
        raise FeelTypeError(f"cannot apply {op!r} to {lk} and {rk}")
    both_ints = isinstance(left, int) and isinstance(right, int)
    if op in ("+", "-", "*", "/"):
        if op == "*" and both_ints \
                and abs(left).bit_length() + abs(right).bit_length() > MAX_INT_BITS:
            raise ValueTooLargeError(f"integer product would exceed {MAX_INT_BITS} bits")
        if op == "/" and right == 0:
            raise DivisionByZeroError("division by zero")
        try:
            return {"+": operator.add, "-": operator.sub, "*": operator.mul,
                    "/": operator.truediv}[op](left, right)
        except OverflowError:  # an integer past the doubles met a double
            raise ValueTooLargeError("number too large for a double") from None
    if op == "**":
        # |left| ** right needs about right * log2|left| bits; with |left| >= 2
        # that is at least `right`, so a large exponent fails without the log
        if both_ints and right > 0 and abs(left) >= 2 and (
                right > MAX_INT_BITS or right * math.log2(abs(left)) > MAX_INT_BITS):
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


def _ref_call(expr: ast.Call, env):
    args = [reference_evaluate(a, env) for a in expr.args]

    def one_number():
        if len(args) != 1 or kind_of(args[0]) != "number":
            raise FeelTypeError(f"{expr.name}(...) takes one number")
        return args[0]

    if expr.name == "abs":
        return abs(one_number())
    if expr.name in ("floor", "ceiling"):
        v = one_number()
        if not math.isfinite(v):
            raise FeelTypeError(f"{expr.name}(...) takes a finite number")
        return math.floor(v) if expr.name == "floor" else math.ceil(v)
    if expr.name == "sqrt":
        v = one_number()
        if v < 0:
            raise FeelTypeError("sqrt of a negative number")
        try:
            return math.sqrt(v)
        except OverflowError:
            raise ValueTooLargeError("number too large for a double") from None
    if expr.name == "length":
        if len(args) != 1 or kind_of(args[0]) not in ("string", "list"):
            raise FeelTypeError("length(...) takes one string or list")
        return len(args[0])
    if expr.name == "overlaps before":
        if len(args) != 2 or not all(isinstance(a, FeelRange) for a in args):
            raise FeelTypeError("overlaps before(...) takes two ranges")
        return _ref_overlaps_before(args[0], args[1])
    raise FeelTypeError(f"unknown function {expr.name!r}")


def _ref_overlaps_before(a: FeelRange, b: FeelRange) -> bool:
    # a starts before b, they overlap, and a ends inside b
    starts_before = compare(a.lo, b.lo) < 0 or (
        compare(a.lo, b.lo) == 0 and a.lo_incl and not b.lo_incl)
    overlap = compare(a.hi, b.lo) > 0 or (
        compare(a.hi, b.lo) == 0 and a.hi_incl and b.lo_incl)
    ends_inside = compare(a.hi, b.hi) < 0 or (
        compare(a.hi, b.hi) == 0 and (not a.hi_incl or b.hi_incl))
    return starts_before and overlap and ends_inside


def _ref_membership(item, container) -> bool:
    if isinstance(container, FeelRange):
        return contains(container, item)
    if kind_of(container) == "list":
        return any(equals(item, element) for element in container)
    raise FeelTypeError(f"'in' needs a list or range, got {kind_of(container)}")


def reference_match_unary(test: ast.UnaryTest, value) -> bool:
    """Does `value` satisfy a decision-table input entry? By walking the test."""
    reference_scalar(value)
    if isinstance(test, ast.Dash):
        return True
    check_defined(value)
    if isinstance(test, ast.EqualsConst):
        return equals(value, test.value)
    if isinstance(test, ast.Comparison):
        bound = reference_evaluate(test.operand, {})
        c = compare(value, bound)
        return {"<": c < 0, "<=": c <= 0, ">": c > 0, ">=": c >= 0}[test.op]
    if isinstance(test, ast.RangeTest):
        return contains(test.range, value)
    if isinstance(test, ast.Negation):
        return not reference_match_unary(test.inner, value)
    if isinstance(test, ast.Disjunction):
        return any(reference_match_unary(t, value) for t in test.alternatives)
    raise FeelTypeError(f"unknown test {type(test).__name__}")


def reference_evaluate_table(table: dmn.DecisionTable, args: dict[str, object]) -> dict:
    """Hit-policy evaluation that matches every rule and evaluates the
    output entries of each hit, through the reference walkers."""
    missing = [label for label, _ in table.inputs if label not in args]
    if missing:
        raise SchemaError(f"table {table.id!r} called without arguments {missing}")
    ordered = [args[label] for label, _ in table.inputs]

    def outputs(rule):
        return {name: reference_evaluate(entry, {})
                for name, entry in zip(table.outputs, rule.output_entries)}

    default = table.default_rule()
    candidates = table.rules[:-1] if default is not None else table.rules
    matches = [i for i, rule in enumerate(candidates)
               if all(reference_match_unary(test, value)
                      for test, value in zip(rule.input_entries, ordered))]
    if not matches:
        if default is not None:
            return outputs(default)
        raise NoMatchError(table.id)
    if table.hit_policy == "First":
        return outputs(candidates[matches[0]])
    if table.hit_policy == "Unique":
        if len(matches) > 1:
            raise UniquenessViolationError(table.id, [m + 1 for m in matches])
        return outputs(candidates[matches[0]])
    outcomes = [outputs(candidates[i]) for i in matches]
    first = outcomes[0]
    for other in outcomes[1:]:
        if set(other) != set(first) or not all(equals(other[k], first[k]) for k in first):
            raise AnyConflictError(table.id)
    return first


def boundary_vectors(specs, overrides=None) -> list[dict]:
    """Cartesian product of exhaustive enum values and range/ball boundary
    values {lo, lo+1, hi-1, hi} per input variable."""
    axes: list[tuple[str, list]] = []
    for spec in specs:
        d = spec.domain
        if isinstance(d, EnumDomain):
            values = list(d.values)
        elif isinstance(d, RangeDomain):
            values = _bounds(d.lo, d.hi, spec.static_type)
        elif isinstance(d, BallDomain):
            values = _bounds(d.center - d.radius, d.center + d.radius, spec.static_type)
        else:
            values = list((overrides or {}).get(spec.name, []))
            assert values, f"no values to enumerate for {spec.name}"
        axes.append((spec.name, values))

    vectors = [{}]
    for name, values in axes:
        vectors = [dict(v, **{name: value}) for v in vectors for value in values]
    return vectors


def _bounds(lo, hi, static_type) -> list:
    if static_type is StaticType.DOUBLE:
        lo, hi = float(lo), float(hi)
    raw = [lo, lo + 1, hi - 1, hi]
    out = []
    for v in raw:
        if v not in out:
            out.append(v)
    return out


# --- reference input sampler ------------------------------------------------------

# the sampler's constants, as bproc.inputs defines them
BOUNDARY_BIAS = 0.3  # total probability mass spent on the center and both edges
_MAX_DOUBLE = sys.float_info.max
_MAX_INTEGER = int(_MAX_DOUBLE)  # draws stay within the finite doubles
_INFINITIES = (math.inf, -math.inf)


def reference_sample_domain(domain: Domain, static_type: StaticType, rng: random.Random,
                            overrides: list | None = None, name: str = "?"):
    """Draw one value compatible with the domain.

    Enums are uniform; ranges are uniform over the (type-aware) interval;
    balls around w span [w-R, w+R] with R = max(1, |w|) and a 0.3 bias
    toward w and the two boundary neighbourhoods; unhandled domains draw
    uniformly from the user-provided override list. Numeric draws stay
    within the finite doubles; a range or ball that holds none, or an enum
    that holds NaN, raises DomainMismatchError.
    """
    if isinstance(domain, EnumDomain):
        if any(value != value for value in domain.values):
            raise DomainMismatchError(name, f"cannot be drawn: {render_domain(domain)} "
                                            f"holds NaN")
        return rng.choice(domain.values)
    if isinstance(domain, RangeDomain):
        return _sample_interval(domain, static_type, rng, name)
    if isinstance(domain, BallDomain):
        return _sample_ball(domain, static_type, rng, name)
    if overrides:
        return rng.choice(overrides)
    raise MissingOverrideError(name)


def _as_double(value):
    try:
        return float(value)
    except OverflowError:  # an int beyond the doubles
        return math.inf if value > 0 else -math.inf


def _no_finite_double(name: str, domain: Domain) -> DomainMismatchError:
    return DomainMismatchError(name, f"cannot be drawn: {render_domain(domain)} "
                                     f"holds no finite double")


def _sample_interval(domain: RangeDomain, static_type, rng: random.Random, name: str):
    lo, hi, lo_incl, hi_incl = domain.lo, domain.hi, domain.lo_incl, domain.hi_incl
    if static_type is StaticType.INTEGER or (
            static_type is not StaticType.DOUBLE
            and isinstance(lo, int) and isinstance(hi, int)):
        if lo != lo or hi != hi:  # NaN
            raise _no_finite_double(name, domain)
        # the bounds rounded inward to the integers the range holds; infinities stay
        lo_i = lo if lo in _INFINITIES else math.ceil(lo) if lo_incl else math.floor(lo) + 1
        hi_i = hi if hi in _INFINITIES else math.floor(hi) if hi_incl else math.ceil(hi) - 1
        if lo_i > hi_i:
            raise DomainMismatchError(name, f"cannot be drawn: {render_domain(domain)} "
                                            f"holds no integer")
        lo_i, hi_i = max(lo_i, -_MAX_INTEGER), min(hi_i, _MAX_INTEGER)
        if lo_i > hi_i:
            raise _no_finite_double(name, domain)
        return rng.randint(lo_i, hi_i)
    lo_f, hi_f = _as_double(lo), _as_double(hi)  # an int bound may round outward
    # the least and greatest doubles the range holds
    least = lo_f if lo_f > lo or (lo_f == lo and lo_incl) else math.nextafter(lo_f, math.inf)
    greatest = (hi_f if hi_f < hi or (hi_f == hi and hi_incl)
                else math.nextafter(hi_f, -math.inf))
    if math.isfinite(hi_f - lo_f):
        if least > greatest:
            raise DomainMismatchError(name, f"cannot be drawn: {render_domain(domain)} "
                                            f"is empty")
        while True:  # open or rounded ends handled by rejection
            draw = rng.uniform(lo_f, hi_f)
            if least <= draw <= greatest:
                return draw
    # an infinite or overflowing span: drawn over its finite part, in halves
    least, greatest = max(least, -_MAX_DOUBLE), min(greatest, _MAX_DOUBLE)
    if not least <= greatest:  # also a NaN bound
        raise _no_finite_double(name, domain)
    half = least / 2 + (greatest / 2 - least / 2) * rng.random()
    return min(max(half * 2, least), greatest)


def _sample_ball(domain: BallDomain, static_type, rng: random.Random, name: str):
    center, radius = domain.center, domain.radius
    lo, hi = center - radius, center + radius
    integer = static_type is StaticType.INTEGER or (
        static_type is not StaticType.DOUBLE and isinstance(center, int))
    if not -_MAX_DOUBLE <= lo <= hi <= _MAX_DOUBLE:  # beyond the doubles, or NaN
        if lo != lo or hi != hi:
            raise _no_finite_double(name, domain)
        center, lo, hi = (min(max(v, -_MAX_DOUBLE), _MAX_DOUBLE) for v in (center, lo, hi))
    roll = rng.random()
    if roll < BOUNDARY_BIAS / 3:
        return int(center) if integer else float(center)
    if roll < 2 * BOUNDARY_BIAS / 3:
        if integer:
            return rng.choice((int(lo), min(int(lo) + 1, int(hi))))
        return lo + (hi - lo) * 0.01 * rng.random()
    if roll < BOUNDARY_BIAS:
        if integer:
            return rng.choice((max(int(hi) - 1, int(lo)), int(hi)))
        return hi - (hi - lo) * 0.01 * rng.random()
    if integer:
        return rng.randint(int(lo), int(hi))
    return rng.uniform(float(lo), float(hi))


# --- campaign oracle -----------------------------------------------------------------

def reference_campaign(model, cfg, overrides=None, out_dir=None):
    """run_campaign as a loop of run_once and accumulate_coverage."""
    overrides = overrides or {}
    mode = cfg.mode
    if isinstance(mode, verifier.Smc):
        budget = verifier.smc_sample_size(mode.epsilon, mode.delta)
    else:
        budget = mode.n
    report = verifier.empty_report(model.graph)
    durations_ms = []
    failing = None
    stopped_early = False
    smc_coverage = isinstance(mode, verifier.Smc) and mode.property == "coverage-unreachable"
    for index in range(budget):
        run_rng = random.Random(cfg.seed * 1_000_003 + index)
        lists = {spec.name: [reference_sample_domain(spec.domain, spec.static_type, run_rng,
                                                     overrides.get(spec.name), spec.name)]
                 for spec in model.input_vars}
        options = runtime.RunOptions(mode="sequential" if cfg.sequential else "parallel",
                                     timeout_s=cfg.timeout_s, seed=run_rng.getrandbits(64))
        trace, summary = runtime.run_once(model, lists, options)
        report = verifier.accumulate_coverage(report, trace, model.graph)
        durations_ms.append(summary.elapsed_s * 1000.0)
        if out_dir is not None:
            runtime.write_artifacts(trace, summary, model.graph, out_dir,
                                    stem=os.path.join("runs", f"run_{index}"),
                                    include_graph=False)
        if isinstance(mode, verifier.FixedBudget):
            stop = verifier._meaningful_thresholds(mode) and verifier._thresholds_hold(
                mode, report.c_n, report.c_e)
        elif smc_coverage:
            stop = verifier._thresholds_hold(mode, report.c_n, report.c_e)
        else:
            stop = summary.failed
        if stop:
            if not isinstance(mode, verifier.FixedBudget):
                failing = verifier._RunResult(index, summary)
            stopped_early = index + 1 < budget
            break
    verdict = verifier._decide(mode, report, failing, stopped_early)
    verdict.mean_run_ms = statistics.fmean(durations_ms)
    verdict.stddev_run_ms = statistics.stdev(durations_ms) if len(durations_ms) > 1 else 0.0
    if failing is not None and out_dir is not None:
        verdict.failing_trace = os.path.join("runs", f"run_{failing.index}.trace")
    if out_dir is not None:
        with open(os.path.join(out_dir, "verdict.json"), "w", encoding="utf-8") as fh:
            fh.write(verdict.to_json())
    return verdict
