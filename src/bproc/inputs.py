"""Input-variable domains: inference from expressions, the inputs file,
and random value generation.

A domain is one of:
  ENUM(values)    the variable only meets direct equality comparisons
  BALL(w)         one-sided comparisons against a single constant w
  RANGE(lo, hi)   two-sided comparisons or explicit range tests
  UNHANDLED(...)  anything else (cross-variable comparisons, function
                  applications); sampling then needs user overrides
"""

from __future__ import annotations

import io
import math
import random
import sys
from dataclasses import dataclass, field

from . import feel
from .errors import (DomainMismatchError, InputsParseError, MissingOverrideError)
from .feel import ast
from .feel.types import StaticType
from .feel.values import kind_of

BALL_RADIUS_MIN = 1
BOUNDARY_BIAS = 0.3  # total probability mass spent on the center and both edges
_MAX_DOUBLE = sys.float_info.max
_MAX_INTEGER = int(_MAX_DOUBLE)  # draws stay within the finite doubles
_INFINITIES = (math.inf, -math.inf)


@dataclass(frozen=True)
class EnumDomain:
    values: tuple

    def contains(self, value) -> bool:
        return any(_soft_equals(value, v) for v in self.values)


@dataclass(frozen=True)
class BallDomain:
    center: object  # numeric

    @property
    def radius(self):
        return max(BALL_RADIUS_MIN, abs(self.center))

    def contains(self, value) -> bool:
        if kind_of(value) != "number":
            return False
        return self.center - self.radius <= value <= self.center + self.radius


@dataclass(frozen=True)
class RangeDomain:
    lo: object
    hi: object
    lo_incl: bool = True
    hi_incl: bool = True

    def contains(self, value) -> bool:
        if kind_of(value) != "number":
            return False
        return feel.FeelRange(self.lo, self.hi, self.lo_incl, self.hi_incl).contains(value)


@dataclass(frozen=True)
class UnhandledDomain:
    sources: tuple[str, ...] = ()

    def contains(self, value) -> bool:  # validation is up to the user
        return True


Domain = EnumDomain | BallDomain | RangeDomain | UnhandledDomain


@dataclass(frozen=True)
class InputSpec:
    name: str
    static_type: StaticType
    domain: Domain
    sample: object


@dataclass
class InputsFile:
    specs: list[InputSpec] = field(default_factory=list)
    overrides: dict[str, list] = field(default_factory=dict)

    def by_name(self) -> dict[str, InputSpec]:
        return {s.name: s for s in self.specs}


def _soft_equals(a, b) -> bool:
    try:
        return feel.equals(a, b)
    except Exception:
        return False


# --- fact gathering -------------------------------------------------------

@dataclass(frozen=True)
class _Fact:
    kind: str  # "eq" | "cmp" | "range" | "other"
    op: str | None = None
    value: object = None
    source: str = ""


def _constant_value(expr: ast.FeelExpr):
    """Evaluate a variable-free operand; None when it has free variables."""
    if ast.free_variables(expr):
        return None, False
    try:
        return feel.evaluate(expr, {}), True
    except Exception:
        return None, False


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def facts_from_expr(expr: ast.FeelExpr, input_vars: set[str]) -> list[tuple[str, _Fact]]:
    """Domain evidence contributed by one expression.

    Only comparison/membership atoms generate facts, and each atom
    constrains its plain-variable subject alone; variables that appear on
    the far side of somebody else's comparison are not affected.
    """
    facts: list[tuple[str, _Fact]] = []
    _collect_facts(expr, expr, input_vars, facts)
    return facts


def _collect_facts(node, expr: ast.FeelExpr, input_vars: set[str], facts: list) -> None:
    """Append the facts of `node`, a part of `expr`, and of its parts in
    source order. Recursion at module level, as in `ast._collect_free`,
    so that a call leaves no reference cycle behind."""
    cls = type(node)
    if cls is ast.Var or cls is ast.Lit:
        return
    if cls is ast.BinOp and node.op in ("=", "!=", "<", "<=", ">", ">="):
        handled = _bound_fact(node.left, node.right, node.op, expr, input_vars, facts)
        if not handled and isinstance(node.right, ast.Var) \
                and node.right.name in input_vars:
            flipped = _FLIP.get(node.op, node.op)
            _bound_fact(node.right, node.left, flipped, expr, input_vars, facts)
        return
    if cls is ast.InTest and type(node.item) is ast.Var \
            and node.item.name in input_vars:
        container, ok = _constant_value(node.container)
        if ok and isinstance(container, feel.FeelRange):
            facts.append((node.item.name, _Fact("range", value=container)))
        elif ok and kind_of(container) == "list":
            for element in container:
                facts.append((node.item.name, _Fact("eq", value=element)))
        else:
            facts.append((node.item.name, _Fact("other", source=feel.render(expr))))
        return
    children = ast.CHILDREN.get(cls)
    if children is not None:
        for child in children(node):
            _collect_facts(child, expr, input_vars, facts)


def _bound_fact(left, right, op: str, expr: ast.FeelExpr, input_vars: set[str],
                facts: list) -> bool:
    """Append the fact of `left op right` when `left` is an input variable."""
    if isinstance(left, ast.Var) and left.name in input_vars:
        const, ok = _constant_value(right)
        if ok:
            facts.append((left.name, _classify(op, const)))
        else:
            facts.append((left.name, _Fact("other", source=feel.render(expr))))
        return True
    return False


def _classify(op: str, const) -> _Fact:
    if const is None:  # null checks carry no domain information
        return _Fact("eq", value=None)
    if op in ("=", "!="):
        return _Fact("eq", value=const)
    return _Fact("cmp", op=op, value=const)


def facts_from_unary_test(var: str, test: ast.UnaryTest) -> list[tuple[str, _Fact]]:
    """Evidence a decision-table cell contributes to its bound variable."""
    if isinstance(test, ast.Dash):
        return []
    if isinstance(test, ast.EqualsConst):
        return [(var, _Fact("eq", value=test.value))]
    if isinstance(test, ast.Comparison):
        value, ok = _constant_value(test.operand)
        if ok:
            return [(var, _Fact("cmp", op=test.op, value=value))]
        return [(var, _Fact("other", source=feel.render_unary_test(test)))]
    if isinstance(test, ast.RangeTest):
        return [(var, _Fact("range", value=test.range))]
    if isinstance(test, ast.Negation):
        return facts_from_unary_test(var, test.inner)
    if isinstance(test, ast.Disjunction):
        out = []
        for alt in test.alternatives:
            out.extend(facts_from_unary_test(var, alt))
        return out
    return []


# --- fact combination -----------------------------------------------------

def infer_domains(input_vars, facts) -> tuple[dict[str, Domain], list[str]]:
    """Combine gathered facts into one domain per input variable.

    Returns (domains, diagnostics). Order of facts does not matter.
    """
    per_var: dict[str, list[_Fact]] = {name: [] for name in input_vars}
    for name, fact in facts:
        if name in per_var:
            per_var[name].append(fact)

    domains: dict[str, Domain] = {}
    diagnostics: list[str] = []
    for name in sorted(per_var):
        domains[name] = _combine(name, per_var[name], diagnostics)
    return domains, diagnostics


def _combine(name: str, facts: list[_Fact], diagnostics: list[str]) -> Domain:
    others = sorted({f.source for f in facts if f.kind == "other"})
    if others:
        return UnhandledDomain(tuple(others))
    eqs = [f.value for f in facts if f.kind == "eq" and f.value is not None]
    cmps = [f for f in facts if f.kind == "cmp"]
    ranges = [f.value for f in facts if f.kind == "range"]

    if not cmps and not ranges:
        if eqs:
            unique = []
            for v in eqs:
                if not any(_soft_equals(v, u) for u in unique):
                    unique.append(v)
            return EnumDomain(tuple(sorted(unique, key=lambda v: (kind_of(v), str(v)))))
        return UnhandledDomain(())

    constants = {f.value for f in cmps} | set(eqs)
    for r in ranges:
        constants |= {r.lo, r.hi}
    if any(kind_of(c) != "number" for c in constants):
        diagnostics.append(f"{name}: mixed numeric and non-numeric constraints")
        return UnhandledDomain(tuple(sorted(
            feel.render_value(c) for c in constants)))
    if not ranges and len(constants) == 1:
        return BallDomain(next(iter(constants)))

    lowers = [(f.value, f.op == ">=") for f in cmps if f.op in (">", ">=")]
    uppers = [(f.value, f.op == "<=") for f in cmps if f.op in ("<", "<=")]
    lowers += [(r.lo, r.lo_incl) for r in ranges]
    uppers += [(r.hi, r.hi_incl) for r in ranges]
    lowers += [(v, True) for v in eqs]
    uppers += [(v, True) for v in eqs]

    if len(ranges) > 1 or (ranges and cmps):
        diagnostics.append(f"{name}: several range constraints merged into their convex hull")

    if not lowers or not uppers:
        # one-sided bounds with several constants: fall back to a ball around
        # the tightest one
        bounds = uppers or lowers
        center = min(v for v, _ in bounds) if uppers else max(v for v, _ in bounds)
        diagnostics.append(f"{name}: one-sided comparisons; using a ball around {center}")
        return BallDomain(center)

    lo, lo_incl = min(lowers, key=lambda p: (p[0], not p[1]))
    hi, hi_incl = max(uppers, key=lambda p: (p[0], p[1]))
    if lo > hi:
        constants_sorted = sorted(constants)
        diagnostics.append(f"{name}: contradictory bounds; using the hull of all constants")
        return RangeDomain(constants_sorted[0], constants_sorted[-1], True, True)
    return RangeDomain(lo, hi, lo_incl, hi_incl)


# --- rendering and parsing -------------------------------------------------

def render_domain(domain: Domain) -> str:
    if isinstance(domain, EnumDomain):
        return "ENUM(" + ",".join(feel.render_value(v) for v in domain.values) + ")"
    if isinstance(domain, BallDomain):
        return f"BALL({feel.render_value(domain.center)})"
    if isinstance(domain, RangeDomain):
        lo_b = "[" if domain.lo_incl else "("
        hi_b = "]" if domain.hi_incl else ")"
        return (f"RANGE({lo_b}{feel.render_value(domain.lo)},"
                f"{feel.render_value(domain.hi)}{hi_b})")
    return "UNHANDLED(" + ";".join(domain.sources) + ")"


def _parse_domain(text: str, line_no: int) -> Domain:
    text = text.strip()
    try:
        if text.startswith("ENUM(") and text.endswith(")"):
            values = feel.evaluate(feel.parse_expr("[" + text[5:-1] + "]"), {})
            return EnumDomain(tuple(values))
        if text.startswith("BALL(") and text.endswith(")"):
            center = feel.evaluate(feel.parse_expr(text[5:-1]), {})
            return BallDomain(_number(center, "a BALL centre"))
        if text.startswith("RANGE(") and text.endswith(")"):
            body = text[6:-1].strip()
            if body[:1] not in ("[", "(") or body[-1:] not in ("]", ")"):
                raise ValueError("a RANGE opens with [ or ( and closes with ] or )")
            lo_incl, hi_incl = body[0] == "[", body[-1] == "]"
            bounds = feel.evaluate(feel.parse_expr("[" + body[1:-1] + "]"), {})
            if len(bounds) != 2:
                raise ValueError(f"a RANGE has two bounds, not {len(bounds)}")
            return RangeDomain(_number(bounds[0], "a RANGE bound"),
                               _number(bounds[1], "a RANGE bound"), lo_incl, hi_incl)
        if text.startswith("UNHANDLED(") and text.endswith(")"):
            body = text[10:-1]
            return UnhandledDomain(tuple(s for s in _split_outside_strings(body, ";") if s))
    except InputsParseError:
        raise
    except Exception as exc:
        raise InputsParseError(f"bad domain {text!r}: {exc}", line_no) from exc
    raise InputsParseError(f"unknown domain {text!r}", line_no)


def _number(value, what: str):
    if kind_of(value) != "number":
        raise ValueError(f"{what} must be a number, not {kind_of(value)}")
    return value


def _split_outside_strings(text: str, sep: str) -> list[str]:
    """`text` cut at each `sep` that is not inside a string literal."""
    pieces, start, i, quoted = [], 0, 0, False
    while i < len(text):
        if quoted:
            if text[i] == "\\":
                i += 1  # the escaped character
            elif text[i] == '"':
                quoted = False
        elif text[i] == '"':
            quoted = True
        elif text.startswith(sep, i):
            pieces.append(text[start:i])
            start = i = i + len(sep)
            continue
        i += 1
    pieces.append(text[start:])
    return pieces


def write_inputs_file(path, specs: list[InputSpec], overrides: dict[str, list] | None = None):
    """One `name : type : domain : sample` line per variable, plus optional
    `override name = v1, v2` lines for unhandled domains. UTF-8, '#' comments."""
    lines = [f"{s.name} : {s.static_type} : {render_domain(s.domain)} : "
             f"{feel.render_value(s.sample)}" for s in specs]
    for name in sorted(overrides or {}):
        rendered = ", ".join(feel.render_value(v) for v in overrides[name])
        lines.append(f"override {name} = {rendered}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _utf8_lines(path) -> io.StringIO:
    """The file's text, split into lines as a text file is; bytes that are
    not UTF-8 are an InputsParseError at their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputsParseError(f"the file is not UTF-8: {exc.reason} at byte {exc.start}",
                               data.count(b"\n", 0, exc.start) + 1) from None
    return io.StringIO(text, newline=None)


def parse_inputs_file(path) -> InputsFile:
    """Exact inverse of write_inputs_file; hand-edited samples are validated
    against their domain."""
    result = InputsFile()
    with _utf8_lines(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("override "):
                body = line[len("override "):]
                if "=" not in body:
                    raise InputsParseError("override line without '='", line_no)
                name, values_text = body.split("=", 1)
                try:
                    values = feel.evaluate(feel.parse_expr("[" + values_text + "]"), {})
                except Exception as exc:
                    raise InputsParseError(f"bad override values: {exc}", line_no) from exc
                result.overrides[name.strip()] = list(values)
                continue
            parts = _split_outside_strings(line, " : ")
            if len(parts) < 4:
                raise InputsParseError(f"expected 'name : type : domain : sample'", line_no)
            name, type_text = parts[0].strip(), parts[1].strip()
            domain_text, sample_text = " : ".join(parts[2:-1]), parts[-1]
            try:
                static_type = StaticType(type_text)
            except ValueError as exc:
                raise InputsParseError(f"unknown type {type_text!r}", line_no) from exc
            domain = _parse_domain(domain_text, line_no)
            try:
                sample = feel.evaluate(feel.parse_expr(sample_text.strip()), {})
            except Exception as exc:
                raise InputsParseError(f"bad sample {sample_text!r}: {exc}", line_no) from exc
            if not isinstance(domain, UnhandledDomain) and not domain.contains(sample):
                raise DomainMismatchError(name, f"{feel.render_value(sample)} is outside "
                                                f"{render_domain(domain)}")
            result.specs.append(InputSpec(name, static_type, domain, sample))
    return result


# --- sampling ---------------------------------------------------------------

def type_default(static_type: StaticType):
    return {
        StaticType.INTEGER: 0,
        StaticType.DOUBLE: 0.0,
        StaticType.STRING: "",
        StaticType.BOOLEAN: False,
    }.get(static_type)


def sample_domain(domain: Domain, static_type: StaticType, rng: random.Random,
                  overrides: list | None = None, name: str = "?"):
    """Draw one value compatible with the domain: one draw of
    `sampler(domain, static_type, overrides, name)`, the one sampling
    implementation, whose docstring states the draws."""
    return sampler(domain, static_type, overrides, name)(rng)


def sampler(domain: Domain, static_type: StaticType, overrides: list | None = None,
            name: str = "?"):
    """The function `draw(rng)` that draws one value compatible with the
    domain; the domain's kind, the integer-or-double choice, the bounds and
    the bias thresholds are worked out here, once per sampler.

    Enums are uniform; ranges are uniform over the (type-aware) interval;
    balls around w span [w-R, w+R] with R = max(1, |w|) and a 0.3 bias
    toward w and the two boundary neighbourhoods; unhandled domains draw
    uniformly from the user-provided override list. Numeric draws stay
    within the finite doubles. A domain no draw can serve raises here: a
    range or ball that holds none raises DomainMismatchError, an unhandled
    domain without overrides MissingOverrideError. The calls a draw makes
    on `rng`, and their order, fix a campaign's inputs for its seed, so
    they must not change.
    """
    if isinstance(domain, EnumDomain):
        values = domain.values
        return lambda rng: rng.choice(values)
    if isinstance(domain, RangeDomain):
        return _interval_sampler(domain, static_type, name)
    if isinstance(domain, BallDomain):
        return _ball_sampler(domain, static_type, name)
    if overrides:
        return lambda rng: rng.choice(overrides)
    raise MissingOverrideError(name)


def _as_double(value):
    try:
        return float(value)
    except OverflowError:  # an int beyond the doubles
        return math.inf if value > 0 else -math.inf


def _no_finite_double(name: str, domain: Domain) -> DomainMismatchError:
    return DomainMismatchError(name, f"cannot be drawn: {render_domain(domain)} "
                                     f"holds no finite double")


def _interval_sampler(domain: RangeDomain, static_type, name: str):
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
        return lambda rng: rng.randint(lo_i, hi_i)
    lo_f, hi_f = _as_double(lo), _as_double(hi)  # an int bound may round outward
    # the least and greatest doubles the range holds
    least = lo_f if lo_f > lo or (lo_f == lo and lo_incl) else math.nextafter(lo_f, math.inf)
    greatest = (hi_f if hi_f < hi or (hi_f == hi and hi_incl)
                else math.nextafter(hi_f, -math.inf))
    span = hi_f - lo_f
    if math.isfinite(span):
        if least > greatest:
            raise DomainMismatchError(name, f"cannot be drawn: {render_domain(domain)} "
                                            f"is empty")

        def draw(rng):
            while True:  # open or rounded ends handled by rejection
                value = lo_f + span * rng.random()  # rng.uniform(lo_f, hi_f)
                if least <= value <= greatest:
                    return value
        return draw
    # an infinite or overflowing span: drawn over its finite part, in halves
    least, greatest = max(least, -_MAX_DOUBLE), min(greatest, _MAX_DOUBLE)
    if not least <= greatest:  # also a NaN bound
        raise _no_finite_double(name, domain)
    half_least, half_span = least / 2, greatest / 2 - least / 2
    return lambda rng: min(max((half_least + half_span * rng.random()) * 2, least), greatest)


_CENTER_BIAS, _LOW_BIAS = BOUNDARY_BIAS / 3, 2 * BOUNDARY_BIAS / 3


def _ball_sampler(domain: BallDomain, static_type, name: str):
    center, radius = domain.center, domain.radius
    lo, hi = center - radius, center + radius
    integer = static_type is StaticType.INTEGER or (
        static_type is not StaticType.DOUBLE and isinstance(center, int))
    if not -_MAX_DOUBLE <= lo <= hi <= _MAX_DOUBLE:  # beyond the doubles, or NaN
        if lo != lo or hi != hi:
            raise _no_finite_double(name, domain)
        center, lo, hi = (min(max(v, -_MAX_DOUBLE), _MAX_DOUBLE) for v in (center, lo, hi))
    if integer:
        center, lo, hi = int(center), int(lo), int(hi)
        low_edge, high_edge = (lo, min(lo + 1, hi)), (max(hi - 1, lo), hi)

        def draw_integer(rng):
            roll = rng.random()
            if roll < _CENTER_BIAS:
                return center
            if roll < _LOW_BIAS:
                return rng.choice(low_edge)
            if roll < BOUNDARY_BIAS:
                return rng.choice(high_edge)
            return rng.randint(lo, hi)
        return draw_integer
    center = float(center)
    edge = (hi - lo) * 0.01  # the width of each boundary neighbourhood
    lo_f, span = float(lo), float(hi) - float(lo)

    def draw_double(rng):
        roll = rng.random()
        if roll < _CENTER_BIAS:
            return center
        if roll < _LOW_BIAS:
            return lo + edge * rng.random()
        if roll < BOUNDARY_BIAS:
            return hi - edge * rng.random()
        return lo_f + span * rng.random()  # rng.uniform(float(lo), float(hi))
    return draw_double


def build_input_specs(roles, types, domains, rng: random.Random,
                      overrides: dict[str, list] | None = None) -> list[InputSpec]:
    """Assemble the (name, type, domain, sample) triplets for every
    input-role variable, in name order. `overrides` serve UNHANDLED
    domains only, whose sample they give; any other domain is sampled
    from itself, and raises DomainMismatchError when it holds no value."""
    specs = []
    overrides = overrides or {}
    for name in sorted(n for n, role in roles.items() if role.role == "input"):
        static_type = types.get(name, StaticType.UNKNOWN)
        domain = domains.get(name, UnhandledDomain(()))
        if isinstance(domain, UnhandledDomain):
            pool = overrides.get(name)
            sample = rng.choice(pool) if pool else type_default(static_type)
        else:
            sample = sample_domain(domain, static_type, rng, name=name)
        specs.append(InputSpec(name, static_type, domain, sample))
    return specs
