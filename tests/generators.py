"""Every generated model and decision table the tests draw.

- `models(forks=False)` draws a structured process from a block grammar
  that builds only models whose runs are defined (the method of Csmith,
  Yang et al., PLDI 2011): the start event writes the input `x`, scripts
  write `a` := a literal and `b` := x, then come one to three blocks. A
  block is a script task (`a` or `b` := operand op operand), an exclusive
  gateway with one condition and a default whose arms are sequences or end
  events, a loop bounded by its own counter or, with `forks`, an n-way
  parallel, inclusive or exclusive split whose arms reach its join. Blocks
  other than scripts nest two deep. Operands are `x`, `a`, `b` and small
  integer literals, all written before they are read, so every condition
  is boolean; a run may still fault (nested loops can square `a` past the
  integer size limit). Elements come in a drawn order.
- `graphs()` draws a parsed model of gateways and tasks joined at random;
  `diamonds_xml(count)` is start, `count` parallel diamonds, end.
- `random_table(rng)` draws a First-policy table and each column's
  exhaustive domain from a seeded `random.Random`; seeded corpora depend on
  its exact calls on `rng`. `tables()` builds one from the AST constructors,
  whose cells and output entries (`cells`, `expressions`, `values`) reach
  kind errors, undefined values and every hit policy.
- `unary_tests` and `cells` draw one seed per cell and build the cell from
  it (`random_unary_test`, `random_cell`): a cell drawn node by node took
  hypothesis about forty draws, which made drawing it cost several times
  what parsing or evaluating it does.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass

from hypothesis import strategies as st

from bproc import dmn
from bproc.bpmn import Node, ProcessModel, SequenceFlow
from bproc.feel import ast
from bproc.feel.values import UNDEFINED, FeelRange, Temporal

# --- models -------------------------------------------------------------------------

DEFINITIONS = ('<?xml version="1.0"?><definitions '
               'xmlns="http://www.omg.org/spec/BPMN/20100524/MODEL" '
               'xmlns:ext="http://x/ext"><process id="p" name="P">')
FOOTER = '</process></definitions>'
START_X = ('<startEvent id="start"><extensionElements><ext:ioMapping>'
           '<ext:output source="x" target="x"/></ext:ioMapping></extensionElements>'
           '</startEvent>')
VARIABLES = ("x", "a", "b")
# the literals x is ordered against: lower bounds below 0, upper bounds above
# it, so that the domain inferred for x always holds an integer (see x_holds)
X_BOUNDS = {"&gt;": (-3, -1), "&gt;=": (-3, -1), "&lt;": (1, 9), "&lt;=": (1, 9)}


@dataclass
class GeneratedModel:
    xml: str
    joins: dict[str, str]  # each parallel or inclusive split -> the join drawn with it
    fork_free: bool  # no parallel or inclusive split
    # integers the inferred domain of x holds, unless it is UNHANDLED: each
    # literal x is compared equal or unequal to, else 0 (see X_BOUNDS)
    x_holds: tuple[int, ...]
    inputs: tuple[str, ...] = ("x",)  # the inputs the model reads


class _Drawing:
    """One model of `models`, drawn element by element."""

    def __init__(self, draw, forks: bool):
        self.draw, self.forks = draw, forks
        self.elements: list[str] = []
        self.ids = 0
        self.defaults: dict[str, str] = {}  # gateway -> id of its default flow, not yet drawn
        self.joins: dict[str, str] = {}
        self.x_equals: list[int] = []

    def new_id(self, prefix: str) -> str:
        self.ids += 1
        return f"{prefix}{self.ids}"

    def flow(self, source: str, target: str, condition: str | None = None):
        """A flow; the first unconditioned one out of a gateway with a
        default is that default."""
        default = self.defaults.pop(source, None) if condition is None else None
        guard = condition and f"<conditionExpression>{condition}</conditionExpression>"
        self.elements.append(f'<sequenceFlow id="{default or self.new_id("f")}" sourceRef='
                             f'"{source}" targetRef="{target}">{guard or ""}</sequenceFlow>')

    def gateway(self, kind: str = "exclusive", default: bool = False) -> str:
        gate = self.new_id("g")
        if default:
            self.defaults[gate] = self.new_id("f")
        attr = f' default="{self.defaults[gate]}"' if default else ""
        self.elements.append(f'<{kind}Gateway id="{gate}"{attr}/>')
        return gate

    def script(self, var: str, expr: str) -> str:
        task = self.new_id("t")
        self.elements.append(f'<scriptTask id="{task}" resultVariable="{var}">'
                             f'<script>{expr}</script></scriptTask>')
        return task

    def operand(self) -> str:
        return self.draw(st.sampled_from(VARIABLES) | st.integers(-3, 9).map(str))

    def condition(self) -> str:
        left = self.draw(st.sampled_from(VARIABLES))
        op = self.draw(st.sampled_from(["&lt;", "&lt;=", "&gt;", "&gt;=", "=", "!="]))
        if left == "x" and op in X_BOUNDS:
            right = self.draw(st.sampled_from(VARIABLES)
                              | st.integers(*X_BOUNDS[op]).map(str))
        else:
            right = self.operand()
            if left == "x" and right not in VARIABLES:
                self.x_equals.append(int(right))
        return f"{left} {op} {right}"

    def sequence(self, depth: int, closed: bool = False) -> tuple[str, str | None]:
        """(entry, exit) of one to three blocks; the exit is None when the
        sequence always ends the run, which a `closed` one never does, and
        has no flow out yet otherwise."""
        entry, exit_ = self.block(depth, closed)
        for _ in range(self.draw(st.integers(0, 2))):
            if exit_ is None:
                break
            first, last = self.block(depth, closed)
            self.flow(exit_, first)
            exit_ = last
        return entry, exit_

    def block(self, depth: int, closed: bool) -> tuple[str, str | None]:
        shapes = ["script"]
        if depth < 2:
            shapes += ["gateway", "loop"] + ["split", "split"] * self.forks
        shape = self.draw(st.sampled_from(shapes))
        if shape == "script":
            op = self.draw(st.sampled_from(["+", "-", "*"]))
            task = self.script(self.draw(st.sampled_from(["a", "b"])),
                               f"{self.operand()} {op} {self.operand()}")
            return task, task
        if shape == "gateway":
            gate = self.gateway(default=True)
            default, taken = self.arm(depth, closed), self.arm(depth, False)
            self.flow(gate, default[0])
            self.flow(gate, taken[0], self.condition())
            exits = [e for _, e in (taken, default) if e is not None]
            if len(exits) < 2:
                return gate, exits[0] if exits else None
            merge = self.gateway()
            for e in exits:
                self.flow(e, merge)
            return gate, merge
        if shape == "split":
            return self.split(depth)
        counter = self.new_id("i")
        init = self.script(counter, "0")
        body, body_exit = self.sequence(depth + 1, closed)
        if body_exit is None:  # the body always ends the run: no loop
            self.flow(init, body)
            return init, None
        merge, again = self.gateway(), self.gateway(default=True)
        self.flow(init, merge)
        self.flow(merge, body)
        step = self.script(counter, f"{counter} + 1")
        self.flow(body_exit, step)
        self.flow(step, again)
        self.flow(again, merge, f"{counter} &lt; {self.draw(st.integers(1, 4))}")
        return init, again  # its next flow is the loop's default exit

    def arm(self, depth: int, closed: bool) -> tuple[str, str | None]:
        ending = None if closed else self.draw(st.sampled_from([None, "success", "error"]))
        if ending is None:
            return self.sequence(depth + 1, closed)
        end = self.new_id("e")
        error = f'<errorEventDefinition errorCode="E_{end}"/>' if ending == "error" else ""
        self.elements.append(f'<endEvent id="{end}">{error}</endEvent>')
        return end, None

    def split(self, depth: int) -> tuple[str, str]:
        kind = self.draw(st.sampled_from(["parallel", "inclusive", "exclusive"]))
        arms = [self.sequence(depth + 1, closed=True)
                for _ in range(self.draw(st.integers(2, 4)))]
        split, join = self.gateway(kind, default=kind == "exclusive"), self.gateway(kind)
        for i, (entry, exit_) in enumerate(arms):
            unguarded = kind == "parallel" or (kind == "exclusive" and i == len(arms) - 1)
            self.flow(split, entry, None if unguarded else self.condition())
            self.flow(exit_, join)
        if kind != "exclusive":
            self.joins[split] = join
        return split, join

    def model(self) -> GeneratedModel:
        a = self.script("a", str(self.draw(st.integers(-5, 5))))
        b = self.script("b", "x")
        self.flow("start", a)
        self.flow(a, b)
        entry, exit_ = self.sequence(0)
        self.flow(b, entry)
        if exit_ is not None:
            self.elements.append('<endEvent id="end"/>')
            self.flow(exit_, "end")
        order = self.draw(st.permutations(range(len(self.elements))))
        xml = DEFINITIONS + START_X + "".join(self.elements[i] for i in order) + FOOTER
        return GeneratedModel(xml, self.joins, not self.joins, tuple(self.x_equals) or (0,))


@st.composite
def models(draw, forks: bool = False) -> GeneratedModel:
    """A model of the block grammar (see the module docstring); fork-free
    unless `forks`."""
    return _Drawing(draw, forks).model()


@st.composite
def graphs(draw) -> ProcessModel:
    """A parsed model of 3 to 10 join gateways and manual tasks joined at
    random, not well structured: cycles, shared joins, branches that never
    meet."""
    n = draw(st.integers(3, 10))
    ids = [f"n{i}" for i in range(n)]
    kinds = draw(st.lists(st.sampled_from(["parallel", "inclusive", "exclusive", None]),
                          min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          min_size=2, max_size=3 * n))
    nodes = [Node(i, i, "join_gateway", join_kind=k) if k else Node(i, i, "manual_task")
             for i, k in zip(ids, kinds)]
    flows = [SequenceFlow(f"f{k}", a, b) for k, (a, b) in enumerate(pairs)]
    return ProcessModel("p", "p", nodes, flows, [])


def diamonds_xml(count: int) -> str:
    """start -> `count` parallel diamonds of two script tasks each -> end."""
    out = [DEFINITIONS, '<startEvent id="start"/><endEvent id="end"/>',
           '<sequenceFlow id="f_start" sourceRef="start" targetRef="S1"/>']
    for i in range(1, count + 1):
        after = f"S{i + 1}" if i < count else "end"
        out.append(
            f'<parallelGateway id="S{i}"/><parallelGateway id="J{i}"/>'
            f'<scriptTask id="A{i}" resultVariable="a{i}"><script>{i}</script></scriptTask>'
            f'<scriptTask id="B{i}" resultVariable="b{i}"><script>{i}</script></scriptTask>'
            f'<sequenceFlow id="fa{i}" sourceRef="S{i}" targetRef="A{i}"/>'
            f'<sequenceFlow id="fb{i}" sourceRef="S{i}" targetRef="B{i}"/>'
            f'<sequenceFlow id="fja{i}" sourceRef="A{i}" targetRef="J{i}"/>'
            f'<sequenceFlow id="fjb{i}" sourceRef="B{i}" targetRef="J{i}"/>'
            f'<sequenceFlow id="fn{i}" sourceRef="J{i}" targetRef="{after}"/>')
    return "".join(out) + FOOTER


# --- seeded tables ------------------------------------------------------------------

_STRING_POOL = ["a", "b", "c", "d", "e", "f"]


@dataclass
class GeneratedTable:
    table: dmn.DecisionTable
    domains: list[list]  # exhaustive argument domain per input column


def random_table(rng: random.Random, max_inputs: int = 4, max_rules: int = 6,
                 max_domain: int = 6) -> GeneratedTable:
    k = rng.randint(1, max_inputs)
    columns = []
    for j in range(k):
        size = rng.randint(2, max_domain)
        if rng.random() < 0.5:
            columns.append(("enum", _STRING_POOL[:size]))
        else:
            columns.append(("int", list(range(size))))

    def random_cell(kind, domain):
        roll = rng.random()
        if roll < 0.25:
            return ast.Dash()
        if kind == "enum" or roll < 0.6:
            return ast.EqualsConst(rng.choice(domain))
        lo = rng.choice(domain)
        hi = rng.choice([v for v in domain if v >= lo])
        return ast.RangeTest(FeelRange(lo, hi, rng.random() < 0.8, rng.random() < 0.8))

    n_outputs = rng.randint(1, 2)
    outputs = tuple(f"out{j + 1}" for j in range(n_outputs))

    def random_row():
        cells = tuple(random_cell(kind, domain) for kind, domain in columns)
        values = tuple(ast.Lit(rng.choice((rng.randint(0, 9), rng.choice(_STRING_POOL))))
                       for _ in outputs)
        return dmn.Rule(cells, values)

    rules = [random_row() for _ in range(rng.randint(1, max_rules))]
    if rng.random() < 0.5:
        rules.append(dmn.Rule(tuple(ast.Dash() for _ in columns),
                              tuple(ast.Lit(0) for _ in outputs)))

    table = dmn.DecisionTable(
        id=f"T{rng.randrange(10**6)}", name="generated", hit_policy="First",
        inputs=tuple((f"in{j + 1}", ast.Var(f"in{j + 1}")) for j in range(k)),
        outputs=outputs, rules=tuple(rules))
    return GeneratedTable(table, [domain for _, domain in columns])


# --- values, expressions, cell tests and tables from the AST constructors -------------

NAMES = ("a", "b", "s", "u", "l", "c", "missing")  # "missing" is never bound


class Text(str):
    """A string of a subclass: it misses the kernel's exact-class paths."""


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


_EDGE_NUMBERS = (0, 0.0, -0.0, math.nan, 10**20, 1e20, 1e308)
_OTHER_SCALARS = ("x", "y", "", True, False, None, Text("x"), Level.LOW, Level.HIGH)
numbers = st.one_of(st.integers(-3, 3), st.floats(allow_nan=True, allow_infinity=True),
                    st.sampled_from(_EDGE_NUMBERS))
scalars = st.one_of(numbers, st.sampled_from(_OTHER_SCALARS),
                    st.builds(Temporal, st.sampled_from(["date", "time"]),
                              st.integers(0, 800_000)))
values = st.one_of(scalars, st.just(UNDEFINED), st.lists(scalars, max_size=3),
                   st.dictionaries(st.sampled_from(["k", "m"]), scalars, max_size=2),
                   st.builds(FeelRange, numbers, numbers, st.booleans(), st.booleans()),
                   st.just(("not", "a", "value")))

OPS = ("+", "-", "*", "/", "**", "<", "<=", ">", ">=", "=", "!=", "and", "or", "%")
CALLS = ("abs", "floor", "ceiling", "sqrt", "length", "overlaps before", "nope")


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        st.builds(ast.Neg, children),
        st.builds(ast.Not, children),
        st.builds(lambda op, lr: ast.BinOp(op, *lr), st.sampled_from(OPS), pairs),
        st.builds(ast.Call, st.sampled_from(CALLS), st.lists(children, max_size=2).map(tuple)),
        st.builds(ast.ListLit, st.lists(children, max_size=3).map(tuple)),
        st.builds(ast.Index, children, children),
        st.builds(ast.Filter, children, children),
        st.builds(ast.ContextLit, st.lists(st.tuples(st.sampled_from(["k", "m"]), children),
                                           max_size=2).map(tuple)),
        st.builds(ast.Path, children, st.sampled_from(["k", "m"])),
        st.builds(ast.RangeLit, children, children, st.booleans(), st.booleans()),
        st.builds(ast.InTest, children, children),
        st.builds(ast.InstanceOf, children, st.sampled_from(["number", "string", "boolean"])),
    )


# mostly numbers, so that many trees evaluate to a value
leaves = st.one_of(st.builds(ast.Lit, st.integers(-2, 3)), st.builds(ast.Lit, numbers),
                   st.builds(ast.Var, st.sampled_from(["a", "b", "a", "item"])),
                   st.builds(ast.Lit, scalars), st.builds(ast.Var, st.sampled_from(NAMES)))
expressions = st.recursive(leaves, _extend, max_leaves=6)
constant_expressions = st.recursive(st.builds(ast.Lit, scalars), _extend, max_leaves=4)


# the leaves of the seeded cells below: the edge values of `numbers` and
# `scalars`, and temporals, one of them a date out of range
CELL_NUMBERS = (-3, -1, 1, 2, 3, 0.5, -2.5, math.inf, -math.inf, 5e-324) + _EDGE_NUMBERS
CELL_SCALARS = CELL_NUMBERS + _OTHER_SCALARS + (
    Temporal("date", 1), Temporal("date", 738_000), Temporal("date", 0), Temporal("time", 0),
    Temporal("time", 86_399))


def random_constant(rng: random.Random, leaves: int) -> ast.FeelExpr:
    """A variable-free expression of at most `leaves` literals, over the
    node kinds of `expressions`."""
    if leaves <= 1 or rng.random() < 0.4:
        return ast.Lit(rng.choice(CELL_SCALARS))
    a, b = random_constant(rng, leaves // 2), random_constant(rng, leaves - leaves // 2)
    return rng.choice((
        lambda: ast.Neg(a), lambda: ast.Not(a), lambda: ast.BinOp(rng.choice(OPS), a, b),
        lambda: ast.Call(rng.choice(CALLS), (a, b)[:rng.randint(0, 2)]),
        lambda: ast.ListLit((a, b)[:rng.randint(0, 2)]), lambda: ast.Index(a, b),
        lambda: ast.Filter(a, b), lambda: ast.ContextLit((("k", a),)), lambda: ast.Path(a, "k"),
        lambda: ast.RangeLit(a, b, rng.random() < 0.5, rng.random() < 0.5),
        lambda: ast.InTest(a, b), lambda: ast.InstanceOf(a, rng.choice(("number", "string"))),
    ))()


def random_unary_test(rng: random.Random, leaves: int = 4) -> ast.UnaryTest:
    """A cell test of every kind, over CELL_SCALARS and constant operands
    that may raise; `leaves` bounds its size, and at 1 it is no negation or
    disjunction."""
    kind = rng.randrange(6 if leaves > 1 else 4)
    if kind == 0:
        return ast.Dash()
    if kind == 1:
        return ast.EqualsConst(rng.choice(CELL_SCALARS))
    if kind == 2:
        return ast.Comparison(rng.choice(("<", "<=", ">", ">=")),
                              random_constant(rng, rng.randint(1, 4)))
    if kind == 3:
        return ast.RangeTest(FeelRange(rng.choice(CELL_NUMBERS + ("b",)),
                                       rng.choice(CELL_NUMBERS + ("y",)),
                                       rng.random() < 0.5, rng.random() < 0.5))
    if kind == 4:
        return ast.Negation(random_unary_test(rng, leaves - 1))
    return ast.Disjunction(tuple(random_unary_test(rng, leaves // 2)
                                 for _ in range(rng.randint(1, 3))))


def random_cell(rng: random.Random) -> ast.UnaryTest:
    """Mostly a dash or a test over the integers of `small`, so that rules
    match; else `random_unary_test`."""
    kind, n = rng.randrange(7), rng.randint(0, 3)
    if kind < 2:
        return ast.Dash()
    if kind < 4:
        return ast.EqualsConst(n)
    if kind == 4:
        return ast.Comparison(rng.choice(("<", "<=", ">", ">=")), ast.Lit(n))
    if kind == 5:
        return ast.RangeTest(FeelRange(n, n + rng.randint(0, 3)))
    return random_unary_test(rng)


def _seeded(build):
    """A strategy of `build(rng)` for one drawn seed: one draw per value."""
    return st.integers(0, 2**32 - 1).map(lambda seed: build(random.Random(seed)))


unary_tests = _seeded(random_unary_test)

cells = _seeded(random_cell)
small = st.integers(0, 3)  # arguments over the integers of `random_cell`
output_entries = st.one_of(st.builds(ast.Lit, small), st.builds(ast.Lit, scalars),
                           constant_expressions,
                           st.builds(ast.ListLit, st.lists(st.builds(ast.Lit, scalars),
                                                           max_size=2).map(tuple)),
                           st.just(ast.BinOp("/", ast.Lit(1), ast.Lit(0))))


@st.composite
def tables(draw):
    n_inputs = draw(st.integers(1, 3))
    outputs = tuple(draw(st.lists(st.sampled_from(["o1", "o2", "o3"]), min_size=1,
                                  max_size=3)))
    rules = [dmn.Rule(tuple(draw(st.lists(cells, min_size=n_inputs, max_size=n_inputs))),
                      tuple(draw(st.lists(output_entries, min_size=len(outputs),
                                          max_size=len(outputs)))))
             for _ in range(draw(st.integers(0, 4)))]
    if draw(st.booleans()):
        rules.append(dmn.Rule(tuple(ast.Dash() for _ in range(n_inputs)),
                              tuple(draw(st.lists(output_entries, min_size=len(outputs),
                                                  max_size=len(outputs))))))
    return dmn.DecisionTable(id="T", name="T",
                             hit_policy=draw(st.sampled_from(["First", "Unique", "Any"])),
                             inputs=tuple((f"in{j}", ast.Var(f"in{j}"))
                                          for j in range(n_inputs)),
                             outputs=outputs, rules=tuple(rules))
