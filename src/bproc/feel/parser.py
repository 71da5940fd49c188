# Parser for the expression subset: precedence climbing over one operator
# table (Pratt, "Top Down Operator Precedence", POPL 1973).
# Binding levels, loosest to tightest:
#   1 or          2 and          3 not (prefix)
#   4 comparison: < <= > >= = != | `in` | `instance of` (they do not chain)
#   5 + -         6 * /          7 ** (right associative)
#   8 unary minus (prefix)       then an operand and its selectors [index] [filter] .path
# Range literals accept mixed brackets on either end: [a..b], (a..b], [a..b), (a..b).
# A bracket selector that mentions `item` is a filter, otherwise an index.
#
# An expression nests at most MAX_DEPTH levels: a literal or a name is one
# level, and each operator, selector, call, list, range, context and pair of
# parentheses adds one over its deepest operand. The parser tracks the
# depth of each subtree as it builds it (and the nesting still open on the
# way down), so every walk over a parsed tree stays within a fixed
# recursion depth.
# A decision-table cell is read from the same tokens (`unary_tests`), so its
# error columns count from the cell's first character.

from __future__ import annotations

import re

from ..errors import FeelSyntaxError, SchemaError
from . import ast
from .evaluator import constant
from .values import FeelRange, Temporal

MAX_DEPTH = 100

# One match per token: the leading whitespace, then exactly one of the token
# groups. Keywords are whole words, so `andx` stays a name.
_TOKEN_RE = re.compile(
    r"""
    (\s*)(?:
      ((?:\d+\.\d+|\d+)(?:[eE][-+]?\d+)?)
    | ("(?:[^"\\]|\\.)*")
    | (\*\*|<=|>=|!=|\.\.|[-+*/<>=(),\[\]{}:.])
    | ((?:and|or|not|in|true|false|null|instance|of)(?![A-Za-z0-9_]))
    | ([A-Za-z_][A-Za-z0-9_]*)
    | (.)
    )
    """,
    re.VERBOSE,
)

_TYPE_NAMES = {"string", "number", "boolean"}
#: decimal digits past which Python refuses to convert a string to an int
MAX_INT_DIGITS = 4300

_NOT, _COMPARE, _POWER, _NEG = 3, 4, 7, 8
#: infix token -> (its binding level, the level its right operand is parsed at;
#: `instance` takes `of` and a type name instead). A token's text alone tells
#: its kind here: keywords are never names, and string and number tokens keep
#: their quotes and digits.
_INFIX = {
    "or": (1, 2), "and": (2, _NOT),
    "<": (_COMPARE, 5), "<=": (_COMPARE, 5), ">": (_COMPARE, 5), ">=": (_COMPARE, 5),
    "=": (_COMPARE, 5), "!=": (_COMPARE, 5), "in": (_COMPARE, 5), "instance": (_COMPARE, None),
    "+": (5, 6), "-": (5, 6), "*": (6, _POWER), "/": (6, _POWER),
    "**": (_POWER, _POWER),
}
#: tokens after a name or a number that make it more than a plain operand: a
#: call (after a name) or a selector
_AFTER_NAME = frozenset(("(", "[", "."))
_EXPRESSION_START = frozenset({"number", "string", "name", "(", "[", "{", "true", "false",
                               "null"})
#: the token texts that end a cell test: `,`, the `)` of a not(...) group, end of input
_TEST_END = frozenset((",", ")", ""))


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, 1-based column) per token, then an end-of-input token.
    The regular expression splits the whole text in one call; columns are
    counted from the lengths of the pieces. Trailing whitespace is cut
    first, so no match is tried on it."""
    tokens = []
    append = tokens.append
    column = 1
    for space, number, string, op, keyword, name, bad in _TOKEN_RE.findall(text.rstrip()):
        column += len(space)
        if op:
            append(("op", op, column))
            column += len(op)
        elif name:
            append(("ident", name, column))
            column += len(name)
        elif number:
            append(("number", number, column))
            column += len(number)
        elif keyword:
            append(("kw", keyword, column))
            column += len(keyword)
        elif string:
            append(("string", string, column))
            column += len(string)
        else:
            raise FeelSyntaxError(f"unexpected character {bad!r}", column)
    append(("eof", "", len(text) + 1))
    return tokens


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    if "\\" not in body:
        return body
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            out.append({"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}.get(nxt, nxt))
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _number(text: str, column: int):
    """The value of a number token."""
    if "." in text or "e" in text or "E" in text:
        return float(text)
    if len(text) > MAX_INT_DIGITS:
        raise FeelSyntaxError(f"integer literal longer than {MAX_INT_DIGITS} digits", column)
    return int(text)


def _too_deep(column: int):
    return FeelSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", column)


class _Parser:
    """Each parse method takes `depth`, the number of levels already open
    around the text it parses, and returns (tree, the tree's own depth)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        _, found, column = self.tokens[self.i]
        if found != text:
            raise FeelSyntaxError(f"expected {text!r}, found {found or 'end of input'!r}",
                                  column, {text})
        self.i += 1

    def expression(self, level: int, depth: int):
        """The longest expression at `level` or tighter from here: a prefix
        operator or an operand, then every infix operator that binds at
        `level` or tighter."""
        tokens = self.tokens
        kind, text, column = tokens[self.i]
        if depth >= MAX_DEPTH:
            raise _too_deep(column)
        if kind == "ident" and tokens[self.i + 1][1] not in _AFTER_NAME and text != "overlaps":
            self.i += 1  # a plain name, the commonest operand
            left, height, cap = ast.Var(text), 1, _POWER
        elif kind == "number" and tokens[self.i + 1][1] not in _AFTER_NAME:
            self.i += 1  # a plain number, the next commonest
            left, height, cap = ast.Lit(_number(text, column)), 1, _POWER
        elif text == "not" and kind == "kw" and level <= _NOT:
            self.i += 1
            operand, height = self.expression(_NOT, depth + 1)
            left, height, cap = ast.Not(operand), height + 1, _NOT - 1
        elif text == "-" and kind == "op":
            self.i += 1
            operand, height = self.expression(_NEG, depth + 1)
            left, height, cap = ast.Neg(operand), height + 1, _NEG - 1
        else:
            left, height = self.operand(depth)
            cap = _POWER
        # `cap` is the tightest operator that may follow: one the operand just
        # parsed could not take in was refused, and comparisons do not chain
        while True:
            if depth + height > MAX_DEPTH:
                raise _too_deep(column)
            _, text, column = tokens[self.i]
            binding = _INFIX.get(text)
            if binding is None or not level <= binding[0] <= cap:
                return left, height
            self.i += 1
            if text == "instance":
                left = ast.InstanceOf(left, self.type_name())
                height += 1
            else:
                right, right_height = self.expression(binding[1], depth + 1)
                left = ast.InTest(left, right) if text == "in" else ast.BinOp(text, left, right)
                height = max(height, right_height) + 1
            cap = _COMPARE - 1 if binding[0] == _COMPARE else binding[0]

    def type_name(self) -> str:
        kind, text, column = self.tokens[self.i]
        if not (kind == "kw" and text == "of"):
            raise FeelSyntaxError("expected 'of' after 'instance'", column, {"of"})
        self.i += 1
        _, name, column = self.advance()
        if name not in _TYPE_NAMES:
            raise FeelSyntaxError(f"unknown type name {name!r}", column, _TYPE_NAMES)
        return name

    def operand(self, depth: int):
        """A primary expression and the selectors that follow it."""
        tokens = self.tokens
        kind, text, column = tokens[self.i]
        if kind == "number":
            self.i += 1
            expr, height = ast.Lit(_number(text, column)), 1
        elif kind == "string":
            self.i += 1
            expr, height = ast.Lit(_unescape(text)), 1
        elif kind == "ident":
            expr, height = self.name_or_call(depth)
        elif kind == "kw" and text in ("true", "false", "null"):
            self.i += 1
            expr, height = ast.Lit(None if text == "null" else text == "true"), 1
        elif text == "(":
            expr, height = self.paren_or_range(depth)
        elif text == "[":
            expr, height = self.list_or_range(depth)
        elif text == "{":
            expr, height = self.context(depth)
        else:
            raise FeelSyntaxError(
                f"expected an expression, found {text or 'end of input'!r}", column,
                _EXPRESSION_START)
        while True:
            kind, text, column = tokens[self.i]
            if text == "[":
                self.i += 1
                selector, selector_height = self.expression(1, depth + 1)
                self.expect("]")
                if "item" in ast.free_variables(selector):
                    expr = ast.Filter(expr, selector)
                else:
                    expr = ast.Index(expr, selector)
                height = max(height, selector_height) + 1
            elif text == "." and kind == "op":
                self.i += 1
                key_kind, key, key_column = self.advance()
                if key_kind != "ident":
                    raise FeelSyntaxError("expected a name after '.'", key_column, {"name"})
                expr = ast.Path(expr, key)
                height += 1
            else:
                return expr, height
            if depth + height > MAX_DEPTH:
                raise _too_deep(column)

    def more_items(self, items: list, height: int, closer: str, depth: int):
        """The `, expression` items after `items`, then `closer`; returns
        (every item, the greatest item depth)."""
        while self.tokens[self.i][1] == ",":
            self.i += 1
            item, item_height = self.expression(1, depth + 1)
            items.append(item)
            height = max(height, item_height)
        self.expect(closer)
        return tuple(items), height

    def checked(self, expr, height: int, depth: int, column: int):
        if depth + height > MAX_DEPTH:
            raise _too_deep(column)
        return expr, height

    def name_or_call(self, depth: int):
        _, name, column = self.advance()
        # two-word builtin
        kind, text, _ = self.tokens[self.i]
        if name == "overlaps" and kind == "ident" and text == "before":
            self.i += 1
            name = "overlaps before"
        if self.tokens[self.i][1] != "(":
            return ast.Var(name), 1
        self.i += 1
        if name in ("date", "time"):
            arg_kind, arg, arg_column = self.advance()
            if arg_kind != "string":
                raise FeelSyntaxError(f"{name}(...) takes a quoted literal", arg_column,
                                      {"string"})
            self.expect(")")
            try:
                return ast.Lit(Temporal.from_text(name, _unescape(arg))), 1
            except ValueError as exc:
                raise FeelSyntaxError(f"bad {name} literal: {exc}", arg_column) from exc
        if self.tokens[self.i][1] == ")":
            self.i += 1
            return ast.Call(name, ()), 1
        first, height = self.expression(1, depth + 1)
        args, height = self.more_items([first], height, ")", depth)
        return self.checked(ast.Call(name, args), height + 1, depth, column)

    def paren_or_range(self, depth: int):
        column = self.tokens[self.i][2]
        self.expect("(")
        first, height = self.expression(1, depth + 1)
        if self.tokens[self.i][1] == "..":
            return self.finish_range(first, height, False, depth, column)
        self.expect(")")
        return self.checked(first, height + 1, depth, column)

    def list_or_range(self, depth: int):
        column = self.tokens[self.i][2]
        self.expect("[")
        if self.tokens[self.i][1] == "]":
            self.i += 1
            return ast.ListLit(()), 1
        first, height = self.expression(1, depth + 1)
        if self.tokens[self.i][1] == "..":
            return self.finish_range(first, height, True, depth, column)
        items, height = self.more_items([first], height, "]", depth)
        return self.checked(ast.ListLit(items), height + 1, depth, column)

    def finish_range(self, lo, lo_height: int, lo_incl: bool, depth: int, column: int):
        self.expect("..")
        hi, hi_height = self.expression(1, depth + 1)
        _, closer, closer_column = self.advance()
        if closer == "]":
            hi_incl = True
        elif closer == ")":
            hi_incl = False
        else:
            raise FeelSyntaxError(f"expected ']' or ')' to close a range, found {closer!r}",
                                  closer_column, {"]", ")"})
        return self.checked(ast.RangeLit(lo, hi, lo_incl, hi_incl),
                            max(lo_height, hi_height) + 1, depth, column)

    def context(self, depth: int):
        column = self.tokens[self.i][2]
        self.expect("{")
        entries = []
        height = 0
        if self.tokens[self.i][1] != "}":
            while True:
                key_kind, key, key_column = self.advance()
                if key_kind not in ("ident", "string", "kw"):
                    raise FeelSyntaxError("expected a context key", key_column, {"name"})
                key_text = _unescape(key) if key_kind == "string" else key
                self.expect(":")
                value, value_height = self.expression(1, depth + 1)
                entries.append((key_text, value))
                if value_height > height:
                    height = value_height
                if self.tokens[self.i][1] != ",":
                    break
                self.i += 1
        self.expect("}")
        return self.checked(ast.ContextLit(tuple(entries)), height + 1, depth, column)

    # --- decision-table cells: each expression starts at depth 0, and
    # `nots` counts the not(...) groups open around a test

    def unary_tests(self, nots: int) -> ast.UnaryTest:
        """One test, or a disjunction of the tests joined by `,`."""
        tests = [self.unary_test(nots)]
        while self.tokens[self.i][1] == ",":
            self.i += 1
            tests.append(self.unary_test(nots))
        return tests[0] if len(tests) == 1 else ast.Disjunction(tuple(tests))

    def unary_test(self, nots: int) -> ast.UnaryTest:
        tokens, start = self.tokens, self.i
        _, text, column = tokens[start]
        if text in _TEST_END or text == "-" and tokens[start + 1][1] in _TEST_END:
            self.i += text == "-"
            self.end_of_test(nots)
            return ast.Dash()
        if text == "not" and tokens[start + 1][1:] == ("(", column + 3):
            # a group, unless the test reads as one expression that does
            # not end with `)`
            try:
                self.expression(1, 0)
            except FeelSyntaxError:
                group = True
            else:
                self.end_of_test(nots)
                group = tokens[self.i - 1][1] == ")"
            self.i = start
            if group:
                if nots == MAX_DEPTH:
                    raise _too_deep(column)
                self.i += 2
                inner = self.unary_tests(nots + 1)
                self.expect(")")
                self.end_of_test(nots)
                return ast.Negation(inner)
        op = text if text in ("<", "<=", ">", ">=") else None
        self.i += op is not None
        expr, _ = self.expression(1, 0)
        source = self.text[column - 1:self.end_of_test(nots) - 1].rstrip()
        answer = constant(expr)
        if answer.variable is not None:
            raise SchemaError(f"cell {source!r} is not a constant: "
                              f"variable {answer.variable!r} is not bound")
        if answer.error is not None:
            raise answer.error
        value = answer.value
        if op is not None:
            return ast.Comparison(op, expr)
        if isinstance(value, FeelRange):
            return ast.RangeTest(value)
        if isinstance(value, (list, dict)):
            raise SchemaError(f"cell {source!r} must be a scalar constant or a range")
        return ast.EqualsConst(value)

    def end_of_test(self, nots: int) -> int:
        """The column of the token after a test, which must end it (checked
        before an operand of the test is evaluated)."""
        _, follows, column = self.tokens[self.i]
        if follows not in (",", ")" if nots else ""):
            raise FeelSyntaxError(f"unexpected trailing input {follows!r}", column,
                                  {",", ")" if nots else "end of input"})
        return column


def parse_expr(text: str) -> ast.FeelExpr:
    """Parse source text into its unique AST.

    Raises FeelSyntaxError, with a 1-based column and the expected-token set,
    for any text outside the subset (including empty input) and for an
    expression nested deeper than MAX_DEPTH levels.
    """
    if not text or text.isspace():
        raise FeelSyntaxError("empty expression", 1, {"expression"})
    parser = _Parser(text)
    expr, _ = parser.expression(1, 0)
    kind, rest, column = parser.tokens[parser.i]
    if kind != "eof":
        raise FeelSyntaxError(f"unexpected trailing input {rest!r}", column, {"end of input"})
    return expr


def parse_unary_test(text: str) -> ast.UnaryTest:
    """Parse an input-entry cell: one test, or several joined by `,`. A test
    is empty or `-` (a dash), a `not(...)` group of tests, `<`, `<=`, `>` or
    `>=` and an expression, or a constant expression; every operand is
    evaluated once, so it must be variable-free.

    Raises FeelSyntaxError, with a 1-based column counted from the cell's
    first character, for text outside the grammar and where `not(...)`
    groups nest more than MAX_DEPTH deep.
    """
    return _Parser(text).unary_tests(0)
