"""Reference expression and cell parsers for the test suite.

`reference_parse_expr` is the recursive-descent parser with one method per
precedence level that `bproc.feel.parser` had before its operator-table
parser. The current parser must give the same tree for every text, or the
same error message, column and expected set.

`reference_parse_unary_test` is the cell parser `bproc.feel.parser` had
before it read cells with its expression tokenizer: it cuts the cell's
text at top-level commas and at `not(` ... `)` by characters, and parses
each fragment as an expression. The current parser must give the same
tree for every cell this one accepts, and reject every cell it rejects.

It lives apart from `oracles.py` because the benchmark imports that module
in every run.
"""

from __future__ import annotations

import re

from bproc.errors import FeelSyntaxError, SchemaError
from bproc.feel import ast, evaluate, parse_expr
from bproc.feel.parser import MAX_DEPTH
from bproc.feel.values import FeelRange, Temporal

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<op>\*\*|<=|>=|!=|\.\.|[-+*/<>=(),\[\]{}:.])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"and", "or", "not", "in", "true", "false", "null", "instance", "of"}
_COMPARE_OPS = {"<", "<=", ">", ">=", "=", "!="}
_TYPE_NAMES = {"string", "number", "boolean"}


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind, text, column):
        self.kind = kind
        self.text = text
        self.column = column

    def __repr__(self):
        return f"{self.kind}:{self.text!r}@{self.column}"


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise FeelSyntaxError(f"unexpected character {text[pos]!r}", pos + 1)
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        value = m.group()
        if kind == "ident" and value in _KEYWORDS:
            kind = "kw"
        tokens.append(_Token(kind, value, m.start() + 1))
    tokens.append(_Token("eof", "", len(text) + 1))
    return tokens


def _unescape(raw: str) -> str:
    body = raw[1:-1]
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


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.i + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise FeelSyntaxError(f"expected {text!r}, found {tok.text or 'end of input'!r}",
                                  tok.column, {text})
        return self.advance()

    # --- precedence ladder ---

    def parse(self) -> ast.FeelExpr:
        expr = self.or_expr()
        tok = self.peek()
        if tok.kind != "eof":
            raise FeelSyntaxError(f"unexpected trailing input {tok.text!r}", tok.column,
                                  {"end of input"})
        return expr

    def or_expr(self):
        left = self.and_expr()
        while self.peek().text == "or" and self.peek().kind == "kw":
            self.advance()
            left = ast.BinOp("or", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.peek().text == "and" and self.peek().kind == "kw":
            self.advance()
            left = ast.BinOp("and", left, self.not_expr())
        return left

    def not_expr(self):
        if self.peek().kind == "kw" and self.peek().text == "not":
            self.advance()
            return ast.Not(self.not_expr())
        return self.comparison()

    def comparison(self):
        left = self.additive()
        tok = self.peek()
        if tok.kind == "op" and tok.text in _COMPARE_OPS:
            self.advance()
            return ast.BinOp(tok.text, left, self.additive())
        if tok.kind == "kw" and tok.text == "in":
            self.advance()
            return ast.InTest(left, self.additive())
        if tok.kind == "kw" and tok.text == "instance":
            self.advance()
            nxt = self.peek()
            if not (nxt.kind == "kw" and nxt.text == "of"):
                raise FeelSyntaxError("expected 'of' after 'instance'", nxt.column, {"of"})
            self.advance()
            name_tok = self.advance()
            if name_tok.text not in _TYPE_NAMES:
                raise FeelSyntaxError(
                    f"unknown type name {name_tok.text!r}", name_tok.column, _TYPE_NAMES)
            return ast.InstanceOf(left, name_tok.text)
        return left

    def additive(self):
        left = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.advance().text
            left = ast.BinOp(op, left, self.multiplicative())
        return left

    def multiplicative(self):
        left = self.power()
        while self.peek().kind == "op" and self.peek().text in ("*", "/"):
            op = self.advance().text
            left = ast.BinOp(op, left, self.power())
        return left

    def power(self):
        left = self.unary()
        if self.peek().text == "**":
            self.advance()
            return ast.BinOp("**", left, self.power())
        return left

    def unary(self):
        if self.peek().text == "-" and self.peek().kind == "op":
            self.advance()
            return ast.Neg(self.unary())
        return self.postfix()

    def postfix(self):
        expr = self.primary()
        while True:
            tok = self.peek()
            if tok.text == "[":
                self.advance()
                selector = self.or_expr()
                self.expect("]")
                if "item" in ast.free_variables(selector):
                    expr = ast.Filter(expr, selector)
                else:
                    expr = ast.Index(expr, selector)
            elif tok.text == "." and tok.kind == "op":
                self.advance()
                key = self.advance()
                if key.kind != "ident":
                    raise FeelSyntaxError("expected a name after '.'", key.column, {"name"})
                expr = ast.Path(expr, key.text)
            else:
                return expr

    def primary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            is_decimal = "." in tok.text or "e" in tok.text or "E" in tok.text
            return ast.Lit(float(tok.text) if is_decimal else int(tok.text))
        if tok.kind == "string":
            self.advance()
            return ast.Lit(_unescape(tok.text))
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return ast.Lit(tok.text == "true")
        if tok.kind == "kw" and tok.text == "null":
            self.advance()
            return ast.Lit(None)
        if tok.kind == "ident":
            return self.name_or_call()
        if tok.text == "(":
            return self.paren_or_range()
        if tok.text == "[":
            return self.list_or_range()
        if tok.text == "{":
            return self.context()
        raise FeelSyntaxError(
            f"expected an expression, found {tok.text or 'end of input'!r}", tok.column,
            {"number", "string", "name", "(", "[", "{", "true", "false", "null"})

    def name_or_call(self):
        tok = self.advance()
        name = tok.text
        # two-word builtin
        if name == "overlaps" and self.peek().kind == "ident" and self.peek().text == "before":
            self.advance()
            name = "overlaps before"
        if self.peek().text == "(":
            self.advance()
            if name in ("date", "time"):
                arg = self.advance()
                if arg.kind != "string":
                    raise FeelSyntaxError(f"{name}(...) takes a quoted literal", arg.column,
                                          {"string"})
                self.expect(")")
                try:
                    return ast.Lit(Temporal.from_text(name, _unescape(arg.text)))
                except ValueError as exc:
                    raise FeelSyntaxError(f"bad {name} literal: {exc}", arg.column) from exc
            args = []
            if self.peek().text != ")":
                args.append(self.or_expr())
                while self.peek().text == ",":
                    self.advance()
                    args.append(self.or_expr())
            self.expect(")")
            return ast.Call(name, tuple(args))
        return ast.Var(name)

    def paren_or_range(self):
        self.expect("(")
        first = self.or_expr()
        if self.peek().text == "..":
            return self.finish_range(first, lo_incl=False)
        self.expect(")")
        return first

    def list_or_range(self):
        self.expect("[")
        if self.peek().text == "]":
            self.advance()
            return ast.ListLit(())
        first = self.or_expr()
        if self.peek().text == "..":
            return self.finish_range(first, lo_incl=True)
        items = [first]
        while self.peek().text == ",":
            self.advance()
            items.append(self.or_expr())
        self.expect("]")
        return ast.ListLit(tuple(items))

    def finish_range(self, lo, lo_incl: bool):
        self.expect("..")
        hi = self.or_expr()
        closer = self.advance()
        if closer.text == "]":
            return ast.RangeLit(lo, hi, lo_incl, True)
        if closer.text == ")":
            return ast.RangeLit(lo, hi, lo_incl, False)
        raise FeelSyntaxError(f"expected ']' or ')' to close a range, found {closer.text!r}",
                              closer.column, {"]", ")"})

    def context(self):
        self.expect("{")
        entries = []
        if self.peek().text != "}":
            while True:
                key = self.advance()
                if key.kind not in ("ident", "string", "kw"):
                    raise FeelSyntaxError("expected a context key", key.column, {"name"})
                key_text = _unescape(key.text) if key.kind == "string" else key.text
                self.expect(":")
                entries.append((key_text, self.or_expr()))
                if self.peek().text != ",":
                    break
                self.advance()
        self.expect("}")
        return ast.ContextLit(tuple(entries))


def reference_parse_expr(text: str) -> ast.FeelExpr:
    """Parse source text into its unique AST.

    Raises FeelSyntaxError, with a 1-based column and the expected-token set,
    for any text outside the subset (including empty input).
    """
    if not text or not text.strip():
        raise FeelSyntaxError("empty expression", 1, {"expression"})
    return _Parser(text).parse()


def reference_parse_unary_test(text: str) -> ast.UnaryTest:
    """Parse an input-entry cell: dash, constant, comparison, range, not(...),
    or a comma-separated disjunction of those.

    Raises FeelSyntaxError, with the 1-based column of the cell, where
    `not(...)` wrappers nest more than MAX_DEPTH deep.
    """
    return _unary_test(text, 1, 0)


def _unary_test(text: str, column: int, nots: int) -> ast.UnaryTest:
    """The tests of `text`, which starts at `column` of its cell inside
    `nots` not(...) wrappers."""
    stripped = text.strip()
    if stripped in ("", "-"):
        return ast.Dash()
    column += len(text) - len(text.lstrip())  # where `stripped` starts
    parts = _split_top_level_commas(stripped)
    if len(parts) > 1:
        tests = []
        for part in parts:
            tests.append(_unary_test(part, column, nots))
            column += len(part) + 1
        return ast.Disjunction(tuple(tests))
    if stripped.startswith("not(") and stripped.endswith(")"):
        if nots == MAX_DEPTH:
            raise FeelSyntaxError(f"expression nests deeper than {MAX_DEPTH} levels", column)
        return ast.Negation(_unary_test(stripped[4:-1], column + 4, nots + 1))
    return _single_test(stripped)


def _single_test(text: str) -> ast.UnaryTest:
    def constant(expr):
        names = ast.free_variables(expr)  # read or not: `false and y` reads no `y`
        if names:
            raise SchemaError(f"cell {text!r} is not a constant: "
                              f"variable {min(names)!r} is not bound")
        return evaluate(expr, {})

    for op in ("<=", ">=", "<", ">"):
        if text.startswith(op):
            operand = parse_expr(text[len(op):])
            constant(operand)  # cells must be variable-free
            return ast.Comparison(op, operand)
    value = constant(parse_expr(text))
    if isinstance(value, FeelRange):
        return ast.RangeTest(value)
    if isinstance(value, (list, dict)):
        raise SchemaError(f"cell {text!r} must be a scalar constant or a range")
    return ast.EqualsConst(value)


def _split_top_level_commas(text: str) -> list[str]:
    parts = []
    depth = 0
    in_string = False
    start = 0
    i = 0
    while i < len(text):
        c = text[i]
        if in_string:
            if c == "\\":
                i += 1
            elif c == '"':
                in_string = False
        elif c == '"':
            in_string = True
        elif c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
        i += 1
    parts.append(text[start:])
    return parts
