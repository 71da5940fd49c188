"""Lexer, parser, evaluator, type inference and rendering for the
expression subset used in gateway conditions, script tasks, decision-table
cells and message parts."""

from . import ast
from .evaluator import compile_expr, compile_unary, constant, evaluate, match_unary
from .parser import parse_expr, parse_unary_test
from .render import render, render_unary_test
from .types import StaticType, infer_types, synthesize, type_of_constant
from .values import UNDEFINED, FeelRange, Temporal, equals, render_value

__all__ = [
    "ast",
    "parse_expr",
    "parse_unary_test",
    "evaluate",
    "match_unary",
    "compile_expr",
    "compile_unary",
    "constant",
    "render",
    "render_unary_test",
    "render_value",
    "infer_types",
    "synthesize",
    "type_of_constant",
    "StaticType",
    "UNDEFINED",
    "FeelRange",
    "Temporal",
    "equals",
]
