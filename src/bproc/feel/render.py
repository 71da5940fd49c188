"""Source rendering of ASTs and cell tests.

render() emits text that parse_expr() maps back to a structurally equal
tree; nested operators are parenthesized except for a few unambiguous
atoms (literals, names, negated number literals, calls, postfix chains).
Each pair of parentheses is a level of the parser's depth limit, so the
text of a tree near that limit can nest past it.
"""

from __future__ import annotations

from . import ast
from .values import render_key, render_value


def render(expr: ast.FeelExpr) -> str:
    if isinstance(expr, ast.Lit):
        return render_value(expr.value)
    if isinstance(expr, ast.Var):
        return expr.name
    if isinstance(expr, ast.Neg):
        return "-" + _operand(expr.operand)
    if isinstance(expr, ast.Not):
        return "not " + _operand(expr.operand)
    if isinstance(expr, ast.BinOp):
        return f"{_operand(expr.left)} {expr.op} {_operand(expr.right)}"
    if isinstance(expr, ast.Call):
        return f"{expr.name}({', '.join(render(a) for a in expr.args)})"
    if isinstance(expr, ast.ListLit):
        return "[" + ", ".join(render(i) for i in expr.items) + "]"
    if isinstance(expr, ast.Index):
        return f"{_postfix_base(expr.seq)}[{render(expr.index)}]"
    if isinstance(expr, ast.Filter):
        return f"{_postfix_base(expr.seq)}[{render(expr.predicate)}]"
    if isinstance(expr, ast.ContextLit):
        return "{" + ", ".join(f"{render_key(k)}: {render(v)}" for k, v in expr.entries) + "}"
    if isinstance(expr, ast.Path):
        return f"{_postfix_base(expr.base)}.{expr.key}"
    if isinstance(expr, ast.RangeLit):
        lo_b = "[" if expr.lo_incl else "("
        hi_b = "]" if expr.hi_incl else ")"
        return f"{lo_b}{render(expr.lo)}..{render(expr.hi)}{hi_b}"
    if isinstance(expr, ast.InTest):
        return f"{_operand(expr.item)} in {_operand(expr.container)}"
    if isinstance(expr, ast.InstanceOf):
        return f"{_operand(expr.operand)} instance of {expr.type_name}"
    raise TypeError(f"cannot render {type(expr).__name__}")


def _operand(expr: ast.FeelExpr) -> str:
    if _is_atom(expr):
        return render(expr)
    return "(" + render(expr) + ")"


def _postfix_base(expr: ast.FeelExpr) -> str:
    # postfix selectors bind tighter than unary minus, so a negated literal
    # base still needs parentheses
    if _is_atom(expr) and not isinstance(expr, ast.Neg):
        return render(expr)
    return "(" + render(expr) + ")"


def _is_atom(expr: ast.FeelExpr) -> bool:
    if isinstance(expr, (ast.Lit, ast.Var, ast.Call, ast.ListLit, ast.ContextLit,
                         ast.RangeLit)):
        return True
    if isinstance(expr, ast.Neg) and isinstance(expr.operand, ast.Lit):
        return True
    if isinstance(expr, (ast.Index, ast.Filter, ast.Path)):
        return True
    return False


def render_unary_test(test: ast.UnaryTest) -> str:
    if isinstance(test, ast.Dash):
        return "-"
    if isinstance(test, ast.EqualsConst):
        return render_value(test.value)
    if isinstance(test, ast.Comparison):
        return f"{test.op} {render(test.operand)}"
    if isinstance(test, ast.RangeTest):
        return render_value(test.range)
    if isinstance(test, ast.Negation):
        return f"not({render_unary_test(test.inner)})"
    if isinstance(test, ast.Disjunction):
        return ", ".join(render_unary_test(t) for t in test.alternatives)
    raise TypeError(f"cannot render {type(test).__name__}")
