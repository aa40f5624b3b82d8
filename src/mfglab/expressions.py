"""Tiny arithmetic grammar for coefficient fields in config files.

Grammar: identifiers ``x`` (alias of ``x1``), ``x1``, ``x2``, ``t``;
operators ``+ - * / ^`` (with ``^`` binding tightest, right associative);
functions ``sin``, ``cos``, ``exp``; numeric literals.  Expressions compile
to vectorized callables over coordinate arrays, which keeps config files
self-contained and language neutral.

Python's own parser reads an expression once ``^`` is spelled ``**``; the
tree it returns is then held to a whitelist of nodes, so anything outside
the grammar (attributes, subscripts, other calls, other literals) is
refused before it can run.  Every power is evaluated with ``np.power`` and
every literal as a float.
"""

from __future__ import annotations

import ast
import re
from typing import Callable

import numpy as np

__all__ = ["ExpressionError", "compile_spacetime", "compile_spatial"]

_ALPHABET = re.compile(r"[\w\s.+\-*/^()]*", re.ASCII)
_NUMBER = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_FUNCS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARS = {"x": "x1", "x1": "x1", "x2": "x2", "t": "t"}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
# names the compiled code can see: no builtins, only the grammar's functions
_GLOBALS = {"__builtins__": {}, "power": np.power, **_FUNCS}


class ExpressionError(ValueError):
    pass


class _PowerCalls(ast.NodeTransformer):
    """``a ** b`` becomes ``power(a, b)``, so that every power is NumPy's:
    Python's float power returns complex numbers or raises on overflow, and
    NumPy's ``**`` takes shortcuts for some scalar exponents."""

    def visit_BinOp(self, node: ast.BinOp) -> ast.expr:
        self.generic_visit(node)
        if not isinstance(node.op, ast.Pow):
            return node
        call = ast.Call(ast.Name("power", ast.Load()), [node.left, node.right], [])
        return ast.copy_location(call, node)


def _allowed(node: ast.AST, text: str) -> bool:
    if isinstance(node, ast.BinOp):
        return isinstance(node.op, _BINOPS)
    if isinstance(node, ast.UnaryOp):
        return isinstance(node.op, (ast.UAdd, ast.USub))
    if isinstance(node, ast.Call):
        return (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                and len(node.args) == 1 and not node.keywords)
    if isinstance(node, ast.Constant):
        return bool(_NUMBER.fullmatch(text[node.col_offset:node.end_col_offset]))
    return isinstance(node, (ast.operator, ast.unaryop, ast.expr_context))


def _compile(src: str, dim: int):
    """Code object of ``src`` and the set of coordinates it reads; ``x2``
    is refused on a 1D grid."""
    if not _ALPHABET.fullmatch(src):
        raise ExpressionError(
            f"{src!r} has a character outside letters, digits, _ . + - * / ^ ( )")
    if "**" in src:
        raise ExpressionError(f"{src!r}: write powers with ^, not **")
    # one line of ASCII: the nodes' byte offsets index it directly
    text = " ".join(src.split()).replace("^", "**")
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ExpressionError(f"cannot parse {src!r}: {exc.msg}") from None
    called = set()
    used = set()
    for node in ast.walk(tree.body):  # breadth first: a call before its name
        if isinstance(node, ast.Name):
            if id(node) in called:
                continue
            if node.id not in _VARS:
                raise ExpressionError(
                    f"unknown identifier {node.id!r} "
                    "(allowed: x, x1, x2, t, sin, cos, exp)")
            used.add(_VARS[node.id])
        elif not _allowed(node, text):
            raise ExpressionError(f"{text[node.col_offset:node.end_col_offset]!r} "
                                  f"is outside the grammar in {src!r}")
        elif isinstance(node, ast.Call):
            called.add(id(node.func))
        elif isinstance(node, ast.Constant):
            node.value = float(text[node.col_offset:node.end_col_offset])
    if dim == 1 and "x2" in used:
        raise ExpressionError(f"{src!r} uses x2 on a 1D grid")
    lowered = ast.fix_missing_locations(_PowerCalls().visit(tree))
    return compile(lowered, "<expression>", "eval"), used


def compile_spacetime(src: str, dim: int) -> Callable[..., np.ndarray]:
    """Compile to f(x1, [x2,] t) over coordinate arrays."""
    code, _ = _compile(str(src), dim)

    def fn(*coords):
        env = {"x": coords[0], "x1": coords[0], "t": coords[-1]}
        if dim == 2:
            env["x2"] = coords[1]
        return np.asarray(eval(code, _GLOBALS, env), dtype=float)

    return fn


def compile_spatial(src: str, dim: int) -> Callable[..., np.ndarray]:
    """Compile to f(x1, [x2]); rejects expressions mentioning t."""
    code, used = _compile(str(src), dim)
    if "t" in used:
        raise ExpressionError(f"{src!r} must be spatial (no t)")

    def fn(*coords):
        env = {"x": coords[0], "x1": coords[0]}
        if dim == 2:
            env["x2"] = coords[1]
        return np.asarray(eval(code, _GLOBALS, env), dtype=float)

    return fn
