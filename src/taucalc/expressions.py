"""A tiny deterministic arithmetic grammar for configuration files.

Expressions are built from numeric literals (ASCII decimal numbers,
leading zeros allowed), the variable ``x``, the binary operators
+ - * / ^ (the unicode forms − × ÷ are accepted too), unary minus,
parentheses, the functions ``exp`` and ``ln``, and the named constants
``pi`` and ``e``: a subset of Python's expressions once ``^`` reads as
``**``.  ``parse_expression`` reads the source with Python's parser,
checks the tree against the grammar and compiles it to a vectorized
callable; all failures raise ConfigError.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from typing import Callable

import numpy as np

from .errors import ConfigError

_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?")
# the characters of the grammar, once whitespace is folded to one space
_CHARACTERS = re.compile(r"[0-9A-Za-z_.+\-*/^() ]*")
# the zeros that open an integer part: Python's parser refuses 007
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")
_OP_CANON = str.maketrans({"−": "-", "×": "*", "÷": "/"})
_CONSTANTS = {"pi": np.pi, "e": np.e}
_FUNCTIONS = {"exp": np.exp, "ln": np.log}
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv,
           ast.Pow: operator.pow}


def _constant(value: float) -> Callable:
    return lambda x: np.full_like(
        np.asarray(x, dtype=float), value) if np.ndim(x) else value


def _quote(value) -> str:
    """``repr(value)`` for a message, cut to 60 characters and its length
    when it is longer."""
    text = repr(value)
    return text if len(text) <= 60 else f"{text[:60]}... ({len(text)} chars)"


def _compile(node: ast.AST, text: str) -> Callable:
    """The callable of ``node``, a node of the parsed ``text``; any node
    outside the grammar raises ConfigError."""
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        a, b = _compile(node.left, text), _compile(node.right, text)
        return lambda x, op=_BINARY[type(node.op)]: op(a(x), b(x))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _compile(node.operand, text)
        return lambda x: -inner(x)
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _constant(_CONSTANTS[node.id])
    if isinstance(node, ast.Name) and node.id == "x":
        return lambda x: np.asarray(x, dtype=float) if np.ndim(x) else x
    segment = text[node.col_offset:node.end_col_offset]
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(segment):
        return _constant(float(segment))
    # the name of a call must not be in parentheses: (exp)(x) is refused
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and node.func.col_offset == node.col_offset
            and len(node.args) == 1 and not node.keywords):
        f, arg = _FUNCTIONS[node.func.id], _compile(node.args[0], text)
        return lambda x: f(arg(x))
    raise ConfigError(f"{_quote(segment)} is outside the grammar")


def parse_expression(src: str) -> Callable:
    """Compile an expression string to a callable of x (scalar or array)."""
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string, got {_quote(src)}")
    text = " ".join(src.translate(_OP_CANON).split())
    if not _CHARACTERS.fullmatch(text) or "**" in text:
        raise ConfigError(f"expression {_quote(src)} is outside the grammar")
    text = _LEADING_ZEROS.sub("", text.replace("^", "**"))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a SyntaxWarning is a refusal
            fn = _compile(ast.parse(text, mode="eval").body, text)
    except (SyntaxError, RecursionError, MemoryError, ConfigError) as exc:
        raise ConfigError(
            f"cannot read expression {_quote(src)}: {exc}") from None

    def evaluate(x):
        try:
            return fn(x)
        except RecursionError:
            raise ConfigError(
                f"expression {_quote(src)} nests too deeply") from None
    return evaluate


__all__ = ["parse_expression"]
