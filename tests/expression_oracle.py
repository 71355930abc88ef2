"""The hand-written expression parser, as a reference.

``parse_expression`` here is the tokenizer and recursive-descent parser
that ``taucalc.expressions`` had before it read expressions with Python's
own parser.  Tests check that both accept the same strings and give the
same values bit for bit.  The grammar:

Expressions are built from numeric literals, the variable ``x``, the
binary operators + - * / ^ (the unicode forms − × ÷ are accepted too),
unary minus, parentheses, the functions ``exp`` and ``ln``, and the
named constants ``pi`` and ``e``.  ``parse_expression`` compiles the
source to a vectorized callable; all failures raise ConfigError.
"""

from __future__ import annotations

import re
from typing import Callable

import numpy as np

from taucalc.errors import ConfigError

_TOKEN = re.compile(r"""
    \s*(?:
        (?P<number>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()−×÷])
    )""", re.VERBOSE)

_OP_CANON = {"−": "-", "×": "*", "÷": "/"}
_CONSTANTS = {"pi": np.pi, "e": np.e}
_FUNCTIONS = {"exp": np.exp, "ln": np.log}


def _tokenize(src: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip() == "":
                break
            raise ConfigError(
                f"unexpected character {src[pos:].strip()[0]!r} in "
                f"expression {src!r}")
        pos = m.end()
        if m.group("number") is not None:
            tokens.append(("number", m.group("number")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name")))
        else:
            op = m.group("op")
            tokens.append(("op", _OP_CANON.get(op, op)))
    return tokens


class _Parser:
    """Recursive descent over the token list; builds a nested-closure AST."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ConfigError(f"unexpected end of expression {self.src!r}")
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.take()
        if tok != ("op", op):
            raise ConfigError(
                f"expected {op!r} in expression {self.src!r}, got {tok[1]!r}")

    def parse(self) -> Callable:
        fn = self.expr()
        if self.peek() is not None:
            raise ConfigError(
                f"trailing input {self.peek()[1]!r} in expression {self.src!r}")
        return fn

    def expr(self) -> Callable:
        left = self.term()
        while self.peek() in (("op", "+"), ("op", "-")):
            op = self.take()[1]
            right = self.term()
            left = ((lambda a, b: lambda x: a(x) + b(x)) if op == "+"
                    else (lambda a, b: lambda x: a(x) - b(x)))(left, right)
        return left

    def term(self) -> Callable:
        left = self.unary()
        while self.peek() in (("op", "*"), ("op", "/")):
            op = self.take()[1]
            right = self.unary()
            left = ((lambda a, b: lambda x: a(x) * b(x)) if op == "*"
                    else (lambda a, b: lambda x: a(x) / b(x)))(left, right)
        return left

    def unary(self) -> Callable:
        if self.peek() == ("op", "-"):
            self.take()
            inner = self.unary()
            return lambda x, f=inner: -f(x)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            exponent = self.unary()  # right-associative
            return lambda x, b=base, e=exponent: b(x) ** e(x)
        return base

    def atom(self) -> Callable:
        kind, text = self.take()
        if kind == "number":
            value = float(text)
            return lambda x, v=value: np.full_like(
                np.asarray(x, dtype=float), v) if np.ndim(x) else v
        if kind == "name":
            if text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return lambda x, f=_FUNCTIONS[text], a=arg: f(a(x))
            if text in _CONSTANTS:
                value = _CONSTANTS[text]
                return lambda x, v=value: np.full_like(
                    np.asarray(x, dtype=float), v) if np.ndim(x) else v
            if text == "x":
                return lambda x: np.asarray(x, dtype=float) if np.ndim(x) else x
            raise ConfigError(
                f"unknown name {text!r} in expression {self.src!r}")
        if (kind, text) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ConfigError(
            f"unexpected token {text!r} in expression {self.src!r}")


def parse_expression(src: str) -> Callable:
    """Compile an expression string to a callable of x (scalar or array)."""
    if not isinstance(src, str):
        raise ConfigError(f"expected an expression string, got {src!r}")
    return _Parser(src).parse()


__all__ = ["parse_expression"]
