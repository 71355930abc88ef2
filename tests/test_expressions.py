import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taucalc.errors import ConfigError
from taucalc.expressions import parse_expression

import expression_oracle


@pytest.mark.parametrize("src,x,expected", [
    ("1 + 2*x", 3.0, 7.0),
    ("x^2 - x/4", 2.0, 3.5),
    ("2^3^2", 0.0, 512.0),        # right-associative power
    ("-x^2", 2.0, -4.0),          # unary minus binds looser than ^
    ("2^-1", 0.0, 0.5),
    ("exp(ln(x))", 3.0, 3.0),
    ("ln(e)", 0.0, 1.0),
    ("pi", 0.0, np.pi),
    ("(1 + x) * (1 - x)", 0.5, 0.75),
    ("1e-3 + .5", 0.0, 0.501),
])
def test_values(src, x, expected):
    assert parse_expression(src)(x) == pytest.approx(expected, rel=1e-14)


def test_unicode_operators():
    assert parse_expression("−x × 2 ÷ 4")(6.0) == pytest.approx(-3.0)


def test_vectorized():
    fn = parse_expression("x^2 + 1")
    out = fn(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, [2.0, 5.0, 10.0])


def test_constant_broadcasts():
    fn = parse_expression("3")
    assert np.allclose(fn(np.zeros(4)), 3.0)


@pytest.mark.parametrize("bad", [
    "x +", "foo(x)", "2 **", "(x", "x y", "1..2", "exp x", "", "$",
])
def test_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_expression(bad)


def test_rejects_non_string():
    with pytest.raises(ConfigError):
        parse_expression(3.0)


@given(st.floats(min_value=-100, max_value=100, allow_nan=False),
       st.floats(min_value=0.1, max_value=10))
def test_literal_roundtrip(a, x):
    # a float literal rendered with repr parses back to itself
    assert parse_expression(repr(abs(a)))(x) == abs(a)


@given(st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-5, max_value=5),
       st.floats(min_value=-3, max_value=3))
def test_polynomial_matches_direct(a, b, x):
    src = f"{abs(a)!r} + {abs(b)!r}*x + x^2"
    assert parse_expression(src)(x) == pytest.approx(
        abs(a) + abs(b) * x + x * x, rel=1e-12, abs=1e-12)


# -- against the hand-written parser (tests/expression_oracle.py) ----------

SPACES = st.sampled_from(["", " ", "  ", "\t", "\n", "\u00a0"])
LITERALS = st.one_of(
    st.from_regex(r"[0-9]+(\.[0-9]*)?([eE][+-]?[0-9]+)?"
                  r"|\.[0-9]+([eE][+-]?[0-9]+)?", fullmatch=True),
    st.floats(min_value=0.0, max_value=1e6).map(repr))


def compound(inner):
    return st.one_of(
        st.tuples(inner, SPACES, st.sampled_from("+-*/^−×÷"), SPACES,
                  inner).map("".join),
        inner.map(lambda s: "-" + s),
        st.tuples(SPACES, inner, SPACES).map(lambda t: f"({''.join(t)})"),
        st.tuples(st.sampled_from(["exp", "ln"]), SPACES, inner).map(
            lambda t: f"{t[0]}{t[1]}({t[2]})"))


# strings of the grammar, with whitespace, unicode operators and leading
# zeros; junk over the grammar's characters and a few others; grammar
# strings with one junk character put in; and strings with digits of
# other scripts, which the old \d read as numbers
GRAMMAR = st.recursive(st.one_of(LITERALS, st.sampled_from(["x", "pi", "e"])),
                       compound, max_leaves=10)
JUNK_CHARACTERS = "0123456789.eExplnpi+-*/^−×÷() _#,j\t"
JUNK = st.text(st.sampled_from(JUNK_CHARACTERS), max_size=16)
PLANTED = st.tuples(GRAMMAR, st.integers(0, 40),
                    st.sampled_from(JUNK_CHARACTERS)).map(
    lambda t: t[0][:t[1]] + t[2] + t[0][t[1]:])
OTHER_DIGITS = st.text(st.one_of(st.characters(categories=("Nd",)),
                                 st.sampled_from("x+-*/^(). e")),
                       min_size=1, max_size=8)


def value_bytes(fn, x):
    """Type, dtype and bytes of fn(x), or the type of the arithmetic error
    it raises (Python floats raise on 1/0 and overflow)."""
    try:
        with np.errstate(all="ignore"):
            v = fn(x)
    except ArithmeticError as exc:
        return type(exc)
    return type(v), np.asarray(v).dtype, np.asarray(v).tobytes()


def reading(parse, src, x):
    """The verdict of ``parse`` on ``src``: "refused" (ConfigError),
    "recursion" (RecursionError), or the values at the scalar x and at an
    array holding x."""
    try:
        fn = parse(src)
    except ConfigError:
        return "refused"
    except RecursionError:
        return "recursion"
    return [value_bytes(fn, x), value_bytes(fn, np.array([x, 0.5, -2.0]))]


@settings(max_examples=400, deadline=None)
@given(st.one_of(GRAMMAR, JUNK, PLANTED, OTHER_DIGITS),
       st.floats(min_value=-4.0, max_value=4.0))
def test_reads_as_the_hand_written_parser(src, x):
    old = reading(expression_oracle.parse_expression, src, x)
    new = reading(parse_expression, src, x)
    if old == "recursion":
        assert new == "refused"
    elif any(c.isdecimal() and not c.isascii() for c in src):
        # literals are ASCII decimal numbers
        assert new == "refused"
    else:
        assert new == old


@settings(max_examples=100, deadline=None)
@given(GRAMMAR)
def test_grammar_strings_are_read(src):
    assert reading(parse_expression, src, 1.5) != "refused"


# (source, value at x = 0.5) of n nested or chained operations
DEEP_SHAPES = {
    "sum": lambda n: (" + ".join(["x"] * n), 0.5 * n),
    "unary-minus": lambda n: ("-" * n + "x", (-1) ** n * 0.5),
    "parentheses": lambda n: ("(" * n + "x" + ")" * n, 0.5),
    "power": lambda n: ("1^" * n + "x", 1.0),
}


@pytest.mark.parametrize("n", [10, 150, 199, 200, 500, 990, 996, 1200, 1500])
@pytest.mark.parametrize("shape", DEEP_SHAPES.values(), ids=DEEP_SHAPES.keys())
def test_deep_expression_is_read_or_refused(shape, n):
    # Python's parser (200 nested parentheses) and the recursion limit
    # bound the depth: past them an expression is a config error, never a
    # RecursionError
    src, value = shape(n)
    try:
        got = parse_expression(src)(0.5)
    except ConfigError:
        assert n > 200
    else:
        assert got == value


def test_evaluation_past_the_recursion_limit_is_a_config_error():
    # a 600-term sum parses near the top of the stack, then is evaluated
    # 700 frames below it
    fn = parse_expression(" + ".join(["x"] * 600))

    def deeper(frames):
        return deeper(frames - 1) if frames else fn(0.5)

    with pytest.raises(ConfigError, match="nests too deeply"):
        deeper(sys.getrecursionlimit() - 300)
