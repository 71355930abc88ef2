import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from taucalc.errors import ConfigError
from taucalc.expressions import parse_expression


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
