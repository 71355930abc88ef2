"""Independent hand-coded q-calculus oracle for cross-checking.

Everything here works directly on polynomial coefficient arrays and
scalar Horner evaluations — deliberately sharing no code with the
package under test.
"""

from __future__ import annotations

import numpy as np

# the infinite q-Pochhammer product stops once its next term is below
# _QPOCH_TOL, or after _QPOCH_MAX_TERMS factors
_QPOCH_TOL = 1e-18
_QPOCH_MAX_TERMS = 100000


def horner(coeffs, x):
    """Evaluate a polynomial with ascending coefficients at x."""
    acc = 0.0
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def q_derivative(coeffs, x, q):
    """(p(x) - p(qx)) / ((1-q) x), evaluated numerically."""
    return (horner(coeffs, x) - horner(coeffs, q * x)) / ((1.0 - q) * x)


def q_derivative_coeffs(coeffs, q):
    """Coefficients of the q-derivative: c_k x^k -> c_k [k]_q x^{k-1}."""
    out = []
    for k, c in enumerate(coeffs):
        if k == 0:
            continue
        bracket = sum(q ** j for j in range(k))  # [k]_q = 1 + q + ... + q^{k-1}
        out.append(c * bracket)
    return out


def jackson_integral(coeffs, q, upper, n_terms=4000):
    """The q-integral int_0^upper p = (1-q) upper sum q^k p(q^k upper)."""
    total = 0.0
    for k in range(n_terms):
        total += q ** k * horner(coeffs, q ** k * upper)
    return (1.0 - q) * upper * total


def jackson_integral_exact(coeffs, q, upper):
    """Closed form: int_0^b x^k d_q x = b^{k+1} (1-q) / (1 - q^{k+1})."""
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * upper ** (k + 1) * (1.0 - q) / (1.0 - q ** (k + 1))
    return total


def q_antiderivative_at(coeffs, q, x, n_terms=4000):
    """The antiderivative vanishing at 0, evaluated at x (Jackson sum)."""
    return jackson_integral(coeffs, q, x, n_terms=n_terms)


def qpochhammer(alpha, q, n=None):
    """The product (alpha; q)_n = prod_{j<n} (1 - alpha q^j); n=None -> infinite.

    The infinite product is truncated once the running factor is within
    ``_QPOCH_TOL`` of 1, which requires |q| < 1.
    """
    if n is not None:
        return complex(np.prod(1.0 - alpha * q ** np.arange(n))) if n else 1.0 + 0j
    if not abs(q) < 1:
        raise ValueError("infinite product needs |q| < 1")
    out = 1.0 + 0j
    term = complex(alpha)
    for _ in range(_QPOCH_MAX_TERMS):
        out *= (1.0 - term)
        if abs(term) < _QPOCH_TOL:
            return out
        term *= q
    return out
