"""The eigen-solve on the Golub-Kahan tridiagonal, as a reference.

``golub_kahan_eigenvalues`` is ``chain.chain_eigenvalues`` after the
factor is assembled, as it was before it bisected the factor's own
L D L^T form: LAPACK's dstebz (through ``eigvalsh_tridiagonal``) bisects
the zero-diagonal tridiagonal T of order 2m+1 whose off-diagonal is
(alpha_0, beta_0, alpha_1, beta_1, ...).  The eigenvalues of T are +-sigma
and one zero, sigma the singular values of the m x (m+1) upper bidiagonal
G with diagonal alpha and superdiagonal beta.  Its Sturm counts run on a
different matrix, of twice the order, than the library's, so tests can
compare the two solves.
"""

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

# bisection tolerance at the float64 underflow threshold: the default
# eps*|T| is absolute and swamps the smallest singular values
UNDERFLOW = 4.5e-308


def golub_kahan_eigenvalues(alpha, beta, total, count):
    """The ``count`` smallest of the ``total`` eigenvalues of the level whose
    factor has entries (alpha, beta), ascending.

    ``total`` is m + 1 when the limit column was projected out: the
    kernel's zero is then the middle eigenvalue of T, returned as 0.0 and
    not bisected.  It is m when the limit column is empty: the top m
    eigenvalues of T are bisected.
    """
    m = len(alpha)
    lo = 2 * m + 1 - total
    hi = lo + count - 1
    zero = lo == m
    if zero:
        lo += 1
        if lo > hi:
            return np.zeros(1)
    off = np.column_stack([alpha, beta]).ravel()
    sigma = eigvalsh_tridiagonal(np.zeros(2 * m + 1), off, select="i",
                                 select_range=(lo, hi), tol=UNDERFLOW)
    lam = np.abs(sigma) ** 2
    return np.concatenate([[0.0], lam]) if zero else lam
