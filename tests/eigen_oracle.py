"""Three eigen-solves of a bidiagonal factor, as references.

``golub_kahan_eigenvalues`` is ``chain.chain_eigenvalues`` after the
factor is assembled, as it was before it bisected the factor's own
L D L^T form: LAPACK's dstebz (through ``eigvalsh_tridiagonal``) bisects
the zero-diagonal tridiagonal T of order 2m+1 whose off-diagonal is
(alpha_0, beta_0, alpha_1, beta_1, ...).  The eigenvalues of T are +-sigma
and one zero, sigma the singular values of the m x (m+1) upper bidiagonal
G with diagonal alpha and superdiagonal beta.  Its Sturm counts run on a
different matrix, of twice the order, than the library's, so tests can
compare the two solves.

``one_pass_gram_eigenvalues`` is ``chain._gram_eigenvalues`` as it was
before its Rayleigh-quotient steps: one dlarrb call bisects every
eigenvalue of the same L D L^T from [0, 2] down to 2 eps relative.
``bracketed_gram_eigenvalues`` starts that call from the brackets of the
library's first pass, found one index at a time.
"""

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from taucalc import chain

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


def _gram_ldl(alpha, beta):
    """D, LLD, PIVMIN and SPDIAM of the L D L^T form D = (alpha^2, 0),
    LLD = beta^2 (the least subnormal standing in for a zero beta^2) that
    the library bisects."""
    dd = np.append(np.square(alpha, dtype=np.float64), 0.0)
    lld = np.square(beta, dtype=np.float64)
    lld[lld == 0.0] = np.finfo(float).smallest_subnormal
    spdiam = (np.abs(alpha).max() + np.abs(beta).max()) ** 2
    pivmin = np.finfo(float).tiny * max(1.0, lld.max())
    return dd, lld, pivmin, spdiam


def _bisect_from(alpha, beta, w, werr):
    """Eigenvalues 2..k+1, k = len(w), each bisected by one dlarrb call
    from [w - werr, w + werr] to a half-width of 2 eps relative."""
    dd, lld, pivmin, spdiam = _gram_ldl(alpha, beta)
    n, k = dd.size, w.size
    # N, IFIRST, ILAST, OFFSET, TWIST, INFO
    ints = np.array([n, 2, k + 1, 1, n, 0], dtype=np.intc)
    # RTOL1, RTOL2, PIVMIN, SPDIAM
    reals = np.array([0.0, 2 * np.finfo(float).eps, pivmin, spdiam])
    w, werr, wgap = w.copy(), werr.copy(), np.zeros(k)
    work, iwork = np.empty(2 * n), np.empty(2 * n, dtype=np.intc)
    i, r = ints.ctypes.data, reals.ctypes.data
    step = ints.itemsize
    chain._dlarrb()(i, dd.ctypes.data, lld.ctypes.data, i + step,
                    i + 2 * step, r, r + 8, i + 3 * step, w.ctypes.data,
                    wgap.ctypes.data, werr.ctypes.data, work.ctypes.data,
                    iwork.ctypes.data, r + 16, r + 24, i + 4 * step,
                    i + 5 * step)
    return w


def one_pass_gram_eigenvalues(alpha, beta, k):
    """Eigenvalues 2..k+1, ascending, of B^T B with B = [G; 0], each
    bisected by dlarrb from [0, 2] to a half-width of 2 eps relative, on
    the L D L^T form that the library bisects."""
    return _bisect_from(alpha, beta, np.ones(k), np.ones(k))


def bracketed_gram_eigenvalues(alpha, beta, k):
    """Eigenvalues 2..k+1 as ``chain._gram_eigenvalues`` returns them when
    every Rayleigh step is refused: dlarrb bisects each to 2 eps from its
    bracket of the library's shared Sturm pass.

    Here each bracket is found on its own, by dlaneg counts at
    2, 4, 8, ... until the index lies below sigma (or sigma passes
    SPDIAM), then at the bracket's own midpoint until it is no wider than
    ``chain._COARSE_RTOL`` of its upper end or 2 PIVMIN.  The shared pass
    splits a bracket only at its midpoint, so both find the same ends."""
    dd, lld, pivmin, spdiam = _gram_ldl(alpha, beta)
    # N and R = N; SIGMA and PIVMIN
    ints = np.array([dd.size, dd.size], dtype=np.intc)
    reals = np.array([0.0, pivmin])

    def count(sigma):
        reals[0] = sigma
        return chain._dlaneg()(ints.ctypes.data, dd.ctypes.data,
                               lld.ctypes.data, reals.ctypes.data,
                               reals.ctypes.data + reals.itemsize,
                               ints.ctypes.data + ints.itemsize)

    lo, hi = np.zeros(k), np.zeros(k)
    for j in range(k):
        left, right = 0.0, 2.0
        while count(right) < j + 2 and right <= spdiam:
            left, right = right, 2.0 * right
        while right - left > max(chain._COARSE_RTOL * right, 2 * pivmin):
            mid = 0.5 * (left + right)
            left, right = (mid, right) if count(mid) < j + 2 else (left, mid)
        lo[j], hi[j] = left, right
    w = 0.5 * (lo + hi)
    return _bisect_from(alpha, beta, w, hi - w)
