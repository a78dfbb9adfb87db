"""Truncated power series with matrix coefficients, on stacked arrays.

A series is an (N+1, m, n) complex128 array whose entry k is the degree-k
Taylor coefficient.  Products and correlations go through the FFT along
the degree axis: stacks of lengths La and Lb are zero-padded to a power
of two K >= La + Lb - 1, so the cyclic convolution equals the linear
one, and each frequency costs one small matrix product.  Their round-off
is norm-wise, of order eps log K ||a|| ||b||, not relative to each output
coefficient.  Inverses and resolvents keep the recursion that computes
degree k with one BLAS product of a block row and a reversed block
column,

    y_k = [x_0 x_1 ... x_(k-1)] @ [y_(k-1); ...; y_0],

because Newton doubling on the FFT product measured slower at N = 192.
A function with a state-space realization (A, B, C, D) needs neither:
its coefficient of degree 1 + j + s i is (C A^j)(A^(s i) B), about sqrt(N)
left and right powers of A, each built by doubling, and one batched
product (``realization_stack``).  No dense block-Toeplitz matrix is ever
formed.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .linalg import require_invertible


def _as_series(a) -> np.ndarray:
    """Coerce to an (N+1, m, n) complex128 stack with at least one term."""
    s = np.asarray(a, dtype=np.complex128)
    if s.ndim != 3 or s.shape[0] == 0:
        raise DimensionMismatch(f"expected an (N+1, m, n) stack, got shape {s.shape}")
    return s


def _fft_len(L: int) -> int:
    """Smallest power of two >= L: a cyclic product of that length holds L
    coefficients of the linear one without wrapping."""
    return 1 << (L - 1).bit_length()


def convolve(a, b) -> np.ndarray:
    """Linear product c_k = sum_j a_j b_(k-j) of an La- and an Lb-term series.

    All La + Lb - 1 coefficients, through transforms of length
    K = _fft_len(La + Lb - 1).
    """
    a, b = _as_series(a), _as_series(b)
    if a.shape[2] != b.shape[1]:
        raise DimensionMismatch(
            f"cannot multiply {a.shape[1:]} by {b.shape[1:]} coefficients")
    L = len(a) + len(b) - 1
    K = _fft_len(L)
    fa = np.fft.fft(a, K, axis=0)
    fb = np.fft.fft(b, K, axis=0)
    return np.fft.ifft(fa @ fb, axis=0)[:L]


def mul(a, b) -> np.ndarray:
    """Truncated product c_k = sum_(j<=k) a_j b_(k-j), to the shorter length."""
    a, b = _as_series(a), _as_series(b)
    L = min(len(a), len(b))
    return convolve(a[:L], b[:L])[:L]


def correlate(a) -> np.ndarray:
    """Correlation sums r_k = sum_n a_n* a_(n+k), k = 0..L-1, of a length-L series.

    The conjugate transform turns the correlation into a cyclic
    product, r = ifft(fft(a)* fft(a)), with no wrap-around at K >= 2L - 1.
    """
    a = _as_series(a)
    fa = np.fft.fft(a, _fft_len(2 * len(a) - 1), axis=0)
    return np.fft.ifft(fa.conj().transpose(0, 2, 1) @ fa, axis=0)[:len(a)]


def resolvent(x) -> np.ndarray:
    """Coefficients y_0..y_L of (I - lambda x(lambda))^-1 from x_0..x_(L-1).

    The recursion y_0 = I, y_k = sum_(j<k) x_j y_(k-1-j) is well founded
    because of the factor lambda, so L terms of x give L+1 terms of y.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 3 or x.shape[1] != x.shape[2]:
        raise DimensionMismatch(f"resolvent needs square coefficients, got shape {x.shape}")
    return _resolvent(x)


def _resolvent(x: np.ndarray) -> np.ndarray:
    """resolvent on a checked (L, m, m) complex128 stack."""
    L, m, _ = x.shape
    # the block row [x_0 x_1 ... x_(L-1)]
    row = x.transpose(1, 0, 2).reshape(m, L * m)
    # y_k is stored at block L-k, so y_k..y_0 is the tail from block L-k
    col = np.zeros(((L + 1) * m, m), dtype=np.complex128)
    col[L * m:] = np.eye(m)
    for k in range(1, L + 1):
        col[(L - k) * m:(L + 1 - k) * m] = row[:, :k * m] @ col[(L + 1 - k) * m:]
    return col.reshape(L + 1, m, m)[::-1].copy()


def inv(a) -> np.ndarray:
    """Inverse series of a, to the same length; a_0 must be invertible.

    Writing a = a_0 (I - lambda x) reduces the inverse to a resolvent.
    Raises SingularResolvent when a_0 is numerically singular
    (linalg.require_invertible, which gives a_0^-1 and decides from it).
    """
    a = _as_series(a)
    L, m, n = a.shape
    if m != n:
        raise DimensionMismatch(f"only square series are invertible, got {m} x {n}")
    a0inv = require_invertible(a[0], "constant term of the series")
    return _resolvent(-(a0inv @ a[1:])) @ a0inv


def _split(N: int) -> tuple[int, int]:
    """(s, t) of realization_stack at degree N >= 1: s = 2^k near sqrt(N)
    left powers and t = ceil(N / s) right powers, s t >= N."""
    s = 1 << (N.bit_length() // 2)
    return s, -(-N // s)


def stack_entries(N: int, n: int, out: int, inn: int) -> int:
    """A bound on the entries of every array realization_stack allocates for a
    degree-N loop of state n, beside the n x n powers of A: (N + 1) max(n, out)
    in holds the stack and the t <= N right powers, s out n the left powers."""
    return max((N + 1) * max(n, out) * inn, _split(N)[0] * out * n)


def realization_stack(A, B, C, D, N: int) -> np.ndarray:
    """Coefficients D, CB, CAB, ..., CA^(N-1)B as an (N+1, out, in) stack.

    These are the Taylor coefficients of D + lambda C (I - lambda A)^-1 B.
    With (s, t) = _split(N), the coefficient of degree 1 + j + s i is
    (C A^j)(A^(s i) B), j < s, i < t (a baby-step giant-step split,
    Paterson and Stockmeyer, 1973).  The left powers, a block column
    L_m = [C; CA; ...; CA^(m-1)], double as L_2m = [L_m; L_m A^m] with
    A^2m = A^m A^m, the last square being A^s; the right powers A^(s i) B
    double the same way with A^s, kept as the block column of their
    transposes.  One batched product then writes the full giant steps in
    stack order and a second the partial last one, so the products cost
    about N out n in multiply-adds, and the doublings (s out + t in) n^2
    and log N n^3.
    """
    A, B, C, D = (np.asarray(X, dtype=np.complex128) for X in (A, B, C, D))
    (out, inn), n = D.shape, len(A)
    stack = np.empty((N + 1, out, inn), dtype=np.complex128)
    stack[0] = D
    if N == 0 or out * inn == 0:
        return stack
    s, t = _split(N)
    left = np.empty((s * out, n), dtype=np.complex128)
    left[:out] = C
    Am, m = A, 1
    while m < s:
        np.matmul(left[:m * out], Am, out=left[m * out:2 * m * out])
        Am, m = Am @ Am, 2 * m
    # Am is A^s; block i of right is (A^(s i) B)^T
    right = np.empty((t * inn, n), dtype=np.complex128)
    right[:inn] = B.T
    m = 1
    while m < t:
        step = min(m, t - m)
        np.matmul(right[:step * inn], Am.T, out=right[m * inn:(m + step) * inn])
        m += step
        if m < t:
            Am = Am @ Am
    powers = right.reshape(t, inn, n).transpose(0, 2, 1)
    full = s * (t - 1)
    np.matmul(left, powers[:t - 1], out=stack[1:full + 1].reshape(t - 1, s * out, inn))
    np.matmul(left[:(N - full) * out], powers[t - 1], out=stack[full + 1:].reshape(-1, inn))
    return stack


def polyval(a, points) -> np.ndarray:
    """Values sum_k a_k z^k at each point, as a (P, m, n) stack.

    One power-vector matmul: (P, N+1) powers times the (N+1, m*n) stack.
    """
    a = _as_series(a)
    z = np.asarray(points, dtype=np.complex128).reshape(-1)
    L, m, n = a.shape
    powers = np.empty((z.size, L), dtype=np.complex128)
    powers[:, 0] = 1.0
    powers[:, 1:] = z[:, None]
    np.cumprod(powers[:, 1:], axis=1, out=powers[:, 1:])
    return (powers @ a.reshape(L, m * n)).reshape(z.size, m, n)
