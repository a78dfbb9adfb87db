import tracemalloc

import numpy as np
import pytest

from _support import series_inv_oracle
from liftkit import series
from liftkit.errors import DimensionMismatch, SingularResolvent

REL = 1e-13


def rand_series(rng, L, m, n, scale=0.3):
    return scale * (rng.standard_normal((L, m, n))
                    + 1j * rng.standard_normal((L, m, n)))


# naive double-loop references


def ref_mul(a, b):
    L = min(len(a), len(b))
    c = np.zeros((L, a.shape[1], b.shape[2]), dtype=np.complex128)
    for k in range(L):
        for j in range(k + 1):
            c[k] += a[j] @ b[k - j]
    return c


def ref_inv(a):
    L, m, _ = a.shape
    a0inv = np.linalg.inv(a[0])
    b = [a0inv]
    for k in range(1, L):
        acc = np.zeros((m, m), dtype=np.complex128)
        for j in range(1, k + 1):
            acc += a[j] @ b[k - j]
        b.append(-a0inv @ acc)
    return np.array(b).reshape(L, m, m)


def ref_resolvent(x):
    L, m, _ = x.shape
    y = [np.eye(m, dtype=np.complex128)]
    for k in range(1, L + 1):
        acc = np.zeros((m, m), dtype=np.complex128)
        for j in range(k):
            acc += x[j] @ y[k - 1 - j]
        y.append(acc)
    return np.array(y).reshape(L + 1, m, m)


def ref_correlate(a):
    L, _, n = a.shape
    r = np.zeros((L, n, n), dtype=np.complex128)
    for k in range(L):
        for j in range(L - k):
            r[k] += a[j].conj().T @ a[j + k]
    return r


def assert_close(got, want):
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= REL * max(1.0, np.linalg.norm(want))


@pytest.mark.parametrize("L,m,n,p", [(8, 3, 2, 4), (1, 2, 3, 2), (20, 1, 1, 1),
                                     (5, 0, 0, 0), (5, 2, 0, 3), (5, 0, 2, 3),
                                     (5, 3, 2, 0)])
def test_mul_matches_double_loop(L, m, n, p):
    rng = np.random.default_rng(L + 10 * m + 100 * n + 1000 * p)
    a, b = rand_series(rng, L, m, n), rand_series(rng, L, n, p)
    assert_close(series.mul(a, b), ref_mul(a, b))


@pytest.mark.parametrize("La,Lb,m,n,p", [(9, 4, 2, 3, 2), (1, 7, 2, 2, 1),
                                         (6, 1, 1, 1, 1), (129, 257, 2, 3, 4),
                                         (5, 3, 0, 2, 2), (5, 3, 2, 0, 2)])
def test_convolve_is_the_full_product_per_entry(La, Lb, m, n, p):
    rng = np.random.default_rng(La + 10 * Lb + 1000 * m + 10000 * n + 100000 * p)
    a, b = rand_series(rng, La, m, n), rand_series(rng, Lb, n, p)
    want = np.zeros((La + Lb - 1, m, p), dtype=np.complex128)
    for i in range(m):
        for k in range(p):
            for j in range(n):
                want[:, i, k] += np.convolve(a[:, i, j], b[:, j, k])
    assert_close(series.convolve(a, b), want)


def test_mul_truncates_to_shorter_input():
    rng = np.random.default_rng(3)
    a, b = rand_series(rng, 9, 2, 2), rand_series(rng, 5, 2, 1)
    got = series.mul(a, b)
    assert got.shape == (5, 2, 1)
    assert_close(got, ref_mul(a[:5], b))


def test_mul_rejects_mismatched_blocks():
    with pytest.raises(DimensionMismatch):
        series.mul(np.zeros((3, 2, 2)), np.zeros((3, 3, 1)))
    with pytest.raises(DimensionMismatch):
        series.mul(np.zeros((0, 2, 2)), np.zeros((0, 2, 2)))


@pytest.mark.parametrize("L,m", [(10, 3), (1, 2), (30, 1), (6, 0)])
def test_inv_matches_double_loop(L, m):
    rng = np.random.default_rng(L + 7 * m)
    a = rand_series(rng, L, m, m)
    a[0] += np.eye(m)
    got = series.inv(a)
    if m:
        assert_close(got, ref_inv(a))
        assert_close(series.mul(a, got), ref_resolvent(np.zeros((L - 1, m, m))))
    else:
        assert got.shape == (L, 0, 0)


@pytest.mark.parametrize("a0", [np.zeros((2, 2)), np.array([[1.0, 2.0], [0.5, 1.0]]),
                                np.array([[1e-20]]), np.diag([1.0, 1e-11])])
def test_inv_raises_on_singular_constant_term(a0):
    m = a0.shape[0]
    a = np.zeros((4, m, m), dtype=np.complex128)
    a[0] = a0
    a[1] = np.eye(m)
    with pytest.raises(SingularResolvent):
        series.inv(a)


def test_inv_rejects_rectangular_series():
    with pytest.raises(DimensionMismatch):
        series.inv(np.ones((3, 2, 1)))


@pytest.mark.parametrize("L,m", [(12, 3), (0, 2), (1, 1), (7, 0)])
def test_resolvent_matches_double_loop(L, m):
    rng = np.random.default_rng(5 + L + 11 * m)
    x = rand_series(rng, L, m, m)
    got = series.resolvent(x)
    assert got.shape == (L + 1, m, m)
    assert_close(got, ref_resolvent(x))


def test_polyval_matches_horner():
    rng = np.random.default_rng(8)
    a = rand_series(rng, 15, 2, 3)
    pts = np.array([0.0, 0.5, -0.3 + 0.4j, 0.95j])
    for z, got in zip(pts, series.polyval(a, pts)):
        want = np.zeros((2, 3), dtype=np.complex128)
        for c in a[::-1]:
            want = c + z * want
        assert_close(got, want)
    assert series.polyval(a, [0.0])[0].tolist() == a[0].tolist()


def test_engine_is_bit_identical_on_repeat():
    rng = np.random.default_rng(21)
    a, b = rand_series(rng, 16, 3, 3), rand_series(rng, 16, 3, 2)
    a[0] += np.eye(3)
    assert np.array_equal(series.mul(a, b), series.mul(a, b))
    assert np.array_equal(series.inv(a), series.inv(a))
    assert np.array_equal(series.resolvent(a), series.resolvent(a))
    assert np.array_equal(series.correlate(b), series.correlate(b))


def test_mul_and_resolvent_match_double_loop_at_high_degree():
    rng = np.random.default_rng(193)
    a, b = rand_series(rng, 193, 8, 8), rand_series(rng, 193, 8, 8)
    assert_close(series.mul(a, b), ref_mul(a, b))
    x = rand_series(rng, 192, 8, 8)
    assert_close(series.resolvent(x), ref_resolvent(x))


def test_inv_matches_double_loop_at_high_degree():
    # a well-conditioned series (|inv| ~ 10), so that the product's
    # norm-wise round-off leaves the identity check meaningful
    rng = np.random.default_rng(195)
    a = 0.1 * rand_series(rng, 193, 8, 8)
    a[0] += np.eye(8)
    got = series.inv(a)
    assert_close(got, ref_inv(a))
    assert_close(series.mul(a, got), ref_resolvent(np.zeros((192, 8, 8))))


@pytest.mark.parametrize("L,m,n", [(9, 3, 2), (1, 2, 3), (1, 1, 1), (17, 1, 4),
                                   (193, 8, 8), (5, 0, 2), (5, 2, 0), (5, 0, 0)])
def test_correlate_matches_double_loop(L, m, n):
    rng = np.random.default_rng(L + 10 * m + 100 * n)
    a = rand_series(rng, L, m, n)
    assert_close(series.correlate(a), ref_correlate(a))


def test_correlate_rejects_an_empty_series():
    with pytest.raises(DimensionMismatch):
        series.correlate(np.zeros((0, 2, 2)))


@pytest.mark.parametrize("N", [0, 1, 2, 3, 5, 8, 17, 24, 193, 4096])
@pytest.mark.parametrize("n,out,inn,rho", [
    *(pytest.param(n, out, inn, None, id=f"{n}-{out}-{inn}")
      for n, out, inn in ((3, 2, 4), (0, 2, 1), (2, 0, 3), (4, 3, 0))),
    pytest.param(6, 3, 2, 0.99, id="6-3-2-rho0.99")])
def test_realization_stack_matches_the_state_power_loop(N, n, out, inn, rho):
    # the split covers degrees 1..N in s = 2^k left and ceil(N / s) right
    # powers, each doubled; these N end on, just past and just short of a
    # power of two, and 17, 24 and 193 leave a partial last giant step.  A
    # has norm at most 1, or is non-normal with spectral radius rho
    rng = np.random.default_rng(N + 10 * n + 100 * out + 1000 * inn)
    A = rand_series(rng, 1, n, n)[0]
    if rho is None:
        A /= max(1.0, np.linalg.norm(A, 2))
    else:
        A *= rho / np.abs(np.linalg.eigvals(A)).max()
    B, C, D = (rand_series(rng, 1, r, c)[0] for r, c in ((n, inn), (out, n), (out, inn)))
    want = np.empty((N + 1, out, inn), dtype=np.complex128)
    want[0] = D
    P = B
    for k in range(1, N + 1):
        want[k] = C @ P
        P = A @ P
    assert_close(series.realization_stack(A, B, C, D, N), want)


@pytest.mark.parametrize("N,n,out", [(256, 96, 96), (17, 40, 40), (4000, 64, 1)])
def test_realization_stack_allocates_within_its_entry_bound(N, n, out):
    # with one input and a large state and output, the s out n left powers
    # outgrow the (N + 1) max(n, out) in of the stack and the right powers;
    # the peak holds the stack, the left powers and a few n x n powers of A
    rng = np.random.default_rng(N + n)
    A, B, C, D = (rand_series(rng, 1, r, c)[0] for r, c in ((n, n), (n, 1), (out, n), (out, 1)))
    A /= np.linalg.norm(A, 2)
    bound = series.stack_entries(N, n, out, 1)
    tracemalloc.start()
    try:
        series.realization_stack(A, B, C, D, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * (2 * bound + 3 * n * n)


@pytest.mark.parametrize("L,m", [(1, 1), (5, 2), (25, 3), (193, 4)])
def test_inv_is_bit_identical_to_the_svd_guarded_inverse(L, m):
    rng = np.random.default_rng(40 + L)
    a = rand_series(rng, L, m, m)
    a[0] += np.eye(m)
    assert np.array_equal(series.inv(a), series_inv_oracle(a))

