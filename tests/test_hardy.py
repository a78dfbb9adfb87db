import tracemalloc

import numpy as np
import pytest

from _support import analytic_toeplitz, dense_tail_rows, shift_and_embed
from liftkit.errors import (ConfigError, DegreeTooSmall, DimensionMismatch,
                            DomainError)
from liftkit.hardy import (GRID, AnalyticFn, PolyOpFn, TruncationGrid,
                           column_operator, default_grid,
                           multiplication_operator, shift, shift_adjoint)
from liftkit.linalg import Subspace, operator_norm
from liftkit.modelspace import model_space, random_inner, random_multiplier
from liftkit.schur import random_schur


def geometric_poly(ratio, degree, lead=1.0):
    return PolyOpFn(1, 1, tuple(np.array([[lead * ratio ** n]])
                                for n in range(degree + 1)))


def test_polyopfn_coeff_beyond_degree_is_zero():
    p = PolyOpFn(2, 1, (np.ones((2, 1)),))
    assert p.degree == 0
    assert np.array_equal(p.coeff(5), np.zeros((2, 1)))
    assert np.array_equal(p.taylor_stack(0)[0], np.ones((2, 1)))


def test_polyopfn_requires_a_coefficient():
    with pytest.raises(DimensionMismatch):
        PolyOpFn(1, 1, ())


@pytest.mark.parametrize("coeffs,error,message", [
    ((np.ones((2, 1)), np.ones((3, 1))), DimensionMismatch, "expected 2 rows, got 3"),
    ((np.ones((2, 1)), np.ones((2, 2))), DimensionMismatch,
     "expected 1 columns, got 2"),
    ((np.ones((3, 1)),) * 2, DimensionMismatch, "expected 2 rows, got 3"),
    ((np.ones(2),), DimensionMismatch, "expected a matrix, got ndim=1"),
    ((np.ones((2, 1)), np.array([[1.0], [np.inf]])), ValueError,
     "matrix has non-finite entries"),
])
def test_coefficient_stacks_are_validated_as_each_coefficient(coeffs, error, message):
    for make in (lambda: PolyOpFn(2, 1, coeffs),
                 lambda: AnalyticFn(2, 1, coeffs, lambda lam: None)):
        with pytest.raises(error, match=f"^{message}$"):
            make()


def test_polyopfn_copies_its_coefficients():
    c = np.ones((2, 1, 1), dtype=np.complex128)
    p = PolyOpFn(1, 1, c)
    c[0] = 5.0
    assert p.coeff(0)[0, 0] == 1.0


@pytest.mark.parametrize("make", [
    lambda c: PolyOpFn(2, 3, c),
    lambda c: AnalyticFn(2, 3, c, lambda z: None),
    lambda c: random_schur(2, 3, 2, seed=4).truncated(len(c) - 1),
], ids=["poly", "analytic", "realized"])
def test_stored_coefficients_are_handed_out_as_read_only_views(make):
    # a PolyOpFn or AnalyticFn copies what it is given, and Realization.truncated
    # keeps the stack it computes: each is read-only, and handed out as it is
    rng = np.random.default_rng(4)
    H = make(rng.standard_normal((5, 2, 3)) + 0j)
    assert not H._stack.flags.writeable
    for N in range(H.degree + 1):
        for V in (H.taylor_stack(N), column_operator(H, N), H.coeffs[N]):
            assert np.shares_memory(V, H._stack)
            with pytest.raises(ValueError, match="read-only"):
                V[...] = 0.0
    assert np.array_equal(column_operator(H, H.degree), H._stack.reshape(-1, 3))


def test_polyopfn_above_its_degree_pads_a_fresh_stack():
    H = PolyOpFn(1, 2, (np.ones((1, 2)), 2 * np.ones((1, 2))))
    for S in (H.taylor_stack(4), column_operator(H, 4).reshape(5, 1, 2)):
        assert not np.shares_memory(S, H._stack) and S.flags.writeable
        assert np.array_equal(S[:2], H._stack) and not S[2:].any()
        S[...] = 7.0
    assert np.array_equal(H.taylor_stack(1), [[[1.0, 1.0]], [[2.0, 2.0]]])


def test_polyopfn_eval_geometric():
    # sum_{n<=20} (0.4 * 0.5)^n = (1 - 0.2^21) / 0.8, frozen
    p = geometric_poly(0.4, 20)
    assert p.eval(0.5)[0, 0] == pytest.approx(1.2499999999999973, abs=1e-14)
    assert p.eval(0.0)[0, 0] == 1.0


def test_polyopfn_eval_outside_disk():
    p = geometric_poly(0.4, 3)
    with pytest.raises(DomainError):
        p.eval(1.0)


def test_analyticfn_taylor_is_bounded_by_stored_degree():
    fn = AnalyticFn(1, 1, [np.eye(1)] * 4, lambda lam: np.eye(1))
    assert fn.degree == 3
    with pytest.raises(DegreeTooSmall):
        fn.taylor_stack(4)
    with pytest.raises(DomainError):
        fn.eval(1.2)


def test_truncation_grid_validation():
    with pytest.raises(ConfigError):
        TruncationGrid(3, (0.5,))
    with pytest.raises(ConfigError):
        TruncationGrid(8, ())
    with pytest.raises(ConfigError):
        TruncationGrid(8, (1.0,))
    g = TruncationGrid(8, (0.5, 0.5j))
    assert g.points == (0.5 + 0j, 0.5j)


def test_grid_is_32_points_on_each_of_two_circles():
    radii = np.repeat([0.6, 0.95], 32)
    k = np.tile(np.arange(32), 2)
    assert np.array_equal(GRID, radii * np.exp(2j * np.pi * k / 32))
    assert not GRID.flags.writeable
    assert default_grid(10).points == tuple(GRID)


def test_default_grid_shape():
    g = default_grid(10)
    assert g.degree == 10
    assert len(g.points) == 64  # two circles, 32 points each
    radii = sorted({round(abs(z), 12) for z in g.points})
    assert radii == [0.6, 0.95]


def test_shift_and_embed_structure():
    S, E = shift_and_embed(2, 3)
    x = np.arange(8.0).reshape(8, 1)
    shifted = S @ x
    assert np.array_equal(shifted[:2], np.zeros((2, 1)))
    assert np.array_equal(shifted[2:], x[:6])  # top block dropped
    assert operator_norm(np.linalg.matrix_power(S, 4)) == 0.0  # nilpotent
    assert operator_norm(E.conj().T @ E - np.eye(2)) == 0.0
    assert np.array_equal((S @ E)[2:4], np.eye(2))


@pytest.mark.parametrize("dim,N,cols", [(2, 3, 1), (3, 5, 4), (1, 0, 2), (2, 4, 0)])
def test_shift_matches_dense_shift(dim, N, cols):
    S, _ = shift_and_embed(dim, N)
    rng = np.random.default_rng(dim + N + cols)
    X = (rng.standard_normal(((N + 1) * dim, cols))
         + 1j * rng.standard_normal(((N + 1) * dim, cols)))
    assert np.array_equal(shift(X, dim), S @ X)
    assert np.array_equal(shift_adjoint(X, dim), S.conj().T @ X)


def test_shift_rejects_partial_blocks():
    with pytest.raises(DimensionMismatch):
        shift(np.zeros((5, 1)), 2)
    with pytest.raises(DimensionMismatch):
        shift_adjoint(np.zeros((3, 1)), 0)


def test_column_operator_fixture_norm():
    # H_n = 0.6 * 0.8^n at N = 24: squared column norm 1 - 0.64^25
    H = geometric_poly(0.8, 24, lead=0.6)
    col = column_operator(H, 24)
    assert col.shape == (25, 1)
    assert np.linalg.norm(col) == pytest.approx(0.9999928637360733, abs=1e-14)


def test_analytic_toeplitz_matches_convolution():
    rng = np.random.default_rng(10)
    N = 7
    H = PolyOpFn(2, 3, tuple(rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
                             for _ in range(3)))
    x = [rng.standard_normal((3, 1)) for _ in range(N + 1)]
    T = analytic_toeplitz(H, N)
    got = T @ np.vstack(x)
    for n in range(N + 1):
        want = sum(H.coeff(k) @ x[n - k] for k in range(min(n, 2) + 1))
        assert operator_norm(got[2 * n:2 * n + 2] - want) < 1e-13


def test_analytic_toeplitz_truncates_high_degree_symbols():
    # only coefficients up to degree N enter the block triangle
    H = PolyOpFn(1, 1, (np.zeros((1, 1)), np.zeros((1, 1)), np.eye(1)))
    T = analytic_toeplitz(H, 1)
    assert operator_norm(T) == 0.0


def test_multiplication_operator_restricts_toeplitz():
    rng = np.random.default_rng(11)
    N = 6
    H = PolyOpFn(1, 2, tuple(0.3 * rng.standard_normal((1, 2)) for _ in range(2)))
    B = np.linalg.qr(rng.standard_normal(((N + 1) * 2, 3)))[0]
    dom = Subspace((N + 1) * 2, B)
    M, tail = multiplication_operator(H, dom, N)
    # an FFT product, equal to the dense one up to norm-wise round-off
    assert operator_norm(M - analytic_toeplitz(H, N) @ B) <= 1e-15
    assert tail >= 0.0


def test_multiplication_operator_tail_of_shift():
    # H = lambda on the full truncated space: the top block falls off
    H = PolyOpFn(1, 1, (np.zeros((1, 1)), np.eye(1)))
    dom = Subspace(5, np.eye(5))
    M, tail = multiplication_operator(H, dom, 4)
    assert tail == pytest.approx(1.0)
    S, _ = shift_and_embed(1, 4)
    assert operator_norm(M - S) <= 1e-15


def random_poly(rng, out, inn, degree):
    return PolyOpFn(out, inn, tuple(
        0.3 * (rng.standard_normal((out, inn)) + 1j * rng.standard_normal((out, inn)))
        for _ in range(degree + 1)))


def random_domain(rng, amb, m):
    raw = rng.standard_normal((amb, m)) + 1j * rng.standard_normal((amb, m))
    return Subspace(amb, np.linalg.qr(raw)[0])


@pytest.mark.parametrize("out,inn,degree,N,m", [
    (2, 3, 9, 5, 4),    # complex rectangular H of degree > N
    (3, 2, 0, 6, 5),    # deg = 0: no tail
    (2, 2, 3, 4, 0),    # zero-column domain
    (1, 2, 40, 40, 7),
])
def test_multiplication_operator_matches_dense_oracle(out, inn, degree, N, m):
    rng = np.random.default_rng(out + 10 * inn + 100 * degree + 1000 * N + m)
    H = random_poly(rng, out, inn, degree)
    dom = random_domain(rng, (N + 1) * inn, m)
    M, tail = multiplication_operator(H, dom, N)
    T = analytic_toeplitz(H, N)
    assert M.shape == ((N + 1) * out, m)
    assert operator_norm(M - T @ dom.basis) <= 1e-15 * max(1.0, operator_norm(T))
    # the tail's round-off is norm-wise, so it is compared absolutely
    assert abs(tail - operator_norm(dense_tail_rows(H, N) @ dom.basis)) <= 1e-14
    if degree == 0 or m == 0:
        assert tail == 0.0


def test_multiplication_operator_checks_ambient():
    H = PolyOpFn(1, 2, (np.ones((1, 2)),))
    with pytest.raises(DimensionMismatch):
        multiplication_operator(H, Subspace(3, np.eye(3)), 4)


def test_multiplication_operator_memory_stays_below_the_dense_matrix():
    # at N = 512 the dense (N+1)Y x (N+1)U Toeplitz matrix alone is 25 MB;
    # the full series product of H (deg = 512) with the basis takes
    # transforms of length 2048, where a product of two zero-padded
    # (N + deg + 1)-term stacks would take 4096, and peaks near 1.55 MB
    # (deterministic, no wall time)
    N = 512
    theta = random_inner(3, 3, 3)
    ms = model_space(theta, N)
    H = random_multiplier(theta, 2, N, 5)
    tracemalloc.start()
    try:
        multiplication_operator(H, ms.basis, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_truncation_grid_rejects_a_nan_point():
    with pytest.raises(ConfigError, match="open unit disk"):
        TruncationGrid(8, (0.5, float("nan")))
