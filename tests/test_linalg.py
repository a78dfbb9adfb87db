"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liftkit.errors import DimensionMismatch, NotAContraction
from liftkit.linalg import (Subspace, as_operator, defect, haar_unitary,
                            hermitian_sqrt_psd, operator_norm, operator_norms,
                            orthonormal_range, projector_gap)


def _complex_matrix(rng, m, n, scale=1.0):
    return scale * (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n)))


def test_as_operator_coerces_lists():
    A = as_operator([[1, 2], [3, 4]])
    assert A.dtype == np.complex128
    assert A.shape == (2, 2)


def test_as_operator_shape_checks():
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((2, 2)), rows=3)
    with pytest.raises(DimensionMismatch):
        as_operator(np.zeros((2, 2)), cols=1)
    with pytest.raises(ValueError):
        as_operator(np.array([[np.nan, 0.0]]))


def test_operator_norm_examples():
    assert operator_norm(np.zeros((3, 0))) == 0.0
    assert operator_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)
    # norm of a column is its euclidean length
    assert operator_norm(np.array([[0.6], [0.8]])) == pytest.approx(1.0)


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0], [1.0]]))
    with pytest.raises(DimensionMismatch):
        Subspace(2, np.eye(3))


def test_subspace_projector_idempotent():
    rng = np.random.default_rng(0)
    B = np.linalg.qr(_complex_matrix(rng, 5, 2))[0]
    Bs = Subspace(5, B).basis
    P = Bs @ Bs.conj().T
    assert operator_norm(P @ P - P) < 1e-13
    assert operator_norm(P - P.conj().T) < 1e-13


def test_orthonormal_range_zero_matrix():
    s = orthonormal_range(np.zeros((4, 3)))
    assert s.dim == 0
    assert s.ambient_dim == 4


def test_orthonormal_range_rank():
    rng = np.random.default_rng(1)
    B = _complex_matrix(rng, 6, 2)
    M = np.hstack([B, B @ _complex_matrix(rng, 2, 3)])  # rank 2 by construction
    s = orthonormal_range(M)
    assert s.dim == 2
    # the range reproduces every column
    assert operator_norm(s.basis @ s.basis.conj().T @ M - M) < 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 5), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_orthonormal_range_projects_columns(rank, n, seed):
    rng = np.random.default_rng(seed)
    M = _complex_matrix(rng, 6, rank) @ _complex_matrix(rng, rank, n) if rank else np.zeros((6, n))
    s = orthonormal_range(M)
    assert s.dim <= min(rank, n)
    assert operator_norm(s.basis @ s.basis.conj().T @ M - M) < 1e-10 * max(1.0, operator_norm(M))


def test_hermitian_sqrt_squares_back():
    rng = np.random.default_rng(2)
    B = _complex_matrix(rng, 4, 4)
    G = B @ B.conj().T
    D = hermitian_sqrt_psd(G)
    assert operator_norm(D @ D - G) < 1e-12 * operator_norm(G)
    assert operator_norm(D - D.conj().T) < 1e-13 * operator_norm(G)


def test_hermitian_sqrt_flushes_null_directions():
    # I - V*V for unitary V is exactly 0 after the round-off floor; without
    # the floor the null directions surface as sqrt(eps) ~ 1e-8 noise.
    rng = np.random.default_rng(3)
    V = haar_unitary(rng, 5)
    D = hermitian_sqrt_psd(np.eye(5) - V.conj().T @ V)
    assert operator_norm(D) == 0.0
    # mixed spectrum: the genuine defect direction survives
    T = V @ np.diag([1.0, 1.0, 1.0, 1.0, 0.5]) @ haar_unitary(rng, 5)
    D = hermitian_sqrt_psd(np.eye(5) - T.conj().T @ T)
    assert orthonormal_range(D).dim == 1


def test_defect_of_isometry_is_zero():
    rng = np.random.default_rng(4)
    V = haar_unitary(rng, 4)[:, :2]
    D, rng_space = defect(V)
    assert operator_norm(D) < 1e-12
    assert rng_space.dim == 0


def test_defect_of_strict_contraction_is_full():
    D, rng_space = defect(0.5 * np.eye(3))
    assert rng_space.dim == 3
    assert operator_norm(D @ D - 0.75 * np.eye(3)) < 1e-14


def test_defect_rejects_expansions():
    with pytest.raises(NotAContraction):
        defect(2.0 * np.eye(2))


@pytest.mark.parametrize("excess,raises", [(5e-10, False), (2e-9, True)])
def test_defect_guard_reads_the_gram_of_a_tall_operator(monkeypatch, excess, raises):
    # the guard comes from the smallest eigenvalue of I - T*T, 1 - ||T||^2,
    # so a tall T is never decomposed itself
    rng = np.random.default_rng(8)
    T = haar_unitary(rng, 40)[:, :3] @ np.diag([1.0 + excess, 0.5, 0.2])
    shapes = []
    svd = np.linalg.svd

    def recording_svd(A, *args, **kwargs):
        shapes.append(A.shape)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    if raises:
        with pytest.raises(NotAContraction, match=r"^operator norm 1\.000000e\+00 exceeds 1 \+ 1e-09$"):
            defect(T)
    else:
        D, rng_space = defect(T)
        assert rng_space.dim == 2
    assert all(shape[0] <= 3 for shape in shapes)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_haar_unitary_is_unitary(n, seed):
    U = haar_unitary(np.random.default_rng(seed), n)
    assert operator_norm(U.conj().T @ U - np.eye(n)) < 1e-12


def test_haar_unitary_deterministic_and_empty():
    a = haar_unitary(np.random.default_rng(7), 3)
    b = haar_unitary(np.random.default_rng(7), 3)
    assert np.array_equal(a, b)
    assert haar_unitary(np.random.default_rng(0), 0).shape == (0, 0)


@pytest.mark.parametrize("n,m1,m2", [(12, 3, 2), (12, 0, 4), (12, 5, 0),
                                     (12, 0, 0), (4, 3, 3), (0, 0, 0)])
def test_projector_gap_matches_dense_difference(n, m1, m2):
    rng = np.random.default_rng(n + 7 * m1 + 31 * m2)
    b = _complex_matrix(rng, n, m1, scale=0.5)
    Q = orthonormal_range(_complex_matrix(rng, n, m2)).basis
    dense = operator_norm(b @ b.conj().T - Q @ Q.conj().T)
    assert abs(projector_gap(b, Q) - dense) <= 1e-13


def test_projector_gap_of_a_basis_change_is_round_off():
    rng = np.random.default_rng(5)
    Q = orthonormal_range(_complex_matrix(rng, 10, 3)).basis
    assert projector_gap(Q @ haar_unitary(rng, 3), Q) <= 1e-14


@pytest.mark.parametrize("m,n", [(1, 1), (3, 3), (5, 2), (2, 6), (0, 3), (3, 0), (0, 0)])
def test_operator_norm_is_bit_identical_to_numpy_norm(m, n):
    rng = np.random.default_rng(m + 10 * n)
    A = _complex_matrix(rng, m, n)
    assert operator_norm(A) == np.linalg.norm(A, 2)
    S = np.stack([_complex_matrix(rng, m, n) for _ in range(16)])
    assert np.array_equal(operator_norms(S), np.linalg.norm(S, 2, axis=(1, 2)))
