"""Unit tests for the dense linear-algebra helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _support import herglotz, refuse, svd_singular_rule
from liftkit.errors import (ConfigError, DimensionMismatch, InconsistentGenerators,
                            NonFiniteResult, NotAContraction, SingularResolvent)
from liftkit.lifting import random_constrained_z, random_problem
from liftkit.linalg import (CONTRACTION_SLACK, Subspace, as_operator, block_2x2,
                            contraction_on_generators, defect, gram_norm, gramian_root,
                            haar_unitary, hermitian_sqrt_psd,
                            operator_norm, operator_norms, orthonormal_range,
                            projector_gap, realized_sup_bound, require_contraction,
                            require_gram_contraction, require_invertible, seeded_rng,
                            stable_radius)
from liftkit.modelspace import InnerFn, random_inner, random_multiplier
from liftkit.rcl import random_data_set
from liftkit.schur import Realization, random_schur


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


@pytest.mark.parametrize("rows, cols", [((2, 3), (4, 1)), ((0, 2), (0, 3)), ((2, 0), (3, 0)),
                                        ((0, 3), (3, 0)), ((0, 0), (0, 0)), ((1, 0), (0, 2))])
def test_block_2x2_is_np_block_bit_for_bit(rows, cols):
    # ((0, 3), (3, 0)) is the shape of _resolvent_loop's A for a constant C:
    # C's 0-state A with rank-3 feedback
    rng = np.random.default_rng(sum(rows) + 7 * sum(cols))
    blocks = [[_complex_matrix(rng, r, c) for c in cols] for r in rows]
    got = block_2x2(*blocks[0], *blocks[1])
    want = np.block(blocks)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.astype(np.complex128).tobytes()
    # real blocks come out as the complex128 copy of np.block's real result
    real = [[X.real.copy() for X in row] for row in blocks]
    assert np.array_equal(block_2x2(*real[0], *real[1]), np.block(real))


def test_block_2x2_refuses_blocks_that_do_not_fit():
    A, B = np.zeros((2, 2)), np.zeros((2, 1))
    with pytest.raises(DimensionMismatch):
        block_2x2(A, B, np.zeros((1, 2)), np.zeros((1, 2)))
    # a one-column C would broadcast into a two-column slot
    with pytest.raises(DimensionMismatch):
        block_2x2(A, B, np.zeros((1, 1)), np.zeros((1, 1)))


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


@pytest.mark.parametrize("slack", [CONTRACTION_SLACK, 1e-8])
@pytest.mark.parametrize("excess,raises", [(0.9, False), (1.1, True)])
def test_require_contraction_at_its_slack(slack, excess, raises):
    # excess in units of the slack: just under and just over 1 + slack
    rng = np.random.default_rng(9)
    M = haar_unitary(rng, 4)[:, :2] @ np.diag([1.0 + excess * slack, 0.3]) @ haar_unitary(rng, 2)
    if raises:
        with pytest.raises(NotAContraction,
                           match=rf"^omega has norm 1\.0+e\+00, above 1 \+ {slack:g}$"):
            require_contraction(M, "omega", slack)
    else:
        assert require_contraction(M, "omega", slack) == operator_norm(M)


def test_require_invertible_names_the_one_singular_matrix_of_a_batch():
    rng = np.random.default_rng(10)
    S = np.stack([haar_unitary(rng, 3) for _ in range(6)])
    require_invertible(S, "I - lambda*C(lambda)")
    require_invertible(np.zeros((6, 0, 0)), "an empty stack")
    S[4] = S[4] @ np.diag([1.0, 1.0, 1e-11])
    with pytest.raises(SingularResolvent,
                       match=r"^I - lambda\*C\(lambda\) is numerically singular$"):
        require_invertible(S, "I - lambda*C(lambda)")
    # the rule reads the inverse norm: [[1e-11]] has condition 1
    with pytest.raises(SingularResolvent, match="^x is numerically singular$"):
        require_invertible(np.array([[1e-11]]), "x")


@pytest.mark.parametrize("cond,raises", [(1e10 * (1.0 - 1e-6), False),
                                         (1e10 * (1.0 + 1e-6), True)])
def test_require_invertible_rejects_w_plus_identity_beyond_cond_1e10(cond, raises):
    # W(lambda) + I has Hermitian part >= I, so sigma_min >= 1 and the rule
    # is cond > 1e10, the guard z_from_C had before it called this one
    V = haar_unitary(np.random.default_rng(11), 3)
    W_plus_I = V @ np.diag([1.0, 2.0, cond]) @ V.conj().T
    assert (np.linalg.cond(W_plus_I) > 1e10) == raises
    if raises:
        with pytest.raises(SingularResolvent, match=r"^W\(lambda\) \+ I is numerically"):
            require_invertible(W_plus_I[None], "W(lambda) + I")
    else:
        require_invertible(W_plus_I[None], "W(lambda) + I")


@pytest.mark.parametrize("cols", [0, 2])
def test_contraction_on_generators_of_no_generators(cols):
    F, om = contraction_on_generators(np.zeros((3, cols)), np.zeros((2, cols)), 1e-9)
    assert F.ambient_dim == 3 and F.dim == 0
    assert om.shape == (2, 0)
    if cols:
        with pytest.raises(InconsistentGenerators):
            contraction_on_generators(np.zeros((3, cols)), np.ones((2, cols)), 1e-9)


def test_contraction_on_generators_of_rank_deficient_generators():
    # three generators in a plane of C^4, the third the sum of the others
    rng = np.random.default_rng(12)
    pair = _complex_matrix(rng, 4, 2)
    gen = np.hstack([pair, pair.sum(axis=1, keepdims=True)])
    T = _complex_matrix(rng, 3, 4)
    T *= 0.8 / operator_norm(T @ orthonormal_range(gen).basis)
    F, om = contraction_on_generators(gen, T @ gen, 1e-9)
    assert F.dim == 2
    assert operator_norm(om @ (F.basis.conj().T @ gen) - T @ gen) <= 1e-12 * operator_norm(T @ gen)
    assert abs(operator_norm(om) - 0.8) <= 1e-12
    # images that no linear map gives: the third is not the sum of the others
    img = T @ gen
    img[:, 2] += 1e-6
    with pytest.raises(InconsistentGenerators, match="^generator least squares has residual"):
        contraction_on_generators(gen, img, 1e-9)


@pytest.mark.parametrize("excess,raises", [(0.5, False), (2.0, True)])
def test_contraction_on_generators_rescales_round_off_only(excess, raises):
    # norm 1 + excess * tol: within tol it is scaled back to 1, beyond it raises
    tol = 1e-9
    rng = np.random.default_rng(13)
    gen = _complex_matrix(rng, 3, 2)
    T = haar_unitary(rng, 3)[:, :2] @ np.diag([1.0 + excess * tol, 0.4]) @ haar_unitary(rng, 2)
    T = T @ np.linalg.pinv(orthonormal_range(gen).basis)
    if raises:
        with pytest.raises(NotAContraction):
            contraction_on_generators(gen, T @ gen, tol)
    else:
        F, om = contraction_on_generators(gen, T @ gen, tol)
        assert abs(operator_norm(om) - 1.0) <= 1e-15


def _decision(guard, M, what="x"):
    """(raised exception type or None, its message) of one guard call."""
    try:
        guard(M, what)
    except (SingularResolvent, NonFiniteResult) as exc:
        return type(exc), str(exc)
    return None, ""


def _sweep_matrices(rng, n, count):
    """Seeded matrices with log-uniform singular values; every third one
    within 1% of the rule's threshold max(1, sigma_max) / sigma_min = 1e10."""
    for k in range(count):
        smax = 10.0 ** rng.uniform(-3, 3)
        if k % 3 == 0:
            smin = max(1.0, smax) / (1e10 * rng.uniform(0.99, 1.01))
        else:
            smin = smax / 10.0 ** rng.uniform(0, 13)
        s = np.sort(np.exp(rng.uniform(np.log(smin), np.log(smax), n)))[::-1]
        s[0], s[-1] = smax, smin
        yield haar_unitary(rng, n) @ np.diag(s) @ haar_unitary(rng, n)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 24])
def test_certified_guard_decides_as_the_svd_rule(n):
    rng = np.random.default_rng(100 + n)
    decisions = []
    for M in _sweep_matrices(rng, n, 150):
        want = _decision(svd_singular_rule, M)
        assert _decision(require_invertible, M) == want
        decisions.append(want[0])
        if want[0] is None:
            assert np.array_equal(require_invertible(M, "x"), np.linalg.inv(M))
    # the sweep reaches both sides of the rule
    assert None in decisions and SingularResolvent in decisions


@pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 24])
def test_herglotz_guard_decides_as_the_svd_rule(n):
    # the Herglotz transform decides from (herglotz + I) / 2, the inverse of
    # I - lambda C that its own right division gives; a constant C puts
    # each swept matrix there as A = I - lambda C
    rng = np.random.default_rng(200 + n)
    lam = 0.5
    what = "I - lambda*C(lambda)"
    decisions = []
    for M in _sweep_matrices(rng, n, 150):
        C0 = (np.eye(n) - M) / lam
        Cfun = Realization(np.zeros((0, 0)), np.zeros((0, n)), np.zeros((n, 0)), C0)
        A = np.eye(n) - lam * C0
        want = _decision(svd_singular_rule, A, what)
        assert _decision(lambda _, w: herglotz(Cfun, [lam]), A, what) == want
        decisions.append(want[0])
    assert None in decisions and SingularResolvent in decisions


@pytest.mark.parametrize("M", [np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((3, 3))],
                         ids=["lu-fails", "zero"])
def test_certified_guard_on_exactly_singular_matrices(M):
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(M)
    assert _decision(require_invertible, M) == _decision(svd_singular_rule, M)
    assert _decision(require_invertible, M)[0] is SingularResolvent


def test_certified_guard_on_an_empty_stack():
    assert require_invertible(np.zeros((5, 0, 0)), "x").shape == (5, 0, 0)


def test_certified_guard_runs_the_svd_only_on_a_stack_it_cannot_clear(monkeypatch):
    # the certificate bounds the whole stack at once; one matrix past the
    # threshold leaves it uncleared, and the SVD rule then decides
    shapes = []

    def counted(M, **kw):
        shapes.append(np.shape(M))
        return svd(M, **kw)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    rng = np.random.default_rng(12)
    S = np.stack([haar_unitary(rng, 4) @ np.diag([2.0, 1.0, 0.5, 0.2]) for _ in range(64)])
    assert np.array_equal(require_invertible(S, "x"), np.linalg.inv(S))
    assert shapes == []
    S[37] = S[37] @ np.diag([1.0, 1.0, 1.0, 1e-12])
    with pytest.raises(SingularResolvent, match=r"^x is numerically singular$"):
        require_invertible(S, "x")
    assert shapes == [(64, 4, 4)]


@pytest.mark.parametrize("n", [1, 2, 5, 24])
def test_certified_guard_decides_stacks_as_the_svd_rule(n):
    # stacks of three swept matrices, so most hold one near the threshold
    rng = np.random.default_rng(300 + n)
    decisions = []
    mats = list(_sweep_matrices(rng, n, 90))
    for k in range(0, len(mats), 3):
        S = np.stack(mats[k:k + 3])
        want = _decision(svd_singular_rule, S)
        assert _decision(require_invertible, S) == want
        decisions.append(want[0])
    assert None in decisions and SingularResolvent in decisions


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certified_guard_rejects_a_non_finite_matrix(bad):
    S = np.stack([np.eye(2, dtype=np.complex128)] * 3)
    S[1, 0, 1] = bad
    with pytest.raises(NonFiniteResult, match=r"^x has non-finite entries$"):
        require_invertible(S, "x")
    with pytest.raises(NonFiniteResult, match=r"^x has non-finite entries$"):
        require_invertible(S[1], "x")


def _stable(rng, n, radius):
    """A random n x n matrix scaled to spectral radius radius."""
    A = _complex_matrix(rng, n, n)
    return A * (radius / max(np.abs(np.linalg.eigvals(A)).max(), 1e-300))


def _direct_gramian(A, C, terms):
    """sum_(k < terms) (A*)^k C* C A^k, term by term."""
    direct, term = np.zeros((len(A), len(A)), dtype=np.complex128), C
    for _ in range(terms):
        direct += term.conj().T @ term
        term = term @ A
    return direct


@pytest.mark.parametrize("radius", [0.0, 0.5, 0.99])
def test_observability_gramian_solves_the_stein_equation(radius):
    # P = L* L of gramian_root
    rng = np.random.default_rng(17)
    A = _stable(rng, 4, radius)
    C = _complex_matrix(rng, 2, 4)
    L = gramian_root(A, C)
    P = L.conj().T @ L
    assert np.linalg.norm(A.conj().T @ P @ A + C.conj().T @ C - P) <= 1e-12 * np.linalg.norm(P)
    # the direct sum, to a tail below round-off
    direct = _direct_gramian(A, C, 8000 if radius else 1)
    assert np.linalg.norm(P - direct) <= 1e-11 * np.linalg.norm(P)


@pytest.mark.parametrize("rows", [13, 1])
def test_gramian_root_of_tall_and_wide_outputs_is_the_direct_sum(rows):
    # 13 > 4 n rows compress on the first step; 1 < n row grows to 32 rows
    # before the first compression, on the fifth step
    rng = np.random.default_rng(18)
    n = 3 if rows > 3 else 5
    A = _stable(rng, n, 0.5)
    C = _complex_matrix(rng, rows, n)
    L = gramian_root(A, C)
    assert len(L) <= 4 * n
    P = L.conj().T @ L
    assert np.linalg.norm(P - _direct_gramian(A, C, 200)) <= 1e-14 * np.linalg.norm(P)


@pytest.mark.parametrize("A", [np.eye(2), [[1.0, 1.0], [0.0, 1.0]], [[2.0]],
                               np.diag([0.5, -1.0]), [[np.nan]]])
def test_observability_gramian_and_radius_refuse_what_is_not_stable(A):
    # rho(A) = 1, a Jordan block, rho > 1 (overflow) and a non-finite entry
    # have no gramian_root
    C = np.ones((1, len(A)))
    assert gramian_root(A, C) is None
    assert stable_radius(A) is None


def test_stable_radius_of_stable_and_empty_matrices():
    assert stable_radius(np.zeros((0, 0))) == 0.0
    assert stable_radius(np.diag([0.5, -0.75j])) == pytest.approx(0.75, abs=1e-15)
    assert stable_radius([[0.0, 1.0], [0.0, 0.0]]) == 0.0
    L = gramian_root(np.zeros((0, 0)), np.zeros((3, 0)))
    assert (L.conj().T @ L).shape == (0, 0)


@pytest.mark.parametrize("slack", [CONTRACTION_SLACK, 1e-8])
@pytest.mark.parametrize("excess", [-2.0, -0.5, 0.5, 0.9, 1.1, 2.0])
def test_gram_guard_decides_as_require_contraction_on_tall_columns(slack, excess):
    # a 300 x 4 column of norm 1 + excess * slack, whole and split in row blocks
    rng = np.random.default_rng(21)
    M = (haar_unitary(rng, 300)[:, :4] @ np.diag([1.0 + excess * slack, 0.7, 0.4, 0.0])
         @ haar_unitary(rng, 4))
    for blocks in ((M,), (M[:1], M[1:250], M[250:])):
        if excess > 1.0:
            with pytest.raises(NotAContraction) as svd_rule:
                require_contraction(M, "Gamma", slack)
            with pytest.raises(NotAContraction) as gram_rule:
                require_gram_contraction(blocks, "Gamma", slack)
            assert str(gram_rule.value) == str(svd_rule.value)
        else:
            got = require_gram_contraction(blocks, "Gamma", slack)
            assert got == pytest.approx(require_contraction(M, "Gamma", slack), rel=1e-15)


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-77, 1.0, 1e77, 1e160, 1e300])
def test_gram_norm_is_the_svd_norm_at_every_scale(scale):
    # no Gram entry over- or underflows where the SVD of the stack does not
    rng = np.random.default_rng(22)
    blocks = [_complex_matrix(rng, 40, 3, scale / 4), _complex_matrix(rng, 2, 3, scale / 4)]
    want = np.linalg.norm(np.vstack(blocks), 2)
    assert gram_norm(blocks) == pytest.approx(want, rel=1e-14)


def test_gram_norm_of_empty_zero_and_non_finite_stacks():
    assert gram_norm((np.zeros((0, 3)), np.zeros((5, 3)))) == 0.0
    assert gram_norm((np.zeros((4, 0)),)) == 0.0
    with pytest.raises(ValueError, match="non-finite"):
        gram_norm((np.ones((3, 2)), np.array([[np.inf, 0.0]])))
    with pytest.raises(ValueError, match="non-finite"):
        gram_norm((np.array([[np.nan, 0.0]]), np.ones((3, 2))))


def _sampled_sup(A, B, C, D, radius):
    """Largest ||D + z C (I - z A)^-1 B|| on 721 points of |z| <= radius."""
    z = np.concatenate([r * np.exp(2j * np.pi * np.arange(240) / 240)
                        for r in (radius / 3, 2 * radius / 3, radius)] + [[0.0]])
    n = len(A)
    vals = [D + zi * C @ np.linalg.solve(np.eye(n) - zi * A, B) for zi in z]
    return max(np.linalg.norm(v, 2) for v in vals)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 1.0])
def test_realized_sup_bound_bounds_the_values(rho):
    # rho = 1 too: the weight sqrt(radius) keeps the Gramian finite
    rng = np.random.default_rng(23)
    U = haar_unitary(rng, 4)
    A = U @ np.diag([rho, 0.5 * rho, -0.3 * rho, 0.1j]) @ U.conj().T
    B, C, D = (_complex_matrix(rng, *s, scale=0.3) for s in ((4, 2), (3, 4), (3, 2)))
    bound = realized_sup_bound(A, B, C, D, 0.95)
    assert np.isfinite(bound)
    assert _sampled_sup(A, B, C, D, 0.95) <= bound


def test_realized_sup_bound_keeps_an_unobservable_input_at_round_off():
    # B spans an A-invariant direction that C does not see: C A^k B = 0, and
    # the bound is ||D|| to round-off, where B* P B would cancel to about
    # eps ||P|| ||B||^2 and its root to 1e-9
    rng = np.random.default_rng(24)
    U = haar_unitary(rng, 5)
    A = U @ np.diag([0.9, 0.5, -0.4, 0.3j, 0.2]) @ U.conj().T
    C = _complex_matrix(rng, 3, 5) @ np.diag([1.0, 0.0, 1.0, 1.0, 1.0]) @ U.conj().T
    B = U[:, 1:2] * 0.8
    D = _complex_matrix(rng, 3, 1, scale=1e-12)
    bound = realized_sup_bound(A, B, C, D, 0.95)
    assert bound - operator_norm(D) <= 1e-14


@pytest.mark.parametrize("A", [[[2.0]], 1.1 * np.eye(3), [[np.nan]]])
def test_realized_sup_bound_refuses_what_is_not_stable(A):
    n = len(A)
    assert realized_sup_bound(A, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)), 0.95) is None


def test_library_bases_skip_the_orthonormality_recheck(monkeypatch):
    # SVD factors need no second Gram and SVD; the public constructor keeps them
    refuse(monkeypatch, Subspace, "__post_init__")
    rng = np.random.default_rng(25)
    for M in (_complex_matrix(rng, 7, 3) @ _complex_matrix(rng, 3, 5), np.zeros((4, 0))):
        S = orthonormal_range(M)
        assert S.ambient_dim == M.shape[0] and S.basis.dtype == np.complex128
        assert operator_norm(S.basis.conj().T @ S.basis - np.eye(S.dim)) <= 1e-14
    with pytest.raises(AssertionError):
        Subspace(3, np.eye(3))


SEEDED = {
    "random_problem": lambda seed: random_problem(2, 2, 1, seed),
    "random_schur": lambda seed: random_schur(2, 2, 1, seed),
    "random_constrained_z": lambda seed: random_constrained_z(random_problem(2, 2, 1, 0), 2, seed),
    "random_multiplier": lambda seed: random_multiplier(InnerFn(2, 2), 2, 8, seed),
    "random_data_set": lambda seed: random_data_set(seed),
    "random_inner": lambda seed: random_inner(seed, 2, 1),
}


@pytest.mark.parametrize("make", SEEDED.values(), ids=SEEDED)
@pytest.mark.parametrize("seed,message", [(-1, "^seed must be non-negative, got -1$"),
                                          (2.5, "^seed must be an integer, got 2.5$"),
                                          ("3", "^seed must be an integer, got '3'$")],
                         ids=["negative", "fraction", "string"])
def test_a_seed_that_is_not_a_non_negative_integer_is_a_config_error(make, seed, message):
    with pytest.raises(ConfigError, match=message):
        make(seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**31 - 8])
def test_seeded_rng_draws_what_numpy_draws_from_the_same_integer(seed):
    want = np.random.default_rng(int(seed)).standard_normal(8)
    assert seeded_rng(seed).standard_normal(8).tobytes() == want.tobytes()
