"""Lifting-data validation, the truncated isometric dilation, and the
reduction between lifting data and interpolation problems."""

import tracemalloc

import numpy as np
import pytest

from _support import DIMS, count_calls, refuse, scalar_fixture, sns_lifting, stacked
from liftkit import hardy, linalg, rcl
from liftkit.errors import (DimensionMismatch, InconsistentGenerators,
                            NotAContraction)
from liftkit.hardy import PolyOpFn, column_operator, shift
from liftkit.lifting import random_constrained_z, solve_from_Z, verify_solution
from liftkit.linalg import (CONTRACTION_SLACK, defect, gram_norm, haar_unitary,
                            operator_norm, require_gram_contraction)
from liftkit.rcl import (LiftingCandidate, RclDataSet, b_to_gamma,
                         data_set_from_omega, gamma_to_B,
                         omega_roundtrip_residual, random_data_set,
                         underlying_contraction, validate_data_set, verify_rcl)

N = 8


def tilde_set():
    return data_set_from_omega(scalar_fixture())


def test_validate_accepts_tilde_construction():
    assert validate_data_set(tilde_set())


def test_validate_accepts_an_empty_H0():
    # R*R <= Q*Q holds vacuously on a zero-dimensional H0
    ds = RclDataSet(A=0.5 * np.eye(2), Tprime=np.zeros((2, 2)),
                    R=np.zeros((2, 0)), Q=np.zeros((2, 0)))
    assert validate_data_set(ds)


def test_validate_rejects_expansive_A():
    ds = RclDataSet(A=np.array([[2.0]]), Tprime=np.zeros((1, 1)),
                    R=np.eye(1), Q=np.eye(1))
    assert not validate_data_set(ds)


def test_validate_rejects_R_dominating_Q():
    ds = RclDataSet(A=np.zeros((2, 2)), Tprime=np.zeros((2, 2)),
                    R=2 * np.eye(2), Q=np.eye(2))
    assert not validate_data_set(ds)


def test_validate_rejects_broken_intertwining():
    # T'AR = 0.15 while AQ = 0.5
    ds = RclDataSet(A=np.array([[0.5]]), Tprime=np.array([[0.3]]),
                    R=np.array([[1.0]]), Q=np.array([[1.0]]))
    assert not validate_data_set(ds)


def test_sns_scalar_zero_is_a_shift():
    U = sns_lifting(np.zeros((1, 1)), N=1)
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    assert np.allclose(U, expected, atol=1e-15)


def test_sns_unitary_has_no_tail():
    # a unitary has zero defect: the dilation adds nothing
    T = haar_unitary(np.random.default_rng(3), 3)
    U = sns_lifting(T, N=4)
    assert U.shape == (3, 3)
    assert operator_norm(U - T) == 0.0


def test_sns_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        sns_lifting(np.zeros((2, 3)), N=1)


@pytest.mark.parametrize("field", ["A", "Tprime"])
def test_defects_of_an_expansive_data_set_raise(field):
    # the defects are computed once, on first use, so the invalid set is
    # still representable; the reduction then rejects it rather than
    # working with clamped defects
    ds = random_data_set(seed=3)
    bad = RclDataSet(**{"A": ds.A, "Tprime": ds.Tprime, "R": ds.R, "Q": ds.Q,
                        field: 1.5 * getattr(ds, field)})
    assert not validate_data_set(bad)
    with pytest.raises(NotAContraction):
        underlying_contraction(bad)
    assert ds.defect_A is ds.defect_A
    assert ds.defect_Tprime is ds.defect_Tprime


@pytest.mark.parametrize("seed", range(6))
def test_sns_isometric_on_initial_blocks(seed):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = 0.9 * G / operator_norm(G)
    n = 5
    U = sns_lifting(T, N=n)
    d = defect(T)[1].dim
    assert U.shape[0] == 3 + (n + 1) * d
    # everything except the top-degree block is mapped isometrically
    keep = U[:, : 3 + n * d]
    assert operator_norm(keep.conj().T @ keep - np.eye(keep.shape[1])) <= 1e-10


def test_underlying_contraction_tilde_scalar():
    q = underlying_contraction(tilde_set())
    assert (q.U_dim, q.Y_dim, q.F.dim) == (1, 1, 1)
    # defect bases are unique up to phase, so compare magnitudes
    assert abs(q.omega1[0, 0]) == pytest.approx(0.6, abs=1e-12)
    assert abs(q.omega2[0, 0]) == pytest.approx(0.8, abs=1e-12)


def test_underlying_contraction_zero_A():
    # A = 0, T' = 0, R = Q = I: generators span everything, omega2 unitary
    ds = RclDataSet(A=np.zeros((2, 2)), Tprime=np.zeros((2, 2)),
                    R=np.eye(2), Q=np.eye(2))
    p = underlying_contraction(ds)
    assert p.U_dim == 2 and p.Y_dim == 2 and p.F.dim == 2
    assert operator_norm(p.omega1) <= 1e-14
    assert operator_norm(p.omega2.conj().T @ p.omega2 - np.eye(2)) <= 1e-12


def test_underlying_contraction_unitary_A_collapses():
    # a unitary A has no defect, so the induced problem is empty
    A = haar_unitary(np.random.default_rng(11), 2)
    ds = RclDataSet(A=A, Tprime=A, R=np.eye(2), Q=A)
    assert validate_data_set(ds)
    p = underlying_contraction(ds)
    assert p.U_dim == 0 and p.Y_dim == 0 and p.F.dim == 0


def test_underlying_contraction_inconsistent_generators():
    # D_A Q and D_A R disagree on ker-ordering-violating data: the
    # least-squares system for omega has no exact solution
    ds = RclDataSet(A=np.zeros((2, 2)), Tprime=np.zeros((2, 2)),
                    R=np.diag([0.0, 1.0]), Q=np.diag([1.0, 0.0]))
    with pytest.raises(InconsistentGenerators):
        underlying_contraction(ds)


def test_data_set_from_omega_scalar_blocks():
    ds = tilde_set()
    assert np.array_equal(ds.A, np.array([[1.0, 0.0], [0.0, 0.0]]))
    assert np.array_equal(ds.Tprime, np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert np.allclose(ds.R, np.array([[0.6], [0.8]]), atol=1e-15)
    assert np.allclose(ds.Q, np.array([[0.0], [1.0]]), atol=1e-15)
    assert operator_norm(ds.Q.conj().T @ ds.Q - np.eye(1)) <= 1e-14
    assert validate_data_set(ds)


def test_omega_roundtrip_fixture_tight():
    assert omega_roundtrip_residual(scalar_fixture()) <= 1e-12


@pytest.mark.parametrize("seed", range(20))
def test_omega_roundtrip(seed):
    from liftkit.lifting import random_problem
    u, y, f = [(2, 2, 1), (3, 2, 2), (2, 1, 1), (1, 1, 1)][seed % 4]
    p = random_problem(u, y, f, seed=700 + seed)
    assert omega_roundtrip_residual(p) <= 1e-10


def test_gamma_to_B_scalar_stack():
    cand = gamma_to_B(tilde_set(), np.array([[0.6]]), N=0)
    assert np.allclose(stacked(cand),
                       np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.6]]),
                       atol=1e-12)
    assert cand.tail.degree == 0
    assert cand.tail.out_dim == 1 and cand.tail.in_dim == 2


def test_gamma_to_B_zero_tail():
    ds = tilde_set()
    cand = gamma_to_B(ds, np.zeros((3, 1)), N=2)
    assert np.allclose(cand.A_part, ds.A, atol=1e-15)
    assert operator_norm(column_operator(cand.tail, 2)) == 0.0


def test_gamma_to_B_validates_shape_and_norm():
    ds = tilde_set()
    with pytest.raises(DimensionMismatch):
        gamma_to_B(ds, np.zeros((4, 1)), N=2)
    with pytest.raises(NotAContraction):
        gamma_to_B(ds, 1.2 * np.ones((1, 1)), N=0)
    # the row count is checked before the norm, as for a zero Gamma
    with pytest.raises(DimensionMismatch, match=r"^Gamma must have 6 rows for degree 2, got 7$"):
        gamma_to_B(random_data_set(seed=1), 1.2 * np.ones((7, 2)), N=2)


@pytest.mark.parametrize("seed", range(8))
def test_b_to_gamma_roundtrip(seed):
    ds = random_data_set(seed=seed)
    p = underlying_contraction(ds)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=seed + 50), N)
    G0 = column_operator(H, N)
    cand = gamma_to_B(ds, G0, N)
    G1 = b_to_gamma(ds, cand)
    assert operator_norm(G1 - G0) <= 1e-12
    # read from the pair (gamma, X): the multiplied-out tail, (N+1) dim D_T'
    # x dim H, is never made
    assert "tail" not in cand.__dict__


@pytest.mark.parametrize("seed", range(4))
def test_a_lifting_gives_back_a_solution_of_the_induced_problem(seed):
    # the reverse direction: B = [A; tail], its tail factored or multiplied
    # out, passes verify_rcl, and b_to_gamma's Gamma solves the induced problem
    ds = random_data_set(seed=seed)
    p = underlying_contraction(ds)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=seed + 50), N)
    cand = gamma_to_B(ds, column_operator(H, N), N)
    for B in (cand, LiftingCandidate(A_part=ds.A, tail=cand.tail)):
        assert verify_rcl(ds, B, N).ok()
        G = b_to_gamma(ds, B)
        assert verify_solution(p, PolyOpFn(p.Y_dim, p.U_dim, G.reshape(N + 1, p.Y_dim, p.U_dim)),
                               N).ok()


@pytest.mark.parametrize("y", [0, 1, 2])
def test_a_data_set_whose_A_has_no_defect_lifts_with_an_empty_gamma(y):
    # dim D_A = 0: Gamma and the candidate's gamma have no columns, and every
    # reshape of them still knows its row count
    n = 4
    ds = random_data_set(1, u=0, y=y, f=0)
    p = underlying_contraction(ds)
    assert p.U_dim == 0 and p.Y_dim == ds.defect_Tprime[1].dim == y
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=3), n)
    cand = gamma_to_B(ds, column_operator(H, n), n)
    for B in (cand, LiftingCandidate(A_part=ds.A, tail=cand.tail)):
        assert verify_rcl(ds, B, n).ok()
        assert b_to_gamma(ds, B).shape == ((n + 1) * y, 0)
    # a candidate on a zero-dimensional H
    empty = LiftingCandidate(A_part=np.zeros((2, 0)), tail=PolyOpFn(1, 0, np.zeros((n + 1, 1, 0))))
    assert empty.gamma.shape == (n + 1, 1, 0)

def test_verify_rcl_projection_residual():
    ds = tilde_set()
    cand = LiftingCandidate(A_part=0.9 * ds.A,
                            tail=PolyOpFn(1, 2, (np.zeros((1, 2)),)))
    rep = verify_rcl(ds, cand, N=0)
    assert rep.projection_residual == pytest.approx(0.1, abs=1e-14)
    assert not rep.ok()


@pytest.mark.parametrize("field", ["projection_residual", "intertwining_residual"])
def test_a_nan_rcl_residual_is_a_failure(field):
    rep = rcl.RclReport(**{"projection_residual": 0.0, "intertwining_residual": 0.0,
                           "degree": 4, field: float("nan")})
    assert rep.failures() == [f"{field} nan exceeds 1e-08"]
    assert not rep.ok()


def test_verify_rcl_degree_mismatch_raises():
    ds = tilde_set()
    cand = LiftingCandidate(A_part=ds.A, tail=PolyOpFn(1, 2, (np.zeros((1, 2)),)))
    with pytest.raises(DimensionMismatch):
        verify_rcl(ds, cand, N=5)


def test_verify_rcl_tail_block_mismatch_raises():
    ds = tilde_set()  # defect of T' is one-dimensional
    cand = LiftingCandidate(A_part=ds.A, tail=PolyOpFn(2, 2, (np.zeros((2, 2)),)))
    with pytest.raises(DimensionMismatch):
        verify_rcl(ds, cand, N=0)


def test_candidate_rejects_expansive_column():
    with pytest.raises(NotAContraction):
        LiftingCandidate(A_part=np.eye(2),
                         tail=PolyOpFn(1, 2, (np.array([[0.5, 0.0]]),)))


@pytest.mark.parametrize("excess", [-2.0, -1.1, -0.9, -0.5, 0.5, 0.9, 1.1, 2.0])
def test_gamma_to_B_guards_B_as_the_stacked_column(excess):
    # A = 0.6 I and Gamma = s V, V an isometry, give B*B = (0.36 + 0.64 s^2) I:
    # ||B|| = 1 + excess * CONTRACTION_SLACK, while Gamma clears CHECK_TOL
    m, n = 3, 4
    ds = RclDataSet(A=0.6 * np.eye(m), Tprime=np.zeros((m, m)),
                    R=np.zeros((m, 1)), Q=np.zeros((m, 1)))
    s = np.sqrt(((1.0 + excess * CONTRACTION_SLACK) ** 2 - 0.36) / 0.64)
    rng = np.random.default_rng(9)
    G = s * haar_unitary(rng, (n + 1) * m)[:, :m] @ haar_unitary(rng, m)
    DA, rA = ds.defect_A
    col = G @ (rA.basis.conj().T @ DA)
    if excess > 1.0:
        with pytest.raises(NotAContraction) as stacked:
            require_gram_contraction((ds.A, col), "lifting candidate", CONTRACTION_SLACK)
        with pytest.raises(NotAContraction) as got:
            gamma_to_B(ds, G, n)
        assert str(got.value) == str(stacked.value)
    else:
        require_gram_contraction((ds.A, col), "lifting candidate", CONTRACTION_SLACK)
        cand = gamma_to_B(ds, G, n)
        assert np.array_equal(column_operator(cand.tail, n), col)


def test_gamma_to_B_forms_one_small_gram_and_copies_no_stack(monkeypatch):
    # the high_degree size: Gamma is 4632 x 24 and B 4681 x 49
    n = 192
    ds = random_data_set(seed=5, u=24, y=24, f=12)
    q = underlying_contraction(ds)
    G = column_operator(solve_from_Z(q, random_constrained_z(q, 2, seed=6, scale=0.5), n), n)
    want = LiftingCandidate(A_part=ds.A, tail=gamma_to_B(ds, G, n).tail)
    grams = count_calls(monkeypatch, linalg, "_gram")
    refuse(monkeypatch, hardy, "_coeff_stack")
    cand = gamma_to_B(ds, G, n)
    assert len(grams) == 1 and grams[0][0][0] is G
    rep = verify_rcl(ds, cand, n)
    assert "tail" not in cand.__dict__
    assert np.array_equal(cand.tail.taylor_stack(n), want.tail.taylor_stack(n))
    assert rep == rcl.RclReport(0.0, gram_norm(_factored_difference(ds, cand, n)), n)


def test_gamma_to_B_keeps_a_read_only_gamma_and_copies_a_writable_one():
    n = 8
    ds = random_data_set(seed=2)
    q = underlying_contraction(ds)
    G = column_operator(solve_from_Z(q, random_constrained_z(q, 2, seed=3), n), n)
    assert not G.flags.writeable
    kept = gamma_to_B(ds, G, n)
    assert np.shares_memory(kept.gamma, G)
    W = G.copy()
    cand = gamma_to_B(ds, W, n)
    assert not np.shares_memory(cand.gamma, W)
    # the tail is formed, and the lifting checked, after the caller's Gamma changed
    W[...] = 0.0
    assert not (cand.gamma.flags.writeable or cand.X.flags.writeable)
    assert np.array_equal(cand.tail.taylor_stack(n), kept.tail.taylor_stack(n))
    assert verify_rcl(ds, cand, n) == verify_rcl(ds, kept, n)


def test_a_candidate_from_a_tail_is_its_column_times_the_identity():
    tail = PolyOpFn(1, 2, (np.array([[0.0, 0.3]]), np.array([[0.0, 0.4]])))
    cand = LiftingCandidate(A_part=tilde_set().A, tail=tail)
    assert cand.tail is tail and np.shares_memory(cand.gamma, tail.taylor_stack(1))
    assert np.array_equal(cand.X, np.eye(2)) and not cand.X.flags.writeable


def test_lifting_path_allocates_within_two_and_a_half_columns():
    # the high_degree size: the column of H is 4632 x 24, 1.8 MB; the factored
    # tail makes no 4632 x 49 array, and the column is a view of H's stack
    n = 192
    ds = random_data_set(seed=5, u=24, y=24, f=12)
    q = underlying_contraction(ds)
    H = solve_from_Z(q, random_constrained_z(q, 2, seed=6, scale=0.5), n)
    column = 16 * (n + 1) * H.out_dim * H.in_dim
    tracemalloc.start()
    try:
        rep = verify_rcl(ds, gamma_to_B(ds, column_operator(H, n), n), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok()
    assert peak <= 2.5 * column


@pytest.mark.parametrize("seed", range(10))
def test_random_data_set_validates(seed):
    ds = random_data_set(seed=seed)
    assert validate_data_set(ds)
    again = random_data_set(seed=seed)
    assert operator_norm(ds.A - again.A) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_lifting_equivalence_positive(seed):
    # a solution of the induced problem embeds to a candidate that passes
    ds = random_data_set(seed=300 + seed)
    p = underlying_contraction(ds)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=400 + seed), N)
    cand = gamma_to_B(ds, column_operator(H, N), N)
    rep = verify_rcl(ds, cand, N)
    assert rep.ok(), (rep.projection_residual, rep.intertwining_residual)


@pytest.mark.parametrize("seed", range(10))
def test_lifting_equivalence_negative(seed):
    # perturbing Gamma breaks the contraction bound or the intertwining
    ds = random_data_set(seed=300 + seed)
    p = underlying_contraction(ds)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=400 + seed), N)
    G0 = column_operator(H, N)
    rng = np.random.default_rng(500 + seed)
    bad = G0 + 1e-2 * (rng.standard_normal(G0.shape)
                       + 1j * rng.standard_normal(G0.shape))
    try:
        cand = gamma_to_B(ds, bad, N)
    except NotAContraction:
        return
    assert not verify_rcl(ds, cand, N).ok()


@pytest.mark.parametrize("seed,f", [(11, 0), (12, 0), (13, 1), (14, 2)])
@pytest.mark.parametrize("perturb", [0.0, 1e-2])
def test_verify_rcl_matches_dense_lifting(seed, f, perturb):
    # the blockwise lifting gives the residuals of the dense U' = sns_lifting
    n = 6
    ds = random_data_set(seed=seed, u=3, y=2, f=f)
    p = underlying_contraction(ds)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=seed + 1), n)
    G = column_operator(H, n)
    rng = np.random.default_rng(seed + 2)
    G = G + perturb * (rng.standard_normal(G.shape)
                       + 1j * rng.standard_normal(G.shape))
    cand = gamma_to_B(ds, G / max(1.0, operator_norm(G)), n)
    rep = verify_rcl(ds, cand, n)
    B = stacked(cand)
    keep = ds.Hprime_dim + n * cand.tail.out_dim
    dense = operator_norm((sns_lifting(ds.Tprime, n) @ B @ ds.R
                           - B @ ds.Q)[:keep])
    assert abs(rep.intertwining_residual - dense) <= 1e-13
    if perturb and f:
        # with f = 0 only the unitary padding block meets R and Q
        assert rep.intertwining_residual > 1e-4


def _factored_rows(cand, M) -> tuple:
    """(A_part M, tail rows of B M) with the tail kept factored: gamma (X M)."""
    col = cand.gamma.reshape(-1, cand.gamma.shape[2])
    return cand.A_part @ M, col @ (cand.X @ M)


def _factored_difference(ds, cand, n: int) -> tuple:
    """(H' row, tail blocks 0..n-1) of U' B R - B Q, the shifted U' B R,
    concatenated, minus B Q, from the factored tail."""
    (AR, tail_R), (AQ, tail_Q) = _factored_rows(cand, ds.R), _factored_rows(cand, ds.Q)
    (D, drange), keep = ds.defect_Tprime, n * ds.defect_Tprime[1].dim
    shifted = np.concatenate(((drange.basis.conj().T @ D) @ AR, tail_R))
    return ds.Tprime @ AR - AQ, shifted[:keep] - tail_Q[:keep]


def _lifting_case(seed: int, dims: tuple, n: int, perturb: float):
    """(ds, candidate) from a solution of the induced problem, its column
    perturbed by perturb and scaled back into the unit ball."""
    ds = random_data_set(seed=seed, u=dims[0], y=dims[1], f=dims[2])
    q = underlying_contraction(ds)
    G = column_operator(solve_from_Z(q, random_constrained_z(q, 2, seed=seed + 1, scale=0.5), n), n)
    rng = np.random.default_rng(seed + 2)
    G = G + perturb * (rng.standard_normal(G.shape) + 1j * rng.standard_normal(G.shape))
    return ds, gamma_to_B(ds, G / max(1.0, operator_norm(G)), n)


@pytest.mark.parametrize("dims,n", [(d, 24) for d in DIMS] + [((2, 2, 1), 0), ((2, 2, 1), 1)]
                         + [((8, 8, 4), 192), ((16, 16, 8), 192), ((24, 24, 12), 192)])
def test_intertwining_tail_block_has_the_bits_of_the_difference_of_its_parts(monkeypatch, dims, n):
    # oracle: the shifted U' B R, concatenated, minus B Q, on tail blocks 0..n-1
    ds, cand = _lifting_case(sum(dims) + n, dims, n, 1e-3)
    calls = count_calls(monkeypatch, rcl, "gram_norm")
    rep = verify_rcl(ds, cand, n)
    [((top, got),)] = calls
    want_top, want = _factored_difference(ds, cand, n)
    assert np.array_equal(top, want_top) and np.array_equal(got, want)
    assert rep.intertwining_residual == gram_norm((top, want))


@pytest.mark.parametrize("dims,n", [(d, 24) for d in DIMS]
                         + [((8, 8, 4), 192), ((16, 16, 8), 192), ((24, 24, 12), 192)])
def test_factored_and_multiplied_out_tails_give_the_same_residual(dims, n):
    # the tail column Gamma X, multiplied out, is the pair (Gamma X, I)
    ds, cand = _lifting_case(sum(dims) + n, dims, n, 1e-3)
    whole = LiftingCandidate(A_part=cand.A_part, tail=cand.tail)
    got, want = verify_rcl(ds, cand, n), verify_rcl(ds, whole, n)
    assert got.projection_residual == want.projection_residual
    assert abs(got.intertwining_residual - want.intertwining_residual) <= 1e-16


def test_lifting_checks_decompose_no_tall_matrix(monkeypatch):
    # the high_degree size: Gamma has 4632 rows and 24 columns, B 4681 and 49
    n = 192
    ds = random_data_set(seed=5, u=24, y=24, f=12)
    q = underlying_contraction(ds)
    G = column_operator(solve_from_Z(q, random_constrained_z(q, 2, seed=6, scale=0.5), n), n)
    calls = count_calls(monkeypatch, np.linalg, "svd")
    rep = verify_rcl(ds, gamma_to_B(ds, G, n), n)
    assert rep.ok()
    assert calls and all(M.shape[-2] <= 2 * M.shape[-1] for M, *_ in calls)


@pytest.mark.parametrize("dims,n", [((1, 1, 1), 24), ((2, 2, 1), 24), ((3, 2, 2), 24),
                                    ((5, 3, 4), 24), ((8, 8, 4), 192)])
@pytest.mark.parametrize("perturb", [0.0, 1e-3])
def test_intertwining_residual_is_the_svd_norm_of_the_stacked_difference(dims, n, perturb):
    # the SVD of U' B R - B Q, formed from the stacked B R and B Q (the tail
    # rows from the factored tail), on H' and blocks 0..n-1
    for seed in (31, 32, 33):
        ds, cand = _lifting_case(seed, dims, n, perturb)
        X, BQ = (np.vstack(_factored_rows(cand, M)) for M in (ds.R, ds.Q))
        D, drange = ds.defect_Tprime
        hp, d = ds.Hprime_dim, drange.dim
        tail = shift(X[hp:], d)
        tail[:d] += (drange.basis.conj().T @ D) @ X[:hp]
        diff = np.vstack([ds.Tprime @ X[:hp], tail]) - BQ
        want = np.linalg.norm(diff[:hp + n * d], 2)
        got = verify_rcl(ds, cand, n).intertwining_residual
        assert abs(got - want) <= 1e-12 * want
