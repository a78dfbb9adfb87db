import numpy as np
import pytest

from _support import herglotz, refuse, scalar_fixture, taylor_sum
from liftkit import lifting, modelspace, rcl
from liftkit.errors import (DimensionMismatch, DomainError, NotAContraction,
                            SingularResolvent)
from liftkit.hardy import AnalyticFn, default_grid
from liftkit.lifting import random_problem
from liftkit.linalg import operator_norm
from liftkit.schur import (Realization, SchurRealization, constrained_completion,
                           random_schur)


def shift_realization():
    # Z(lambda) = lambda, the 1-state unitary colligation [[0,1],[1,0]]
    return SchurRealization(np.zeros((1, 1)), np.eye(1), np.eye(1),
                            np.zeros((1, 1)))


def test_realization_validates_colligation():
    with pytest.raises(NotAContraction):
        SchurRealization(np.zeros((1, 1)), 1.2 * np.eye(1), np.eye(1),
                         np.zeros((1, 1)))
    with pytest.raises(DimensionMismatch):
        SchurRealization(np.zeros((1, 2)), np.eye(1), np.eye(1), np.eye(1))


def test_shift_realization_eval_and_taylor():
    Z = shift_realization()
    assert Z.eval(0.37)[0, 0] == pytest.approx(0.37)
    assert list(Z.taylor_stack(3)[:, 0, 0]) == [0.0, 1.0, 0.0, 0.0]
    with pytest.raises(DomainError):
        Z.eval(1.0)


def test_constant_realization():
    Z = SchurRealization(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)),
                         np.array([[0.3, 0.4]]))
    assert Z.state_dim == 0
    assert np.array_equal(Z.eval(0.9), np.array([[0.3, 0.4]]))
    assert operator_norm(Z.taylor_stack(3)[3]) == 0.0


def test_an_exactly_singular_resolvent_raises_singular_resolvent():
    # the colligation passes within CONTRACTION_SLACK, and I - z A is
    # exactly zero at the point z = 1 / (1 + 5e-11) of the open disk
    Z = SchurRealization([[1 + 5e-11]], [[0]], [[0]], [[0]])
    with pytest.raises(SingularResolvent):
        Z.eval(1 / (1 + 5e-11))
    assert np.array_equal(Z.eval_many([0.0, 0.5]), np.zeros((2, 1, 1)))


def test_realization_taylor_stack_matches_state_space_formula():
    Z = random_schur(2, 3, 3, seed=5, scale=0.9)
    stack = Z.taylor_stack(8)
    assert np.array_equal(stack[0], Z.D)
    direct = [Z.C @ np.linalg.matrix_power(Z.A, n - 1) @ Z.B for n in range(1, 9)]
    assert max(operator_norm(a - b) for a, b in zip(stack[1:], direct)) < 1e-14


def test_random_schur_deterministic_contractive():
    a = random_schur(2, 2, 3, seed=11)
    b = random_schur(2, 2, 3, seed=11)
    assert operator_norm(a.colligation() - b.colligation()) == 0.0
    assert operator_norm(a.colligation()) <= 1.0 + 1e-12
    assert operator_norm(random_schur(2, 2, 3, seed=1, scale=0.5).colligation()) <= 0.5 + 1e-12


@pytest.mark.parametrize("dims", [(-1, 1, 0), (1, -1, 0), (1, 1, -1)])
def test_random_schur_rejects_a_negative_size(dims):
    with pytest.raises(DimensionMismatch, match="non-negative"):
        random_schur(*dims, 0)


def test_random_schur_isometric():
    Z = random_schur(3, 2, 2, seed=3, isometric=True)
    M = Z.colligation()
    assert operator_norm(M.conj().T @ M - np.eye(4)) < 1e-12


def test_constrained_completion_restriction_is_exact():
    p = random_problem(3, 2, 2, seed=21)
    Z = constrained_completion(p)  # X = 0, the central completion
    for lam in default_grid(8).points:
        assert operator_norm(Z.eval(lam) @ p.F.basis - p.omega) < 1e-13


def test_constrained_completion_with_free_part():
    p = random_problem(3, 2, 1, seed=22, scale=0.7)
    om = p.omega
    Dstar_rank = np.linalg.matrix_rank(np.eye(5) - om @ om.conj().T)
    X = random_schur(Dstar_rank, 2, 2, seed=9)
    Z = constrained_completion(p, X)
    for lam in (0.2, -0.55 + 0.3j):
        assert operator_norm(Z.eval(lam) @ p.F.basis - p.omega) < 1e-13
        assert operator_norm(Z.eval(lam)) <= 1.0 + 1e-10


def test_constrained_completion_checks_X_dims():
    p = random_problem(2, 1, 1, seed=23)
    bad = random_schur(1, 5, 1, seed=2)
    with pytest.raises(DimensionMismatch):
        constrained_completion(p, bad)


def test_constrained_completion_unique_when_F_is_U():
    # F = U leaves no freedom: the completion is omega itself
    p = scalar_fixture()
    Z = constrained_completion(p)
    assert Z.eval(0.77)[0, 0] == pytest.approx(0.6)
    assert Z.eval(0.77)[1, 0] == pytest.approx(0.8)


def test_herglotz_scalar_value():
    C = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                         np.array([[0.5]]))
    # (1 + 0.25) / (1 - 0.25) = 5/3 at lambda = 0.5
    assert herglotz(C, [0.5])[0, 0, 0] == pytest.approx(5.0 / 3.0, abs=1e-14)
    assert herglotz(C, [0.0])[0, 0, 0] == pytest.approx(1.0)


def test_herglotz_positive_real_part():
    C = random_schur(3, 3, 2, seed=8)
    for lam in (0.3, -0.6j, 0.5 + 0.4j):
        V = herglotz(C, [lam])[0]
        herm = (V + V.conj().T) / 2
        assert np.linalg.eigvalsh(herm).min() > -1e-12


def test_herglotz_singular_resolvent():
    C = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)),
                         np.eye(1))
    with pytest.raises(SingularResolvent):
        herglotz(C, [1.0 - 1e-13])
    with pytest.raises(DomainError):
        herglotz(C, [1.0])


def test_herglotz_guard_where_the_solve_fails():
    # C = 2 I is no Schur function, but I - lambda C is exactly 0 at 1/2:
    # the LU of the right division fails and the SVD rule decides
    two = 2.0 * np.eye(2)
    C = AnalyticFn(2, 2, [two], lambda z: np.broadcast_to(two, (z.size, 2, 2)))
    with pytest.raises(SingularResolvent,
                       match=r"^I - lambda\*C\(lambda\) is numerically singular$"):
        herglotz(C, [0.1, 0.5])


def test_herglotz_requires_square():
    C = SchurRealization(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)),
                         np.array([[0.1, 0.2]]))
    with pytest.raises(DimensionMismatch):
        herglotz(C, [0.5])


def test_realization_taylor_sum_matches_eval():
    Z = random_schur(2, 2, 3, seed=31, scale=0.8)
    lam = 0.41 - 0.2j
    # coefficients decay like 0.8^n, so degree 60 reconstructs eval
    assert operator_norm(taylor_sum(Z, lam, 60) - Z.eval(lam)) < 1e-12


@pytest.mark.parametrize("n", [1, 3])
def test_a_square_input_matrix_is_one_matrix_at_every_point(n):
    # in_dim = state_dim: numpy < 2.0 would read a bare 2-d B given with a
    # stack of n matrices as n stacked vectors; P = n points is that case
    rng = np.random.default_rng(60 + n)
    A = 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    B, C, D = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
               for s in ((n, n), (2, n), (2, n)))
    R = Realization(A, B, C, D)
    pts = [0.3 + 0.1j, -0.5, 0.2j, 0.7][:n]

    def oracle(z):
        return D + z * (C @ np.linalg.solve(np.eye(n) - z * A, B))

    for z, got in zip(pts, R.eval_many(pts)):
        assert np.abs(got - oracle(z)).max() <= 1e-13
    assert np.abs(R.eval(pts[0]) - oracle(pts[0])).max() <= 1e-13
    assert np.array_equal(R.eval(pts[0]), R.eval_many(pts[:1])[0])


def test_loop_assembly_calls_no_np_block(monkeypatch):
    # every 2 x 2 block matrix of a loop or a data set is written by
    # linalg.block_2x2
    p = random_problem(3, 2, 2, seed=5)
    Z = lifting.random_constrained_z(p, 2, seed=6)
    theta = modelspace.random_inner(7, 2, 2)
    H = modelspace.random_multiplier(theta, 2, 24, seed=8)
    refuse(monkeypatch, np, "block")
    Z.colligation()
    theta.colligation()
    lifting._closed_loop(Z, 2, lifting._lambda_identity(3))
    lifting._resolvent_loop(random_schur(3, 3, 2, seed=9))
    assert modelspace._state_space_z(theta, H.realization) is not None
    rcl.random_data_set(seed=3, u=3, y=2, f=2)
