"""Tests for the interpolation core: solve, verify, fiber extraction."""

import re
from dataclasses import fields

import numpy as np
import pytest

from _support import (DIMS, assert_rel_close, coeff_diff, count_calls, refuse,
                      resolvent_loop_oracle, scalar_fixture, taylor_sum, unconstrained_problem,
                      wrong_beyond_degree)
from liftkit import hardy, lifting, schur, series
from liftkit.errors import (ConstraintViolated, DimensionMismatch,
                            NotAContraction, NotASolution,
                            WNotNormalizedAtZero)
from liftkit.hardy import GRID, AnalyticFn, PolyOpFn, column_operator, default_grid
from liftkit.lifting import (CHECK_TOL, InterpolationProblem, _feedback, _lambda_identity,
                             central_C, fiber_roundtrip_residuals, omega_hat,
                             parameter_membership, random_constrained_z,
                             random_problem, solve_from_Z,
                             uniqueness_certificate, verify_solution, z_from_C)
from liftkit.linalg import (ROUNDOFF, Subspace, haar_unitary, hermitian_sqrt_psd, operator_norm,
                            orthonormal_range, realized_sup_bound)
from liftkit.modelspace import InnerFn, h_from_Z_theta, model_space, z_from_H_theta
from liftkit.rcl import random_data_set, underlying_contraction
from liftkit.schur import Realization, SchurRealization, random_schur

N = 24


def test_problem_rejects_expansive_omega():
    with pytest.raises(NotAContraction):
        InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                             omega1=np.array([[0.9]]), omega2=np.array([[0.9]]))


def test_problem_rejects_mismatched_F():
    with pytest.raises(DimensionMismatch):
        InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(3, np.eye(3)),
                             omega1=np.zeros((1, 3)), omega2=np.zeros((2, 3)))


def test_omega_property_stacks():
    p = scalar_fixture()
    assert np.array_equal(p.omega, np.array([[0.6], [0.8]]))


def test_scalar_fixture_closed_form():
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=1), N)
    worst = max(abs(H.coeff(n)[0, 0] - 0.6 * 0.8 ** n) for n in range(N + 1))
    assert worst < 1e-12
    rep = verify_solution(p, H, N)
    assert rep.ok()
    # solutions live in the H^2 ball, not the sup-norm ball: the fixture
    # peaks at 0.6 / (1 - 0.8 * 0.95) = 2.5 on the outer grid circle
    assert rep.grid_sup_norm == pytest.approx(2.4973801295543843, abs=1e-12)
    assert rep.partial_gram_excess == 0.0


def test_solve_rejects_wrong_dims():
    p = scalar_fixture()
    Z = random_schur(3, 2, 1, seed=0)
    with pytest.raises(DimensionMismatch):
        solve_from_Z(p, Z, N)


def test_solve_rejects_unconstrained_Z():
    # a generic Schur function does not restrict to omega on F
    p = scalar_fixture()
    Z = random_schur(2, 1, 2, seed=14, scale=0.4)
    with pytest.raises(ConstraintViolated):
        solve_from_Z(p, Z, N)


def _certified_parameters(u: int, y: int, f: int, n: int, seed: int):
    """(problem, parameter) pairs of one solve -> fiber -> lifting pipeline:
    Z, the central Z_C of its solution and the induced problem's Zq."""
    p = random_problem(u, y, f, seed, scale=0.45)
    Z = random_constrained_z(p, 2, seed + 1, scale=0.5)
    H = solve_from_Z(p, Z, n)
    G = column_operator(H, n)
    Z1 = z_from_C(p, H, G, central_C(p, G), n)
    assert isinstance(Z1, Realization)
    q = underlying_contraction(random_data_set(seed + 2, u=u, y=y, f=f))
    return [(p, Z), (p, Z1), (q, random_constrained_z(q, 2, seed + 3, scale=0.5))]


@pytest.mark.parametrize("dims,n", [(d, N) for d in DIMS]
                         + [(d, 192) for d in [(8, 8, 4), (16, 16, 8), (24, 24, 12)]])
def test_solve_never_evaluates_a_certified_parameter(monkeypatch, dims, n):
    # the Gramian bound clears the constraint, so no value of Z is taken
    cases = _certified_parameters(*dims, n, seed=sum(dims) + n)
    want = [_feedback(Z, p.Y_dim, _lambda_identity(p.U_dim), n).taylor_stack(n) for p, Z in cases]
    refuse(monkeypatch, Realization, "eval_many", "_values")
    for (p, Z), w in zip(cases, want):
        assert solve_from_Z(p, Z, n).taylor_stack(n).tobytes() == w.tobytes()


def _grid_miss(p, Z) -> float:
    """The largest ||Z(z)|_F - omega|| over GRID, one point at a time."""
    return max(np.linalg.norm(Z.eval(z) @ p.F.basis - p.omega, 2) for z in GRID)


def _missing_by(p, Z, miss: float, A=None) -> Realization:
    """Z with D moved by miss on F's first basis vector, and A replaced if given."""
    e = np.zeros((p.Y_dim + p.U_dim, 1))
    e[0] = miss
    return Realization(Z.A if A is None else A, Z.B, Z.C, Z.D + e @ p.F.basis[:, :1].conj().T)


@pytest.mark.parametrize("miss", [2.0, 1.01])
def test_a_parameter_missing_the_constraint_raises_its_grid_residual(monkeypatch, miss):
    p = random_problem(3, 2, 2, seed=51, scale=0.45)
    Z = _missing_by(p, random_constrained_z(p, 2, seed=52, scale=0.5), miss * CHECK_TOL)
    worst = _grid_miss(p, Z)
    assert worst > CHECK_TOL
    calls = count_calls(monkeypatch, Realization, "eval_many")
    with pytest.raises(ConstraintViolated,
                       match=re.escape(f"Z|_F differs from omega by {worst:.3e} on the grid")):
        solve_from_Z(p, Z, N)
    assert len(calls) == 1


@pytest.mark.parametrize("miss,checked", [(0.99, True), (0.4, False)])
def test_a_parameter_within_the_constraint_is_solved_as_before(monkeypatch, miss, checked):
    # a miss below CHECK_TOL / 2 is certified, one above is checked on GRID
    p = random_problem(3, 2, 2, seed=51, scale=0.45)
    Z = _missing_by(p, random_constrained_z(p, 2, seed=52, scale=0.5), miss * CHECK_TOL)
    assert _grid_miss(p, Z) <= CHECK_TOL
    calls = count_calls(monkeypatch, Realization, "eval_many")
    got = solve_from_Z(p, Z, N).taylor_stack(N)
    assert len(calls) == int(checked)
    assert got.tobytes() == _feedback(Z, 2, _lambda_identity(3), N).taylor_stack(N).tobytes()


def test_a_parameter_without_a_gramian_is_checked_on_the_grid(monkeypatch):
    # A = 2 I: the weighted Gramian of (sqrt(0.95) A, C) overflows, so there
    # is no bound; Z(lambda)|_F is still omega, its poles at 1/2 off GRID
    p = random_problem(3, 2, 2, seed=53, scale=0.45)
    Z0 = random_constrained_z(p, 2, seed=54, scale=0.5)
    for miss in (0.0, 2.0 * CHECK_TOL):
        Z = _missing_by(p, Z0, miss, A=2.0 * np.eye(2))
        assert realized_sup_bound(Z.A, Z.B @ p.F.basis, Z.C, Z.D @ p.F.basis - p.omega,
                                  0.95) is None
        worst = _grid_miss(p, Z)
        want = _feedback(Z, 2, _lambda_identity(3), N).taylor_stack(N)
        calls = count_calls(monkeypatch, Realization, "eval_many")
        if miss:
            with pytest.raises(ConstraintViolated,
                               match=re.escape(f"differs from omega by {worst:.3e} on")):
                solve_from_Z(p, Z, N)
        else:
            assert worst <= 1e-14
            assert solve_from_Z(p, Z, N).taylor_stack(N).tobytes() == want.tobytes()
        assert len(calls) == 1
        monkeypatch.undo()


def test_verify_reports_do_not_throw():
    p = scalar_fixture()
    zero = PolyOpFn(1, 1, (np.zeros((1, 1)),))
    rep = verify_solution(p, zero, N)
    # H = 0 misses omega1 by exactly |0.6|
    assert rep.recurrence_residual == pytest.approx(0.6)
    assert not rep.ok()


@pytest.mark.parametrize("field,tol", [("recurrence_residual", "1e-09"),
                                       ("partial_gram_excess", "1e-08")])
def test_a_nan_solution_residual_is_a_failure(field, tol):
    rep = lifting.SolutionReport(**{"recurrence_residual": 0.0, "partial_gram_excess": 0.0,
                                    "grid_sup_norm": 0.0, "degree": 4, field: float("nan")})
    assert rep.failures() == [f"{field} nan exceeds {tol}"]
    assert not rep.ok()


def test_verify_gram_excess():
    p = unconstrained_problem(1, 1)
    H = PolyOpFn(1, 1, (np.array([[1.1]]),))
    rep = verify_solution(p, H, 4)
    assert rep.recurrence_residual == 0.0  # no constraint when F = 0
    assert rep.partial_gram_excess == pytest.approx(0.21, abs=1e-12)


def test_partial_gram_monotone_in_degree():
    p = random_problem(3, 2, 2, seed=1)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=2), 30)
    prev = np.zeros((3, 3))
    for n in range(31):
        c = H.coeff(n)
        cur = prev + c.conj().T @ c
        assert np.linalg.eigvalsh(cur - prev).min() >= -1e-14
        prev = cur
    assert np.linalg.eigvalsh(prev).max() <= 1.0 + 1e-8


@pytest.mark.parametrize("seed", range(10))
def test_solutions_verify(seed):
    u, y, f = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2)][seed % 5]
    p = random_problem(u, y, f, seed=100 + seed)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=200 + seed), N)
    rep = verify_solution(p, H, N)
    assert rep.recurrence_residual <= 1e-9
    assert rep.partial_gram_excess <= 1e-8


def _coefficients(H) -> PolyOpFn:
    """H's stored coefficients with no loop, which verify reads to H's degree."""
    return PolyOpFn(H.out_dim, H.in_dim, H.coeffs)


@pytest.mark.parametrize("dims", DIMS[:5])
def test_verify_rejects_a_loop_that_is_wrong_only_beyond_its_degree(dims):
    p = random_problem(*dims, seed=31)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=32), N)
    bad = wrong_beyond_degree(H, N, 1e-3)
    assert operator_norm((bad.realization.taylor_stack(N + 1)
                          - H.realization.taylor_stack(N + 1)).reshape(-1, p.U_dim)) <= 1e-15
    # its coefficients to degree N are a solution's, so they pass
    assert verify_solution(p, _coefficients(bad), N).ok()
    rep = verify_solution(p, bad, N)
    assert rep.recurrence_residual >= 1e-3 * operator_norm(p.F.basis[:1]) - 1e-15
    assert not rep.ok()


def _realized_and_truncated(p, H, n):
    """verify_solution of a realized H and of its coefficients 0..n."""
    return verify_solution(p, H, n), verify_solution(p, _coefficients(H), n)


@pytest.mark.parametrize("dims,n", [(d, 24) for d in DIMS]
                         + [(d, 192) for d in ((8, 8, 4), (16, 16, 8), (24, 24, 12))])
def test_realized_residuals_bound_the_truncated_ones(dims, n):
    p = random_problem(*dims, seed=41, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=42, scale=0.5), n)
    exact, cut = _realized_and_truncated(p, H, n)
    assert exact.recurrence_residual >= cut.recurrence_residual - 1e-15
    assert exact.partial_gram_excess >= cut.partial_gram_excess - 1e-15
    assert exact.grid_sup_norm == cut.grid_sup_norm
    assert exact.ok() and cut.ok()
    # a coefficient of norm 2 at degree n + 2 only the realized checks see
    exact, cut = _realized_and_truncated(p, wrong_beyond_degree(H, n, 2.0), n)
    assert cut.ok() and exact.partial_gram_excess >= 3.0 - 1e-12
    assert exact.recurrence_residual >= 2.0 * operator_norm(p.F.basis[:1]) - 1e-12


@pytest.mark.parametrize("dims,n", [((2, 2, 1), 24), ((24, 24, 12), 192)])
def test_verify_of_a_realized_h_reads_no_coefficient_stack(monkeypatch, dims, n):
    p = random_problem(*dims, seed=43, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=44, scale=0.5), n)
    want = verify_solution(p, _coefficients(H), n)
    refuse(monkeypatch, PolyOpFn, "taylor_stack")
    calls = count_calls(monkeypatch, lifting, "operator_norms")
    rep = verify_solution(p, H, n)
    assert rep.ok() and rep.grid_sup_norm == want.grid_sup_norm
    assert calls and all(len(args[0]) <= 64 for args in calls)


def test_verify_reads_the_coefficients_of_a_loop_below_degree_n_or_with_no_root():
    p = random_problem(2, 2, 1, seed=3, scale=0.45)
    low = solve_from_Z(p, random_constrained_z(p, 2, seed=4, scale=0.5), 10)
    u, y = p.U_dim, p.Y_dim
    # A = I has no gramian_root; its coefficients past degree 0 vanish
    still = Realization(np.eye(1), np.zeros((1, u)), np.zeros((y, 1)), low.coeff(0)).truncated(N)
    for H in (low, still):
        assert verify_solution(p, H, N) == verify_solution(p, _coefficients(H), N)
    # the padded H misses the recurrence at degree 11
    assert not verify_solution(p, low, N).ok()


def test_omega_is_built_once_read_only_and_not_a_field():
    p = random_problem(3, 2, 2, seed=1)
    assert p.omega is p.omega and not p.omega.flags.writeable
    assert np.array_equal(p.omega, np.vstack([p.omega1, p.omega2]))
    assert [f.name for f in fields(p)] == ["U_dim", "Y_dim", "F", "omega1", "omega2"]


def test_z_from_C_forms_the_gram_of_gamma_once(monkeypatch):
    p = random_problem(3, 2, 2, seed=5, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=6, scale=0.5), N)
    Gamma = column_operator(H, N)
    C = central_C(p, Gamma)
    want = z_from_C(p, H, Gamma, C, N)
    assert not hasattr(lifting, "defect")
    grams = count_calls(monkeypatch, lifting, "gram_defect")
    zeros = count_calls(monkeypatch, lifting, "_w_zero")
    got = z_from_C(p, H, Gamma, C, N)
    assert len(grams) == len(zeros) == 1 and grams[0][0] is zeros[0][0]
    assert np.array_equal(got.taylor_stack(N), want.taylor_stack(N))


def test_assembled_loops_skip_the_finiteness_scans(monkeypatch):
    # a loop built from checked loops is not scanned again, and a computed
    # stack is not copied: refused here, the scans and the copy would raise
    p = random_problem(3, 2, 2, seed=7, scale=0.45)
    Z = random_constrained_z(p, 2, seed=8, scale=0.5)
    H = solve_from_Z(p, Z, N)
    Gamma = column_operator(H, N)
    C = central_C(p, Gamma)
    Z1 = z_from_C(p, H, Gamma, C, N)
    want = [H.taylor_stack(N), Z1.taylor_stack(N), solve_from_Z(p, Z1, N).taylor_stack(N)]
    refuse(monkeypatch, schur, "as_operator")
    refuse(monkeypatch, hardy, "_coeff_stack")
    H = solve_from_Z(p, Z, N)
    Z1 = z_from_C(p, H, Gamma, C, N)
    got = [H.taylor_stack(N), Z1.taylor_stack(N), solve_from_Z(p, Z1, N).taylor_stack(N)]
    assert isinstance(Z1, Realization)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_omega_hat_scalar_fixture():
    # D_Gamma = 0.8^25 is tiny but above the rank floor: F_Gamma is a line
    # and the extracted corner is exactly omega2 = 0.8
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=3), N)
    Om, FG = omega_hat(p, column_operator(H, N))
    assert FG.dim == 1
    assert Om.shape == (1, 1)
    assert abs(Om[0, 0]) == pytest.approx(0.8, abs=1e-9)


def test_omega_hat_collapses_for_near_isometric_column():
    # at N = 130 the defect 0.8^131 sits below the round-off floor and the
    # defect space is empty
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=3), 130)
    Om, FG = omega_hat(p, column_operator(H, 130))
    assert FG.dim == 0
    assert Om.shape == (0, 0)


def test_omega_hat_zero_solution():
    # omega = 0 is solved by H = 0; Gamma = 0 has full defect and Omega = 0
    p = InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(2, np.eye(2, 1)),
                             omega1=np.zeros((1, 1)), omega2=np.zeros((2, 1)))
    Om, FG = omega_hat(p, np.zeros((5, 2)))
    assert FG.dim == 1
    assert operator_norm(Om) == 0.0


def test_omega_hat_rejects_expansive_gamma():
    p = scalar_fixture()
    with pytest.raises(NotASolution):
        omega_hat(p, 1.2 * np.ones((1, 1)))


def _column_of_norm(target):
    Q = np.linalg.qr(np.random.default_rng(9).standard_normal((N + 1, 2)))[0]
    return target * Q


@pytest.mark.parametrize("excess", [3e-9, 5e-9])
def test_gamma_within_the_solution_slack_is_accepted(excess):
    # above the 1e-9 slack of linalg.defect but inside the 1e-8 slack of
    # omega_hat and central_C, which keep accepting such a column
    p = InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(2, np.zeros((2, 0))),
                             omega1=np.zeros((1, 0)), omega2=np.zeros((2, 0)))
    G = _column_of_norm(1.0 + excess)
    Om, FG = omega_hat(p, G)
    assert Om.shape == (0, 0) and FG.dim == 0
    assert central_C(p, G).out_dim == 0
    with pytest.raises(NotASolution):
        omega_hat(p, _column_of_norm(1.0 + 2e-8))


def test_gamma_norm_guard_reads_the_gram_of_a_tall_column(monkeypatch):
    # the candidate column's guard comes from its defect, whose Gram gives
    # 1 - ||Gamma||^2, so the tall column itself is never decomposed
    p = random_problem(3, 2, 2, seed=31, scale=0.6)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=32, scale=0.5), N)
    G = column_operator(H, N)
    expansive = G * ((1.0 + 2e-8) / operator_norm(G))
    shapes = []
    svd = np.linalg.svd

    def recording_svd(A, *args, **kwargs):
        shapes.append(A.shape)
        return svd(A, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    central_C(p, G)
    with pytest.raises(NotASolution, match=r"^candidate column: operator norm "
                                           r"1\.000000e\+00 exceeds 1 \+ 1e-08$"):
        omega_hat(p, expansive)
    assert G.shape == ((N + 1) * 2, 3)
    assert shapes and all(shape[0] <= 3 for shape in shapes)


@pytest.mark.parametrize("excess,error", [(7e-9, WNotNormalizedAtZero),
                                          (2e-8, NotAContraction)])
def test_z_from_C_rejects_an_expansive_gamma(excess, error):
    # W(0) = Gamma*Gamma + D^2 misses I by about 2 * excess first; beyond
    # 1 + 1e-8 the defect itself rejects the column
    p = InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(2, np.zeros((2, 0))),
                             omega1=np.zeros((1, 0)), omega2=np.zeros((2, 0)))
    G = _column_of_norm(1.0 + excess)
    H = PolyOpFn(1, 2, G.reshape(N + 1, 1, 2))
    with pytest.raises(error):
        z_from_C(p, H, G, central_C(p, _column_of_norm(1.0)), N)


def test_central_C_membership():
    p = random_problem(3, 2, 2, seed=31, scale=0.6)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=32, scale=0.5), N)
    G = column_operator(H, N)
    C = central_C(p, G)
    assert parameter_membership(C, p, G)


def test_zero_C_fails_membership_when_omega_hat_nonzero():
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=3), N)
    G = column_operator(H, N)
    zero = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)),
                            np.zeros((1, 0)), np.zeros((1, 1)))
    assert not parameter_membership(zero, p, G)


def test_parameter_membership_checks_dims():
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=3), N)
    G = column_operator(H, N)
    big = random_schur(4, 4, 1, seed=0)
    with pytest.raises(DimensionMismatch):
        parameter_membership(big, p, G)


def fiber_parameter(p, solver_seed, n=N):
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=solver_seed, scale=0.5), n)
    G = column_operator(H, n)
    return H, G, z_from_C(p, H, G, central_C(p, G), n)


def test_fiber_roundtrip_scalar_fixture():
    # the truncated column is nearly isometric, so Z differs from omega on
    # the grid by the Taylor tail (~0.8^N), more than the constraint check
    # allows; the recursion itself is exact and the unchecked re-solve
    # matches to round-off
    p = scalar_fixture()
    H, G, Z1 = fiber_parameter(p, 5)
    H1 = _feedback(Z1, p.Y_dim, _lambda_identity(p.U_dim), N)
    assert coeff_diff(H, H1, N) < 1e-8
    assert Z1.meta["w0_residual"] <= 1e-10


def test_fiber_roundtrip_random():
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    H, G, Z1 = fiber_parameter(p, 42)
    H1 = solve_from_Z(p, Z1, N)
    assert coeff_diff(H, H1, N - 4) < 1e-7


def test_fiber_roundtrip_evaluates_the_parameter_once(monkeypatch):
    # Z_C is evaluated on GRID by the constraint check of the second solve,
    # whose worst residual is the reported constraint; Z, a SchurRealization,
    # is evaluated by the first solve and not counted
    calls = []
    eval_many = Realization.eval_many

    def counting_eval_many(self, points):
        if not isinstance(self, SchurRealization):
            calls.append(len(points))
        return eval_many(self, points)

    monkeypatch.setattr(Realization, "eval_many", counting_eval_many)
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    Z = random_constrained_z(p, 2, seed=42, scale=0.5)
    gap, constraint, _ = fiber_roundtrip_residuals(p, Z, N)
    assert calls == [len(GRID)]
    assert gap < 1e-7 and constraint <= 1e-8


def test_fiber_roundtrip_reads_the_exact_column_of_a_realized_H(monkeypatch):
    # one _fiber_z call, from the Gram of R = [D; L B] for H's loop: no
    # degree-N column and no H for a coefficient path
    calls = count_calls(monkeypatch, lifting, "_fiber_z")
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    gap, constraint, w0 = fiber_roundtrip_residuals(p, random_constrained_z(p, 2, seed=42), 4)
    (_, gram, C, loop, H, _), = calls
    R = np.vstack([loop.D, loop.gramian_root @ loop.B])
    assert np.array_equal(gram, R.conj().T @ R)
    assert C is None and H is None
    assert max(gap, constraint, w0) <= 1e-14


def test_fiber_roundtrip_falls_back_to_the_column_for_an_unstable_z_c(monkeypatch):
    # omega = [0; V] on F = U with V unitary has the one solution H = 0; the
    # central C is V, so Z_C's loop is not stable and the coefficient path
    # of H's degree-N column gives Z_C
    V = haar_unitary(np.random.default_rng(0), 2)
    p = InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(2, np.eye(2)),
                             omega1=np.zeros((1, 2)), omega2=V)
    calls = count_calls(monkeypatch, lifting, "_fiber_z")
    gap, constraint, w0 = fiber_roundtrip_residuals(p, random_constrained_z(p, 2, seed=1), 8)
    assert [call[3] is None for call in calls] == [False, True]
    assert not calls[1][1].any() and calls[1][4].degree == 8
    assert gap == 0.0 and w0 == 0.0 and constraint <= 1e-14


def test_z_from_C_constraint_invariance():
    # Z_C restricted to F reproduces omega on the whole grid
    for seed in range(3):
        p = random_problem(2, 2, 1, seed=50 + seed, scale=0.45)
        _, _, Z1 = fiber_parameter(p, 60 + seed)
        worst = max(operator_norm(Z1.eval(z) @ p.F.basis - p.omega)
                    for z in default_grid(N).points)
        assert worst < 1e-8


def test_z_from_C_trivial_zero_instance():
    p = InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(2, np.eye(2, 1)),
                             omega1=np.zeros((1, 1)), omega2=np.zeros((2, 1)))
    H = PolyOpFn(1, 2, (np.zeros((1, 2)),) * (N + 1))
    G = np.zeros(((N + 1), 2))
    C = central_C(p, G)
    Z = z_from_C(p, H, G, C, N)
    assert max(operator_norm(c) for c in Z.taylor_stack(N)) == 0.0
    assert operator_norm(Z.eval(0.35)) < 1e-14


def test_z_from_C_checks_C_dims():
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=3), N)
    G = column_operator(H, N)
    with pytest.raises(DimensionMismatch):
        z_from_C(p, H, G, random_schur(3, 3, 1, seed=0), N)


def test_verify_and_z_from_C_check_the_dimensions_of_H():
    p = random_problem(3, 2, 2, seed=5, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=6, scale=0.5), N)
    G = column_operator(H, N)
    wide = PolyOpFn(p.Y_dim, p.U_dim + 1, np.zeros((N + 1, p.Y_dim, p.U_dim + 1)))
    tall = PolyOpFn(p.Y_dim + 1, p.U_dim, np.zeros((N + 1, p.Y_dim + 1, p.U_dim)))
    for bad in (wide, tall):
        with pytest.raises(DimensionMismatch, match="^H has wrong dimensions"):
            verify_solution(p, bad, N)
        with pytest.raises(DimensionMismatch, match="^H has wrong dimensions"):
            z_from_C(p, bad, G, central_C(p, G), N)


def test_central_C_checks_that_gamma_rows_fill_blocks_of_Y():
    p = random_problem(3, 2, 2, seed=5, scale=0.45)
    with pytest.raises(DimensionMismatch, match="^Gamma rows are not a multiple of Y_dim$"):
        central_C(p, np.zeros((2 * N + 1, 3)))


def test_an_unstable_inverse_falls_back_to_the_coefficient_path(monkeypatch):
    # rho(Ax) >= 1 (here: stable_radius reports no radius) leaves the
    # realized path with no Z_C; z_from_C takes the coefficient path and
    # z_from_H_theta the truncated basis, as for H's coefficients alone
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=42, scale=0.5), N)
    G = column_operator(H, N)
    C = central_C(p, G)
    theta = InnerFn(2, 2)
    Hm = h_from_Z_theta(theta, random_schur(4, 2, 2, seed=43, scale=0.5), 32)
    ms = model_space(theta, 32)
    monkeypatch.setattr(lifting, "stable_radius", lambda A: None)
    for got, want in ((z_from_C(p, H, G, C, N), z_from_C(p, PolyOpFn(2, 3, H.coeffs), G, C, N)),
                      (z_from_H_theta(theta, Hm, ms, 32),
                       z_from_H_theta(theta, PolyOpFn(2, 2, Hm.coeffs), ms, 32))):
        assert isinstance(got, AnalyticFn) and "pole_radius" not in got.meta
        assert got.meta == want.meta
        assert np.array_equal(got.taylor_stack(got.degree), want.taylor_stack(want.degree))
        assert np.array_equal(got.eval_many(GRID), want.eval_many(GRID))
    assert "mult_tail" in got.meta


def test_z_from_C_checks_the_rows_of_gamma():
    # a column truncated below the degree N drops H's tail; unchecked, the
    # parameter missed the constraint by 1.6e-01 on the grid
    p = InterpolationProblem(U_dim=2, Y_dim=1, F=Subspace(2, np.eye(2, 1)),
                             omega1=np.array([[0.5]]), omega2=np.array([[0.85], [0.0]]))
    H = solve_from_Z(p, random_constrained_z(p, 2, 6, scale=0.5), N)
    C = central_C(p, column_operator(H, N))
    with pytest.raises(DimensionMismatch):
        z_from_C(p, H, column_operator(H, 6), C, N)


def test_z_from_C_rejects_the_column_of_another_solution():
    # unchecked, the parameter missed the constraint by 1.6e-02 on the grid
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    H, H2 = (solve_from_Z(p, random_constrained_z(p, 2, seed=s, scale=0.5), N)
             for s in (42, 43))
    G, G2 = column_operator(H, N), column_operator(H2, N)
    message = (f"Gamma is not the column of H: they differ by "
               f"{np.linalg.norm(G2 - G):.3e} in Frobenius norm")
    with pytest.raises(NotASolution, match=f"^{re.escape(message)}$"):
        z_from_C(p, H, G2, central_C(p, G2), N)
    # a column within the tolerance is accepted
    z_from_C(p, H, G + 1e-9 * G / np.linalg.norm(G), central_C(p, G), N)


def test_z_from_C_compares_only_a_gamma_that_is_not_h_own_column(monkeypatch):
    # H's own column is at gap 0.0 and is not compared; a copy of it, or
    # another view of H's coefficients, is, and gives the same Z_C bits
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=42, scale=0.5), N + 1)
    G = column_operator(H, N)
    C = central_C(p, G)
    want = z_from_C(p, H, G.copy(), C, N)
    norms = count_calls(monkeypatch, np.linalg, "norm")
    got = z_from_C(p, H, G, C, N)
    assert norms == []
    assert np.array_equal(got.eval_many(GRID), want.eval_many(GRID))
    shifted = H.taylor_stack(N + 1)[1:].reshape(G.shape)
    assert np.shares_memory(shifted, G)
    with pytest.raises(NotASolution, match="is not the column of H"):
        z_from_C(p, H, shifted, C, N)
    assert len(norms) == 2


def test_w_coefficients_match_pointwise_resolvents():
    # Taylor data of Z_C against a direct evaluation of
    # W = Gamma*(I + lam S*)(I - lam S*)^-1 Gamma + D(I + lam C)(I - lam C)^-1 D
    # with its own shift matrix; an adjoint misplaced in the convolution
    # would show up immediately on complex instances
    p = random_problem(3, 2, 2, seed=770, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=771, scale=0.5), N)
    G = column_operator(H, N)
    C0 = central_C(p, G)
    Z1 = z_from_C(p, H, G, C0, N)
    u, y = p.U_dim, p.Y_dim
    size = (N + 1) * y
    S = np.zeros((size, size), dtype=np.complex128)
    for n in range(N):
        S[(n + 1) * y:(n + 2) * y, n * y:(n + 1) * y] = np.eye(y)
    D = hermitian_sqrt_psd(np.eye(u) - G.conj().T @ G)
    Bd = orthonormal_range(D).basis
    Cv = C0.eval(0.0)
    for lam in (0.3 + 0.2j, -0.25 + 0.35j, 0.45j):
        res = np.linalg.solve(np.eye(size) - lam * S.conj().T,
                              (np.eye(size) + lam * S.conj().T) @ G)
        W = G.conj().T @ res
        hcore = np.linalg.solve((np.eye(Cv.shape[0]) - lam * Cv).T,
                                (np.eye(Cv.shape[0]) + lam * Cv).T).T
        W = W + (D @ Bd) @ hcore @ (Bd.conj().T @ D) \
            + (D @ D - (D @ Bd) @ (Bd.conj().T @ D))
        inv = np.linalg.inv(W + np.eye(u))
        direct = np.vstack([2.0 * H.eval(lam) @ inv,
                            ((W - np.eye(u)) @ inv) / lam])
        assert operator_norm(direct - taylor_sum(Z1, lam, N)) < 1e-9
        assert operator_norm(direct - Z1.eval(lam)) < 1e-9


def coefficients_only(fn, N):
    """fn as an AnalyticFn: the same values, Taylor data to degree N, and
    no realization, so the solvers take the resolvent path."""
    return AnalyticFn(fn.out_dim, fn.in_dim, fn.taylor_stack(N), fn.eval_many)


def closed_loop_cases():
    # (problem, realized parameter): state 0, Y = 0, F = 0, an isometric
    # colligation, and a generic constrained parameter
    p = random_problem(3, 2, 2, seed=880, scale=0.45)
    yield p, random_constrained_z(p, 0, seed=881)
    p = random_problem(3, 0, 2, seed=882, scale=0.9)
    yield p, random_constrained_z(p, 2, seed=883)
    p = unconstrained_problem(3, 2)
    yield p, random_schur(5, 3, 2, seed=884, scale=0.9)
    yield p, random_schur(5, 3, 4, seed=885, isometric=True)
    p = random_problem(4, 3, 2, seed=886, scale=0.9)
    yield p, random_constrained_z(p, 3, seed=887)


@pytest.mark.parametrize("n", [4, 24, 192])
@pytest.mark.parametrize("case", range(5))
def test_closed_loop_solve_matches_the_resolvent_path(n, case):
    p, Z = list(closed_loop_cases())[case]
    got = solve_from_Z(p, Z, n).taylor_stack(n)
    assert_rel_close(got, solve_from_Z(p, coefficients_only(Z, n), n).taylor_stack(n))


@pytest.mark.parametrize("n", [4, 24, 192])
@pytest.mark.parametrize("case", range(5))
def test_solve_is_the_multiplier_map_at_lambda_identity(n, case):
    # interpolation is the feedback map at Theta = lambda I: the same bits
    # on the closed-loop path and on the resolvent path, where Theta / lambda
    # = I enters as an exact product, so x is P_U Z itself
    p, Z = list(closed_loop_cases())[case]
    for fn in (Z, coefficients_only(Z, n)):
        got = solve_from_Z(p, fn, n).taylor_stack(n)
        want = h_from_Z_theta(InnerFn(p.U_dim, p.U_dim), fn, n).taylor_stack(n)
        assert np.array_equal(got, want)
    Zc, y = Z.taylor_stack(n), p.Y_dim
    assert np.array_equal(got, series.mul(Zc[:, :y], series.resolvent(Zc[:n, y:])))


@pytest.mark.parametrize("state", [1, 3])
def test_z_from_C_with_a_realized_C_matches_the_resolvent_path(state):
    # the realized Z_C takes W's first sums over every degree of H; the
    # coefficient path at 4N, cut to degrees 0..N, keeps all but a tail
    # far below round-off
    p = random_problem(3, 2, 1, seed=890, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=891, scale=0.5), N)
    G = column_operator(H, N)
    d = central_C(p, G).in_dim
    C = random_schur(d, d, state, seed=892 + state, scale=0.9)
    got = z_from_C(p, H, G, C, N)
    assert isinstance(got, Realization)
    n = 4 * N
    H4 = PolyOpFn(p.Y_dim, p.U_dim, H.realization.taylor_stack(n))
    want = z_from_C(p, H4, column_operator(H4, n), C, n)
    assert isinstance(want, AnalyticFn)
    assert_rel_close(got.taylor_stack(N), want.taylor_stack(N))
    assert_rel_close(got.eval_many(GRID), want.eval_many(GRID))


def test_realized_inputs_never_take_the_resolvent(monkeypatch):
    refuse(monkeypatch, series, "resolvent", "inv")
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=42, scale=0.5), N)
    G = column_operator(H, N)
    Z1 = z_from_C(p, H, G, central_C(p, G), N)
    assert coeff_diff(H, solve_from_Z(p, Z1, N), N) < 1e-12


def test_z_from_C_falls_back_to_the_coefficient_path_for_an_unstable_loop():
    # A = 1 gives rho = 1: the Gramian of H's loop does not converge, and
    # Z_C is the one of H's coefficients alone
    u, y = 3, 2
    p = unconstrained_problem(u, y)
    D = 0.3 * random_schur(y, u, 0, seed=12).D
    H = Realization(np.eye(1), np.zeros((1, u)), np.zeros((y, 1)), D).truncated(N)
    G = column_operator(H, N)
    C = central_C(p, G)
    got = z_from_C(p, H, G, C, N)
    want = z_from_C(p, PolyOpFn(y, u, H.coeffs), G, C, N)
    assert isinstance(got, AnalyticFn) and "pole_radius" not in got.meta
    assert np.array_equal(got.taylor_stack(N), want.taylor_stack(N))
    assert np.array_equal(got.eval_many(GRID), want.eval_many(GRID))


def test_z_from_C_reads_a_loop_below_degree_N_by_its_coefficients():
    # Gamma pads H's degree-10 coefficients to degree N; the realized path
    # would sum W over every degree of the loop and miss them by 2.1e-04
    p = random_problem(2, 2, 1, 3, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, 4), 10)
    G = column_operator(H, N)
    C = central_C(p, G)
    got = z_from_C(p, H, G, C, N)
    want = z_from_C(p, PolyOpFn(H.out_dim, H.in_dim, H.coeffs), G, C, N)
    assert np.array_equal(got.taylor_stack(N), want.taylor_stack(N))
    assert np.array_equal(got.eval_many(GRID), want.eval_many(GRID))


def test_realized_z_from_C_records_its_pole_radius():
    # Z_C's state is that of (W + I)^-1, H's loop beside the [I; C] loop of
    # the central C, whose fed-back state is the range of C, of rank
    # dim F_Gamma; rho of its state matrix is the pole radius, below 1 on
    # the realized path
    p = random_problem(3, 2, 2, seed=41, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=42, scale=0.5), N)
    G = column_operator(H, N)
    C = central_C(p, G)
    Z1 = z_from_C(p, H, G, C, N)
    assert Z1.state_dim == H.realization.state_dim + omega_hat(p, G)[1].dim
    rho = np.abs(np.linalg.eigvals(Z1.A)).max()
    assert Z1.meta["pole_radius"] == pytest.approx(rho, abs=1e-12)
    assert 0.0 < Z1.meta["pole_radius"] < 1.0
    assert Z1.meta["w0_residual"] <= 1e-10


@pytest.mark.parametrize("r", [0, 1, 2])
def test_a_rank_r_constant_C_gives_z_C_the_state_of_H_plus_r(monkeypatch, r):
    # the [I; C] loop feeds back C's output, which lies in the rank-r range
    # of C; the uncompressed loop keeps all d = 3 of its input's states
    p = random_problem(3, 2, 2, seed=45, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=46, scale=0.5), N)
    G = column_operator(H, N)
    d = central_C(p, G).in_dim
    rng = np.random.default_rng(47 + r)
    X, Y = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r)) for _ in range(2))
    M = X @ Y.conj().T
    M *= 0.9 / max(operator_norm(M), 1e-300)
    C = SchurRealization(np.zeros((0, 0)), np.zeros((0, d)), np.zeros((d, 0)), M)
    got = z_from_C(p, H, G, C, N)
    monkeypatch.setattr(lifting, "_resolvent_loop", resolvent_loop_oracle)
    want = z_from_C(p, H, G, C, N)
    n = H.realization.state_dim
    assert (d, got.state_dim, want.state_dim) == (3, n + r, n + d)
    assert got.meta["resolvent_rank"] == r and got.meta["resolvent_dropped"] <= 1e-15
    for a, b in ((got.taylor_stack(N), want.taylor_stack(N)),
                 (got.eval_many(GRID), want.eval_many(GRID))):
        assert np.abs(a - b).max() <= 1e-14


def test_a_realized_C_of_full_rank_keeps_its_full_state():
    p = random_problem(3, 2, 2, seed=45, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=46, scale=0.5), N)
    G = column_operator(H, N)
    d = central_C(p, G).in_dim
    C = random_schur(d, d, 2, seed=48, scale=0.9)
    Z1 = z_from_C(p, H, G, C, N)
    assert Z1.state_dim == H.realization.state_dim + C.state_dim + d
    assert (Z1.meta["resolvent_rank"], Z1.meta["resolvent_dropped"]) == (d, 0.0)


@pytest.mark.parametrize("dims", [(2, 2, 1), (3, 2, 2), (8, 8, 4)])
def test_z_from_C_reports_the_margin_of_its_resolvent_rank(dims):
    # the central C = Omega P_(F_Gamma) has rank dim F_Gamma; what the
    # round-off cutoff drops is below it
    p = random_problem(*dims, seed=49, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=50, scale=0.5), N)
    G = column_operator(H, N)
    C = central_C(p, G)
    Z1 = z_from_C(p, H, G, C, N)
    cutoff = ROUNDOFF * max(1.0, operator_norm(np.hstack([C.C, C.D])))
    assert Z1.meta["resolvent_rank"] == omega_hat(p, G)[1].dim < C.in_dim
    assert 0.0 <= Z1.meta["resolvent_dropped"] <= cutoff


def test_verify_and_z_from_C_take_the_gramian_root_of_a_loop_once(monkeypatch):
    p = random_problem(3, 2, 2, seed=51, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=52, scale=0.5), N)
    calls = count_calls(monkeypatch, schur, "gramian_root")
    assert verify_solution(p, H, N).ok()
    G = column_operator(H, N)
    assert isinstance(z_from_C(p, H, G, central_C(p, G), N), Realization)
    assert len(calls) == 1 and calls[0][0] is H.realization.A
    assert not H.realization.gramian_root.flags.writeable


def test_uniqueness_certificate_examples():
    assert uniqueness_certificate(scalar_fixture())
    no_omega2 = InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                                     omega1=np.array([[1.0]]),
                                     omega2=np.array([[0.0]]))
    assert not uniqueness_certificate(no_omega2)
    assert not uniqueness_certificate(random_problem(2, 2, 1, seed=7, scale=0.6))
    # with F = 0 the solution is unique only when there is no input at all
    assert not uniqueness_certificate(unconstrained_problem(2, 1))
    assert uniqueness_certificate(unconstrained_problem(0, 1))


def test_distinct_parameters_give_distinct_solutions():
    # Z -> H is one-to-one: parameters that differ on the grid produce
    # different solutions
    for seed in range(5):
        p = random_problem(2, 2, 1, seed=900 + seed, scale=0.6)
        Z1 = random_constrained_z(p, 3, seed=910 + seed)
        Z2 = random_constrained_z(p, 3, seed=920 + seed)
        zdist = max(operator_norm(Z1.eval(z) - Z2.eval(z))
                    for z in default_grid(8).points)
        H1 = solve_from_Z(p, Z1, N)
        H2 = solve_from_Z(p, Z2, N)
        assert zdist <= 1e-8 or coeff_diff(H1, H2, N) > 1e-12


def test_random_problem_respects_scale_and_seed():
    a = random_problem(3, 2, 2, seed=5, scale=0.45)
    b = random_problem(3, 2, 2, seed=5, scale=0.45)
    assert operator_norm(a.omega - b.omega) == 0.0
    assert operator_norm(a.omega) <= 0.45 + 1e-12
    with pytest.raises(DimensionMismatch):
        random_problem(2, 2, 3, seed=0)


def test_random_constrained_z_restricts_to_omega():
    p = random_problem(3, 2, 2, seed=61)
    Z = random_constrained_z(p, 2, seed=62)
    worst = max(operator_norm(Z.eval(z) @ p.F.basis - p.omega)
                for z in default_grid(8).points)
    assert worst < 1e-13
