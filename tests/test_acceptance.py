"""Acceptance suite: nine end-to-end checks, one PASS line printed per
test with the worst residual observed.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import numpy as np

from _support import DIMS, coeff_diff, scalar_fixture, unconstrained_problem
from liftkit.errors import NotAContraction
from liftkit.hardy import (PolyOpFn, column_operator, default_grid,
                           multiplication_operator)
from liftkit.lifting import (InterpolationProblem, fiber_roundtrip_residuals,
                             random_constrained_z, random_problem,
                             solve_from_Z, uniqueness_certificate,
                             verify_solution)
from liftkit.linalg import Subspace, haar_unitary, operator_norm
from liftkit.modelspace import (InnerFn, check_decompositions, h_from_Z_theta,
                                model_space, mult_contraction_test,
                                multiplier_roundtrip_residual,
                                pointwise_mult_check, random_inner,
                                random_multiplier, z_from_H_theta)
from liftkit.rcl import (data_set_from_omega, gamma_to_B,
                         omega_roundtrip_residual, random_data_set,
                         underlying_contraction, verify_rcl)
from liftkit.schur import random_schur

N = 24


def test_01_scalar_geometric_solution():
    # omega = [a; b] on the full line: the unique solution is a b^n
    p = scalar_fixture()
    H = solve_from_Z(p, random_constrained_z(p, 2, seed=1), N)
    worst = max(abs(H.coeff(n)[0, 0] - 0.6 * 0.8 ** n) for n in range(N + 1))
    assert worst <= 1e-12, worst
    gram = sum(abs(H.coeff(n)[0, 0]) ** 2 for n in range(N + 1))
    assert abs(gram - (1.0 - 0.64 ** (N + 1))) <= 1e-12
    limit = 0.6 / np.sqrt(1.0 - 0.64)
    assert abs(np.sqrt(gram) - limit) <= 1e-3
    # second pair, limit away from 1
    p2 = InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                              omega1=np.array([[0.3]]), omega2=np.array([[0.5]]))
    H2 = solve_from_Z(p2, random_constrained_z(p2, 2, seed=2), N)
    col2 = np.sqrt(sum(abs(H2.coeff(n)[0, 0]) ** 2 for n in range(N + 1)))
    assert abs(col2 - 0.3 / np.sqrt(1.0 - 0.25)) <= 1e-12
    print(f"PASS 1 scalar geometric solution: coeff residual {worst:.3e}, "
          f"gram gap {1.0 - gram:.3e}")


def test_02_random_solutions_verify():
    worst_rec = worst_gram = 0.0
    for k in range(100):
        u, y, f = DIMS[k % len(DIMS)]
        p = random_problem(u, y, f, seed=2000 + k)
        Z = random_constrained_z(p, 2, seed=2100 + k)
        rep = verify_solution(p, solve_from_Z(p, Z, N), N)
        worst_rec = max(worst_rec, rep.recurrence_residual)
        worst_gram = max(worst_gram, rep.partial_gram_excess)
    assert worst_rec <= 1e-9, worst_rec
    assert worst_gram <= 1e-8, worst_gram
    print(f"PASS 2 random solutions verify: recurrence {worst_rec:.3e}, "
          f"gram excess {worst_gram:.3e} over 100 instances")


def test_03_central_fiber_roundtrip():
    worst_diff = worst_w0 = worst_con = 0.0
    for k in range(50):
        u, y, f = DIMS[k % len(DIMS)]
        p = random_problem(u, y, f, seed=3000 + k, scale=0.45)
        Z = random_constrained_z(p, 2, seed=3100 + k, scale=0.5)
        # gap over degrees 0..N, grid constraint (0 when F = 0), W(0)
        diff, con, w0 = fiber_roundtrip_residuals(p, Z, N)
        worst_diff = max(worst_diff, diff)
        worst_w0 = max(worst_w0, w0)
        worst_con = max(worst_con, con)
        assert w0 <= 1e-10
    assert worst_diff <= 1e-7, worst_diff
    assert worst_con <= 1e-8, worst_con
    print(f"PASS 3 central fiber roundtrip: coeff diff {worst_diff:.3e}, "
          f"normalization at 0 {worst_w0:.3e}, constraint {worst_con:.3e} "
          f"over 50 instances")


def test_04_lifting_equivalence():
    n = 16
    worst_pos = 0.0
    worst_neg = np.inf
    for k in range(50):
        ds = random_data_set(seed=4000 + k)
        p = underlying_contraction(ds)
        H = solve_from_Z(p, random_constrained_z(p, 2, seed=4100 + k), n)
        G0 = column_operator(H, n)
        rep_sol = verify_solution(p, H, n)
        rep_rcl = verify_rcl(ds, gamma_to_B(ds, G0, n), n)
        assert rep_sol.recurrence_residual <= 1e-8
        assert rep_sol.partial_gram_excess <= 1e-8
        assert rep_rcl.ok()
        worst_pos = max(worst_pos, rep_sol.recurrence_residual,
                        rep_rcl.projection_residual,
                        rep_rcl.intertwining_residual)
        # perturbed non-solution must be rejected on both sides
        rng = np.random.default_rng(4200 + k)
        bad = G0 + 1e-2 * (rng.standard_normal(G0.shape)
                           + 1j * rng.standard_normal(G0.shape))
        bad = bad / max(1.0, operator_norm(bad))
        blocks = tuple(bad[m * p.Y_dim:(m + 1) * p.Y_dim, :] for m in range(n + 1))
        Hbad = PolyOpFn(p.Y_dim, p.U_dim, blocks)
        rep_bad = verify_solution(p, Hbad, n)
        sol_fails = (rep_bad.recurrence_residual > 1e-8
                     or rep_bad.partial_gram_excess > 1e-8)
        try:
            rcl_fails = not verify_rcl(ds, gamma_to_B(ds, bad, n), n).ok()
        except NotAContraction:
            rcl_fails = True
        assert sol_fails and rcl_fails
        worst_neg = min(worst_neg, rep_bad.recurrence_residual)
    print(f"PASS 4 lifting equivalence: positive residuals {worst_pos:.3e}, "
          f"weakest rejection margin {worst_neg:.3e} over 50 + 50 instances")


def test_05_data_set_embedding_roundtrip():
    worst = 0.0
    for k in range(100):
        u, y, f = DIMS[k % len(DIMS)]
        p = random_problem(u, y, f, seed=5000 + k)
        worst = max(worst, omega_roundtrip_residual(p))
    assert worst <= 1e-10, worst
    print(f"PASS 5 data set embedding roundtrip: residual {worst:.3e} "
          f"over 100 instances")


def certificate_true_problem(seed, u=2, y=2):
    # omega isometric on F = U with invertible bottom corner: the solution
    # is unique and every admissible parameter produces it
    W = haar_unitary(np.random.default_rng(seed), y + u)[:, :u]
    return InterpolationProblem(U_dim=u, Y_dim=y, F=Subspace(u, np.eye(u)),
                                omega1=W[:y, :], omega2=W[y:, :])


def test_06_uniqueness_certificate():
    worst_same = 0.0
    for k in range(3):
        p = certificate_true_problem(600 + k)
        assert uniqueness_certificate(p)
        sols = [solve_from_Z(p, random_constrained_z(p, 2, seed=6000 + 20 * k + j), N)
                for j in range(20)]
        spread = max(coeff_diff(sols[0], s, N) for s in sols[1:])
        worst_same = max(worst_same, spread)
        assert spread <= 1e-8, spread
    worst_apart = np.inf
    for k in range(3):
        p = random_problem(2, 2, 1, seed=650 + k, scale=0.6)
        assert not uniqueness_certificate(p)
        sols = [solve_from_Z(p, random_constrained_z(p, 3, seed=6600 + 20 * k + j), N)
                for j in range(20)]
        spread = max(coeff_diff(sols[0], s, N) for s in sols[1:])
        worst_apart = min(worst_apart, spread)
        assert spread > 1e-4, spread
    print(f"PASS 6 uniqueness certificate: certified spread {worst_same:.3e}, "
          f"uncertified spread {worst_apart:.3e} across 20 parameters each")


def acceptance_thetas():
    return [InnerFn(2, 2),
            InnerFn(out_dim=1, in_dim=1, power=2),
            random_inner(seed=42, dim=2, n_factors=1)]


def test_07_isometric_parameters_are_contractive_multipliers():
    n = 32
    thetas = acceptance_thetas()
    spaces = [model_space(t, n) for t in thetas]
    worst_norm = 0.0
    worst_shift = 0.0
    for k in range(50):
        theta = thetas[k % 3]
        ms = spaces[k % 3]
        u, e = theta.out_dim, theta.in_dim
        y = 1 + (k % 2)
        Z = random_schur(y + e, u, 2, seed=7000 + k, isometric=True)
        H = h_from_Z_theta(theta, Z, n)
        rep = mult_contraction_test(H, ms)
        assert rep.norm <= 1.0 + 1e-7, (k, rep.norm)
        worst_norm = max(worst_norm, rep.norm)
        if not theta.factors and theta.power == 1:
            Hfree = solve_from_Z(unconstrained_problem(u, y), Z, n)
            worst_shift = max(worst_shift, coeff_diff(H, Hfree, n))
    assert worst_shift <= 1e-10, worst_shift
    print(f"PASS 7 isometric parameters: max multiplication norm "
          f"{worst_norm:.10f}, plain-shift agreement {worst_shift:.3e} "
          f"over 50 instances")


def test_08_multiplier_fiber_roundtrip():
    n = 32
    thetas = acceptance_thetas()
    spaces = [model_space(t, n) for t in thetas]
    grid = default_grid(n)
    worst_diff = 0.0
    worst_cond = 0.0
    for k in range(25):
        theta = thetas[k % 3]
        ms = spaces[k % 3]
        y = 2
        H = random_multiplier(theta, y, n, seed=8000 + k, scale=0.5)
        # gap over degrees 0..n - degree_bound - 4
        worst_diff = max(worst_diff,
                         multiplier_roundtrip_residual(theta, H, ms))
        Z1 = z_from_H_theta(theta, H, ms, n)
        u = theta.out_dim
        for z in grid.points:
            Cz = Z1.eval(z)[y:, :]
            delta = np.eye(u) - theta.eval(z) @ Cz
            worst_cond = max(worst_cond, float(np.linalg.cond(delta)))
    assert worst_diff <= 1e-6, worst_diff
    assert worst_cond <= 1e10, worst_cond
    print(f"PASS 8 multiplier fiber roundtrip: coeff diff {worst_diff:.3e}, "
          f"max feedback condition number {worst_cond:.3e} over 25 instances")


def test_09_decompositions_and_pointwise_mult():
    worst_dec = 0.0
    for theta, n in [(InnerFn(2, 2), 16),
                     (InnerFn(out_dim=1, in_dim=1, power=2), 16),
                     (InnerFn(out_dim=2, in_dim=2, power=3), 16),
                     (random_inner(seed=42, dim=2, n_factors=1), 32)]:
        rep = check_decompositions(theta, model_space(theta, n))
        worst_dec = max(worst_dec, max(rep[:4]))
    assert worst_dec <= 1e-9, worst_dec

    # positives: genuine multiplication matrices, on every theta kind
    pos_specs = [(InnerFn(2, 2), 16),
                 (InnerFn(out_dim=1, in_dim=1, power=2), 16),
                 (random_inner(seed=42, dim=2, n_factors=1), 32)]
    pos_spaces = [(t, n, model_space(t, n)) for t, n in pos_specs]
    worst_pos = 0.0
    for k in range(50):
        theta, n, ms = pos_spaces[k % 3]
        y = 2
        rng = np.random.default_rng(9000 + k)
        coeffs = tuple(0.2 * (rng.standard_normal((y, theta.out_dim))
                              + 1j * rng.standard_normal((y, theta.out_dim)))
                       for _ in range(4))
        K = PolyOpFn(y, theta.out_dim, coeffs)
        G, _ = multiplication_operator(K, ms.basis, n)
        rep = pointwise_mult_check(G, ms)
        assert rep.consistent
        assert rep.intertwining_residual <= 1e-8
        assert rep.pointwise_residual <= 1e-8
        worst_pos = max(worst_pos, rep.intertwining_residual,
                        rep.pointwise_residual)

    # negatives: perturbed maps, on thetas whose model space has depth
    neg_specs = [(InnerFn(out_dim=1, in_dim=1, power=2), 16),
                 (InnerFn(out_dim=2, in_dim=2, power=3), 16),
                 (random_inner(seed=42, dim=2, n_factors=1), 32)]
    neg_spaces = [(t, n, model_space(t, n)) for t, n in neg_specs]
    worst_neg = np.inf
    for k in range(50):
        theta, n, ms = neg_spaces[k % 3]
        y = 2
        H = random_multiplier(theta, y, n, seed=9500 + k, scale=0.5)
        G, _ = multiplication_operator(H, ms.basis, n)
        rng = np.random.default_rng(9600 + k)
        G = G + 0.05 * (rng.standard_normal(G.shape)
                        + 1j * rng.standard_normal(G.shape))
        rep = pointwise_mult_check(G, ms)
        assert rep.consistent
        assert rep.intertwining_residual > 1e-8
        assert rep.pointwise_residual > 1e-8
        worst_neg = min(worst_neg, rep.intertwining_residual,
                        rep.pointwise_residual)
    print(f"PASS 9 decompositions and pointwise multiplication: "
          f"decomposition residual {worst_dec:.3e}, positive residual "
          f"{worst_pos:.3e}, weakest negative margin {worst_neg:.3e} "
          f"over 50 + 50 instances")
