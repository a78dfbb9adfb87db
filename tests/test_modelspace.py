"""Model-space construction, decompositions, and the multiplier
parameterization for inner functions vanishing at the origin."""

import numpy as np
import pytest

from _support import (analytic_toeplitz, assert_rel_close, coeff_diff, count_calls,
                      inner_taylor_oracle, inner_values_oracle, refuse,
                      shift_and_embed, unconstrained_problem)
from liftkit.errors import (DegreeTooSmall, DimensionMismatch, DomainError,
                            NotAContraction)
from liftkit import lifting, linalg, modelspace, series
from liftkit.hardy import (GRID, AnalyticFn, PolyOpFn, column_operator,
                           multiplication_operator)
from liftkit.lifting import _closed_loop, solve_from_Z
from liftkit.modelspace import (BlaschkeFactor, InnerFn, check_decompositions,
                                h_from_Z_theta, model_space,
                                mult_contraction_test, multiplier_roundtrip_residual,
                                pointwise_mult_check, random_inner,
                                random_multiplier, z_from_H_theta)
from liftkit.linalg import Subspace, operator_norm, projector_gap
from liftkit.schur import Realization, SchurRealization, random_schur


def bp_half():
    """lambda times a rank-one factor with zero at 0.5, acting on C^2."""
    return InnerFn(out_dim=2, in_dim=2,
                   factors=(BlaschkeFactor(a=0.5, w=np.array([1.0, 0.0])),))


def scalar_power(k):
    return InnerFn(out_dim=1, in_dim=1, power=k)


def svd_kernel_basis(fn: PolyOpFn, N: int) -> np.ndarray:
    """Oracle: the near-kernel of the adjoint truncated Toeplitz matrix.

    Left singular vectors of the multiplication matrix whose singular
    value is at most 1e-9 * max(1, sigma_max); exact for zeros far from
    the circle, blind to those with |a|^N above the cutoff.
    """
    M = analytic_toeplitz(fn, N)
    U, s, _ = np.linalg.svd(M, full_matrices=True)
    r = int(np.count_nonzero(s > 1e-9 * max(1.0, float(s[0]) if s.size else 0.0)))
    return U[:, r:]


# --- Blaschke factors ---------------------------------------------------


def test_factor_rejects_bad_zero_and_direction():
    with pytest.raises(DomainError):
        BlaschkeFactor(a=1.0, w=np.array([1.0]))
    with pytest.raises(DomainError):
        BlaschkeFactor(a=0.3, w=np.zeros(2))


@pytest.mark.parametrize("a", [complex("nan"), complex(0.0, float("nan")),
                               float("inf")])
def test_factor_rejects_non_finite_zero(a):
    with pytest.raises(DomainError):
        BlaschkeFactor(a=a, w=np.array([1.0]))


def test_factor_normalizes_direction():
    f = BlaschkeFactor(a=0.2, w=np.array([3.0, 4.0]))
    assert np.allclose(f.w, [0.6, 0.8])


def one_factor(a):
    """The scalar inner function lambda * b_a; its coefficient n + 1 is b_a's n."""
    return InnerFn(out_dim=1, in_dim=1,
                   factors=(BlaschkeFactor(a=a, w=np.array([1.0])),))


def test_factor_zero_at_origin_is_the_shift():
    th = one_factor(0.0)
    c = th.taylor_stack(3)[1:, 0, 0]
    assert c[0] == 0.0
    assert c[1] == 1.0
    assert c[2] == 0.0
    assert th.eval(0.3)[0, 0] / 0.3 == 0.3


def test_factor_coefficients_real_zero():
    got = one_factor(0.5).taylor_stack(3)[1:, 0, 0]
    assert np.allclose(got, [0.5, -0.75, -0.375], atol=1e-15)


def test_factor_coefficients_imaginary_zero():
    got = one_factor(0.4j).taylor_stack(4)[1:, 0, 0]
    assert np.allclose(got, [0.4, 0.84j, 0.336, -0.1344j], atol=1e-15)


def test_factor_series_sums_to_eval():
    th = one_factor(0.5)
    lam = 0.3 - 0.25j
    c = th.taylor_stack(80)[1:, 0, 0]
    s = sum(c[n] * lam ** n for n in range(80))
    assert abs(s - th.eval(lam)[0, 0] / lam) < 1e-13


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.1, 3.9])
def test_factor_unimodular_on_circle(theta):
    th = one_factor(0.3 + 0.2j)
    assert abs(th.eval(np.exp(1j * theta))[0, 0]) == pytest.approx(1.0, abs=1e-12)


# --- inner functions ----------------------------------------------------


def test_inner_validation():
    with pytest.raises(DomainError):
        InnerFn(out_dim=1, in_dim=1, power=0)
    # factors need a square Theta
    with pytest.raises(DimensionMismatch):
        InnerFn(out_dim=2, in_dim=1,
                factors=(BlaschkeFactor(a=0.1, w=np.array([1.0, 0.0])),))
    with pytest.raises(DimensionMismatch):
        InnerFn(3, 2, factors=(BlaschkeFactor(a=0.2, w=np.array([1.0, 0.0, 0.0])),),
                V0=np.eye(3, 2))
    with pytest.raises(DomainError):
        InnerFn(out_dim=2, in_dim=2, V0=0.5 * np.eye(2))
    with pytest.raises(DimensionMismatch):
        InnerFn(out_dim=2, in_dim=2,
                factors=(BlaschkeFactor(a=0.1, w=np.array([1.0, 0.0, 0.0])),))
    with pytest.raises(DimensionMismatch):
        InnerFn(out_dim=0, in_dim=0)
    with pytest.raises(DomainError, match=r"^power must be an integer, got 1\.5$"):
        InnerFn(out_dim=1, in_dim=1, power=1.5)
    # E = 0: Theta is the zero map and H is all of H^2(U)
    assert model_space(InnerFn(out_dim=2, in_dim=0), 8).basis.dim == 18


def test_an_inner_function_takes_any_power_with_its_factors():
    # a power above 1 and factors make one cascade, lambda^3 B_1
    f = BlaschkeFactor(a=0.4j, w=np.array([1.0, 1.0]))
    th = InnerFn(2, 2, power=3, factors=(f,))
    assert th.degree_bound == 4 and th.state_dim == 7
    V = th.eval(np.exp(0.7j))
    assert operator_norm(V.conj().T @ V - np.eye(2)) < 1e-12
    assert not th.taylor_stack(2).any()


def test_an_inner_function_defaults_to_lambda_times_the_first_columns():
    th = InnerFn(2, 1)
    assert np.array_equal(th.taylor_stack(1)[1], np.eye(2, 1))
    # H = constants of C^2 plus lambda^n e_2 for n = 1..8
    assert model_space(th, 8).basis.dim == 10


def test_an_inner_function_has_no_kind():
    f = BlaschkeFactor(a=0.3, w=np.array([1.0, 0.0]))
    for th in (InnerFn(2, 2), InnerFn(3, 2, power=2, V0=RECT_V0),
               InnerFn(2, 2, factors=(f,)), random_inner(seed=1, dim=2, n_factors=2)):
        assert not hasattr(th, "kind")


def test_inner_degree_bound():
    assert InnerFn(3, 3).degree_bound == 1
    assert scalar_power(4).degree_bound == 4
    assert bp_half().degree_bound == 2


def test_inner_taylor_matches_eval():
    th = random_inner(seed=3, dim=2, n_factors=2)
    lam = 0.35 + 0.2j
    poly = PolyOpFn(th.out_dim, th.in_dim, th.taylor_stack(60))
    assert operator_norm(poly.eval(lam) - th.eval(lam)) < 1e-12


def test_inner_unitary_on_circle():
    th = random_inner(seed=5, dim=3, n_factors=2)
    for t in (0.0, 1.1, 2.7):
        V = th.eval(np.exp(1j * t))
        assert operator_norm(V.conj().T @ V - np.eye(3)) < 1e-12


def test_inner_eval_domain():
    th = InnerFn(1, 1)
    th.eval(1.0)  # closed disk allowed, evaluation is rational
    with pytest.raises(DomainError):
        th.eval(1.01)


def test_rectangular_power_inner():
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    th = InnerFn(out_dim=3, in_dim=2, power=2, V0=V)
    assert np.allclose(th.eval(0.5), 0.25 * V)
    coeffs = th.taylor_stack(2)
    assert operator_norm(coeffs[1]) == 0.0
    assert np.allclose(coeffs[2], V)


# --- model spaces -------------------------------------------------------


def test_model_space_needs_room():
    with pytest.raises(DegreeTooSmall):
        model_space(InnerFn(1, 1), 5)


@pytest.mark.parametrize("theta,N,dim,dim0", [
    (InnerFn(1, 1), 8, 1, 0),
    (InnerFn(2, 2), 8, 2, 0),
    (scalar_power(2), 10, 2, 1),
    (InnerFn(out_dim=2, in_dim=2, power=3), 12, 6, 4),
])
def test_model_space_dimensions(theta, N, dim, dim0):
    ms = model_space(theta, N)
    assert ms.basis.dim == dim
    assert ms.H0_basis.dim == dim0
    # dimension agrees with the rank deficiency of the truncated
    # multiplication matrix
    M = analytic_toeplitz(
        PolyOpFn(theta.out_dim, theta.in_dim, theta.taylor_stack(N)), N)
    assert ms.basis.dim == (N + 1) * theta.out_dim - np.linalg.matrix_rank(M)


def test_model_space_blaschke_dimension():
    # one power of lambda on C^2 plus one rank-one zero: 2 + 1 = 3
    ms = model_space(bp_half(), 40)
    assert ms.basis.dim == 3
    assert ms.H0_basis.dim == 1


RECT_V0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("theta,N", [
    (InnerFn(2, 2), 40),
    (scalar_power(2), 40),
    (InnerFn(out_dim=2, in_dim=2, power=3), 40),
    (InnerFn(out_dim=3, in_dim=2, power=2, V0=RECT_V0), 40),
    (bp_half(), 40),
    (InnerFn(out_dim=2, in_dim=2, power=2,
             factors=(BlaschkeFactor(a=0.0, w=np.array([1.0, 1.0j])),
                      BlaschkeFactor(a=0.3 + 0.2j, w=np.array([0.5, -1.0])))),
     40),
    (random_inner(seed=9, dim=2, n_factors=1), 128),
    (random_inner(seed=42, dim=2, n_factors=1), 128),
    (random_inner(seed=3, dim=3, n_factors=3), 128),
])
def test_closed_form_matches_svd_oracle(theta, N):
    ms = model_space(theta, N)
    coeffs = inner_taylor_oracle(theta, N + 1)
    u, e = theta.out_dim, theta.in_dim
    for got, fn in ((ms.basis.basis, PolyOpFn(u, e, coeffs[:N + 1])),
                    (ms.H0_basis.basis, PolyOpFn(u, e, coeffs[1:]))):
        want = svd_kernel_basis(fn, N)
        assert got.shape == want.shape
        assert projector_gap(got, want) <= 1e-12


@pytest.mark.parametrize("N", [64, 128, 256])
def test_zeros_near_the_circle(N):
    # |a| = 0.75: at N = 64 the near-kernel singular value 0.75^64 ~ 1e-8
    # sits above a 1e-9 kernel cutoff; the closed form has no cutoff
    theta = random_inner(5, 2, 2, max_modulus=0.9)
    assert max(abs(f.a) for f in theta.factors) > 0.75
    ms = model_space(theta, N)
    assert ms.basis.dim == 4
    assert ms.H0_basis.dim == 2
    assert max(check_decompositions(theta, ms)) <= 1e-9


@pytest.mark.parametrize("theta,N", [
    (InnerFn(2, 2), 8),
    (scalar_power(2), 10),
    (bp_half(), 40),
    (random_inner(seed=9, dim=2, n_factors=1), 32),
    # E smaller than U: H0 holds lambda^N ker V0*, which the truncated
    # shift drops
    (InnerFn(out_dim=3, in_dim=2, power=2, V0=RECT_V0), 16),
    (InnerFn(out_dim=3, in_dim=2, power=2, V0=RECT_V0), 40),
])
def test_decompositions(theta, N):
    ms = model_space(theta, N)
    rep = check_decompositions(theta, ms)
    assert rep.ok(), rep


# --- multiplication bound ----------------------------------------------


def test_mult_bound_zero_and_expansive():
    ms = model_space(InnerFn(1, 1), 8)
    zero = PolyOpFn(1, 1, (np.zeros((1, 1)),))
    rep = mult_contraction_test(zero, ms)
    assert rep.contractive and rep.norm == 0.0
    twice = PolyOpFn(1, 1, (2.0 * np.eye(1),))
    rep = mult_contraction_test(twice, ms)
    assert not rep.contractive
    assert rep.norm == pytest.approx(2.0, abs=1e-14)


def test_mult_bound_geometric_fixture():
    # multiplication by sum 0.6 (0.8 lambda)^n on the constants: the norm
    # is the partial column mass sqrt(1 - 0.64^(N+1))
    N = 20
    ms = model_space(InnerFn(1, 1), N)
    H = PolyOpFn(1, 1, tuple(np.array([[0.6 * 0.8 ** n]]) for n in range(N + 1)))
    rep = mult_contraction_test(H, ms)
    assert rep.contractive
    assert rep.norm == pytest.approx(np.sqrt(1.0 - 0.64 ** (N + 1)), abs=1e-13)
    assert rep.norm == pytest.approx(0.9999574637994707, abs=1e-12)


def test_mult_bound_brute_force_power_theta():
    # for Theta = lambda^k I the model space is the degree-(k-1)
    # polynomials and multiplication columns are plain shifts of the
    # coefficient column
    k, u, y, N = 3, 2, 2, 16
    theta = InnerFn(out_dim=u, in_dim=u, power=k)
    ms = model_space(theta, N)
    H = random_multiplier(theta, y, N, seed=77, scale=0.5)
    M, _ = multiplication_operator(H, ms.basis, N)
    S, E = shift_and_embed(u, N)
    SY, _ = shift_and_embed(y, N)
    msb = ms.basis.basis
    col = column_operator(H, N)
    for j in range(k):
        x = np.linalg.matrix_power(S, j) @ E
        direct = np.linalg.matrix_power(SY, j) @ col
        assert operator_norm(M @ (msb.conj().T @ x) - direct) <= 1e-12


# --- forward parameterization -------------------------------------------


def test_h_from_Z_rejects_wrong_dims():
    with pytest.raises(DimensionMismatch):
        h_from_Z_theta(InnerFn(2, 2), random_schur(3, 3, 1, seed=0), 8)


def test_h_from_Z_constant_parameter_is_geometric():
    Z = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)),
                         np.zeros((2, 0)), np.array([[0.6], [0.8]]))
    H = h_from_Z_theta(InnerFn(1, 1), Z, 24)
    worst = max(abs(H.coeff(n)[0, 0] - 0.6 * 0.8 ** n) for n in range(25))
    assert worst < 1e-12


def test_h_from_Z_zero_top_block():
    Z = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)),
                         np.zeros((2, 0)), np.array([[0.0], [0.7]]))
    H = h_from_Z_theta(InnerFn(1, 1), Z, 16)
    assert max(operator_norm(H.coeff(n)) for n in range(17)) == 0.0


def test_h_from_Z_shift_theta_matches_free_interpolation():
    # for Theta = lambda I the parameterization is the unconstrained
    # linear-fractional map
    u, y, N = 2, 2, 20
    Z = random_schur(y + u, u, 2, seed=33, scale=0.7)
    H1 = h_from_Z_theta(InnerFn(u, u), Z, N)
    H2 = solve_from_Z(unconstrained_problem(u, y), Z, N)
    assert coeff_diff(H1, H2, N) < 1e-10


def feedback_thetas():
    """Inner functions for the colligation and feedback tests: bp_product
    with 0, 1 and 3 factors (one of them at a = 0), the plain shift, and a
    power >= 2 with E < U."""
    rng = np.random.default_rng(70)
    V0 = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    facs = (BlaschkeFactor(a=0.0, w=np.array([1.0, 1j, 0.0])),
            BlaschkeFactor(a=0.5 - 0.3j, w=np.array([1.0, 2.0, 3.0j])),
            BlaschkeFactor(a=-0.4, w=np.array([0.0, 1.0, 1.0j])))
    return [InnerFn(out_dim=2, in_dim=2, power=2),
            bp_half(),
            InnerFn(out_dim=3, in_dim=3, factors=facs, V0=V0),
            InnerFn(2, 2),
            InnerFn(out_dim=3, in_dim=2, power=3, V0=V0[:, :2])]


@pytest.mark.parametrize("case", range(5))
def test_inner_colligation_is_isometric_and_realizes_theta(case):
    theta = feedback_thetas()[case]
    col = theta
    assert col.state_dim == theta.power * theta.out_dim + len(theta.factors)
    M = col.colligation()
    assert operator_norm(M.conj().T @ M - np.eye(M.shape[1])) <= 1e-12
    coeffs = inner_taylor_oracle(theta, 128)
    values = inner_values_oracle(theta, GRID)
    for fn in (col, theta):
        assert np.abs(fn.taylor_stack(128) - coeffs).max() <= 1e-14
        assert np.abs(fn.eval_many(GRID) - values).max() <= 1e-14


def feedback_parameters(theta):
    """Realized Z from U into Y + E: state 0, Y = 0, and a generic one."""
    u, e = theta.out_dim, theta.in_dim
    return [random_schur(2 + e, u, 0, seed=71, scale=0.9),
            random_schur(e, u, 2, seed=72, scale=0.9),
            random_schur(2 + e, u, 3, seed=73, scale=0.9)]


@pytest.mark.parametrize("N", [4, 64, 128])
@pytest.mark.parametrize("case", range(5))
def test_h_from_Z_feedback_matches_the_series_path(case, N):
    theta = feedback_thetas()[case]
    col = theta
    for Z in feedback_parameters(theta):
        got = h_from_Z_theta(theta, Z, N).taylor_stack(N)
        want = h_from_Z_theta(theta, PolyOpFn(Z.out_dim, Z.in_dim, Z.taylor_stack(N)),
                              N).taylor_stack(N)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))
        y = Z.out_dim - theta.in_dim
        Acl = _closed_loop(Z, y, col).A
        assert operator_norm(Acl) <= 1.0 + 1e-12


def test_realized_multipliers_never_take_the_resolvent(monkeypatch):
    refuse(monkeypatch, series, "resolvent")
    theta = random_inner(74, 3, 3)
    H = h_from_Z_theta(theta, random_schur(5, 3, 2, seed=75, scale=0.6), 64)
    assert H.degree == 64


def test_inner_function_is_its_own_realization():
    # its coefficients, values and colligation are SchurRealization's
    assert isinstance(random_inner(74, 3, 3), SchurRealization)
    for name in ("taylor_stack", "_values", "colligation"):
        assert name not in vars(InnerFn)


def test_inner_functions_compare_and_hash_by_identity():
    a, b = random_inner(3, 2, 2), random_inner(3, 2, 2)
    assert np.array_equal(a.colligation(), b.colligation())
    assert a == a and a != b
    assert len({a, b, a}) == 2 and hash(a) == hash(a)


@pytest.mark.parametrize("N", [4, 64])
def test_inner_function_as_a_parameter_takes_the_closed_loop(monkeypatch, N):
    # Z = lambda^3 V0 maps U = C^2 into C^3, which is Y + E and Y + U for Y = C
    theta = feedback_thetas()[0]
    Z = feedback_thetas()[4]
    poly = PolyOpFn(Z.out_dim, Z.in_dim, Z.taylor_stack(N))
    want = [h_from_Z_theta(theta, poly, N).taylor_stack(N),
            solve_from_Z(unconstrained_problem(2, 1), poly, N).taylor_stack(N)]
    refuse(monkeypatch, series, "resolvent")
    got = [h_from_Z_theta(theta, Z, N).taylor_stack(N),
           solve_from_Z(unconstrained_problem(2, 1), Z, N).taylor_stack(N)]
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-13 * max(1.0, np.linalg.norm(w))


# --- reverse parameterization -------------------------------------------


def test_z_from_H_rejects_expansive_multiplier():
    ms = model_space(InnerFn(2, 2), 8)
    H = PolyOpFn(2, 2, (2.0 * np.eye(2),))
    with pytest.raises(NotAContraction):
        z_from_H_theta(InnerFn(2, 2), H, ms, 8)


def test_z_from_H_rejects_mismatched_model_space():
    ms = model_space(InnerFn(1, 1), 8)
    H = PolyOpFn(1, 1, (np.zeros((1, 1)),))
    with pytest.raises(DimensionMismatch):
        z_from_H_theta(InnerFn(1, 1), H, ms, 10)
    with pytest.raises(DimensionMismatch):
        z_from_H_theta(InnerFn(1, 1), PolyOpFn(1, 2, (np.zeros((1, 2)),)), ms, 8)


def test_roundtrip_scalar_shift_theta():
    # H = c / (1 - s lambda) is a strict multiplication contraction;
    # recover a parameter and rebuild H
    c, s, N = 0.5, 0.4, 24
    theta = InnerFn(1, 1)
    ms = model_space(theta, N)
    H = PolyOpFn(1, 1, tuple(np.array([[c * s ** n]]) for n in range(N + 1)))
    Z1 = z_from_H_theta(theta, H, ms, N)
    H1 = h_from_Z_theta(theta, Z1, N)
    assert coeff_diff(H, H1, N) < 1e-7
    assert Z1.meta["w0_residual"] <= 1e-10
    assert Z1.meta["mult_tail"] <= 1e-8


def test_roundtrip_scalar_squared_theta():
    N = 16
    theta = scalar_power(2)
    ms = model_space(theta, N)
    H = random_multiplier(theta, 1, N, seed=11, scale=0.5)
    Z1 = z_from_H_theta(theta, H, ms, N)
    H1 = h_from_Z_theta(theta, Z1, N)
    assert coeff_diff(H, H1, N - theta.degree_bound - 4) < 1e-6


def test_roundtrip_zero_multiplier():
    N = 12
    theta = scalar_power(2)
    ms = model_space(theta, N)
    H = PolyOpFn(1, 1, (np.zeros((1, 1)),) * (N + 1))
    Z1 = z_from_H_theta(theta, H, ms, N)
    assert max(operator_norm(c[:1, :]) for c in Z1.taylor_stack(N)) <= 1e-14
    H1 = h_from_Z_theta(theta, Z1, N)
    assert max(operator_norm(H1.coeff(n)) for n in range(N + 1)) <= 1e-13


@pytest.mark.parametrize("k, size", enumerate([(2, 1, 64), (3, 3, 64), (2, 2, 128),
                                               (3, 2, 128), (3, 3, 128)]))
def test_realized_multiplier_gives_a_realized_parameter(monkeypatch, k, size):
    # the model_space benchmark's sizes, zeros of modulus <= 0.45; the
    # truncated path is run at 2N, where the tail of H's loop, which decays
    # like its pole radius, is below round-off on the compared degrees
    dim, n_factors, N = size
    theta = random_inner(600 + k, dim, n_factors)
    Z = random_schur(2 + dim, dim, 2, seed=610 + k, scale=0.5)
    H = h_from_Z_theta(theta, Z, N)
    H2 = h_from_Z_theta(theta, Z, 2 * N)
    want = z_from_H_theta(theta, PolyOpFn(2, dim, H2.coeffs), model_space(theta, 2 * N), 2 * N)
    refuse(monkeypatch, series, "resolvent", "inv")
    ms = model_space(theta, N)
    with monkeypatch.context() as m:
        refuse(m, modelspace, "multiplication_operator")
        got = z_from_H_theta(theta, H, ms, N)
    assert isinstance(got, Realization)
    assert set(got.meta) == {"w0_residual", "resolvent_rank", "resolvent_dropped", "pole_radius"}
    assert got.meta["w0_residual"] <= 1e-12 and 0.0 < got.meta["pole_radius"] < 1.0
    keep = N - theta.degree_bound - 4
    assert_rel_close(got.taylor_stack(keep), want.taylor_stack(keep))
    assert_rel_close(got.eval_many(GRID), want.eval_many(GRID))
    assert coeff_diff(H, h_from_Z_theta(theta, got, N), keep) <= 1e-14


@pytest.mark.parametrize("k, size", enumerate([(2, 1, 64), (3, 3, 64), (2, 2, 128),
                                               (3, 2, 128), (3, 3, 128)]))
def test_realized_multiplier_above_norm_one_is_refused_by_its_exact_norm(monkeypatch, k, size):
    # H scaled to norm 1 + 1e-6 on the model space, that norm read from the
    # truncated matrix at 2N, where the tails of the basis and of H's loop
    # are below round-off; at N the realized path builds no truncated matrix
    dim, n_factors, N = size
    theta = random_inner(600 + k, dim, n_factors)
    Z = random_schur(2 + dim, dim, 2, seed=610 + k, scale=0.5)
    loop = h_from_Z_theta(theta, Z, N).realization
    norm = mult_contraction_test(loop.truncated(2 * N), model_space(theta, 2 * N)).norm
    c = (1.0 + 1e-6) / norm
    big = Realization(loop.A, loop.B, c * loop.C, c * loop.D).truncated(N)
    ms = model_space(theta, N)
    refuse(monkeypatch, modelspace, "multiplication_operator")
    with pytest.raises(NotAContraction, match="multiplication operator has norm"):
        z_from_H_theta(theta, big, ms, N)
    assert isinstance(z_from_H_theta(theta, loop.truncated(N), ms, N), Realization)


def near_circle_theta(modulus: float, seed: int) -> InnerFn:
    """b_a(w) b_0.3(e_1) on C^2 with |a| = modulus, phase and w drawn from seed."""
    rng = np.random.default_rng(seed)
    a = modulus * np.exp(2j * np.pi * rng.uniform())
    w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return InnerFn(out_dim=2, in_dim=2,
                   factors=(BlaschkeFactor(a=a, w=w), BlaschkeFactor(a=0.3, w=np.eye(2)[0])))


@pytest.mark.parametrize("N", [64, 128, 256])
@pytest.mark.parametrize("modulus", [0.45, 0.9, 0.97, 0.99])
def test_multiplier_roundtrip_is_exact_near_the_circle(modulus, N):
    # the truncated basis misses the multiplier's Gram by |a|^N: at 0.99
    # and N = 64 it raised NotASolution or missed MULT_ROUNDTRIP_TOL
    for seed in range(10):
        theta = near_circle_theta(modulus, seed)
        H = random_multiplier(theta, 2, N, seed=1000 + seed)
        assert multiplier_roundtrip_residual(theta, H, model_space(theta, N)) <= 1e-12


def test_multipliers_without_an_exact_loop_keep_the_truncated_path():
    # a coefficient H, a realized H below degree N, a power Theta with
    # E < U and an H whose loop has rho = 1 all give the AnalyticFn of H's
    # coefficients alone, bit for bit
    N = 40
    theta = random_inner(620, 3, 2)
    short = random_multiplier(theta, 2, N - 5, seed=621)
    power = feedback_thetas()[4]
    stuck = Realization(np.eye(1), np.zeros((1, 3)), np.zeros((2, 1)),
                        0.3 * random_schur(2, 3, 0, seed=622).D).truncated(N)
    cases = [(theta, random_multiplier(theta, 2, N, seed=623)), (theta, short),
             (power, random_multiplier(power, 2, N, seed=624)), (theta, stuck)]
    for k, (th, H) in enumerate(cases):
        ms = model_space(th, N)
        got = z_from_H_theta(th, H, ms, N)
        want = z_from_H_theta(th, PolyOpFn(H.out_dim, H.in_dim, H.coeffs), ms, N)
        assert isinstance(want, AnalyticFn) and "pole_radius" not in want.meta
        if k == 0:
            assert isinstance(got, Realization)
            continue
        assert isinstance(got, AnalyticFn) and got.meta == want.meta
        assert got.taylor_stack(N).tobytes() == want.taylor_stack(N).tobytes()
        assert got.eval_many(GRID).tobytes() == want.eval_many(GRID).tobytes()


# --- pointwise multiplication test ---------------------------------------


def test_pointwise_check_accepts_genuine_multiplier():
    # N large enough that the dropped top-degree product coefficients
    # (|H_N| 0.95^N on the outer grid circle) sit below the tolerance
    N = 32
    theta = scalar_power(2)
    ms = model_space(theta, N)
    H = random_multiplier(theta, 2, N, seed=21, scale=0.5)
    G, _ = multiplication_operator(H, ms.basis, N)
    rep = pointwise_mult_check(G, ms)
    assert rep.consistent
    assert rep.intertwining_residual <= 1e-8
    assert rep.pointwise_residual <= 1e-8
    assert coeff_diff(rep.K, H, N) < 1e-8


def test_pointwise_check_rejects_perturbed_map():
    # a rank-one bump breaks the intertwining and the pointwise identity
    # together, keeping the biconditional consistent
    N = 32
    theta = scalar_power(2)
    ms = model_space(theta, N)
    H = random_multiplier(theta, 2, N, seed=22, scale=0.5)
    G, _ = multiplication_operator(H, ms.basis, N)
    rng = np.random.default_rng(23)
    bump = 0.05 * np.outer(rng.standard_normal(G.shape[0]),
                           rng.standard_normal(G.shape[1]))
    rep = pointwise_mult_check(G + bump, ms)
    assert rep.consistent
    assert rep.intertwining_residual > 1e-3
    assert rep.pointwise_residual > 1e-3


def test_pointwise_check_zero_map():
    N = 16
    ms = model_space(scalar_power(2), N)
    rep = pointwise_mult_check(np.zeros((2 * (N + 1), ms.basis.dim)), ms)
    assert rep.consistent
    assert rep.intertwining_residual == 0.0
    assert rep.pointwise_residual == 0.0
    assert max(operator_norm(rep.K.coeff(n)) for n in range(N + 1)) == 0.0


def test_pointwise_check_row_blocks_must_fill():
    ms = model_space(InnerFn(1, 1), 8)
    with pytest.raises(DimensionMismatch):
        pointwise_mult_check(np.zeros((10, 1)), ms)


def test_pointwise_check_trivial_for_plain_shift():
    # the model space of lambda I is the constants: every linear map is
    # multiplication by its own action, so both residuals vanish for any
    # input whatsoever
    N = 8
    ms = model_space(InnerFn(1, 1), N)
    rng = np.random.default_rng(1)
    G = rng.standard_normal((N + 1, 1))
    rep = pointwise_mult_check(G, ms)
    assert rep.consistent
    assert rep.intertwining_residual == 0.0
    assert rep.pointwise_residual <= 1e-13


# --- generators ----------------------------------------------------------


def test_random_inner_is_seeded_and_capped():
    a = random_inner(seed=4, dim=2, n_factors=3)
    b = random_inner(seed=4, dim=2, n_factors=3)
    assert operator_norm(a.taylor_stack(3)[3] - b.taylor_stack(3)[3]) == 0.0
    assert all(abs(f.a) <= 0.45 for f in a.factors)
    assert operator_norm(a.V0.conj().T @ a.V0 - np.eye(2)) < 1e-12


def test_random_multiplier_is_contractive():
    N = 32
    theta = random_inner(seed=6, dim=2, n_factors=1)
    ms = model_space(theta, N)
    H = random_multiplier(theta, 2, N, seed=7)
    rep = mult_contraction_test(H, ms)
    assert rep.contractive, rep.norm


def test_model_space_bases_skip_the_orthonormality_recheck(monkeypatch):
    # QR factors are orthonormal by construction; the public Subspace checks
    refuse(monkeypatch, Subspace, "__post_init__")
    for theta, N in ((random_inner(71, 3, 3), 64),
                     (InnerFn(out_dim=3, in_dim=2, power=2), 16)):
        ms = model_space(theta, N)
        for S in (ms.basis, ms.H0_basis):
            assert S.ambient_dim == (N + 1) * theta.out_dim
            assert operator_norm(S.basis.conj().T @ S.basis - np.eye(S.dim)) <= 1e-13


def test_state_space_parameter_takes_one_defect(monkeypatch):
    # the norm guard, central_C and W(0) read one Gram of the root, formed
    # once, and one defect of it, taken by lifting._fiber_z
    theta = random_inner(72, 3, 3)
    H = h_from_Z_theta(theta, random_schur(5, 3, 2, seed=73, scale=0.6), 64)
    ms = model_space(theta, 64)
    assert not hasattr(lifting, "defect")
    grams = count_calls(monkeypatch, linalg, "_gram")
    calls = count_calls(monkeypatch, lifting, "gram_defect")
    zeros = count_calls(monkeypatch, lifting, "_w_zero")
    assert isinstance(z_from_H_theta(theta, H, ms, 64), Realization)
    assert len(grams) == len(calls) == len(zeros) == 1 and calls[0][0] is zeros[0][0]


@pytest.mark.parametrize("case", ["coefficient H", "power Theta with E < U"])
def test_truncated_multiplier_is_guarded_by_the_gram_it_solves_with(monkeypatch, case):
    # one contraction_gram decides the norm and feeds _fiber_z: no SVD of the
    # multiplication matrix, and an expansive H still fails its norm guard
    N = 64
    if case == "coefficient H":
        theta = random_inner(72, 2, 2)
        H = random_multiplier(theta, 2, N, seed=73)
        H = PolyOpFn(H.out_dim, H.in_dim, H.coeffs)
    else:
        theta = InnerFn(out_dim=3, in_dim=2, power=2, V0=RECT_V0)
        H = random_multiplier(theta, 2, N, seed=4)
    ms = model_space(theta, N)
    shape = multiplication_operator(H, ms.basis, N)[0].shape
    c = (1.0 + 1e-6) / mult_contraction_test(H, ms).norm
    big = PolyOpFn(H.out_dim, H.in_dim, c * H.taylor_stack(N))
    grams = count_calls(monkeypatch, modelspace, "contraction_gram")
    svds = count_calls(monkeypatch, np.linalg, "svd")
    assert multiplier_roundtrip_residual(theta, H, ms) <= 1e-12
    assert len(grams) == 1
    assert not [args for args in svds if np.shape(args[0]) == shape]
    with pytest.raises(NotAContraction, match="multiplication operator has norm"):
        z_from_H_theta(theta, big, ms, N)


def test_an_inner_function_into_no_input_space_has_its_splittings_and_parameter():
    # E = 0 makes Theta = 0, and the model space all of truncated H^2(U); the
    # reshapes of Theta's column still know their row count
    N = 16
    theta = InnerFn(out_dim=2, in_dim=0)
    ms = model_space(theta, N)
    assert check_decompositions(theta, ms).ok()
    H = random_multiplier(theta, 2, N, seed=5)
    Z = z_from_H_theta(theta, H, ms, N)
    assert (Z.out_dim, Z.in_dim) == (2, 2)
    assert multiplier_roundtrip_residual(theta, H, ms) <= 1e-12
