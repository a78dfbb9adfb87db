"""Model-space construction, decompositions, and the multiplier
parameterization for inner functions vanishing at the origin."""

import numpy as np
import pytest

from _support import (analytic_toeplitz, coeff_diff, inner_taylor_oracle,
                      inner_values_oracle, shift_and_embed,
                      unconstrained_problem)
from liftkit.errors import (DegreeTooSmall, DimensionMismatch, DomainError,
                            NotAContraction)
from liftkit import series
from liftkit.hardy import GRID, PolyOpFn, column_operator, multiplication_operator
from liftkit.lifting import _closed_loop, solve_from_Z
from liftkit.modelspace import (BlaschkeFactor, InnerFn, check_decompositions,
                                h_from_Z_theta, model_space,
                                mult_contraction_test, pointwise_mult_check,
                                random_inner, random_multiplier, theta_shift,
                                z_from_H_theta)
from liftkit.linalg import operator_norm, projector_gap
from liftkit.schur import SchurRealization, random_schur


def bp_half():
    """lambda times a rank-one factor with zero at 0.5, acting on C^2."""
    return InnerFn(kind="bp_product", out_dim=2, in_dim=2,
                   factors=(BlaschkeFactor(a=0.5, w=np.array([1.0, 0.0])),))


def scalar_power(k):
    return InnerFn(kind="power", out_dim=1, in_dim=1, power=k)


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
    return InnerFn(kind="bp_product", out_dim=1, in_dim=1,
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
        InnerFn(kind="outer", out_dim=1, in_dim=1)
    with pytest.raises(DomainError):
        InnerFn(kind="power", out_dim=1, in_dim=1, power=0)
    with pytest.raises(DimensionMismatch):
        InnerFn(kind="bp_product", out_dim=2, in_dim=1)
    with pytest.raises(DomainError):
        InnerFn(kind="power", out_dim=1, in_dim=1,
                factors=(BlaschkeFactor(a=0.1, w=np.array([1.0])),))
    with pytest.raises(DomainError):
        InnerFn(kind="power", out_dim=2, in_dim=2, V0=0.5 * np.eye(2))
    with pytest.raises(DimensionMismatch):
        InnerFn(kind="bp_product", out_dim=2, in_dim=2,
                factors=(BlaschkeFactor(a=0.1, w=np.array([1.0, 0.0, 0.0])),))
    with pytest.raises(DimensionMismatch):
        InnerFn(kind="power", out_dim=0, in_dim=0)
    with pytest.raises(DomainError, match=r"^power must be an integer, got 1\.5$"):
        InnerFn(kind="power", out_dim=1, in_dim=1, power=1.5)
    # E = 0: Theta is the zero map and H is all of H^2(U)
    assert model_space(InnerFn(kind="power", out_dim=2, in_dim=0), 8).basis.dim == 18


def test_inner_degree_bound():
    assert theta_shift(3).degree_bound == 1
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
    th = theta_shift(1)
    th.eval(1.0)  # closed disk allowed, evaluation is rational
    with pytest.raises(DomainError):
        th.eval(1.01)


def test_phi_poly_is_shifted_theta():
    th = bp_half()
    phi = th.phi_poly(10)
    for n in range(10):
        assert np.allclose(phi.coeff(n), th.coeff(n + 1), atol=1e-15)
    assert operator_norm(th.coeff(0)) == 0.0


def test_rectangular_power_inner():
    V = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    th = InnerFn(kind="power", out_dim=3, in_dim=2, power=2, V0=V)
    assert np.allclose(th.eval(0.5), 0.25 * V)
    assert operator_norm(th.coeff(1)) == 0.0
    assert np.allclose(th.coeff(2), V)


# --- model spaces -------------------------------------------------------


def test_model_space_needs_room():
    with pytest.raises(DegreeTooSmall):
        model_space(theta_shift(1), 5)


@pytest.mark.parametrize("theta,N,dim,dim0", [
    (theta_shift(1), 8, 1, 0),
    (theta_shift(2), 8, 2, 0),
    (scalar_power(2), 10, 2, 1),
    (InnerFn(kind="power", out_dim=2, in_dim=2, power=3), 12, 6, 4),
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
    (theta_shift(2), 40),
    (scalar_power(2), 40),
    (InnerFn(kind="power", out_dim=2, in_dim=2, power=3), 40),
    (InnerFn(kind="power", out_dim=3, in_dim=2, power=2, V0=RECT_V0), 40),
    (bp_half(), 40),
    (InnerFn(kind="bp_product", out_dim=2, in_dim=2, power=2,
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
    (theta_shift(2), 8),
    (scalar_power(2), 10),
    (bp_half(), 40),
    (random_inner(seed=9, dim=2, n_factors=1), 32),
    # E smaller than U: H0 holds lambda^N ker V0*, which the truncated
    # shift drops
    (InnerFn(kind="power", out_dim=3, in_dim=2, power=2, V0=RECT_V0), 16),
    (InnerFn(kind="power", out_dim=3, in_dim=2, power=2, V0=RECT_V0), 40),
])
def test_decompositions(theta, N):
    ms = model_space(theta, N)
    rep = check_decompositions(theta, ms)
    assert rep.ok(), rep


# --- multiplication bound ----------------------------------------------


def test_mult_bound_zero_and_expansive():
    ms = model_space(theta_shift(1), 8)
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
    ms = model_space(theta_shift(1), N)
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
    theta = InnerFn(kind="power", out_dim=u, in_dim=u, power=k)
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
        h_from_Z_theta(theta_shift(2), random_schur(3, 3, 1, seed=0), 8)


def test_h_from_Z_constant_parameter_is_geometric():
    Z = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)),
                         np.zeros((2, 0)), np.array([[0.6], [0.8]]))
    H = h_from_Z_theta(theta_shift(1), Z, 24)
    worst = max(abs(H.coeff(n)[0, 0] - 0.6 * 0.8 ** n) for n in range(25))
    assert worst < 1e-12


def test_h_from_Z_zero_top_block():
    Z = SchurRealization(np.zeros((0, 0)), np.zeros((0, 1)),
                         np.zeros((2, 0)), np.array([[0.0], [0.7]]))
    H = h_from_Z_theta(theta_shift(1), Z, 16)
    assert max(operator_norm(H.coeff(n)) for n in range(17)) == 0.0


def test_h_from_Z_shift_theta_matches_free_interpolation():
    # for Theta = lambda I the parameterization is the unconstrained
    # linear-fractional map
    u, y, N = 2, 2, 20
    Z = random_schur(y + u, u, 2, seed=33, scale=0.7)
    H1 = h_from_Z_theta(theta_shift(u), Z, N)
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
    return [InnerFn(kind="bp_product", out_dim=2, in_dim=2, power=2),
            bp_half(),
            InnerFn(kind="bp_product", out_dim=3, in_dim=3, factors=facs, V0=V0),
            theta_shift(2),
            InnerFn(kind="power", out_dim=3, in_dim=2, power=3, V0=V0[:, :2])]


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
        Acl = _closed_loop(Z.A, Z.B, Z.C, Z.D, y, (col.A, col.B, col.C))[0]
        assert operator_norm(Acl) <= 1.0 + 1e-12


def test_realized_multipliers_never_take_the_resolvent(monkeypatch):
    def refuse(x):
        raise AssertionError("series.resolvent called on a realized parameter")

    monkeypatch.setattr(series, "resolvent", refuse)
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

    def refuse(x):
        raise AssertionError("series.resolvent called on a realized parameter")

    monkeypatch.setattr(series, "resolvent", refuse)
    got = [h_from_Z_theta(theta, Z, N).taylor_stack(N),
           solve_from_Z(unconstrained_problem(2, 1), Z, N).taylor_stack(N)]
    for g, w in zip(got, want):
        assert np.linalg.norm(g - w) <= 1e-13 * max(1.0, np.linalg.norm(w))


# --- reverse parameterization -------------------------------------------


def test_z_from_H_rejects_expansive_multiplier():
    ms = model_space(theta_shift(2), 8)
    H = PolyOpFn(2, 2, (2.0 * np.eye(2),))
    with pytest.raises(NotAContraction):
        z_from_H_theta(theta_shift(2), H, ms, 8)


def test_z_from_H_rejects_mismatched_model_space():
    ms = model_space(theta_shift(1), 8)
    H = PolyOpFn(1, 1, (np.zeros((1, 1)),))
    with pytest.raises(DimensionMismatch):
        z_from_H_theta(theta_shift(1), H, ms, 10)
    with pytest.raises(DimensionMismatch):
        z_from_H_theta(theta_shift(1), PolyOpFn(1, 2, (np.zeros((1, 2)),)), ms, 8)


def test_roundtrip_scalar_shift_theta():
    # H = c / (1 - s lambda) is a strict multiplication contraction;
    # recover a parameter and rebuild H
    c, s, N = 0.5, 0.4, 24
    theta = theta_shift(1)
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
    ms = model_space(theta_shift(1), 8)
    with pytest.raises(DimensionMismatch):
        pointwise_mult_check(np.zeros((10, 1)), ms)


def test_pointwise_check_trivial_for_plain_shift():
    # the model space of lambda I is the constants: every linear map is
    # multiplication by its own action, so both residuals vanish for any
    # input whatsoever
    N = 8
    ms = model_space(theta_shift(1), N)
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
    assert operator_norm(a.coeff(3) - b.coeff(3)) == 0.0
    assert all(abs(f.a) <= 0.45 for f in a.factors)
    assert operator_norm(a.V0.conj().T @ a.V0 - np.eye(2)) < 1e-12


def test_random_multiplier_is_contractive():
    N = 32
    theta = random_inner(seed=6, dim=2, n_factors=1)
    ms = model_space(theta, N)
    H = random_multiplier(theta, 2, N, seed=7)
    rep = mult_contraction_test(H, ms)
    assert rep.contractive, rep.norm
