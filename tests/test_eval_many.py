"""eval_many against the per-point eval for every analytic function type."""

from types import SimpleNamespace

import numpy as np
import pytest

from _support import (count_calls, herglotz, herglotz_oracle, inner_values_oracle, refuse,
                      z_from_C_rule_oracle)
from liftkit import hardy
from liftkit.errors import DimensionMismatch, DomainError, SingularResolvent
from liftkit.hardy import GRID, AnalyticFn, PolyOpFn, column_operator, default_grid
from liftkit.lifting import (_gamma_data, central_C, parameter_membership,
                             random_constrained_z, random_problem, solve_from_Z,
                             z_from_C)
from liftkit.linalg import Subspace, hermitian_sqrt_psd
from liftkit.modelspace import random_inner
from liftkit.schur import (Realization, SchurRealization, _complete, _completion_frame,
                           random_schur)

N = 24
POINTS = (0.0,) + default_grid(N).points


def fiber_data(seed=3):
    """(problem, H, Gamma, central C) of a (2, 2, 1) problem."""
    p = random_problem(2, 2, 1, seed, scale=0.45)
    H = solve_from_Z(p, random_constrained_z(p, 2, seed + 1, scale=0.5), N)
    Gamma = column_operator(H, N)
    return p, H, Gamma, central_C(p, Gamma)


def coefficient_H(H):
    """H without its loop, so that z_from_C takes the coefficient path."""
    return PolyOpFn(H.out_dim, H.in_dim, H.coeffs)


def fiber_parameter(seed=3, Cfun=None, realized=True):
    p, H, Gamma, C = fiber_data(seed)
    H = H if realized else coefficient_H(H)
    return z_from_C(p, H, Gamma, C if Cfun is None else Cfun, N), Gamma


def poly():
    rng = np.random.default_rng(4)
    return PolyOpFn(2, 3, tuple(0.4 ** n * rng.standard_normal((2, 3))
                                for n in range(N + 1)))


FUNCTIONS = {
    "PolyOpFn": poly,
    "SchurRealization": lambda: random_schur(3, 2, 3, seed=9, scale=0.9),
    "InnerFn": lambda: random_inner(seed=5, dim=3, n_factors=2),
    "AnalyticFn": lambda: fiber_parameter(realized=False)[0],
    "Realization": lambda: fiber_parameter()[0],
}


def reference(name, fn, z):
    """Independent per-point formula for each type."""
    if name == "PolyOpFn":
        acc = np.zeros((fn.out_dim, fn.in_dim), dtype=np.complex128)
        for c in reversed(fn.coeffs):
            acc = c + z * acc
        return acc
    if name in ("SchurRealization", "Realization"):
        n = fn.state_dim
        return fn.D + z * fn.C @ np.linalg.solve(np.eye(n) - z * fn.A, fn.B)
    if name == "InnerFn":
        return inner_values_oracle(fn, [z])[0]
    return fn.eval(z)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_eval_many_matches_per_point_eval(name):
    fn = FUNCTIONS[name]()
    batch = fn.eval_many(POINTS)
    assert batch.shape == (len(POINTS), fn.out_dim, fn.in_dim)
    for z, got in zip(POINTS, batch):
        # one point is row 0 of its one-point batch, bit for bit
        assert np.array_equal(fn.eval(z), fn.eval_many([z])[0])
        assert np.abs(got - fn.eval(z)).max() <= 1e-13
        assert np.abs(got - reference(name, fn, z)).max() <= 1e-12


def test_z_from_C_at_zero_is_constant_coefficient():
    Z1, _ = fiber_parameter()
    assert np.array_equal(Z1.eval_many([0.0, 0.5])[0], Z1.taylor_stack(0)[0])
    assert np.array_equal(Z1.eval(0.0), Z1.taylor_stack(0)[0])


def per_point(fn, points):
    return [fn.eval(z) for z in points]


def assert_same_error(fn, points, exc, match=None):
    with pytest.raises(exc, match=match):
        per_point(fn, points)
    with pytest.raises(exc, match=match):
        fn.eval_many(points)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_one_point_off_the_disk_raises_domain_error(name):
    fn = FUNCTIONS[name]()
    bad = 1.01 if name == "InnerFn" else 1.0
    assert_same_error(fn, [0.2, 0.5j, bad, 0.1], DomainError)
    # NaN compares False with every bound, so it must fail the disk test
    assert_same_error(fn, [0.2, 0.5j, float("nan"), 0.1], DomainError, match="nan")


def test_herglotz_rejects_a_nan_point():
    C = fiber_data()[3]
    with pytest.raises(DomainError, match="nan"):
        herglotz(C, [0.3, float("nan")])


def test_inner_fn_keeps_the_closed_disk():
    th = FUNCTIONS["InnerFn"]()
    pts = [0.3, 1.0, -1j]
    batch = th.eval_many(pts)
    for z, got in zip(pts, batch):
        assert np.array_equal(th.eval(z), th.eval_many([z])[0])
        assert np.abs(got - th.eval(z)).max() <= 1e-13
    with pytest.raises(DomainError, match="is not <= 1"):
        th.eval(1.0 + 1e-9)


def test_herglotz_guard_raises_in_batch():
    # C = I on the defect space makes I - lambda C singular as lambda -> 1
    _, Gamma = fiber_parameter()
    d = np.linalg.matrix_rank(hermitian_sqrt_psd(np.eye(2) - Gamma.conj().T @ Gamma),
                              tol=1e-9)
    C = SchurRealization(np.zeros((0, 0)), np.zeros((0, d)), np.zeros((d, 0)),
                         np.eye(d))
    Z1, _ = fiber_parameter(Cfun=C, realized=False)
    assert_same_error(Z1, [0.3, 1.0 - 1e-13, 0.2], SingularResolvent,
                      match="lambda\\*C")


def constant(C0):
    """The constant function C0 as a loop with no state."""
    n = len(C0)
    return Realization(np.zeros((0, 0)), np.zeros((0, n)), np.zeros((n, 0)), C0)


def test_w_plus_identity_guard_raises_in_batch():
    # with C = c I, W(lambda) + I = A0 + (g - 1) D^2 where A0 is its value
    # for C = 0 and g = (1 + lambda c) / (1 - lambda c); choose c so that
    # this matrix is singular at lam0
    lam0 = 0.5
    _, Gamma = fiber_parameter()
    D2 = np.eye(2) - Gamma.conj().T @ Gamma
    d = np.linalg.matrix_rank(hermitian_sqrt_psd(D2), tol=1e-9)
    Zc, _ = fiber_parameter(Cfun=constant(np.zeros((d, d))), realized=False)
    bot = Zc.eval(lam0)[2:, :]
    A0inv = (np.eye(2) - lam0 * bot) / 2.0
    mu = np.linalg.eigvals(A0inv @ D2)
    g = 1.0 - 1.0 / mu[np.argmax(np.abs(mu))]
    c = (g - 1.0) / (lam0 * (g + 1.0))
    Z1, _ = fiber_parameter(Cfun=constant(c * np.eye(d)), realized=False)
    assert_same_error(Z1, [0.3, lam0, 0.2], SingularResolvent,
                      match="W\\(lambda\\) \\+ I")


def fiber_members(p, Gamma):
    """Four members over Gamma: the central C, a realized C with two states,
    and that C as an AnalyticFn and as a bare object with only the protocol
    (taylor_stack and eval_many, no _values), which are no loops.

    The realized member is Omega P_(F_Gamma) + D_(Omega*) X(lambda) P_(F_Gamma perp)
    in defect coordinates, the constrained completion of (F_Gamma, Omega).
    """
    Bd, FG, Om = _gamma_data(p, Gamma)
    d = Bd.shape[1]
    q = SimpleNamespace(omega=Om, F=Subspace(d, Bd.conj().T @ FG.basis), U_dim=d)
    frame = _completion_frame(q)
    X = random_schur(frame[0].shape[1], frame[1].shape[1], 2, seed=8, scale=0.9)
    realized = _complete(q, frame, X)
    wrapped = AnalyticFn(d, d, realized.taylor_stack(N + 1), realized.eval_many)
    bare = SimpleNamespace(in_dim=d, out_dim=d, taylor_stack=realized.taylor_stack,
                           eval_many=realized.eval_many)
    return {"central": central_C(p, Gamma), "realized": realized, "analytic": wrapped,
            "protocol": bare}


@pytest.mark.parametrize("member", ["central", "realized", "analytic", "protocol"])
def test_z_from_C_values_are_bit_identical_to_the_checked_rule(member):
    # the rule that checks every point at every call and guards by the SVD,
    # for the pointwise rule of the coefficient path
    p, H, Gamma, _ = fiber_data()
    C = fiber_members(p, Gamma)[member]
    assert parameter_membership(C, p, Gamma)
    if member in ("analytic", "protocol"):
        # a fiber member is a loop: z_from_C refuses any other C on both paths
        for h in (H, coefficient_H(H)):
            with pytest.raises(DimensionMismatch, match=f"got {type(C).__name__}$"):
                z_from_C(p, h, Gamma, C, N)
        return
    H = coefficient_H(H)
    if member == "realized":
        assert C.state_dim == 2
    Zc = z_from_C(p, H, Gamma, C, N)
    rule = z_from_C_rule_oracle(p, H, Gamma, C, N)
    assert np.array_equal(Zc.eval_many(POINTS), rule(POINTS))
    assert np.array_equal(Zc.eval_many(GRID), rule(GRID))
    for z in POINTS:
        assert np.array_equal(Zc.eval(z), rule([z])[0])
    assert np.array_equal(herglotz(C, POINTS), herglotz_oracle(C, POINTS))
    for z in POINTS[:8]:
        assert np.array_equal(herglotz(C, [z]), herglotz_oracle(C, [z]))


def test_one_evaluation_checks_its_point_once(monkeypatch):
    Z1, _ = fiber_parameter()
    calls = []

    def counted(points):
        calls.append(points)
        return check(points)

    check = hardy.disk_points
    monkeypatch.setattr(hardy, "disk_points", counted)
    Z1.eval(0.3 + 0.2j)
    assert len(calls) == 1
    Z1.eval_many(GRID)
    assert len(calls) == 2


def test_grid_evaluation_of_central_parameter_needs_no_svd(monkeypatch):
    # every W(lambda) + I and I - lambda C on GRID is cleared by the
    # certificate, so the SVD rule never runs
    Z1, _ = fiber_parameter()
    shapes = []

    def counted(M, **kw):
        shapes.append(np.shape(M))
        return svd(M, **kw)

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", counted)
    Z1.eval_many(GRID)
    for z in GRID:
        Z1.eval(z)
    assert shapes == []


def test_one_evaluation_solves_once_and_builds_no_broadcast_view(monkeypatch):
    Z1, _ = fiber_parameter()
    assert Z1.state_dim > 0
    refuse(monkeypatch, np, "broadcast_to")
    solves = count_calls(monkeypatch, np.linalg, "solve")
    Z1.eval(0.3 + 0.2j)
    assert len(solves) == 1
