"""Shared builders for the test suite."""

import numpy as np

from liftkit import InterpolationProblem, Subspace, series
from liftkit.errors import DimensionMismatch, SingularResolvent
from liftkit.hardy import column_operator, disk_points
from liftkit.lifting import W_ZERO_TOL, _w_taylor
from liftkit.linalg import COND_MAX, as_operator, defect, operator_norm
from liftkit.schur import Realization, _herglotz

# dimension cycle (U, Y, dim F) used by the randomized suites
DIMS = [(1, 1, 1), (2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 2),
        (3, 1, 0), (1, 2, 1), (2, 3, 2), (4, 2, 3), (5, 3, 4)]


def scalar_fixture() -> InterpolationProblem:
    """F = U = C, omega = [0.6; 0.8]; unique solution H_n = 0.6 * 0.8^n."""
    return InterpolationProblem(U_dim=1, Y_dim=1, F=Subspace(1, np.eye(1)),
                                omega1=np.array([[0.6]]),
                                omega2=np.array([[0.8]]))


def unconstrained_problem(u: int, y: int) -> InterpolationProblem:
    return InterpolationProblem(U_dim=u, Y_dim=y,
                                F=Subspace(u, np.zeros((u, 0))),
                                omega1=np.zeros((y, 0)),
                                omega2=np.zeros((u, 0)))


def wrong_beyond_degree(H, N: int, eps: float):
    """H's loop plus an (N+2)-state shift register into C, truncated at N.

    The register adds eps c b at degree N+2 only, with c = (1, ..., 1)/sqrt(Y)
    and b the first row of I_U, so coefficients 0..N+1 are H's and the
    recurrence breaks, beyond the degree, by eps ||b F||."""
    loop, k = H.realization, N + 2
    n, (y, u) = loop.state_dim, loop.D.shape
    A = np.zeros((n + k, n + k), dtype=np.complex128)
    A[:n, :n], A[n:, n:] = loop.A, np.eye(k, k=-1)
    B = np.vstack([loop.B, np.eye(k, 1) @ np.eye(1, u)])
    C = np.hstack([loop.C, np.zeros((y, k - 1)), np.full((y, 1), eps / np.sqrt(y))])
    return Realization(A, B, C, loop.D).truncated(N)


def resolvent_loop_oracle(Cfun) -> Realization:
    """(I - lambda C)^-1 as the closed loop of [I; C] at Theta = lambda I with
    no rank decision: ([[A, B], [C, D]], [B; D], [0, I], I), state that of C
    plus its input."""
    d, n = Cfun.out_dim, Cfun.state_dim
    return Realization(np.block([[Cfun.A, Cfun.B], [Cfun.C, Cfun.D]]),
                       np.vstack([Cfun.B, Cfun.D]), np.eye(d, n + d, n), np.eye(d))


def sns_lifting(Tprime, N: int) -> np.ndarray:
    """Truncated minimal isometric lifting of a contraction.

    Block matrix [[T', 0], [E C, S]] on H' + truncated H^2 over the
    defect space of T', with C = D_T' written in its orthonormal range
    coordinates.  Isometric except on the top-degree block, which the
    truncated shift drops.  verify_rcl applies the same blocks without
    forming this matrix.
    """
    T = as_operator(Tprime)
    if T.shape[0] != T.shape[1]:
        raise DimensionMismatch("Tprime must be square")
    D, drange = defect(T)
    hp, d = len(T), drange.dim
    U = np.eye(hp + (N + 1) * d, k=-d, dtype=np.complex128)  # T', C overwrite H''s columns
    U[:hp, :hp] = T
    U[hp:hp + d, :hp] = drange.basis.conj().T @ D
    return U


def stacked(cand) -> np.ndarray:
    """The column B = [A_part; tail's coefficient column] of a lifting candidate."""
    return np.vstack([cand.A_part, column_operator(cand.tail, cand.tail.degree)])


def coeff_diff(H1, H2, upto: int) -> float:
    return max(operator_norm(H1.coeff(n) - H2.coeff(n))
               for n in range(upto + 1))


def refuse(monkeypatch, owner, *names) -> None:
    """Patch each named attribute of owner to raise AssertionError when called."""
    for name in names:
        def refused(*args, _name=name, **kwargs):
            raise AssertionError(f"{getattr(owner, '__name__', owner)}.{_name} was called")

        monkeypatch.setattr(owner, name, refused)


def count_calls(monkeypatch, owner, name) -> list:
    """Record the positional arguments of each call of owner.name, which
    still runs; the returned list grows with every call."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def assert_rel_close(got, want):
    """Same shape, and within 1e-13 of want relative to max(1, ||want||_F)."""
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * max(1.0, np.linalg.norm(want))


def taylor_sum(fn, lam: complex, N: int) -> np.ndarray:
    acc = np.zeros((fn.out_dim, fn.in_dim), dtype=np.complex128)
    for c in fn.taylor_stack(N)[::-1]:
        acc = c + lam * acc
    return acc


def shift_and_embed(dim: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense truncated forward shift S and embedding E of constants.

    The oracle of hardy.shift and hardy.shift_adjoint: S maps coefficient
    block n to block n+1 and drops block N; E places a vector at block 0.
    Both act on the stacked (N+1)*dim coordinates.
    """
    if dim < 0 or N < 0:
        raise ValueError("dim and N must be nonnegative")
    size = (N + 1) * dim
    S = np.eye(size, k=-dim, dtype=np.complex128)
    E = np.eye(size, dim, dtype=np.complex128)
    return S, E


def analytic_toeplitz(H, N: int) -> np.ndarray:
    """Dense block lower-triangular Toeplitz matrix of multiplication by H.

    The oracle of hardy.multiplication_operator: block (i, j) is H_(i-j),
    so the matrix maps stacked degree-N coefficients of C^in-valued
    polynomials to the degree-N part of their product with H.
    """
    out, inn = H.out_dim, H.in_dim
    T = np.zeros((N + 1, out, N + 1, inn), dtype=np.complex128)
    j = np.arange(N + 1)
    for k, c in enumerate(H.taylor_stack(min(H.degree, N))):
        T[j[k:], :, j[:N + 1 - k], :] = c
    return T.reshape((N + 1) * out, (N + 1) * inn)


def dense_tail_rows(H, N: int) -> np.ndarray:
    """Rows of the product coefficients of degree N+1..N+deg that the
    truncation drops: row block m is [H_m H_(m-1) ... H_(m-N)]."""
    out, inn = H.out_dim, H.in_dim
    S = H.taylor_stack(N + H.degree)
    rows = [S[m - N:m + 1][::-1].transpose(1, 0, 2).reshape(out, (N + 1) * inn)
            for m in range(N + 1, N + H.degree + 1)]
    return np.vstack(rows) if rows else np.zeros((0, (N + 1) * inn))


def blaschke_scalar_stack(a: complex, N: int) -> np.ndarray:
    """Taylor coefficients 0..N of b_a = (|a|/a)(a - lambda)/(1 - conj(a) lambda).

    b_0 = lambda by convention; otherwise b_a(0) = |a| and the degree-n
    coefficient is -(|a|/a)(1 - |a|^2) conj(a)^(n-1).
    """
    c = np.zeros(N + 1, dtype=np.complex128)
    if a == 0:
        c[1:2] = 1.0
        return c
    c[0] = abs(a)
    c[1:] = -(abs(a) / a) * (1.0 - abs(a) ** 2) * np.conj(a) ** np.arange(N)
    return c


def blaschke_value(a: complex, z):
    """b_a at each point of z."""
    if a == 0:
        return z
    return (abs(a) / a) * (a - z) / (1.0 - np.conj(a) * z)


def inner_taylor_oracle(theta, N: int) -> np.ndarray:
    """Coefficients 0..N of lambda^power B_1...B_k V0 from the factor series.

    The oracle of InnerFn.taylor_stack: each factor B = I + (b_a - 1) w w*
    acts on a truncated series X as X + w ((b_a - 1) * (w* X)), one
    np.convolve per column, innermost factor first; lambda^power then
    shifts the product.
    """
    u, e, p = theta.out_dim, theta.in_dim, theta.power
    out = np.zeros((N + 1, u, e), dtype=np.complex128)
    L = N + 1 - p
    if L <= 0:
        return out
    X = np.zeros((L, u, e), dtype=np.complex128)
    X[0] = theta.V0
    for f in reversed(theta.factors):
        c = blaschke_scalar_stack(f.a, L - 1)
        c[0] -= 1.0
        s = f.w.conj() @ X
        t = np.stack([np.convolve(c, s[:, j])[:L] for j in range(e)], axis=1)
        X = X + f.w[:, None] * t[:, None, :]
    out[p:] = X
    return out


def inner_values_oracle(theta, points) -> np.ndarray:
    """lambda^power B_1(lambda)...B_k(lambda) V0 at each point, a (P, out, in) stack.

    The oracle of InnerFn.eval_many: each factor is the projector form
    (I - w w*) + b_a(lambda) w w*.
    """
    z = np.asarray(points, dtype=np.complex128).reshape(-1)
    u = theta.out_dim
    acc = np.broadcast_to(np.eye(u, dtype=np.complex128), (z.size, u, u))
    for f in theta.factors:
        P = np.outer(f.w, f.w.conj())
        acc = acc @ (np.eye(u) - P + blaschke_value(f.a, z)[:, None, None] * P)
    return (z ** theta.power)[:, None, None] * (acc @ theta.V0)


def svd_singular_rule(M, what: str) -> None:
    """The singularity guard as the SVD decides it, before any certificate.

    The oracle of linalg.require_invertible and require_inverse: raise
    SingularResolvent if M, or a matrix of a (P, n, n) stack, has
    sigma_min * COND_MAX < max(1, sigma_max).
    """
    s = np.linalg.svd(M, compute_uv=False)
    if s.shape[-1] and np.any(s[..., -1] * COND_MAX < np.maximum(1.0, s[..., 0])):
        raise SingularResolvent(f"{what} is numerically singular")


def series_inv_oracle(a) -> np.ndarray:
    """series.inv as the SVD-guarded inverse of a_0 and a resolvent."""
    a = np.asarray(a, dtype=np.complex128)
    svd_singular_rule(a[0], "constant term of the series")
    a0inv = np.linalg.inv(a[0])
    return series._resolvent(-(a0inv @ a[1:])) @ a0inv


def herglotz(Cfun, points) -> np.ndarray:
    """schur._herglotz, the Herglotz transform that the coefficient path of a
    fiber parameter reads, at points checked as an evaluation checks them."""
    return _herglotz(Cfun, disk_points(points))


def herglotz_oracle(Cfun, points) -> np.ndarray:
    """herglotz with the SVD guard before its batched right division."""
    z = disk_points(points)
    V = z[:, None, None] * Cfun.eval_many(z)
    eye = np.eye(V.shape[1])
    A = eye - V
    svd_singular_rule(A, "I - lambda*C(lambda)")
    At = A.transpose(0, 2, 1)
    return np.linalg.solve(At, (eye + V).transpose(0, 2, 1)).transpose(0, 2, 1)


def polyval_oracle(a, z) -> np.ndarray:
    """sum_k a_k z^k at each point of z, its own powers for each call."""
    L, m, n = a.shape
    powers = np.ones((z.size, L), dtype=np.complex128)
    powers[:, 1:] = np.cumprod(np.broadcast_to(z[:, None], (z.size, L - 1)), axis=1)
    return (powers @ a.reshape(L, m * n)).reshape(z.size, m, n)


def z_from_C_rule_oracle(p, H, Gamma, Cfun, N: int):
    """The pointwise rule of lifting.z_from_C, a function of a point vector.

    Every value is checked as a public call checks it: H, C and the
    Herglotz transform each check the points again, each polynomial gets
    its own powers, and W(lambda) + I gets the SVD guard before
    np.linalg.inv.
    """
    u, y = p.U_dim, p.Y_dim
    G = np.asarray(Gamma, dtype=np.complex128)
    D, drange = defect(G, W_ZERO_TOL)
    Bd = drange.basis
    Hs = H.taylor_stack(N)
    gamma_sq = G.conj().T @ G
    DB = D @ Bd
    BD = Bd.conj().T @ D
    W, first = _w_taylor(Hs, gamma_sq + D @ D, Cfun, DB, BD)
    eye = np.eye(u, dtype=np.complex128)
    Wp = W.copy()
    Wp[0] += eye
    M = series_inv_oracle(Wp)
    coeff0 = np.concatenate([2.0 * series.mul(Hs, M), -2.0 * M[1:]], axis=1)[0]
    remainder = D @ D - DB @ BD

    def rule(points):
        z = np.asarray(points, dtype=np.complex128).reshape(-1)
        out = np.empty((z.size, y + u, u), dtype=np.complex128)
        at0 = z == 0
        out[at0] = coeff0
        lam = z[~at0]
        if lam.size:
            lam3 = lam[:, None, None]
            Wv = (gamma_sq + 2.0 * lam3 * polyval_oracle(first, lam)
                  + DB @ herglotz_oracle(Cfun, lam) @ BD + remainder)
            Aplus = Wv + eye
            svd_singular_rule(Aplus, "W(lambda) + I")
            inv = np.linalg.inv(Aplus)
            Hv = polyval_oracle(H.taylor_stack(H.degree), disk_points(lam))
            out[~at0, :y] = 2.0 * (Hv @ inv)
            out[~at0, y:] = ((Wv - eye) @ inv) / lam3
        return out

    return rule
