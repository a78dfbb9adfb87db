"""Constrained interpolation in the truncated Hardy space.

The data is a contraction omega = [omega1; omega2] from a subspace F of
the input space U into Y + U.  A solution is a contractive column
Gamma: U -> H^2(Y), with defining function H, such that

    H_0|_F = omega1   and   H_n|_F = H_(n-1) omega2  for n >= 1.

Solutions come from Schur-class parameters Z in S(U, Y + U) with
Z(lambda)|_F = omega as H = P_Y Z (I - lambda P_U Z)^-1: for a realized Z,
the truncation of the closed loop, a schur.Realization kept as
H.realization; a Taylor recursion otherwise.  The fiber of parameters
over one solution is indexed by Schur-class C on the defect space of
Gamma with C|_(F_Gamma) = Omega, F_Gamma = closure(D_Gamma F); _fiber_z,
the one construction behind z_from_C and the fiber roundtrips, maps C to
Z_C = [2 H (W+I)^-1 ; lambda^-1 (W-I)(W+I)^-1] through

    W(lambda) = Gamma* (I + lambda S*)(I - lambda S*)^-1 Gamma
                + D_Gamma (I + lambda C(lambda))(I - lambda C(lambda))^-1 D_Gamma,

with W(0) = I.  C is a schur.Realization, and Z_C is a realization, W's sums
over H's loop taken from its Realization.gramian_root, when H is realized to
degree >= N; else truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import series
from .errors import (ConstraintViolated, DimensionMismatch, InconsistentGenerators,
                     NonFiniteResult, NotAContraction, NotASolution,
                     WNotNormalizedAtZero)
from .hardy import GRID, AnalyticFn, PolyOpFn, column_operator
from .linalg import (CONTRACTION_SLACK, Subspace, as_operator, block_2x2,
                     contraction_on_generators, gram_defect, operator_norm,
                     operator_norms, orthonormal_range, realized_sup_bound,
                     require_contraction, require_invertible, roundoff_range, seeded_rng,
                     stable_radius)
from .schur import (Realization, SchurRealization, _assembled, _complete,
                    _completion_frame, _herglotz, random_schur)

W_ZERO_TOL = 1e-8
# contraction slack and residual tolerance of the checks on a solution column
# and its Gram, its Omega, a parameter's grid constraint, fiber members and multipliers
CHECK_TOL = 1e-8
# thresholds of a solution's recurrence residual and of the fiber roundtrip gap
RECURRENCE_TOL = 1e-9
FIBER_GAP_TOL = 1e-7


def _failures(*checks) -> list:
    """One message for each (name, residual, threshold) whose residual is not
    <= its threshold, so that a NaN residual fails: the one verdict rule."""
    return [f"{name} {value:.3e} exceeds {tol:g}" for name, value, tol in checks
            if not value <= tol]


@dataclass(frozen=True, eq=False)
class InterpolationProblem:
    """Interpolation data: a contraction omega from F < C^U_dim into C^(Y+U)."""

    U_dim: int
    Y_dim: int
    F: Subspace
    omega1: np.ndarray
    omega2: np.ndarray

    def __post_init__(self):
        if self.F.ambient_dim != self.U_dim:
            raise DimensionMismatch("F must live in the input space")
        f = self.F.dim
        om1 = as_operator(self.omega1, rows=self.Y_dim, cols=f)
        om2 = as_operator(self.omega2, rows=self.U_dim, cols=f)
        om = np.vstack([om1, om2])
        om.setflags(write=False)
        # built once, and kept out of the fields that repr and digests read
        self.__dict__.update(omega1=om1, omega2=om2, _omega=om)
        require_contraction(om, "omega", CONTRACTION_SLACK)

    @property
    def omega(self) -> np.ndarray:
        """[omega1; omega2], read-only."""
        return self._omega


@dataclass(frozen=True)
class SolutionReport:
    """Residuals of a candidate solution; reporting never throws.

    For an H that carries its loop (verify_solution), recurrence_residual is
    the H^2 norm of the recurrence over every degree and partial_gram_excess
    the excess of the full column's Gram; otherwise both read degrees 0..N.
    """

    recurrence_residual: float
    partial_gram_excess: float
    degree: int

    def failures(self) -> list:
        return _failures(("recurrence_residual", self.recurrence_residual, RECURRENCE_TOL),
                         ("partial_gram_excess", self.partial_gram_excess, CHECK_TOL))

    def ok(self) -> bool:
        return not self.failures()


def solve_from_Z(p: InterpolationProblem, Z, N: int) -> PolyOpFn:
    """Taylor coefficients H_0..H_N of the solution attached to Z.

    Z may be any analytic operator function exposing eval_many and
    taylor_stack with in_dim = U and out_dim = Y + U; its restriction to F
    must match omega at CHECK_TOL: certified for a Realization whose
    linalg.realized_sup_bound of Z|_F - omega = (A, B F, C, D F - omega) on
    |lambda| <= max |GRID| is at most CHECK_TOL / 2, else checked on GRID.
    H is the feedback map P_Y Z (I - Theta P_U Z)^-1 at Theta = lambda I (_feedback).
    """
    Fb, bound = p.F.basis, None
    if isinstance(Z, Realization) and Z.D.shape == (p.Y_dim + p.U_dim, p.U_dim) and p.F.dim:
        bound = realized_sup_bound(Z.A, Z.B @ Fb, Z.C, Z.D @ Fb - p.omega, np.abs(GRID).max())
    if bound is None or bound > CHECK_TOL / 2:
        _constraint_residual(p, Z)
    return _feedback(Z, p.Y_dim, _lambda_identity(p.U_dim), N)


def _constraint_residual(p: InterpolationProblem, Z) -> float:
    """Largest ||Z(lambda)|_F - omega|| on GRID.

    Raises ConstraintViolated when it exceeds CHECK_TOL.
    """
    u, y = p.U_dim, p.Y_dim
    if Z.in_dim != u or Z.out_dim != y + u:
        raise DimensionMismatch(
            f"Z must map C^{u} into C^{y + u}, got {Z.out_dim} x {Z.in_dim}")
    if p.F.dim == 0:
        return 0.0
    worst = float(operator_norms(Z.eval_many(GRID) @ p.F.basis - p.omega).max())
    if worst > CHECK_TOL:
        raise ConstraintViolated(
            f"Z|_F differs from omega by {worst:.3e} on the grid")
    return worst


def _feedback(Z, y: int, theta: Realization, N: int) -> PolyOpFn:
    """Coefficients 0..N of P_Y Z (I - Theta P_E Z)^-1, unchecked.

    Z maps U into Y + E, Y being its first y outputs; theta realizes Theta
    from E into U with Theta(0) = 0, its D unread.  A realized Z is closed
    in a loop (_closed_loop).  Any other Z gives H = P_Y Z G with
    G = (I - lambda x)^-1 the resolvent of x = (Theta / lambda) P_E Z, where
    Theta / lambda has the coefficients C_t A_t^k B_t: the constant C_t B_t,
    one matrix product, when A_t = 0, as for lambda I.
    """
    if isinstance(Z, Realization):
        return _closed_loop(Z, y, theta).truncated(N)
    Zc = Z.taylor_stack(N)
    ZE = Zc[:N, y:, :]
    if N and theta.A.any():
        # (A_t, B_t, C_t A_t, C_t B_t) realizes Theta / lambda
        phi = Realization(theta.A, theta.B, theta.C @ theta.A, theta.C @ theta.B)
        x = series.mul(phi.taylor_stack(N - 1), ZE)
    else:
        x = (theta.C @ theta.B) @ ZE
    return PolyOpFn(y, Z.in_dim, series.mul(Zc[:, :y, :], series.resolvent(x)))


def _closed_loop(Z: Realization, y: int, theta: Realization) -> Realization:
    """Realization (A_cl, B_cl, C_cl, D_cl) of P_Y Z (I - Theta P_E Z)^-1.

    Z = (A, B, C, D) maps U into Y + E: the first y rows of C and D are
    its Y part, the rest its E part.  theta = (A_t, B_t, C_t, 0) realizes
    Theta from E into U with Theta(0) = 0, so the loop has no algebraic
    part.  Feeding Z's E output through Theta back into its input gives
    the realization with the two states side by side,

        A_cl = [[A, B C_t], [B_t C_E, A_t + B_t D_E C_t]],
        B_cl = [B; B_t D_E],  C_cl = [C_Y, D_Y C_t],  D_cl = D_Y.

    For contractive colligations of Z and Theta, the loop with zero
    input is a contraction from the state into the next state and Y, so
    ||A_cl|| <= 1.  Theta = lambda I, realized as (0, I, I, 0), gives the
    interpolation loop A_cl = [[A, B], [C_U, D_U]].
    """
    BtDE = theta.B @ Z.D[y:]
    Acl = block_2x2(Z.A, Z.B @ theta.C, theta.B @ Z.C[y:], theta.A + BtDE @ theta.C)
    return _assembled(Acl, np.vstack([Z.B, BtDE]),
                      np.hstack([Z.C[:y], Z.D[:y] @ theta.C]), Z.D[:y])


@lru_cache(maxsize=None)
def _lambda_identity(d: int) -> Realization:
    """(0, I, I, 0), Theta(lambda) = lambda I_d, built once per d."""
    return Realization(np.zeros((d, d)), np.eye(d), np.eye(d), np.zeros((d, d)))


def verify_solution(p: InterpolationProblem, H: PolyOpFn, N: int) -> SolutionReport:
    """Residuals of the coefficient recurrence and the partial Gram bound.

    For an H that carries its loop H.realization to degree >= N, with a
    Realization.gramian_root L, both are taken over every degree of the loop
    (_loop_residuals); otherwise over coefficients 0..N.  Reports never throw
    on a bad candidate; SolutionReport.ok applies the thresholds.  A degree
    N < 0 raises DegreeTooSmall, and an H so large that these residuals
    overflow raises NonFiniteResult.
    """
    if H.in_dim != p.U_dim or H.out_dim != p.Y_dim:
        raise DimensionMismatch("H has wrong dimensions for this problem")
    series.require_degree(N)
    loop = H.realization if H.degree >= N else None
    L = None if loop is None else loop.gramian_root
    # overflow is caught below, as non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        if L is None:
            Hs = H.taylor_stack(N)
            res = Hs @ p.F.basis
            res[0] -= p.omega1
            res[1:] -= Hs[:-1] @ p.omega2
            col = Hs.reshape((N + 1) * p.Y_dim, p.U_dim)
        else:
            res, col = _loop_residuals(p, loop, L)
        gram = col.conj().T @ col
    if not (np.isfinite(res).all() and np.isfinite(gram).all()):
        raise NonFiniteResult("H overflows in its recurrence or its Gram")
    rec = operator_norms(res).max()
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    excess = max(0.0, float(eig[-1]) - 1.0) if eig.size else 0.0
    return SolutionReport(recurrence_residual=float(rec),
                          partial_gram_excess=float(excess), degree=N)


def _loop_residuals(p: InterpolationProblem, loop: Realization, L) -> tuple:
    """(res, col) of verify_solution over every degree of H = (A, B, C, D).

    R(lambda) = H(lambda) F - lambda H(lambda) omega2 - omega1 has R_0 = D F -
    omega1, R_1 = C B F - D omega2 and R_n = C A^(n-2) v, v = A B F - B omega2,
    so with L* L = sum_k (A*)^k C* C A^k the column of R has the norm of the
    one-matrix stack res = [R_0; R_1; L v], and H's column the Gram of
    col = [D; L B].  Each is at least its truncation to degree N.
    """
    A, B, C, D = loop.A, loop.B, loop.C, loop.D
    BF = B @ p.F.basis
    res = np.vstack([D @ p.F.basis - p.omega1, C @ BF - D @ p.omega2,
                     L @ (A @ BF - B @ p.omega2)])
    return res[None], np.vstack([D, L @ B])


def _gamma_data(p: InterpolationProblem, Gamma) -> tuple[np.ndarray, Subspace, np.ndarray]:
    """(Bd, F_Gamma, Omega) of a solution column: _column_data of its Gram, formed once."""
    G = as_operator(Gamma, cols=p.U_dim)
    if G.shape[0] % max(p.Y_dim, 1) != 0 and p.Y_dim > 0:
        raise DimensionMismatch("Gamma rows are not a multiple of Y_dim")
    return _column_data(p, G.conj().T @ G)[1:]


def _column_data(p: InterpolationProblem, gamma_sq) -> tuple:
    """(D, Bd, F_Gamma, Omega) from the Gram gamma_sq of a solution column or of
    a root of its Gram: D = D_Gamma, Bd its range basis, and the contraction
    Omega: F_Gamma -> defect(Gamma) given on generators by Omega D_Gamma|_F =
    D_Gamma omega2 (linalg.contraction_on_generators), in the SVD bases of
    F_Gamma and of the defect range.  A failed guard raises NotASolution."""
    try:
        D, drange = gram_defect(gamma_sq, CHECK_TOL)
        Bd = drange.basis
        return (D, Bd) + contraction_on_generators(D @ p.F.basis, Bd.conj().T @ (D @ p.omega2),
                                                   CHECK_TOL)
    except (NotAContraction, InconsistentGenerators) as exc:
        raise NotASolution(f"candidate column: {exc}") from exc


def omega_hat(p: InterpolationProblem, Gamma):
    """Extracted contraction Omega on F_Gamma = closure(D_Gamma F).

    Returns (Omega, F_Gamma).  Omega is written with respect to the SVD
    bases of F_Gamma and of the defect range of Gamma (both recomputable
    deterministically from Gamma).
    """
    _, FG, Om = _gamma_data(p, Gamma)
    return Om, FG


def central_C(p: InterpolationProblem, Gamma) -> SchurRealization:
    """The constant fiber member C = Omega P_(F_Gamma) on the defect space."""
    return _central(*_gamma_data(p, Gamma))


def _central(Bd, FG: Subspace, Om) -> SchurRealization:
    """central_C from _gamma_data's (Bd, F_Gamma, Omega)."""
    Cmat = Om @ (FG.basis.conj().T @ Bd)
    d = Bd.shape[1]
    return SchurRealization(np.zeros((0, 0)), np.zeros((0, d)),
                            np.zeros((d, 0)), Cmat)


def parameter_membership(Cfun, p: InterpolationProblem, Gamma) -> bool:
    """True iff C is Schur on GRID and C(lambda)|_(F_Gamma) = Omega there."""
    Bd, FG, Om = _gamma_data(p, Gamma)
    d = Bd.shape[1]
    if Cfun.in_dim != d or Cfun.out_dim != d:
        raise DimensionMismatch(
            f"C must act on the {d}-dimensional defect space, "
            f"got {Cfun.out_dim} x {Cfun.in_dim}")
    Bfd = Bd.conj().T @ FG.basis
    Cv = Cfun.eval_many(GRID)
    if np.any(operator_norms(Cv) > 1.0 + CHECK_TOL):
        return False
    return not np.any(operator_norms(Cv @ Bfd - Om) > CHECK_TOL)


def _resolvent_loop(Cfun: Realization) -> Realization:
    """(I - lambda C)^-1 as the closed loop of [I; C] at Theta = lambda I, the
    fed-back output of C = (A, B, C, D) kept on the range Q of [C, D].

    The loop ([[A, B], [C, D]], [B; D], [0, I], I) feeds C's output, which
    lies in that range, back into its input, so its output state x = Q w
    reduces to ([[A, B Q], [Q* C, Q* D Q]], [B; Q* D], [0, Q], I), state
    that of C plus rank Q.  Q is linalg.roundoff_range's, so the two loops
    differ by the dropped singular values; meta records the kept rank,
    resolvent_rank, and the largest dropped value, resolvent_dropped."""
    kept, dropped = roundoff_range(np.hstack([Cfun.C, Cfun.D]))
    Q, (d, n) = kept.basis, Cfun.C.shape
    QD = Q.conj().T @ Cfun.D
    return _assembled(block_2x2(Cfun.A, Cfun.B @ Q, Q.conj().T @ Cfun.C, QD @ Q),
                      np.vstack([Cfun.B, QD]), np.hstack([np.zeros((d, n)), Q]), np.eye(d),
                      meta={"resolvent_rank": kept.dim, "resolvent_dropped": dropped})


def _w_taylor(Hs: np.ndarray, W0, Cfun, DB, BD):
    """Coefficients 0..N+1 of the positive-real factor W as an (N+2, u, u)
    stack, its constant term the given W0 (Gamma*Gamma + D^2 + I for W + I),
    and the first sums, k = 1..N+1.  For k >= 1, with DB = D_Gamma Bd and BD =
    Bd* D_Gamma for the range basis Bd of D_Gamma,
    W_k = 2 sum_(n <= N-k) H_n* H_(n+k) + 2 D_Gamma (herglotz of C)_k D_Gamma,
    the Herglotz coefficients read from the loop _resolvent_loop(C)."""
    L, y, u = Hs.shape
    # the sum for k = N+1 is empty
    first = np.concatenate([series.correlate(Hs)[1:], np.zeros((1, u, u))])
    # the Herglotz transform of C is 2 (I - lambda C)^-1 - I, so its
    # degree-k coefficient is 2 P_k for k >= 1
    P = _resolvent_loop(Cfun).taylor_stack(L)
    W = np.empty((L + 1, u, u), dtype=np.complex128)
    W[0] = W0
    W[1:] = 2.0 * first + 2.0 * (DB @ P[1:] @ BD)
    return W, first


def _realized_z(H: Realization, Cfun: Realization, DB, BD, w0res: float) -> Realization | None:
    """Z_C from H's loop (A_H, B_H, C_H, D_H), a realized C and its
    R = _resolvent_loop(C), or None if not stable.

    With L = H.gramian_root, the first sums over every degree are
    (D_H* C_H + (L B_H)* (L A_H)) A_H^(k-1) B_H, so W = I +
    lambda C_W (I - lambda A_W)^-1 B_W, A_W holding H's and R's states.
    (W+I)^-1 = 1/2 I - 1/4 lambda C_W (I - lambda Ax)^-1 B_W,
    Ax = A_W - 1/2 B_W C_W (Bart, Gohberg and Kaashoek, 1979), whose H
    block is H's state driven by 2 (W+I)^-1: so 2 H (W+I)^-1 is
    (Ax, B_W, [C_H, 0] - 1/2 D_H C_W, D_H), and lambda^-1 (W-I)(W+I)^-1 is
    (Ax, B_W, 1/2 C_W Ax, 1/2 C_W B_W).  None when L is None or
    rho(Ax) >= 1; meta holds w0res, R.meta and rho(Ax) as pole_radius.
    """
    L = H.gramian_root
    if L is None:
        return None
    R = _resolvent_loop(Cfun)
    n = H.state_dim
    B = np.vstack([H.B, R.B @ BD])
    Cw = 2.0 * np.hstack([H.D.conj().T @ H.C + (L @ H.B).conj().T @ (L @ H.A), DB @ R.C])
    A = -0.5 * (B @ Cw)
    A[:n, :n] += H.A
    A[n:, n:] += R.A
    rho = stable_radius(A)
    if rho is None:
        return None
    top = np.hstack([H.C, np.zeros((H.out_dim, R.state_dim))]) - 0.5 * (H.D @ Cw)
    return _assembled(A, B, np.vstack([top, 0.5 * (Cw @ A)]), np.vstack([H.D, 0.5 * (Cw @ B)]),
                      meta={"w0_residual": w0res, **R.meta, "pole_radius": rho})


def _w_zero(gamma_sq, Cfun, D, Bd) -> tuple:
    """(D Bd, Bd* D, ||G*G + D^2 - I||) from the Gram gamma_sq = G*G of a
    solution column G, or of a root of its Gram, with D = D_G and Bd the range
    basis of D that C, a schur.Realization, acts on."""
    d = Bd.shape[1]
    if not isinstance(Cfun, Realization):
        raise DimensionMismatch(f"C must be a schur.Realization, got {type(Cfun).__name__}")
    if Cfun.in_dim != d or Cfun.out_dim != d:
        raise DimensionMismatch(
            f"C must act on the {d}-dimensional defect space of Gamma")
    w0res = operator_norm(gamma_sq + D @ D - np.eye(len(D)))
    if w0res > W_ZERO_TOL:
        raise WNotNormalizedAtZero(f"W(0) differs from I by {w0res:.3e}")
    return D @ Bd, Bd.conj().T @ D, w0res


def _fiber_z(p, gamma_sq, Cfun, loop, H, N) -> Realization | AnalyticFn | None:
    """Z_C = [2 H (W+I)^-1 ; lambda^-1 (W-I)(W+I)^-1] from the Gram gamma_sq of H's
    column or of its root, and a fiber member Cfun, None for the central one.

    One defect of gamma_sq gives _w_zero's check and, for Cfun None, the
    central C, guarded as central_C is (_column_data, NotASolution); a
    caller's C, which must be a schur.Realization (_w_zero), meets
    gram_defect's NotAContraction.  Z_C is _realized_z's for H's loop, loop,
    if it is stable; else None for H None, and for a PolyOpFn H an
    AnalyticFn: coefficients to degree N from series.inv(W + I), W's sums
    over the retained degrees, and a pointwise rule reading H, C and its
    Herglotz transform (schur._herglotz)."""
    if Cfun is None:
        D, Bd, FG, Om = _column_data(p, gamma_sq)
        Cfun = _central(Bd, FG, Om)
    else:
        # W(0) misses I by about 2 (||G|| - 1), so with this slack the W(0)
        # check still rejects norms in (1 + W_ZERO_TOL / 2, 1 + W_ZERO_TOL]
        D, drange = gram_defect(gamma_sq, W_ZERO_TOL)
        Bd = drange.basis
    DB, BD, w0res = _w_zero(gamma_sq, Cfun, D, Bd)
    if loop is not None:
        Z = _realized_z(loop, Cfun, DB, BD, w0res)
        if Z is not None or H is None:
            return Z
    u, y = p.U_dim, p.Y_dim
    Hs = H.taylor_stack(N)
    eye = np.eye(u, dtype=np.complex128)
    Wplus, first = _w_taylor(Hs, gamma_sq + D @ D + eye, Cfun, DB, BD)
    M = series.inv(Wplus)
    coeffs = np.concatenate([2.0 * series.mul(Hs, M), -2.0 * M[1:]], axis=1)
    remainder = D @ D - DB @ BD

    def _eval_many(z):
        out = np.empty((z.size, y + u, u), dtype=np.complex128)
        nz = z != 0
        out[~nz] = coeffs[0]
        lam = z[nz]
        if lam.size:
            lam3 = lam[:, None, None]
            # polynomial part is exact: the truncated shift is nilpotent
            Wv = (gamma_sq + 2.0 * lam3 * series.polyval(first, lam)
                  + DB @ _herglotz(Cfun, lam) @ BD + remainder)
            inv = require_invertible(Wv + eye, "W(lambda) + I")
            out[nz, :y] = 2.0 * (H._values(lam) @ inv)
            out[nz, y:] = ((Wv - eye) @ inv) / lam3
        return out

    return AnalyticFn(y + u, u, coeffs, _eval_many, meta={"w0_residual": w0res})


def z_from_C(p: InterpolationProblem, H: PolyOpFn, Gamma, Cfun,
             N: int) -> Realization | AnalyticFn:
    """Parameter Z_C of a solution H, its degree-N column Gamma and a fiber
    member C, a schur.Realization (any other C raises DimensionMismatch):
    _fiber_z's, realized when H carries its loop H.realization to degree
    >= N.  A Gamma further than CHECK_TOL * max(1, ||Gamma||_F) from H's
    column, in Frobenius norm, raises NotASolution; H's column itself, as
    column_operator(H, N) gives it, is not compared."""
    u, y = p.U_dim, p.Y_dim
    G = as_operator(Gamma, rows=(N + 1) * y, cols=u)
    if H.in_dim != u or H.out_dim != y:
        raise DimensionMismatch("H has wrong dimensions for this problem")
    Hs = H.taylor_stack(N).reshape(G.shape)
    # column_operator(H, N), a view of H's stored coefficients, is at gap 0.0
    if not (G.strides == Hs.strides
            and G.__array_interface__["data"][0] == Hs.__array_interface__["data"][0]):
        gap = float(np.linalg.norm(G - Hs))
        if gap > CHECK_TOL * max(1.0, float(np.linalg.norm(G))):
            raise NotASolution(f"Gamma is not the column of H: they differ by {gap:.3e} "
                               f"in Frobenius norm")
    return _fiber_z(p, G.conj().T @ G, Cfun, H.realization if H.degree >= N else None, H, N)


def fiber_roundtrip_residuals(p: InterpolationProblem, Z, N: int) -> tuple[float, float, float]:
    """(coefficient gap, constraint, W(0) residual) of Z -> H -> central Z_C -> H.

    Z_C is _fiber_z's from H's exact column: the Gram of R = [D; L B] for
    H's loop (A, B, C, D) with a Realization.gramian_root L.  For an H with
    no such loop, or a Z_C from it that is not stable, it is the coefficient
    path's from the Gram of H's degree-N column.  The gap is the largest
    ||H_n - H'_n|| over degrees 0..N, and the constraint the largest
    ||Z_C(lambda)|_F - omega|| on GRID.  Both parameters' constraints are
    checked at CHECK_TOL; Z_C is evaluated on GRID once, for the check that
    also gives the reported constraint.
    """
    H = solve_from_Z(p, Z, N)
    loop, Z1 = H.realization, None
    if loop is not None and loop.gramian_root is not None:
        R = np.vstack([loop.D, loop.gramian_root @ loop.B])
        Z1 = _fiber_z(p, R.conj().T @ R, None, loop, None, None)
    if Z1 is None:
        Gamma = column_operator(H, N)
        Z1 = _fiber_z(p, Gamma.conj().T @ Gamma, None, None, H, N)
    constraint = _constraint_residual(p, Z1)
    H1 = _feedback(Z1, p.Y_dim, _lambda_identity(p.U_dim), N)
    gap = float(operator_norms(H.taylor_stack(N) - H1.taylor_stack(N)).max())
    return gap, constraint, Z1.meta["w0_residual"]


def uniqueness_certificate(p: InterpolationProblem) -> bool:
    """True iff omega is an isometry and omega2 F is dense in U.

    Checked as sigma_min(omega) >= 1 - 1e-10 together with
    rank(omega2) = U_dim at the library rank cutoff.
    """
    if p.F.dim == 0:
        return p.U_dim == 0
    s = np.linalg.svd(p.omega, compute_uv=False)
    if float(s.min()) < 1.0 - 1e-10:
        return False
    return orthonormal_range(p.omega2).dim == p.U_dim


def random_problem(u: int, y: int, f: int, seed: int,
                   scale: float = 0.9) -> InterpolationProblem:
    """Seeded random problem: random f-dimensional F and omega of norm
    scale * uniform(0.5, 1)."""
    if f > u:
        raise DimensionMismatch("dim F cannot exceed dim U")
    rng = seeded_rng(seed)
    if f > 0:
        raw = rng.standard_normal((u, f)) + 1j * rng.standard_normal((u, f))
        Fb = np.linalg.qr(raw)[0][:, :f]
    else:
        Fb = np.zeros((u, 0))
    F = Subspace(u, Fb)
    om = np.zeros((y + u, f), dtype=np.complex128)
    if f > 0:
        raw = rng.standard_normal((y + u, f)) + 1j * rng.standard_normal((y + u, f))
        target = scale * rng.uniform(0.5, 1.0)
        om = raw * (target / operator_norm(raw))
    return InterpolationProblem(U_dim=u, Y_dim=y, F=F,
                                omega1=om[:y, :], omega2=om[y:, :])


def random_constrained_z(p: InterpolationProblem, state_dim: int, seed: int,
                         scale: float = 1.0) -> SchurRealization:
    """Random parameter satisfying Z|_F = omega, via a seeded free part X."""
    Mcol, comp = frame = _completion_frame(p)
    X = random_schur(Mcol.shape[1], comp.shape[1], state_dim, seed, scale=scale)
    return _complete(p, frame, X)
