"""Constrained interpolation in the truncated Hardy space.

The data is a contraction omega = [omega1; omega2] from a subspace F of
the input space U into Y + U.  A solution is a contractive column
Gamma: U -> H^2(Y), with defining function H, such that

    H_0|_F = omega1   and   H_n|_F = H_(n-1) omega2  for n >= 1.

Solutions are produced from Schur-class parameters Z in S(U, Y + U)
satisfying Z(lambda)|_F = omega via the linear-fractional formula

    H(lambda) = P_Y Z(lambda) (I - lambda P_U Z(lambda))^-1,

computed as the closed loop of Z's realization when Z is a
SchurRealization and as a Taylor recursion otherwise.  The fiber of
parameters over one solution is indexed by Schur-class functions C on
the defect space of Gamma whose restriction to F_Gamma =
closure(D_Gamma F) equals the extracted contraction Omega; z_from_C
maps a fiber member back to a parameter through the positive-real
factor

    W(lambda) = Gamma* (I + lambda S*)(I - lambda S*)^-1 Gamma
                + D_Gamma (I + lambda C(lambda))(I - lambda C(lambda))^-1 D_Gamma,

with Z_C = [2 H (W+I)^-1 ; lambda^-1 (W-I)(W+I)^-1] and the lambda^-1
realized as a Taylor-coefficient shift (W(0) = I is asserted, never
divided by).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series
from .errors import (ConstraintViolated, DimensionMismatch, InconsistentGenerators,
                     NonFiniteResult, NotAContraction, NotASolution,
                     WNotNormalizedAtZero)
from .hardy import GRID, AnalyticFn, PolyOpFn, column_operator
from .linalg import (CONTRACTION_SLACK, Subspace, as_operator,
                     contraction_on_generators, defect, operator_norm,
                     operator_norms, orthonormal_range, require_contraction,
                     require_invertible)
from .schur import (SchurRealization, _complete, _completion_frame, _herglotz,
                    random_schur)

W_ZERO_TOL = 1e-8
# contraction slack and residual tolerance of the checks on a solution column
# and its Gram, its Omega, a parameter's grid constraint, fiber members and multipliers
CHECK_TOL = 1e-8
# thresholds of a solution's recurrence residual and of the fiber roundtrip gap
RECURRENCE_TOL = 1e-9
FIBER_GAP_TOL = 1e-7


@dataclass(frozen=True)
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
        object.__setattr__(self, "omega1", om1)
        object.__setattr__(self, "omega2", om2)
        require_contraction(self.omega, "omega", CONTRACTION_SLACK)

    @property
    def omega(self) -> np.ndarray:
        return np.vstack([self.omega1, self.omega2])


@dataclass(frozen=True)
class SolutionReport:
    """Residuals of a candidate solution; reporting never throws."""

    recurrence_residual: float
    partial_gram_excess: float
    grid_sup_norm: float
    degree: int

    def ok(self) -> bool:
        return (self.recurrence_residual <= RECURRENCE_TOL
                and self.partial_gram_excess <= CHECK_TOL)


def solve_from_Z(p: InterpolationProblem, Z, N: int) -> PolyOpFn:
    """Taylor coefficients H_0..H_N of the solution attached to Z.

    Z may be any analytic operator function exposing eval_many and
    taylor_stack with in_dim = U and out_dim = Y + U; its restriction to F
    is checked against omega on GRID at CHECK_TOL before solving.  H is
    the feedback map P_Y Z (I - Theta P_U Z)^-1 at Theta = lambda I
    (_feedback).
    """
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


def _feedback(Z, y: int, theta, N: int) -> PolyOpFn:
    """Coefficients 0..N of P_Y Z (I - Theta P_E Z)^-1, unchecked.

    Z maps U into Y + E, Y being its first y outputs; theta = (A_t, B_t,
    C_t) realizes Theta from E into U with Theta(0) = 0.  A realized Z is
    closed in a loop (_closed_loop).  Any other Z gives H = P_Y Z G with
    G = (I - lambda x)^-1 the resolvent of x = (Theta / lambda) P_E Z, where
    Theta / lambda has the coefficients C_t A_t^k B_t: the constant C_t B_t,
    one matrix product, when A_t = 0, as for lambda I.
    """
    if isinstance(Z, SchurRealization):
        return PolyOpFn.truncated(*_closed_loop(Z.A, Z.B, Z.C, Z.D, y, theta), N)
    At, Bt, Ct = theta
    Zc = Z.taylor_stack(N)
    ZE = Zc[:N, y:, :]
    if N and At.any():
        # (A_t, B_t, C_t A_t, C_t B_t) realizes Theta / lambda
        x = series.mul(series.realization_stack(At, Bt, Ct @ At, Ct @ Bt, N - 1), ZE)
    else:
        x = (Ct @ Bt) @ ZE
    return PolyOpFn(y, Z.in_dim, series.mul(Zc[:, :y, :], series.resolvent(x)))


def _closed_loop(A, B, C, D, y: int, theta) -> tuple:
    """Realization (A_cl, B_cl, C_cl, D_cl) of P_Y Z (I - Theta P_E Z)^-1.

    Z = (A, B, C, D) maps U into Y + E: the first y rows of C and D are
    its Y part, the rest its E part.  theta = (A_t, B_t, C_t) realizes
    Theta from E into U with Theta(0) = 0, so the loop has no algebraic
    part.  Feeding Z's E output through Theta back into its input gives
    the realization with the two states side by side,

        A_cl = [[A, B C_t], [B_t C_E, A_t + B_t D_E C_t]],
        B_cl = [B; B_t D_E],  C_cl = [C_Y, D_Y C_t],  D_cl = D_Y.

    For contractive colligations of Z and Theta, the loop with zero
    input is a contraction from the state into the next state and Y, so
    ||A_cl|| <= 1.  Theta = lambda I, realized as (0, I, I), gives the
    interpolation loop A_cl = [[A, B], [C_U, D_U]].
    """
    At, Bt, Ct = theta
    BtDE = Bt @ D[y:]
    Acl = np.block([[A, B @ Ct], [Bt @ C[y:], At + BtDE @ Ct]])
    return Acl, np.vstack([B, BtDE]), np.hstack([C[:y], D[:y] @ Ct]), D[:y]


def _lambda_identity(d: int) -> tuple:
    """(A, B, C) of Theta(lambda) = lambda I_d: one state per coordinate."""
    eye = np.eye(d, dtype=np.complex128)
    return np.zeros((d, d), dtype=np.complex128), eye, eye


def verify_solution(p: InterpolationProblem, H: PolyOpFn, N: int) -> SolutionReport:
    """Residuals of the coefficient recurrence and the partial Gram bound.

    Reports never throw on a bad candidate; SolutionReport.ok applies the
    thresholds.  An H so large that these residuals or its values on GRID
    overflow raises NonFiniteResult.
    """
    if H.in_dim != p.U_dim or H.out_dim != p.Y_dim:
        raise DimensionMismatch("H has wrong dimensions for this problem")
    Hs = H.taylor_stack(N)
    # overflow is caught below, as non-finite entries
    with np.errstate(over="ignore", invalid="ignore"):
        res = Hs @ p.F.basis
        res[0] -= p.omega1
        res[1:] -= Hs[:-1] @ p.omega2
        col = Hs.reshape((N + 1) * p.Y_dim, p.U_dim)
        gram = col.conj().T @ col
        values = H.eval_many(GRID)
    if not all(np.isfinite(X).all() for X in (res, gram, values)):
        raise NonFiniteResult("H overflows in its recurrence, its Gram or its grid values")
    rec = operator_norms(res).max()
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    excess = max(0.0, float(eig[-1]) - 1.0) if eig.size else 0.0
    sup = operator_norms(values).max()
    return SolutionReport(recurrence_residual=float(rec),
                          partial_gram_excess=float(excess),
                          grid_sup_norm=float(sup), degree=N)


def _gamma_data(p: InterpolationProblem,
                Gamma) -> tuple[np.ndarray, Subspace, np.ndarray]:
    """(Bd, F_Gamma, Omega): defect data of a solution column.

    Bd is the range basis of D_Gamma and Omega the contraction
    F_Gamma -> defect(Gamma) given on generators by Omega D_Gamma|_F =
    D_Gamma omega2 (linalg.contraction_on_generators), in the SVD bases of
    F_Gamma and of the defect range.  A failed guard raises NotASolution.
    """
    G = as_operator(Gamma, cols=p.U_dim)
    if G.shape[0] % max(p.Y_dim, 1) != 0 and p.Y_dim > 0:
        raise DimensionMismatch("Gamma rows are not a multiple of Y_dim")
    try:
        D, drange = defect(G, CHECK_TOL)
        Bd = drange.basis
        FG, Om = contraction_on_generators(D @ p.F.basis,
                                           Bd.conj().T @ (D @ p.omega2), CHECK_TOL)
    except (NotAContraction, InconsistentGenerators) as exc:
        raise NotASolution(f"candidate column: {exc}") from exc
    return Bd, FG, Om


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
    Bd, FG, Om = _gamma_data(p, Gamma)
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


def _w_taylor(Hs: np.ndarray, W0, Cfun, DB, BD):
    """Coefficients W_0..W_(N+1) of the positive-real factor, and the sums.

    W_0 = Gamma*Gamma + D^2, DB = D_Gamma Bd and BD = Bd* D_Gamma for the
    range basis Bd of D_Gamma and, for k >= 1,
    W_k = 2 sum_n H_n* H_(n+k) + 2 D_Gamma (herglotz of C)_k D_Gamma,
    the first sum running over the retained degrees n <= N - k.  Returns
    W as an (N+2, u, u) stack and the first sums, k = 1..N+1, as an
    (N+1, u, u) stack.
    """
    L, y, u = Hs.shape
    # the sum for k = N+1 is empty
    first = np.concatenate([series.correlate(Hs)[1:], np.zeros((1, u, u))])
    # the Herglotz transform of C is 2 (I - lambda C)^-1 - I, so its
    # degree-k coefficient is 2 P_k for k >= 1; for a realized C, P is
    # the closed loop of [I; C], the constant I on top of C
    if isinstance(Cfun, SchurRealization):
        d, n = Cfun.out_dim, Cfun.state_dim
        loop = _closed_loop(Cfun.A, Cfun.B, np.vstack([np.zeros((d, n)), Cfun.C]),
                            np.vstack([np.eye(d), Cfun.D]), d, _lambda_identity(d))
        P = series.realization_stack(*loop, L)
    else:
        P = series.resolvent(Cfun.taylor_stack(L - 1))
    W = np.empty((L + 1, u, u), dtype=np.complex128)
    W[0] = W0
    W[1:] = 2.0 * first + 2.0 * (DB @ P[1:] @ BD)
    return W, first


def z_from_C(p: InterpolationProblem, H: PolyOpFn, Gamma, Cfun, N: int) -> AnalyticFn:
    """Parameter Z_C of a solution H, its degree-N column Gamma and a fiber member C.

    Z_C = [2 H (W+I)^-1 ; lambda^-1 (W-I)(W+I)^-1], returned as series
    coefficients plus a pointwise rule that reads H, C and its Herglotz
    transform at the points eval_many checked.  The lambda^-1 is a
    coefficient shift: W(0) = I is asserted within 1e-8 and the bottom
    block's coefficient n is taken from W's degree n+1.  A Gamma further
    than CHECK_TOL * max(1, ||Gamma||_F) from H's column, in Frobenius
    norm, raises NotASolution.
    """
    u, y = p.U_dim, p.Y_dim
    G = as_operator(Gamma, rows=(N + 1) * y, cols=u)
    if H.in_dim != u or H.out_dim != y:
        raise DimensionMismatch("H has wrong dimensions for this problem")
    Hs = H.taylor_stack(N)
    gap = float(np.linalg.norm(G - Hs.reshape(G.shape)))
    if gap > CHECK_TOL * max(1.0, float(np.linalg.norm(G))):
        raise NotASolution(f"Gamma is not the column of H: they differ by {gap:.3e} "
                           f"in Frobenius norm")
    # W(0) misses I by about 2 (||Gamma|| - 1), so with this slack the W(0)
    # check below still rejects norms in (1 + W_ZERO_TOL / 2, 1 + W_ZERO_TOL]
    D, drange = defect(G, W_ZERO_TOL)
    Bd = drange.basis
    d = Bd.shape[1]
    if Cfun.in_dim != d or Cfun.out_dim != d:
        raise DimensionMismatch(
            f"C must act on the {d}-dimensional defect space of Gamma")
    gamma_sq = G.conj().T @ G
    DB = D @ Bd
    BD = Bd.conj().T @ D
    W, first = _w_taylor(Hs, gamma_sq + D @ D, Cfun, DB, BD)
    eye = np.eye(u, dtype=np.complex128)
    w0res = operator_norm(W[0] - eye)
    if w0res > W_ZERO_TOL:
        raise WNotNormalizedAtZero(f"W(0) differs from I by {w0res:.3e}")
    W[0] += eye
    M = series.inv(W)
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


def fiber_roundtrip_residuals(p: InterpolationProblem, Z, N: int) -> tuple[float, float, float]:
    """(coefficient gap, constraint, W(0) residual) of Z -> H -> central Z_C -> H.

    The gap is the largest ||H_n - H'_n|| over degrees 0..N-4, below the
    truncation tail of Z_C, and the constraint the largest
    ||Z_C(lambda)|_F - omega|| on GRID.  Both parameters' constraints are
    checked at CHECK_TOL; Z_C is evaluated on GRID once, for the check
    that also gives the reported constraint.
    """
    H = solve_from_Z(p, Z, N)
    Gamma = column_operator(H, N)
    Z1 = z_from_C(p, H, Gamma, central_C(p, Gamma), N)
    constraint = _constraint_residual(p, Z1)
    H1 = _feedback(Z1, p.Y_dim, _lambda_identity(p.U_dim), N)
    keep = max(0, N - 4)
    gap = float(operator_norms(H.taylor_stack(keep) - H1.taylor_stack(keep)).max())
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
    rng = np.random.default_rng(seed)
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
