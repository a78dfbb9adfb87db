"""Model spaces of inner functions and contractive multiplication maps.

For an inner function Theta with Theta(0) = 0 the model space is
H = H^2(U) - Theta H^2(E) (orthogonal complement).  An InnerFn
Theta = lambda^p B_1...B_k V0 is a SchurRealization, built and checked
once: the cascade of a shift register for lambda^p and one unitary
colligation per rank-one factor is unitary with rho(A) < 1, and V0
multiplies it on the right (Ball, Gohberg and Rodman, Interpolation of
Rational Matrix Functions, 1990).  The model space of lambda^p B_1...B_k
is the range of the observability map x -> C (I - lambda A)^-1 x (Foias,
Frazho, Gohberg and Kaashoek, Metric Constrained Interpolation, Commutant
Lifting and Systems, 1998), and H adds lambda^p H^2(ker V0*) to it;
model_space truncates these columns at degree N and orthonormalizes
them.  With Phi = Theta/lambda the space splits two ways,

    H = (constants U) + lambda H0   and   H = H0 + Phi (constants E),

where H0 = S* H, the backward shift of H, is the model space of Phi;
both splittings are checked by check_decompositions.  A function H is a
contractive multiplier from H into H^2(Y) exactly when
H(lambda) = P_Y Z(lambda) (I - Theta(lambda) P_E Z(lambda))^-1 for a
Schur-class Z from U into Y + E.  This is the linear-fractional map of
interpolation, lifting.solve_from_Z, with Theta in place of lambda I;
h_from_Z_theta runs it (lifting._feedback) on Theta's realization, well
posed because Theta(0) = 0.  z_from_H_theta reverses it by posing the
multiplication map as an interpolation problem on H, taking the central
parameter of its fiber and compressing back to U -> Y + E: exactly in
the observability map's state coordinates for square Theta and a realized
H, and on model_space's truncated basis otherwise.

Inner functions are restricted to lambda^k times finite Blaschke-Potapov
products (rank-one factors) times a constant isometry; these have
finite-dimensional model spaces and exact truncation bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import series
from .errors import DegreeTooSmall, DimensionMismatch, DomainError
from .hardy import (GRID, AnalyticFn, PolyOpFn, _poly, multiplication_operator, shift,
                    shift_adjoint)
from .lifting import CHECK_TOL, InterpolationProblem, _feedback, _fiber_z
from .linalg import (Subspace, _orthonormal, as_operator, block_2x2, contraction_gram,
                     haar_unitary, operator_norm, operator_norms, orthonormal_range,
                     projector_gap)
from .schur import Realization, SchurRealization, _assembled, random_schur

# threshold of each residual of check_decompositions
DECOMPOSITION_TOL = 1e-9
# threshold of multiplier_roundtrip_residual
MULT_ROUNDTRIP_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class BlaschkeFactor:
    """Rank-one factor (I - P) + b_a P with P the projection onto w.

    b_a = (|a|/a)(a - lambda)/(1 - conj(a) lambda), and b_0 = lambda.
    """

    a: complex
    w: np.ndarray

    def __post_init__(self):
        a = complex(self.a)
        # written so that a NaN zero fails too
        if not abs(a) < 1.0:
            raise DomainError(f"factor zero must lie in the open disk, |a| = {abs(a):.4f}")
        w = np.asarray(self.w, dtype=np.complex128).reshape(-1)
        if not np.all(np.isfinite(w.view(np.float64))):
            raise DomainError("factor direction must be finite")
        nrm = float(np.linalg.norm(w))
        if nrm == 0.0:
            raise DomainError("factor direction must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "w", w / nrm)


@dataclass(frozen=True, eq=False, init=False)
class InnerFn(SchurRealization):
    """Inner function lambda^power * product(factors) * V0, vanishing at 0.

    V0 is an isometry from C^in_dim into C^out_dim, eye(out_dim, in_dim)
    by default, so E may be smaller than U; factors, the rank-one
    Blaschke-Potapov factors, need a square Theta.  Theta is its own
    realization (A, B, C, D), with state power * out_dim + len(factors),
    and compares and hashes by identity.
    """

    power: int
    factors: tuple
    V0: np.ndarray

    def __init__(self, out_dim: int, in_dim: int, power: int = 1,
                 factors: tuple = (), V0: np.ndarray | None = None):
        """Check the data and build the unitary cascade of Theta.

        lambda^power I_U is a shift register of power blocks, and C reads
        its last block.  The factor with zero a and s = sqrt(1 - |a|^2)
        has the unitary colligation

            A = conj(a),  B = s w*,  C = c s w,  D = I - (1 - |a|) w w*,

        with c = -|a|/a, and c = 1 for a = 0, where b_0 = lambda.  Each
        factor is cascaded on the right of the product so far: its state
        is appended and reads the signal through its B, while the earlier
        states read its output, so A gains the column B_prev C_f and
        B_prev becomes B_prev D_f.  The shift register has D = 0, so D
        and C never change.  Each step is a unitary acting on its own
        state and the signal, so the cascade of lambda^power B_1...B_k is
        unitary, with rho(A) = max |a| < 1.  V0 multiplies B and D on the
        right; it is an isometry, so the colligation of Theta is one.
        """
        if not isinstance(power, (int, np.integer)):
            raise DomainError(f"power must be an integer, got {power!r}")
        if power < 1:
            raise DomainError("power must be >= 1 so that Theta(0) = 0")
        if out_dim < 1:
            raise DimensionMismatch(f"an inner function needs out_dim >= 1, got {out_dim}")
        if factors and out_dim != in_dim:
            raise DimensionMismatch("Blaschke-Potapov factors need a square Theta")
        for fac in factors:
            if fac.w.shape[0] != out_dim:
                raise DimensionMismatch("factor direction has wrong dimension")
        V0 = as_operator(np.eye(out_dim, in_dim) if V0 is None else V0,
                         rows=out_dim, cols=in_dim)
        if operator_norm(V0.conj().T @ V0 - np.eye(in_dim)) > 1e-12:
            raise DomainError("V0 must have orthonormal columns")
        # frozen: the fields are set past the dataclass's __setattr__
        self.__dict__.update(power=power, factors=tuple(factors), V0=V0)
        u, m = out_dim, power * out_dim
        n = m + len(self.factors)
        A = np.zeros((n, n), dtype=np.complex128)
        A[:m, :m] = np.eye(m, k=-u)
        B = np.eye(n, u, dtype=np.complex128)
        C = np.eye(u, n, k=m - u, dtype=np.complex128)
        for j, fac in enumerate(self.factors, m):
            a, w = fac.a, fac.w
            r = abs(a)
            s = np.sqrt(1.0 - r * r)
            Bw = B[:j] @ w
            A[:j, j] = (-r / a if a != 0 else 1.0) * s * Bw
            A[j, j] = np.conj(a)
            B[:j] -= (1.0 - r) * np.outer(Bw, w.conj())
            B[j] = s * w.conj()
        super().__init__(A, B @ V0, C, np.zeros((u, in_dim), dtype=np.complex128))

    @property
    def degree_bound(self) -> int:
        """Blaschke degree: pole count governing dim of the model space."""
        return self.power + len(self.factors)

    def _points(self, points) -> np.ndarray:
        """The point check of eval and eval_many: the closed disk is allowed,
        |z| <= 1 + 1e-12, as Theta's poles lie outside it."""
        z = np.asarray(points, dtype=np.complex128).reshape(-1)
        r = np.abs(z)
        if not np.maximum.reduce(r, initial=0.0) <= 1.0 + 1e-12:
            raise DomainError(f"|lambda| = {r[~(r <= 1.0 + 1e-12)][0]:.6f} is not <= 1")
        return z


@dataclass(frozen=True, eq=False)
class ModelSpace:
    """Truncated realization of H and H0 with their orthonormal bases."""

    N: int
    U_dim: int
    basis: Subspace
    H0_basis: Subspace


class DecompositionReport(NamedTuple):
    split_const_residual: float
    split_phi_residual: float
    R_isometry_residual: float
    Q_isometry_residual: float

    def ok(self) -> bool:
        return max(self) <= DECOMPOSITION_TOL


class MultBoundReport(NamedTuple):
    contractive: bool
    norm: float
    tail_mass: float


class PointwiseMultReport(NamedTuple):
    consistent: bool
    intertwining_residual: float
    pointwise_residual: float
    K: PolyOpFn


def model_space(theta: InnerFn, N: int) -> ModelSpace:
    """Orthonormal bases of H and H0 from the observability map of Theta.

    The cascade of lambda^power B_1...B_k is unitary with rho(A) < 1, so
    x -> C (I - lambda A)^-1 x, with coefficients C A^j, maps the state
    space isometrically onto its model space; lambda^power ker V0*
    completes that to H.  H0 = S* H is the range of
    x -> C A (I - lambda A)^-1 x, which vanishes on the last block of the
    shift register (the constants) and is isometric on the other states,
    since A*A + C*C = I and C reads only that block; lambda^(power-1)
    ker V0* completes it.  Truncated at degree N, the columns C A^j have
    the Gramian I - (A*)^(N+1) A^(N+1), so one QR gives each basis with
    no rank decision.  N must be at least 2*degree_bound + 4; the
    truncation drops coefficients of size |a|^N, which the decomposition
    residuals see only squared.
    """
    need = 2 * theta.degree_bound + 4
    if N < need:
        raise DegreeTooSmall(f"truncation degree {N} < {need}")
    u, e, p = theta.out_dim, theta.in_dim, theta.power
    amb = (N + 1) * u
    # C (I - lambda A)^-1 = C + lambda C (I - lambda A)^-1 A: C A^j, j = 0..N+1
    obs = series.realization_stack(theta.A, theta.A, theta.C, theta.C, N + 1)

    def basis(cols: np.ndarray, q: int) -> Subspace:
        """One QR of the (N+1, u, m) columns and lambda^q ker V0*."""
        cols = cols.reshape(amb, -1)
        if u > e:
            # a basis of ker V0* in each degree q..N
            ker = np.linalg.qr(theta.V0, mode="complete")[0][:, e:]
            cols = np.hstack([cols, np.kron(np.eye(N + 1, N + 1 - q, k=-q), ker)])
        return _orthonormal(np.linalg.qr(cols)[0])

    h0 = np.delete(obs[1:], np.s_[(p - 1) * u:p * u], axis=2)
    return ModelSpace(N=N, U_dim=u, basis=basis(obs[:N + 1], p),
                      H0_basis=basis(h0, p - 1))


def check_decompositions(theta: InnerFn, ms: ModelSpace) -> DecompositionReport:
    """Residuals of both splittings of H and of the isometries R, Q.

    R embeds H0 into H; Q multiplies H0 by lambda into H.  All four
    residuals vanish up to truncation for a genuine model space.  The
    truncated shift drops H0's top block, lambda^N ker V0* when E is
    smaller than U, so Q is compared with the Gram of blocks 0..N-1.
    """
    u, N = ms.U_dim, ms.N
    msb = ms.basis.basis
    h0b = ms.H0_basis.basis
    Sh0 = shift(h0b, u)
    r1 = projector_gap(np.hstack([np.eye((N + 1) * u, u), Sh0]), msb)
    phi = theta.taylor_stack(N + 1)[1:].reshape((N + 1) * u, theta.in_dim)
    r2 = projector_gap(np.hstack([h0b, phi]), msb)
    Rm = msb.conj().T @ h0b
    Qm = msb.conj().T @ Sh0
    m0 = h0b.shape[1]
    riso = operator_norm(Rm.conj().T @ Rm - np.eye(m0))
    kept = h0b[:N * u]
    qiso = operator_norm(Qm.conj().T @ Qm - kept.conj().T @ kept)
    return DecompositionReport(float(r1), float(r2), float(riso), float(qiso))


def mult_contraction_test(Hfn: PolyOpFn, ms: ModelSpace) -> MultBoundReport:
    """Norm of multiplication by Hfn restricted to the model space."""
    M, tail = multiplication_operator(Hfn, ms.basis, ms.N)
    nrm = operator_norm(M)
    return MultBoundReport(contractive=bool(nrm <= 1.0 + CHECK_TOL),
                           norm=float(nrm), tail_mass=float(tail))


def h_from_Z_theta(theta: InnerFn, Z, N: int) -> PolyOpFn:
    """Multiplier H = P_Y Z (I - Theta P_E Z)^-1, coefficients 0..N.

    Z maps U into Y + E.  H is the feedback map of lifting._feedback with
    Theta's realization, well posed because Theta(0) = 0.
    """
    u, e = theta.out_dim, theta.in_dim
    if Z.in_dim != u or Z.out_dim < e:
        raise DimensionMismatch(
            f"Z must map C^{u} into C^y + C^{e}, got {Z.out_dim} x {Z.in_dim}")
    return _feedback(Z, Z.out_dim - e, theta, N)


def z_from_H_theta(theta: InnerFn, Hfn: PolyOpFn, ms: ModelSpace,
                   N: int) -> Realization | AnalyticFn:
    """Schur parameter recovering a contractive multiplier Hfn.

    Multiplication by Hfn on H solves an interpolation problem on H (F =
    lambda H0, omega1 = 0, omega2 undoes the shift); the central member's
    parameter [F; G] gives Z = [F on constants; const-coeff of Phi* G on
    constants].  Z is _state_space_z's exact Realization when Theta is
    square and Hfn carries a stable loop to degree >= N, else an AnalyticFn
    on ms's basis.  Either branch forms one Gram, contraction_gram's, for
    its norm guard and for _fiber_z: a norm above 1 + CHECK_TOL, the exact
    one or the truncated matrix's (tail meta["mult_tail"]), raises
    NotAContraction.  The truncated omega2 is guarded as any omega is."""
    u, e = theta.out_dim, theta.in_dim
    y = Hfn.out_dim
    if Hfn.in_dim != u:
        raise DimensionMismatch("Hfn must act on U-valued functions")
    if ms.N != N or ms.U_dim != u:
        raise DimensionMismatch("model space does not match theta at this degree")
    if Hfn.realization is not None and e == u and Hfn.degree >= N:
        Z = _state_space_z(theta, Hfn.realization)
        if Z is not None:
            return Z
    Gmat, tail = multiplication_operator(Hfn, ms.basis, N)
    gram = contraction_gram(Gmat, "multiplication operator", CHECK_TOL)
    msb, h0b = ms.basis.basis, ms.H0_basis.basis
    m = msb.shape[1]
    F = orthonormal_range(msb.conj().T @ shift(h0b, u))
    p_model = InterpolationProblem(U_dim=m, Y_dim=y, F=F, omega1=np.zeros((y, F.dim)),
                                   omega2=msb.conj().T @ shift_adjoint(msb @ F.basis, u))
    Zt = _fiber_z(p_model, gram, None, None, _poly(Gmat.reshape(N + 1, y, m)), N)
    EmU = msb[:u].conj().T
    left = theta.taylor_stack(N + 1)[1:].reshape((N + 1) * u, e).conj().T @ msb

    def compress(Zv: np.ndarray) -> np.ndarray:
        """Compress a (P, y + m, m) stack to (P, y + e, u)."""
        top = Zv[:, :y, :] @ EmU
        bottom = left @ (Zv[:, y:, :] @ EmU)
        return np.concatenate([top, bottom], axis=1)

    return AnalyticFn(y + e, u, compress(Zt.taylor_stack(N)), lambda z: compress(Zt._values(z)),
                      meta={**Zt.meta, "mult_tail": float(tail)})


def _state_space_z(theta: InnerFn, H: Realization) -> Realization | None:
    """z_from_H_theta in Theta's state coordinates, or None if not stable.

    For square Theta, x -> C (I - lambda A)^-1 x maps the state space
    isometrically onto H, so multiplication by H's loop (A_h, B_h, C_h,
    D_h) is the column of H~ = H C (I - lambda A)^-1, the cascade
    ([[A_h, B_h C], [0, A]], [B_h C; A], [C_h, D_h C], D_h C).  F = ker C,
    omega2 = A is isometric on it (A*A + C*C = I), and lifting._fiber_z reads
    the root [D~; L B~] of H~'s H^2 Gram (L = Ht.gramian_root) through the
    root's small Gram, formed once (linalg.contraction_gram), whose norm,
    that of multiplication by H on the model space, is guarded at CHECK_TOL.
    U's constants have coordinates C* and Phi's column B: Z is the realized
    Z~ of H~'s loop, C* on its input, B* on E rows."""
    n, y = theta.state_dim, H.out_dim
    HC, DC = H.B @ theta.C, H.D @ theta.C
    Ht = _assembled(block_2x2(H.A, HC, np.zeros((n, H.state_dim)), theta.A),
                    np.vstack([HC, theta.A]), np.hstack([H.C, DC]), DC)
    L = Ht.gramian_root
    if L is None:
        return None
    gram = contraction_gram(np.vstack([Ht.D, L @ Ht.B]), "multiplication operator", CHECK_TOL)
    F = orthonormal_range(np.eye(n) - theta.C.conj().T @ theta.C)
    p = InterpolationProblem(U_dim=n, Y_dim=y, F=F, omega1=np.zeros((y, F.dim)),
                             omega2=theta.A @ F.basis)
    Zt = _fiber_z(p, gram, None, Ht, None, None)
    if Zt is None:
        return None
    left = np.eye(y + theta.in_dim, y + n, dtype=np.complex128)
    left[y:, y:] = theta.B.conj().T
    return _assembled(Zt.A, Zt.B @ theta.C.conj().T, left @ Zt.C, left @ Zt.D @ theta.C.conj().T,
                      meta=Zt.meta)


def multiplier_roundtrip_residual(theta: InnerFn, Hfn: PolyOpFn, ms: ModelSpace) -> float:
    """Largest ||H_n - H'_n|| of Hfn -> z_from_H_theta -> h_from_Z_theta.

    Taken at ms's degree N over degrees 0..N - degree_bound - 4, below the
    truncation tail of the recovered parameter.
    """
    N = ms.N
    H1 = h_from_Z_theta(theta, z_from_H_theta(theta, Hfn, ms, N), N)
    keep = max(0, N - theta.degree_bound - 4)
    return float(operator_norms(Hfn.taylor_stack(keep) - H1.taylor_stack(keep)).max())


def pointwise_mult_check(Gmat, ms: ModelSpace) -> PointwiseMultReport:
    """Intertwining S_Y G R = G Q versus pointwise multiplication on GRID.

    The two sides of the equivalence are evaluated independently; the
    report says whether they agree (both hold or both fail at CHECK_TOL) and
    carries the candidate symbol K read off the action on constants.
    """
    u, N = ms.U_dim, ms.N
    msb = ms.basis.basis
    h0b = ms.H0_basis.basis
    m = msb.shape[1]
    G = as_operator(Gmat, cols=m)
    if G.shape[0] % (N + 1) != 0:
        raise DimensionMismatch("Gmat rows must fill degree blocks")
    y = G.shape[0] // (N + 1)
    Rm = msb.conj().T @ h0b
    Qm = msb.conj().T @ shift(h0b, u)
    inter = operator_norm(shift(G @ Rm, y) - G @ Qm)
    K = PolyOpFn(y, u, (G @ msb[:u].conj().T).reshape(N + 1, y, u))
    Gv = series.polyval(G.reshape(N + 1, y, m), GRID)
    basis_v = series.polyval(msb.reshape(N + 1, u, m), GRID)
    pw = operator_norms(Gv - K.eval_many(GRID) @ basis_v).max()
    both = bool((inter <= CHECK_TOL) == (pw <= CHECK_TOL))
    return PointwiseMultReport(consistent=both, intertwining_residual=float(inter),
                               pointwise_residual=float(pw), K=K)


def random_inner(seed: int, dim: int, n_factors: int,
                 max_modulus: float = 0.45) -> InnerFn:
    """Seeded Blaschke-Potapov product with zeros of modulus <= max_modulus.

    Moduli are drawn uniformly from [0.15, max_modulus].  The default cap
    keeps the truncation tails, which decay like |a|^N, far below the
    acceptance thresholds at N = 32, and fixes the seeded inputs of
    existing callers.
    """
    rng = np.random.default_rng(seed)
    facs = []
    for _ in range(n_factors):
        r = rng.uniform(0.15, max_modulus)
        ph = rng.uniform(0.0, 2.0 * np.pi)
        w = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        facs.append(BlaschkeFactor(a=r * np.exp(1j * ph), w=w))
    V0 = haar_unitary(rng, dim)
    return InnerFn(dim, dim, factors=tuple(facs), V0=V0)


def random_multiplier(theta: InnerFn, y: int, N: int, seed: int,
                      scale: float = 0.6) -> PolyOpFn:
    """Contractive multiplier generated through the forward formula."""
    Z = random_schur(y + theta.in_dim, theta.out_dim, 2, seed, scale=scale)
    return h_from_Z_theta(theta, Z, N)
