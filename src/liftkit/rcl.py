"""Relaxed commutant lifting data sets and their interpolation reduction.

A data set consists of operators A: H -> H', T': H' -> H', R, Q: H0 -> H
with A, T' contractions, T'AR = AQ and R*R <= Q*Q.  A lifting candidate
is a contractive column B = [A; Gamma D_A] into H' + H^2(defect of T'),
and B solves the lifting problem when P_H' B = A and U' B R = B Q for
the Sz.-Nagy-Schaeffer isometric lifting U' of T'.

Every data set induces an interpolation problem on the defect space of
A: F = closure(D_A Q H0) and omega(D_A Q h) = [D_T' A R h; D_A R h].
Solving the induced problem and solving the lifting problem are
equivalent; both directions are exercised in the test suite.  The
reverse construction data_set_from_omega builds, for any contraction
omega, a data set whose induced problem is omega again up to a unitary
change of basis (omega_roundtrip_residual measures the defect).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DimensionMismatch, InconsistentGenerators,
                     NotAContraction)
from .hardy import PolyOpFn, column_operator, shift
from .lifting import CHECK_TOL, InterpolationProblem, random_problem
from .linalg import (Subspace, as_operator, defect, haar_unitary,
                     operator_norm, orthonormal_range)

DATA_SET_TOL = 1e-10
# residual and contraction slack of the omega induced by a data set
INDUCED_TOL = 1e-9


@dataclass(frozen=True)
class RclDataSet:
    """Operator data {A, T', R, Q}; only shapes are enforced here.

    validate_data_set checks the actual constraints, so that invalid
    candidates (for rejection tests) can still be represented; the
    defects are therefore computed on first use, and raise
    NotAContraction for an operator that is not a contraction.
    """

    A: np.ndarray
    Tprime: np.ndarray
    R: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        A = as_operator(self.A)
        T = as_operator(self.Tprime, rows=A.shape[0], cols=A.shape[0])
        R = as_operator(self.R, rows=A.shape[1])
        Q = as_operator(self.Q, rows=A.shape[1], cols=R.shape[1])
        for name, val in (("A", A), ("Tprime", T), ("R", R), ("Q", Q)):
            object.__setattr__(self, name, val)

    @property
    def H_dim(self) -> int:
        return self.A.shape[1]

    @property
    def Hprime_dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def defect_A(self) -> tuple[np.ndarray, Subspace]:
        """(D_A, range of D_A), as linalg.defect returns them."""
        return defect(self.A)

    @cached_property
    def defect_Tprime(self) -> tuple[np.ndarray, Subspace]:
        """(D_T', range of D_T'), as linalg.defect returns them."""
        return defect(self.Tprime)


@dataclass(frozen=True)
class LiftingCandidate:
    """Contractive column B = [A_part; tail] from H into H' + H^2(D_T')."""

    A_part: np.ndarray
    tail: PolyOpFn

    def __post_init__(self):
        A = as_operator(self.A_part, cols=self.tail.in_dim)
        object.__setattr__(self, "A_part", A)
        nrm = operator_norm(self.stacked())
        if nrm > 1.0 + 1e-10:
            raise NotAContraction(f"lifting candidate has norm {nrm:.6e}")

    def stacked(self) -> np.ndarray:
        return np.vstack([self.A_part, column_operator(self.tail, self.tail.degree)])


@dataclass(frozen=True)
class RclReport:
    projection_residual: float
    intertwining_residual: float
    degree: int

    def ok(self, tol: float = CHECK_TOL) -> bool:
        return (self.projection_residual <= tol
                and self.intertwining_residual <= tol)


def validate_data_set(ds: RclDataSet) -> bool:
    """Check contractivity, the intertwining relation and R*R <= Q*Q."""
    if operator_norm(ds.A) > 1.0 + DATA_SET_TOL:
        return False
    if operator_norm(ds.Tprime) > 1.0 + DATA_SET_TOL:
        return False
    if operator_norm(ds.Tprime @ ds.A @ ds.R - ds.A @ ds.Q) > DATA_SET_TOL:
        return False
    gap = ds.Q.conj().T @ ds.Q - ds.R.conj().T @ ds.R
    if gap.shape[0] == 0:
        return True
    eig = np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)
    return float(eig[0]) >= -DATA_SET_TOL


def _apply_sns(T: np.ndarray, dT: tuple[np.ndarray, Subspace], X) -> np.ndarray:
    """U' @ X for the truncated lifting U' = [[T', 0], [E C, S]], blockwise.

    C = Bd* D is the defect dT = (D, range Bd) of T' in range coordinates.
    X stacks an H' part over a truncated H^2 part with blocks of
    dim C.shape[0]; U' X = [T' X_h; C X_h + shift(X_tail)], so neither
    U' nor the shift is formed.
    """
    D, drange = dT
    C = drange.basis.conj().T @ D
    hp, d = T.shape[0], C.shape[0]
    Xh, Xt = X[:hp], X[hp:]
    tail = shift(Xt, d)
    tail[:d] += C @ Xh
    return np.vstack([T @ Xh, tail])


def sns_lifting(Tprime, N: int) -> np.ndarray:
    """Truncated minimal isometric lifting of a contraction.

    Block matrix [[T', 0], [E D_T', S]] on H' + truncated H^2 over the
    defect space of T', with the defect written in its orthonormal range
    coordinates.  Isometric except on the top-degree block, which the
    truncated shift drops.  verify_rcl applies the same blocks without
    forming this matrix.
    """
    T = as_operator(Tprime)
    if T.shape[0] != T.shape[1]:
        raise DimensionMismatch("Tprime must be square")
    dT = defect(T)
    rows = T.shape[0] + (N + 1) * dT[1].dim
    return _apply_sns(T, dT, np.eye(rows, dtype=np.complex128))


def underlying_contraction(ds: RclDataSet) -> InterpolationProblem:
    """Interpolation problem induced by a data set.

    U = defect space of A, Y = defect space of T', F spanned by D_A Q,
    and omega defined on generators by D_A Q h -> [D_T' A R h; D_A R h],
    solved in the least-squares sense on an SVD basis of F.
    """
    DA, rA = ds.defect_A
    DT, rT = ds.defect_Tprime
    BdA, BdT = rA.basis, rT.basis
    u, y = BdA.shape[1], BdT.shape[1]
    gen = BdA.conj().T @ (DA @ ds.Q)
    F = orthonormal_range(gen)
    Bf = F.basis
    rhs = np.vstack([BdT.conj().T @ (DT @ (ds.A @ ds.R)),
                     BdA.conj().T @ (DA @ ds.R)])
    f = Bf.shape[1]
    if f == 0:
        om = np.zeros((y + u, 0), dtype=np.complex128)
        res = operator_norm(rhs)
    else:
        lhs = Bf.conj().T @ gen
        om = np.linalg.lstsq(lhs.T, rhs.T, rcond=None)[0].T
        res = operator_norm(om @ lhs - rhs)
    if res > INDUCED_TOL * max(1.0, operator_norm(rhs)):
        raise InconsistentGenerators(
            f"generator least squares has residual {res:.3e}")
    nrm = operator_norm(om)
    if nrm > 1.0 + INDUCED_TOL:
        raise NotAContraction(f"induced omega has norm {nrm:.6e}")
    if nrm > 1.0:
        # round-off guard; the contractivity chain gives norm <= 1
        om = om / nrm
    return InterpolationProblem(U_dim=u, Y_dim=y, F=F,
                                omega1=om[:y, :], omega2=om[y:, :])


def gamma_to_B(ds: RclDataSet, Gamma, N: int) -> LiftingCandidate:
    """Candidate B = [A; Gamma D_A] from a contraction on the defect of A."""
    DA, rA = ds.defect_A
    G = as_operator(Gamma, cols=rA.dim)
    nrm = operator_norm(G)
    if nrm > 1.0 + CHECK_TOL:
        raise NotAContraction(f"Gamma has norm {nrm:.6e}")
    dT = ds.defect_Tprime[1].dim
    if G.shape[0] != (N + 1) * dT:
        raise DimensionMismatch(
            f"Gamma must have {(N + 1) * dT} rows for degree {N}, "
            f"got {G.shape[0]}")
    tail_mat = G @ (rA.basis.conj().T @ DA)
    coeffs = tuple(tail_mat[n * dT:(n + 1) * dT, :] for n in range(N + 1))
    return LiftingCandidate(A_part=ds.A,
                            tail=PolyOpFn(dT, ds.H_dim, coeffs))


def b_to_gamma(ds: RclDataSet, cand: LiftingCandidate) -> np.ndarray:
    """Recover Gamma from B's tail; minimum-norm, exact on range(D_A)."""
    DA, rA = ds.defect_A
    X = rA.basis.conj().T @ DA
    tail_mat = column_operator(cand.tail, cand.tail.degree)
    if X.shape[1] != tail_mat.shape[1]:
        raise DimensionMismatch("candidate tail does not act on H")
    return np.linalg.lstsq(X.T, tail_mat.T, rcond=None)[0].T


def verify_rcl(ds: RclDataSet, cand: LiftingCandidate, N: int) -> RclReport:
    """Residuals of P_H' B = A and U' B R = B Q.

    The intertwining identity is compared on the H' row and coefficient
    blocks 0..N-1; the top block is excluded because the truncated shift
    drops it.
    """
    if cand.tail.degree != N:
        raise DimensionMismatch(
            f"candidate has degree {cand.tail.degree}, expected {N}")
    proj = operator_norm(cand.A_part - ds.A)
    dT = ds.defect_Tprime[1].dim
    if cand.tail.out_dim != dT:
        raise DimensionMismatch(
            f"candidate tail has {cand.tail.out_dim} rows per block, "
            f"defect of T' has dimension {dT}")
    B = cand.stacked()
    lhs = _apply_sns(ds.Tprime, ds.defect_Tprime, B @ ds.R)
    rhs = B @ ds.Q
    keep = ds.Hprime_dim + N * dT
    inter = operator_norm(lhs[:keep, :] - rhs[:keep, :])
    return RclReport(projection_residual=float(proj),
                     intertwining_residual=float(inter), degree=N)


def data_set_from_omega(p: InterpolationProblem) -> RclDataSet:
    """Data set on (Y+U, Y+U, F) whose induced problem is omega again.

    A and T' are the complementary coordinate projections, R = omega and
    Q embeds F; the induced problem recovers omega up to the canonical
    defect-basis identification (see omega_roundtrip_residual).
    """
    y, u = p.Y_dim, p.U_dim
    m = y + u
    A = np.zeros((m, m), dtype=np.complex128)
    A[:y, :y] = np.eye(y)
    T = np.zeros((m, m), dtype=np.complex128)
    T[y:, y:] = np.eye(u)
    R = p.omega
    Q = np.vstack([np.zeros((y, p.F.dim)), p.F.basis])
    return RclDataSet(A=A, Tprime=T, R=R, Q=Q)


def omega_roundtrip_residual(p: InterpolationProblem) -> float:
    """Distance between p and the induced problem of data_set_from_omega(p).

    The induced problem lives in defect coordinates; the identifications
    J_U, J_Y are read off the defect bases and the comparison is of the
    subspace F (projector gap) and of omega as a map F -> Y + U
    (basis-free composite).
    """
    ds = data_set_from_omega(p)
    q = underlying_contraction(ds)
    y, u = p.Y_dim, p.U_dim
    BdA, BdT = ds.defect_A[1].basis, ds.defect_Tprime[1].basis
    if BdA.shape[1] != u or BdT.shape[1] != y:
        raise DimensionMismatch("defect spaces did not recover U and Y")
    JU = BdA[y:, :]
    JY = BdT[:y, :]
    qFb = q.F.basis
    lifted = JU @ qFb
    gap = operator_norm(lifted @ lifted.conj().T
                        - p.F.basis @ p.F.basis.conj().T)
    J = np.zeros((y + u, y + u), dtype=np.complex128)
    J[:y, :y] = JY
    J[y:, y:] = JU
    composite = J @ q.omega @ (qFb.conj().T @ (JU.conj().T @ p.F.basis))
    return float(max(gap, operator_norm(composite - p.omega)))


def random_data_set(seed: int, u: int = 2, y: int = 2, f: int = 1) -> RclDataSet:
    """Seeded valid data set with nontrivial A, T', R, Q.

    Built as the omega-induced data set of a random problem, padded by a
    1 x 1 unitary block (which contributes nothing to the defects), then
    conjugated by random unitaries on H', H and H0.  Always validates.
    """
    rng = np.random.default_rng(seed)
    p = random_problem(u, y, f, seed + 1, scale=0.9)
    base = data_set_from_omega(p)
    m = base.H_dim
    e = 1
    A2 = haar_unitary(rng, e)
    T2 = haar_unitary(rng, e)
    f2 = max(1, f)
    Q2 = rng.standard_normal((e, f2)) + 1j * rng.standard_normal((e, f2))
    Q2 /= max(1.0, operator_norm(Q2))
    R2 = A2.conj().T @ T2.conj().T @ A2 @ Q2
    A = np.block([[base.A, np.zeros((m, e))], [np.zeros((e, m)), A2]])
    T = np.block([[base.Tprime, np.zeros((m, e))], [np.zeros((e, m)), T2]])
    R = np.block([[base.R, np.zeros((m, f2))], [np.zeros((e, f)), R2]])
    Q = np.block([[base.Q, np.zeros((m, f2))], [np.zeros((e, f)), Q2]])
    V = haar_unitary(rng, m + e)
    W = haar_unitary(rng, m + e)
    S = haar_unitary(rng, f + f2)
    return RclDataSet(A=V @ A @ W.conj().T, Tprime=V @ T @ V.conj().T,
                      R=W @ R @ S.conj().T, Q=W @ Q @ S.conj().T)
