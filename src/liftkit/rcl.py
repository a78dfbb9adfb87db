"""Relaxed commutant lifting data sets and their interpolation reduction.

A data set consists of operators A: H -> H', T': H' -> H', R, Q: H0 -> H
with A, T' contractions, T'AR = AQ and R*R <= Q*Q.  A lifting candidate
is a contractive column B = [A; Gamma D_A] into H' + H^2(defect of T'),
and B solves the lifting problem when P_H' B = A and U' B R = B Q for
the Sz.-Nagy-Schaeffer isometric lifting U' of T'.

Every data set induces an interpolation problem on the defect space of
A: F = closure(D_A Q H0) and omega(D_A Q h) = [D_T' A R h; D_A R h].
The two problems are equivalent.  On seeded data sets the tests check
that gamma_to_B of a solution passes verify_rcl, of a perturbed one fails,
and that b_to_gamma of a passing candidate, factored or multiplied out,
passes verify_solution.  data_set_from_omega builds, for any contraction
omega, a data set whose induced problem is omega again up to a unitary
change of basis (omega_roundtrip_residual measures the defect).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import series
from .errors import DimensionMismatch
from .hardy import PolyOpFn, _poly
from .lifting import CHECK_TOL, InterpolationProblem, _failures, random_problem
from .linalg import (CONTRACTION_SLACK, Subspace, as_operator, block_2x2, contraction_gram,
                     contraction_on_generators, defect, gram_norm, haar_unitary,
                     operator_norm, require_gram_contraction, require_lifted_contraction,
                     seeded_rng)

DATA_SET_TOL = 1e-10
# residual and contraction slack of the omega induced by a data set
INDUCED_TOL = 1e-9


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False, init=False)
class LiftingCandidate:
    """Contractive column B = [A_part; tail] from H into H' + H^2(D_T').

    The tail is kept factored, its coefficient column being gamma @ X:
    gamma_to_B keeps the solution column Gamma, as the read-only
    (N+1, dim D_T', u) stack gamma, and X = Bd_A* D_A, so no
    (N+1) dim D_T' x dim H array is made.  A candidate built from a tail
    holds the pair (its coefficient column, I).  ``tail`` is the PolyOpFn
    of gamma @ X, multiplied out on first access.
    """

    A_part: np.ndarray
    gamma: np.ndarray
    X: np.ndarray

    def __init__(self, A_part, tail: PolyOpFn):
        A = as_operator(A_part, cols=tail.in_dim)
        require_gram_contraction((A, _column(tail._stack)), "lifting candidate", CONTRACTION_SLACK)
        eye = np.eye(A.shape[1], dtype=np.complex128)
        eye.setflags(write=False)
        self.__dict__.update(A_part=A, gamma=tail._stack, X=eye, tail=tail)

    @cached_property
    def tail(self) -> PolyOpFn:
        """The PolyOpFn of B's tail, coefficient column gamma @ X."""
        L, d, _ = self.gamma.shape
        return _poly((_column(self.gamma) @ self.X).reshape(L, d, self.X.shape[1]))


def _column(stack: np.ndarray) -> np.ndarray:
    """The (L d, u) column view of an (L, d, u) stack, sized for d or u zero too."""
    L, d, u = stack.shape
    return stack.reshape(L * d, u)


def _candidate(A_part: np.ndarray, gamma: np.ndarray, X: np.ndarray) -> LiftingCandidate:
    """LiftingCandidate of read-only parts that gamma_to_B has already guarded."""
    cand = object.__new__(LiftingCandidate)
    cand.__dict__.update(A_part=A_part, gamma=gamma, X=X)
    return cand


@dataclass(frozen=True)
class RclReport:
    projection_residual: float
    intertwining_residual: float
    degree: int

    def failures(self) -> list:
        return _failures(("projection_residual", self.projection_residual, CHECK_TOL),
                         ("intertwining_residual", self.intertwining_residual, CHECK_TOL))

    def ok(self) -> bool:
        return not self.failures()


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


def underlying_contraction(ds: RclDataSet) -> InterpolationProblem:
    """Interpolation problem induced by a data set.

    U = defect space of A, Y = defect space of T', F spanned by D_A Q,
    and omega defined on generators by D_A Q h -> [D_T' A R h; D_A R h]
    (linalg.contraction_on_generators), in defect-range coordinates.
    """
    DA, rA = ds.defect_A
    DT, rT = ds.defect_Tprime
    BdA, BdT = rA.basis, rT.basis
    u, y = BdA.shape[1], BdT.shape[1]
    F, om = contraction_on_generators(
        BdA.conj().T @ (DA @ ds.Q),
        np.vstack([BdT.conj().T @ (DT @ (ds.A @ ds.R)), BdA.conj().T @ (DA @ ds.R)]),
        INDUCED_TOL)
    return InterpolationProblem(U_dim=u, Y_dim=y, F=F,
                                omega1=om[:y, :], omega2=om[y:, :])


def gamma_to_B(ds: RclDataSet, Gamma, N: int) -> LiftingCandidate:
    """Candidate B = [A; Gamma D_A] from a contraction on the defect of A.

    Gamma is guarded at CHECK_TOL and B at CONTRACTION_SLACK, both from
    Gamma's u x u Gram, as LiftingCandidate guards its column.  The tail is
    kept as the pair (Gamma, X = Bd_A* D_A) (LiftingCandidate): a read-only
    Gamma as it is given, a writable one copied once, so that the candidate
    aliases no memory its caller can change.  A degree N < 0 raises DegreeTooSmall."""
    series.require_degree(N)
    DA, rA = ds.defect_A
    G = as_operator(Gamma, cols=rA.dim)
    dT = ds.defect_Tprime[1].dim
    if G.shape[0] != (N + 1) * dT:
        raise DimensionMismatch(f"Gamma must have {(N + 1) * dT} rows for degree {N}, "
                                f"got {G.shape[0]}")
    gram = contraction_gram(G, "Gamma", CHECK_TOL)
    X = rA.basis.conj().T @ DA
    require_lifted_contraction(ds.A, gram, X, "lifting candidate", CONTRACTION_SLACK)
    if G.flags.writeable:
        G = G.copy()
    G = G.reshape(N + 1, dT, rA.dim)
    for M in (G, X):
        M.setflags(write=False)
    return _candidate(ds.A, G, X)


def b_to_gamma(ds: RclDataSet, cand: LiftingCandidate) -> np.ndarray:
    """Gamma = gamma M from B's tail, the pair (gamma, X), with the minimum-norm
    M of M Bd_A* D_A = X: exact on range(D_A), and the tail not multiplied out."""
    DA, rA = ds.defect_A
    XA = rA.basis.conj().T @ DA
    if XA.shape[1] != cand.X.shape[1]:
        raise DimensionMismatch("candidate tail does not act on H")
    M = np.linalg.lstsq(XA.T, cand.X.T, rcond=None)[0].T
    return _column(cand.gamma) @ M


def verify_rcl(ds: RclDataSet, cand: LiftingCandidate, N: int) -> RclReport:
    """Residuals of P_H' B = A and U' B R = B Q.

    The intertwining identity is compared on the H' row and coefficient
    blocks 0..N-1; the top block is excluded because the truncated shift
    drops it.  Formed blockwise from the factored tail, Gamma times the
    small X R and X Q, with no stacked B and no multiplied-out tail; the
    norm is gram_norm's.
    """
    gamma, X = cand.gamma, cand.X
    if len(gamma) - 1 != N:
        raise DimensionMismatch(
            f"candidate has degree {len(gamma) - 1}, expected {N}")
    proj = operator_norm(cand.A_part - ds.A)
    dT = ds.defect_Tprime[1].dim
    if gamma.shape[1] != dT:
        raise DimensionMismatch(
            f"candidate tail has {gamma.shape[1]} rows per block, "
            f"defect of T' has dimension {dT}")
    A, col = cand.A_part, _column(gamma)
    (D, drange), AR, keep = ds.defect_Tprime, A @ ds.R, N * dT
    # U' B R - B Q on tail blocks 0..N-1 in one array: -B Q, plus C A R on block 0
    # (C = D_T' in range coordinates; none at N = 0) and B's block n - 1 times R on n
    diff = col[:keep] @ (X @ -ds.Q)
    diff[:dT] += ((drange.basis.conj().T @ D) @ AR)[:keep]
    diff[dT:] += col[:keep - dT] @ (X @ ds.R)
    inter = gram_norm((ds.Tprime @ AR - A @ ds.Q, diff))
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
    rng = seeded_rng(seed)
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
    A = block_2x2(base.A, np.zeros((m, e)), np.zeros((e, m)), A2)
    T = block_2x2(base.Tprime, np.zeros((m, e)), np.zeros((e, m)), T2)
    R = block_2x2(base.R, np.zeros((m, f2)), np.zeros((e, f)), R2)
    Q = block_2x2(base.Q, np.zeros((m, f2)), np.zeros((e, f)), Q2)
    V = haar_unitary(rng, m + e)
    W = haar_unitary(rng, m + e)
    S = haar_unitary(rng, f + f2)
    return RclDataSet(A=V @ A @ W.conj().T, Tprime=V @ T @ V.conj().T,
                      R=W @ R @ S.conj().T, Q=W @ Q @ S.conj().T)
