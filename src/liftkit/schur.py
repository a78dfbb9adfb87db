"""Schur-class functions via contractive colligations.

A realization (A, B, C, D) with contractive colligation [[A, B], [C, D]]
defines Z(lambda) = D + lambda C (I - lambda A)^-1 B, a holomorphic
contraction-valued function on the open unit disk.  Constrained
completions generate the Schur parameters used by the interpolation
solvers: a block row [omega, K] is a contraction exactly when
K = D_{omega*} X with X a contraction into the defect space of omega*,
which turns "Z with Z|_F = omega" into a free choice of X.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import series
from .errors import DimensionMismatch
from .hardy import Evaluable, PolyOpFn, _poly
from .linalg import (CONTRACTION_SLACK, as_operator, block_2x2, defect, gramian_root,
                     operator_norm, orthonormal_range, require_contraction, require_inverse,
                     require_invertible)


@dataclass(frozen=True, eq=False)
class Realization(Evaluable):
    """D + lambda C (I - lambda A)^-1 B, with only the shapes and finiteness
    of (A, B, C, D) checked; meta holds what the library code that assembled
    it measured (_assembled), else nothing.  Its matrices are read-only
    C-contiguous copies: a loop can be shared, and a decoded loop repeats the
    BLAS bits."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        self._keep([np.array(as_operator(getattr(self, k)), order="C") for k in "ABCD"], {})

    def _keep(self, mats: list, meta: dict) -> None:
        """Hold the matrices A, B, C, D of mats, read-only, under the one shape rule."""
        n, (out, inn) = len(mats[0]), mats[3].shape
        for name, X, shape in zip("ABCD", mats, ((n, n), (n, inn), (out, n), (out, inn))):
            if X.shape != shape:
                raise DimensionMismatch(f"{name} is {' x '.join(map(str, X.shape))}, "
                                        f"expected {shape[0]} x {shape[1]}")
            X.setflags(write=False)
        self.__dict__.update(zip("ABCD", mats), meta=dict(meta))

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @cached_property
    def gramian_root(self) -> np.ndarray | None:
        """linalg.gramian_root(A, C), read-only, computed once per loop: L with
        L* L = sum_k (A*)^k C* C A^k, or None when A is not stable."""
        L = gramian_root(self.A, self.C)
        if L is not None:
            L.setflags(write=False)
        return L

    @property
    def in_dim(self) -> int:
        return self.D.shape[1]

    @property
    def out_dim(self) -> int:
        return self.D.shape[0]

    def _values(self, z: np.ndarray) -> np.ndarray:
        """D + z C (I - z A)^-1 B at each point of z, one guarded batched solve."""
        n = self.state_dim
        if n == 0:
            return np.repeat(self.D[None], z.size, axis=0)
        z3 = z[:, None, None]
        M = np.eye(n) - z3 * self.A
        try:
            # B[None] is one matrix, broadcast over the stack M; numpy < 2.0
            # reads a bare 2-d B as stacked vectors, wrong when B is square
            res = np.linalg.solve(M, self.B[None])
        except np.linalg.LinAlgError:
            require_invertible(M, "I - lambda*A")
            raise
        return self.D + z3 * (self.C @ res)

    def taylor_stack(self, N: int) -> np.ndarray:
        """Coefficients 0..N as an (N+1, out, in) stack: D, then C A^(k-1) B."""
        return series.realization_stack(self.A, self.B, self.C, self.D, N)

    def truncated(self, N: int) -> PolyOpFn:
        """The PolyOpFn of coefficients 0..N whose ``realization`` is this loop,
        holding the stack it computes; a stack that overflows raises ValueError."""
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            stack = self.taylor_stack(N)
        if not np.isfinite(stack).all():
            raise ValueError("matrix has non-finite entries")
        H = _poly(stack)
        object.__setattr__(H, "realization", self)
        return H


def _assembled(A, B, C, D, meta=None) -> Realization:
    """Realization of matrices assembled from checked loops, so finite: the
    complex128 copies and the shape rule of Realization, no finiteness scan."""
    R = object.__new__(Realization)
    R._keep([np.array(X, dtype=np.complex128, order="C") for X in (A, B, C, D)], meta or {})
    return R


class SchurRealization(Realization):
    """A Realization whose colligation [[A, B], [C, D]] is contractive."""

    def __post_init__(self):
        super().__post_init__()
        require_contraction(self.colligation(), "colligation", CONTRACTION_SLACK)

    def colligation(self) -> np.ndarray:
        return block_2x2(self.A, self.B, self.C, self.D)


def random_schur(out_dim: int, in_dim: int, state_dim: int, seed: int,
                 scale: float = 1.0, isometric: bool = False) -> SchurRealization:
    """Seeded random realization with colligation norm <= scale.

    The draw is a complex Gaussian matrix divided by max(1, sigma_max);
    with isometric=True the colligation is replaced by the Q factor of
    the draw (or a coisometry when the shape forces it), giving boundary
    cases with colligation norm exactly 1 before scaling.
    """
    rng = np.random.default_rng(seed)
    rows, cols = state_dim + out_dim, state_dim + in_dim
    M = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols)))
    M /= np.sqrt(2.0)
    if isometric:
        # QR of the draw, or of its adjoint when it is wide
        wide = rows < cols
        q, r = np.linalg.qr(M.conj().T if wide else M)
        q = q * np.sign(np.where(np.diag(r).real == 0, 1.0, np.diag(r).real))
        M = q.conj().T if wide else q
    else:
        M = M / max(1.0, operator_norm(M))
    M = scale * M
    n = state_dim
    return SchurRealization(M[:n, :n], M[:n, n:], M[n:, :n], M[n:, n:])


def _completion_frame(problem) -> tuple[np.ndarray, np.ndarray]:
    """(D_{omega*} Vd, P) for the range basis Vd of D_{omega*} and a basis
    P of F_perp; a free part X maps P coordinates into Vd coordinates."""
    D, drange = defect(problem.omega.conj().T)
    Fb = problem.F.basis
    comp = orthonormal_range(np.eye(problem.U_dim) - Fb @ Fb.conj().T).basis
    return D @ drange.basis, comp


def constrained_completion(problem, X: SchurRealization | None = None) -> SchurRealization:
    """Schur function Z with Z(lambda)|_F = omega, parameterized by X.

    On U = F + F_perp the completion acts as
    Z(lambda)(f + g) = omega f + D_{omega*} X(lambda) g, realized as one
    contractive colligation.  X must map F_perp coordinates into the
    defect space of omega*; X=None means X identically zero.  The
    restriction to F equals omega exactly, for every lambda.
    """
    return _complete(problem, _completion_frame(problem), X)


def _complete(problem, frame, X: SchurRealization | None) -> SchurRealization:
    """constrained_completion with its _completion_frame given."""
    Mcol, comp = frame
    d, g = Mcol.shape[1], comp.shape[1]
    if X is None:
        zero = np.zeros((0, 0))
        X = SchurRealization(zero, np.zeros((0, g)), np.zeros((d, 0)), np.zeros((d, g)))
    if X.in_dim != g or X.out_dim != d:
        raise DimensionMismatch(
            f"X must be {d} x {g} valued (defect of omega* x complement of F), "
            f"got {X.out_dim} x {X.in_dim}")
    A = X.A
    B = X.B @ comp.conj().T
    C = Mcol @ X.C
    D = problem.omega @ problem.F.basis.conj().T + Mcol @ X.D @ comp.conj().T
    return SchurRealization(A, B, C, D)


def _herglotz(Cfun, z: np.ndarray) -> np.ndarray:
    """(I + lambda C(lambda)) (I - lambda C(lambda))^-1 at checked points z, as
    a (P, d, d) stack: one batched right division, guarded from the inverse
    it gives, (I - lambda C)^-1 = (herglotz + I) / 2 (linalg.require_inverse).
    Raises SingularResolvent when I - lambda C(lambda) is numerically singular."""
    V = z[:, None, None] * Cfun._values(z)
    if V.shape[1] != V.shape[2]:
        raise DimensionMismatch("the Herglotz transform needs a square-valued function")
    eye = np.eye(V.shape[1])
    A = eye - V
    # right-divide: (I + V) A^-1 solved as A^T X^T = (I + V)^T
    try:
        X = np.linalg.solve(A.transpose(0, 2, 1), (eye + V).transpose(0, 2, 1)).transpose(0, 2, 1)
    except np.linalg.LinAlgError:
        require_invertible(A, "I - lambda*C(lambda)")
        raise
    require_inverse(A, (X + eye) / 2.0, "I - lambda*C(lambda)")
    return X
