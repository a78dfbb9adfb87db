"""Dense complex linear algebra primitives shared by every module.

Operators are numpy complex128 matrices.  Subspaces are stored as matrices
with orthonormal columns.  Norms are spectral (largest singular value)
throughout.  Every contraction, singularity and generator guard of the
library is one of the functions here.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionMismatch, InconsistentGenerators,
                     NonFiniteResult, NotAContraction, SingularResolvent)

ORTH_TOL = 1e-12
RANK_TOL = 1e-9
# round-off floor of a spectrum, relative to max(1, its top value)
ROUNDOFF = 64.0 * np.finfo(np.float64).eps
# contraction slack of the input types: problems, colligations, liftings
CONTRACTION_SLACK = 1e-10
# a matrix is numerically singular when sigma_min * COND_MAX < max(1, sigma_max)
COND_MAX = 1e10
# the most squarings of gramian_root: 2^64 terms
STEIN_DOUBLINGS = 64


def as_operator(M, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array, optionally checking the shape."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={A.ndim}")
    if rows is not None and A.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {A.shape[0]}")
    if cols is not None and A.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {A.shape[1]}")
    if A.size and not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    return A


def block_2x2(A, B, C, D) -> np.ndarray:
    """np.block([[A, B], [C, D]]) as complex128, written into one array; the
    blocks must fit, any of them may be empty."""
    (r, c), (s, t) = np.shape(A), np.shape(D)
    if np.shape(B) != (r, t) or np.shape(C) != (s, c):
        raise DimensionMismatch(f"blocks {np.shape(A)}, {np.shape(B)}, {np.shape(C)}, "
                                f"{np.shape(D)} do not fit a 2 x 2 block matrix")
    out = np.empty((r + s, c + t), dtype=np.complex128)
    out[:r, :c], out[:r, c:], out[r:, :c], out[r:, c:] = A, B, C, D
    return out


def operator_norm(M) -> float:
    """Largest singular value; 0.0 for empty matrices.

    The same bits as np.linalg.norm(A, 2), which takes the largest value
    of this very SVD, without its dispatch overhead.
    """
    A = as_operator(M)
    if A.size == 0:
        return 0.0
    return float(np.linalg.svd(A, compute_uv=False)[0])


def operator_norms(M) -> np.ndarray:
    """Largest singular value of each matrix of a (P, m, n) stack.

    0.0 for empty matrices, as operator_norm.
    """
    A = np.asarray(M, dtype=np.complex128)
    if A.shape[1] == 0 or A.shape[2] == 0:
        return np.zeros(A.shape[0])
    return np.linalg.svd(A, compute_uv=False)[:, 0]


def projector_gap(X, Y) -> float:
    """||X X* - Y Y*|| from one thin QR [X, Y] = W [R1, R2].

    W has orthonormal columns, so the norm equals that of the small core
    R1 R1* - R2 R2*; no ambient-size matrix is formed.  0.0 when both
    sides are empty.
    """
    A = as_operator(X)
    B = as_operator(Y, rows=A.shape[0])
    R = np.linalg.qr(np.hstack([A, B]), mode="r")
    R1, R2 = R[:, :A.shape[1]], R[:, A.shape[1]:]
    return operator_norm(R1 @ R1.conj().T - R2 @ R2.conj().T)


@dataclass(frozen=True, eq=False)
class Subspace:
    """Subspace of C^ambient_dim given by a matrix with orthonormal columns."""

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        B = as_operator(self.basis, rows=self.ambient_dim)
        object.__setattr__(self, "basis", B)
        if B.shape[1] > self.ambient_dim:
            raise DimensionMismatch("more basis columns than ambient dimensions")
        with np.errstate(over="ignore", invalid="ignore"):
            excess = B.conj().T @ B - np.eye(B.shape[1])
        # a Gram that overflows is no identity either
        if not (np.isfinite(excess).all() and operator_norm(excess) <= ORTH_TOL):
            raise ValueError("subspace basis is not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def _orthonormal(basis: np.ndarray) -> Subspace:
    """Subspace of an SVD or QR factor, unchecked: orthonormal by construction."""
    S = object.__new__(Subspace)
    S.__dict__.update(ambient_dim=basis.shape[0], basis=basis)
    return S


def orthonormal_range(M) -> Subspace:
    """Orthonormal basis of the numerical column range of M.

    Singular vectors with sigma > RANK_TOL * max(1, sigma_max) are kept; the
    max(1, .) floor makes the cutoff absolute for contractions, so ranges
    of near-zero operators collapse to the zero subspace.
    """
    return _range(M, RANK_TOL)[0]


def roundoff_range(M) -> tuple[Subspace, float]:
    """The column range of M above its round-off, and the largest singular
    value dropped (0.0 when none is).

    Singular vectors with sigma > ROUNDOFF * max(1, sigma_max), the floor of
    hermitian_sqrt_psd, are kept: a range that only round-off leaves out,
    not RANK_TOL's numerical one.
    """
    return _range(M, ROUNDOFF)


def _range(M, rel: float) -> tuple[Subspace, float]:
    """(range, dropped) of M at the cutoff rel * max(1, sigma_max), one SVD."""
    u, s, _ = np.linalg.svd(as_operator(M), full_matrices=False)
    cutoff = rel * max(1.0, float(s[0]) if s.size else 0.0)
    r = int(np.count_nonzero(s > cutoff))
    return _orthonormal(u[:, :r]), float(s[r]) if r < s.size else 0.0


def _sqrt_psd(G) -> tuple[np.ndarray, np.ndarray]:
    """hermitian_sqrt_psd(G) and the eigenvalues of G, before the clamp."""
    A = as_operator(G)
    w, V = np.linalg.eigh((A + A.conj().T) / 2.0)
    floor = ROUNDOFF * max(1.0, float(w[-1]) if w.size else 0.0)
    return (V * np.sqrt(np.where(w > floor, w, 0.0))) @ V.conj().T, w


def hermitian_sqrt_psd(G) -> np.ndarray:
    """Positive square root of a Hermitian PSD matrix, clamping round-off.

    Eigenvalues at the round-off floor are flushed to exact zeros before
    the square root; otherwise null directions of I - T*T would surface
    as sqrt(eps) ~ 1e-8 noise and pollute downstream rank decisions.
    """
    return _sqrt_psd(G)[0]


def defect(T, tol: float = RANK_TOL) -> tuple[np.ndarray, Subspace]:
    """Defect operator D = (I - T*T)^(1/2) of a contraction T and its range.

    Parameters
    ----------
    T : array_like
        The contraction; operator_norm(T) <= 1 + tol is required.
    tol : float
        Contraction slack.  The range keeps the singular values of D
        above RANK_TOL; after the round-off clamp of hermitian_sqrt_psd
        they are 0 or at least sqrt(64 eps) ~ 1.2e-7, so every cutoff
        between those gives the same range.

    Returns
    -------
    (D, range) : D Hermitian PSD with D^2 = I - T*T, and an orthonormal
        basis of the numerical range of D.
    """
    A = as_operator(T)
    return gram_defect(A.conj().T @ A, tol)


def gram_defect(G, tol: float) -> tuple[np.ndarray, Subspace]:
    """defect(T, tol) from the Gram G = T*T, for a caller that needs G too."""
    D, w = _sqrt_psd(np.eye(len(G)) - G)
    # the smallest eigenvalue of I - T*T is 1 - ||T||^2, so the guard
    # needs no SVD of T, which may be tall
    if w.size and w[0] < 1.0 - (1.0 + tol) ** 2:
        nrm = np.sqrt(1.0 - w[0])
        raise NotAContraction(f"operator norm {nrm:.6e} exceeds 1 + {tol:g}")
    return D, orthonormal_range(D)


def require_contraction(M, what: str, slack: float) -> float:
    """operator_norm(M), raising NotAContraction when it exceeds 1 + slack."""
    return _at_most_one(operator_norm(M), what, slack)


def require_gram_contraction(blocks, what: str, slack: float) -> float:
    """require_contraction of the row stack of blocks, from gram_norm."""
    return _at_most_one(gram_norm(blocks), what, slack)


def _at_most_one(nrm: float, what: str, slack: float) -> float:
    if nrm > 1.0 + slack:
        raise NotAContraction(f"{what} has norm {nrm:.6e}, above 1 + {slack:g}")
    return nrm


def gram_norm(blocks) -> float:
    """operator_norm of the row stack of blocks from its small Gram."""
    return _top_norm(*_gram(blocks))


def _gram(blocks) -> tuple[np.ndarray, int]:
    """(G, k): the Gram of the row stack of blocks is 4^k G, summed in real
    arithmetic, scaled exactly by a power of two if an entry lies outside
    2^(+-256) so that it over- or underflows nowhere the SVD would not."""
    Ys = [np.ascontiguousarray(X, dtype=np.complex128).view(np.float64) for X in blocks]
    # max |y| without a temporary of |Y|; a NaN in Y is the max and the min
    s = np.max([max(Y.max(initial=0.0), -Y.min(initial=0.0)) for Y in Ys], initial=0.0)
    if not np.isfinite(s):
        raise ValueError("matrix has non-finite entries")
    k = 0 if s == 0.0 or 2.0 ** -256 < s < 2.0 ** 256 else int(np.frexp(s)[1])
    M = sum(Y.T @ Y for Y in ([np.ldexp(Y, -k) for Y in Ys] if k else Ys))
    return M[::2, ::2] + M[1::2, 1::2] + 1j * (M[::2, 1::2] - M[1::2, ::2]), k


def _top_norm(G, k: int) -> float:
    """2^k sqrt(top eigenvalue) of a Hermitian Gram G, its lower triangle read."""
    return float(np.ldexp(np.sqrt(np.max(np.linalg.eigvalsh(G), initial=0.0)), k))


def contraction_gram(M, what: str, slack: float) -> np.ndarray:
    """The Gram M*M of a matrix that require_gram_contraction((M,), what, slack)
    clears, from the one Gram that decides it; raises as that call does."""
    G, k = _gram((M,))
    _at_most_one(_top_norm(G, k), what, slack)
    return G * 4.0 ** k


def require_lifted_contraction(top, gram, X, what: str, slack: float) -> float:
    """require_gram_contraction((top, M @ X), what, slack) from the Gram
    gram = M*M of a column M that contraction_gram cleared, as the norm of
    top*top + X* gram X: the tall M @ X is not needed."""
    G = top.conj().T @ top + X.conj().T @ (gram @ X)
    return _at_most_one(_top_norm(G, 0), what, slack)


def require_invertible(M, what: str) -> np.ndarray:
    """np.linalg.inv(M) of a matrix or a (P, n, n) stack, raising
    SingularResolvent if a matrix has sigma_min * COND_MAX < max(1, sigma_max).

    A rule on the inverse norm, so [[eps]], of condition 1, is singular;
    for sigma_max >= 1 it reads cond > COND_MAX.  See require_inverse.
    """
    M = np.asarray(M)
    try:
        Minv = np.linalg.inv(M)
    except np.linalg.LinAlgError:  # no inverse clears, so the SVD decides
        require_inverse(M, np.full(M.shape, np.nan), what)
        raise
    require_inverse(M, Minv, what)
    return Minv


def require_inverse(M, Minv, what: str) -> None:
    """require_invertible's rule for M, decided from Minv, a computed M^-1.

    As sigma_max <= ||M||_F and 1 / sigma_min <= ||M^-1||_F, the rule cannot
    fire where ||Minv||_F max(1, ||M||_F) <= COND_MAX / 2, the 2 a margin
    for Minv's round-off.  For a stack the norms are taken over the whole
    stack, which bounds them for each matrix.  Where this certificate
    cannot clear M, the SVD decides the exact rule for every matrix; an
    inf or NaN entry then raises NonFiniteResult.
    """
    # squared Frobenius norms; an overflow or a NaN clears nothing
    if np.vdot(Minv, Minv).real * max(np.vdot(M, M).real, 1.0) <= (COND_MAX / 2.0) ** 2:
        return
    if not np.isfinite(M).all():
        raise NonFiniteResult(f"{what} has non-finite entries")
    s = np.linalg.svd(M, compute_uv=False)
    # empty matrices pass
    if s.shape[-1] and np.any(s[..., -1] * COND_MAX < np.maximum(1.0, s[..., 0])):
        raise SingularResolvent(f"{what} is numerically singular")


def gramian_root(A, C) -> np.ndarray | None:
    """L with L* L = P = sum_k (A*)^k C* C A^k, solving P = A* P A + C* C.

    Square-root doubling (Smith, 1968; Hammarling, 1982): step k stacks
    [L; L A_k], A_k = A^(2^k), doubling the terms, and takes its QR factor
    R once it has over 4 len(A) rows.  L is returned once ||A_k||_F <= eps;
    None after STEIN_DOUBLINGS steps (rho(A) >= 1) or on an overflow or NaN."""
    L, Ak = np.asarray(C, dtype=np.complex128), np.asarray(A, dtype=np.complex128)
    eps2 = np.finfo(np.float64).eps ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(STEIN_DOUBLINGS):
            sq = np.vdot(Ak, Ak).real
            if not eps2 < sq < np.inf:  # converged, overflowed or NaN
                return L if sq <= eps2 and np.isfinite(L).all() else None
            L, Ak = np.concatenate((L, L @ Ak)), Ak @ Ak
            if len(L) > 4 * len(Ak):
                L = np.linalg.qr(L, mode="r")
    return None


def realized_sup_bound(A, B, C, D, radius: float) -> float | None:
    """||D|| + radius / sqrt(1 - radius) ||L B||_F, by Cauchy-Schwarz a bound on
    ||D + lambda C (I - lambda A)^-1 B|| for |lambda| <= radius < 1, L the
    gramian_root of (sqrt(radius) A, C) (README, "Numerical notes").  None
    where that root is None or the bound overflows."""
    L = gramian_root(np.sqrt(radius) * np.asarray(A), C)
    if L is None:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        bound = operator_norm(D) + radius / np.sqrt(1.0 - radius) * np.linalg.norm(L @ B)
    return float(bound) if np.isfinite(bound) else None


def stable_radius(A) -> float | None:
    """rho(A) if it is below 1, so that C A^k B and its round-off decay;
    else None, as for non-finite entries.  0.0 for an empty A."""
    A = np.asarray(A, dtype=np.complex128)
    rho = np.abs(np.linalg.eigvals(A)).max(initial=0.0) if np.isfinite(A).all() else np.inf
    return float(rho) if rho < 1.0 else None


def contraction_on_generators(gen, img, tol: float) -> tuple[Subspace, np.ndarray]:
    """(F, om): F = range(gen) and om, in F's basis, with om gen_j = img_j.

    om is the least-squares solution.  Raises InconsistentGenerators for a
    residual above tol * max(1, ||img||) and NotAContraction for
    ||om|| > 1 + tol; a norm in (1, 1 + tol] is round-off, scaled back to 1.
    """
    G = as_operator(gen)
    Y = as_operator(img, cols=G.shape[1])
    F = orthonormal_range(G)
    lhs = F.basis.conj().T @ G
    # an empty F gives an empty om, and the residual ||img||
    om = np.linalg.lstsq(lhs.T, Y.T, rcond=None)[0].T
    res = operator_norm(om @ lhs - Y)
    if res > tol * max(1.0, operator_norm(Y)):
        raise InconsistentGenerators(f"generator least squares has residual {res:.3e}")
    nrm = require_contraction(om, "the map on the generators", tol)
    if nrm > 1.0:
        om = om / nrm
    return F, om


def seeded_rng(seed) -> np.random.Generator:
    """np.random.default_rng of the seed as the same integer, the one seed
    check of the seeded generators: ConfigError unless it is an integer >= 0."""
    try:
        seed = operator.index(seed)
    except TypeError:
        raise ConfigError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return np.random.default_rng(seed)


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Gaussian, phases fixed."""
    if n == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(M)
    d = np.diag(r)
    return q * (d / np.abs(np.where(d == 0, 1.0, d)))
