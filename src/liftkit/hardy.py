"""Truncated vector-valued Hardy-space machinery.

The degree-N truncation of the Hardy space over C^d keeps Taylor
coefficients 0..N, stacked as a block column of length (N+1)*d.  The
forward shift drops the degree-N coefficient on overflow, so shift
identities are exact on the retained blocks 0..N-1 and every routine that
multiplies truncated series reports the mass it dropped.

Every analytic operator function (PolyOpFn, AnalyticFn, and
schur.Realization with its subclasses) exposes the same protocol:
``taylor_stack(N)`` returns the coefficients 0..N as an (N+1, out, in)
stack for the series engine in ``liftkit.series``, and
``eval_many(points)`` returns the values at P points as a (P, out, in)
stack, raising what the per-point ``eval`` would raise at any of them.
The library's types check the points once, by the one point check of
their class (``Evaluable._points``), and ``eval(z)`` is bit for bit row 0
of ``eval_many([z])``; their internal ``_values`` reads checked points.
A ``taylor_stack`` result may be a read-only view of stored coefficients,
so callers never write into it; a caller that needs a stack to change
copies it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import series
from .errors import ConfigError, DegreeTooSmall, DimensionMismatch, DomainError, NonFiniteResult
from .linalg import Subspace, as_operator, operator_norm, operator_norms

# The sample points of every grid check: 32 on each of the circles
# |z| = 0.6 and 0.95.
GRID = np.array([r * np.exp(2j * np.pi * k / 32) for r in (0.6, 0.95) for k in range(32)])
GRID.setflags(write=False)


def disk_points(points) -> np.ndarray:
    """The points, or one scalar point, checked once per evaluation call, as a
    complex128 vector; DomainError names the first |z| >= 1 or NaN."""
    z = np.asarray(points, dtype=np.complex128).reshape(-1)
    r = np.abs(z)
    # one max decides; a NaN point is the max and fails
    if not np.maximum.reduce(r, initial=0.0) < 1.0:
        raise DomainError(f"|lambda| = {r[~(r < 1.0)][0]:.6f} is not < 1")
    return z


def _coeff_stack(coeffs, rows: int, cols: int) -> np.ndarray:
    """Read-only copy of a coefficient sequence as a finite (L, rows, cols) stack.

    Checked once for the whole stack; raises what as_operator(c, rows,
    cols) raises for the first bad coefficient c.
    """
    try:
        S = np.array(coeffs, dtype=np.complex128)
    except ValueError:
        # coefficients of different shapes; name the first bad one
        S = np.stack([as_operator(c, rows=rows, cols=cols) for c in coeffs])
    if S.ndim != 3:
        raise DimensionMismatch(f"expected a matrix, got ndim={S.ndim - 1}")
    if S.shape[1] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {S.shape[1]}")
    if S.shape[2] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {S.shape[2]}")
    if S.size and not np.isfinite(S).all():
        raise ValueError("matrix has non-finite entries")
    S.setflags(write=False)
    return S


class Evaluable:
    """eval_many and eval from _values(z), the values at points that the one
    point check of the class, _points, has passed: the open unit disk."""

    def eval_many(self, points) -> np.ndarray:
        """Values at points of the open unit disk, as a (P, out, in) stack."""
        return self._values(self._points(points))

    def eval(self, lam: complex) -> np.ndarray:
        """The value at one point: row 0 of eval_many([lam]), bit for bit."""
        return self._values(self._points(lam))[0]

    def _points(self, points) -> np.ndarray:
        return disk_points(points)


@dataclass(frozen=True, eq=False)
class PolyOpFn(Evaluable):
    """Operator-valued polynomial sum_n coeffs[n] * lambda^n.

    Each coefficient is an (out_dim x in_dim) matrix.  The coefficients are
    held as one read-only stack, copied from those given; ``coeffs`` and
    ``taylor_stack`` up to the degree are views of it.
    """

    out_dim: int
    in_dim: int
    coeffs: tuple

    # the schur.Realization of a polynomial made by its truncated
    realization = None

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise DimensionMismatch("at least one coefficient required")
        stack = _coeff_stack(self.coeffs, self.out_dim, self.in_dim)
        object.__setattr__(self, "_stack", stack)
        object.__setattr__(self, "coeffs", tuple(stack))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> np.ndarray:
        """Taylor coefficient n, zero beyond the stored degree."""
        if n < 0:
            raise ValueError("negative Taylor index")
        if n < len(self.coeffs):
            return self.coeffs[n]
        return np.zeros((self.out_dim, self.in_dim), dtype=np.complex128)

    def taylor_stack(self, N: int) -> np.ndarray:
        """Coefficients 0..N as an (N+1, out, in) stack: a read-only view of
        the stored stack up to the degree, a fresh zero-padded array above it."""
        series.require_degree(N)
        if N < len(self.coeffs):
            return self._stack[:N + 1]
        out = np.zeros((N + 1, self.out_dim, self.in_dim), dtype=np.complex128)
        out[:len(self.coeffs)] = self._stack
        return out

    def _values(self, z: np.ndarray) -> np.ndarray:
        return series.polyval(self._stack, z)


def _poly(stack: np.ndarray) -> PolyOpFn:
    """PolyOpFn of a nonempty finite (L, out, in) stack that the library has
    just computed and hands over: kept as it is, made read-only, with no copy
    or recheck."""
    stack.setflags(write=False)
    P = object.__new__(PolyOpFn)
    P.__dict__.update(out_dim=stack.shape[1], in_dim=stack.shape[2], coeffs=tuple(stack),
                      _stack=stack)
    return P


class AnalyticFn(Evaluable):
    """Analytic operator function with a batched pointwise rule plus Taylor data.

    Used for functions that are not polynomials (resolvent-type formulas)
    but still need coefficient access for the truncated recursions.  The
    rule ``eval_many_fn`` maps a vector of P points of the open disk to a
    (P, out_dim, in_dim) stack.  The Taylor data is precomputed to a fixed
    degree and held read-only; asking beyond it raises DegreeTooSmall.
    """

    def __init__(self, out_dim, in_dim, coeffs, eval_many_fn, meta=None):
        self.out_dim = int(out_dim)
        self.in_dim = int(in_dim)
        self._stack = _coeff_stack(coeffs, self.out_dim, self.in_dim) if len(coeffs) else (
            np.zeros((0, self.out_dim, self.in_dim), dtype=np.complex128))
        self._stack.setflags(write=False)
        self.coeffs = tuple(self._stack)
        self._eval_many = eval_many_fn
        self.meta = dict(meta or {})

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def taylor_stack(self, N: int) -> np.ndarray:
        """Coefficients 0..N as an (N+1, out, in) stack, a read-only view of
        the stored one."""
        series.require_degree(N)
        if N >= len(self.coeffs):
            raise DegreeTooSmall(f"Taylor data stored to degree {self.degree}, asked for {N}")
        return self._stack[:N + 1]

    def _values(self, z: np.ndarray) -> np.ndarray:
        vals = np.asarray(self._eval_many(z), dtype=np.complex128)
        if vals.shape != (z.size, self.out_dim, self.in_dim):
            raise DimensionMismatch(
                f"pointwise rule returned shape {vals.shape}, expected "
                f"{(z.size, self.out_dim, self.in_dim)}")
        if vals.size and not np.isfinite(vals).all():
            raise ValueError("matrix has non-finite entries")
        return vals


@dataclass(frozen=True)
class TruncationGrid:
    """Truncation degree plus the sample points used for grid checks."""

    degree: int
    points: tuple

    def __post_init__(self):
        if self.degree < 4:
            raise ConfigError("truncation degree must be at least 4")
        pts = tuple(complex(z) for z in self.points)
        if not pts:
            raise ConfigError("empty sample grid")
        if not all(abs(z) < 1.0 for z in pts):
            raise ConfigError("sample points must lie in the open unit disk")
        object.__setattr__(self, "points", pts)


def default_grid(degree: int) -> TruncationGrid:
    """GRID at a truncation degree."""
    return TruncationGrid(degree, tuple(GRID))


def shift(X, dim: int) -> np.ndarray:
    """S @ X for the truncated forward shift S, without forming S.

    X is a stacked column (or a matrix of them) with rows in blocks of
    dim; block n moves to block n+1, block 0 becomes zero and the top
    block is dropped.
    """
    X = np.asarray(X)
    rows = _block_rows(X, dim)
    out = np.zeros(X.shape, dtype=np.complex128)
    out[dim:] = X[:rows - dim]
    return out


def shift_adjoint(X, dim: int) -> np.ndarray:
    """S* @ X: block n+1 moves to block n, block 0 is dropped."""
    X = np.asarray(X)
    rows = _block_rows(X, dim)
    out = np.zeros(X.shape, dtype=np.complex128)
    out[:rows - dim] = X[dim:]
    return out


def _block_rows(X: np.ndarray, dim: int) -> int:
    rows = X.shape[0]
    if dim < 0 or (dim and rows % dim) or (not dim and rows):
        raise DimensionMismatch(f"{rows} rows do not fill blocks of {dim}")
    return rows


def column_operator(H, N: int) -> np.ndarray:
    """Stack H_0..H_N into the column operator C^in -> truncated H^2(C^out).

    A reshape of H.taylor_stack(N): a read-only view, with no zero-fill and
    no copy, wherever that stack is one of stored coefficients."""
    return H.taylor_stack(N).reshape((N + 1) * H.out_dim, H.in_dim)


def grid_sup_norm(H) -> float:
    """Largest ||H(lambda)|| over GRID, from H's values there: for a PolyOpFn,
    its stored coefficients.  Solutions live in the H^2 ball, not the
    sup-norm ball, so no verdict reads it.  Values that overflow raise
    NonFiniteResult."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        values = H.eval_many(GRID)
    if not np.isfinite(values).all():
        raise NonFiniteResult("H overflows in its values on GRID")
    return float(operator_norms(values).max())


def multiplication_operator(H: PolyOpFn, domain: Subspace, N: int) -> tuple[np.ndarray, float]:
    """Multiplication by H restricted to a subspace of the truncated space.

    Returns the matrix (into truncated H^2(C^out_dim)) together with a
    tail-mass diagnostic: the norm of the product coefficients of degree
    > N that the truncation drops on the given domain.  Both come from
    the full series product of H's deg + 1 coefficients with the N + 1
    blocks of the domain basis; degrees 0..N are the matrix and degrees
    N+1..N+deg the tail.
    """
    if domain.ambient_dim != (N + 1) * H.in_dim:
        raise DimensionMismatch(
            f"domain ambient {domain.ambient_dim} != (N+1)*in_dim = {(N + 1) * H.in_dim}")
    out, inn, deg = H.out_dim, H.in_dim, H.degree
    m = domain.dim
    prod = series.convolve(H.taylor_stack(deg), domain.basis.reshape(N + 1, inn, m))
    M = prod[:N + 1].reshape((N + 1) * out, m)
    return M, operator_norm(prod[N + 1:].reshape(deg * out, m))
