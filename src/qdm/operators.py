"""Basis-labeled operator algebra on dense complex matrices.

Vectorization is column stacking throughout: ``vec(rho) = rho.flatten(order="F")``
and ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``. Every superoperator in the
package, `Superoperator.matrix` among them, is built with this one convention.

The dynamics run in a real frame: the d^2 coordinates of a Hermitian rho are
rho_ii, then sqrt(2) Re rho_ij, then sqrt(2) Im rho_ij, i < j in
`np.triu_indices` order (`vectorize_real`). The map T from vec(rho) to them
is unitary, so singular values and trace norms are kept, and the trace is
the sum of the first d coordinates. A generator that preserves Hermiticity
is real there, `Superoperator.real_matrix` = T L T^dag, and a real matrix
product costs a quarter of the flops of a complex one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .basis import ModelBasis
from .errors import BasisMismatchError, DomainError, PositivityError

HERMITICITY_TOL = 1e-12
DENSITY_HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8
#: Diagonal shift of the Cholesky positivity screen of `physical_states`.
_SCREEN_SHIFT = 0.9999 * POSITIVITY_TOL


def _as_square(matrix: np.ndarray, dim: int, what: str) -> np.ndarray:
    """A complex copy of `matrix`, so freezing it leaves the caller's array alone."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise BasisMismatchError(f"{what} must be {dim}x{dim}, got {m.shape}")
    return m


@dataclass(frozen=True)
class OperatorMatrix:
    """A complex square matrix tied to a model basis."""

    basis: ModelBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, self.basis.dim, "operator")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return float(np.abs(self.matrix - self.matrix.conj().T).max()) < tol


@dataclass(frozen=True)
class DensityMatrix:
    """A physical state: Hermitian, unit trace, positive within tolerance."""

    basis: ModelBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = physical_states(_as_square(self.matrix, self.basis.dim, "density matrix")[None])[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim


def physical_states(stack: np.ndarray) -> np.ndarray:
    """Check a writable (n, d, d) stack of states as DensityMatrix does,
    Hermitize it in place and return it. A failed check reports the worst
    matrix, so a single bad one raises what it raises alone.

    Positivity is screened by one batched Cholesky factorization of
    rho + _SCREEN_SHIFT I: if it completes, every lambda_min(rho) >=
    -_SCREEN_SHIFT - O(d^2 u), which clears -POSITIVITY_TOL by about 1e-12,
    far above rounding. Only a stack the screen rejects goes to `eigvalsh`,
    so every verdict is the eigensolver's own.
    """
    if not np.isfinite(stack).all():
        raise PositivityError("density matrix has non-finite entries")
    adj = stack.conj().swapaxes(-1, -2)
    herm = np.abs(stack - adj).max(axis=(-1, -2))
    if herm.max() > DENSITY_HERMITICITY_TOL:
        raise PositivityError(f"density matrix not Hermitian: max dev {herm.max():.2e}")
    tr = np.trace(stack, axis1=-2, axis2=-1)
    if abs(tr - 1.0).max() > TRACE_TOL:
        raise PositivityError(f"density matrix trace {tr[abs(tr - 1.0).argmax()]:.10f} != 1")
    stack += adj
    stack /= 2
    try:
        np.linalg.cholesky(stack + _SCREEN_SHIFT * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        wmin = np.linalg.eigvalsh(stack).min()
        if wmin < -POSITIVITY_TOL:
            raise PositivityError(f"density matrix min eigenvalue {wmin:.2e}") from None
    return stack


@dataclass(frozen=True)
class Superoperator:
    """A matrix acting on vectorized density matrices."""

    basis: ModelBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        d2 = self.basis.dim ** 2
        m = _as_square(self.matrix, d2, "superoperator")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def real_matrix(self) -> np.ndarray:
        """T L T^dag, computed once and read-only, from rows then columns of L
        gathered over the pairs i < j in O(d^4), not by products with a dense T.
        Raises DomainError if L does not preserve Hermiticity: if the dropped
        imaginary part exceeds HERMITICITY_TOL x max |L|."""
        d = self.dim
        i, j = _pairs(d)
        diag, up, lo = np.arange(d) * (d + 1), i + d * j, j + d * i
        s = math.sqrt(0.5)
        m = self.matrix
        rows = np.concatenate([m[diag], s * (m[up] + m[lo]), -1j * s * (m[up] - m[lo])])
        g = np.concatenate([rows[:, diag], s * (rows[:, up] + rows[:, lo]),
                            1j * s * (rows[:, up] - rows[:, lo])], axis=1)
        imag = float(np.abs(g.imag).max())
        if imag > HERMITICITY_TOL * float(np.abs(m).max()):
            raise DomainError(f"generator does not preserve Hermiticity: imaginary part {imag:.2e}")
        g = np.ascontiguousarray(g.real)
        g.setflags(write=False)
        return g


@cache
def _pairs(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only (i, j), i < j in `np.triu_indices` order: the off-diagonal coordinates."""
    pairs = np.triu_indices(dim, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def vectorize_real(rho: np.ndarray) -> np.ndarray:
    """Real-frame coordinates of Hermitian matrices, on the last two axes."""
    i, j = _pairs(rho.shape[-1])
    off = math.sqrt(2.0) * rho[..., i, j]
    return np.concatenate([rho.diagonal(axis1=-2, axis2=-1).real, off.real, off.imag], axis=-1)


def unvectorize_real(x: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vectorize_real` on the last axis, broadcast over leading
    ones: new complex matrices, Hermitian by construction."""
    i, j = _pairs(dim)
    rho = np.empty((*x.shape[:-1], dim, dim), dtype=complex)
    rho[..., range(dim), range(dim)] = x[..., :dim]
    off = (x[..., dim:dim + len(i)] + 1j * x[..., dim + len(i):]) * math.sqrt(0.5)
    rho[..., i, j] = off
    rho[..., j, i] = off.conj()
    return rho


def trace_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the difference of two Hermitian matrices.

    The difference is Hermitian, so its singular values are the moduli of
    its eigenvalues; `eigvalsh` reads only its lower triangle. Broadcasts over
    leading axes, one batched call for a stack; two matrices give a float.
    """
    dist = 0.5 * np.abs(np.linalg.eigvalsh(m1 - m2)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist
