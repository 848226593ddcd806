"""Basis-labeled operator algebra on dense complex matrices.

Vectorization is column stacking throughout: ``vec(rho) = rho.flatten(order="F")``
and ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``. Every superoperator in the
package is built with this one convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import ModelBasis
from .errors import BasisMismatchError, PositivityError

HERMITICITY_TOL = 1e-12
DENSITY_HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8


def _as_square(matrix: np.ndarray, dim: int, what: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=complex)
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
    validate: bool = field(default=True, compare=False)

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, self.basis.dim, "density matrix")
        if self.validate:
            herm = float(np.abs(m - m.conj().T).max())
            if herm > DENSITY_HERMITICITY_TOL:
                raise PositivityError(f"density matrix not Hermitian: max dev {herm:.2e}")
            tr = m.trace()
            if abs(tr - 1.0) > TRACE_TOL:
                raise PositivityError(f"density matrix trace {tr:.10f} != 1")
            m = (m + m.conj().T) / 2
            wmin = float(np.linalg.eigvalsh(m).min())
            if wmin < -POSITIVITY_TOL:
                raise PositivityError(f"density matrix min eigenvalue {wmin:.2e}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim


@dataclass(frozen=True)
class Superoperator:
    """A matrix acting on column-stacked density matrices."""

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

    def apply(self, rho: np.ndarray) -> np.ndarray:
        d = self.basis.dim
        return (self.matrix @ rho.flatten(order="F")).reshape(d, d, order="F")


def vectorize(rho: np.ndarray) -> np.ndarray:
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(v: np.ndarray, dim: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(dim, dim, order="F")


def lindblad_term(L: OperatorMatrix) -> Superoperator:
    """Dissipator ``rho -> L rho L^dag - (1/2){L^dag L, rho}`` as a superoperator."""
    Lm = L.matrix
    LdL = Lm.conj().T @ Lm
    ident = np.eye(L.dim)
    sup = (
        np.kron(Lm.conj(), Lm)
        - 0.5 * np.kron(ident, LdL)
        - 0.5 * np.kron(LdL.T, ident)
    )
    return Superoperator(L.basis, sup)


def trace_distance(rho1: DensityMatrix, rho2: DensityMatrix) -> float:
    """Half the trace norm of the difference."""
    if rho1.basis.labels != rho2.basis.labels:
        raise BasisMismatchError("trace_distance requires a common basis")
    return trace_distance_matrices(rho1.matrix, rho2.matrix)


def trace_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float:
    """Half the trace norm of the difference of two Hermitian matrices.

    The difference is Hermitian, so its singular values are the moduli of
    its eigenvalues; `eigvalsh` reads only its lower triangle.
    """
    return 0.5 * float(np.abs(np.linalg.eigvalsh(m1 - m2)).sum())
