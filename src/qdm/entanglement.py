"""Two-qubit reduction and the Wootters concurrence."""

from __future__ import annotations

import numpy as np

from .basis import BasisKind, ModelBasis, state_vector
from .errors import EmptySubspaceError, PositivityError
from .operators import DensityMatrix, POSITIVITY_TOL

#: Two-qubit product basis used for entanglement measures.
TWO_QUBIT_LABELS = ("00", "01", "10", "11")
TWO_QUBIT_BASIS = ModelBasis(BasisKind.EFFECTIVE6, TWO_QUBIT_LABELS)

_SUBSPACE_TRACE_FLOOR = 1e-6

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def qubit_concurrences(basis: ModelBasis, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence and leak of each state of an (n, d, d) stack on `basis`, from
    one projection and one batched `eigvals`; a failure reports the worst state.

    The concurrence is that of the block on ``{|00>, |01>, |10>, |11>}``,
    renormalized; the leak is ``1 - Tr(P rho P)``. Raises if that block is
    numerically empty (all population sits on trion states).
    """
    P = np.stack([state_vector(basis, lab).conj() for lab in TWO_QUBIT_LABELS])
    blocks = P @ stack @ P.conj().T
    weight = np.trace(blocks, axis1=1, axis2=2).real
    if weight.min() < _SUBSPACE_TRACE_FLOOR:
        raise EmptySubspaceError(
            f"two-qubit subspace weight {weight.min():.2e} below {_SUBSPACE_TRACE_FLOOR}"
        )
    blocks /= weight[:, None, None]
    return _wootters(blocks), np.minimum(np.maximum(1.0 - weight, 0.0), 1.0)


def _wootters(blocks: np.ndarray) -> np.ndarray:
    ev = np.linalg.eigvals(blocks @ _YY @ blocks.conj() @ _YY).real
    if ev.min() < -POSITIVITY_TOL:
        raise PositivityError(f"concurrence eigenvalues negative: min {ev.min():.2e}")
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)), axis=1)
    return np.minimum(1.0, np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0]))


def concurrence(rho2: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    ``C = max(0, l1 - l2 - l3 - l4)`` with ``l_i`` the decreasing square roots
    of the eigenvalues of ``rho (sy x sy) rho* (sy x sy)``, clamped to 1
    against rounding in ``l1``.
    """
    if rho2.dim != 4:
        raise PositivityError("concurrence expects a 4-dimensional two-qubit state")
    return float(_wootters(rho2.matrix[None])[0])


def qubit_concurrence(rho: DensityMatrix) -> tuple[float, float]:
    """Concurrence of the projected qubit block, together with the leak."""
    conc, leak = qubit_concurrences(rho.basis, rho.matrix[None])
    return float(conc[0]), float(leak[0])
