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


def qubit_projector_rows(basis: ModelBasis) -> np.ndarray:
    """4 x dim matrix whose rows are the two-qubit product states in `basis`."""
    return np.stack([state_vector(basis, lab).conj() for lab in TWO_QUBIT_LABELS])


def project_to_qubits(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """Project onto the two-qubit subspace and renormalize.

    Returns the renormalized 4x4 state on ``{|00>, |01>, |10>, |11>}`` and the
    leaked population ``1 - Tr(P rho P)``. Raises if the qubit subspace is
    numerically empty (all population sits on trion states).
    """
    P = qubit_projector_rows(rho.basis)
    block = P @ rho.matrix @ P.conj().T
    weight = float(block.trace().real)
    if weight < _SUBSPACE_TRACE_FLOOR:
        raise EmptySubspaceError(
            f"two-qubit subspace weight {weight:.2e} below {_SUBSPACE_TRACE_FLOOR}"
        )
    rho2 = DensityMatrix(TWO_QUBIT_BASIS, block / weight, validate=False)
    leak = min(max(1.0 - weight, 0.0), 1.0)
    return rho2, leak


def concurrence(rho2: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    ``C = max(0, l1 - l2 - l3 - l4)`` with ``l_i`` the decreasing square roots
    of the eigenvalues of ``rho (sy x sy) rho* (sy x sy)``, clamped to 1
    against rounding in ``l1``.
    """
    if rho2.dim != 4:
        raise PositivityError("concurrence expects a 4-dimensional two-qubit state")
    m = rho2.matrix
    R = m @ _YY @ m.conj() @ _YY
    ev = np.linalg.eigvals(R).real
    if ev.min() < -POSITIVITY_TOL:
        raise PositivityError(f"concurrence eigenvalues negative: min {ev.min():.2e}")
    lam = np.sort(np.sqrt(np.clip(ev, 0.0, None)))[::-1]
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))


def qubit_concurrence(rho: DensityMatrix) -> tuple[float, float]:
    """Concurrence of the projected qubit block, together with the leak."""
    rho2, leak = project_to_qubits(rho)
    return concurrence(rho2), leak
