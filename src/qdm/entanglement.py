"""Two-qubit reduction and the Wootters concurrence."""

from __future__ import annotations

import numpy as np

from .basis import ModelBasis, state_vector
from .errors import EmptySubspaceError, PositivityError
from .operators import DensityMatrix, POSITIVITY_TOL

#: Two-qubit product states, in the order of the projected block.
TWO_QUBIT_LABELS = ("00", "01", "10", "11")

_SUBSPACE_TRACE_FLOOR = 1e-6

_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def qubit_concurrences(basis: ModelBasis, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence and leak of each state of an (n, d, d) stack on `basis`, from
    one projection, a batched `eigh` and an `svd`; a failure reports the worst state.

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
    """Wootters concurrence ``max(0, l1 - l2 - l3 - l4)``, clamped to 1, of each
    state of an (n, 4, 4) stack. The ``l_i`` are the decreasing singular values
    of ``sqrt(rho) (sy x sy) sqrt(rho)*``: the roots of the eigenvalues of
    ``rho (sy x sy) rho* (sy x sy)``, without roots of its rounding noise (3e-9 from 1e-17)."""
    w, v = np.linalg.eigh(blocks)
    if w.min() < -POSITIVITY_TOL:
        raise PositivityError(f"two-qubit block eigenvalues negative: min {w.min():.2e}")
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return np.minimum(1.0, np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]))


def qubit_concurrence(rho: DensityMatrix) -> tuple[float, float]:
    """Concurrence of the projected qubit block, together with the leak."""
    conc, leak = qubit_concurrences(rho.basis, rho.matrix[None])
    return float(conc[0]), float(leak[0])
