"""Hamiltonian builders for the driven two-dot system.

All builders return rotating-frame, time-independent operators in ueV: the
laser frame is applied inside :func:`build_full_hamiltonian`, so the trion
diagonal carries the detuning rather than the bare transition energy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .basis import (
    DOT3_LEVELS,
    DOT4_LEVELS,
    BasisKind,
    ModelBasis,
    effective6,
    effective8,
    make_basis,
    restrict,
    state_vector,
)
from .errors import BasisMismatchError, DegenerateBasisError, DomainError
from .operators import OperatorMatrix
from .params import CouplingParams, DriveParams


def ketbra(basis: ModelBasis, a: str, b: str) -> np.ndarray:
    """``|a><b|`` for two named states of `basis`."""
    return np.outer(state_vector(basis, a), state_vector(basis, b).conj())


@cache
def dot_operator_pair(kind: BasisKind, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
    """``|a><b|`` acting on dot 1 and on dot 2 of the product basis, read-only."""
    if kind == BasisKind.FULL9:
        levels = DOT3_LEVELS
    elif kind == BasisKind.FULL16:
        levels = DOT4_LEVELS
    else:
        raise BasisMismatchError("dot_operator_pair expects a product-basis kind")
    n, i, j, x = len(levels), levels.index(a), levels.index(b), np.arange(len(levels))
    pair = np.zeros((2, n * n, n * n), dtype=complex)
    pair[0, i * n + x, j * n + x] = 1.0  # product label: dot 1's level first
    pair[1, x * n + i, x * n + j] = 1.0
    pair.setflags(write=False)
    return pair[0], pair[1]


def build_full_hamiltonian(
    drive: DriveParams,
    coupling: CouplingParams,
    kind: BasisKind = BasisKind.FULL9,
) -> OperatorMatrix:
    """Rotating-frame Hamiltonian of the driven two-dot system.

    Per dot: pump ``Omega |1><s|``, Raman ground coupling ``Omega_m |0><1|``
    (plus conjugates) and the detuning on the trion diagonal. Between dots:
    the resonant-transfer term on ``|1s><s1| + |0s><s0|`` and the bi-trion
    shift on ``|ss>``. On the 16-state basis the inter-dot trion level and the
    ``s <-> t`` hopping are included as well.
    """
    if kind not in (BasisKind.FULL9, BasisKind.FULL16):
        raise BasisMismatchError("build_full_hamiltonian expects FULL9 or FULL16")
    basis = make_basis(kind)
    h = np.zeros((basis.dim, basis.dim), dtype=complex)

    p1, p2 = dot_operator_pair(kind, "1", "s")
    m1, m2 = dot_operator_pair(kind, "0", "1")
    h += drive.omega * (p1 + p2) + drive.omega_m * (m1 + m2)
    h = h + h.conj().T

    s1, s2 = dot_operator_pair(kind, "s", "s")
    h += drive.detuning * (s1 + s2)

    fo = coupling.v_f * (ketbra(basis, "1s", "s1") + ketbra(basis, "0s", "s0"))
    h += fo + fo.conj().T
    h += coupling.v_xx * ketbra(basis, "ss", "ss")

    if kind == BasisKind.FULL16:
        # t level sits at detuning + (omega_t - omega) = detuning + v_f - delta
        t1, t2 = dot_operator_pair(kind, "t", "t")
        h += (drive.detuning + coupling.v_f - coupling.delta) * (t1 + t2)
        hop1, hop2 = dot_operator_pair(kind, "s", "t")
        hop = coupling.t_e * (hop1 + hop2)
        h += hop + hop.conj().T

    return OperatorMatrix(basis, h)


def build_effective_hamiltonian(drive: DriveParams, coupling: CouplingParams) -> OperatorMatrix:
    """Adiabatically eliminated 6-state Hamiltonian: the full9 one restricted
    to the effective6 states (order 0 of the elimination).

    It carries the five drive couplings and ``detuning + v_f`` on ``|S0s>``
    and ``|S1s>``; the bi-trion shift `v_xx` lives on an eliminated state.
    The singlet ``|A01>`` couples only to eliminated states, so its row and
    column vanish, which is what makes it the dark state of the protocol.
    """
    basis = effective6()
    return OperatorMatrix(basis, restrict(basis, build_full_hamiltonian(drive, coupling).matrix))


@dataclass(frozen=True)
class DressedBasisInfo:
    """Mixing angle, dressed energies, and the block rotation on the 8-state basis.

    ``E1 + E2 = -delta`` and ``E1 * E2 = -t_e**2`` (roots of
    ``E^2 + delta E - t_e^2 = 0``). Columns 4..7 of `U` are the dressed states
    ``psi1, psi3, psi2, psi4`` in the bare ``S0s, S1s, S0t, S1t`` order.
    """

    theta: float
    e1: float
    e2: float
    U: OperatorMatrix


def dressed_basis(delta: float, t_e: float) -> DressedBasisInfo:
    """Diagonalize the single-exciton s/t block mixed by tunneling.

    ``theta = -arccot(delta / 2 t_e) / 2`` on the (0, pi) branch of arccot,
    ``E1 >= E2`` the two dressed energies.
    """
    if delta == 0.0 and t_e == 0.0:
        raise DegenerateBasisError("dressed basis undefined for delta = t_e = 0")
    if t_e == 0.0:
        theta = 0.0 if delta > 0 else -math.pi / 2
    else:
        theta = -0.5 * (math.pi / 2 - math.atan(delta / (2.0 * t_e)))
    try:
        root = math.sqrt(4.0 * t_e**2 + delta**2)
    except OverflowError:
        raise DomainError(f"dressed energies overflow at delta = {delta}, t_e = {t_e}") from None
    e1 = 0.5 * (-delta + root)
    e2 = 0.5 * (-delta - root)

    basis = effective8()
    u = np.eye(basis.dim, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    for i_s, i_t in ((basis.index("S0s"), basis.index("S0t")),
                     (basis.index("S1s"), basis.index("S1t"))):
        u[i_s, i_s] = c
        u[i_t, i_s] = -s
        u[i_s, i_t] = s
        u[i_t, i_t] = c
    return DressedBasisInfo(theta=theta, e1=e1, e2=e2, U=OperatorMatrix(basis, u))


def build_effective_tunneling_hamiltonian(
    drive: DriveParams, dressed: DressedBasisInfo
) -> OperatorMatrix:
    """Tunneling-dressed effective Hamiltonian on the 8-state basis.

    The pump addresses the exciton-like dressed branch (the one with the
    larger intra-dot component), with its matrix element scaled by that
    component; the laser is taken resonant with this branch, so the other
    branch carries the dressed splitting on the diagonal. The Raman couplings
    are untouched by the dressing. With ``t_e -> 0`` and ``detuning + v_f = 0``
    this reduces to the 6-state Hamiltonian (plus decoupled detuned t levels).
    """
    basis = effective8()
    u = dressed.U.matrix
    i_s0, i_s1 = basis.index("S0s"), basis.index("S1s")
    i_t0, i_t1 = basis.index("S0t"), basis.index("S1t")

    c, s = math.cos(dressed.theta), math.sin(dressed.theta)
    if abs(c) >= abs(s):
        amp = c
        pump0, pump1 = u[:, i_s0].copy(), u[:, i_s1].copy()
        off0, off1 = u[:, i_t0], u[:, i_t1]
        off_energy = dressed.e2 - dressed.e1
    else:
        amp = s
        pump0, pump1 = u[:, i_t0].copy(), u[:, i_t1].copy()
        off0, off1 = u[:, i_s0], u[:, i_s1]
        off_energy = dressed.e1 - dressed.e2
    if amp < 0:
        amp, pump0, pump1 = -amp, -pump0, -pump1

    gap = abs(dressed.e1 - dressed.e2)
    if drive.omega > gap / 5:
        warnings.warn(
            f"pump Rabi frequency {drive.omega} ueV is not small against the "
            f"dressed splitting {gap} ueV; the two-branch reduction degrades",
            stacklevel=2,
        )

    h = (
        math.sqrt(2) * drive.omega_m * ketbra(basis, "00", "S01")
        + math.sqrt(2) * drive.omega_m * ketbra(basis, "S01", "11")
        + drive.omega_m * ketbra(basis, "S0s", "S1s")
        + math.sqrt(2) * drive.omega * amp
        * np.outer(state_vector(basis, "11"), pump1.conj())
        + drive.omega * amp * np.outer(state_vector(basis, "S01"), pump0.conj())
    )
    h = h + h.conj().T
    h += off_energy * (np.outer(off0, off0.conj()) + np.outer(off1, off1.conj()))
    return OperatorMatrix(basis, h)
