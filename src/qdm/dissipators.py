"""Collapse operators and Liouvillian assembly.

Spontaneous emission enters through four fixed jump operators on the
effective bases; on the product bases the same processes are expressed as
per-dot decay in symmetric / antisymmetric combinations, which restrict to
those four operators on the single-trion sector. Phonons enter as secular
eigenoperator channels of the coherent Hamiltonian, weighted by the two
parity-resolved spectral densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, ModelBasis
from .errors import BasisMismatchError
from .hamiltonians import dot_operator_pair, ketbra
from .operators import OperatorMatrix, Superoperator
from .params import DotGeometry, MaterialParams
from .physics import bose_occupation, spectral_density

#: Phonon channels below this Bohr frequency (ueV) are dropped.
OMEGA_CUTOFF = 1e-3
#: Eigenvalues closer than this (ueV) are treated as one degenerate cluster.
DEGENERACY_TOL = 1e-6

_ZERO_OP_TOL = 1e-14


@dataclass(frozen=True)
class CollapseSet:
    """Jump operators (units sqrt(ueV)) on `basis` as one read-only ``(n, d, d)``
    stack, a copy of `ops`, with one provenance label each; ``()`` is the empty set."""

    basis: ModelBasis
    ops: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        d = self.basis.dim
        ops = np.array(self.ops, dtype=complex)
        if ops.shape == (0,):
            ops = ops.reshape(0, d, d)
        if ops.shape != (len(self.labels), d, d):
            raise BasisMismatchError(
                f"collapse operators must be {(len(self.labels), d, d)}, got {ops.shape}"
            )
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)

    def __len__(self) -> int:
        return len(self.ops)

    def merged(self, other: "CollapseSet") -> "CollapseSet":
        if other.basis.labels != self.basis.labels:
            raise BasisMismatchError("collapse operators must share one basis")
        ops = np.concatenate([self.ops, other.ops])
        return CollapseSet(self.basis, ops, self.labels + other.labels)

    def total_decay(self) -> np.ndarray:
        """Sum of L^dag L, the anticommutator part of the dissipator."""
        return (self.ops.conj().transpose(0, 2, 1) @ self.ops).sum(axis=0)


def _effective_spontaneous(gamma0: float, gamma1: float, basis: ModelBasis) -> CollapseSet:
    l1 = math.sqrt(gamma0) * (
        ketbra(basis, "00", "S0s") + ketbra(basis, "S01", "S1s") / math.sqrt(2)
    )
    l2 = -math.sqrt(gamma0 / 2) * ketbra(basis, "A01", "S1s")
    l3 = math.sqrt(gamma1) * (
        ketbra(basis, "11", "S1s") + ketbra(basis, "S01", "S0s") / math.sqrt(2)
    )
    l4 = math.sqrt(gamma1 / 2) * ketbra(basis, "A01", "S0s")
    return CollapseSet(basis, (l1, l2, l3, l4), ("L1", "L2", "L3", "L4"))


def _full_spontaneous(gamma0: float, gamma1: float, basis: ModelBasis) -> CollapseSet:
    d01, d02 = dot_operator_pair(basis.kind, "0", "s")
    d11, d12 = dot_operator_pair(basis.kind, "1", "s")
    mats = (
        math.sqrt(gamma0) * (d01 + d02) / math.sqrt(2),
        math.sqrt(gamma0) * (d01 - d02) / math.sqrt(2),
        math.sqrt(gamma1) * (d11 + d12) / math.sqrt(2),
        math.sqrt(gamma1) * (d11 - d12) / math.sqrt(2),
    )
    return CollapseSet(basis, mats, ("L1", "L2", "L3", "L4"))


def spontaneous_collapse_ops(gamma0: float, gamma1: float, basis: ModelBasis) -> CollapseSet:
    """The four radiative jump operators of the protocol on `basis`.

    L1 and L3 feed the symmetric ground manifold, L2 and L4 feed the target
    state's sector with opposite sign; none of the four has support on
    ``|A01>``, which is what pins the dark state.
    """
    if gamma0 < 0 or gamma1 < 0:
        raise ValueError("decay rates must be nonnegative")
    if basis.kind in (BasisKind.EFFECTIVE6, BasisKind.EFFECTIVE8):
        return _effective_spontaneous(gamma0, gamma1, basis)
    if basis.kind in (BasisKind.FULL9, BasisKind.FULL16):
        return _full_spontaneous(gamma0, gamma1, basis)
    raise BasisMismatchError(f"no spontaneous collapse set on basis {basis.kind.value}")


def _occupation_operators(basis: ModelBasis) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric intra-dot trion occupation on `basis`."""
    if basis.kind in (BasisKind.FULL9, BasisKind.FULL16):
        n1, n2 = dot_operator_pair(basis.kind, "s", "s")
        return n1 + n2, n1 - n2
    if basis.kind in (BasisKind.EFFECTIVE6, BasisKind.EFFECTIVE8):
        o_sym = np.zeros((basis.dim, basis.dim), dtype=complex)
        for lab in ("S0s", "S1s"):
            i = basis.index(lab)
            o_sym[i, i] = 1.0
        # the antisymmetric single-trion states are adiabatically eliminated,
        # so the antisymmetric occupation has no support on these bases
        return o_sym, np.zeros_like(o_sym)
    raise BasisMismatchError(f"no occupation operators on basis {basis.kind.value}")


def _eigen_clusters(energies: np.ndarray) -> list[np.ndarray]:
    order = np.argsort(energies)
    clusters: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if energies[idx] - energies[clusters[-1][0]] <= DEGENERACY_TOL:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return [np.array(c) for c in clusters]


def phonon_eigenoperators(H: OperatorMatrix) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """Secular eigenoperator channels of `H` through the trion occupations.

    For every pair of eigenvalue clusters (a, b) with Bohr frequency
    ``omega = E_b - E_a`` above the cutoff, returns the downward operators
    ``P = Pi_a O Pi_b`` for the symmetric and antisymmetric occupation
    couplings. Channels where both projections vanish are dropped.
    """
    if not H.is_hermitian(tol=1e-9):
        raise BasisMismatchError("phonon channels require a Hermitian Hamiltonian")
    o_sym, o_asym = _occupation_operators(H.basis)
    energies, vecs = np.linalg.eigh(H.matrix)
    clusters = _eigen_clusters(energies)
    projectors = [vecs[:, c] @ vecs[:, c].conj().T for c in clusters]
    mean_e = [float(energies[c].mean()) for c in clusters]

    channels = []
    for ia, pa in enumerate(projectors):
        for ib, pb in enumerate(projectors):
            omega = mean_e[ib] - mean_e[ia]
            if omega <= OMEGA_CUTOFF:
                continue
            p_sym = pa @ o_sym @ pb
            p_asym = pa @ o_asym @ pb
            if max(np.abs(p_sym).max(), np.abs(p_asym).max()) < _ZERO_OP_TOL:
                continue
            channels.append((omega, p_sym, p_asym))
    return channels


def phonon_dissipator(
    H: OperatorMatrix,
    temperature: float,
    geom: DotGeometry,
    material: MaterialParams,
) -> CollapseSet:
    """Phonon jump operators at `temperature` (K) for the eigenchannels of `H`.

    Each channel contributes a downward operator with rate J(omega)(N + 1)
    and, at T > 0, an upward operator with rate J(omega) N; the symmetric
    coupling uses the in-phase spectral density, the antisymmetric one the
    out-of-phase density.
    """
    if temperature < 0:
        raise ValueError("temperature must be nonnegative")
    ops: list[np.ndarray] = []
    labels: list[str] = []
    for omega, p_sym, p_asym in phonon_eigenoperators(H):
        occ = bose_occupation(omega, temperature) if temperature > 0 else 0.0
        for parity, p in (("plus", p_sym), ("minus", p_asym)):
            if np.abs(p).max() < _ZERO_OP_TOL:
                continue
            j = spectral_density(omega, parity, geom, material)
            if j <= 0.0:
                continue
            sign = "+" if parity == "plus" else "-"
            ops.append(math.sqrt(j * (occ + 1.0)) * p)
            labels.append(f"phonon({omega:.6g},{sign},down)")
            if occ > 0.0:
                ops.append(math.sqrt(j * occ) * p.conj().T)
                labels.append(f"phonon({omega:.6g},{sign},up)")
    return CollapseSet(H.basis, ops, tuple(labels))


def assemble_liouvillian(H: OperatorMatrix, collapse: CollapseSet) -> Superoperator:
    """Lindblad generator in the column-stacking convention.

    ``L = sum_k conj(L_k) (x) L_k - i (I (x) H_eff - conj(H_eff) (x) I)`` on
    vec(rho), with ``H_eff = H - (i/2) sum_k L_k^dag L_k``. The jump sum is one
    ``(d^2, n) @ (n, d^2)`` product of the flattened operators, reordered from
    ``[(i, k), (j, l)]`` to Kronecker order ``[(i, j), (k, l)]``.
    """
    if collapse.basis.labels != H.basis.labels:
        raise BasisMismatchError("collapse operators must share the Hamiltonian basis")
    d = H.dim
    flat = collapse.ops.reshape(-1, d * d)
    jumps = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    h_eff = H.matrix - 0.5j * collapse.total_decay()
    ident = np.eye(d)
    sup = jumps - 1j * (np.kron(ident, h_eff) - np.kron(h_eff.conj(), ident))
    return Superoperator(H.basis, sup)
