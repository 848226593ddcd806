"""Collapse operators and Liouvillian assembly.

Spontaneous emission enters as per-dot trion decay in symmetric /
antisymmetric combinations, defined on the product bases; on an effective
basis each operator is the restriction of its product-basis form, and so is
each trion occupation the phonons couple to. Phonons enter as secular
eigenoperator channels of the coherent Hamiltonian, weighted by the two
parity-resolved spectral densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, ModelBasis, embedding, exchange_basis, restrict
from .errors import BasisMismatchError, DomainError
from .hamiltonians import dot_operator_pair
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


def _dot_sums(basis: ModelBasis, a: str, b: str) -> tuple[np.ndarray, np.ndarray]:
    """``|a><b|`` on dot 1 plus and minus the same on dot 2, on `basis`; on an
    effective basis, restricted from its product basis."""
    product = basis.kind in (BasisKind.FULL9, BasisKind.FULL16)
    on1, on2 = dot_operator_pair(basis.kind if product else embedding(basis)[0].kind, a, b)
    ops = np.array([on1 + on2, on1 - on2])
    return tuple(ops if product else restrict(basis, ops))


def spontaneous_collapse_ops(gamma0: float, gamma1: float, basis: ModelBasis) -> CollapseSet:
    """The four radiative jump operators of the protocol on `basis`.

    Per-dot trion decay into ``|0>`` (L1, L2) and ``|1>`` (L3, L4), in the
    symmetric and antisymmetric combination of the two dots. L1 and L3 feed
    the symmetric ground manifold, L2 and L4 feed the target state's sector
    with opposite sign; none of the four has support on ``|A01>``, which is
    what pins the dark state.
    """
    if not (0.0 <= gamma0 < math.inf and 0.0 <= gamma1 < math.inf):
        raise DomainError(f"decay rates must be finite and nonnegative, got {gamma0}, {gamma1}")
    sym0, asym0 = _dot_sums(basis, "0", "s")
    sym1, asym1 = _dot_sums(basis, "1", "s")
    mats = (
        math.sqrt(gamma0) * sym0 / math.sqrt(2),
        math.sqrt(gamma0) * asym0 / math.sqrt(2),
        math.sqrt(gamma1) * sym1 / math.sqrt(2),
        math.sqrt(gamma1) * asym1 / math.sqrt(2),
    )
    return CollapseSet(basis, mats, ("L1", "L2", "L3", "L4"))


def _eigen_clusters(energies: np.ndarray) -> list[np.ndarray]:
    order = np.argsort(energies)
    clusters: list[list[int]] = [[int(order[0])]]
    for idx in order[1:]:
        if energies[idx] - energies[clusters[-1][0]] <= DEGENERACY_TOL:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    return [np.array(c) for c in clusters]


def exchange_eigh(H: OperatorMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of `H`, from one `eigh` in each
    exchange-parity block (`exchange_basis`): the even ones first, then
    the odd ones. Each eigenvector has a definite parity, which one `eigh` of
    H does not give near-degenerate pairs of opposite parity."""
    v, n_even = exchange_basis(H.basis)
    energies, vecs = [], []
    for part in (v[:, :n_even], v[:, n_even:]):
        e, w = np.linalg.eigh(part.T @ H.matrix @ part)
        energies.append(e)
        vecs.append(part @ w)
    return np.concatenate(energies), np.concatenate(vecs, axis=1)


def phonon_eigenoperators(H: OperatorMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Secular eigenoperator channels of `H` through the trion occupations.

    The eigenvectors come from `exchange_eigh`, so each projector commutes
    with the dot swap: the symmetric occupation couples clusters of one
    parity, the antisymmetric one clusters of opposite parity, and no channel
    is made of rounding noise between them. For every pair of eigenvalue clusters (a, b) with Bohr frequency
    ``omega = E_b - E_a`` above the cutoff, in row-major (a, b) order, the
    downward operators ``P = Pi_a O Pi_b`` for the symmetric and
    antisymmetric occupation couplings. Channels where both projections
    vanish are dropped. Returns the stacks `omega` (k,), `p_sym` and
    `p_asym` (k, d, d).
    """
    if not H.is_hermitian(tol=1e-9):
        raise BasisMismatchError("phonon channels require a Hermitian Hamiltonian")
    o_sym, o_asym = _dot_sums(H.basis, "s", "s")  # the trion occupations
    energies, vecs = exchange_eigh(H)
    clusters = _eigen_clusters(energies)
    projectors = np.array([vecs[:, c] @ vecs[:, c].conj().T for c in clusters])
    mean_e = np.array([energies[c].mean() for c in clusters])

    omega = mean_e[None, :] - mean_e[:, None]
    ia, ib = np.nonzero(omega > OMEGA_CUTOFF)
    p_sym = projectors[ia] @ o_sym @ projectors[ib]
    p_asym = projectors[ia] @ o_asym @ projectors[ib]
    size = np.maximum(np.abs(p_sym).max(axis=(1, 2), initial=0.0),
                      np.abs(p_asym).max(axis=(1, 2), initial=0.0))
    keep = size >= _ZERO_OP_TOL
    return omega[ia, ib][keep], p_sym[keep], p_asym[keep]


def phonon_channels(H: OperatorMatrix, geom: DotGeometry, material: MaterialParams) -> list[tuple]:
    """The temperature-independent half of `phonon_dissipator`: per
    eigenchannel of `H` and coupling parity with a nonzero operator and
    J(omega) > 0, in that order, (omega, J(omega), downward operator, down
    label, up label)."""
    channels = []
    omegas, p_syms, p_asyms = phonon_eigenoperators(H)
    for omega, p_sym, p_asym in zip(omegas.tolist(), p_syms, p_asyms):
        for parity, sign, p in (("plus", "+", p_sym), ("minus", "-", p_asym)):
            if np.abs(p).max() < _ZERO_OP_TOL:
                continue
            j = spectral_density(omega, parity, geom, material)
            if j > 0.0:
                label = f"phonon({omega:.6g},{sign},"
                channels.append((omega, j, p, label + "down)", label + "up)"))
    return channels


def _thermal_jumps(basis: ModelBasis, channels: list, temperature: float) -> CollapseSet:
    """The jump operators of `phonon_channels` at a checked `temperature` (K)."""
    ops, labels = [], []
    for omega, j, p, down, up in channels:
        occ = bose_occupation(omega, temperature) if temperature > 0 else 0.0
        ops.append(math.sqrt(j * (occ + 1.0)) * p)
        labels.append(down)
        if occ > 0.0:
            ops.append(math.sqrt(j * occ) * p.conj().T)
            labels.append(up)
    return CollapseSet(basis, ops, tuple(labels))


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
    if not 0.0 <= temperature < math.inf:
        raise DomainError(f"temperature must be finite and nonnegative, got {temperature}")
    return _thermal_jumps(H.basis, phonon_channels(H, geom, material), temperature)


def assemble_liouvillian(H: OperatorMatrix, collapse: CollapseSet) -> Superoperator:
    """Lindblad generator in the column-stacking convention.

    ``L = sum_k conj(L_k) (x) L_k - i (I (x) H_eff - conj(H_eff) (x) I)`` on
    vec(rho), with ``H_eff = H - (i/2) sum_k L_k^dag L_k``. The jump sum is one
    ``(d^2, n) @ (n, d^2)`` product of the flattened operators, reordered from
    ``[(i, k), (j, l)]`` to Kronecker order ``[(i, j), (k, l)]``; the two
    Kronecker products with the identity are written into that order directly,
    ``H_eff[j, l]`` at ``[(i, j), (i, l)]`` and ``conj(H_eff)[i, k]`` at
    ``[(i, j), (k, j)]``.
    """
    if collapse.basis.labels != H.basis.labels:
        raise BasisMismatchError("collapse operators must share the Hamiltonian basis")
    d = H.dim
    flat = collapse.ops.reshape(-1, d * d)
    jumps = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    h_eff = H.matrix - 0.5j * collapse.total_decay()
    diag = np.arange(d)
    coherent = np.zeros((d, d, d, d), dtype=complex)
    coherent[diag, :, diag, :] = h_eff
    coherent[:, diag, :, diag] -= h_eff.conj()
    sup = jumps - 1j * coherent.reshape(d * d, d * d)
    return Superoperator(H.basis, sup)
