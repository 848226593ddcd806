from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import solve_ivp

from qdm.basis import BasisKind, ModelBasis, effective6
from qdm.dissipators import (
    _ZERO_OP_TOL,
    OMEGA_CUTOFF,
    _eigen_clusters,
    _occupation_operators,
    assemble_liouvillian,
    spontaneous_collapse_ops,
)
from qdm.entanglement import _YY, TWO_QUBIT_LABELS, _wootters
from qdm.errors import BasisMismatchError
from qdm.hamiltonians import build_effective_hamiltonian
from qdm.operators import DensityMatrix, Superoperator, trace_distance_matrices
from qdm.params import HBAR_UEV_NS, DriveParams
from qdm.scenarios import scenario_presets

#: The bare two-qubit basis, on which `concurrence` reads a state.
TWO_QUBIT_BASIS = ModelBasis(BasisKind.EFFECTIVE6, TWO_QUBIT_LABELS)


@pytest.fixture
def drive():
    return DriveParams()


@pytest.fixture
def basis6():
    return effective6()


@pytest.fixture
def liouv6(drive, basis6):
    """Spontaneous-only generator of the paper-default protocol."""
    h = build_effective_hamiltonian(drive)
    collapse = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, basis6)
    return assemble_liouvillian(h, collapse)


@pytest.fixture
def paper_mixture(basis6):
    rho = np.zeros((6, 6), dtype=complex)
    for i in range(4):
        rho[i, i] = 0.25
    return DensityMatrix(basis6, rho)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance-criterion verdict lines after the run."""
    import sys

    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if verdicts:
        terminalreporter.section("acceptance criteria")
        for line in verdicts:
            terminalreporter.write_line(line)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / rho.trace()


def vectorize(rho):
    """vec(rho), the column stacking of the `operators` convention."""
    return np.asarray(rho, dtype=complex).flatten(order="F")


def unvectorize(v, dim):
    """Inverse of `vectorize` on the last axis, broadcast over leading ones
    (a transposed view of `v` wherever its layout allows)."""
    v = np.asarray(v, dtype=complex)
    return v.reshape(*v.shape[:-1], dim, dim).swapaxes(-1, -2)


def trace_preservation_defect(sup):
    """Max entry of the adjoint of `sup` applied to the identity (0 for a generator)."""
    ident = np.eye(sup.dim, dtype=complex).flatten(order="F")
    return float(np.abs(sup.matrix.conj().T @ ident).max())


def dense_frame(dim):
    """The unitary T from vec(rho) to real-frame coordinates, as a dense matrix:
    the diagonal, then sqrt(2) Re rho_ij, then sqrt(2) Im rho_ij, i < j."""
    i, j = np.triu_indices(dim, 1)
    n = len(i)
    t = np.zeros((dim * dim, dim * dim), dtype=complex)
    t[np.arange(dim), np.arange(dim) * (dim + 1)] = 1.0
    for k, (up, lo) in enumerate(zip(i + dim * j, j + dim * i)):
        t[dim + k, [up, lo]] = np.sqrt(0.5)
        t[dim + n + k, [up, lo]] = -1j * np.sqrt(0.5), 1j * np.sqrt(0.5)
    return t


def full16_config():
    """full16 at the fig4a coupling, driven at its dressed resonance (400 ueV)."""
    fig4a = scenario_presets()["fig4a"]
    return replace(fig4a, name="full16", model="full16", drive=replace(fig4a.drive, detuning=400.0))


def dop853_reference(sup, rho0, t_ns):
    """rho(t_ns) from an adaptive DOP853 integration of the generator.

    An oracle independent of the package's exact propagation layer; meant for
    non-stiff generators such as effective6's.
    """
    sol = solve_ivp(
        lambda _t, y: sup.matrix @ y,
        (0.0, t_ns / HBAR_UEV_NS),
        vectorize(rho0.matrix),
        method="DOP853",
        rtol=1e-8,
        atol=1e-12,
    )
    assert sol.success, sol.message
    return unvectorize(sol.y[:, -1], rho0.dim)


def concurrence(rho2):
    """Wootters concurrence of a state on TWO_QUBIT_BASIS."""
    return float(_wootters(rho2.matrix[None])[0])


def wootters_svd(blocks):
    """Wootters concurrence of each state of an (n, 4, 4) stack from the
    singular values of sqrt(rho) (sy x sy) sqrt(rho)*, with the Hermitian
    square root from `eigh`: the reference for the embedding in `_wootters`."""
    w, v = np.linalg.eigh(blocks)
    root = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ v.conj().swapaxes(-1, -2)
    lam = np.linalg.svd(root @ _YY @ root.conj(), compute_uv=False)
    return np.minimum(1.0, np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3]))


def phonon_eigenoperators_loop(H):
    """(omega, p_sym, p_asym) per phonon channel of `H`, one cluster pair at a
    time in row-major order: the reference for the stacked `phonon_eigenoperators`."""
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


def liouvillian_kron(H, collapse):
    """The generator of `assemble_liouvillian`, with its coherent part from two
    Kronecker products: the reference for the direct assembly."""
    d = H.dim
    flat = collapse.ops.reshape(-1, d * d)
    jumps = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    h_eff = H.matrix - 0.5j * collapse.total_decay()
    ident = np.eye(d)
    return jumps - 1j * (np.kron(ident, h_eff) - np.kron(h_eff.conj(), ident))


def lindblad_term(L):
    """Dissipator ``rho -> L rho L^dag - (1/2){L^dag L, rho}`` as a superoperator,
    one Kronecker product per term: the reference for the stacked assembly."""
    Lm = L.matrix
    LdL = Lm.conj().T @ Lm
    ident = np.eye(L.dim)
    sup = (
        np.kron(Lm.conj(), Lm)
        - 0.5 * np.kron(ident, LdL)
        - 0.5 * np.kron(LdL.T, ident)
    )
    return Superoperator(L.basis, sup)


def trace_distance(rho1, rho2):
    """Half the trace norm of the difference of two states on one basis."""
    if rho1.basis.labels != rho2.basis.labels:
        raise BasisMismatchError("trace_distance requires a common basis")
    return trace_distance_matrices(rho1.matrix, rho2.matrix)


def apply(sup, rho):
    """The action of a superoperator on a d x d matrix."""
    d = sup.dim
    return (sup.matrix @ rho.flatten(order="F")).reshape(d, d, order="F")


def propagator_expm(sup, t_ns):
    """exp(L t) as a superoperator, `t_ns` in ns, from scipy's `expm`: an oracle
    independent of the package's Padé propagator."""
    return Superoperator(sup.basis, la.expm(sup.matrix * (t_ns / HBAR_UEV_NS)))
