import math
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
import scipy.linalg as la
from scipy.integrate import solve_ivp

from qdm.basis import BasisKind, ModelBasis, effective6, state_vector
from qdm.dissipators import (
    _ZERO_OP_TOL,
    OMEGA_CUTOFF,
    CollapseSet,
    _dot_sums,
    _eigen_clusters,
    assemble_liouvillian,
    exchange_eigh,
    phonon_eigenoperators,
    spontaneous_collapse_ops,
)
from qdm import dynamics, scenarios
from qdm.dynamics import NULL_SINGULAR_VALUE_TOL, STEADY_RESIDUAL_TOL, evolve
from qdm.entanglement import _YY, TWO_QUBIT_LABELS, _wootters, qubit_concurrence
from qdm.errors import (
    BasisMismatchError,
    ConvergenceTimeoutError,
    DegenerateSteadyStateError,
    DomainError,
    QdmError,
)
from qdm.hamiltonians import build_effective_hamiltonian, ketbra
from qdm.operators import (
    DensityMatrix,
    OperatorMatrix,
    Superoperator,
    trace_distance_matrices,
)
from qdm.params import HBAR_UEV_NS, CouplingParams, DriveParams
from qdm.physics import bose_occupation, spectral_density
from qdm.scenarios import build_liouvillian, initial_state, scenario_presets

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
    h = build_effective_hamiltonian(drive, CouplingParams())
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


@cache
def dense_frame(dim):
    """The unitary T from vec(rho) to real-frame coordinates, as a dense,
    read-only matrix: the diagonal, then sqrt(2) Re rho_ij, then sqrt(2) Im
    rho_ij, i < j."""
    i, j = np.triu_indices(dim, 1)
    n = len(i)
    t = np.zeros((dim * dim, dim * dim), dtype=complex)
    t[np.arange(dim), np.arange(dim) * (dim + 1)] = 1.0
    for k, (up, lo) in enumerate(zip(i + dim * j, j + dim * i)):
        t[dim + k, [up, lo]] = np.sqrt(0.5)
        t[dim + n + k, [up, lo]] = -1j * np.sqrt(0.5), 1j * np.sqrt(0.5)
    t.setflags(write=False)
    return t


def real_generator(sup):
    """T L T^dag, the whole real generator, as a dense product: the frame
    of the unreduced oracles, built without the package's sectors."""
    frame = dense_frame(sup.dim)
    return (frame @ sup.matrix @ frame.conj().T).real


def to_real(rho):
    """T vec(rho): real-frame coordinates of Hermitian matrices on the last two axes."""
    rho = np.asarray(rho, dtype=complex)
    return (rho.swapaxes(-1, -2).reshape(*rho.shape[:-2], -1) @ dense_frame(rho.shape[-1]).T).real


def from_real(x, dim):
    """T^dag x: real-frame coordinates on the last axis back to complex matrices."""
    return np.ascontiguousarray(unvectorize(x @ dense_frame(dim).conj(), dim))


def exchange_by_hand(basis):
    """The dot swap U on `basis` as a dense matrix, read off the labels: a
    product label ``ab`` goes to ``ba``, ``Sij`` (and ``00``, ``11``) stay
    and ``Aij`` changes sign."""
    u = np.zeros((basis.dim, basis.dim))
    for i, label in enumerate(basis.labels):
        if label.startswith(("S", "A")):
            u[i, i] = 1.0 if label[0] == "S" else -1.0
        else:
            u[basis.index(label[::-1]), i] = 1.0
    return u


def exchange_superoperator(basis):
    """S(rho) = U rho U^dag on column-stacked vec(rho): kron(conj(U), U)."""
    u = exchange_by_hand(basis)
    return np.kron(u.conj(), u)


def full16_config(detuning=400.0):
    """full16 at the fig4a coupling, driven at `detuning` ueV, by default
    near its dressed resonance; 398 ueV is the benchmark's full16 point."""
    fig4a = scenario_presets()["fig4a"]
    return replace(fig4a, name="full16", model="full16", drive=replace(fig4a.drive, detuning=detuning))


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
    time in row-major order, on the eigenvectors of `exchange_eigh`: the
    reference for the stacked `phonon_eigenoperators`."""
    o_sym, o_asym = _dot_sums(H.basis, "s", "s")
    energies, vecs = exchange_eigh(H)
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


def phonon_dissipator_loop(H, temperature, geom, material):
    """The phonon jumps of `H` at `temperature` from one loop over its
    channels, each weighted as its spectral density is taken: the reference
    for `phonon_dissipator`, which builds the channels once for every
    temperature."""
    ops, labels = [], []
    omegas, p_syms, p_asyms = phonon_eigenoperators(H)
    for omega, p_sym, p_asym in zip(omegas.tolist(), p_syms, p_asyms):
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


def effective6_hamiltonian_by_hand(drive):
    """The effective6 Hamiltonian written out coupling by coupling, with the
    trion diagonal at zero (detuning + v_f = 0): the reference for the
    restricted full9 one."""
    basis = effective6()
    h = (
        np.sqrt(2) * drive.omega * ketbra(basis, "11", "S1s")
        + drive.omega * ketbra(basis, "S01", "S0s")
        + drive.omega_m * ketbra(basis, "S0s", "S1s")
        + np.sqrt(2) * drive.omega_m * ketbra(basis, "00", "S01")
        + np.sqrt(2) * drive.omega_m * ketbra(basis, "S01", "11")
    )
    return OperatorMatrix(basis, h + h.conj().T)


def effective_spontaneous_by_hand(gamma0, gamma1, basis):
    """The four radiative jump operators written out on an effective basis:
    the reference for the restricted product-basis ones."""
    l1 = np.sqrt(gamma0) * (
        ketbra(basis, "00", "S0s") + ketbra(basis, "S01", "S1s") / np.sqrt(2)
    )
    l2 = -np.sqrt(gamma0 / 2) * ketbra(basis, "A01", "S1s")
    l3 = np.sqrt(gamma1) * (
        ketbra(basis, "11", "S1s") + ketbra(basis, "S01", "S0s") / np.sqrt(2)
    )
    l4 = np.sqrt(gamma1 / 2) * ketbra(basis, "A01", "S0s")
    return np.array([l1, l2, l3, l4])


def adiabatic_validity_by_labels(sup, rho0, t_grid_ns):
    """Peak summed population of the named eliminated states over a run: the
    reference for `adiabatic_validity`'s 1 - Tr(P^dag rho P)."""
    basis = sup.basis
    labels = {
        BasisKind.FULL9: ["ss", "A0s", "A1s"],
        BasisKind.FULL16: ["ss", "A0s", "A1s"] + [lab for lab in basis.labels if "t" in lab],
        BasisKind.EFFECTIVE8: ["S0t", "S1t"],
    }[basis.kind]
    vectors = np.array([state_vector(basis, lab) for lab in labels])
    traj = evolve(rho0, sup, t_grid_ns)
    pops = np.einsum("ki,nij,kj->n", vectors.conj(), traj.matrices, vectors).real
    return max(0.0, float(pops.max()))


def serial_characteristic_time(L, rho0, epsilon, t_max_ns, steady=None):
    """The step-by-step march, one distance per step, then the bisection on
    half steps squared from one Padé at the finest width, in the real frame
    that `characteristic_time` marches in. Distance is to `steady`, or to
    the steady state of L.

    Returns (t_hi, k_hit), or None when no step comes within epsilon.
    """
    target = (steady if steady is not None else dynamics.steady_state(L)).matrix
    gen = real_generator(L)
    dt = t_max_ns / dynamics._COARSE_STEPS
    step = dynamics._propagator(gen, dt)

    def dist(v):
        return trace_distance_matrices(from_real(v, rho0.dim), target)

    v = to_real(rho0.matrix)
    for k in range(1, dynamics._COARSE_STEPS + 1):
        v_next = step @ v
        if dist(v_next) <= epsilon:
            break
        v = v_next
    else:
        return None

    def resolved(width, t_hi):
        return width <= 0.01 * max(t_hi, dt * 1e-3)

    t_lo, t_hi, width, depth = (k - 1) * dt, k * dt, dt, 0
    while not resolved(dt / 2**depth, t_lo):
        depth += 1
    halves = [dynamics._propagator(gen, dt / 2**depth)] if depth else []
    while len(halves) < depth:
        halves.insert(0, halves[0] @ halves[0])
    for prop in halves:
        if resolved(width, t_hi):
            break
        width /= 2.0
        v_mid = prop @ v
        if dist(v_mid) <= epsilon:
            t_hi = t_lo + width
        else:
            t_lo, v = t_lo + width, v_mid
    return t_hi, k


def steady_state_by_point(L):
    """One generator's steady state, solved alone: full `svd` null count,
    trace-row solve, residual, then the DensityMatrix check."""
    gen = real_generator(L)
    sv = np.linalg.svd(gen, compute_uv=False)
    null_count = int(np.sum(sv < NULL_SINGULAR_VALUE_TOL))
    if null_count != 1:
        raise DegenerateSteadyStateError(
            f"{null_count} null singular values below {NULL_SINGULAR_VALUE_TOL} "
            f"(smallest: {np.array2string(sv[::-1][:3], precision=3)})"
        )
    dim = L.dim
    a = gen.copy()
    a[0] = np.arange(dim * dim) < dim
    x = np.linalg.solve(a, np.eye(dim * dim, 1)[:, 0])
    residual = np.linalg.norm(gen @ x)
    if residual > STEADY_RESIDUAL_TOL:
        raise DegenerateSteadyStateError(f"steady-state residual {residual:.2e}")
    return DensityMatrix(L.basis, from_real(x, dim))


def sweep_rows_by_point(points, configs):
    """Sweep rows from a loop over the points, each solved alone and without
    the exchange split: build, initial state, steady state of the whole real
    generator, T0 by the serial march in t_max / 256 steps, concurrence. The
    unreduced reference for the pipeline, whose rows must agree with these
    to the T0 search's 2 % and to 1e-12 in concurrence and leak."""
    rows = []
    for point, config in zip(points, configs):
        try:
            liouv = build_liouvillian(config)
            rho0 = initial_state(config, liouv.basis)
            steady = steady_state_by_point(liouv)
            epsilon, t_max = config.epsilon_T0, scenarios._t0_ceiling_ns(config)
            if not (math.isfinite(t_max) and t_max > 0.0):
                raise DomainError(f"t_max_ns must be positive and finite, got {t_max}")
            if trace_distance_matrices(rho0.matrix, steady.matrix) <= epsilon:
                t0 = 0.0
            else:
                hit = serial_characteristic_time(liouv, rho0, epsilon, t_max, steady)
                if hit is None:
                    raise ConvergenceTimeoutError(
                        f"state not within {epsilon} of the steady state by {t_max:.4g} ns"
                    )
                t0 = hit[0]
            c_ss, leak_ss = qubit_concurrence(steady)
        except QdmError as exc:
            rows.append((*point, math.nan, math.nan, math.nan, str(exc)))
        else:
            rows.append((*point, c_ss, t0, leak_ss, ""))
    return tuple(rows)
