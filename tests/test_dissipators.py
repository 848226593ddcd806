import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la

from conftest import (
    apply,
    effective_spontaneous_by_hand,
    exchange_by_hand,
    full16_config,
    lindblad_term,
    liouvillian_kron,
    phonon_dissipator_loop,
    phonon_eigenoperators_loop,
    random_density,
    trace_preservation_defect,
    vectorize,
)
from qdm import scenarios
from qdm.basis import BasisKind, effective6, effective8, state_vector
from qdm.dissipators import (
    CollapseSet,
    _thermal_jumps,
    assemble_liouvillian,
    exchange_eigh,
    phonon_channels,
    phonon_dissipator,
    phonon_eigenoperators,
    spontaneous_collapse_ops,
)
from qdm.errors import BasisMismatchError, DomainError
from qdm.hamiltonians import (
    build_effective_hamiltonian,
    build_effective_tunneling_hamiltonian,
    build_full_hamiltonian,
    dressed_basis,
)
from qdm.operators import OperatorMatrix
from qdm.params import CouplingParams, DotGeometry, DriveParams, K_B_UEV_PER_K, MaterialParams


def test_zero_rates_give_zero_operators(basis6):
    cs = spontaneous_collapse_ops(0.0, 0.0, basis6)
    assert len(cs) == 4
    for op in cs.ops:
        assert np.abs(op).max() == 0.0


def test_no_operator_touches_the_singlet(basis6):
    cs = spontaneous_collapse_ops(1.2, 1.2, basis6)
    a01 = state_vector(basis6, "A01")
    for op in cs.ops:
        assert np.abs(op @ a01).max() < 1e-14


def test_total_decay_rate_from_s1s(basis6):
    g0, g1 = 1.2, 0.7
    cs = spontaneous_collapse_ops(g0, g1, basis6)
    i = basis6.index("S1s")
    rate = cs.total_decay()[i, i].real
    assert abs(rate - (g0 + g1)) < 1e-12


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_layers_reject_negative_and_non_finite_arguments(drive, basis6, bad):
    # NaN read as T = 0, +inf divided by zero, and -1 raised a bare ValueError
    h = build_effective_hamiltonian(drive, CouplingParams())
    with pytest.raises(DomainError, match="temperature"):
        phonon_dissipator(h, bad, DotGeometry(), MaterialParams())
    for rates in ((bad, 1.2), (1.2, bad)):
        with pytest.raises(DomainError, match="decay rates"):
            spontaneous_collapse_ops(*rates, basis6)


def test_full9_embedding_restricts_to_effective_operators():
    """The restricted product-basis jump operators are the hand-written ones."""
    for basis in (effective6(), effective8()):
        for rates in ((1.2, 0.8), (1.2, 1.2), (0.0, 1.0)):
            cs = spontaneous_collapse_ops(*rates, basis)
            want = effective_spontaneous_by_hand(*rates, basis)
            assert np.abs(cs.ops - want).max() < 1e-14, (basis.kind, rates)


def test_collapse_set_label_mismatch(basis6):
    # one (6, 6) operator per label: a wrong count or a wrong shape both fail
    for shape in [(1, 6, 6), (2, 5, 5), (6, 6)]:
        with pytest.raises(BasisMismatchError):
            CollapseSet(basis6, np.zeros(shape), ("a", "b"))


def test_eigenoperators_empty_for_zero_hamiltonian(basis6):
    h = OperatorMatrix(basis6, np.zeros((6, 6)))
    omega, p_sym, p_asym = phonon_eigenoperators(h)
    assert omega.shape == (0,) and p_sym.shape == p_asym.shape == (0, 6, 6)


def test_eigenoperator_frequencies_bounded_by_drive(drive):
    h = build_effective_hamiltonian(drive, CouplingParams())
    omega, _ps, _pa = phonon_eigenoperators(h)
    assert omega.size
    bound = 4 * max(drive.omega, drive.omega_m)
    assert (omega > 0).all() and (omega <= bound).all()


def test_antisymmetric_coupling_absent_on_effective6(drive):
    h = build_effective_hamiltonian(drive, CouplingParams())
    _omega, ps, pa = phonon_eigenoperators(h)
    assert len(ps) and np.abs(pa).max() < 1e-14


def test_phonon_dissipator_zero_temperature_downward_only(drive):
    h = build_effective_hamiltonian(drive, CouplingParams())
    cs = phonon_dissipator(h, 0.0, DotGeometry(), MaterialParams())
    assert len(cs) > 0
    assert all(lab.endswith("down)") for lab in cs.labels)


def test_phonon_detailed_balance(drive):
    h = build_effective_hamiltonian(drive, CouplingParams())
    temp = 2.0
    cs = phonon_dissipator(h, temp, DotGeometry(), MaterialParams())
    # each upward operator directly follows its downward partner
    pairs = [
        (cs.labels[i], cs.ops[i - 1], cs.ops[i])
        for i, lab in enumerate(cs.labels)
        if ",up)" in lab
    ]
    assert pairs
    for lab, down, up in pairs:
        # the label carries omega to 6 significant digits
        omega = float(lab.split("(")[1].split(",")[0])
        ratio = (np.abs(up).max() / np.abs(down).max()) ** 2
        assert abs(ratio - math.exp(-omega / (K_B_UEV_PER_K * temp))) < 1e-6


def test_phonon_dissipator_weights_channels_built_once_as_one_loop_does(drive):
    """Bitwise ops and labels at 0, 0.5 and 4 K: `phonon_dissipator`, and one
    `phonon_channels` weighted at each temperature, against the one-loop form."""
    fig4a = scenarios.scenario_presets()["fig4a"]
    coupling = fig4a.coupling
    full16_drive = replace(fig4a.drive, detuning=398.0)
    hamiltonians = (
        build_effective_hamiltonian(drive, CouplingParams()),
        build_effective_tunneling_hamiltonian(fig4a.drive, dressed_basis(coupling.delta, coupling.t_e)),
        build_full_hamiltonian(full16_drive, coupling, BasisKind.FULL16),
    )
    geom, mat = DotGeometry(), MaterialParams()
    for h in hamiltonians:
        channels = phonon_channels(h, geom, mat)
        for temp in (0.0, 0.5, 4.0):
            want = phonon_dissipator_loop(h, temp, geom, mat)
            assert len(want) > 0
            for cs in (_thermal_jumps(h.basis, channels, temp), phonon_dissipator(h, temp, geom, mat)):
                assert cs.labels == want.labels
                assert cs.ops.shape == want.ops.shape and cs.ops.tobytes() == want.ops.tobytes()


def test_phonon_rates_grow_with_temperature(drive):
    h = build_effective_hamiltonian(drive, CouplingParams())
    geom, mat = DotGeometry(), MaterialParams()
    cold = phonon_dissipator(h, 0.0, geom, mat)
    warm = phonon_dissipator(h, 4.0, geom, mat)
    cold_tot = np.trace(cold.total_decay()).real
    warm_tot = np.trace(warm.total_decay()).real
    assert warm_tot > cold_tot


def test_liouvillian_zero_inputs(basis6):
    h = OperatorMatrix(basis6, np.zeros((6, 6)))
    sup = assemble_liouvillian(h, CollapseSet(basis6, (), ()))
    assert np.abs(sup.matrix).max() == 0.0


def test_empty_collapse_set(drive, basis6):
    empty = CollapseSet(basis6, (), ())
    assert np.array_equal(empty.total_decay(), np.zeros((6, 6)))
    assert empty.ops.shape == (0, 6, 6)
    h = build_effective_hamiltonian(drive, CouplingParams())
    sup = assemble_liouvillian(h, empty)
    ident = np.eye(6)
    coherent = -1j * (np.kron(ident, h.matrix) - np.kron(h.matrix.T, ident))
    assert np.abs(sup.matrix - coherent).max() < 1e-14


@pytest.mark.parametrize("case", ["fig4a_2K", "full16"])
def test_stacked_assembly_matches_per_operator_sum(case, monkeypatch):
    config, n_ops = {
        "fig4a_2K": (replace(scenarios.scenario_presets()["fig4a"], temperature=2.0), 44),
        "full16": (full16_config(), 244),
    }[case]
    parts = []

    def capture(h, collapse):
        parts.append((h, collapse))
        return assemble_liouvillian(h, collapse)

    monkeypatch.setattr(scenarios, "assemble_liouvillian", capture)
    sup = scenarios.build_liouvillian(config)
    (h, collapse), = parts
    assert len(collapse) == n_ops
    ident = np.eye(h.dim)
    oracle = -1j * (np.kron(ident, h.matrix) - np.kron(h.matrix.T, ident))
    for op in collapse.ops:
        oracle = oracle + lindblad_term(OperatorMatrix(h.basis, op)).matrix
    scale = np.abs(oracle).max()
    assert np.abs(sup.matrix - oracle).max() <= 1e-12 * scale


def test_stacked_channels_and_direct_assembly_equal_their_loop_and_kron_forms(monkeypatch):
    """Bitwise, on the presets, the full16 point and the fig4b points with t_e > 0."""
    parts = []

    def capture(h, collapse):
        parts.append((h, collapse, assemble_liouvillian(h, collapse)))
        return parts[-1][2]

    monkeypatch.setattr(scenarios, "assemble_liouvillian", capture)
    presets = scenarios.scenario_presets()
    for config in (presets["fig3a"], presets["fig3a_full9"], presets["fig4a"], full16_config()):
        scenarios.build_liouvillian(config)
    scenarios.sweep_temperature(presets["fig4b"], [0.0, 0.5, 1.0, 2.0, 4.0], [1000.0, 2000.0, 3000.0])
    assert len(parts) == 19
    for h, collapse, sup in parts:
        np.testing.assert_array_equal(sup.matrix, liouvillian_kron(h, collapse))
        omega, p_sym, p_asym = phonon_eigenoperators(h)
        loop = phonon_eigenoperators_loop(h)
        assert len(omega) == len(loop) > 0
        for k, (w, ps, pa) in enumerate(loop):
            assert omega[k] == w
            np.testing.assert_array_equal(p_sym[k], ps)
            np.testing.assert_array_equal(p_asym[k], pa)


def test_liouvillian_matches_direct_master_equation(liouv6, drive, basis6):
    h = build_effective_hamiltonian(drive, CouplingParams())
    cs = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, basis6)
    for seed in range(5):
        rho = random_density(6, 200 + seed)
        direct = -1j * (h.matrix @ rho - rho @ h.matrix)
        for lm in cs.ops:
            direct += lm @ rho @ lm.conj().T - 0.5 * (
                lm.conj().T @ lm @ rho + rho @ lm.conj().T @ lm
            )
        np.testing.assert_allclose(apply(liouv6, rho), direct, atol=1e-12)


def test_liouvillian_spectrum_is_dissipative(liouv6):
    ev = la.eigvals(liouv6.matrix)
    assert ev.real.max() <= 1e-10


def test_liouvillian_trace_preserving_and_unique_null(liouv6):
    assert trace_preservation_defect(liouv6) < 1e-10
    ev = la.eigvals(liouv6.matrix)
    assert int(np.sum(np.abs(ev) < 1e-9)) == 1


def test_dark_state_is_exactly_stationary(liouv6, basis6):
    a01 = state_vector(basis6, "A01")
    rho = np.outer(a01, a01.conj())
    assert np.abs(liouv6.matrix @ vectorize(rho)).max() < 1e-14


def test_dark_state_survives_phonons(drive, basis6):
    h = build_effective_hamiltonian(drive, CouplingParams())
    cs = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, basis6)
    cs = cs.merged(phonon_dissipator(h, 4.0, DotGeometry(), MaterialParams()))
    sup = assemble_liouvillian(h, cs)
    a01 = state_vector(basis6, "A01")
    rho = np.outer(a01, a01.conj())
    assert np.abs(sup.matrix @ vectorize(rho)).max() < 1e-12


def test_liouvillian_rejects_foreign_basis(drive, basis6):
    h = build_effective_hamiltonian(drive, CouplingParams())
    cs = spontaneous_collapse_ops(1.0, 1.0, effective8())
    with pytest.raises(BasisMismatchError):
        assemble_liouvillian(h, cs)


def test_collapse_set_merge_across_bases_raises(basis6):
    cs6 = spontaneous_collapse_ops(1.2, 1.2, basis6)
    cs8 = spontaneous_collapse_ops(1.2, 1.2, effective8())
    with pytest.raises(BasisMismatchError):
        cs6.merged(cs8)


def test_collapse_set_holds_a_read_only_copy(basis6):
    ops = np.zeros((2, 6, 6), dtype=complex)
    cs = CollapseSet(basis6, ops, ("a", "b"))
    ops[0, 0, 0] = 1.0
    assert cs.ops.shape == (2, 6, 6) and len(cs) == 2
    assert np.abs(cs.ops).max() == 0.0
    assert not cs.ops.flags.writeable
    with pytest.raises(ValueError):
        cs.ops[0, 0, 0] = 1.0


@pytest.mark.parametrize("temperature", [1.0, 4.0])
@pytest.mark.parametrize("model", ["fig3a", "fig3a_full9", "fig4a", "full16"])
def test_phonon_generator_annihilates_the_gibbs_state(model, temperature, monkeypatch):
    """The secular phonon generator of H satisfies KMS: exp(-H/kT)/Z is stationary."""
    config = full16_config() if model == "full16" else scenarios.scenario_presets()[model]
    parts = []

    def capture(h, collapse):
        parts.append(h)
        return assemble_liouvillian(h, collapse)

    monkeypatch.setattr(scenarios, "assemble_liouvillian", capture)
    scenarios.build_liouvillian(config)
    (h,) = parts
    sup = assemble_liouvillian(h, phonon_dissipator(h, temperature, DotGeometry(), MaterialParams()))
    energies, vecs = np.linalg.eigh(h.matrix)
    weights = np.exp(-(energies - energies.min()) / (K_B_UEV_PER_K * temperature))
    gibbs = (vecs * (weights / weights.sum())) @ vecs.conj().T
    assert np.abs(sup.matrix @ vectorize(gibbs)).max() < 1e-15 * np.abs(sup.matrix).max()


@pytest.mark.parametrize("model", ["fig3a", "fig3a_full9", "fig4a", "full16"])
def test_exchange_eigh_gives_eigenvectors_of_definite_parity(model, monkeypatch):
    config = full16_config() if model == "full16" else scenarios.scenario_presets()[model]
    parts = []

    def capture(h, collapse):
        parts.append(h)
        return assemble_liouvillian(h, collapse)

    monkeypatch.setattr(scenarios, "assemble_liouvillian", capture)
    scenarios.build_liouvillian(config)
    (h,) = parts
    energies, vecs = exchange_eigh(h)
    scale = np.abs(h.matrix).max()
    assert np.abs(vecs.conj().T @ vecs - np.eye(h.dim)).max() < 1e-13
    assert np.abs(h.matrix @ vecs - vecs * energies).max() < 1e-12 * scale
    assert np.abs(np.sort(energies) - np.linalg.eigh(h.matrix)[0]).max() < 1e-12 * scale
    # U v = +-v, bitwise up to rounding, for every eigenvector
    swapped = exchange_by_hand(h.basis) @ vecs
    parity = np.sign((vecs.conj() * swapped).sum(axis=0).real)
    assert np.abs(swapped - vecs * parity).max() < 1e-15


def test_fig4a_phonon_channels_couple_only_matching_parities():
    config = scenarios.scenario_presets()["fig4a"]
    h = scenarios.build_effective_tunneling_hamiltonian(
        config.drive, scenarios.dressed_basis(config.coupling.delta, config.coupling.t_e)
    )
    # 20 channels at 1 K, each with a down and an up jump; one eigh of the
    # whole H gave 26, as its near-degenerate eigenvectors (1.4e-5 ueV apart)
    # mixed the two parities
    assert len(phonon_dissipator(h, 1.0, config.geometry, config.material)) == 40
    u = exchange_by_hand(h.basis)
    _, p_sym, p_asym = phonon_eigenoperators(h)
    # the symmetric occupation is exchange-even, the antisymmetric one odd
    assert np.abs(u @ p_sym @ u.T - p_sym).max() < 1e-15
    assert np.abs(u @ p_asym @ u.T + p_asym).max() < 1e-15
