import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as la

from conftest import (
    apply,
    full16_config,
    lindblad_term,
    liouvillian_kron,
    phonon_eigenoperators_loop,
    random_density,
    trace_preservation_defect,
    vectorize,
)
from qdm import scenarios
from qdm.basis import effective6, effective8, full9, state_vector
from qdm.dissipators import (
    CollapseSet,
    assemble_liouvillian,
    phonon_dissipator,
    phonon_eigenoperators,
    spontaneous_collapse_ops,
)
from qdm.errors import BasisMismatchError
from qdm.hamiltonians import build_effective_hamiltonian
from qdm.operators import OperatorMatrix
from qdm.params import DotGeometry, DriveParams, K_B_UEV_PER_K, MaterialParams


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


def test_full9_embedding_restricts_to_effective_operators():
    b9, b6 = full9(), effective6()
    cs9 = spontaneous_collapse_ops(1.2, 0.8, b9)
    cs6 = spontaneous_collapse_ops(1.2, 0.8, b6)
    # compare matrix elements between the shared named states
    for op9, op6 in zip(cs9.ops, cs6.ops):
        for row in b6.labels:
            for col in b6.labels:
                got = state_vector(b9, row).conj() @ op9 @ state_vector(b9, col)
                want = op6[b6.index(row), b6.index(col)]
                assert abs(got - want) < 1e-12, (op9, row, col)


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
    h = build_effective_hamiltonian(drive)
    omega, _ps, _pa = phonon_eigenoperators(h)
    assert omega.size
    bound = 4 * max(drive.omega, drive.omega_m)
    assert (omega > 0).all() and (omega <= bound).all()


def test_antisymmetric_coupling_absent_on_effective6(drive):
    h = build_effective_hamiltonian(drive)
    _omega, ps, pa = phonon_eigenoperators(h)
    assert len(ps) and np.abs(pa).max() < 1e-14


def test_phonon_dissipator_zero_temperature_downward_only(drive):
    h = build_effective_hamiltonian(drive)
    cs = phonon_dissipator(h, 0.0, DotGeometry(), MaterialParams())
    assert len(cs) > 0
    assert all(lab.endswith("down)") for lab in cs.labels)


def test_phonon_detailed_balance(drive):
    h = build_effective_hamiltonian(drive)
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


def test_phonon_rates_grow_with_temperature(drive):
    h = build_effective_hamiltonian(drive)
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
    h = build_effective_hamiltonian(drive)
    sup = assemble_liouvillian(h, empty)
    ident = np.eye(6)
    coherent = -1j * (np.kron(ident, h.matrix) - np.kron(h.matrix.T, ident))
    assert np.abs(sup.matrix - coherent).max() < 1e-14


@pytest.mark.parametrize("case", ["fig4a_2K", "full16"])
def test_stacked_assembly_matches_per_operator_sum(case, monkeypatch):
    config, n_ops = {
        "fig4a_2K": (replace(scenarios.scenario_presets()["fig4a"], temperature=2.0), 56),
        "full16": (full16_config(), 304),
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
    h = build_effective_hamiltonian(drive)
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
    h = build_effective_hamiltonian(drive)
    cs = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, basis6)
    cs = cs.merged(phonon_dissipator(h, 4.0, DotGeometry(), MaterialParams()))
    sup = assemble_liouvillian(h, cs)
    a01 = state_vector(basis6, "A01")
    rho = np.outer(a01, a01.conj())
    assert np.abs(sup.matrix @ vectorize(rho)).max() < 1e-12


def test_liouvillian_rejects_foreign_basis(drive, basis6):
    h = build_effective_hamiltonian(drive)
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
