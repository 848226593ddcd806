import math

import numpy as np
import pytest

from conftest import effective6_hamiltonian_by_hand
from qdm.basis import DOT3_LEVELS, DOT4_LEVELS, BasisKind, full9, full16
from qdm.errors import BasisMismatchError, DegenerateBasisError
from qdm.hamiltonians import (
    build_effective_hamiltonian,
    build_effective_tunneling_hamiltonian,
    build_full_hamiltonian,
    dot_operator_pair,
    dressed_basis,
)
from qdm.params import CouplingParams, DriveParams


def test_effective6_structure(drive):
    h = build_effective_hamiltonian(drive, CouplingParams())
    assert h.is_hermitian()
    b = h.basis
    m = h.matrix
    assert abs(m[b.index("11"), b.index("S1s")] - math.sqrt(2) * drive.omega) < 1e-12
    assert abs(m[b.index("S01"), b.index("S0s")] - drive.omega) < 1e-12
    assert abs(m[b.index("00"), b.index("S01")] - math.sqrt(2) * drive.omega_m) < 1e-12
    # the target state is decoupled, up to the rounding of the restriction
    i = b.index("A01")
    scale = np.abs(m).max()
    assert np.abs(m[i, :]).max() <= 1e-15 * scale
    assert np.abs(m[:, i]).max() <= 1e-15 * scale


@pytest.mark.parametrize("drive", [DriveParams(), DriveParams(omega=35.0, omega_m=4.0)])
def test_effective6_is_the_restricted_full9_hamiltonian(drive):
    h = build_effective_hamiltonian(drive, CouplingParams(v_f=-drive.detuning))
    want = effective6_hamiltonian_by_hand(drive).matrix
    assert np.abs(h.matrix - want).max() <= 1e-14 * np.abs(want).max()


def test_effective6_reads_detuning_plus_v_f_only():
    """The trion diagonal is detuning + v_f; v_xx and t_e sit on eliminated states."""
    drive = DriveParams(detuning=300.0)
    h = build_effective_hamiltonian(drive, CouplingParams(v_f=-200.0))
    b = h.basis
    for label in ("S0s", "S1s"):
        assert abs(h.matrix[b.index(label), b.index(label)] - 100.0) < 1e-12
    other = build_effective_hamiltonian(drive, CouplingParams(v_f=-200.0, v_xx=500.0, t_e=900.0))
    np.testing.assert_array_equal(other.matrix, h.matrix)


def test_full9_matrix_elements(drive):
    coupling = CouplingParams()
    h = build_full_hamiltonian(drive, coupling, BasisKind.FULL9)
    assert h.is_hermitian()
    b = h.basis
    m = h.matrix
    assert abs(m[b.index("1s"), b.index("s1")] - coupling.v_f) < 1e-12
    # both trions carry the rotating-frame detuning on top of the bi-trion shift
    assert abs(m[b.index("ss"), b.index("ss")] - (coupling.v_xx + 2 * drive.detuning)) < 1e-12
    assert abs(m[b.index("s0"), b.index("s0")] - drive.detuning) < 1e-12
    assert abs(m[b.index("ss"), b.index("ss")].imag) < 1e-14
    # pump couples |1x> to |sx> on each dot
    assert abs(m[b.index("10"), b.index("s0")] - drive.omega) < 1e-12
    assert abs(m[b.index("01"), b.index("0s")] - drive.omega) < 1e-12


def test_full9_rejects_effective_basis(drive):
    with pytest.raises(BasisMismatchError):
        build_full_hamiltonian(drive, CouplingParams(), BasisKind.EFFECTIVE6)


def test_full16_inter_dot_trion_block(drive):
    coupling = CouplingParams.from_delta(t_e=2000.0, delta=-20000.0)
    h = build_full_hamiltonian(drive, coupling, BasisKind.FULL16)
    assert h.is_hermitian()
    b = h.basis
    m = h.matrix
    # t level at detuning + v_f - delta in the rotating frame
    expected = drive.detuning + coupling.v_f - coupling.delta
    assert abs(m[b.index("t0"), b.index("t0")] - expected) < 1e-9
    assert abs(m[b.index("s0"), b.index("t0")] - coupling.t_e) < 1e-12


def test_dot_operator_pair():
    for basis, levels in ((full9(), DOT3_LEVELS), (full16(), DOT4_LEVELS)):
        on1, on2 = dot_operator_pair(basis.kind, "0", "s")
        # |0><s| on one dot times the identity on the other: exactly one
        # entry per level of the spectator dot
        assert np.count_nonzero(on1) == np.count_nonzero(on2) == len(levels)
        for x in levels:
            assert on1[basis.index("0" + x), basis.index("s" + x)] == 1.0
            assert on2[basis.index(x + "0"), basis.index(x + "s")] == 1.0
    with pytest.raises(BasisMismatchError):
        dot_operator_pair(BasisKind.EFFECTIVE6, "0", "s")


def test_dot_operator_pairs_are_cached_read_only():
    pair = dot_operator_pair(BasisKind.FULL16, "s", "t")
    assert dot_operator_pair(BasisKind.FULL16, "s", "t") is pair
    assert not any(m.flags.writeable for m in pair)


def test_dressed_basis_diagonalizes_two_level_block():
    delta, te = -20000.0, 2000.0
    info = dressed_basis(delta, te)
    # oracle: eigenvalues of the two-level block [[0, te], [te, -delta]]
    evals = np.sort(np.linalg.eigvalsh(np.array([[0.0, te], [te, -delta]])))
    np.testing.assert_allclose(evals, [info.e2, info.e1], rtol=1e-12)
    assert abs(info.e1 + info.e2 - (-delta)) < 1e-9
    assert abs(info.e1 * info.e2 - (-(te**2))) < 1e-6 * te**2
    # tan(theta) = -E1/te ties the angle to the energies
    assert abs(math.tan(info.theta) + info.e1 / te) < 1e-9
    u = info.U.matrix
    np.testing.assert_allclose(u.conj().T @ u, np.eye(8), atol=1e-12)


def test_dressed_basis_limits():
    assert dressed_basis(100.0, 0.0).theta == 0.0
    assert abs(dressed_basis(-100.0, 0.0).theta + math.pi / 2) < 1e-15
    assert abs(dressed_basis(0.0, 50.0).theta + math.pi / 4) < 1e-15
    with pytest.raises(DegenerateBasisError):
        dressed_basis(0.0, 0.0)


def test_effective_tunneling_reduces_to_effective6(drive):
    info = dressed_basis(-200.0, 0.0)
    h8 = build_effective_tunneling_hamiltonian(drive, info)
    h6 = build_effective_hamiltonian(drive, CouplingParams())
    np.testing.assert_allclose(h8.matrix[:6, :6], h6.matrix, atol=1e-12)
    # the decoupled branch carries the dressed splitting on the diagonal
    b = h8.basis
    gap = abs(info.e1 - info.e2)
    assert abs(abs(h8.matrix[b.index("S0t"), b.index("S0t")]) - gap) < 1e-9
    assert np.abs(h8.matrix[:6, 6:]).max() < 1e-12


def test_effective_tunneling_positive_delta_limit(drive):
    # delta > 0, t_e -> 0: the s branch is pumped directly
    h8 = build_effective_tunneling_hamiltonian(drive, dressed_basis(200.0, 0.0))
    h6 = build_effective_hamiltonian(drive, CouplingParams())
    np.testing.assert_allclose(h8.matrix[:6, :6], h6.matrix, atol=1e-12)


def test_effective_tunneling_pump_amplitude_scaling(drive):
    info = dressed_basis(-20000.0, 2000.0)
    h8 = build_effective_tunneling_hamiltonian(drive, info)
    assert h8.is_hermitian()
    b = h8.basis
    amp = max(abs(math.cos(info.theta)), abs(math.sin(info.theta)))
    got = np.linalg.norm(h8.matrix[b.index("S01"), [b.index("S0s"), b.index("S0t")]])
    assert abs(got - drive.omega * amp) < 1e-9


def test_effective_tunneling_warns_when_drive_beats_gap():
    info = dressed_basis(-40.0, 10.0)
    with pytest.warns(UserWarning):
        build_effective_tunneling_hamiltonian(DriveParams(), info)


def test_full16_reduces_to_full9_block(drive):
    coupling = CouplingParams.from_delta(t_e=0.0, delta=-20000.0)
    h16 = build_full_hamiltonian(drive, coupling, BasisKind.FULL16)
    h9 = build_full_hamiltonian(drive, coupling, BasisKind.FULL9)
    b16, b9 = h16.basis, h9.basis
    idx = [b16.index(lab) for lab in b9.labels]
    np.testing.assert_allclose(h16.matrix[np.ix_(idx, idx)], h9.matrix, atol=1e-12)
