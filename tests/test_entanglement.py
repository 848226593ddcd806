import numpy as np
import pytest

from qdm.basis import effective6, full9, state_vector
from conftest import TWO_QUBIT_BASIS, concurrence, wootters_svd
from qdm.entanglement import (
    _symmetric_singular_values,
    _wootters,
    qubit_concurrence,
    qubit_concurrences,
)
from qdm.errors import EmptySubspaceError
from qdm.operators import DensityMatrix, physical_states
from qdm.scenarios import scenario_presets, sweep_temperature


def werner(p):
    """p |Psi-><Psi-| + (1-p) I/4 with C = max(0, (3p - 1)/2)."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)
    return p * np.outer(psi, psi) + (1 - p) * np.eye(4) / 4


@pytest.mark.parametrize("p", [0.0, 1 / 3, 0.6, 1.0])
def test_werner_concurrence_analytic(p):
    rho = DensityMatrix(TWO_QUBIT_BASIS, werner(p))
    expected = max(0.0, (3 * p - 1) / 2)
    assert abs(concurrence(rho) - expected) < 1e-10


def test_product_state_concurrence_zero():
    v = np.zeros(4)
    v[0] = 1.0
    rho = DensityMatrix(TWO_QUBIT_BASIS, np.outer(v, v))
    assert concurrence(rho) < 1e-12


def test_projection_from_effective6():
    b = effective6()
    a01 = state_vector(b, "A01")
    rho = DensityMatrix(b, np.outer(a01, a01.conj()))
    c, leak = qubit_concurrence(rho)
    assert leak < 1e-12
    assert abs(c - 1.0) < 1e-12


def test_projection_reports_leak():
    b = effective6()
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = 0.7
    m[b.index("S1s"), b.index("S1s")] = 0.3
    c, leak = qubit_concurrence(DensityMatrix(b, m))
    assert abs(leak - 0.3) < 1e-12
    assert c < 1e-12


def test_projection_from_full9_singlet():
    b = full9()
    a01 = state_vector(b, "A01")
    rho = DensityMatrix(b, np.outer(a01, a01.conj()))
    c, leak = qubit_concurrence(rho)
    assert abs(c - 1.0) < 1e-12
    assert leak < 1e-12


def test_empty_qubit_subspace_raises():
    b = effective6()
    m = np.zeros((6, 6), dtype=complex)
    m[b.index("S0s"), b.index("S0s")] = 1.0
    with pytest.raises(EmptySubspaceError):
        qubit_concurrence(DensityMatrix(b, m))


def test_concurrence_at_most_one_on_fig4b_dark_point():
    # fig4b's (T = 0, t_e = 0) steady state is the singlet up to rounding,
    # which put the unclamped concurrence at 1 + 2.2e-16
    sweep = sweep_temperature(scenario_presets()["fig4b"], T_grid=[0.0], te_grid=[0.0])
    ((_, _, c_ss, _, _, error),) = sweep.rows
    assert not error
    assert 1.0 - 1e-12 < c_ss <= 1.0


def ginibre_stack(dim, n, seed):
    """n seeded Ginibre states of rank 1, 2 or dim in turn: pure and
    low-rank ones are entangled on the qubit block, full-rank ones mostly not."""
    rng = np.random.default_rng(seed)
    states = []
    for i in range(n):
        rank = (1, 2, dim)[i % 3]
        g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
        rho = g @ g.conj().T
        states.append(rho / rho.trace())
    return physical_states(np.array(states))


@pytest.mark.parametrize("make_basis", [effective6, full9])
def test_stacked_concurrence_matches_single_states(make_basis):
    b = make_basis()
    stack = ginibre_stack(b.dim, 30, seed=b.dim)
    conc, leak = qubit_concurrences(b, stack)
    singles = [qubit_concurrence(DensityMatrix(b, m)) for m in stack]
    np.testing.assert_array_equal(conc, [c for c, _ in singles])
    np.testing.assert_array_equal(leak, [lk for _, lk in singles])
    assert conc.max() > 0.1  # the stack is not trivially separable


def test_stacked_projection_raises_on_an_empty_interior_snapshot():
    b = effective6()
    stack = ginibre_stack(6, 5, seed=3)
    trion = np.zeros((6, 6), dtype=complex)
    trion[b.index("S0s"), b.index("S0s")] = 1.0
    stack[2] = trion
    with pytest.raises(EmptySubspaceError):
        qubit_concurrences(b, stack)


def test_symmetric_singular_values_match_svd():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((200, 4, 4)) + 1j * rng.standard_normal((200, 4, 4))
    m = g + g.swapaxes(-1, -2)
    m /= np.linalg.norm(m, ord=2, axis=(-2, -1))[:, None, None]
    np.testing.assert_allclose(
        _symmetric_singular_values(m), np.linalg.svd(m, compute_uv=False), rtol=0, atol=1e-14
    )


def test_wootters_matches_the_svd_of_the_root_product():
    rng = np.random.default_rng(12)
    blocks = [werner(p) for p in np.linspace(0.0, 1.0, 31)]
    for rank in (1, 2, 3, 4):  # random states of each rank
        g = rng.standard_normal((50, 4, rank)) + 1j * rng.standard_normal((50, 4, rank))
        rho = g @ g.conj().swapaxes(-1, -2)
        blocks += list(rho / np.trace(rho, axis1=1, axis2=2)[:, None, None])
    for psi in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]):
        v = np.array(psi) / np.sqrt(2)
        blocks.append(np.outer(v, v))
    blocks = np.array(blocks, dtype=complex)
    np.testing.assert_allclose(_wootters(blocks), wootters_svd(blocks), rtol=0, atol=2e-15)
