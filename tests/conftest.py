from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from qdm.basis import effective6
from qdm.dissipators import assemble_liouvillian, spontaneous_collapse_ops
from qdm.hamiltonians import build_effective_hamiltonian
from qdm.operators import DensityMatrix, unvectorize, vectorize
from qdm.params import HBAR_UEV_NS, DriveParams
from qdm.scenarios import scenario_presets


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


def trace_preservation_defect(sup):
    """Max entry of the adjoint of `sup` applied to the identity (0 for a generator)."""
    ident = np.eye(sup.dim, dtype=complex).flatten(order="F")
    return float(np.abs(sup.matrix.conj().T @ ident).max())


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
