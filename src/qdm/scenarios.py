"""Declarative scenario catalog and parameter sweeps.

A scenario bundles every knob of one master-equation run. The named presets
pin the figure parameter sets in one place so tests and the CLI reference
presets instead of scattering literals.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .basis import BasisKind, ModelBasis, make_basis, state_vector
from .dissipators import (
    _thermal_jumps,
    assemble_liouvillian,
    phonon_channels,
    spontaneous_collapse_ops,
)
from .dynamics import Trajectory, _characteristic_times, _each_alone, evolve, steady_state
from .entanglement import qubit_concurrences
from .errors import ConfigError, DomainError, QdmError
from .hamiltonians import (
    build_effective_hamiltonian,
    build_effective_tunneling_hamiltonian,
    build_full_hamiltonian,
    dressed_basis,
)
from .operators import DensityMatrix, Superoperator
from .params import (
    HBAR_UEV_NS,
    CouplingParams,
    DotGeometry,
    DriveParams,
    MaterialParams,
)

_INITIAL_STATES = ("paper_mixture", "ground_00", "random")


@dataclass(frozen=True)
class ScenarioConfig:
    """All inputs of one run. Energies ueV, temperature K, times ns."""

    name: str = "custom"
    model: str = "effective6"
    drive: DriveParams = field(default_factory=DriveParams)
    coupling: CouplingParams = field(default_factory=CouplingParams)
    geometry: DotGeometry = field(default_factory=DotGeometry)
    material: MaterialParams = field(default_factory=MaterialParams)
    temperature: float = 0.0
    phonons: bool = False
    tunneling: bool = False
    initial_state: str = "paper_mixture"
    seed: int = 0
    t_grid: tuple[float, float, int] = (0.0, 50.0, 201)
    epsilon_T0: float = 0.1

    def __post_init__(self) -> None:
        models = tuple(kind.value for kind in BasisKind)
        if self.model not in models:
            raise ConfigError(f"unknown model {self.model!r}; choose from {models}")
        if self.initial_state not in _INITIAL_STATES:
            raise ConfigError(
                f"unknown initial_state {self.initial_state!r}; choose from {_INITIAL_STATES}"
            )
        if self.tunneling and self.model not in ("effective8", "full16"):
            raise ConfigError("tunneling requires model effective8 or full16")
        if self.model == "full16" and not (self.tunneling and self.coupling.t_e != 0.0):
            # at t_e = 0 the inter-dot trion sector decouples and the steady
            # state is degenerate
            raise ConfigError("model full16 requires tunneling=True with nonzero coupling.t_e")
        start, stop, points = self.t_grid
        if start != 0.0 or not 0.0 < stop < math.inf or not float(points).is_integer() or points < 2:
            raise ConfigError("t_grid must be (0, finite stop > 0, integer points >= 2)")
        if not 0.0 < self.epsilon_T0 < 1.0:
            raise ConfigError("epsilon_T0 must lie in (0, 1)")
        if not 0.0 <= self.temperature < math.inf:
            raise ConfigError("temperature must be finite and nonnegative")

    def times_ns(self) -> np.ndarray:
        start, stop, points = self.t_grid
        return np.linspace(start, stop, int(points))

    def config_hash(self) -> str:
        payload = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


def scenario_presets() -> dict[str, ScenarioConfig]:
    """The named figure parameter sets."""
    fig3a = ScenarioConfig(name="fig3a")
    fig4_coupling = CouplingParams.from_delta(
        v_f=-200.0, v_xx=3000.0, t_e=2000.0, delta=-20000.0
    )
    fig4a = ScenarioConfig(
        name="fig4a",
        model="effective8",
        coupling=fig4_coupling,
        temperature=1.0,
        phonons=True,
        tunneling=True,
    )
    return {
        "fig3a": fig3a,
        "fig3a_full9": replace(fig3a, name="fig3a_full9", model="full9"),
        "fig3b": replace(fig3a, name="fig3b", t_grid=(0.0, 30.0, 121)),
        "fig4a": fig4a,
        "fig4b": replace(fig4a, name="fig4b"),
    }


def initial_state(config: ScenarioConfig, basis: ModelBasis) -> DensityMatrix:
    """Initial density matrix named by the config.

    `paper_mixture` is the equal mixture of the four two-hole ground states,
    `ground_00` the lowest product state, `random` a seeded Ginibre state.
    """
    dim = basis.dim
    if config.initial_state == "paper_mixture":
        rho = np.zeros((dim, dim), dtype=complex)
        for lab in ("00", "S01", "A01", "11"):
            v = state_vector(basis, lab)
            rho += 0.25 * np.outer(v, v.conj())
        return DensityMatrix(basis, rho)
    if config.initial_state == "ground_00":
        v = state_vector(basis, "00")
        return DensityMatrix(basis, np.outer(v, v.conj()))
    rng = np.random.default_rng(config.seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return DensityMatrix(basis, rho / rho.trace())


def _liouvillian(config: ScenarioConfig, parts: dict) -> Superoperator:
    """The generator of `config`, from the parts in `parts` that do not depend
    on the temperature: the Hamiltonian per (model, drive, coupling, tunneling),
    the radiative jumps per (basis, gamma0, gamma1) and the phonon channels
    per (Hamiltonian, geometry, material). A missing part is built and added;
    one that fails to build raises and is not added."""
    drive, coupling = config.drive, config.coupling
    h_key = ("hamiltonian", config.model, drive, coupling, config.tunneling)
    if h_key not in parts:
        if config.model == "effective6":
            parts[h_key] = build_effective_hamiltonian(drive, coupling)
        elif config.model == "effective8":
            te = coupling.t_e if config.tunneling else 0.0
            parts[h_key] = build_effective_tunneling_hamiltonian(drive, dressed_basis(coupling.delta, te))
        else:
            parts[h_key] = build_full_hamiltonian(drive, coupling, BasisKind(config.model))
    h = parts[h_key]
    radiative_key = ("radiative", h.basis, drive.gamma0, drive.gamma1)
    if radiative_key not in parts:
        parts[radiative_key] = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, h.basis)
    collapse = parts[radiative_key]
    if config.phonons:
        channels_key = ("phonons", h_key, config.geometry, config.material)
        if channels_key not in parts:
            parts[channels_key] = phonon_channels(h, config.geometry, config.material)
        collapse = collapse.merged(_thermal_jumps(h.basis, parts[channels_key], config.temperature))
    return assemble_liouvillian(h, collapse)


def build_liouvillian(config: ScenarioConfig) -> Superoperator:
    """Hamiltonian plus collapse set for the configured model, assembled."""
    return _liouvillian(config, {})


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    trajectory: Trajectory
    steady: DensityMatrix
    t0_ns: float
    steady_concurrence: float
    steady_leak: float


def _t0_ceiling_ns(config: ScenarioConfig) -> float:
    """The T0 search's ceiling: the run's span, or 50 hbar / Gamma if longer;
    infinite, which the search rejects, without radiative decay."""
    gamma = config.drive.gamma_total
    return max(config.t_grid[1], 50.0 * HBAR_UEV_NS / gamma) if gamma > 0.0 else math.inf


#: Most bytes of a chunk's points, counted as one real (d^2, d^2) matrix
#: each: 12 effective6, 4 effective8, 2 full9, 1 full16 points, so each
#: even-block stack, or its inverse, is smaller. Stacking saves per-call
#: overhead, and a larger stack raises the peak memory; a new cap would move
#: every chunk's shape and timing.
_STACK_BYTES = 128 * 1024


def _solve_chunk(
    basis: ModelBasis,
    configs: list[ScenarioConfig],
    liouvs: list[Superoperator],
    rho0s: list[DensityMatrix],
) -> list:
    """Same-basis points solved as stacks: per point (steady matrix, T0 ns,
    steady concurrence, steady leak), or its first error of steady state,
    T0 and concurrence. The T0 ceilings are taken only where a steady state
    was found, and the T0 search marches on a power-of-two multiple of each
    config's grid step, whose propagator it leaves for `evolve`."""
    out = steady_state(liouvs)
    solved = [n for n, state in enumerate(out) if not isinstance(state, Exception)]
    if not solved:
        return out
    stack = np.array([out[n] for n in solved])
    # both stacks hold checked states, so the search core takes them as they are
    t0s = _each_alone(
        _characteristic_times,
        [liouvs[n] for n in solved],
        np.array([rho0s[n].matrix for n in solved]),
        stack,
        np.array([configs[n].epsilon_T0 for n in solved], dtype=float),
        np.array([_t0_ceiling_ns(configs[n]) for n in solved], dtype=float),
        np.array([configs[n].times_ns()[1] for n in solved], dtype=float),
    )

    def steady_concurrences(states: np.ndarray) -> list[tuple[float, float]]:
        conc, leak = qubit_concurrences(basis, states)
        return list(zip(conc.tolist(), leak.tolist()))

    concurrences = _each_alone(steady_concurrences, stack)
    for n, t0, conc in zip(solved, t0s, concurrences):
        if isinstance(t0, Exception) or isinstance(conc, Exception):
            out[n] = t0 if isinstance(t0, Exception) else conc
        else:
            out[n] = (out[n], t0, *conc)
    return out


def _solve(configs: list[ScenarioConfig]) -> Iterator[tuple[int, object]]:
    """The pipeline shared by runs and sweeps.

    Takes the points model by model, in chunks of at most _STACK_BYTES of
    generators, builds each chunk's generators and solves them as stacks
    (`_solve_chunk`), with one initial state per distinct (initial_state,
    seed) and one set of `_liouvillian` parts per distinct key of a model.
    Yields (index, outcome) chunk by chunk, so a sweep holds one chunk's
    generators, and its model's parts, at a time. The outcome is (generator,
    initial state, steady matrix, T0 ns, steady concurrence, steady leak),
    or the error the config raises when solved alone, a LAPACK failure as a
    DomainError.
    """
    models: dict[str, list[int]] = {}
    for i, config in enumerate(configs):
        models.setdefault(config.model, []).append(i)
    for model, members in models.items():
        basis = make_basis(BasisKind(model))
        initial: dict[tuple[str, int], DensityMatrix] = {}
        parts: dict[tuple, object] = {}
        size = max(1, _STACK_BYTES // (8 * basis.dim**4))
        for start in range(0, len(members), size):
            chunk, liouvs, rho0s = [], [], []
            for i in members[start:start + size]:
                config = configs[i]
                try:
                    liouvs.append(_liouvillian(config, parts))
                except QdmError as exc:
                    yield i, exc
                    continue
                key = (config.initial_state, config.seed)
                if key not in initial:
                    initial[key] = initial_state(config, basis)
                chunk.append(i)
                rho0s.append(initial[key])
            if not chunk:
                continue
            solved = _solve_chunk(basis, [configs[i] for i in chunk], liouvs, rho0s)
            for i, liouv, rho0, outcome in zip(chunk, liouvs, rho0s, solved):
                if isinstance(outcome, np.linalg.LinAlgError):
                    outcome = DomainError(f"linear algebra failed: {outcome}")
                yield i, outcome if isinstance(outcome, Exception) else (liouv, rho0, *outcome)


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Evolve, solve the steady state, and extract the characteristic time."""
    ((_, outcome),) = _solve([config])
    try:
        if isinstance(outcome, Exception):
            raise outcome
        liouv, rho0, steady, t0, c_ss, leak_ss = outcome
        traj = evolve(rho0, liouv, config.times_ns())
    except QdmError as exc:
        raise type(exc)(f"scenario {config.name!r}: {exc}") from exc
    return ScenarioResult(config, traj, DensityMatrix._checked(liouv.basis, steady), t0, c_ss, leak_ss)


@dataclass(frozen=True)
class SweepResult:
    """Tabulated grid results; failed points carry a message in `error`.
    Each `summary` entry is a table keyed by tuples of grid values."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    provenance: dict[str, str]
    summary: dict[str, dict]


def _sweep(
    config: ScenarioConfig,
    grid_columns: tuple[str, ...],
    points: list[tuple],
    configs: list[ScenarioConfig],
) -> SweepResult:
    """The sweep of `configs` around `config`, one row per point: its values
    of `grid_columns`, then steady concurrence, T0 ns, leak and error message.

    The points are solved as stacks (`_solve`); a failed point gives NaNs and
    the message it gives when solved alone, and the others still run.
    """
    if not points:
        raise ConfigError("sweep grids must be nonempty")
    rows: list = [None] * len(points)
    for i, outcome in _solve(configs):
        if isinstance(outcome, Exception):
            rows[i] = (*points[i], math.nan, math.nan, math.nan, str(outcome))
        else:
            _, _, _, t0, c_ss, leak_ss = outcome
            rows[i] = (*points[i], c_ss, t0, leak_ss, "")
    columns = (*grid_columns, "concurrence_ss", "t0_ns", "leak", "error")
    provenance = {"config_hash": config.config_hash(), "artifact_version": __version__}
    return SweepResult(columns, tuple(rows), provenance, summary={})


def sweep_T0(
    config: ScenarioConfig,
    omega_grid: list[float],
    omega_m_grid: list[float],
    gamma_grid: list[float],
) -> SweepResult:
    """Characteristic time over the drive-parameter grid.

    The summary maps each (omega, gamma) pair to the omega_m minimizing T0,
    and to that T0. Gamma entries set both radiative channels.
    """
    points = list(itertools.product(omega_grid, omega_m_grid, gamma_grid))
    configs = [
        replace(config, drive=replace(config.drive, omega=om, omega_m=omm, gamma0=g, gamma1=g))
        for om, omm, g in points
    ]
    result = _sweep(config, ("omega_ueV", "omega_m_ueV", "gamma_ueV"), points, configs)
    argmin: dict[tuple[float, float], float] = {}
    best: dict[tuple[float, float], float] = {}
    for om, omm, g, _c, t0, _leak, _err in result.rows:
        if t0 < best.get((om, g), math.inf):  # never so for a failed point's NaN
            best[om, g], argmin[om, g] = t0, omm
    result.summary.update(argmin_omega_m=argmin, min_t0_ns=best)
    return result


def sweep_temperature(
    config: ScenarioConfig,
    T_grid: list[float],
    te_grid: list[float],
) -> SweepResult:
    """Steady concurrence over the (temperature, tunneling-rate) grid."""
    if not config.phonons:
        raise ConfigError("sweep_temperature requires phonons enabled")
    points = list(itertools.product(T_grid, te_grid))
    # the inter-dot trion sector decouples exactly at zero tunneling, leaving stationary
    # trapped states; the physical point there is the phonons-only 6-state model
    configs = [
        replace(
            config,
            model=config.model if te != 0.0 else "effective6",
            temperature=temp,
            coupling=replace(config.coupling, t_e=te),
            tunneling=te != 0.0,
        )
        for temp, te in points
    ]
    return _sweep(config, ("T_K", "t_e_ueV"), points, configs)


def sweep_presets() -> dict[str, tuple[Callable[..., SweepResult], ScenarioConfig, dict]]:
    """The figure sweeps that `qdm sweep` runs: name -> (sweep function,
    preset config, grids), run as ``fn(config, **grids)``."""
    presets = scenario_presets()
    fig3b = presets["fig3b"]
    omega, gamma = fig3b.drive.omega, fig3b.drive.gamma0
    omega_m = np.linspace(0.1 * omega, omega, 15).tolist()
    return {
        "fig3b": (sweep_T0, fig3b, dict(omega_grid=[omega], omega_m_grid=omega_m, gamma_grid=[gamma])),
        "fig4b": (sweep_temperature, presets["fig4b"],
                  dict(T_grid=[0.0, 0.5, 1.0, 2.0, 4.0], te_grid=[0.0, 1000.0, 2000.0, 3000.0])),
    }
