"""Dissipative preparation of a two-hole singlet in a quantum-dot molecule.

Dense Lindblad simulation of the optically driven two-dot system: model
Hamiltonians on effective and product bases, radiative and phonon collapse
operators, master-equation evolution, steady states, concurrence
trajectories, and the scenario / sweep catalog behind the `qdm` CLI.
"""

__version__ = "0.1.0"

from .basis import (
    BasisKind,
    ModelBasis,
    effective6,
    effective8,
    full9,
    full16,
    make_basis,
    state_vector,
)
from .dissipators import (
    CollapseSet,
    assemble_liouvillian,
    phonon_dissipator,
    phonon_eigenoperators,
    spontaneous_collapse_ops,
)
from .dynamics import (
    Trajectory,
    adiabatic_validity,
    characteristic_time,
    evolve,
    steady_state,
)
from .entanglement import qubit_concurrence
from .errors import QdmError
from .hamiltonians import (
    DressedBasisInfo,
    build_effective_hamiltonian,
    build_effective_tunneling_hamiltonian,
    build_full_hamiltonian,
    dressed_basis,
)
from .operators import DensityMatrix, OperatorMatrix, Superoperator
from .params import (
    HBAR_UEV_NS,
    CouplingParams,
    DotGeometry,
    DriveParams,
    MaterialParams,
)
from .physics import (
    bose_occupation,
    forster_coupling,
    forster_shape_F,
    spectral_density,
    wkb_tunneling_rate,
    zeeman_splittings,
)
from .scenarios import (
    ScenarioConfig,
    ScenarioResult,
    SweepResult,
    run_scenario,
    scenario_presets,
    sweep_T0,
    sweep_temperature,
)

__all__ = [
    "BasisKind",
    "CollapseSet",
    "CouplingParams",
    "DensityMatrix",
    "DotGeometry",
    "DressedBasisInfo",
    "DriveParams",
    "HBAR_UEV_NS",
    "MaterialParams",
    "ModelBasis",
    "OperatorMatrix",
    "QdmError",
    "ScenarioConfig",
    "ScenarioResult",
    "Superoperator",
    "SweepResult",
    "Trajectory",
    "adiabatic_validity",
    "assemble_liouvillian",
    "bose_occupation",
    "build_effective_hamiltonian",
    "build_effective_tunneling_hamiltonian",
    "build_full_hamiltonian",
    "characteristic_time",
    "dressed_basis",
    "effective6",
    "effective8",
    "evolve",
    "forster_coupling",
    "forster_shape_F",
    "full16",
    "full9",
    "make_basis",
    "phonon_dissipator",
    "phonon_eigenoperators",
    "qubit_concurrence",
    "run_scenario",
    "scenario_presets",
    "spectral_density",
    "spontaneous_collapse_ops",
    "state_vector",
    "steady_state",
    "sweep_T0",
    "sweep_temperature",
    "wkb_tunneling_rate",
    "zeeman_splittings",
]
