"""Units, physical constants, and the model parameter records.

All dynamics run with hbar = 1: energies in micro-eV, times in hbar/micro-eV.
Multiplying an internal time by :data:`HBAR_UEV_NS` converts it to nanoseconds.
Lengths are nanometers and temperatures Kelvin unless a field says otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import ConfigError

# hbar in ueV * ns; also the ns-per-internal-time-unit conversion factor.
HBAR_UEV_NS = 0.65821195
# Boltzmann constant in ueV / K.
K_B_UEV_PER_K = 86.1733
# Bohr magneton in ueV / T.
MU_B_UEV_PER_T = 57.8838

# SI constants for the Forster / WKB / phonon formulas.
HBAR_SI = 1.054571817e-34  # J s
ELECTRON_MASS_SI = 9.1093837015e-31  # kg
ELEMENTARY_CHARGE_SI = 1.602176634e-19  # C
EPSILON_0_SI = 8.8541878128e-12  # F / m

#: The paper's quoted Zeeman splittings (E_B_e, E_B_h) at B_x = 1 T, in ueV;
#: they sum to its H-transition separation of -45.72 ueV. No run reads them.
PAPER_ZEEMAN_SPLITTINGS_UEV = (-27.78, -17.94)

#: Relative dielectric constant calibrated so that the Forster formula with the
#: default geometry reproduces |V_F| = 0.2 meV (the vacuum value is 0.830 meV).
EPS_R_CALIBRATED = 4.148


def _check_finite(record: object) -> None:
    """Reject a parameter record with a NaN or infinite field."""
    bad = [f.name for f in fields(record) if not math.isfinite(getattr(record, f.name))]
    if bad:
        raise ConfigError(f"{type(record).__name__} fields must be finite: {', '.join(bad)}")


@dataclass(frozen=True)
class DriveParams:
    """Laser drive and spontaneous-emission rates, all in ueV.

    `gamma0` / `gamma1` are the decay rates of a trion into the hole states
    |0> and |1>. `detuning` is the rotating-frame trion energy, i.e. the bare
    trion energy minus the laser frequency.
    """

    omega: float = 20.0
    omega_m: float = 9.0
    detuning: float = 200.0
    gamma0: float = 1.2
    gamma1: float = 1.2

    def __post_init__(self) -> None:
        _check_finite(self)
        if min(self.omega, self.omega_m, self.gamma0, self.gamma1) < 0:
            raise ConfigError("omega, omega_m, gamma0, gamma1 must be nonnegative")

    @property
    def gamma_total(self) -> float:
        return self.gamma0 + self.gamma1


@dataclass(frozen=True)
class CouplingParams:
    """Inter-dot couplings in ueV.

    `delta` is derived, not stored: ``delta = v_f + omega - omega_t`` holds by
    construction, with `omega` / `omega_t` the bare intra- and inter-dot trion
    energies.
    """

    v_f: float = -200.0
    v_xx: float = 3000.0
    t_e: float = 0.0
    omega: float = 0.0
    omega_t: float = 0.0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.v_xx <= 0:
            raise ConfigError("v_xx must be positive")

    @property
    def delta(self) -> float:
        return self.v_f + self.omega - self.omega_t

    @classmethod
    def from_delta(
        cls,
        v_f: float = -200.0,
        v_xx: float = 3000.0,
        t_e: float = 0.0,
        delta: float = 0.0,
        omega: float = 0.0,
    ) -> "CouplingParams":
        return cls(v_f=v_f, v_xx=v_xx, t_e=t_e, omega=omega, omega_t=v_f + omega - delta)


@dataclass(frozen=True)
class DotGeometry:
    """Dot wave-function lengths and spacing, in nm."""

    l_par_e: float = 4.4
    l_par_h: float = 4.0
    l_perp: float = 1.0
    d: float = 9.5
    a: float = 1.6
    eps_r: float = EPS_R_CALIBRATED

    def __post_init__(self) -> None:
        _check_finite(self)
        if min(self.l_par_e, self.l_par_h, self.l_perp, self.d, self.a) <= 0:
            raise ConfigError("all lengths must be positive")
        if self.eps_r <= 0:
            raise ConfigError("eps_r must be positive")


@dataclass(frozen=True)
class MaterialParams:
    """Bulk material parameters (GaAs literature defaults).

    Deformation potentials `d_e` / `d_h` are in eV, the piezoelectric constant
    `m_p` in eV/nm.
    """

    mass_density: float = 5370.0  # kg / m^3
    c_s: float = 5110.0  # m / s
    d_e: float = 7.0
    d_h: float = -3.5
    m_p: float = 1.4

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.mass_density <= 0 or self.c_s <= 0:
            raise ConfigError("mass_density and c_s must be positive")
