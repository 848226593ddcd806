"""Derived couplings: Zeeman, Forster, WKB tunneling, phonon spectral density.

The dipole-dipole (Forster) and tunneling estimates are evaluated in SI and
converted back to meV; the phonon spectral densities come out in ueV, i.e. as
rates in the hbar = 1 unit system.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, QuadratureError
from .params import (
    ELECTRON_MASS_SI,
    ELEMENTARY_CHARGE_SI,
    EPSILON_0_SI,
    HBAR_SI,
    K_B_UEV_PER_K,
    MU_B_UEV_PER_T,
    DotGeometry,
    MaterialParams,
)

_EV_TO_JOULE = ELEMENTARY_CHARGE_SI


def zeeman_splittings(b_x: float, g_e: float, g_h: float) -> tuple[float, float, float, float]:
    """Electron / hole Zeeman splittings and the H/V transition detunings.

    Returns ``(E_B_e, E_B_h, Delta_H, Delta_V)`` in ueV for a field `b_x` in
    Tesla, with ``Delta_H = E_B_e + E_B_h`` and ``Delta_V = E_B_e - E_B_h``.
    """
    if b_x < 0:
        raise DomainError("b_x must be nonnegative")
    e_b_e = g_e * MU_B_UEV_PER_T * b_x
    e_b_h = g_h * MU_B_UEV_PER_T * b_x
    return e_b_e, e_b_h, e_b_e + e_b_h, e_b_e - e_b_h


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) at |x| < 1 from the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(1, n):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1, n * (p0 - x * p1) / (1.0 - x * x)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], for n >= 2.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Legendre recurrence (off-diagonal k / sqrt(4k^2 - 1)),
    refined by one Newton step on P_n and made symmetric about 0; the weights
    are 2 / ((1 - x^2) P_n'(x)^2) at the refined nodes.
    """
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p, dp = _legendre(n, x)
    x = x - p / dp
    x = (x - x[::-1]) / 2.0
    dp = _legendre(n, x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.cache
def _forster_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    # substitute t = sin(u) to remove the 1/sqrt(1 - t^2) endpoint singularity;
    # cached, as the 400-node rule takes about 18 ms, two thirds of it in
    # eigvalsh. Returns t^2 and weights
    u, w = _gauss_legendre(order)
    u = (u + 1.0) * (np.pi / 4)
    return np.sin(u) ** 2, w * (np.pi / 4)


def _forster_integral(x: float, order: int) -> float:
    t2, w = _forster_rule(order)
    nu = x * x * t2 / (2.0 * (1.0 - t2))
    return float(x**3 / (2 * np.pi) * np.sum(w * (1.0 - 2.0 * nu) * np.exp(-nu)))


def forster_shape_F(x: float) -> float:
    """Dimensionless dipole-dipole shape factor.

    ``F(x) = x^3/(2 pi) * int_0^1 dt (1 - 2 nu)/sqrt(1 - t^2) exp(-nu)`` with
    ``nu = x^2 t^2 / (2 (1 - t^2))``; for small x, ``F(x) -> x^3/4``.
    """
    if x <= 0:
        raise DomainError("x must be positive")
    coarse = _forster_integral(x, 200)
    fine = _forster_integral(x, 400)
    err = abs(fine - coarse)
    if err > 1e-8 * abs(fine) + 1e-14:
        raise QuadratureError(f"F({x}) quadrature not converged: est. error {err:.2e}")
    return fine


def forster_coupling(geom: DotGeometry) -> float:
    """Dipole-dipole inter-dot coupling in ueV, returned with a negative sign.

    ``|V_F| = e^2 |a|^2 / (4 pi eps d^3) * (l^2/(l_e l_h))^2 * F(d/l)`` with
    ``l^2 = 2/(1/l_e^2 + 1/l_h^2)``.
    """
    le, lh = geom.l_par_e, geom.l_par_h
    l2 = 2.0 / (1.0 / le**2 + 1.0 / lh**2)
    x = geom.d / math.sqrt(l2)
    # e/(4 pi eps0) in V*nm, so the bracket below is an energy in eV
    coulomb_ev_nm = ELEMENTARY_CHARGE_SI / (4 * np.pi * EPSILON_0_SI) * 1e9
    mag_ev = (
        coulomb_ev_nm
        / geom.eps_r
        * geom.a**2
        / geom.d**3
        * (l2 / (le * lh)) ** 2
        * forster_shape_F(x)
    )
    return -mag_ev * 1e6  # eV -> ueV


def wkb_tunneling_rate(v_barrier_mev: float, d_nm: float, m_eff: float) -> float:
    """Semiclassical electron tunneling rate in meV.

    ``t_e = (2e/pi) sqrt(8 V' w) exp(-16 V' / (3 w))`` with the level spacing
    read as the energy ``w = hbar * 4 sqrt(2 V'/m) / d`` for ``m = m_eff m0``
    and ``e`` Euler's number.
    """
    if v_barrier_mev <= 0 or d_nm <= 0 or m_eff <= 0:
        raise DomainError("v_barrier, d and m_eff must be positive")
    vp = v_barrier_mev * 1e-3 * _EV_TO_JOULE
    m = m_eff * ELECTRON_MASS_SI
    w = HBAR_SI * 4.0 * math.sqrt(2.0 * vp / m) / (d_nm * 1e-9)
    te = (2.0 * math.e / math.pi) * math.sqrt(8.0 * vp * w) * math.exp(-16.0 * vp / (3.0 * w))
    return te / _EV_TO_JOULE * 1e3  # J -> meV


def form_factor(
    q_par: float | np.ndarray, q_z: float | np.ndarray, l_par: float, l_perp: float
) -> float | np.ndarray:
    """Fourier transform of the normalized Gaussian carrier density.

    Wave vectors in 1/nm, lengths in nm; equals 1 at q = 0.
    """
    if l_par <= 0 or l_perp <= 0:
        raise DomainError("lengths must be positive")
    return np.exp(-(q_par**2) * l_par**2 / 8.0 - q_z**2 * l_perp**2 / 4.0)


@functools.cache
def _theta_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 48- and 96-node Gauss-Legendre rules on theta in [0, pi], side by side.

    Returns sin(theta), cos(theta) and the phi-averaged piezoelectric factor
    sin^2(theta) (9 + 7 cos 2 theta) at the 144 nodes of both rules (the 48
    first), then each rule's weights times the sin(theta) Jacobian. Built on
    the first spectral density, not at import.
    """
    (x48, w48), (x96, w96) = _gauss_legendre(48), _gauss_legendre(96)
    th = (np.concatenate([x48, x96]) + 1.0) * (np.pi / 2)
    sin, cos = np.sin(th), np.cos(th)
    w = np.concatenate([w48, w96]) * (np.pi / 2) * sin
    return sin, cos, sin**2 * (9.0 + 7.0 * np.cos(2 * th)), w[:48], w[48:]


@functools.lru_cache(maxsize=4096)
def _spectral_density_cached(
    omega_ueV: float, plus: bool, geom: DotGeometry, material: MaterialParams
) -> float:
    if omega_ueV == 0.0:
        return 0.0
    w_ang = omega_ueV * 1e-6 * _EV_TO_JOULE / HBAR_SI  # rad / s
    q_si = w_ang / material.c_s  # 1 / m
    q_nm = q_si * 1e-9  # 1 / nm
    de = material.d_e * _EV_TO_JOULE
    dh = material.d_h * _EV_TO_JOULE
    mp_si = material.m_p * _EV_TO_JOULE / 1e-9  # eV/nm -> J/m
    mu = material.mass_density
    cs = material.c_s
    phase = q_si * geom.d * 1e-9
    sinc = math.sin(phase) / phase if phase > 1e-12 else 1.0
    sign = 1.0 if plus else -1.0
    sin, cos, piezo, w_coarse, w_fine = _theta_rule()
    n = len(w_coarse)

    # an overflow to inf may still give a finite J (exp(-inf) = 0); a J that
    # is not finite raises below. The integrand is evaluated once at the
    # nodes of both rules; each sum reads only its own rule's nodes, so an
    # overflow at a node of one cannot reach the other's sum
    with np.errstate(over="ignore", invalid="ignore"):
        qp, qz = q_nm * sin, q_nm * cos
        ffe = form_factor(qp, qz, geom.l_par_e, geom.l_perp)
        ffh = form_factor(qp, qz, geom.l_par_h, geom.l_perp)
        g_d = w_ang**3 / (8 * np.pi**2 * mu * cs**5) * (de * ffe - dh * ffh) ** 2
        # phi average of the piezoelectric angular factor squared,
        # (m_p sin(th) / 4)^2 (9 + 7 cos 2th - 2 cos 4ph sin^2 th): cos 4ph averages to 0
        p2 = mp_si**2 / 16.0 * piezo
        g_p = w_ang * p2 / (8 * np.pi**2 * mu * cs**3) * (ffe - ffh) ** 2
        f = (1.0 + sign * sinc) * (g_d + g_p)
        coarse = 2 * np.pi * float(w_coarse @ f[:n]) / _EV_TO_JOULE * 1e6  # J -> ueV
        fine = 2 * np.pi * float(w_fine @ f[n:]) / _EV_TO_JOULE * 1e6
    if not math.isfinite(fine):
        raise DomainError(f"spectral density at {omega_ueV} ueV is not finite")
    err = abs(fine - coarse)
    # The absolute floor (ueV) lets a J pass that the form factors drive to
    # underflow at high frequency. It is safe: J enters the generator as a
    # rate beside the radiative rates (1.2 ueV in the presets), where 1e-15 ueV
    # is at the level of rounding, and far below J_minus(10 ueV) = 7e-8 ueV.
    if err > 1e-6 * abs(fine) + 1e-15:
        rel = err / abs(fine) if fine else math.inf
        raise QuadratureError(
            f"spectral density quadrature not converged at {omega_ueV} ueV: "
            f"est. error {err:.2e} ueV, rel. error {rel:.2e}"
        )
    return fine


def spectral_density(
    omega_ueV: float, parity: str, geom: DotGeometry, material: MaterialParams
) -> float:
    """Phonon spectral density J_plus / J_minus at `omega_ueV`, in ueV.

    The deformation-potential and piezoelectric couplings, weighted by
    ``1 +/- sinc(q d)``, integrated over the phonon direction. The azimuth
    phi enters only through the piezoelectric angular factor, whose phi
    average is exact, so the solid angle reduces to 2 pi times a
    Gauss-Legendre rule in theta (with its sin(theta) Jacobian), at 48 and
    96 nodes; their difference is the error estimate. Vanishes at omega = 0.
    """
    if not math.isfinite(omega_ueV):
        raise DomainError(f"omega must be finite, got {omega_ueV}")
    if omega_ueV < 0:
        raise DomainError("omega must be nonnegative")
    if parity not in ("plus", "minus"):
        raise DomainError(f"parity must be 'plus' or 'minus', got {parity!r}")
    try:
        return _spectral_density_cached(float(omega_ueV), parity == "plus", geom, material)
    except (ArithmeticError, ValueError) as exc:  # a float overflow, or sin(inf)
        raise DomainError(f"spectral density at {omega_ueV} ueV is out of float range: {exc}") from None


def bose_occupation(omega_ueV: float, temperature_K: float) -> float:
    """Thermal phonon number ``N = 1/(exp(omega/kT) - 1)``; 0 at T = 0."""
    if not math.isfinite(omega_ueV):
        raise DomainError(f"omega must be finite, got {omega_ueV}")
    if not math.isfinite(temperature_K):
        raise DomainError(f"temperature must be finite, got {temperature_K}")
    if omega_ueV <= 0:
        raise DomainError("bose_occupation needs omega > 0")
    if temperature_K < 0:
        raise DomainError("temperature must be nonnegative")
    if temperature_K == 0.0:
        return 0.0
    x = omega_ueV / (K_B_UEV_PER_K * temperature_K)
    if x > 700.0:
        return 0.0
    return 1.0 / math.expm1(x)
