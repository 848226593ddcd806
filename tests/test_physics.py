import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qdm import physics
from qdm.errors import DomainError
from qdm.params import (
    ELEMENTARY_CHARGE_SI,
    EPS_R_CALIBRATED,
    HBAR_SI,
    PAPER_ZEEMAN_SPLITTINGS_UEV,
    DotGeometry,
    MaterialParams,
)
from qdm.physics import (
    bose_occupation,
    form_factor,
    forster_coupling,
    forster_shape_F,
    spectral_density,
    wkb_tunneling_rate,
    zeeman_splittings,
)


def piezo_angular(theta, phi, m_p):
    """Angular piezoelectric coupling factor, same units as `m_p`."""
    under = 9.0 + 7.0 * np.cos(2 * theta) - 2.0 * np.cos(4 * phi) * np.sin(theta) ** 2
    return 0.25 * np.sin(theta) * m_p * np.sqrt(np.clip(under, 0.0, None))


def _gauss_legendre(n, upper):
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) * (upper / 2), w * (upper / 2)


def solid_angle_spectral_density(omega_ueV, parity, geom, material):
    """J_plus / J_minus in ueV from 2D Gauss-Legendre rules over (theta, phi).

    Integrates the full angular dependence, piezo_angular(theta, phi)^2
    included, at 48 x 32 and 96 x 64 nodes; checks that the two agree and
    returns the finer.
    """
    joule = ELEMENTARY_CHARGE_SI  # per eV
    w_ang = omega_ueV * 1e-6 * joule / HBAR_SI
    q_si = w_ang / material.c_s
    q_nm = q_si * 1e-9
    de, dh = material.d_e * joule, material.d_h * joule
    mp_si = material.m_p * joule / 1e-9
    mu, cs = material.mass_density, material.c_s
    phase = q_si * geom.d * 1e-9
    sign = 1.0 if parity == "plus" else -1.0

    def rule(n_theta, n_phi):
        th, wth = _gauss_legendre(n_theta, np.pi)
        ph, wph = _gauss_legendre(n_phi, 2 * np.pi)
        TH, PH = np.meshgrid(th, ph, indexing="ij")
        qp, qz = q_nm * np.sin(TH), q_nm * np.cos(TH)
        ffe = form_factor(qp, qz, geom.l_par_e, geom.l_perp)
        ffh = form_factor(qp, qz, geom.l_par_h, geom.l_perp)
        g_d = w_ang**3 / (8 * np.pi**2 * mu * cs**5) * (de * ffe - dh * ffh) ** 2
        p2 = piezo_angular(TH, PH, mp_si) ** 2
        g_p = w_ang * p2 / (8 * np.pi**2 * mu * cs**3) * (ffe - ffh) ** 2
        integrand = (1.0 + sign * math.sin(phase) / phase) * (g_d + g_p) * np.sin(TH)
        return float(np.sum(np.outer(wth, wph) * integrand)) / joule * 1e6

    coarse, fine = rule(48, 32), rule(96, 64)
    assert abs(fine - coarse) <= 1e-6 * abs(fine) + 1e-15
    return fine


def test_zeeman_paper_quoted_sum():
    # the quoted splittings sum to the H-transition separation exactly
    e_b_e, e_b_h = PAPER_ZEEMAN_SPLITTINGS_UEV
    assert abs(e_b_e + e_b_h - (-45.72)) < 1e-12


def test_zeeman_from_g_factors():
    e_e, e_h, d_h, d_v = zeeman_splittings(1.0, -0.46, -0.29)
    assert abs(e_e - (-0.46 * 57.8838)) < 1e-10
    assert abs(d_h - (e_e + e_h)) < 1e-12
    assert abs(d_v - (e_e - e_h)) < 1e-12
    # recomputation from g-factors lands near, not on, the quoted values
    assert abs(abs(d_h) - 45.72) < 3.0


def test_zeeman_rejects_negative_field():
    with pytest.raises(DomainError):
        zeeman_splittings(-1.0, -0.46, -0.29)


def test_forster_shape_small_x_limit():
    # F(x) -> x^3/4 as x -> 0, with a leading correction linear in x
    for x in (0.01, 0.05, 0.1):
        assert abs(forster_shape_F(x) / (x**3 / 4) - 1) < 2 * x
    # independent adaptive-quadrature oracle at x = 0.05
    assert abs(forster_shape_F(0.05) - 2.886976e-05) < 1e-10


def test_forster_shape_reference_value():
    # frozen oracle from an independent adaptive quadrature of the integrand
    assert abs(forster_shape_F(2.2696) - 0.194709) < 1e-5


def test_forster_coupling_calibrated_magnitude():
    vf = forster_coupling(DotGeometry())
    assert vf < 0
    assert abs(abs(vf) - 200.0) < 0.5  # ueV


def test_forster_coupling_vacuum_value():
    vf = forster_coupling(DotGeometry(eps_r=1.0))
    assert abs(abs(vf) - EPS_R_CALIBRATED * 200.0) < 2.0


def test_wkb_tunneling_documented_reading():
    te = wkb_tunneling_rate(680.0, 9.5, 0.067)
    assert abs(te - 2.8689) < 5e-4
    with pytest.raises(DomainError):
        wkb_tunneling_rate(-1.0, 9.5, 0.067)


def test_form_factor_normalization_and_decay():
    assert abs(form_factor(0.0, 0.0, 4.4, 1.0) - 1.0) < 1e-14
    assert form_factor(1.0, 0.0, 4.4, 1.0) < form_factor(0.5, 0.0, 4.4, 1.0)
    q = np.array([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(
        form_factor(q, q, 4.4, 1.0), [form_factor(x, x, 4.4, 1.0) for x in q]
    )


def test_piezo_angular_vanishes_on_axis():
    assert abs(piezo_angular(0.0, 0.3, 1.4)) < 1e-14
    # phi = 0 at theta = pi/2 is also a node; the diagonal direction is not
    assert abs(piezo_angular(math.pi / 2, 0.0, 1.4)) < 1e-14
    assert piezo_angular(math.pi / 2, math.pi / 4, 1.4) > 0
    th, ph = np.array([0.0, 1.0, math.pi / 2]), np.array([0.3, 0.0, math.pi / 4])
    np.testing.assert_array_equal(
        piezo_angular(th, ph, 1.4), [piezo_angular(t, p, 1.4) for t, p in zip(th, ph)]
    )


def test_piezo_angular_phi_average_is_closed_form():
    # the theta rule in spectral_density uses this phi integral in closed form
    m_p = 1.4
    th = np.linspace(0.0, np.pi, 37)
    ph, wph = _gauss_legendre(32, 2 * np.pi)
    numeric = piezo_angular(th[:, None], ph[None, :], m_p) ** 2 @ wph
    closed = 2 * np.pi * m_p**2 / 16 * np.sin(th) ** 2 * (9 + 7 * np.cos(2 * th))
    np.testing.assert_allclose(numeric, closed, rtol=1e-13, atol=1e-15)


# Bohr frequencies (ueV) from 0.5 to 40610.5: the low-lying spin channels,
# fig4a's tunneling-split channels, fig4b's channels near 20 meV, and
# full16's channels near 40 meV, where the form factors underflow J.
ORACLE_POINTS = [
    (0.5, "plus"),
    (0.5, "minus"),
    (14.32, "minus"),
    (20.57, "plus"),
    (36.38, "plus"),
    (73.36, "plus"),
    (209.99, "minus"),
    (425.33, "minus"),
    (3330.38, "plus"),
    (17075.2, "plus"),
    (19998.81, "minus"),
    (20002.52, "minus"),
    (20083.72, "plus"),
    (20387.57, "minus"),
    (20442.15, "plus"),
    (20617.25, "minus"),
    (20916.8, "plus"),
    (40610.5, "plus"),
    (40610.5, "minus"),
    (40783.67, "plus"),
]


@pytest.mark.parametrize("omega,parity", ORACLE_POINTS)
def test_spectral_density_matches_solid_angle_rule(omega, parity):
    geom, material = DotGeometry(), MaterialParams()
    j = spectral_density(omega, parity, geom, material)
    ref = solid_angle_spectral_density(omega, parity, geom, material)
    assert abs(j - ref) <= 1e-12 * abs(ref) + 1e-15


def test_presets_build_no_quadrature_nodes():
    """Setting up (import, presets) leaves the theta rule unbuilt until a J is
    needed, and the Förster rule until a Förster coupling is."""
    src = str(Path(physics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import qdm; qdm.scenario_presets(); "
        "print(qdm.physics._theta_rule.cache_info().currsize, "
        "qdm.physics._forster_rule.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "0 0"


def test_forster_nodes_are_built_once(monkeypatch):
    forster_coupling(DotGeometry())
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting_leggauss(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
    assert forster_coupling(replace(DotGeometry(), eps_r=5.0)) < 0
    assert calls == []


def test_spectral_density_basic_properties():
    geom, material = DotGeometry(), MaterialParams()
    j30 = spectral_density(30.0, "plus", geom, material)
    assert j30 > 0
    assert spectral_density(0.0, "plus", geom, material) == 0.0
    jm = spectral_density(30.0, "minus", geom, material)
    assert jm > 0
    with pytest.raises(DomainError):
        spectral_density(30.0, "sideways", geom, material)


def test_spectral_density_vanishes_for_identical_carriers():
    # equal deformation potentials, equal localization, no piezo coupling:
    # the electron and hole form factors cancel in both coupling channels
    geom = DotGeometry(l_par_e=4.0, l_par_h=4.0)
    material = MaterialParams(d_e=5.0, d_h=5.0, m_p=0.0)
    assert spectral_density(30.0, "plus", geom, material) < 1e-30
    assert spectral_density(30.0, "minus", geom, material) < 1e-30


def test_spectral_density_converges_where_it_underflows():
    # the form factors drive J to ~7e-28 ueV at this Bohr frequency of full16
    # with phonons at the fig4a coupling
    geom, material = DotGeometry(), MaterialParams()
    for parity in ("plus", "minus"):
        j = spectral_density(40610.5, parity, geom, material)
        assert math.isfinite(j) and j >= 0.0


def test_bose_occupation_limits_and_detailed_balance():
    assert bose_occupation(30.0, 0.0) == 0.0
    n = bose_occupation(30.0, 1.0)
    ratio = n / (n + 1)
    assert abs(ratio - math.exp(-30.0 / 86.1733)) < 1e-12
    assert bose_occupation(30.0, 4.0) > n
    with pytest.raises(DomainError):
        bose_occupation(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_occupation(30.0, -1.0)
