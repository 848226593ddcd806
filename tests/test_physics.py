import math

import numpy as np
import pytest

from qdm.errors import DomainError
from qdm.params import DotGeometry, MaterialParams, EPS_R_CALIBRATED
from qdm.physics import (
    bose_occupation,
    form_factor,
    forster_coupling,
    forster_shape_F,
    piezo_angular,
    spectral_density,
    wkb_tunneling_rate,
    zeeman_splittings,
)


def test_zeeman_paper_quoted_sum():
    # the quoted splittings sum to the H-transition separation exactly
    material = MaterialParams()
    assert abs(material.e_b_e + material.e_b_h - (-45.72)) < 1e-12


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
