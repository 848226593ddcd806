"""The physical inputs of the model, computed from first principles.

Zeeman splittings, the dipole-dipole (Forster) coupling, the semiclassical
tunneling estimate, and the phonon spectral densities that feed the Lindblad
phonon channels.

Run:  python3 demos/04_derived_parameters.py
"""

from qdm import (
    bose_occupation,
    forster_coupling,
    spectral_density,
    wkb_tunneling_rate,
    zeeman_splittings,
)
from qdm.params import DotGeometry, MaterialParams

geom = DotGeometry()
material = MaterialParams()

print("Zeeman splittings at B_x = 1 T (g_e = -0.46, g_h = -0.29):")
e_e, e_h, d_h, d_v = zeeman_splittings(1.0, -0.46, -0.29)
print(f"  E_B_e = {e_e:.2f} ueV, E_B_h = {e_h:.2f} ueV")
print(f"  |Delta_H| = {abs(d_h):.2f} ueV, |Delta_V| = {abs(d_v):.2f} ueV")
print()

vf = forster_coupling(geom)
print(f"Forster coupling at d = {geom.d} nm, eps_r = {geom.eps_r}:")
print(f"  V_F = {vf:.1f} ueV = {vf / 1000:.3f} meV")
print()

te = wkb_tunneling_rate(680.0, 9.5, 0.067)
print(f"WKB electron tunneling (680 meV barrier, 9.5 nm, m* = 0.067):")
print(f"  t_e = {te:.3f} meV")
print()

print("phonon spectral densities (in-phase / out-of-phase) and occupation at 4 K:")
print("  omega [ueV]    J_plus [ueV]   J_minus [ueV]     N(4 K)")
for omega in (5.0, 10.0, 20.0, 40.0, 80.0, 160.0):
    jp = spectral_density(omega, "plus", geom, material)
    jm = spectral_density(omega, "minus", geom, material)
    n = bose_occupation(omega, 4.0)
    print(f"  {omega:11.1f}   {jp:12.4e}   {jm:13.4e}   {n:8.3f}")
