"""How fast does the protocol converge, and what drive ratio is best?

Sweeps the Raman coupling at fixed pump strength and decay rate, then probes
the saturation of the characteristic time at strong driving.

Run:  python3 demos/02_characteristic_time.py
"""

from qdm import HBAR_UEV_NS, sweep_T0
from qdm.scenarios import sweep_presets

# the grid of `qdm sweep --preset fig3b`
_, base, grids = sweep_presets()["fig3b"]
(omega,), (gamma,) = grids["omega_grid"], grids["gamma_grid"]

print(f"T0 vs Raman coupling at pump {omega} ueV, decay {gamma} ueV per channel")
print()
result = sweep_T0(base, **grids)
print("  omega_m [ueV]   omega_m/omega   T0 [ns]")
for _om, omm, _g, _c, t0, _leak, err in result.rows:
    t0_str = f"{t0:7.2f}" if not err else "   (not reached in window)"
    print(f"  {omm:13.2f}   {omm / omega:13.3f}   {t0_str}")

best = result.summary["argmin_omega_m"][(omega, gamma)]
print()
print(f"fastest convergence at omega_m = {best:.2f} ueV = {best / omega:.2f} * omega")

# saturation: at strong driving T0 levels off near 10 hbar / Gamma
print()
print("saturation check at omega = 60 ueV (omega_m = 0.45 omega):")
sat = sweep_T0(base, [60.0], [27.0], [gamma])
t0_sat = sat.rows[0][4]
print(
    f"  T0 = {t0_sat:.2f} ns vs 10 hbar/Gamma = {10 * HBAR_UEV_NS / gamma:.2f} ns"
)
