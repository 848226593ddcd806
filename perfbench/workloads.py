"""Benchmark workloads: the calls one pass makes, drawn from a seed, and their checks.

A pass is one closed-loop caller making every call of its workload in turn
through qdm's public API, serially, at the library's default BLAS threading
and with the sweeps' default ``jobs=None``. The default seed reproduces the
figure grids, and its outputs are compared with ``reference.json``, recorded
from the same calls. Any other seed jitters the interior sweep-grid points
inside the same ranges; rows at those points are checked by invariants, and
rows at the unmoved end points against the reference. The scenario runs take
no random input, so every seed checks them against the reference.

One figure point fails at the commit that recorded the reference: fig3b at
omega_m = 0.1 omega converges later than the preset's 30 ns ceiling, and its
row carries a ConvergenceTimeoutError. A row at a point whose reference row
is an error may be an error row again (counted apart as an expected error)
or a valid row; any other error row is a failed operation.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from qdm import run_scenario, scenario_presets, sweep_T0, sweep_temperature

DEFAULT_SEED = 0
REFERENCE = Path(__file__).with_name("reference.json")

#: The stiff runs evolve over the first 1 ns of the figure grid at its
#: 0.25 ns spacing: the full 50 ns takes about 50 s per pass with the
#: adaptive integrator, more than a run's time budget allows.
STIFF_T_GRID = (0.0, 1.0, 5)

# Tolerances follow the code's documented precision, not observed diffs.
#: characteristic_time bisects its crossing to 1 %, so two estimates of one
#: crossing differ by up to 2 %.
T0_RTOL = 0.02
#: evolve integrates to rel_tol 1e-8, and criterion 10 holds it to 1e-8 of
#: exact propagation; the square roots in Wootters' concurrence turn a state
#: error delta into a concurrence error up to sqrt(delta).
CONCURRENCE_ATOL = 1e-4
#: criterion 10 holds the steady state to 1e-6 of long-time evolution, and
#: the leak is linear in the state.
LEAK_ATOL = 1e-6
#: rounding slack on the invariants concurrence, leak in [0, 1].
UNIT_SLACK = 1e-9


@dataclass(frozen=True)
class Call:
    """One public-API call of a pass; `key` names its entry in reference.json."""

    key: str
    fn: Callable
    config: object
    grids: dict = field(default_factory=dict)

    @property
    def operations(self) -> int:
        """Scenario runs count one operation, sweeps one per grid point."""
        return math.prod(len(g) for g in self.grids.values()) if self.grids else 1

    def invoke(self):
        return self.fn(self.config, **self.grids)


def _jitter(grid: list[float], rng: random.Random) -> list[float]:
    """Move each interior point by up to a tenth of the gap to its nearer
    neighbour; the end points, and so the range, stay put."""
    out = list(grid)
    for i in range(1, len(grid) - 1):
        gap = min(grid[i] - grid[i - 1], grid[i + 1] - grid[i])
        out[i] = grid[i] + rng.uniform(-0.1, 0.1) * gap
    return out


def make(workload: str, seed: int) -> list[Call]:
    """The calls of one pass of `workload` with inputs drawn from `seed`."""
    presets = scenario_presets()
    if workload == "quickstart":
        return [Call("fig3a", run_scenario, presets["fig3a"])]
    if workload == "stiff":
        return [
            Call(key, run_scenario, replace(presets[key], t_grid=STIFF_T_GRID))
            for key in ("fig3a_full9", "fig4a")
        ]
    if workload == "sweep":
        # the grids of `qdm sweep fig3b` and `qdm sweep fig4b`
        rng = random.Random(seed)
        fig3b, fig4b = presets["fig3b"], presets["fig4b"]
        omega = fig3b.drive.omega
        omega_m = [float(x) for x in np.linspace(0.1 * omega, omega, 15)]
        temps, tes = [0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0]
        if seed != DEFAULT_SEED:
            omega_m, temps, tes = _jitter(omega_m, rng), _jitter(temps, rng), _jitter(tes, rng)
        return [
            Call("fig3b", sweep_T0, fig3b,
                 {"omega_grid": [omega], "omega_m_grid": omega_m, "gamma_grid": [fig3b.drive.gamma0]}),
            Call("fig4b", sweep_temperature, fig4b, {"T_grid": temps, "te_grid": tes}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def snapshot(call: Call, result) -> dict:
    """The outputs of one call that the checks compare, as JSON values."""
    if call.grids:
        return {"columns": list(result.columns), "rows": [[_plain(v) for v in row] for row in result.rows]}
    traj = result.trajectory
    return {
        "steady_concurrence": float(result.steady_concurrence),
        "steady_leak": float(result.steady_leak),
        "t0_ns": float(result.t0_ns),
        "times_ns": [float(t) for t in traj.times],
        "concurrence": [float(c) for c in traj.concurrence],
    }


def _plain(value):
    return float(value) if isinstance(value, numbers.Real) else value


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _unit(name: str, value: float) -> list[str]:
    if not (-UNIT_SLACK <= value <= 1.0 + UNIT_SLACK):
        return [f"{name} {value!r} outside [0, 1]"]
    return []


def _close(name: str, got: float, want: float, atol: float = 0.0, rtol: float = 0.0) -> list[str]:
    if not abs(got - want) <= atol + rtol * abs(want):
        return [f"{name} {got!r}, reference {want!r}"]
    return []


def _check_run(out: dict, ref: dict) -> list[str]:
    bad = _unit("steady concurrence", out["steady_concurrence"]) + _unit("steady leak", out["steady_leak"])
    if not out["t0_ns"] > 0.0:
        bad.append(f"T0 {out['t0_ns']!r} not positive")
    bad += _close("steady concurrence", out["steady_concurrence"], ref["steady_concurrence"], atol=CONCURRENCE_ATOL)
    bad += _close("steady leak", out["steady_leak"], ref["steady_leak"], atol=LEAK_ATOL)
    bad += _close("T0", out["t0_ns"], ref["t0_ns"], rtol=T0_RTOL)
    if out["times_ns"] != ref["times_ns"]:
        bad.append("trajectory time grid differs from the reference")
    else:
        worst = max(abs(a - b) for a, b in zip(out["concurrence"], ref["concurrence"]))
        if not worst <= CONCURRENCE_ATOL:
            bad.append(f"trajectory concurrence off the reference by {worst:.3g}")
    return bad


def _check_rows(call: Call, out: dict, ref: dict) -> tuple[list[str], int]:
    """One message per failed sweep point (an error row, a broken invariant, a
    mismatch with the reference row at the same grid point, or a missing
    row), and the number of expected error rows."""
    col = {name: i for i, name in enumerate(out["columns"])}
    rcol = {name: i for i, name in enumerate(ref["columns"])}
    n_grid = col["concurrence_ss"]  # the grid-point columns come first
    known = {tuple(r[:n_grid]): r for r in ref["rows"]}
    points = list(itertools.product(*call.grids.values()))
    bad, expected_errors = [], 0
    for n, (row, point) in enumerate(zip(out["rows"], points)):
        rrow = known.get(point)
        msgs = []
        if tuple(row[:n_grid]) != point:
            msgs.append(f"grid point {row[:n_grid]}, requested {list(point)}")
        elif row[col["error"]]:
            if rrow is not None and rrow[rcol["error"]]:
                expected_errors += 1
            else:
                msgs.append(f"error {row[col['error']]!r}")
        else:
            c, t0, leak = row[col["concurrence_ss"]], row[col["t0_ns"]], row[col["leak"]]
            msgs += _unit("concurrence", c) + _unit("leak", leak)
            if not t0 > 0.0:
                msgs.append(f"T0 {t0!r} not positive")
            if rrow is not None and not rrow[rcol["error"]]:
                msgs += _close("concurrence", c, rrow[rcol["concurrence_ss"]], atol=CONCURRENCE_ATOL)
                msgs += _close("T0", t0, rrow[rcol["t0_ns"]], rtol=T0_RTOL)
                msgs += _close("leak", leak, rrow[rcol["leak"]], atol=LEAK_ATOL)
        if msgs:
            bad.append(f"{call.key} row {n}: " + "; ".join(msgs))
    missing = len(points) - len(out["rows"])
    bad += [f"{call.key}: sweep row missing"] * max(missing, 0)
    return bad, expected_errors


def check(call: Call, result, reference: dict) -> tuple[list[str], int]:
    """Failure messages for one call's outputs, at most one per operation,
    and the number of expected error rows among them."""
    out = snapshot(call, result)
    if call.grids:
        return _check_rows(call, out, reference[call.key])
    bad = _check_run(out, reference[call.key])
    return ([f"{call.key}: " + "; ".join(bad)] if bad else []), 0
