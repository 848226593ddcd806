import dataclasses
import importlib.util
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    from_real,
    full16_config,
    real_generator,
    serial_characteristic_time,
    steady_state_by_point,
    sweep_rows_by_point,
    to_real,
)
from qdm import dissipators, dynamics, scenarios
from qdm.dynamics import NULL_SINGULAR_VALUE_TOL
from qdm.entanglement import qubit_concurrence
from qdm.errors import ConfigError, DegenerateSteadyStateError, DomainError, QdmError
from qdm.params import CouplingParams, DotGeometry, DriveParams, MaterialParams
from qdm.scenarios import (
    ScenarioConfig,
    build_liouvillian,
    initial_state,
    run_scenario,
    scenario_presets,
    sweep_presets,
    sweep_T0,
    sweep_temperature,
)


def test_presets_exist_and_validate():
    presets = scenario_presets()
    for name in ("fig3a", "fig3a_full9", "fig3b", "fig4a", "fig4b"):
        assert name in presets
        assert presets[name].name == name
    assert presets["fig4a"].tunneling and presets["fig4a"].phonons
    assert presets["fig4a"].coupling.delta == -20000.0
    assert presets["fig4a"].coupling.t_e == 2000.0


def test_config_invariants():
    with pytest.raises(ConfigError):
        ScenarioConfig(model="effective6", tunneling=True)
    with pytest.raises(ConfigError):
        ScenarioConfig(model="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(initial_state="bogus")
    with pytest.raises(ConfigError):
        ScenarioConfig(t_grid=(1.0, 10.0, 5))
    with pytest.raises(ConfigError):
        ScenarioConfig(epsilon_T0=0.0)
    # phonons at T = 0 are legal (spontaneous phonon emission only)
    ScenarioConfig(phonons=True, temperature=0.0)


_RECORD_FIELDS = [
    (record, f.name)
    for record in (DriveParams, CouplingParams, DotGeometry, MaterialParams)
    for f in dataclasses.fields(record)
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record, name", _RECORD_FIELDS, ids=lambda x: getattr(x, "__name__", x))
def test_parameter_records_reject_non_finite_fields(record, name, value):
    with pytest.raises(ConfigError, match=name):
        record(**{name: value})


def test_config_rejects_non_finite_temperature_and_grid():
    for temperature in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="temperature"):
            ScenarioConfig(temperature=temperature)
    for grid in ((0.0, math.nan, 5), (0.0, math.inf, 5), (0.0, 10.0, 2.5), (0.0, 10.0, math.nan)):
        with pytest.raises(ConfigError, match="t_grid"):
            ScenarioConfig(t_grid=grid)
    assert len(ScenarioConfig(t_grid=(0.0, 10.0, 5.0)).times_ns()) == 5


def test_config_error_is_a_value_error():
    with pytest.raises(ValueError):
        DriveParams(omega=-1.0)


#: One finite field of fig4a at an end of the float range, each of which
#: once ended a run with a bare OverflowError, ValueError or LinAlgError.
_OVERFLOW_PROBES = [
    ("drive", "omega", 1e300),
    *[("coupling", name, v) for name in ("v_f", "t_e", "omega", "omega_t") for v in (1e300, -1e300)],
    *[("geometry", name, 1e300) for name in ("l_par_e", "l_par_h", "l_perp", "d")],
    ("material", "mass_density", 1e-300),
    ("material", "c_s", 1e-300),
    ("material", "c_s", 1e300),
    *[("material", name, v) for name in ("d_e", "d_h", "m_p") for v in (1e300, -1e300)],
]


# the drive.omega probe also draws the builder's warning that the pump is strong
@pytest.mark.filterwarnings("ignore:pump Rabi frequency:UserWarning")
@pytest.mark.parametrize("record, name, value", _OVERFLOW_PROBES)
def test_extreme_finite_fields_raise_qdm_errors(record, name, value):
    fig4a = scenario_presets()["fig4a"]
    config = dataclasses.replace(fig4a, **{record: dataclasses.replace(getattr(fig4a, record), **{name: value})})
    with pytest.raises(QdmError):
        run_scenario(config)


#: Fields at the top of the float range whose generators' singular values
#: are too coarse to count a null space; each once ended in an error that
#: named another fault (a null count of 0, a singular trace-row solve, a
#: march step that is not finite, a T0 timeout after ~1,000 squarings).
_UNRESOLVABLE = [
    ("fig3a", "drive", {"gamma1": 1e300}),
    ("fig3a", "drive", {"omega_m": 0.0, "gamma1": 1e300}),
    ("fig3a", "drive", {"omega": 1e300}),
    ("fig3a_full9", "coupling", {"v_xx": 1e300}),
]


@pytest.mark.filterwarnings("ignore:pump Rabi frequency:UserWarning")
@pytest.mark.parametrize("name, record, changes", _UNRESOLVABLE)
def test_unresolvable_null_space_is_named(name, record, changes):
    preset = scenario_presets()[name]
    config = dataclasses.replace(preset, **{record: dataclasses.replace(getattr(preset, record), **changes)})
    with pytest.raises(DegenerateSteadyStateError, match="null space not resolvable"):
        run_scenario(config)
    failed, solved = scenarios._sweep(preset, ("point",), [(0,), (1,)], [config, preset]).rows
    assert "null space not resolvable" in failed[-1]
    assert solved == scenarios._sweep(preset, ("point",), [(1,)], [preset]).rows[0]


def test_presets_null_counts_resolve_with_room_to_spare():
    configs = dict(scenario_presets())
    configs["full16"] = full16_config(398.0)  # the full16 point, the largest generator
    for name, config in configs.items():
        # the steady state's rounding floor, eps max(||A||_F, ||O||_F) of the
        # bordered even block A and the odd block O
        liouv = build_liouvillian(config)
        bordered, odd = np.array(liouv.blocks[0]), liouv.blocks[1]
        bordered[0] = dynamics.sectors(liouv.basis).trace
        floor = np.finfo(float).eps * max(np.linalg.norm(bordered), np.linalg.norm(odd))
        # measured at most 4.64e-11 (full16) and 2.03e-11 (fig4a): a bound of
        # 0.1 NULL_SINGULAR_VALUE_TOL keeps twice the largest
        assert floor < 0.1 * NULL_SINGULAR_VALUE_TOL, (name, floor)


def _sweep_preset_generators(monkeypatch):
    """Every generator that the `sweep_presets()` sweeps solve, and their rows."""
    liouvs, rows = [], []
    stacked = scenarios.steady_state

    def recording(L):
        liouvs.extend(L)
        return stacked(L)

    with monkeypatch.context() as patch:
        patch.setattr(scenarios, "steady_state", recording)
        for fn, config, grids in sweep_presets().values():
            rows.append(_reprs(fn(config, **grids).rows))
    return liouvs, rows


def test_steady_state_bounds_are_certified_with_room_to_spare(monkeypatch):
    liouvs = [build_liouvillian(config) for config in (*scenario_presets().values(), full16_config(398.0))]
    liouvs += _sweep_preset_generators(monkeypatch)[0]
    assert len(liouvs) == 6 + 15 + 20
    for liouv in liouvs:
        even, odd = liouv.blocks
        bordered = even.copy()
        bordered[0] = dynamics.sectors(liouv.basis).trace
        for block in (bordered, odd):
            _, (bound,), _ = dynamics._inverses(block[None])
            assert bound <= np.linalg.svd(block, compute_uv=False)[-1]
            # 1e3 below the smallest bound measured: 3.0e-3 on fig4b, 7.2e-3 at the full16 point
            assert bound > 1e3 * NULL_SINGULAR_VALUE_TOL


def test_runs_and_sweeps_take_no_svd(monkeypatch):
    fig4a = scenario_presets()["fig4a"]
    want = run_scenario(fig4a).steady.matrix, _sweep_preset_generators(monkeypatch)[1]
    monkeypatch.setattr(np.linalg, "svd", None)
    got = run_scenario(fig4a).steady.matrix, _sweep_preset_generators(monkeypatch)[1]
    assert want[0].tobytes() == got[0].tobytes() and want[1] == got[1]


def test_sweep_presets_hold_the_figure_grids():
    catalog = sweep_presets()
    presets = scenario_presets()
    assert list(catalog) == ["fig3b", "fig4b"]
    fn, config, grids = catalog["fig3b"]
    assert fn is sweep_T0 and config == presets["fig3b"]
    assert list(grids) == ["omega_grid", "omega_m_grid", "gamma_grid"]
    assert grids["omega_grid"] == [20.0] and grids["gamma_grid"] == [1.2]
    omega_m = grids["omega_m_grid"]
    # 15 evenly spaced points from 2 to 20 ueV, as plain floats
    assert all(type(x) is float for x in omega_m)
    assert omega_m[0] == 2.0 and omega_m[-1] == 20.0
    assert omega_m == pytest.approx([2.0 + 18.0 * k / 14 for k in range(15)], rel=1e-15, abs=0.0)
    fn, config, grids = catalog["fig4b"]
    assert fn is sweep_temperature and config == presets["fig4b"]
    assert grids == {"T_grid": [0.0, 0.5, 1.0, 2.0, 4.0], "te_grid": [0.0, 1000.0, 2000.0, 3000.0]}


def test_the_benchmark_sweeps_are_the_sweep_presets(monkeypatch):
    """The seed-0 sweep calls of the benchmark run the grids and preset
    configs of `sweep_presets()`, which `qdm sweep` runs."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    calls = workloads.make("sweep", workloads.DEFAULT_SEED)
    catalog = sweep_presets()
    assert [call.key for call in calls] == list(catalog)
    for call in calls:
        fn, config, grids = catalog[call.key]
        assert call.fn is fn and call.config == config and call.grids == grids


def test_sweep_keeps_its_rows_past_a_spectral_density_overflow():
    fig4b = scenario_presets()["fig4b"]
    config = dataclasses.replace(fig4b, geometry=dataclasses.replace(fig4b.geometry, d=1e300))
    phonons_only, tunneling = sweep_temperature(config, [1.0], [0.0, 2000.0]).rows
    # sin(q d) overflows only at the 20 meV Bohr frequencies of the 8-state model
    assert phonons_only[-1] == ""
    assert math.isnan(tunneling[2]) and "spectral density" in tunneling[-1]


def test_full16_rejected_at_zero_tunneling():
    presets = scenario_presets()
    assert presets["fig3a"].coupling.t_e == 0.0
    for tunneling in (False, True):
        with pytest.raises(ConfigError, match="full16"):
            dataclasses.replace(presets["fig3a"], model="full16", tunneling=tunneling)
    with pytest.raises(ConfigError, match="full16"):
        dataclasses.replace(presets["fig4a"], model="full16", tunneling=False)
    dataclasses.replace(presets["fig4a"], model="full16")


def test_config_hash_is_stable_and_sensitive():
    a = ScenarioConfig()
    b = ScenarioConfig()
    c = dataclasses.replace(a, temperature=1.0)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_initial_states(basis6):
    cfg = ScenarioConfig()
    mix = initial_state(cfg, basis6)
    assert abs(np.trace(mix.matrix) - 1) < 1e-12
    assert abs(mix.matrix[0, 0] - 0.25) < 1e-12
    ground = initial_state(dataclasses.replace(cfg, initial_state="ground_00"), basis6)
    assert abs(ground.matrix[0, 0] - 1.0) < 1e-12
    r1 = initial_state(dataclasses.replace(cfg, initial_state="random", seed=9), basis6)
    r2 = initial_state(dataclasses.replace(cfg, initial_state="random", seed=9), basis6)
    np.testing.assert_array_equal(r1.matrix, r2.matrix)


def test_run_scenario_fig3a_reaches_singlet():
    result = run_scenario(scenario_presets()["fig3a"])
    assert result.steady_concurrence > 0.99
    assert result.trajectory.concurrence[-1] > 0.99
    assert 0 < result.t0_ns < 30.0


def test_run_scenario_without_dissipation_fails():
    cfg = dataclasses.replace(
        scenario_presets()["fig3a"],
        drive=DriveParams(gamma0=0.0, gamma1=0.0),
    )
    with pytest.raises(DegenerateSteadyStateError, match="fig3a"):
        run_scenario(cfg)


def test_determinism_of_run():
    cfg = scenario_presets()["fig3a"]
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    np.testing.assert_array_equal(a.trajectory.concurrence, b.trajectory.concurrence)
    assert a.t0_ns == b.t0_ns


def test_sweep_T0_grid_and_argmin():
    cfg = scenario_presets()["fig3b"]
    sw = sweep_T0(cfg, [20.0], [6.0, 9.0, 12.0, 18.0], [1.2])
    assert len(sw.rows) == 4
    assert sw.columns[-1] == "error"
    argmin = sw.summary["argmin_omega_m"][(20.0, 1.2)]
    assert argmin == 9.0
    assert sw.provenance["config_hash"] == cfg.config_hash()


def test_sweep_T0_row_matches_run_scenario():
    cfg = scenario_presets()["fig3b"]
    drive = cfg.drive
    (row,) = sweep_T0(cfg, [drive.omega], [drive.omega_m], [drive.gamma0]).rows
    result = run_scenario(cfg)
    assert row[3:] == (result.steady_concurrence, result.t0_ns, result.steady_leak, "")


def test_sweep_T0_records_failures():
    cfg = scenario_presets()["fig3b"]
    sw = sweep_T0(cfg, [20.0], [0.001], [1.2])
    (row,) = sw.rows
    assert row[-1] != ""
    assert np.isnan(row[4])


def test_sweep_temperature_zero_tunneling_matches_phonon_only():
    presets = scenario_presets()
    sw = sweep_temperature(presets["fig4b"], [1.0], [0.0])
    (row,) = sw.rows
    assert row[-1] == ""
    phonon_only = dataclasses.replace(
        presets["fig4a"],
        name="phonon_only",
        model="effective6",
        tunneling=False,
        coupling=CouplingParams.from_delta(t_e=0.0, delta=-20000.0),
    )
    reference = run_scenario(phonon_only)
    assert abs(row[2] - reference.steady_concurrence) < 1e-8


def test_sweep_temperature_requires_phonons():
    cfg = scenario_presets()["fig3a"]
    with pytest.raises(ConfigError):
        sweep_temperature(cfg, [0.0], [0.0])


def test_effective8_trajectory_matches_effective6_at_zero_tunneling():
    presets = scenario_presets()
    cfg8 = dataclasses.replace(
        presets["fig4a"],
        name="te0",
        temperature=0.0,
        phonons=False,
        tunneling=False,
    )
    sup8 = build_liouvillian(cfg8)
    sup6 = build_liouvillian(presets["fig3a"])
    from qdm.dynamics import evolve

    ts = np.array([0.0, 5.0, 15.0])
    t8 = evolve(initial_state(cfg8, sup8.basis), sup8, ts)
    t6 = evolve(initial_state(presets["fig3a"], sup6.basis), sup6, ts)
    np.testing.assert_allclose(t8.concurrence, t6.concurrence, atol=1e-8)


def test_sweep_T0_without_decay_gives_its_row_and_the_sweep_goes_on():
    cfg = scenario_presets()["fig3b"]
    undamped = dataclasses.replace(cfg, drive=dataclasses.replace(cfg.drive, gamma0=0.0, gamma1=0.0))
    assert scenarios._t0_ceiling_ns(undamped) == math.inf  # not a ZeroDivisionError
    failed, solved = sweep_T0(cfg, [20.0], [9.0], [0.0, 1.2]).rows
    assert "block may be singular" in failed[-1] and math.isnan(failed[4])
    # the SVD oracle: the undamped generator's null space is not one-dimensional
    undamped = dataclasses.replace(undamped, drive=dataclasses.replace(undamped.drive, omega_m=9.0))
    sv = np.linalg.svd(real_generator(build_liouvillian(undamped)), compute_uv=False)
    assert (sv < NULL_SINGULAR_VALUE_TOL).sum() > 1
    assert solved[-1] == "" and solved[4] > 0.0


def _jitter(grid, rng):
    """Each interior point moved by up to a tenth of the gap to its nearer
    neighbour, as the benchmark moves them for a nonzero seed."""
    out = list(grid)
    for i in range(1, len(grid) - 1):
        gap = min(grid[i] - grid[i - 1], grid[i + 1] - grid[i])
        out[i] = grid[i] + rng.uniform(-0.1, 0.1) * gap
    return out


def _reprs(rows):
    """Rows as reprs, so equal means bitwise equal floats, NaNs included."""
    return [tuple(map(repr, row)) for row in rows]


def _sweeps_against_the_loop(monkeypatch):
    """Make every sweep also solve each point alone, as a one-point sweep of
    the same pipeline; return the list of (stacked rows, one-point rows) it
    fills."""
    pairs = []
    sweep = scenarios._sweep

    def both(config, grid_columns, points, configs):
        result = sweep(config, grid_columns, points, configs)
        alone = tuple(sweep(config, grid_columns, [p], [c]).rows[0] for p, c in zip(points, configs))
        pairs.append((result.rows, alone))
        return result

    monkeypatch.setattr(scenarios, "_sweep", both)
    return pairs


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_stacked_sweep_rows_equal_the_point_by_point_loop(seed, monkeypatch):
    pairs = _sweeps_against_the_loop(monkeypatch)
    presets = scenario_presets()
    fig3b = presets["fig3b"]
    omega = fig3b.drive.omega
    grids = [np.linspace(0.1 * omega, omega, 15).tolist(), [0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0]]
    if seed:
        rng = random.Random(seed)
        grids = [_jitter(grid, rng) for grid in grids]
    omega_m, temps, tes = grids
    sweep_T0(fig3b, [omega], omega_m, [fig3b.drive.gamma0])
    sweep_temperature(presets["fig4b"], temps, tes)
    assert len(pairs) == 2
    for rows, want in pairs:
        assert _reprs(rows) == _reprs(want)


def test_stacked_sweep_rows_keep_each_failure_to_its_point(monkeypatch):
    pairs = _sweeps_against_the_loop(monkeypatch)
    sw = sweep_T0(scenario_presets()["fig3b"], [20.0], [0.001, 2.0, 9.0], [0.0, 1.2])
    errors = [row[-1] for row in sw.rows]
    # degenerate without decay; at omega_m = 0.001 and 2 ueV the state
    # converges after the 30 ns ceiling
    assert all("block may be singular" in e for e in errors[0::2])
    assert all("not within" in e for e in errors[1:4:2]) and errors[5] == ""
    ((rows, want),) = pairs
    assert _reprs(rows) == _reprs(want)


def test_sweep_stacks_stay_under_the_byte_cap(monkeypatch):
    shapes = []
    inv = np.linalg.inv

    def recorded(a):
        if a.ndim == 3:
            shapes.append(a.shape)
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    presets = scenario_presets()
    sweep_T0(presets["fig3b"], [20.0], np.linspace(2.0, 20.0, 15).tolist(), [1.2])
    sweep_temperature(presets["fig4b"], [0.0, 1.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0])
    sweep_T0(presets["fig3a_full9"], [20.0], [6.0, 9.0, 12.0], [1.2])
    for n, d2, _ in shapes:
        assert n == 1 or n * d2 * d2 * 8 <= scenarios._STACK_BYTES, (n, d2)
    # the even blocks of 12 effective6, 4 effective8 and 2 full9 points
    assert {(12, 26), (4, 50), (2, 45)} <= {shape[:2] for shape in shapes}


def test_sweeps_call_each_solver_layer_once_per_chunk(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(scenarios, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("steady_state", "_characteristic_times", "initial_state"):
        monkeypatch.setattr(scenarios, name, counted(name))
    presets = scenario_presets()
    # 15 effective6 points in chunks of 12
    sweep_T0(presets["fig3b"], [20.0], np.linspace(2.0, 20.0, 15).tolist(), [1.2])
    assert calls.count("steady_state") == calls.count("_characteristic_times") == 2
    assert calls.count("initial_state") == 1
    calls.clear()
    # 5 effective6 points at t_e = 0, and 15 effective8 points in chunks of 4
    sweep_temperature(presets["fig4b"], [0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0])
    assert calls.count("steady_state") == calls.count("_characteristic_times") == 5
    assert calls.count("initial_state") == 2


def test_a_singular_point_keeps_its_chunk_stacked(monkeypatch):
    """An exactly singular even block at gamma = 0 fails the stacked `inv`;
    only the inverses are then redone matrix by matrix, not the chunk."""
    sizes = []
    solve = dynamics._steady_states

    def counted(liouvs):
        sizes.append(len(liouvs))
        return solve(liouvs)

    monkeypatch.setattr(dynamics, "_steady_states", counted)
    rows = sweep_T0(scenario_presets()["fig3b"], [20.0], [0.001, 2.0, 9.0], [0.0, 1.2]).rows
    assert sizes == [6]
    singular = "even block may be singular: 1/||M^-1||_F = 0.000e+00 <= 1e-09"
    timeout = "state not within 0.1 of the steady state by 30 ns"
    for row, error in zip(rows[:-1], [singular, timeout] * 2 + [singular], strict=True):
        assert all(math.isnan(v) for v in row[3:6]) and row[6] == error
    assert rows[-1] == (20.0, 9.0, 1.2, 0.9999999999999998, 5.59375, 2.220446049250313e-16, "")


def _solved_generators(monkeypatch):
    """Make `_solve` record the (config, generator) of each point it solves."""
    seen = []
    solve = scenarios._solve

    def recorded(configs):
        for i, outcome in solve(configs):
            if not isinstance(outcome, Exception):
                seen.append((configs[i], outcome[0]))
            yield i, outcome

    monkeypatch.setattr(scenarios, "_solve", recorded)
    return seen


@pytest.mark.parametrize("grid", ["fig4b", "one_te_at_several_T", "full16"])
def test_shared_parts_build_each_point_generator_bitwise(grid, monkeypatch):
    seen = _solved_generators(monkeypatch)
    fig4b = scenario_presets()["fig4b"]
    config, temps, tes = {
        "fig4b": (fig4b, [0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0]),
        "one_te_at_several_T": (fig4b, [4.0, 0.0, 1.0, 0.5, 1.0], [2000.0]),
        "full16": (_full16_point(), [0.0, 2.0], [2000.0]),
    }[grid]
    rows = sweep_temperature(config, temps, tes).rows
    assert all(row[-1] == "" for row in rows) and len(seen) == len(rows)
    for point, liouv in seen:
        assert liouv.matrix.tobytes() == build_liouvillian(point).matrix.tobytes()


def test_a_sweep_builds_each_distinct_hamiltonians_parts_once(monkeypatch):
    calls = []
    for module, name in (
        (dissipators, "phonon_eigenoperators"),
        (scenarios, "spontaneous_collapse_ops"),
        (scenarios, "build_effective_hamiltonian"),
        (scenarios, "build_effective_tunneling_hamiltonian"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    fn, fig4b, grids = sweep_presets()["fig4b"]
    # 20 points: one Hamiltonian per t_e, the phonons-only model at t_e = 0
    for _ in range(2):  # nothing is kept from one sweep to the next
        calls.clear()
        fn(fig4b, **grids)
        assert calls.count("phonon_eigenoperators") == 4
        assert calls.count("build_effective_tunneling_hamiltonian") == 3
        assert calls.count("build_effective_hamiltonian") == 1
        assert calls.count("spontaneous_collapse_ops") == 2
    calls.clear()
    run_scenario(scenario_presets()["fig4a"])
    assert calls.count("phonon_eigenoperators") == 1


def test_a_failed_channel_build_gives_each_point_its_own_row(monkeypatch):
    pairs = _sweeps_against_the_loop(monkeypatch)
    fn, fig4b, grids = sweep_presets()["fig4b"]
    config = dataclasses.replace(fig4b, geometry=dataclasses.replace(fig4b.geometry, l_par_e=1e300))
    rows = fn(config, **grids).rows
    assert all(math.isnan(row[2]) and "is out of float range" in row[-1] for row in rows)
    ((stacked, alone),) = pairs
    assert _reprs(stacked) == _reprs(alone)
    # the Hamiltonian and radiative jumps are kept; the failed channels are not
    parts = {}
    for _ in range(2):
        with pytest.raises(DomainError, match="spectral density at .* is out of float range"):
            scenarios._liouvillian(config, parts)
        assert [key[0] for key in parts] == ["hamiltonian", "radiative"]


def _full16_point(**changes):
    """The full16 point: fig4a's coupling at 1 K, driven at the dressed resonance 398 ueV."""
    fig4a = scenario_presets()["fig4a"]
    return dataclasses.replace(
        fig4a, name="full16", model="full16", drive=dataclasses.replace(fig4a.drive, detuning=398.0), **changes
    )


_ORACLE_RUNS = {
    **{name: (lambda name=name: scenario_presets()[name]) for name in ("fig3a", "fig3a_full9", "fig3b", "fig4a", "fig4b")},
    "full16": _full16_point,
    "fig3a_full9_random": lambda: dataclasses.replace(scenario_presets()["fig3a_full9"], initial_state="random", seed=5),
    "fig4a_random": lambda: dataclasses.replace(scenario_presets()["fig4a"], initial_state="random", seed=5),
    "full16_random": lambda: _full16_point(initial_state="random", seed=5),
}


@pytest.mark.parametrize("name", list(_ORACLE_RUNS))
def test_runs_match_the_unreduced_oracle(name):
    """Steady concurrence and leak within 1e-12 of the whole real generator's
    steady state, T0 within the T0 search's 2 % of the serial march in
    t_max / 256 steps, and every snapshot within 1e-11 of propagation by
    the whole real generator: two Padé evaluations differ by rounding, which
    200 steps compound to at most 4.3e-12 (full16, random start)."""
    config = _ORACLE_RUNS[name]()
    result = run_scenario(config)
    liouv = build_liouvillian(config)
    rho0 = initial_state(config, liouv.basis)
    steady = steady_state_by_point(liouv)
    conc, leak = qubit_concurrence(steady)
    assert abs(result.steady_concurrence - conc) <= 1e-12 and abs(result.steady_leak - leak) <= 1e-12
    assert np.abs(result.steady.matrix - steady.matrix).max() <= 1e-12
    t0, _ = serial_characteristic_time(liouv, rho0, config.epsilon_T0, scenarios._t0_ceiling_ns(config), steady)
    assert abs(result.t0_ns - t0) <= 0.02 * t0, (result.t0_ns, t0)
    step = dynamics._propagator(real_generator(liouv), config.times_ns()[1])
    x = to_real(rho0.matrix)
    for k, state in enumerate(result.trajectory.matrices):
        assert np.abs(state - from_real(x, liouv.dim)).max() <= 1e-11, k
        x = step @ x


@pytest.mark.parametrize("preset", list(sweep_presets()))
def test_sweep_presets_match_the_unreduced_oracle(preset, monkeypatch):
    inputs = []
    sweep = scenarios._sweep

    def recorded(config, grid_columns, points, configs):
        inputs.append((points, configs))
        return sweep(config, grid_columns, points, configs)

    monkeypatch.setattr(scenarios, "_sweep", recorded)
    fn, config, grids = sweep_presets()[preset]
    rows = fn(config, **grids).rows
    ((points, configs),) = inputs
    for row, want in zip(rows, sweep_rows_by_point(points, configs), strict=True):
        assert row[:-4] == want[:-4] and row[-1] == want[-1]
        (conc, t0, leak), (conc_want, t0_want, leak_want) = row[-4:-1], want[-4:-1]
        if want[-1]:
            assert all(math.isnan(v) for v in (conc, t0, leak))
        else:
            assert abs(conc - conc_want) <= 1e-12 and abs(leak - leak_want) <= 1e-12
            assert abs(t0 - t0_want) <= 0.02 * t0_want, (row, want)


@pytest.mark.parametrize("name, size", [("fig3a", 26), ("fig3a_full9", 45), ("fig4a", 50)])
@pytest.mark.parametrize("t_grid", [None, (0.0, 1.0, 5)])
def test_a_run_exponentiates_once_on_its_even_block(name, size, t_grid, monkeypatch):
    """The T0 march's Padé gives the run's grid step too, on the even block
    that the paper mixture occupies; also on the 1 ns grid, whose step is
    four march steps."""
    calls = []
    propagators = dynamics._propagators

    def counting(gens, t_ns, below):
        calls.append(gens.shape)
        return propagators(gens, t_ns, below)

    monkeypatch.setattr(dynamics, "_propagators", counting)
    config = scenario_presets()[name]
    run_scenario(config if t_grid is None else dataclasses.replace(config, t_grid=t_grid))
    assert calls == [(1, size, size)]


@pytest.mark.parametrize("t_grid, shift", [((0.0, 50.0, 201), 0), ((0.0, 1.0, 5), -2), ((0.0, 50.0, 2001), 3)])
def test_the_grid_step_a_t0_search_leaves_is_bitwise_its_pade(t_grid, shift):
    config = dataclasses.replace(scenario_presets()["fig3a_full9"], t_grid=t_grid)
    liouv = build_liouvillian(config)
    rho0 = initial_state(config, liouv.basis).matrix[None]
    steady = dynamics.steady_state(liouv).matrix[None]
    step, t_max = config.times_ns()[1], scenarios._t0_ceiling_ns(config)
    assert round(math.log2(t_max / 256 / step)) == shift
    dynamics._characteristic_times(
        [liouv], rho0, steady, np.array([config.epsilon_T0]), np.array([t_max]), np.array([step])
    )
    assert list(liouv.memo) == [(0, step)]
    assert np.array_equal(liouv.memo[0, step], dynamics._propagator(liouv.blocks[0], step))
