import dataclasses
import math
import random

import numpy as np
import pytest

from conftest import sweep_rows_by_point
from qdm import scenarios
from qdm.dynamics import NULL_SINGULAR_VALUE_TOL
from qdm.errors import ConfigError, DegenerateSteadyStateError, QdmError
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
    presets = scenario_presets()
    configs = dict(presets)
    # the full16 point of the dressed resonance, the largest generator
    configs["full16"] = dataclasses.replace(
        presets["fig4a"], model="full16", drive=dataclasses.replace(presets["fig4a"].drive, detuning=398.0)
    )
    for name, config in configs.items():
        sigma_max = np.linalg.svd(build_liouvillian(config).real_matrix, compute_uv=False)[0]
        floor = np.finfo(float).eps * sigma_max
        assert floor < 1e-2 * NULL_SINGULAR_VALUE_TOL, (name, floor)


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
    assert "null singular values" in failed[-1] and math.isnan(failed[4])
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
    """Make every sweep also compute its rows point by point; return the list
    of (stacked rows, point-by-point rows) it fills."""
    pairs = []
    sweep = scenarios._sweep

    def both(config, grid_columns, points, configs):
        result = sweep(config, grid_columns, points, configs)
        pairs.append((result.rows, sweep_rows_by_point(points, configs)))
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
    assert all("null singular values" in e for e in errors[0::2])
    assert all("not within" in e for e in errors[1:4:2]) and errors[5] == ""
    ((rows, want),) = pairs
    assert _reprs(rows) == _reprs(want)


def test_sweep_stacks_stay_under_the_byte_cap(monkeypatch):
    shapes = []
    for name in ("svd", "solve"):
        def recorded(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            if a.ndim == 3:
                shapes.append(a.shape)
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    presets = scenario_presets()
    sweep_T0(presets["fig3b"], [20.0], np.linspace(2.0, 20.0, 15).tolist(), [1.2])
    sweep_temperature(presets["fig4b"], [0.0, 1.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0])
    sweep_T0(presets["fig3a_full9"], [20.0], [6.0, 9.0, 12.0], [1.2])
    for n, d2, _ in shapes:
        assert n == 1 or n * d2 * d2 * 8 <= scenarios._STACK_BYTES, (n, d2)
    assert {(12, 36), (4, 64), (2, 81)} <= {shape[:2] for shape in shapes}


def test_sweeps_call_each_solver_layer_once_per_chunk(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(scenarios, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("steady_state", "characteristic_time", "initial_state"):
        monkeypatch.setattr(scenarios, name, counted(name))
    presets = scenario_presets()
    # 15 effective6 points in chunks of 12
    sweep_T0(presets["fig3b"], [20.0], np.linspace(2.0, 20.0, 15).tolist(), [1.2])
    assert calls.count("steady_state") == calls.count("characteristic_time") == 2
    assert calls.count("initial_state") == 1
    calls.clear()
    # 5 effective6 points at t_e = 0, and 15 effective8 points in chunks of 4
    sweep_temperature(presets["fig4b"], [0.0, 0.5, 1.0, 2.0, 4.0], [0.0, 1000.0, 2000.0, 3000.0])
    assert calls.count("steady_state") == calls.count("characteristic_time") == 5
    assert calls.count("initial_state") == 2
