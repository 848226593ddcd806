import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as la

from conftest import (
    adiabatic_validity_by_labels,
    apply,
    dense_frame,
    dop853_reference,
    full16_config,
    propagator_expm,
    random_density,
    real_generator,
    serial_characteristic_time,
    to_real,
    trace_distance,
    unvectorize,
    vectorize,
)
from qdm import dynamics, operators, scenarios
from qdm.basis import BasisKind, state_vector
from qdm.dynamics import (
    NULL_SINGULAR_VALUE_TOL,
    adiabatic_validity,
    characteristic_time,
    evolve,
    steady_state,
)
from qdm.dissipators import assemble_liouvillian, spontaneous_collapse_ops
from qdm.errors import (
    ConvergenceTimeoutError,
    DegenerateSteadyStateError,
    DomainError,
    PositivityError,
)
from qdm.hamiltonians import build_effective_hamiltonian, build_full_hamiltonian
from qdm.operators import (
    DensityMatrix,
    Superoperator,
    trace_distance_matrices,
)
from qdm.params import HBAR_UEV_NS, CouplingParams, DriveParams
from qdm.scenarios import build_liouvillian, initial_state, scenario_presets


def test_zero_generator_is_identity_flow(basis6, paper_mixture):
    sup = Superoperator(basis6, np.zeros((36, 36)))
    traj = evolve(paper_mixture, sup, np.linspace(0.0, 10.0, 5))
    for m in traj.matrices:
        assert trace_distance_matrices(m, paper_mixture.matrix) < 1e-10


def test_evolve_requires_ascending_grid(liouv6, paper_mixture):
    with pytest.raises(DomainError):
        evolve(paper_mixture, liouv6, np.array([1.0, 2.0]))
    with pytest.raises(DomainError):
        evolve(paper_mixture, liouv6, np.array([0.0, 2.0, 2.0]))
    for grid in ([], [[0.0, 1.0], [2.0, 3.0]]):  # IndexError and ValueError before the check
        with pytest.raises(DomainError, match="nonempty 1-D grid"):
            evolve(paper_mixture, liouv6, grid)


def test_evolve_matches_propagator(liouv6, paper_mixture):
    reference = dop853_reference(liouv6, paper_mixture, 3.0)
    traj = evolve(paper_mixture, liouv6, np.array([0.0, 3.0]))
    direct = apply(propagator_expm(liouv6, 3.0), paper_mixture.matrix)
    for rho in (traj.final_state.matrix, direct):
        assert 0.5 * la.svdvals(rho - reference).sum() < 1e-8


def test_evolve_uniform_grid_computes_one_expm(liouv6, paper_mixture, monkeypatch):
    calls = []
    propagator = dynamics._propagator

    def counting_propagator(gen, t_ns):
        calls.append(gen.shape)
        return propagator(gen, t_ns)

    monkeypatch.setattr(dynamics, "_propagator", counting_propagator)
    # np.diff of this grid takes 9 distinct values, a few ULP apart
    traj = evolve(paper_mixture, liouv6, np.linspace(0.0, 30.0, 201))
    assert len(traj) == 201
    assert calls == [(26, 26)]  # the even block, which the mixture occupies alone


def test_evolve_nonuniform_grid_matches_propagator(liouv6, paper_mixture):
    ts = np.array([0.0, 2.0, 5.0, 12.0, 30.0, 50.0])
    traj = evolve(paper_mixture, liouv6, ts)
    for t, m in zip(ts, traj.matrices):
        direct = apply(propagator_expm(liouv6, t), paper_mixture.matrix)
        assert np.abs(m - direct).max() < 1e-12


def test_evolve_rejects_trace_loss(basis6, paper_mixture):
    leaky = Superoperator(basis6, -0.01 * np.eye(36))
    with pytest.raises(PositivityError, match="trace"):
        evolve(paper_mixture, leaky, np.linspace(0.0, 10.0, 5))


def test_import_leaves_scipy_integrate_unloaded():
    """Importing qdm and running fig4a loads no scipy module at all.

    scipy's wheel brings its own OpenBLAS, whose thread pool contends with
    numpy's; a scipy call anywhere in the pipeline would load it.
    """
    src = str(Path(dynamics.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    script = (
        "import sys, qdm; qdm.run_scenario(qdm.scenario_presets()['fig4a']); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_evolve_positivity_and_trace_along_trajectory(liouv6, paper_mixture):
    traj = evolve(paper_mixture, liouv6, np.linspace(0.0, 40.0, 41))
    for m in traj.matrices:
        assert la.eigvalsh(m).min() > -1e-8
        assert abs(m.trace() - 1) < 1e-8
    pops = np.array([traj.populations[lab] for lab in paper_mixture.basis.labels])
    np.testing.assert_allclose(pops.sum(axis=0), 1.0, atol=1e-8)


def test_propagator_identity_and_semigroup(liouv6):
    ident = dynamics._propagator(liouv6.matrix, 0.0)
    np.testing.assert_allclose(ident, np.eye(36), atol=1e-12)
    p1 = dynamics._propagator(liouv6.matrix, 1.3)
    p2 = dynamics._propagator(liouv6.matrix, 2.2)
    p3 = dynamics._propagator(liouv6.matrix, 3.5)
    assert np.abs(p1 @ p2 - p3).max() < 1e-9


def test_propagator_matches_scipy_expm():
    presets = scenario_presets()
    configs = [presets["fig3a"], presets["fig3a_full9"], presets["fig4a"]]
    configs.append(replace(presets["fig4a"], name="full16", model="full16"))
    for config in configs:
        sup = build_liouvillian(config)
        for t in (0.01, 0.195, 0.25, 5.0, 50.0):
            reference = la.expm(sup.matrix * (t / HBAR_UEV_NS))
            diff = np.abs(dynamics._propagator(sup.matrix, t) - reference).max()
            assert diff < 1e-9, (config.name, t, diff)
        assert np.array_equal(dynamics._propagator(sup.matrix, 0.0), np.eye(sup.matrix.shape[0]))


@pytest.mark.parametrize("name", ["fig3a", "fig3a_full9", "fig4a", "full16"])
def test_real_frame_propagator_matches_the_complex_one(name):
    config = full16_config() if name == "full16" else scenario_presets()[name]
    sup = build_liouvillian(config)
    frame = dense_frame(sup.dim)
    for t_ns in (0.195, 5.0):
        mapped = frame.conj().T @ dynamics._propagator(real_generator(sup), t_ns) @ frame
        for reference in (
            dynamics._propagator(sup.matrix, t_ns),
            la.expm(sup.matrix * (t_ns / HBAR_UEV_NS)),
        ):
            diff = np.abs(mapped - reference).max()
            assert diff < 1e-10 * np.abs(reference).max(), (name, t_ns, diff)


@pytest.mark.parametrize("name", ["fig3a", "fig3a_full9", "fig4a"])
def test_propagator_ladder_levels_are_bitwise_propagators(name):
    sup = build_liouvillian(scenario_presets()[name])
    times = np.array([0.107, 0.78125, 7.8125])
    for gen in (sup.matrix, real_generator(sup)):
        # one stack whose points take different squaring counts
        rungs, squarings = dynamics._propagators(np.array([gen] * len(times)), times, 20)
        assert 0 < squarings[0] < squarings[-1] <= 20
        for rung, s, t_ns in zip(rungs, squarings, times.tolist()):
            assert len(rung) == s + 1
            for k, level in enumerate(rung):
                assert np.array_equal(level, dynamics._propagator(gen, t_ns / 2**k)), (t_ns, k)


def test_kept_rungs_hold_no_square_of_the_stack_alive():
    sup = build_liouvillian(scenario_presets()["fig3a"])
    times = np.array([0.107, 0.78125, 7.8125])
    rungs, _ = dynamics._propagators(np.array([real_generator(sup)] * len(times)), times, 20)
    assert all(level.base is None and level.shape == (36, 36) for rung in rungs for level in rung)


def test_propagator_rejects_non_finite_generator(basis6, liouv6):
    gen = liouv6.matrix.copy()
    gen[0, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        dynamics._propagator(gen, 1.0)


def test_propagator_preserves_hermiticity(liouv6):
    p = Superoperator(liouv6.basis, dynamics._propagator(liouv6.matrix, 2.0))
    for seed in range(5):
        rho = random_density(6, 300 + seed)
        out = apply(p, rho)
        assert np.abs(out - out.conj().T).max() < 1e-10


def test_steady_state_is_the_singlet(liouv6, basis6):
    ss = steady_state(liouv6)
    a01 = state_vector(basis6, "A01")
    target = np.outer(a01, a01.conj())
    assert 0.5 * la.svdvals(ss.matrix - target).sum() < 1e-6


def test_steady_state_degenerate_without_drive(basis6):
    drive = DriveParams(omega=0.0, omega_m=0.0)
    h = build_effective_hamiltonian(drive, CouplingParams())
    cs = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, basis6)
    with pytest.raises(DegenerateSteadyStateError):
        steady_state(assemble_liouvillian(h, cs))


@pytest.mark.parametrize("name", ["fig3a_full9", "fig4a", "full16"])
def test_steady_state_matches_null_space(name):
    config = full16_config() if name == "full16" else scenario_presets()[name]
    sup = build_liouvillian(config)
    null = la.null_space(sup.matrix)
    assert null.shape[1] == 1

    def density(vec):
        rho = unvectorize(vec, sup.dim)
        rho = rho / rho.trace()
        return (rho + rho.conj().T) / 2

    # The SVD's null vector is off by up to eps * sigma_max / sigma_gap, 4e-10
    # at full16, where it moved by 1.3e-10 when the generator moved by 3e-19
    # relative; one refinement step with the SVD's pseudo-inverse brings it
    # to the rounding of L v (7e-14 from the direct solve at full16).
    refined = null[:, 0] - la.pinv(sup.matrix) @ (sup.matrix @ null[:, 0])
    steady = steady_state(sup).matrix
    assert 0.5 * la.svdvals(steady - density(refined)).sum() < 1e-10
    # the direct solve is more accurate than the SVD's null vector
    residual = lambda m: np.linalg.norm(sup.matrix @ vectorize(m))
    assert residual(steady) <= residual(density(null[:, 0]))


def test_steady_state_degenerate_full16_without_tunneling():
    # built directly: ScenarioConfig rejects full16 at zero t_e for this reason
    config = full16_config()
    drive = config.drive
    h = build_full_hamiltonian(drive, replace(config.coupling, t_e=0.0), BasisKind.FULL16)
    cs = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, h.basis)
    liouv = assemble_liouvillian(h, cs)
    with pytest.raises(DegenerateSteadyStateError, match="block may be singular"):
        steady_state(liouv)
    # the SVD oracle: the null space has 4 dimensions
    assert (np.linalg.svd(real_generator(liouv), compute_uv=False) < NULL_SINGULAR_VALUE_TOL).sum() == 4


#: Zero drive, zero decay and zero modulation on seven setups. The pairs in
#: _PROBES_SOLVED have a unique steady state; every other probe is degenerate.
_PROBE_DRIVES = {"omega": {"omega": 0.0}, "gamma": {"gamma0": 0.0, "gamma1": 0.0}, "omega_m": {"omega_m": 0.0}}
_PROBE_SETUPS = ("fig3a", "fig3a_full9", "fig4a", "fig4a_no_phonons", "full16", "full16_no_phonons", "full9_2K")
_PROBES_SOLVED = {("fig3a_full9", "omega_m"), ("full16", "gamma"), ("full16", "omega_m"),
                  ("full16_no_phonons", "omega_m"), ("full9_2K", "gamma"), ("full9_2K", "omega_m")}


@pytest.mark.parametrize("probe", list(_PROBE_DRIVES))
@pytest.mark.parametrize("setup", _PROBE_SETUPS)
def test_degeneracy_probes_keep_their_verdicts(setup, probe):
    presets = scenario_presets()
    full16 = full16_config(398.0)
    config = {
        "fig4a_no_phonons": replace(presets["fig4a"], phonons=False),
        "full16": full16,
        "full16_no_phonons": replace(full16, phonons=False),
        "full9_2K": replace(presets["fig3a_full9"], phonons=True, temperature=2.0),
    }.get(setup) or presets[setup]
    liouv = build_liouvillian(replace(config, drive=replace(config.drive, **_PROBE_DRIVES[probe])))
    if (setup, probe) in _PROBES_SOLVED:
        steady_state(liouv)
    else:
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(liouv)


def test_steady_state_agrees_with_long_time_limit(liouv6, paper_mixture):
    traj = evolve(paper_mixture, liouv6, np.array([0.0, 200.0]))
    assert trace_distance(traj.final_state, steady_state(liouv6)) < 1e-6


def test_characteristic_time_zero_at_steady_state(liouv6):
    ss = steady_state(liouv6)
    assert characteristic_time(liouv6, ss, epsilon=0.01) == 0.0


def test_characteristic_time_reuses_the_march_pade(liouv6, paper_mixture, monkeypatch):
    calls = []
    propagators = dynamics._propagators

    def counting_propagators(gens, t_ns, below):
        rungs, squarings = propagators(gens, t_ns, below)
        calls.extend(zip(t_ns.tolist(), squarings))
        return rungs, squarings

    monkeypatch.setattr(dynamics, "_propagators", counting_propagators)
    steady = steady_state(liouv6)

    def dist(t_ns):
        rho = apply(propagator_expm(liouv6, t_ns), paper_mixture.matrix)
        return trace_distance(DensityMatrix(liouv6.basis, rho), steady)

    # bisection depths 1 and 4 stay within the march step's 2 and 5 squarings,
    # which supply every half step; a crossing in the first coarse step
    # bisects to depth 17, below the 8 squarings of a 7.8 ns step
    for t_max, want in ((None, [2]), (200.0, [5]), (2000.0, [8, 0])):
        calls.clear()
        t0 = characteristic_time(liouv6, paper_mixture, epsilon=0.1, t_max_ns=t_max)
        assert [squarings for _, squarings in calls] == want
        if len(calls) == 2:
            assert calls[0][0] / calls[1][0] == 2**17
        # t0 is the crossing to 1%
        assert dist(0.99 * t0) > 0.1 >= dist(t0)


def test_characteristic_time_paper_scale(liouv6, paper_mixture):
    t0 = characteristic_time(liouv6, paper_mixture, epsilon=0.1)
    assert abs(t0 - 5.5) <= 0.5 * 5.5


def test_characteristic_time_shrinks_with_stronger_drive(paper_mixture, basis6):
    times = {}
    for omega in (10.0, 40.0):
        drive = DriveParams(omega=omega, omega_m=0.45 * omega)
        h = build_effective_hamiltonian(drive, CouplingParams())
        cs = spontaneous_collapse_ops(drive.gamma0, drive.gamma1, basis6)
        sup = assemble_liouvillian(h, cs)
        times[omega] = characteristic_time(sup, paper_mixture, epsilon=0.1)
    assert times[40.0] <= times[10.0]


def test_characteristic_time_timeout(liouv6, paper_mixture, monkeypatch):
    with pytest.raises(ConvergenceTimeoutError):
        characteristic_time(liouv6, paper_mixture, epsilon=1e-9, t_max_ns=1.0)
    # the bounds are checked before the steady state is solved
    monkeypatch.setattr(np.linalg, "inv", None)
    with pytest.raises(DomainError):
        characteristic_time(liouv6, paper_mixture, epsilon=1.5)
    # a ceiling at or below 0 marched backwards into a timeout, a non-finite
    # one reached the propagator as a non-finite norm
    for t_max_ns in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(DomainError, match="t_max_ns must be positive and finite"):
            characteristic_time(liouv6, paper_mixture, t_max_ns=t_max_ns)


@pytest.mark.parametrize("k", [1, 16, 17, 256])
def test_blocked_march_matches_serial_march(liouv6, paper_mixture, k):
    eps = 0.1
    steady = steady_state(liouv6)

    def dist(t):
        rho = apply(propagator_expm(liouv6, t), paper_mixture.matrix)
        return trace_distance(DensityMatrix(liouv6.basis, rho), steady)

    lo, hi = 1.0, 20.0  # the crossing, resolved far below one coarse step
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if dist(mid) <= eps else (mid, hi)
    # put the crossing half-way into coarse step k
    t_max = dynamics._COARSE_STEPS * hi / (k - 0.5)
    want = serial_characteristic_time(liouv6, paper_mixture, eps, t_max)
    assert want is not None and want[1] == k
    assert characteristic_time(liouv6, paper_mixture, eps, t_max, steady) == want[0]


def test_blocked_march_times_out_where_serial_march_does(liouv6, paper_mixture):
    assert serial_characteristic_time(liouv6, paper_mixture, 0.1, 2.0) is None
    with pytest.raises(ConvergenceTimeoutError):
        characteristic_time(liouv6, paper_mixture, epsilon=0.1, t_max_ns=2.0)


def test_trace_distance_bounds_the_real_frame_norm():
    # the screen of `_within`: D >= ||x - y|| / sqrt(2) for a traceless
    # Hermitian difference, with equality on rank-2 differences
    rng = np.random.default_rng(7)
    for dim in (2, 4, 6, 9, 16):
        for seed in range(20):
            m1, m2 = random_density(dim, 1000 * dim + seed), random_density(dim, 2000 * dim + seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = g + g.conj().T
            h -= np.trace(h) / dim * np.eye(dim)
            for a, b in ((m1, m2), (h, np.zeros((dim, dim)))):
                norm = np.linalg.norm(to_real(a) - to_real(b))
                assert trace_distance_matrices(a, b) >= norm / np.sqrt(2) * (1 - 1e-12)
            # a (|u><u| - |v><v|) with u, v orthonormal
            q, _ = np.linalg.qr(g)
            u, v = q[:, 0], q[:, 1]
            delta = rng.uniform(0.01, 1.0) * (np.outer(u, u.conj()) - np.outer(v, v.conj()))
            norm = np.linalg.norm(to_real(delta))
            d = trace_distance_matrices(delta, np.zeros((dim, dim)))
            assert abs(d - norm / np.sqrt(2)) <= 1e-12 * d


def _t0_config(name):
    """A preset, the full16 point, or fig3b at the i-th of its 15 omega_m points."""
    if name == "full16":
        return full16_config()
    presets = scenario_presets()
    if name in presets:
        return presets[name]
    fig3b = presets["fig3b"]
    omega = fig3b.drive.omega
    omega_m = np.linspace(0.1 * omega, omega, 15).tolist()[int(name.rsplit("_", 1)[1])]
    return replace(fig3b, drive=replace(fig3b.drive, omega_m=omega_m))


@pytest.mark.parametrize(
    "name", ["fig3a_full9", "fig4a", "full16"] + [f"fig3b_omega_m_{i}" for i in range(15)]
)
def test_screened_t0_equals_the_serial_eigensolver_march(name):
    config = _t0_config(name)
    liouv = build_liouvillian(config)
    rho0 = initial_state(config, liouv.basis)
    eps, t_max = config.epsilon_T0, scenarios._t0_ceiling_ns(config)
    want = serial_characteristic_time(liouv, rho0, eps, t_max)
    if want is None:
        with pytest.raises(ConvergenceTimeoutError):
            characteristic_time(liouv, rho0, eps, t_max)
    else:
        assert characteristic_time(liouv, rho0, eps, t_max) == want[0]


def test_screen_keeps_a_timed_out_march_off_the_eigensolver(monkeypatch):
    rows = []
    distance = dynamics.trace_distance_matrices

    def counting(m1, m2):
        rows.append(m1.shape[0])
        return distance(m1, m2)

    monkeypatch.setattr(dynamics, "trace_distance_matrices", counting)
    config = _t0_config("fig3b_omega_m_0")  # omega_m = 0.1 omega
    liouv = build_liouvillian(config)
    rho0 = initial_state(config, liouv.basis)
    with pytest.raises(ConvergenceTimeoutError):
        characteristic_time(liouv, rho0, config.epsilon_T0, scenarios._t0_ceiling_ns(config))
    assert sum(rows) == 0


def test_stacked_steady_state_keeps_a_non_finite_generator_to_its_point(liouv6):
    # a NaN reached LAPACK, whose failure read as "SVD did not converge" or,
    # from `inv`, as a singular matrix, a degeneracy it is not
    broken = Superoperator(liouv6.basis, np.full((36, 36), np.nan))
    with pytest.raises(DomainError, match="generator has non-finite entries"):
        steady_state(broken)
    alone = steady_state(liouv6).matrix
    first, failed, last = steady_state([liouv6, broken, liouv6])
    assert isinstance(failed, DomainError) and "non-finite" in str(failed)
    assert first.tobytes() == last.tobytes() == alone.tobytes()


def test_inverse_bounds_near_the_float_maximum_raise_no_warning():
    # entries of 1e307: ||M||_F is past the float range and reads inf, which
    # fails the rounding floor; the bound stays a bound
    m = np.full((1, 26, 26), 1e307) + 1e306 * np.eye(26)
    _, (bound,), (norm,) = dynamics._inverses(m)
    assert norm == np.inf and 0.0 < bound <= np.linalg.svd(m[0], compute_uv=False)[-1]


def test_stacked_t0_search_keeps_each_failure_to_its_point(liouv6, paper_mixture):
    steady = steady_state(liouv6)
    alone = characteristic_time(liouv6, paper_mixture, 0.1, 30.0, steady)
    solved, rejected, timed_out = characteristic_time(
        [liouv6] * 3,
        np.array([paper_mixture.matrix] * 3),
        epsilon=0.1,
        t_max_ns=[30.0, np.inf, 2.0],
        steady=np.array([steady.matrix] * 3),
    )
    assert solved == alone
    assert isinstance(rejected, DomainError) and "t_max_ns" in str(rejected)
    assert isinstance(timed_out, ConvergenceTimeoutError)
    # a point that starts at its steady state leaves the march to the others
    states = np.array([steady.matrix, paper_mixture.matrix])
    assert characteristic_time([liouv6] * 2, states, 0.1, 30.0, np.array([steady.matrix] * 2)) == [0.0, alone]


def test_stacked_t0_search_mixes_squaring_counts_bitwise(monkeypatch):
    # ceilings 2, 30 and 2000 ns on fig3a: a timeout, an ordinary crossing and
    # a first-step crossing that bisects past the kept squarings into a second
    # Padé; then a point that starts at its steady state. The stack is squared
    # for its largest count, and every point keeps only its own squares
    config = scenario_presets()["fig3a"]
    liouv = build_liouvillian(config)
    rho0, steady = initial_state(config, liouv.basis), steady_state(liouv)
    eps, ceilings = config.epsilon_T0, [2.0, 30.0, 2000.0, 30.0]
    starts = [rho0, rho0, rho0, steady]

    def alone(start, t_max):
        try:
            return characteristic_time(liouv, start, eps, t_max, steady)
        except ConvergenceTimeoutError as exc:
            return exc

    want = [alone(start, t_max) for start, t_max in zip(starts, ceilings)]
    calls = []
    propagators = dynamics._propagators

    def counting_propagators(gens, t_ns, below):
        rungs, squarings = propagators(gens, t_ns, below)
        calls.append(squarings)
        return rungs, squarings

    monkeypatch.setattr(dynamics, "_propagators", counting_propagators)
    got = characteristic_time(
        [liouv] * 4, np.array([s.matrix for s in starts]), eps, ceilings, np.array([steady.matrix] * 4)
    )
    assert len(set(calls[0])) == 3 and calls[1:] == [[0]]  # one stack, then the second Padé
    assert isinstance(want[0], ConvergenceTimeoutError) and want[3] == 0.0
    for g, w in zip(got, want):
        if isinstance(w, Exception):
            assert type(g) is type(w) and str(g) == str(w)
        else:
            assert type(g) is float and g.hex() == w.hex()


def test_stacked_t0_search_rejects_missing_or_misshaped_states(liouv6, paper_mixture):
    steady = steady_state(liouv6).matrix
    rho0s = np.array([paper_mixture.matrix] * 2)
    with pytest.raises(DomainError, match="needs its steady states"):
        characteristic_time([liouv6] * 2, rho0s)
    with pytest.raises(DomainError, match="stacks"):
        characteristic_time([liouv6] * 2, rho0s, steady=steady)
    with pytest.raises(DomainError, match="stacks"):
        characteristic_time([liouv6] * 2, rho0s[:1], steady=np.array([steady] * 2))
    with pytest.raises(DomainError, match="no generators"):
        characteristic_time([], rho0s[:0], steady=rho0s[:0])


def test_t0_search_checks_the_states_it_takes(liouv6, paper_mixture):
    steady = steady_state(liouv6)
    rho0s, steadies = np.array([paper_mixture.matrix]), np.array([steady.matrix])
    # a stack of non-finite or trace-2 states raises for the whole call, not
    # as a timeout of its point; the caller's stacks are left alone
    for bad in (np.full((1, 6, 6), np.nan), 2.0 * rho0s):
        before = bad.copy()
        with pytest.raises(PositivityError):
            characteristic_time([liouv6], bad, steady=steadies)
        with pytest.raises(PositivityError):
            characteristic_time([liouv6], rho0s, steady=bad)
        np.testing.assert_array_equal(bad, before)
    # one generator takes DensityMatrix states only
    with pytest.raises(DomainError, match="DensityMatrix"):
        characteristic_time(liouv6, paper_mixture.matrix)
    with pytest.raises(DomainError, match="DensityMatrix"):
        characteristic_time(liouv6, paper_mixture, steady=steady.matrix)
    assert characteristic_time([liouv6], rho0s, steady=steadies) == [characteristic_time(liouv6, paper_mixture)]


def test_one_generator_search_checks_type_then_bounds_then_steady_state():
    fig3a = scenario_presets()["fig3a"]
    config = replace(fig3a, drive=replace(fig3a.drive, omega=0.0))
    liouv = build_liouvillian(config)
    rho0 = initial_state(config, liouv.basis)
    with pytest.raises(DomainError, match="DensityMatrix"):
        characteristic_time(liouv, rho0.matrix, epsilon=1.5)
    with pytest.raises(DomainError, match="epsilon"):
        characteristic_time(liouv, rho0, epsilon=1.5)
    # without a unique steady state there is nothing to search towards
    with pytest.raises(DegenerateSteadyStateError):
        characteristic_time(liouv, rho0)


def test_stacked_solves_give_b_the_rank_of_a(liouv6, paper_mixture, monkeypatch):
    # numpy 1.x reads a b of rank a.ndim - 1 as a stack of vectors
    ranks = []

    def recorded(a, b, _solve=np.linalg.solve):
        ranks.append((a.ndim, np.ndim(b)))
        return _solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    steady_state([liouv6] * 2)
    steady = steady_state(liouv6)
    characteristic_time(liouv6, paper_mixture, steady=steady)
    assert ranks and all(a == b for a, b in ranks), ranks


def test_steady_states_are_checked_once(liouv6, monkeypatch):
    calls = []

    def counted(stack, _check=operators.physical_states):
        calls.append(len(stack))
        return _check(stack)

    monkeypatch.setattr(operators, "physical_states", counted)
    monkeypatch.setattr(dynamics, "physical_states", counted)
    steady_state(liouv6)
    assert calls == [1]
    calls.clear()
    steady_state([liouv6] * 3)
    assert calls == [3]
    calls.clear()
    result = scenarios.run_scenario(scenario_presets()["fig3a"])
    # the steady state once, then the initial state and the trajectory stack
    assert calls.count(1) == 2 and calls.count(len(result.trajectory)) == 1


def test_characteristic_time_rejects_states_on_another_basis():
    presets = scenario_presets()
    liouv = build_liouvillian(presets["fig3a"])
    full9 = build_liouvillian(presets["fig3a_full9"])
    rho9 = initial_state(presets["fig3a_full9"], full9.basis)
    with pytest.raises(DomainError, match="bases differ"):
        characteristic_time(liouv, rho9)
    rho6 = initial_state(presets["fig3a"], liouv.basis)
    with pytest.raises(DomainError, match="bases differ"):
        characteristic_time(liouv, rho6, steady=steady_state(full9))


def test_evolve_eigensolver_calls_do_not_grow_with_the_grid(monkeypatch):
    cfg = scenario_presets()["fig3a"]
    liouv = build_liouvillian(cfg)
    rho0 = initial_state(cfg, liouv.basis)
    calls = []

    def counting(name):
        solver = getattr(np.linalg, name)

        def counted(*args, **kwargs):
            calls.append((name, args[0].shape))
            return solver(*args, **kwargs)

        return counted

    for name in ("cholesky", "eigvalsh", "eigvals", "eigh", "svd"):
        monkeypatch.setattr(np.linalg, name, counting(name))
    counts = []
    for grid in (cfg.times_ns(), np.linspace(0.0, cfg.times_ns()[-1], 801)):
        calls.clear()
        evolve(rho0, liouv, grid)
        counts.append(len(calls))
        n = len(grid)
        # one batched positivity screen of the states, and for the concurrence
        # one batched eigh of the qubit blocks and one eigvalsh of their 8x8
        # embeddings: no svd, and no eigensolver on the (n, 6, 6) stack
        assert calls == [("cholesky", (n, 6, 6)), ("eigh", (n, 4, 4)), ("eigvalsh", (n, 8, 8))]
    assert len(cfg.times_ns()) == 201
    assert counts == [3, 3]


def test_initial_state_independence(liouv6, basis6):
    finals = []
    for seed in (5, 6, 7):
        rho0 = DensityMatrix(basis6, random_density(6, seed))
        finals.append(evolve(rho0, liouv6, np.array([0.0, 200.0])).final_state)
    for i, a in enumerate(finals):
        for b in finals[i + 1:]:
            assert trace_distance(a, b) < 1e-6


def test_late_time_concurrence_monotone(liouv6, paper_mixture):
    traj = evolve(paper_mixture, liouv6, np.linspace(0.0, 50.0, 201))
    t0 = characteristic_time(liouv6, paper_mixture, epsilon=0.1)
    tail = traj.concurrence[traj.times > t0]
    assert np.diff(tail).min() > -1e-6


def test_adiabatic_validity_without_drive():
    from qdm.scenarios import ScenarioConfig, build_liouvillian, initial_state

    cfg = ScenarioConfig(
        name="no-drive",
        model="full9",
        drive=DriveParams(omega=0.0),
    )
    sup = build_liouvillian(cfg)
    rho0 = initial_state(cfg, sup.basis)
    assert adiabatic_validity(sup, rho0, np.linspace(0.0, 20.0, 21)) < 1e-10


def test_adiabatic_validity_grows_when_hierarchy_breaks():
    import dataclasses

    from qdm.scenarios import build_liouvillian, initial_state, scenario_presets

    base = scenario_presets()["fig3a_full9"]
    values = []
    for vf in (200.0, 100.0, 40.0):
        cfg = dataclasses.replace(
            base,
            drive=dataclasses.replace(base.drive, detuning=vf),
            coupling=dataclasses.replace(base.coupling, v_f=-vf),
        )
        sup = build_liouvillian(cfg)
        values.append(
            adiabatic_validity(sup, initial_state(cfg, sup.basis), np.linspace(0.0, 50.0, 26))
        )
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize("case", ["fig3a_full9", "fig4a", "full16"])
def test_adiabatic_validity_matches_the_eliminated_state_sum(case):
    if case == "full16":  # dressed resonance at 398 ueV, phonons at 1 K
        cfg = full16_config()
        cfg = replace(cfg, drive=replace(cfg.drive, detuning=398.0))
    else:
        cfg = scenario_presets()[case]
    sup = build_liouvillian(cfg)
    rho0 = initial_state(cfg, sup.basis)
    grid = np.linspace(0.0, 50.0, 51)
    got = adiabatic_validity(sup, rho0, grid)
    assert abs(got - adiabatic_validity_by_labels(sup, rho0, grid)) <= 1e-10


def test_adiabatic_validity_rejects_effective6(liouv6, paper_mixture):
    with pytest.raises(DomainError):
        adiabatic_validity(liouv6, paper_mixture, np.linspace(0.0, 1.0, 3))


def test_evolve_leaves_the_time_grid_writable(liouv6, paper_mixture):
    grid = np.linspace(0.0, 1.0, 5)
    traj = evolve(paper_mixture, liouv6, grid)
    grid[1] = 0.3
    assert traj.times[1] == 0.25
    assert not traj.times.flags.writeable


def test_final_state_is_the_last_snapshot_bitwise(liouv6, paper_mixture):
    traj = evolve(paper_mixture, liouv6, np.linspace(0.0, 30.0, 201))
    assert traj.final_state.basis == traj.basis == paper_mixture.basis
    assert traj.final_state.matrix.tobytes() == traj.matrices[-1].tobytes()
    # the populations view the stack, so they are as read-only as it is
    for arr in (traj.matrices, *traj.populations.values()):
        assert not arr.flags.writeable


def test_evolve_builds_no_density_matrix_per_snapshot(monkeypatch):
    cfg = scenario_presets()["fig3a"]
    liouv = build_liouvillian(cfg)
    rho0 = initial_state(cfg, liouv.basis)
    built = []
    post_init = DensityMatrix.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counted)
    for grid in (cfg.times_ns(), np.linspace(0.0, cfg.times_ns()[-1], 801)):
        traj = evolve(rho0, liouv, grid)
        assert traj.matrices.shape == (len(grid), 6, 6)
    assert built == []
