"""Properties every configuration that ScenarioConfig accepts must satisfy."""

import math
from dataclasses import fields, replace

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conftest import trace_preservation_defect, vectorize
from qdm.basis import state_vector
from qdm.dynamics import evolve, steady_state
from qdm.entanglement import qubit_concurrence
from qdm.errors import ConfigError, DegenerateSteadyStateError, QdmError
from qdm.params import CouplingParams, DriveParams
from qdm.scenarios import (
    ScenarioConfig,
    _solve,
    _sweep,
    build_liouvillian,
    initial_state,
    scenario_presets,
)


@st.composite
def configs(draw):
    model = draw(st.sampled_from(("effective6", "effective8", "full9", "full16")))
    phonons = draw(st.booleans())
    tunneling = draw(st.booleans())
    temperature = draw(st.floats(0.0, 4.0))
    init = draw(st.sampled_from(("paper_mixture", "ground_00", "random")))
    drive = DriveParams(
        omega=draw(st.floats(1.0, 40.0)),
        omega_m=draw(st.floats(1.0, 20.0)),
        detuning=draw(st.floats(150.0, 450.0)),
    )
    coupling = CouplingParams.from_delta(
        v_f=-200.0,
        v_xx=3000.0,
        t_e=draw(st.sampled_from((0.0, 1000.0, 2000.0, 3000.0))),
        delta=-20000.0,
    )
    try:
        return ScenarioConfig(
            model=model,
            drive=drive,
            coupling=coupling,
            temperature=temperature,
            phonons=phonons,
            tunneling=tunneling,
            initial_state=init,
            seed=draw(st.integers(0, 2**16)),
        )
    except ConfigError:
        reject()


@settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(configs())
def test_every_accepted_config_is_physical(config):
    liouv = build_liouvillian(config)
    d = liouv.dim
    m = liouv.matrix

    assert trace_preservation_defect(liouv) < 1e-10
    # L(X^dag) = L(X)^dag: in column stacking, entry [(i,j),(k,l)] is the
    # conjugate of entry [(j,i),(l,k)]
    blocks = m.reshape(d, d, d, d)
    assert np.abs(blocks - blocks.transpose(1, 0, 3, 2).conj()).max() < 1e-10
    if config.model == "effective6":
        a01 = state_vector(liouv.basis, "A01")
        assert np.abs(m @ vectorize(np.outer(a01, a01.conj()))).max() < 1e-14

    # effective8's t levels decouple without tunneling and trap population
    decoupled = config.model == "effective8" and (
        not config.tunneling or config.coupling.t_e == 0.0
    )
    try:
        steady = steady_state(liouv)
    except DegenerateSteadyStateError:
        assert decoupled
    else:
        assert not decoupled
        c, leak = qubit_concurrence(steady)
        assert 0.0 <= c <= 1.0
        assert 0.0 <= leak <= 1.0

    # every snapshot is validated as a density matrix: a PositivityError fails here
    evolve(initial_state(config, liouv.basis), liouv, np.linspace(0.0, 2.0, 3))


#: Values mixed into the preset fields: zero, finite ones at both ends of the
#: float range, and the non-finite ones. Construction rejects the last
#: always, so they are drawn a fifth of the time.
_EXTREMES = (0.0, 1e300, -1e300, 1e-300) * 3 + (math.nan, math.inf, -math.inf)
_FIELDS = [
    (record, f.name)
    for record in ("drive", "coupling", "geometry", "material")
    for f in fields(getattr(ScenarioConfig(), record))
] + [(None, "temperature"), (None, "epsilon_T0")]


@st.composite
def extreme_changes(draw):
    """A preset name, and one to four of its fields, each with an extreme value."""
    name = draw(st.sampled_from(sorted(scenario_presets())))
    return name, draw(st.dictionaries(st.sampled_from(_FIELDS), st.sampled_from(_EXTREMES), min_size=1, max_size=4))


def _changed(config, changes):
    for (record, name), value in changes.items():
        if record is None:
            config = replace(config, **{name: value})
        else:
            config = replace(config, **{record: replace(getattr(config, record), **{name: value})})
    return config


@settings(
    max_examples=150,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(extreme_changes())
def test_every_extreme_config_is_rejected_or_solved(drawn):
    # under the suite's RuntimeWarning gate: no float overflow may escape either
    name, changes = drawn
    preset = scenario_presets()[name]
    try:
        config = _changed(preset, changes)
    except ConfigError:
        return
    ((_, outcome),) = _solve([config])
    assert isinstance(outcome, (tuple, QdmError)), repr(outcome)
    # a two-point sweep holding the point returns both rows, and the preset's
    # row is the one it gets when swept alone
    extreme, neighbour = _sweep(preset, ("point",), [(0,), (1,)], [config, preset]).rows
    assert (extreme[-1] != "") == isinstance(outcome, QdmError)
    assert neighbour == _sweep(preset, ("point",), [(1,)], [preset]).rows[0]
