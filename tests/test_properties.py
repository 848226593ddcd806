"""Properties every configuration that ScenarioConfig accepts must satisfy."""

import numpy as np
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from conftest import trace_preservation_defect
from qdm.basis import state_vector
from qdm.dynamics import evolve, steady_state
from qdm.entanglement import qubit_concurrence
from qdm.errors import ConfigError, DegenerateSteadyStateError
from qdm.operators import vectorize
from qdm.params import CouplingParams, DriveParams
from qdm.scenarios import ScenarioConfig, build_liouvillian, initial_state


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
