"""Time evolution, steady states, and characteristic-time extraction.

Times at the API are nanoseconds; internally the generator acts in the
hbar = 1 unit system, so every entry point converts through HBAR_UEV_NS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, ModelBasis, effective6, state_vector
from .entanglement import qubit_concurrences
from .errors import ConvergenceTimeoutError, DegenerateSteadyStateError, DomainError
from .operators import (
    DensityMatrix,
    Superoperator,
    physical_states,
    trace_distance_matrices,
    unvectorize_real,
    vectorize_real,
)
from .params import HBAR_UEV_NS

#: A singular value of the generator below this counts as null.
NULL_SINGULAR_VALUE_TOL = 1e-9
STEADY_RESIDUAL_TOL = 1e-9

#: Default scan ceiling, 50 hbar / Gamma at the reference decay rate 1.2 ueV.
DEFAULT_T_MAX_NS = 50.0 * HBAR_UEV_NS / 1.2

_COARSE_STEPS = 256
_MARCH_BLOCK = 16  # coarse steps per batched distance evaluation
#: Relative slack on the norm screen of `_within`, for rounding and the
#: ~1e-14 trace drift of propagated states.
_SCREEN_SLACK = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of a master-equation run on a fixed time grid: row k of the
    (n, d, d) stack `matrices` is the state on `basis` at `times[k]`."""

    basis: ModelBasis
    times: np.ndarray
    matrices: np.ndarray
    concurrence: np.ndarray
    leak: np.ndarray
    populations: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        for arr in (self.times, self.concurrence, self.leak, self.matrices, *self.populations.values()):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> DensityMatrix:
        return DensityMatrix(self.basis, self.matrices[-1])


#: Padé [13/13] coefficients b_0..b_13, and the 1-norm up to which that
#: approximant's backward error stays below unit roundoff (Higham, SIAM J.
#: Matrix Anal. Appl. 26, 1179 (2005)).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA_13 = 5.371920351148152


def _propagators(gen: np.ndarray, t_ns: float) -> list[np.ndarray]:
    """[exp(gen t / 2^s), ..., exp(gen t)], `t_ns` in ns, real or complex: the
    Padé core and its s squarings. As scaling by 2^-s is exact, entry k is
    bitwise the propagator that a call over t / 2^(s - k) returns.

    Padé [13/13] with scaling and squaring, on numpy's BLAS only. No module
    of the package may call SciPy's linalg: its wheel loads a second OpenBLAS
    whose idle threads spin on the cores numpy's threads need, and switching
    between the two libraries made a sweep three times slower.
    """
    a = gen * (t_ns / HBAR_UEV_NS)
    norm = float(np.abs(a).sum(axis=0).max())
    if not math.isfinite(norm):
        raise DomainError(f"generator over {t_ns} ns has a non-finite norm")
    ident = np.eye(a.shape[0], dtype=a.dtype)
    if norm == 0.0:
        return [ident]
    s = math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0
    a = a / 2.0**s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    # (V - U)^-1 (V + U), written as I + 2 (V - U)^-1 U: the identity stays
    # exact, so the trace row drifts less over the squarings
    ladder = [ident + 2.0 * np.linalg.solve(v - u, u)]
    for _ in range(s):
        ladder.append(ladder[-1] @ ladder[-1])
    return ladder


def _propagator(gen: np.ndarray, t_ns: float) -> np.ndarray:
    """exp(gen t) for a time `t_ns` in ns: the one way a state is propagated."""
    return _propagators(gen, t_ns)[-1]


def evolve(rho0: DensityMatrix, L: Superoperator, t_grid_ns: np.ndarray) -> Trajectory:
    """Propagate d(vec rho)/dt = L vec(rho) and snapshot on `t_grid_ns`.

    Exact stepping in the real frame: one propagator exp(G dt), G =
    `L.real_matrix`, per distinct grid step, applied by matrix-vector
    products, so a uniform grid costs a single `expm`. Steps that differ by a
    few ULP of the end time (the jitter of `np.diff` on a `linspace` grid)
    share a propagator. One batched pass checks the snapshot stack, and the
    observables come off it, so trace drift or loss of positivity beyond
    tolerance surfaces as an error, not as corrupt data.
    """
    t_grid_ns = np.array(t_grid_ns, dtype=float)
    if t_grid_ns.ndim != 1 or not t_grid_ns.size:
        raise DomainError(f"t_grid must be a nonempty 1-D grid, got shape {t_grid_ns.shape}")
    if t_grid_ns[0] != 0.0 or np.any(np.diff(t_grid_ns) <= 0):
        raise DomainError("t_grid must ascend from 0")
    if rho0.basis.labels != L.basis.labels:
        raise DomainError("initial state and generator bases differ")

    same_step = 16 * np.spacing(t_grid_ns[-1])
    props: dict[float, np.ndarray] = {}
    step_prop: dict[float, np.ndarray] = {}  # each step value's first match in `props`
    dim = rho0.dim
    vecs = np.empty((len(t_grid_ns), dim * dim))
    vecs[0] = vectorize_real(rho0.matrix)
    for i, dt in enumerate(np.diff(t_grid_ns).tolist(), start=1):
        prop = step_prop.get(dt)
        if prop is None:
            key = next((s for s in props if abs(s - dt) <= same_step), dt)
            if key not in props:
                props[key] = _propagator(L.real_matrix, dt)
            prop = step_prop[dt] = props[key]
        np.matmul(prop, vecs[i - 1], out=vecs[i])
    stack = physical_states(unvectorize_real(vecs, dim))
    conc, leak = qubit_concurrences(rho0.basis, stack)
    pops = {lab: stack[:, j, j].real for j, lab in enumerate(rho0.basis.labels)}
    return Trajectory(rho0.basis, t_grid_ns, stack, conc, leak, pops)


def steady_state(L: Superoperator) -> DensityMatrix:
    """The unique fixed point of the generator.

    Direct solve in the real frame: G = `L.real_matrix` with its first row
    (rho_00's equation) replaced by the trace row, against the right-hand
    side e_0, so the solution has unit trace by construction (QuTiP's
    "direct" method, Johansson, Nation & Nori, arXiv:1110.0573). Raises if
    the null space is not one-dimensional, counted as singular values of G
    below NULL_SINGULAR_VALUE_TOL, or if the residual exceeds STEADY_RESIDUAL_TOL.
    """
    gen = L.real_matrix
    sv = np.linalg.svd(gen, compute_uv=False)
    null_count = int(np.sum(sv < NULL_SINGULAR_VALUE_TOL))
    if null_count != 1:
        raise DegenerateSteadyStateError(
            f"{null_count} null singular values below {NULL_SINGULAR_VALUE_TOL} "
            f"(smallest: {np.array2string(sv[::-1][:3], precision=3)})"
        )
    dim = L.dim
    a = gen.copy()
    a[0] = np.arange(dim * dim) < dim  # the trace row
    x = np.linalg.solve(a, np.eye(dim * dim, 1)[:, 0])
    residual = np.linalg.norm(gen @ x)
    if residual > STEADY_RESIDUAL_TOL:
        raise DegenerateSteadyStateError(f"steady-state residual {residual:.2e}")
    return DensityMatrix(L.basis, unvectorize_real(x, dim))


def _within(rows: np.ndarray, x_ss: np.ndarray, target: np.ndarray, epsilon: float) -> np.ndarray:
    """Whether each real-frame row of the (n, d^2) `rows` is within trace
    distance `epsilon` of the steady state `target`, whose coordinates are `x_ss`.

    A norm screen decides most rows without the eigensolver. The frame is
    unitary, so ||x - x_ss||_2 is the Frobenius norm of the traceless
    Hermitian difference, and a traceless Hermitian matrix has ||.||_F^2 <=
    2 D^2 (its positive and its negative eigenvalues each sum to D). A row
    with ||x - x_ss||_2 > sqrt(2) epsilon (1 + _SCREEN_SLACK) is thus out;
    the rest go through `trace_distance_matrices`, so every answer is the
    one the eigensolver alone would give.
    """
    near = np.linalg.norm(rows - x_ss, axis=-1) <= math.sqrt(2.0) * epsilon * (1.0 + _SCREEN_SLACK)
    left = np.flatnonzero(near)
    if left.size:
        dist = trace_distance_matrices(unvectorize_real(rows[left], target.shape[-1]), target)
        near[left] = dist <= epsilon
    return near


def characteristic_time(
    L: Superoperator,
    rho0: DensityMatrix,
    epsilon: float = 0.01,
    t_max_ns: float | None = None,
    steady: DensityMatrix | None = None,
) -> float:
    """First time (ns) the state comes within `epsilon` of the steady state.

    Marches in the real frame over [0, t_max] in _COARSE_STEPS steps of one
    propagator, with one batched `_within` check per _MARCH_BLOCK steps, to
    the first step within `epsilon`. Then bisects that step to 1% relative
    precision on the half steps that the march step's Padé squared up through;
    only a deeper bisection (a crossing in the first step) runs a second Padé.
    Distance is trace distance to `steady`, or to the steady state of L.
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0, 1)")
    if t_max_ns is None:
        t_max_ns = DEFAULT_T_MAX_NS
    if not (math.isfinite(t_max_ns) and t_max_ns > 0.0):
        raise DomainError(f"t_max_ns must be positive and finite, got {t_max_ns}")
    rho_ss = steady if steady is not None else steady_state(L)
    if rho0.basis.labels != L.basis.labels or rho_ss.basis.labels != L.basis.labels:
        raise DomainError("initial state, steady state and generator bases differ")
    target = rho_ss.matrix
    x_ss, x0 = vectorize_real(target), vectorize_real(rho0.matrix)
    if _within(x0[None], x_ss, target, epsilon)[0]:
        return 0.0

    dt_ns = t_max_ns / _COARSE_STEPS
    ladder = _propagators(L.real_matrix, dt_ns)  # its last entry is the march step
    dim = rho0.dim

    # row i of `block` holds the coordinates of rho k0 + i steps in
    block = np.empty((_MARCH_BLOCK + 1, dim * dim))
    block[0] = x0
    for k0 in range(0, _COARSE_STEPS, _MARCH_BLOCK):
        for i in range(1, _MARCH_BLOCK + 1):
            np.matmul(ladder[-1], block[i - 1], out=block[i])
        hits = np.flatnonzero(_within(block[1:], x_ss, target, epsilon))
        if hits.size:
            k_hit, v = k0 + int(hits[0]) + 1, block[hits[0]]
            break
        block[0] = block[-1]
    else:
        raise ConvergenceTimeoutError(
            f"state not within {epsilon} of the steady state by {t_max_ns:.4g} ns"
        )

    # bisect inside [(k_hit - 1) dt, k_hit dt]. t_hi never drops below the
    # lower end, so the halving stops by the depth whose width is 1% of it
    def resolved(width: float, t_hi: float) -> bool:
        return width <= 0.01 * max(t_hi, dt_ns * 1e-3)

    t_lo, t_hi, v_lo, width = (k_hit - 1) * dt_ns, k_hit * dt_ns, v, dt_ns
    depth = 0
    while not resolved(dt_ns / 2**depth, t_lo):
        depth += 1
    deeper = depth >= len(ladder)  # than the march step's squarings reach
    halves = [_propagator(L.real_matrix, dt_ns / 2**depth)] if deeper else ladder[-2::-1][:depth]
    while len(halves) < depth:
        halves.insert(0, halves[0] @ halves[0])
    for prop in halves:  # halves[i] advances by dt / 2^(i + 1)
        if resolved(width, t_hi):
            break
        width /= 2.0
        v_mid = prop @ v_lo
        t_mid = t_lo + width
        if _within(v_mid[None], x_ss, target, epsilon)[0]:
            t_hi = t_mid
        else:
            t_lo, v_lo = t_mid, v_mid
    return t_hi


def adiabatic_validity(L_full: Superoperator, rho0: DensityMatrix, t_grid_ns: np.ndarray) -> float:
    """Peak population outside the six effective6 states over a run.

    The run is `evolve` on `t_grid_ns`; the population is 1 - Tr(P^dag rho P),
    P the effective6 states embedded in the run's basis. On full9 the states
    outside are the bi-trion |ss> and the antisymmetric single-trion states;
    with an inter-dot trion level, every state containing it as well.
    """
    basis = L_full.basis
    if basis.kind == BasisKind.EFFECTIVE6:
        raise DomainError("adiabatic_validity needs a basis with eliminated states")
    kept = np.array([state_vector(basis, lab) for lab in effective6().labels])

    traj = evolve(rho0, L_full, t_grid_ns)
    pops = np.einsum("ki,nij,kj->n", kept.conj(), traj.matrices, kept).real
    return max(0.0, 1.0 - float(pops.min()))
