"""Time evolution, steady states, and characteristic-time extraction.

Times at the API are nanoseconds; internally the generator acts in the
hbar = 1 unit system, so every entry point converts through HBAR_UEV_NS.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .basis import BasisKind, ModelBasis, effective6, state_vector
from .entanglement import qubit_concurrences
from .errors import ConvergenceTimeoutError, DegenerateSteadyStateError, DomainError, QdmError
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
#: Half steps below the march step that a T0 search keeps from its squarings:
#: a crossing after the first coarse step is resolved to 1% by depth 7
#: (2^-7 < 0.01), so only one in the first step bisects deeper.
_BISECTION_RUNGS = 7
#: Relative slack on the norm screen of `_within`, for rounding and the
#: ~1e-14 trace drift of propagated states.
_SCREEN_SLACK = 1e-9
#: The screen's bound on ||x - x_ss||_2^2, in units of epsilon^2.
_SCREEN_SQUARED = 2.0 * (1.0 + _SCREEN_SLACK) ** 2


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


def _propagators(gens: np.ndarray, t_ns: np.ndarray, below: int) -> tuple[list[list[np.ndarray]], list[int]]:
    """exp(gens[i] t_i) for an (n, D, D) stack, real or complex, and times
    `t_ns` (n,) in ns, with the half steps its squarings pass through: entry
    [i][k] of the returned lists is exp(gens[i] t_i / 2^k), for k up to
    min(below, s_i), s_i the point's squaring count, also returned.

    Padé [13/13] with scaling and squaring, on numpy's BLAS only, each matrix
    scaled by its own 2^-s_i; the stacked products and solve are the ones
    each matrix takes alone. As scaling by 2^-s is exact, entry [i][k] is
    bitwise the propagator that a call over t_i / 2^k returns. No module of
    the package may call SciPy's linalg: its wheel loads a second OpenBLAS
    whose idle threads spin on the cores numpy's threads need, and switching
    between the two libraries made a sweep three times slower.
    """
    a = gens * (t_ns / HBAR_UEV_NS)[:, None, None]
    norms = np.abs(a).sum(axis=-2).max(axis=-1).tolist()
    for norm, t in zip(norms, t_ns.tolist()):
        if not math.isfinite(norm):
            raise DomainError(f"generator over {t} ns has a non-finite norm")
    s = [math.ceil(math.log2(norm / _THETA_13)) if norm > _THETA_13 else 0 for norm in norms]
    a /= np.ldexp(1.0, s)[:, None, None]
    ident = np.eye(a.shape[-1], dtype=a.dtype)
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    del a, a2, a4, a6
    # (V - U)^-1 (V + U), written as I + 2 (V - U)^-1 U: the identity stays
    # exact, so the trace row drifts less over the squarings. In place, so
    # that a stack holds few (n, D, D) temporaries at once
    v -= u
    cur = np.linalg.solve(v, u)
    cur *= 2.0
    cur += ident
    # row r of `cur` is exp(gens[i] t_i / 2^(s_i - j)), i = live[r]; each
    # squaring makes a new stack, so the rungs kept are views never written
    rungs: list[list[np.ndarray]] = [[] for _ in s]
    live = list(range(len(s)))
    for j in range(max(s) + 1):
        for r, i in enumerate(live):
            if s[i] - j <= below:
                rungs[i].append(cur[r])
        more = [r for r, i in enumerate(live) if s[i] > j]
        if not more:
            break
        if len(more) < len(live):
            cur, live = cur[more], [live[r] for r in more]
        cur = cur @ cur
    return [r[::-1] for r in rungs], s


def _propagator(gen: np.ndarray, t_ns: float) -> np.ndarray:
    """exp(gen t) for a time `t_ns` in ns: the one way a state is propagated."""
    return _propagators(gen[None], np.array([t_ns], dtype=float), 0)[0][0][0]


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


def _each_alone(core: Callable[..., list], *stacks) -> list:
    """`core(*stacks)`: one outcome per point of the equal-length `stacks`,
    its result or the error it raises. When the stacked call itself raises
    (a QdmError, or a LinAlgError from a stacked LAPACK call), every point
    runs alone, so each failure is the one that point gives by itself and
    the other points still get their results."""
    try:
        return core(*stacks)
    except (QdmError, np.linalg.LinAlgError) as exc:
        if len(stacks[0]) == 1:
            return [exc]
    return [out for i in range(len(stacks[0])) for out in _each_alone(core, *(s[i:i + 1] for s in stacks))]


def _stack(L: Sequence[Superoperator]) -> np.ndarray:
    """The real matrices of same-basis generators as one (n, d^2, d^2) stack."""
    if not L:
        raise DomainError("no generators to stack")
    if any(op.basis.labels != L[0].basis.labels for op in L):
        raise DomainError("stacked generators must share one basis")
    return np.array([op.real_matrix for op in L])


def _steady_states(gens: np.ndarray) -> list:
    """Steady states of an (n, d^2, d^2) stack of real generators: each a
    checked, read-only (d, d) state, or the DegenerateSteadyStateError of a
    null space that is not one-dimensional or of a residual above tolerance.
    A state that fails its check raises for the whole stack."""
    dim2 = gens.shape[-1]
    dim = math.isqrt(dim2)
    sv = np.linalg.svd(gens, compute_uv=False)
    nulls = (sv < NULL_SINGULAR_VALUE_TOL).sum(axis=-1).tolist()
    out: list = [None] * len(gens)
    for i, count in enumerate(nulls):
        if count != 1:
            out[i] = DegenerateSteadyStateError(
                f"{count} null singular values below {NULL_SINGULAR_VALUE_TOL} "
                f"(smallest: {np.array2string(sv[i, ::-1][:3], precision=3)})"
            )
    ok = [i for i, count in enumerate(nulls) if count == 1]
    if not ok:
        return out
    gens = gens[ok]
    a = gens.copy()
    a[:, 0] = np.arange(dim2) < dim  # the trace row
    # b as a (1, d^2, 1) stack: numpy 1.x reads a b of rank a.ndim - 1 as
    # a stack of vectors, not as one matrix for every point
    x = np.linalg.solve(a, np.eye(dim2, 1)[None])
    r = gens @ x
    residuals = np.sqrt(r.swapaxes(-1, -2) @ r)[:, 0, 0].tolist()
    good = []
    for n, residual in enumerate(residuals):
        if residual > STEADY_RESIDUAL_TOL:
            out[ok[n]] = DegenerateSteadyStateError(f"steady-state residual {residual:.2e}")
        else:
            good.append(n)
    if good:
        states = physical_states(unvectorize_real(x[good, :, 0], dim))
        states.setflags(write=False)
        for n, state in zip(good, states):
            out[ok[n]] = state
    return out


def steady_state(L: Superoperator | Sequence[Superoperator]) -> DensityMatrix | list:
    """The unique fixed point of the generator.

    Direct solve in the real frame: G = `L.real_matrix` with its first row
    (rho_00's equation) replaced by the trace row, against the right-hand
    side e_0, so the solution has unit trace by construction (QuTiP's
    "direct" method, Johansson, Nation & Nori, arXiv:1110.0573). Raises if
    the null space is not one-dimensional, counted as singular values of G
    below NULL_SINGULAR_VALUE_TOL, or if the residual exceeds STEADY_RESIDUAL_TOL.

    A sequence of same-basis generators is solved as one stack, with one
    `svd`, one `solve` and one check of the states: the result is a list
    holding each generator's checked, read-only (d, d) state, or the error
    that generator raises alone.
    """
    if isinstance(L, Superoperator):
        (state,) = _each_alone(_steady_states, L.real_matrix[None])
        if isinstance(state, Exception):
            raise state
        return DensityMatrix._checked(L.basis, state)
    return _each_alone(_steady_states, _stack(L))


def _within(rows: np.ndarray, x_ss: np.ndarray, target: np.ndarray, epsilon: np.ndarray) -> np.ndarray:
    """Whether each real-frame row of the (n, k, d^2) `rows` is within trace
    distance `epsilon[i]` of the steady state `target[i]`, whose coordinates
    are `x_ss[i]`.

    A norm screen decides most rows without the eigensolver. The frame is
    unitary, so ||x - x_ss||_2 is the Frobenius norm of the traceless
    Hermitian difference, and a traceless Hermitian matrix has ||.||_F^2 <=
    2 D^2 (its positive and its negative eigenvalues each sum to D). A row
    with ||x - x_ss||_2^2 > 2 epsilon^2 (1 + _SCREEN_SLACK)^2 is thus out;
    the rest go through `trace_distance_matrices`, so every answer is the
    one the eigensolver alone would give.
    """
    diff = rows - x_ss[:, None]
    near = (diff * diff).sum(axis=-1) <= _SCREEN_SQUARED * (epsilon * epsilon)[:, None]
    point, row = np.nonzero(near)
    if point.size:
        dist = trace_distance_matrices(unvectorize_real(rows[point, row], target.shape[-1]), target[point])
        near[point, row] = dist <= epsilon[point]
    return near


def _check_search(epsilon: np.ndarray, t_max_ns: np.ndarray) -> None:
    """Raise DomainError unless every epsilon lies in (0, 1) and every
    ceiling is positive and finite."""
    for eps, t in zip(epsilon.tolist(), t_max_ns.tolist()):
        if not 0.0 < eps < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"t_max_ns must be positive and finite, got {t}")


def _characteristic_times(
    gens: np.ndarray, rho0: np.ndarray, steady: np.ndarray, epsilon: np.ndarray, t_max_ns: np.ndarray
) -> list:
    """T0 of each point of an (n, d^2, d^2) stack of real generators, from
    its (n, d, d) initial and steady states and its `epsilon` and ceiling
    (n,): the T0 in ns or a ConvergenceTimeoutError. An invalid argument
    raises for the whole stack."""
    _check_search(epsilon, t_max_ns)
    x_ss, x0 = vectorize_real(steady), vectorize_real(rho0)
    out: list = [0.0] * len(gens)
    todo = np.flatnonzero(~_within(x0[:, None], x_ss, steady, epsilon)[:, 0])
    if not todo.size:
        return out
    if todo.size < len(gens):  # the points that start within epsilon keep T0 = 0
        gens, x0, x_ss, steady, epsilon, t_max_ns = (
            a[todo] for a in (gens, x0, x_ss, steady, epsilon, t_max_ns)
        )

    dts = t_max_ns / _COARSE_STEPS
    rungs, _ = _propagators(gens, dts, _BISECTION_RUNGS)
    props = np.array([r[0] for r in rungs])  # the march steps
    # row i of `block[j]` holds the coordinates of point live[j], k0 + i steps in
    block = np.empty((len(gens), _MARCH_BLOCK + 1, x0.shape[-1]))
    block[:, 0] = x0
    live, targets = np.arange(len(gens)), (x_ss, steady, epsilon)
    crossings = {}
    for k0 in range(0, _COARSE_STEPS, _MARCH_BLOCK):
        # a lone point steps by 2-D products, without the stack's per-call overhead
        prop, rows = (props[0], block[0]) if len(live) == 1 else (props, block[..., None].swapaxes(0, 1))
        for i in range(1, _MARCH_BLOCK + 1):
            np.matmul(prop, rows[i - 1], out=rows[i])
        near = _within(block[:, 1:], *targets)
        hits = np.flatnonzero(near.any(axis=1))
        if hits.size:
            for j in hits.tolist():
                first = int(near[j].argmax())
                crossings[int(live[j])] = (k0 + first + 1, block[j, first].copy())
            if hits.size == len(live):
                live = live[:0]
                break
            rest = np.delete(np.arange(len(live)), hits)
            live, props, block = live[rest], props[rest], block[rest]
            targets = tuple(a[rest] for a in targets)
        block[:, 0] = block[:, -1]
    for j in live.tolist():
        out[todo[j]] = ConvergenceTimeoutError(
            f"state not within {epsilon[j].tolist()} of the steady state by {t_max_ns[j]:.4g} ns"
        )

    # bisect inside [(k_hit - 1) dt, k_hit dt]. t_hi never drops below the
    # lower end, so the halving stops by the depth whose width is 1% of it
    for j, (k_hit, v_lo) in crossings.items():
        dt_ns = dts[j].tolist()
        x_j, steady_j, epsilon_j = x_ss[j:j + 1], steady[j:j + 1], epsilon[j:j + 1]

        def resolved(width: float, t_hi: float) -> bool:
            return width <= 0.01 * max(t_hi, dt_ns * 1e-3)

        t_lo, t_hi, width = (k_hit - 1) * dt_ns, k_hit * dt_ns, dt_ns
        depth = 0
        while not resolved(dt_ns / 2**depth, t_lo):
            depth += 1
        if depth < len(rungs[j]):
            halves = rungs[j][1:depth + 1]  # halves[i] advances by dt / 2^(i + 1)
        else:  # finer than the kept squarings: one Padé at the finest width
            halves = [_propagator(gens[j], dt_ns / 2**depth)]
            while len(halves) < depth:
                halves.insert(0, halves[0] @ halves[0])
        for prop in halves:
            if resolved(width, t_hi):
                break
            width /= 2.0
            v_mid = prop @ v_lo
            t_mid = t_lo + width
            if _within(v_mid[None, None], x_j, steady_j, epsilon_j)[0, 0]:
                t_hi = t_mid
            else:
                t_lo, v_lo = t_mid, v_mid
        out[todo[j]] = t_hi
    return out


def characteristic_time(
    L: Superoperator | Sequence[Superoperator],
    rho0: DensityMatrix | np.ndarray,
    epsilon: float | Sequence[float] = 0.01,
    t_max_ns: float | Sequence[float] | None = None,
    steady: DensityMatrix | np.ndarray | None = None,
) -> float | list:
    """First time (ns) the state comes within `epsilon` of the steady state.

    Marches in the real frame over [0, t_max] in _COARSE_STEPS steps of one
    propagator, with one batched `_within` check per _MARCH_BLOCK steps, to
    the first step within `epsilon`. Then bisects that step to 1% relative
    precision on the half steps that the march step's Padé squared up
    through; only a crossing in the first step, which bisects deeper than
    the _BISECTION_RUNGS half steps kept, runs a second Padé. Distance is
    trace distance to `steady`, or to the steady state of L.

    A sequence of n same-basis generators is searched as one stack, with
    one Padé evaluation and one march: `rho0` and `steady`, which must be
    given, are then (n, d, d) stacks of checked states, `epsilon` and
    `t_max_ns` one value or one per generator, and the result is a list
    holding each generator's T0 or the error that generator raises alone.
    """
    single = isinstance(L, Superoperator)
    n = 1 if single else len(L)
    epsilon = np.full(n, epsilon, dtype=float)
    t_max_ns = np.full(n, DEFAULT_T_MAX_NS if t_max_ns is None else t_max_ns, dtype=float)
    if single:
        _check_search(epsilon, t_max_ns)
        rho_ss = steady if steady is not None else steady_state(L)
        if rho0.basis.labels != L.basis.labels or rho_ss.basis.labels != L.basis.labels:
            raise DomainError("initial state, steady state and generator bases differ")
        gens, rho0, steady = L.real_matrix[None], rho0.matrix[None], rho_ss.matrix[None]
    else:
        if steady is None:
            raise DomainError("a stack of generators needs its steady states")
        gens, rho0, steady = _stack(L), np.asarray(rho0), np.asarray(steady)
        shape = (n, L[0].dim, L[0].dim)
        if np.shape(rho0) != shape or np.shape(steady) != shape:
            raise DomainError(
                f"initial and steady states must be {shape} stacks, got {np.shape(rho0)} and {np.shape(steady)}"
            )
    out = _each_alone(_characteristic_times, gens, rho0, steady, epsilon, t_max_ns)
    if not single:
        return out
    if isinstance(out[0], Exception):
        raise out[0]
    return out[0]


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
