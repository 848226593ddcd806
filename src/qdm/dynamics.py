"""Time evolution, steady states, and characteristic-time extraction.

Times at the API are nanoseconds; internally the generator acts in the
hbar = 1 unit system, so every entry point converts through HBAR_UEV_NS.

Every generator commutes with the dot exchange, so all three work on the
blocks of `Superoperator.blocks`, in the sector coordinates of
`operators.sectors`: a steady state solves the even block, which holds the
trace, and a state is propagated on the blocks it occupies, the even one
for every exchange-even state (`paper_mixture`, `ground_00`), both for a
`random` one. States map to sector coordinates by the fixed unitary W of
`sectors` (`to_sectors`) and back by W^dag (`from_sectors`).
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
    Sectors,
    Superoperator,
    from_sectors,
    physical_states,
    sectors,
    to_sectors,
    trace_distance_matrices,
)
from .params import HBAR_UEV_NS

#: A block of the generator counts as singular unless sigma_min >= 1/||M^-1||_F is above this.
NULL_SINGULAR_VALUE_TOL = 1e-9
STEADY_RESIDUAL_TOL = 1e-9

#: Default scan ceiling, 50 hbar / Gamma at the reference decay rate 1.2 ueV.
DEFAULT_T_MAX_NS = 50.0 * HBAR_UEV_NS / 1.2

#: About this many march steps cover a T0 search's ceiling.
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
    each matrix takes alone, and point i is squared s_i times, after which it
    leaves the stack. As scaling by 2^-s is exact, entry [i][k] is bitwise
    the propagator that a call over t_i / 2^k returns. Each kept rung is a
    copy, so none holds a whole (n, D, D) square alive. No module of the
    package may call SciPy's linalg: its wheel's second OpenBLAS spins idle
    threads on the cores numpy's need; switching made a sweep 3x slower.
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
    # after j squarings row r of cur is exp(gens[i] t_i / 2^(s_i - j)), i =
    # live[r]; a square that overflows fails the caller's finiteness check
    rungs: list[list[np.ndarray]] = [[] for _ in s]
    live = list(range(len(s)))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(max(s) + 1):
            if j:
                cur = cur @ cur
            for r, i in enumerate(live):
                if s[i] - j <= below:
                    rungs[i].append(cur[r].copy())
            if any(s[i] == j for i in live):
                keep = [r for r, i in enumerate(live) if s[i] > j]
                cur, live = cur[keep], [live[r] for r in keep]
    return [r[::-1] for r in rungs], s


def _propagator(gen: np.ndarray, t_ns: float) -> np.ndarray:
    """exp(gen t) for a time `t_ns` in ns: the one way a state is propagated."""
    return _propagators(gen[None], np.array([t_ns], dtype=float), 0)[0][0][0]


def _block_propagator(L: Superoperator, block: int, t_ns: float) -> np.ndarray:
    """exp(G_b t) of block `block` of L: the one a T0 search left in `L.memo`
    for this step, or a new Padé."""
    prop = L.memo.get((block, t_ns))
    return _propagator(L.blocks[block], t_ns) if prop is None else prop


def _block_diag(mats: Sequence[np.ndarray]) -> np.ndarray:
    """The block-diagonal matrix (or stack) of `mats`; one matrix is itself."""
    if len(mats) == 1:
        return mats[0]
    sizes = [m.shape[-1] for m in mats]
    out = np.zeros((*mats[0].shape[:-2], sum(sizes), sum(sizes)))
    start = 0
    for m, size in zip(mats, sizes):
        out[..., start:start + size, start:start + size] = m
        start += size
    return out


def _occupied(ys: np.ndarray, sec: Sectors) -> int:
    """How many blocks the states `ys`, in sector coordinates, occupy: the
    even one, which holds the trace, and the odd one if any state has a part
    there."""
    return 2 if ys[..., sec.n_even:].any() else 1


def evolve(rho0: DensityMatrix, L: Superoperator, t_grid_ns: np.ndarray) -> Trajectory:
    """Propagate d(vec rho)/dt = L vec(rho) and snapshot on `t_grid_ns`.

    Exact stepping in sector coordinates, on the blocks of `L.blocks` that
    `rho0` occupies: one propagator exp(G_b dt) per block and distinct grid
    step, applied by matrix-vector products, so a uniform grid costs a single
    `expm` per block, none when a T0 search on L left that step's in
    `L.memo`. Steps that differ by a few ULP of the end time (the jitter of
    `np.diff` on a `linspace` grid) share a propagator. One batched pass
    checks the snapshot stack, mapped back to matrices, and the
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
    sec = sectors(L.basis)
    y0 = to_sectors(rho0.matrix, sec)
    blocks = range(_occupied(y0, sec))
    vecs = np.empty((len(t_grid_ns), sum(len(L.blocks[b]) for b in blocks)))
    vecs[0] = y0[:vecs.shape[1]]
    for i, dt in enumerate(np.diff(t_grid_ns).tolist(), start=1):
        prop = step_prop.get(dt)
        if prop is None:
            key = next((s for s in props if abs(s - dt) <= same_step), dt)
            if key not in props:
                props[key] = _block_diag([_block_propagator(L, b, key) for b in blocks])
            prop = step_prop[dt] = props[key]
        np.matmul(prop, vecs[i - 1], out=vecs[i])
    stack = physical_states(from_sectors(vecs, sec))
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


def _stack(L: Sequence[Superoperator]) -> list[Superoperator]:
    """Same-basis generators to be solved as one stack, as a list."""
    if not L:
        raise DomainError("no generators to stack")
    if any(op.basis.labels != L[0].basis.labels for op in L):
        raise DomainError("stacked generators must share one basis")
    return list(L)


def _inverses(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """M^-1 of an (n, k, k) stack, the bound 1/||M^-1||_F <= sigma_min(M) (0 where
    M^-1 is not finite) and ||M||_F, norms over each matrix's largest entry against
    overflow. An exactly singular M alone gets bound 0; a stack re-raises LAPACK's."""
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        if len(m) > 1:
            raise
        inv = np.full_like(m, np.nan)
    pair = np.stack([m, inv])
    scale = np.maximum(np.abs(pair).max(axis=(-2, -1)), np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN norm fails its check
        unit = pair / scale[..., None, None]
        norm, inv_norm = scale * np.sqrt(np.einsum("...ij,...ij->...", unit, unit))
    return inv, np.where(inv_norm < np.inf, 1.0 / inv_norm, 0.0), norm


def _steady_states(liouvs: Sequence[Superoperator]) -> list:
    """`steady_state` of a same-basis stack: per point a checked, read-only (d, d)
    state or its error; a non-finite generator, or a failed check, raises for all."""
    sec = sectors(liouvs[0].basis)
    a = np.array([L.blocks[0] for L in liouvs])
    odd = np.array([L.blocks[1] for L in liouvs])
    if not (np.isfinite(a).all() and np.isfinite(odd).all()):
        raise DomainError("generator has non-finite entries")
    a[:, 0] = sec.trace
    (a_inv, a_bound, a_norm), (_, odd_bound, odd_norm) = _inverses(a), _inverses(odd)
    x = a_inv[..., 0]
    floors = (np.finfo(float).eps * np.maximum(a_norm, odd_norm)).tolist()
    out: list = []
    with np.errstate(over="ignore", invalid="ignore"):  # a residual that is not finite fails
        for i, (L, floor, *bounds) in enumerate(zip(liouvs, floors, a_bound.tolist(), odd_bound.tolist())):
            bound, block = min(zip(bounds, ("even", "odd")))
            if not floor < NULL_SINGULAR_VALUE_TOL:
                error = f"null space not resolvable: eps ||M||_F = {floor:.3e}, not below {NULL_SINGULAR_VALUE_TOL}"
            elif not bound > NULL_SINGULAR_VALUE_TOL:
                error = f"{block} block may be singular: 1/||M^-1||_F = {bound:.3e} <= {NULL_SINGULAR_VALUE_TOL}"
            else:
                r = L.blocks[0] @ x[i]
                residual = float(np.sqrt(r @ r))
                error = "" if residual <= STEADY_RESIDUAL_TOL else f"steady-state residual {residual:.2e}"
            out.append(DegenerateSteadyStateError(error) if error else None)
    good = [i for i, state in enumerate(out) if state is None]
    if good:
        states = physical_states(from_sectors(x[good], sec))
        states.setflags(write=False)
        for i, state in zip(good, states):
            out[i] = state
    return out


def steady_state(L: Superoperator | Sequence[Superoperator]) -> DensityMatrix | list:
    """The unique fixed point of the generator.

    Direct solve on the even block E of `L.blocks`, which holds the trace
    (QuTiP's "direct" method, Johansson, Nation & Nori, arXiv:1110.0573): x
    is column 0 of A^-1, A that block with its first row replaced by the
    trace row, so x has unit trace. Their ranks differ by at most 1, so a
    nonsingular A leaves E a null space of dimension <= 1, which the
    residual check on E puts x in; the coupling to the odd block that
    `blocks` dropped is at most EXCHANGE_TOL of its largest entry, and a
    nonsingular odd block leaves no odd steady state. Raises
    DegenerateSteadyStateError if the certified bound 1/||M^-1||_F <=
    sigma_min(M) of either block is not above NULL_SINGULAR_VALUE_TOL, if
    their rounding floor eps ||M||_F is not below it, or if E's residual
    exceeds STEADY_RESIDUAL_TOL; DomainError if a block is not finite. A
    list of same-basis generators is solved as one stack, with one `inv` per
    block, into a list of each one's checked, read-only (d, d) state or the
    error it raises alone.
    """
    if isinstance(L, Superoperator):
        (state,) = _each_alone(_steady_states, [L])
        if isinstance(state, Exception):
            raise state
        return DensityMatrix._checked(L.basis, state)
    return _each_alone(_steady_states, _stack(L))


def _within(rows: np.ndarray, x_ss: np.ndarray, target: np.ndarray, epsilon: np.ndarray, sec: Sectors) -> np.ndarray:
    """Whether each row of the (n, k, m) `rows`, the leading m sector
    coordinates of a state, is within trace distance `epsilon[i]` of the
    steady state `target[i]`, whose coordinates are `x_ss[i]`.

    A norm screen decides most rows without the eigensolver. W is unitary,
    so ||x - x_ss||_2 is the Frobenius norm of the traceless
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
        states = from_sectors(rows[point, row], sec)
        dist = trace_distance_matrices(states, target[point])
        near[point, row] = dist <= epsilon[point]
    return near


def _check_search(epsilon: np.ndarray, t_max_ns: np.ndarray, step_ns: np.ndarray) -> None:
    """Raise DomainError unless every epsilon lies in (0, 1) and every
    ceiling and grid step is positive and finite."""
    for eps, t, step in zip(epsilon.tolist(), t_max_ns.tolist(), step_ns.tolist()):
        if not 0.0 < eps < 1.0:
            raise DomainError("epsilon must lie in (0, 1)")
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"t_max_ns must be positive and finite, got {t}")
        if not (math.isfinite(step) and step > 0.0):
            raise DomainError(f"step_ns must be positive and finite, got {step}")


def _grid_step(rungs: list, squarings: int, shift: int) -> np.ndarray | None:
    """exp(G g) from the rungs of the march step g 2^shift, bitwise the Padé
    `_propagator` computes over g, or None. For shift >= 0 it is rung
    `shift`, if kept. For a march step finer than g it is rung 0 squared
    -shift times, if that Padé was squared at all: its scaled norm then
    exceeds theta_13, so a Padé over g has the same base and squares it
    -shift times more."""
    if shift >= 0:
        return rungs[shift] if shift < len(rungs) else None
    if not squarings:
        return None
    prop = rungs[0][None]
    for _ in range(-shift):
        prop = prop @ prop
    return prop[0]


def _bisect(rungs: list, gens: Sequence[np.ndarray], v_lo: np.ndarray, k_hit: int, dt_ns: float,
            target: tuple, sec: Sectors) -> float:
    """T0 in one point's crossing step [(k_hit - 1) dt, k_hit dt], bisected to
    1% from the state `v_lo` at its start on the half steps `rungs[1:]`, or on
    one Padé per block of `gens` at the finest width when they are too
    coarse; `target` holds the point's steady-state arguments of `_within`."""
    def resolved(width: float, t_hi: float) -> bool:
        return width <= 0.01 * max(t_hi, dt_ns * 1e-3)

    # t_hi never drops below the lower end, so the halving stops by the
    # depth whose width is 1% of it
    t_lo, t_hi, width = (k_hit - 1) * dt_ns, k_hit * dt_ns, dt_ns
    depth = 0
    while not resolved(dt_ns / 2**depth, t_lo):
        depth += 1
    if depth < len(rungs):
        halves = rungs[1:depth + 1]  # halves[i] advances by dt / 2^(i + 1)
    else:
        halves = [_block_diag([_propagator(gen, dt_ns / 2**depth) for gen in gens])]
        while len(halves) < depth:
            halves.insert(0, halves[0] @ halves[0])
    for prop in halves:
        if resolved(width, t_hi):
            break
        width /= 2.0
        v_mid = prop @ v_lo
        if _within(v_mid[None, None], *target, sec)[0, 0]:
            t_hi = t_lo + width
        else:
            t_lo, v_lo = t_lo + width, v_mid
    return t_hi


def _characteristic_times(
    liouvs: Sequence[Superoperator], rho0: np.ndarray, steady: np.ndarray, epsilon: np.ndarray,
    t_max_ns: np.ndarray, step_ns: np.ndarray,
) -> list:
    """T0 of each of the same-basis generators `liouvs`, from its (n, d, d)
    initial and steady states and its `epsilon`, ceiling and grid step (n,):
    the T0 in ns or a ConvergenceTimeoutError. Leaves each generator's
    propagators over its grid step in its `memo`. An invalid argument
    raises for the whole stack."""
    _check_search(epsilon, t_max_ns, step_ns)
    # the march step: the grid step times the power of two nearest t_max / _COARSE_STEPS
    shifts = [round(math.log2(t) - math.log2(g) - math.log2(_COARSE_STEPS))
              for t, g in zip(t_max_ns.tolist(), step_ns.tolist())]
    dts = np.ldexp(step_ns, shifts)
    steps = np.ceil(t_max_ns / dts)
    sec = sectors(liouvs[0].basis)
    ys0 = to_sectors(rho0, sec)
    blocks = range(_occupied(ys0, sec))
    ladders = [_propagators(np.array([L.blocks[b] for L in liouvs]), dts, _BISECTION_RUNGS) for b in blocks]
    # each point's rungs over its occupied blocks, as deep as every block's go
    rungs = [[_block_diag(level) for level in zip(*(r[i] for r, _ in ladders))] for i in range(len(liouvs))]
    props = np.array([r[0] for r in rungs])  # the march steps
    if not np.isfinite(props).all():
        raise DomainError("a march step's propagator is not finite")
    for i, (L, step, shift) in enumerate(zip(liouvs, step_ns.tolist(), shifts)):
        for b, (block_rungs, squarings) in enumerate(ladders):
            grid = _grid_step(block_rungs[i], squarings[i], shift)
            if grid is not None:
                L.memo[b, step] = grid
    out: list = [ConvergenceTimeoutError(f"state not within {eps} of the steady state by {t:.4g} ns")
                 for eps, t in zip(epsilon.tolist(), t_max_ns.tolist())]  # unless the point crosses
    # row k of `block[r]` holds the coordinates of point live[r], k0 + k steps in
    size = props.shape[-1]
    block = np.empty((len(liouvs), _MARCH_BLOCK + 1, size))
    block[:, 0] = ys0[:, :size]
    live, targets = np.arange(len(liouvs)), (to_sectors(steady, sec)[:, :size], steady, epsilon)
    for k0 in range(0, int(steps.max()), _MARCH_BLOCK):
        # a lone point steps by 2-D products, without the stack's per-call overhead
        prop, rows = (props[0], block[0]) if len(live) == 1 else (props, block[..., None].swapaxes(0, 1))
        for k in range(1, _MARCH_BLOCK + 1):
            np.matmul(prop, rows[k - 1], out=rows[k])
        start = 1 if k0 else 0  # the first block also checks the start, where a hit is T0 = 0
        near = _within(block[:, start:], *targets, sec)
        near &= np.arange(k0 + start, k0 + _MARCH_BLOCK + 1) <= steps[live, None]  # no step past the ceiling
        hit = near.any(axis=1)
        for r in np.flatnonzero(hit).tolist():
            j, k = int(live[r]), start + int(near[r].argmax())  # block row of the first hit
            target = tuple(a[r:r + 1] for a in targets)
            out[j] = 0.0 if k0 + k == 0 else _bisect(
                rungs[j], liouvs[j].blocks[:len(blocks)], block[r, k - 1], k0 + k, dts[j].tolist(), target, sec)
        done = hit | (steps[live] <= k0 + _MARCH_BLOCK)
        if done.any():
            live, props, block = live[~done], props[~done], block[~done]
            targets = tuple(a[~done] for a in targets)
            if not live.size:
                break
        block[:, 0] = block[:, -1]
    return out


def characteristic_time(
    L: Superoperator | Sequence[Superoperator],
    rho0: DensityMatrix | np.ndarray,
    epsilon: float | Sequence[float] = 0.01,
    t_max_ns: float | Sequence[float] | None = None,
    steady: DensityMatrix | np.ndarray | None = None,
    step_ns: float | Sequence[float] | None = None,
) -> float | list:
    """First time (ns) the state comes within `epsilon` of the steady state.

    Marches over [0, t_max] on the blocks of L that the state occupies
    (`evolve`), in steps of one propagator, with one batched `_within`
    check per _MARCH_BLOCK steps, to the first step within `epsilon`; the
    first check also covers the start, where a hit is T0 = 0. The march step
    is the grid step `step_ns` of a run times the power of two nearest
    t_max / _COARSE_STEPS, so the march's Padé also gives exp(G step_ns),
    which it leaves in `L.memo` for `evolve`; without `step_ns` it is
    t_max / _COARSE_STEPS. The march goes on until its step passes t_max.
    Then bisects the crossing step to 1% relative precision on the half
    steps that the march step's Padé squared up through; only a crossing in
    the first step, which bisects deeper than the _BISECTION_RUNGS half steps
    kept, runs a second Padé. Distance is trace distance to `steady`, or to
    the steady state of L.

    One generator takes DensityMatrix states and raises DomainError for
    anything else. A sequence of n same-basis generators is searched as one
    stack, with one Padé evaluation and one march: `rho0` and `steady`,
    which must be given, are then (n, d, d) stacks, whose copies are checked
    as states, so that a bad one raises for the whole call; `epsilon`,
    `t_max_ns` and `step_ns` are one value or one per generator, and the
    result is a list holding each generator's T0 or the error that
    generator raises alone.
    """
    single = isinstance(L, Superoperator)
    n = 1 if single else len(L)
    epsilon = np.full(n, epsilon, dtype=float)
    t_max_ns = np.full(n, DEFAULT_T_MAX_NS if t_max_ns is None else t_max_ns, dtype=float)
    step_ns = t_max_ns / _COARSE_STEPS if step_ns is None else np.full(n, step_ns, dtype=float)
    if single:
        if not (isinstance(rho0, DensityMatrix) and isinstance(steady, (DensityMatrix, type(None)))):
            raise DomainError("one generator takes its initial and steady states as DensityMatrix")
        _check_search(epsilon, t_max_ns, step_ns)
        rho_ss = steady if steady is not None else steady_state(L)
        if rho0.basis.labels != L.basis.labels or rho_ss.basis.labels != L.basis.labels:
            raise DomainError("initial state, steady state and generator bases differ")
        liouvs, rho0, steady = [L], rho0.matrix[None], rho_ss.matrix[None]
    else:
        if steady is None:
            raise DomainError("a stack of generators needs its steady states")
        liouvs = _stack(L)
        shape = (n, L[0].dim, L[0].dim)
        if np.shape(rho0) != shape or np.shape(steady) != shape:
            raise DomainError(
                f"initial and steady states must be {shape} stacks, got {np.shape(rho0)} and {np.shape(steady)}"
            )
        rho0, steady = (physical_states(np.array(s, dtype=complex)) for s in (rho0, steady))
    out = _each_alone(_characteristic_times, liouvs, rho0, steady, epsilon, t_max_ns, step_ns)
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
