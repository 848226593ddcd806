"""Basis-labeled operator algebra on dense complex matrices.

Vectorization is column stacking throughout: ``vec(rho) = rho.flatten(order="F")``
and ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``. Every superoperator in the
package, `Superoperator.matrix` among them, is built with this one convention.

The dynamics run in a real frame: the d^2 coordinates of a Hermitian rho are
rho_ii, then sqrt(2) Re rho_ij, then sqrt(2) Im rho_ij, i < j in
`np.triu_indices` order (`vectorize_real`). The map T from vec(rho) to them
is unitary, so singular values and trace norms are kept, and the trace is
the sum of the first d coordinates. A generator that preserves Hermiticity
is real there, `Superoperator.real_matrix` = T L T^dag, and a real matrix
product costs a quarter of the flops of a complex one.

The dot swap U (`basis.exchange`) acts on the real frame as a signed
permutation of the coordinates, S(rho) = U rho U^dag. `sectors` gives the
fixed orthogonal change of coordinates Q that splits them by its parity:
an index selection on the effective bases, whose labels carry the parity,
and +-1/sqrt(2) pairs on the product bases. Every generator of the package
commutes with S, so Q G Q^T is block-diagonal (`Superoperator.blocks`), and
a state that is exchange-even, as the trace is, lives in the even block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from .basis import ModelBasis, exchange, parity_split
from .errors import BasisMismatchError, DomainError, PositivityError

HERMITICITY_TOL = 1e-12
DENSITY_HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-8
POSITIVITY_TOL = 1e-8
#: Diagonal shift of the Cholesky positivity screen of `physical_states`.
_SCREEN_SHIFT = 0.9999 * POSITIVITY_TOL
#: Largest part of a generator coupling its exchange-even and odd blocks,
#: relative to its largest entry, that the block split may drop. Rounding
#: leaves at most 1.6e-17 on the presets and the full16 point.
EXCHANGE_TOL = 1e-13


def _as_square(matrix: np.ndarray, dim: int, what: str) -> np.ndarray:
    """A complex copy of `matrix`, so freezing it leaves the caller's array alone."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (dim, dim):
        raise BasisMismatchError(f"{what} must be {dim}x{dim}, got {m.shape}")
    return m


@dataclass(frozen=True)
class OperatorMatrix:
    """A complex square matrix tied to a model basis."""

    basis: ModelBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = _as_square(self.matrix, self.basis.dim, "operator")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def is_hermitian(self, tol: float = HERMITICITY_TOL) -> bool:
        return float(np.abs(self.matrix - self.matrix.conj().T).max()) < tol


@dataclass(frozen=True)
class DensityMatrix:
    """A physical state: Hermitian, unit trace, positive within tolerance."""

    basis: ModelBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = physical_states(_as_square(self.matrix, self.basis.dim, "density matrix")[None])[0]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _checked(cls, basis: ModelBasis, matrix: np.ndarray) -> DensityMatrix:
        """Wrap a read-only (d, d) complex state that `physical_states` has
        already passed, without checking it again."""
        state = object.__new__(cls)
        object.__setattr__(state, "basis", basis)
        object.__setattr__(state, "matrix", matrix)
        return state

    @property
    def dim(self) -> int:
        return self.basis.dim


def physical_states(stack: np.ndarray) -> np.ndarray:
    """Check a writable (n, d, d) stack of states as DensityMatrix does,
    Hermitize it in place and return it. A failed check reports the worst
    matrix, so a single bad one raises what it raises alone.

    Positivity is screened by one batched Cholesky factorization of
    rho + _SCREEN_SHIFT I: if it completes, every lambda_min(rho) >=
    -_SCREEN_SHIFT - O(d^2 u), which clears -POSITIVITY_TOL by about 1e-12,
    far above rounding. Only a stack the screen rejects goes to `eigvalsh`,
    so every verdict is the eigensolver's own.
    """
    if not np.isfinite(stack).all():
        raise PositivityError("density matrix has non-finite entries")
    adj = stack.conj().swapaxes(-1, -2)
    herm = np.abs(stack - adj).max(axis=(-1, -2))
    if herm.max() > DENSITY_HERMITICITY_TOL:
        raise PositivityError(f"density matrix not Hermitian: max dev {herm.max():.2e}")
    tr = np.trace(stack, axis1=-2, axis2=-1)
    if abs(tr - 1.0).max() > TRACE_TOL:
        raise PositivityError(f"density matrix trace {tr[abs(tr - 1.0).argmax()]:.10f} != 1")
    stack += adj
    stack /= 2
    try:
        np.linalg.cholesky(stack + _SCREEN_SHIFT * np.eye(stack.shape[-1]))
    except np.linalg.LinAlgError:
        wmin = np.linalg.eigvalsh(stack).min()
        if wmin < -POSITIVITY_TOL:
            raise PositivityError(f"density matrix min eigenvalue {wmin:.2e}") from None
    return stack


@dataclass(frozen=True)
class Superoperator:
    """A matrix acting on vectorized density matrices.

    `memo` holds exp(G_b t) of its blocks by (block, t in ns), as a T0 search
    leaves the propagator of its run's grid step for `dynamics.evolve`; an
    entry is bitwise the Padé that `dynamics` would compute for it.
    """

    basis: ModelBasis
    matrix: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d2 = self.basis.dim ** 2
        m = _as_square(self.matrix, d2, "superoperator")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.basis.dim

    @cached_property
    def real_matrix(self) -> np.ndarray:
        """T L T^dag, computed once and read-only, from rows then columns of L
        gathered over the pairs i < j in O(d^4), not by products with a dense T.
        Raises DomainError if L does not preserve Hermiticity: if the dropped
        imaginary part exceeds HERMITICITY_TOL x max |L|."""
        d = self.dim
        i, j = _pairs(d)
        diag, up, lo = np.arange(d) * (d + 1), i + d * j, j + d * i
        s = math.sqrt(0.5)
        m = self.matrix
        rows = np.concatenate([m[diag], s * (m[up] + m[lo]), -1j * s * (m[up] - m[lo])])
        g = np.concatenate([rows[:, diag], s * (rows[:, up] + rows[:, lo]),
                            1j * s * (rows[:, up] - rows[:, lo])], axis=1)
        imag = float(np.abs(g.imag).max())
        if imag > HERMITICITY_TOL * float(np.abs(m).max()):
            raise DomainError(f"generator does not preserve Hermiticity: imaginary part {imag:.2e}")
        g = np.ascontiguousarray(g.real)
        g.setflags(write=False)
        return g

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The even and odd blocks of Q G Q^T, G = `real_matrix` and Q of
        `sectors`, read-only. Raises DomainError if the part coupling them
        exceeds EXCHANGE_TOL x max |G|: the generator then breaks the dot
        exchange, and dropping that part would change its dynamics."""
        g = self.real_matrix
        sec = sectors(self.basis)
        n = sec.n_even
        b = _apply(_apply(g, sec.q).T, sec.q).T
        off = max(float(np.abs(b[:n, n:]).max(initial=0.0)), float(np.abs(b[n:, :n]).max(initial=0.0)))
        scale = float(np.abs(g).max())
        if off > EXCHANGE_TOL * scale:
            raise DomainError(
                f"generator breaks the dot exchange: its even and odd blocks couple by {off:.2e}, "
                f"{off / scale:.1e} of its largest entry, above {EXCHANGE_TOL}"
            )
        out = np.ascontiguousarray(b[:n, :n]), np.ascontiguousarray(b[n:, n:])
        for block in out:
            block.setflags(write=False)
        return out


@dataclass(frozen=True)
class Sectors:
    """The exchange split of the real frame of a basis: the rows of Q, even
    ones first, as gathers (`_apply`), Q^T likewise, the count of even rows,
    and the trace row in even coordinates."""

    n_even: int
    q: tuple
    qt: tuple
    trace: np.ndarray


def _gathers(m: np.ndarray) -> tuple:
    """A matrix with one or two nonzeros per row as gathers: the first
    nonzero of every row, then the rows with a second one and that nonzero."""
    cols = [np.flatnonzero(row) for row in m]
    first = np.array([c[0] for c in cols])
    two = np.array([r for r, c in enumerate(cols) if len(c) == 2], dtype=int)
    second = np.array([cols[r][1] for r in two], dtype=int)
    return first, m[np.arange(len(m)), first], two, second, m[two, second]


def _apply(x: np.ndarray, gathers: tuple) -> np.ndarray:
    """M x on the last axis of `x`, for M given by `_gathers`. A row with
    one nonzero has the coefficient 1, so M is a selection on a basis
    without pairs, and its coordinates stay bitwise."""
    first, c_first, two, second, c_second = gathers
    y = x[..., first]
    if two.size:
        y *= c_first
        y[..., two] += x[..., second] * c_second
    return y


@cache
def sectors(basis: ModelBasis) -> Sectors:
    """The exchange split of the d^2 real-frame coordinates of `basis`.

    S maps the diagonal coordinate of i to that of image(i), and the pair
    (i, j) to (image(i), image(j)) with the sign sign(i) sign(j); when the
    swap reverses the pair's order, its imaginary coordinate changes sign.
    """
    d = basis.dim
    image, sign = exchange(basis)
    i, j = _pairs(d)
    pair = np.zeros((d, d), dtype=int)
    pair[i, j] = np.arange(len(i))
    a, b = image[i], image[j]
    p = pair[np.minimum(a, b), np.maximum(a, b)]
    s = sign[i] * sign[j]
    q, n_even = parity_split(
        np.concatenate([image, d + p, d + len(i) + p]),
        np.concatenate([np.ones(d), s, np.where(a < b, s, -s)]),
    )
    trace = q[:n_even, :d].sum(axis=1)
    trace.setflags(write=False)
    return Sectors(n_even, _gathers(q), _gathers(q.T), trace)


def to_sectors(x: np.ndarray, sec: Sectors) -> np.ndarray:
    """Q x: real-frame coordinates on the last axis in sector coordinates."""
    return _apply(x, sec.q)


def from_sectors(y: np.ndarray, sec: Sectors) -> np.ndarray:
    """Q^T y: sector coordinates on the last axis back in the real frame;
    a `y` shorter than d^2 holds the leading sectors, the rest are zero."""
    full = y.shape[-1] - len(sec.q[0])
    if full:
        y = np.concatenate([y, np.zeros((*y.shape[:-1], -full))], axis=-1)
    return _apply(y, sec.qt)


@cache
def _pairs(dim: int) -> tuple[np.ndarray, ...]:
    """Read-only (i, j), i < j in `np.triu_indices` order: the off-diagonal coordinates."""
    pairs = np.triu_indices(dim, 1)
    for index in pairs:
        index.setflags(write=False)
    return pairs


def vectorize_real(rho: np.ndarray) -> np.ndarray:
    """Real-frame coordinates of Hermitian matrices, on the last two axes."""
    i, j = _pairs(rho.shape[-1])
    off = math.sqrt(2.0) * rho[..., i, j]
    return np.concatenate([rho.diagonal(axis1=-2, axis2=-1).real, off.real, off.imag], axis=-1)


def unvectorize_real(x: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of `vectorize_real` on the last axis, broadcast over leading
    ones: new complex matrices, Hermitian by construction."""
    i, j = _pairs(dim)
    rho = np.empty((*x.shape[:-1], dim, dim), dtype=complex)
    rho[..., range(dim), range(dim)] = x[..., :dim]
    off = (x[..., dim:dim + len(i)] + 1j * x[..., dim + len(i):]) * math.sqrt(0.5)
    rho[..., i, j] = off
    rho[..., j, i] = off.conj()
    return rho


def trace_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the difference of two Hermitian matrices.

    The difference is Hermitian, so its singular values are the moduli of
    its eigenvalues; `eigvalsh` reads only its lower triangle. Broadcasts over
    leading axes, one batched call for a stack; two matrices give a float.
    """
    dist = 0.5 * np.abs(np.linalg.eigvalsh(m1 - m2)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist
