"""Basis-labeled operator algebra on dense complex matrices.

Vectorization is column stacking throughout: ``vec(rho) = rho.flatten(order="F")``
and ``vec(A @ X @ B) = kron(B.T, A) @ vec(X)``. Every superoperator in the
package, `Superoperator.matrix` among them, is built with this one convention.

The dynamics run in one real frame, the exchange sectors of `sectors`: the
fixed unitary W from vec(rho) to d^2 real coordinates of a Hermitian rho,
split by the parity of the dot swap S(rho) = U rho U^dag (`basis.exchange`),
even ones first. W is unitary, so singular values and trace norms are kept.
A generator that preserves Hermiticity is real in this frame, where a matrix
product costs a quarter of the flops of a complex one; every generator of
the package commutes with S, so W L W^dag is block-diagonal
(`Superoperator.blocks`), and a state that is exchange-even, as the trace
is, lives in the even block.
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
#: relative to the largest entry of W L W^dag, that the block split may drop.
#: Rounding leaves at most 1.6e-17 on the presets and the full16 point.
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
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The even and odd blocks of W L W^dag, W of `sectors`, real and
        read-only, from one gather over the rows of L and one over its
        columns. Raises DomainError if L does not preserve Hermiticity, that
        is if the imaginary part of W L W^dag exceeds HERMITICITY_TOL x
        max |L|, or if the part coupling the blocks exceeds EXCHANGE_TOL x
        max |W L W^dag|: the generator then breaks the dot exchange, and
        dropping that part would change its dynamics."""
        sec = sectors(self.basis)
        index, coef = sec.w
        g = _gather(_gather(self.matrix.T, index, coef).T, index, coef.conj())
        imag = float(np.abs(g.imag).max())
        if imag > HERMITICITY_TOL * float(np.abs(self.matrix).max()):
            raise DomainError(f"generator does not preserve Hermiticity: imaginary part {imag:.2e}")
        g = g.real
        n = sec.n_even
        off = max(float(np.abs(g[:n, n:]).max(initial=0.0)), float(np.abs(g[n:, :n]).max(initial=0.0)))
        scale = float(np.abs(g).max())
        if off > EXCHANGE_TOL * scale:
            raise DomainError(
                f"generator breaks the dot exchange: its even and odd blocks couple by {off:.2e}, "
                f"{off / scale:.1e} of its largest entry, above {EXCHANGE_TOL}"
            )
        out = np.ascontiguousarray(g[:n, :n]), np.ascontiguousarray(g[n:, n:])
        for block in out:
            block.setflags(write=False)
        return out


@dataclass(frozen=True)
class Sectors:
    """The exchange-sector frame of a basis: W and W^dag as (index,
    coefficient) gathers (`_gather`), the rows of W^dag in the row-major
    order of rho, so that its gather reshapes to the matrix; the count of
    even rows of W, and the trace row in even coordinates."""

    n_even: int
    w: tuple[np.ndarray, np.ndarray]
    w_adj: tuple[np.ndarray, np.ndarray]
    trace: np.ndarray


def _gather(x: np.ndarray, index: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """M x on the last axis of `x`, complex, for the M whose row r is the
    sum over k of coef[r, k] e_index[r, k]. Each term is scaled in place and
    added to the first: one (..., n, K) temporary costs about three times as
    much on full16, and a new product per term a third more."""
    y = np.asarray(x[..., index[:, 0]], dtype=complex)
    y *= coef[:, 0]
    for k in range(1, index.shape[1]):
        term = np.asarray(x[..., index[:, k]], dtype=complex)
        term *= coef[:, k]
        y += term
    return y


@cache
def sectors(basis: ModelBasis) -> Sectors:
    """The exchange-sector frame of `basis`: W = Q T, composed from the
    gathers of T and Q, never as a dense product, with 2 terms per row on
    the effective bases, whose labels carry the parity, and 4 on the product
    bases.

    T takes vec(rho) to rho_ii, then sqrt(2) Re rho_ij, then sqrt(2) Im
    rho_ij, i < j in `np.triu_indices` order. S maps the diagonal coordinate
    of i to that of image(i), and the pair (i, j) to (image(i), image(j))
    with the sign sign(i) sign(j); when the swap reverses the pair's order,
    its imaginary coordinate changes sign. Q is `parity_split` of S, one
    term per row where S fixes every coordinate.
    """
    d = basis.dim
    image, sign = exchange(basis)
    i, j = np.triu_indices(d, 1)
    n = len(i)
    diag, up, lo = np.arange(d) * (d + 1), i + d * j, j + d * i
    s = math.sqrt(0.5)
    # the imaginary rows list lo first, so each column of the index is a permutation
    t_index = np.concatenate([np.stack([diag, diag], axis=1), np.stack([up, lo], axis=1), np.stack([lo, up], axis=1)])
    t_coef = np.repeat([[1.0, 0.0], [s, s], [1j * s, -1j * s]], [d, n, n], axis=0)
    pair = np.zeros((d, d), dtype=int)
    pair[i, j] = np.arange(n)
    a, b = image[i], image[j]
    p = pair[np.minimum(a, b), np.maximum(a, b)]
    sign_pair = sign[i] * sign[j]
    q_index, q_coef, n_even = parity_split(
        np.concatenate([image, d + p, d + n + p]),
        np.concatenate([np.ones(d), sign_pair, np.where(a < b, sign_pair, -sign_pair)]),
    )
    if not q_coef[:, 1].any():
        q_index, q_coef = q_index[:, :1], q_coef[:, :1]
    index = t_index[q_index].reshape(d * d, -1)
    coef = (q_coef[..., None] * t_coef[q_index]).reshape(d * d, -1)
    # as in T and Q, each column of W's index is a permutation, and its
    # inverse gathers W^dag; row c = a d + b of W^dag gives rho_ab, entry
    # a + d b of vec(rho). A scatter, as a sort would page in ~0.25 MB of code
    inverse = np.empty_like(index)
    inverse[index % d * d + index // d, np.arange(index.shape[1])] = np.arange(d * d)[:, None]
    w_adj = inverse, np.take_along_axis(coef, inverse, axis=0).conj()
    # Tr rho = <vec(I), vec(rho)> = <W vec(I), W vec(rho)>, and I is even
    trace = _gather(np.eye(d).ravel(), index, coef).real[:n_even].copy()
    for arr in (index, coef, *w_adj, trace):
        arr.setflags(write=False)
    return Sectors(n_even, (index, coef), w_adj, trace)


def to_sectors(rho: np.ndarray, sec: Sectors) -> np.ndarray:
    """W vec(rho): Hermitian matrices on the last two axes in sector coordinates."""
    vec = rho.swapaxes(-1, -2).reshape(*rho.shape[:-2], -1)
    return _gather(vec, *sec.w).real


def from_sectors(y: np.ndarray, sec: Sectors) -> np.ndarray:
    """W^dag y: sector coordinates on the last axis back to new complex
    Hermitian matrices; a `y` shorter than d^2 holds the leading sectors,
    the rest are zero."""
    d = math.isqrt(len(sec.w[0]))
    full = np.zeros((*y.shape[:-1], d * d))
    full[..., :y.shape[-1]] = y
    return _gather(full, *sec.w_adj).reshape(*y.shape[:-1], d, d)


def trace_distance_matrices(m1: np.ndarray, m2: np.ndarray) -> float | np.ndarray:
    """Half the trace norm of the difference of two Hermitian matrices.

    The difference is Hermitian, so its singular values are the moduli of
    its eigenvalues; `eigvalsh` reads only its lower triangle. Broadcasts over
    leading axes, one batched call for a stack; two matrices give a float.
    """
    dist = 0.5 * np.abs(np.linalg.eigvalsh(m1 - m2)).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist
