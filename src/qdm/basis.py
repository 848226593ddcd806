"""Labeled model bases and named-state embeddings.

The two-dot model lives on one of four working bases:

* ``EFFECTIVE6`` -- the 6-state space after adiabatic elimination:
  ``|00>, |S01>, |A01>, |11>, |S0s>, |S1s>``.
* ``EFFECTIVE8`` -- the same plus the inter-dot trion states ``|S0t>, |S1t>``.
* ``FULL9`` -- the product basis of two three-level dots ``{0, 1, s}``.
* ``FULL16`` -- the product basis of two four-level dots ``{0, 1, s, t}``.

Symmetric / antisymmetric combinations are ``|Sij> = (|ij> + |ji>)/sqrt(2)``
and ``|Aij> = (|ji> - |ij>)/sqrt(2)``. Each effective basis spans a subspace
of a product basis (effective6 of full9, effective8 of full16), and its
operators are the restrictions P^dag A P of the product-basis ones
(`embedding`, `restrict`).

The two dots are identical, so the swap U of the two dots is a symmetry of
every model: on a product basis it maps ``|ab>`` to ``|ba>``, on an effective
basis it keeps ``|Sij>``, ``|00>``, ``|11>`` and flips the sign of ``|Aij>``
(`exchange`). `parity_split` turns such a signed swap into the orthonormal
even-then-odd basis of its two eigenspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product

import numpy as np

from .errors import BasisMismatchError


class BasisKind(Enum):
    EFFECTIVE6 = "effective6"
    EFFECTIVE8 = "effective8"
    FULL9 = "full9"
    FULL16 = "full16"


DOT3_LEVELS = ("0", "1", "s")
DOT4_LEVELS = ("0", "1", "s", "t")

_EFFECTIVE6_LABELS = ("00", "S01", "A01", "11", "S0s", "S1s")
_EFFECTIVE8_LABELS = _EFFECTIVE6_LABELS + ("S0t", "S1t")


@dataclass(frozen=True)
class ModelBasis:
    """An ordered, uniquely labeled basis of the model Hilbert space."""

    kind: BasisKind
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise BasisMismatchError("basis labels must be unique")

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)


def effective6() -> ModelBasis:
    return ModelBasis(BasisKind.EFFECTIVE6, _EFFECTIVE6_LABELS)


def effective8() -> ModelBasis:
    return ModelBasis(BasisKind.EFFECTIVE8, _EFFECTIVE8_LABELS)


def full9() -> ModelBasis:
    labels = tuple(a + b for a, b in product(DOT3_LEVELS, repeat=2))
    return ModelBasis(BasisKind.FULL9, labels)


def full16() -> ModelBasis:
    labels = tuple(a + b for a, b in product(DOT4_LEVELS, repeat=2))
    return ModelBasis(BasisKind.FULL16, labels)


def make_basis(kind: BasisKind) -> ModelBasis:
    return {
        BasisKind.EFFECTIVE6: effective6,
        BasisKind.EFFECTIVE8: effective8,
        BasisKind.FULL9: full9,
        BasisKind.FULL16: full16,
    }[kind]()


def _product_label_vector(basis: ModelBasis, label: str) -> np.ndarray:
    v = np.zeros(basis.dim, dtype=complex)
    v[basis.index(label)] = 1.0
    return v


@cache
def state_vector(basis: ModelBasis, label: str) -> np.ndarray:
    """Unit vector of a named state in `basis`, read-only.

    Accepts the basis' own labels plus, where resolvable, symmetric /
    antisymmetric combinations (``S01``, ``A1s``, ...) and two-qubit product
    labels (``01``, ``10``) on the effective bases.
    """
    product_kind = basis.kind in (BasisKind.FULL9, BasisKind.FULL16)
    if label in basis.labels:
        v = _product_label_vector(basis, label)
    elif product_kind and len(label) == 3 and label[0] in ("S", "A"):
        i, j = label[1], label[2]
        vij = _product_label_vector(basis, i + j)
        vji = _product_label_vector(basis, j + i)
        v = (vij + vji) / np.sqrt(2) if label[0] == "S" else (vji - vij) / np.sqrt(2)
    elif not product_kind and label in ("01", "10"):
        s01, a01 = state_vector(basis, "S01"), state_vector(basis, "A01")
        v = (s01 - a01) / np.sqrt(2) if label == "01" else (s01 + a01) / np.sqrt(2)
    else:
        raise BasisMismatchError(f"state {label!r} is not resolvable on basis {basis.kind.value}")
    v.setflags(write=False)
    return v


_PARENT = {BasisKind.EFFECTIVE6: full9, BasisKind.EFFECTIVE8: full16}


@cache
def embedding(basis: ModelBasis) -> tuple[ModelBasis, np.ndarray]:
    """The product basis an effective `basis` lives in, and the isometry P
    (read-only) whose columns are the effective states in it."""
    if basis.kind not in _PARENT:
        raise BasisMismatchError(f"basis {basis.kind.value} is not an effective basis")
    parent = _PARENT[basis.kind]()
    p = np.array([state_vector(parent, lab) for lab in basis.labels]).T
    p.setflags(write=False)
    return parent, p


def restrict(basis: ModelBasis, ops: np.ndarray) -> np.ndarray:
    """``P^dag A P``: operators on the parent product basis, one ``(D, D)`` or
    an ``(n, D, D)`` stack, restricted to the effective `basis`."""
    _, p = embedding(basis)
    return p.conj().T @ ops @ p


def _swap_image(labels: tuple[str, ...], label: str) -> tuple[str, float]:
    """The label U maps `label` to, and the sign it picks up."""
    if len(label) == 3 and label[0] in ("S", "A"):
        return label, 1.0 if label[0] == "S" else -1.0
    if len(label) == 2 and label[::-1] in labels:
        return label[::-1], 1.0
    raise BasisMismatchError(f"state {label!r} has no image under the dot exchange")


@cache
def exchange(basis: ModelBasis) -> tuple[np.ndarray, np.ndarray]:
    """The dot swap U on `basis` as a signed permutation, read-only:
    ``U e_i = sign[i] e_image[i]``, an involution."""
    images = [_swap_image(basis.labels, lab) for lab in basis.labels]
    image = np.array([basis.index(lab) for lab, _ in images])
    sign = np.array([s for _, s in images])
    for arr in (image, sign):
        arr.setflags(write=False)
    return image, sign


def parity_split(image: np.ndarray, sign: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The rows of a real orthogonal Q as two (index, coefficient) terms
    each, and its count of even rows, for the signed involution
    ``R e_i = sign[i] e_image[i]``: Q R Q^T is +1 on the first rows, -1 on
    the rest. A fixed e_i is even or odd by its sign, with a second term of
    coefficient 0; a pair i < m = image[i] gives (e_i + sign[i] e_m)/sqrt(2),
    even, and (e_i - sign[i] e_m)/sqrt(2), odd, whose terms are listed e_m
    first, so that each column of the index is a permutation. Rows keep the
    order of their lowest index, so a fixed e_0 stays row 0."""
    i = np.arange(len(image))
    fixed, r = image == i, math.sqrt(0.5)
    even = np.flatnonzero(fixed & (sign > 0) | (i < image))
    odd = np.flatnonzero(fixed & (sign < 0) | (i < image))
    index = np.concatenate([np.stack([even, image[even]], axis=1), np.stack([image[odd], odd], axis=1)])
    coef = np.concatenate([
        np.stack([np.where(fixed, 1.0, r), np.where(fixed, 0.0, sign * r)], axis=1)[even],
        np.stack([np.where(fixed, 1.0, -sign * r), np.where(fixed, 0.0, r)], axis=1)[odd],
    ])
    return index, coef, len(even)


@cache
def exchange_basis(basis: ModelBasis) -> tuple[np.ndarray, int]:
    """A real orthogonal V (read-only) whose columns are states of `basis`,
    the exchange-even ones first, and their count."""
    index, coef, n_even = parity_split(*exchange(basis))
    v = np.zeros((basis.dim, basis.dim))
    for k in range(2):
        v[index[:, k], np.arange(basis.dim)] += coef[:, k]
    v.setflags(write=False)
    return v, n_even
