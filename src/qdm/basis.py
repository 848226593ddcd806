"""Labeled model bases and named-state embeddings.

The two-dot model lives on one of four working bases:

* ``EFFECTIVE6`` -- the 6-state space after adiabatic elimination:
  ``|00>, |S01>, |A01>, |11>, |S0s>, |S1s>``.
* ``EFFECTIVE8`` -- the same plus the inter-dot trion states ``|S0t>, |S1t>``.
* ``FULL9`` -- the product basis of two three-level dots ``{0, 1, s}``.
* ``FULL16`` -- the product basis of two four-level dots ``{0, 1, s, t}``.

Symmetric / antisymmetric combinations are ``|Sij> = (|ij> + |ji>)/sqrt(2)``
and ``|Aij> = (|ji> - |ij>)/sqrt(2)``.
"""

from __future__ import annotations

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
