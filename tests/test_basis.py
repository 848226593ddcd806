import numpy as np
import pytest

from qdm.basis import (
    BasisKind,
    ModelBasis,
    effective6,
    effective8,
    full9,
    full16,
    make_basis,
    state_vector,
)
from qdm.errors import BasisMismatchError


def test_dimensions():
    assert effective6().dim == 6
    assert effective8().dim == 8
    assert full9().dim == 9
    assert full16().dim == 16


def test_make_basis_roundtrip():
    for kind in BasisKind:
        assert make_basis(kind).kind == kind


def test_duplicate_labels_rejected():
    with pytest.raises(BasisMismatchError):
        ModelBasis(BasisKind.EFFECTIVE6, ("a", "a", "b"))


def test_symmetric_antisymmetric_combinations_on_full9():
    b = full9()
    s01 = state_vector(b, "S01")
    a01 = state_vector(b, "A01")
    assert abs(np.linalg.norm(s01) - 1) < 1e-14
    assert abs(np.linalg.norm(a01) - 1) < 1e-14
    assert abs(s01 @ a01.conj()) < 1e-14
    # A01 = (|10> - |01>)/sqrt(2)
    assert abs(a01[b.index("10")] - 1 / np.sqrt(2)) < 1e-14
    assert abs(a01[b.index("01")] + 1 / np.sqrt(2)) < 1e-14


def test_qubit_product_labels_on_effective6():
    b = effective6()
    v01 = state_vector(b, "01")
    v10 = state_vector(b, "10")
    s01 = state_vector(b, "S01")
    np.testing.assert_allclose((v01 + v10) / np.sqrt(2), s01, atol=1e-14)
    assert abs(v01 @ v10.conj()) < 1e-14


def test_unresolvable_label_raises():
    with pytest.raises(BasisMismatchError):
        state_vector(effective6(), "ss")
    with pytest.raises(BasisMismatchError):
        state_vector(full9(), "nope")


def test_state_vectors_are_cached_read_only():
    for b, label in ((effective6(), "01"), (full9(), "A1s"), (full9(), "00")):
        v = state_vector(b, label)
        assert state_vector(b, label) is v
        assert not v.flags.writeable
