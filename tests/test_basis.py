import numpy as np
import pytest

from conftest import exchange_by_hand
from qdm.basis import (
    BasisKind,
    ModelBasis,
    effective6,
    embedding,
    effective8,
    exchange,
    exchange_basis,
    full9,
    full16,
    make_basis,
    restrict,
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


def test_embedding_is_a_cached_read_only_isometry():
    for b, parent in ((effective6(), full9()), (effective8(), full16())):
        got_parent, p = embedding(b)
        assert got_parent == parent and embedding(b)[1] is p
        assert p.shape == (parent.dim, b.dim) and not p.flags.writeable
        assert np.abs(p.conj().T @ p - np.eye(b.dim)).max() <= 1e-15
        for k, label in enumerate(b.labels):
            np.testing.assert_array_equal(p[:, k], state_vector(parent, label))
    for b in (full9(), full16()):
        with pytest.raises(BasisMismatchError):
            embedding(b)


def test_restrict_broadcasts_over_stacks():
    rng = np.random.default_rng(3)
    ops = rng.standard_normal((3, 9, 9)) + 1j * rng.standard_normal((3, 9, 9))
    stack = restrict(effective6(), ops)
    assert stack.shape == (3, 6, 6)
    for op, got in zip(ops, stack):
        np.testing.assert_allclose(got, restrict(effective6(), op), rtol=0, atol=1e-14)


@pytest.mark.parametrize("make, n_even", [(effective6, 5), (effective8, 7), (full9, 6), (full16, 10)])
def test_exchange_is_the_dot_swap_and_splits_by_parity(make, n_even):
    basis = make()
    d = basis.dim
    u = exchange_by_hand(basis)
    image, sign = exchange(basis)
    swap = np.zeros((d, d))
    swap[image, np.arange(d)] = sign
    assert np.array_equal(swap, u)
    v, count = exchange_basis(basis)
    assert count == n_even and not v.flags.writeable
    assert np.abs(v.T @ v - np.eye(d)).max() < 1e-15
    parity = np.diag([1.0] * n_even + [-1.0] * (d - n_even))
    assert np.abs(v.T @ u @ v - parity).max() < 1e-15


def test_exchange_rejects_a_label_without_an_image():
    with pytest.raises(BasisMismatchError, match="no image"):
        exchange(ModelBasis(BasisKind.EFFECTIVE6, ("00", "01", "x")))
