import numpy as np
import pytest
import scipy.linalg as la

from conftest import random_density
from qdm.basis import effective6, single_dot3
from qdm.errors import BasisMismatchError, PositivityError, UnitarityError
from qdm.operators import (
    DensityMatrix,
    OperatorMatrix,
    Superoperator,
    change_basis,
    lindblad_term,
    tensor,
    trace_distance,
    trace_distance_matrices,
    unvectorize,
    vectorize,
)


def test_vectorize_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    np.testing.assert_allclose(unvectorize(vectorize(m), 6), m)


def test_column_stacking_identity():
    # vec(A X B) = kron(B^T, A) vec(X)
    rng = np.random.default_rng(1)
    a, x, b = (rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) for _ in range(3))
    lhs = vectorize(a @ x @ b)
    rhs = np.kron(b.T, a) @ vectorize(x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_density_matrix_validation():
    b = effective6()
    with pytest.raises(PositivityError):
        DensityMatrix(b, np.eye(6))  # trace 6
    bad = np.zeros((6, 6), dtype=complex)
    bad[0, 0], bad[1, 1] = 1.5, -0.5
    with pytest.raises(PositivityError):
        DensityMatrix(b, bad)
    nonherm = np.eye(6, dtype=complex) / 6
    nonherm[0, 1] = 0.3
    with pytest.raises(PositivityError):
        DensityMatrix(b, nonherm)


def test_density_matrix_populations(basis6):
    rho = DensityMatrix(basis6, random_density(6, 7))
    pops = rho.populations()
    assert set(pops) == set(basis6.labels)
    assert abs(sum(pops.values()) - 1) < 1e-10


def test_operator_shape_mismatch():
    with pytest.raises(BasisMismatchError):
        OperatorMatrix(effective6(), np.eye(5))


def test_superoperator_apply_matches_matrix(basis6):
    rng = np.random.default_rng(3)
    sup = Superoperator(basis6, rng.standard_normal((36, 36)))
    rho = random_density(6, 11)
    np.testing.assert_allclose(
        vectorize(sup.apply(rho)), sup.matrix @ vectorize(rho), atol=1e-12
    )


def test_lindblad_term_against_direct_arithmetic(basis6):
    rng = np.random.default_rng(4)
    lm = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    L = OperatorMatrix(basis6, lm)
    sup = lindblad_term(L)
    for seed in range(5):
        rho = random_density(6, 100 + seed)
        direct = lm @ rho @ lm.conj().T - 0.5 * (
            lm.conj().T @ lm @ rho + rho @ lm.conj().T @ lm
        )
        np.testing.assert_allclose(sup.apply(rho), direct, atol=1e-12)


def test_tensor_product_embedding():
    dot = single_dot3()
    op = np.zeros((3, 3))
    op[0, 2] = 1.0  # |0><s|
    ident = OperatorMatrix(dot, np.eye(3))
    left = tensor(OperatorMatrix(dot, op), ident)
    assert left.dim == 9
    b = left.basis
    assert abs(left.matrix[b.index("01"), b.index("s1")] - 1.0) < 1e-14


def test_change_basis_requires_unitary(basis6):
    op = OperatorMatrix(basis6, np.diag(np.arange(6.0)))
    with pytest.raises(UnitarityError):
        change_basis(op, np.eye(6) * 2, basis6)
    rotated = change_basis(op, np.eye(6), basis6)
    np.testing.assert_allclose(rotated.matrix, op.matrix)


def test_trace_distance_extremes(basis6):
    v = np.zeros((6, 6), dtype=complex)
    w = np.zeros((6, 6), dtype=complex)
    v[0, 0] = 1.0
    w[1, 1] = 1.0
    r1 = DensityMatrix(basis6, v)
    r2 = DensityMatrix(basis6, w)
    assert abs(trace_distance(r1, r2) - 1.0) < 1e-12
    assert trace_distance(r1, r1) < 1e-14


def test_trace_distance_matches_singular_values():
    rng = np.random.default_rng(11)
    for dim in (4, 6, 16):
        for _ in range(5):
            g1, g2 = (
                rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                for _ in range(2)
            )
            m1, m2 = g1 + g1.conj().T, g2 + g2.conj().T
            want = 0.5 * la.svdvals(m1 - m2).sum()
            assert abs(trace_distance_matrices(m1, m2) - want) < 1e-12 * want
