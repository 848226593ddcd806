import numpy as np
import pytest
import scipy.linalg as la

from conftest import (
    apply,
    dense_frame,
    full16_config,
    lindblad_term,
    random_density,
    trace_distance,
    unvectorize,
    vectorize,
)
from qdm.basis import effective6
from qdm.dynamics import evolve
from qdm.errors import BasisMismatchError, DomainError, PositivityError
from qdm.operators import (
    POSITIVITY_TOL,
    DensityMatrix,
    OperatorMatrix,
    Superoperator,
    physical_states,
    trace_distance_matrices,
    unvectorize_real,
    vectorize_real,
)
from qdm.scenarios import build_liouvillian, scenario_presets


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


def test_operator_shape_mismatch():
    with pytest.raises(BasisMismatchError):
        OperatorMatrix(effective6(), np.eye(5))


def test_superoperator_apply_matches_matrix(basis6):
    rng = np.random.default_rng(3)
    sup = Superoperator(basis6, rng.standard_normal((36, 36)))
    rho = random_density(6, 11)
    np.testing.assert_allclose(
        vectorize(apply(sup, rho)), sup.matrix @ vectorize(rho), atol=1e-12
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
        np.testing.assert_allclose(apply(sup, rho), direct, atol=1e-12)


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


def _bad_state(kind, dim=6):
    m = random_density(dim, 21)
    if kind == "not Hermitian":
        m[0, 1] += 1e-6
    elif kind == "trace":
        m *= 1.0 + 1e-6
    elif kind == "non-finite":  # every comparison with NaN is False
        m = np.diag([np.nan, 1.0] + [0.0] * (dim - 2)).astype(complex)
    elif kind == "non-finite, all":  # eigvalsh fails on it with LinAlgError
        m = np.full((dim, dim), np.nan, dtype=complex)
    else:
        m = np.diag([1.5, -0.5] + [0.0] * (dim - 2)).astype(complex)
    return m


def test_physical_states_match_single_validation(basis6):
    stack = np.array([random_density(6, seed) for seed in range(8)])
    stack[:, 0, 1] += 1e-12  # Hermitian only within tolerance
    singles = [DensityMatrix(basis6, m).matrix for m in stack]
    out = physical_states(stack)
    assert out is stack
    np.testing.assert_array_equal(out, np.array(singles))


@pytest.mark.parametrize(
    "kind", ["not Hermitian", "trace", "min eigenvalue", "non-finite", "non-finite, all"]
)
def test_physical_states_bad_interior_snapshot_raises_as_alone(basis6, kind):
    bad = _bad_state(kind)
    with pytest.raises(PositivityError) as alone:
        DensityMatrix(basis6, bad)
    assert kind.split(",")[0] in str(alone.value)
    stack = np.array([random_density(6, seed) for seed in range(5)])
    stack[2] = bad
    with pytest.raises(PositivityError) as stacked:
        physical_states(stack)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


@pytest.mark.parametrize("dim", [4, 6, 9])
@pytest.mark.parametrize("lam_min", [
    -POSITIVITY_TOL * (1 + 1e-3),
    -POSITIVITY_TOL * (1 - 1e-3),
    -POSITIVITY_TOL * (1 - 1e-5),
    0.0,
])
def test_positivity_screen_gives_the_eigensolvers_verdict(dim, lam_min):
    """Near the tolerance the Cholesky screen must defer to `eigvalsh`: a state
    fails exactly when its smallest eigenvalue is below -POSITIVITY_TOL."""
    rng = np.random.default_rng(dim)
    for _ in range(5):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        u, _ = np.linalg.qr(g)
        w = rng.uniform(0.1, 1.0, dim)
        w[0] = 0.0
        w *= (1.0 - lam_min) / w.sum()
        w[0] = lam_min
        rho = (u * w) @ u.conj().T
        herm = (rho + rho.conj().T) / 2
        wmin = np.linalg.eigvalsh(herm).min()
        stack = np.array([random_density(dim, 3), rho])
        if wmin < -POSITIVITY_TOL:
            with pytest.raises(PositivityError) as err:
                physical_states(stack)
            assert str(err.value) == f"density matrix min eigenvalue {wmin:.2e}"
        else:
            physical_states(stack)


def test_trace_distance_broadcasts_over_a_stack():
    stack = np.array([random_density(6, seed) for seed in range(6)])
    target = random_density(6, 99)
    batched = trace_distance_matrices(stack, target)
    assert batched.shape == (6,)
    for m, d in zip(stack, batched):
        assert trace_distance_matrices(m, target) == d


def test_unvectorize_broadcasts_over_a_stack_as_a_view():
    stack = np.array([random_density(6, seed) for seed in range(4)])
    rows = np.array([vectorize(m) for m in stack])
    out = unvectorize(rows, 6)
    assert out.shape == (4, 6, 6)
    for row, m in zip(rows, out):
        np.testing.assert_array_equal(m, unvectorize(row, 6))
    np.testing.assert_array_equal(out, stack)
    assert np.shares_memory(out, rows)


def test_wrappers_copy_the_callers_array(basis6):
    m = random_density(6, 3)
    sup = np.kron(m, m)
    wrapped = [OperatorMatrix(basis6, m), DensityMatrix(basis6, m), Superoperator(basis6, sup)]
    before = [w.matrix.copy() for w in wrapped]
    assert m.flags.writeable and sup.flags.writeable
    m[0, 0] += 1.0
    sup[0, 0] += 1.0
    for w, want in zip(wrapped, before):
        np.testing.assert_array_equal(w.matrix, want)
        assert not w.matrix.flags.writeable


@pytest.mark.parametrize("dim", [4, 6, 9])
def test_real_coordinates_round_trip(dim):
    stack = np.array([random_density(dim, seed) for seed in range(5)])
    stack[1] -= np.eye(dim) / dim  # Hermitian but not a state
    x = vectorize_real(stack)
    assert x.dtype == float and x.shape == (5, dim * dim)
    frame = dense_frame(dim)
    for row, m in zip(x, stack):
        np.testing.assert_allclose(row, (frame @ vectorize(m)).real, atol=1e-15)
        assert abs(row[:dim].sum() - m.trace().real) < 1e-15
    back = unvectorize_real(x, dim)
    np.testing.assert_allclose(back, stack, atol=1e-15)
    assert np.array_equal(back, back.conj().swapaxes(1, 2))
    # a single matrix is the stack's row
    np.testing.assert_array_equal(vectorize_real(stack[3]), x[3])
    np.testing.assert_array_equal(unvectorize_real(x[3], dim), back[3])


@pytest.mark.parametrize("name", ["fig3a", "fig3a_full9", "fig4a", "full16"])
def test_real_generator_is_the_dense_frame_product(name):
    config = full16_config() if name == "full16" else scenario_presets()[name]
    sup = build_liouvillian(config)
    frame = dense_frame(sup.dim)
    want = frame @ sup.matrix @ frame.conj().T
    scale = np.abs(sup.matrix).max()
    assert np.abs(want.imag).max() < 1e-15 * scale
    gen = sup.real_matrix
    assert gen.dtype == float and not gen.flags.writeable
    np.testing.assert_allclose(gen, want.real, rtol=0, atol=1e-15 * scale)
    assert sup.real_matrix is gen  # computed once per generator


def test_real_generator_rejects_a_non_hermitian_hamiltonian(basis6, liouv6, paper_mixture):
    # rho -> -i [H, rho] with H not Hermitian maps Hermitian rho off the
    # Hermitian matrices (assembly's H_eff rho - rho H_eff^dag never does)
    dh = np.zeros((6, 6), dtype=complex)
    dh[0, 1] = 1.0
    ident = np.eye(6)
    sup = Superoperator(basis6, liouv6.matrix - 1j * (np.kron(ident, dh) - np.kron(dh.T, ident)))
    with pytest.raises(DomainError, match="Hermiticity"):
        sup.real_matrix
    with pytest.raises(DomainError, match="Hermiticity"):
        evolve(paper_mixture, sup, np.linspace(0.0, 1.0, 3))
