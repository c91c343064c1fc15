import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.linalg import _fix_phases, as_complex_matrix, as_complex_stack, check_unitary, frob
from conftest import assert_close

X = np.array([[0, 1], [1, 0]], dtype=complex)


def random_matrix(seed, dim=4):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def test_adjoint_raising_to_lowering():
    raising = np.array([[0, 1], [0, 0]], dtype=complex)
    assert np.allclose(q.adjoint(raising), np.array([[0, 0], [1, 0]]))


def test_adjoint_hermitian_fixed_point():
    a = np.array([[1, 1j], [-1j, 2]], dtype=complex)
    assert np.allclose(q.adjoint(a), a)


def test_adjoint_antilinear():
    assert np.allclose(q.adjoint(1j * np.eye(2)), -1j * np.eye(2))


def test_hermitian_eig_diagonal():
    eig = q.hermitian_eig(np.diag([1 / 3, 2 / 3]).astype(complex))
    assert np.allclose(eig.eigenvalues, [1 / 3, 2 / 3])
    assert np.allclose(np.abs(eig.eigenvectors), np.eye(2))


def test_hermitian_eig_pauli_x():
    eig = q.hermitian_eig(X)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(q.NonHermitianError):
        q.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_hermitian_eig_reconstruction(seed):
    m = random_matrix(seed)
    a = (m + m.conj().T) / 2
    eig = q.hermitian_eig(a)
    v = eig.eigenvectors
    rebuilt = (v * eig.eigenvalues) @ v.conj().T
    assert frob(rebuilt - a) <= 1e-12 * max(frob(a), 1.0)
    assert frob(v.conj().T @ v - np.eye(4)) <= 1e-12


def test_matrix_power_sqrt():
    assert np.allclose(
        q.matrix_power_of_positive(np.diag([4.0, 9.0]).astype(complex), 0.5),
        np.diag([2.0, 3.0]),
    )


def test_matrix_power_inverse_sqrt():
    assert np.allclose(
        q.matrix_power_of_positive(np.diag([4.0, 9.0]).astype(complex), -0.5),
        np.diag([0.5, 1 / 3]),
    )


def test_matrix_power_singular():
    with pytest.raises(q.SingularStateError):
        q.matrix_power_of_positive(np.diag([1.0, 0.0]).astype(complex), -0.5)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_adjoint_product_rule(seed):
    a = random_matrix(seed)
    b = random_matrix(seed + 1)
    lhs = q.adjoint(a @ b)
    rhs = q.adjoint(b) @ q.adjoint(a)
    assert frob(lhs - rhs) <= 1e-13 * max(frob(lhs), 1.0)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_sqrt_squares_back(seed):
    m = random_matrix(seed)
    a = m @ m.conj().T + 0.1 * np.eye(4)  # strictly positive
    root = q.matrix_power_of_positive(a, 0.5)
    assert frob(root @ root - a) <= 1e-11 * frob(a)


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_eigenvalues_sum_to_trace(seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    eig = q.hermitian_eig(rho)
    assert abs(np.sum(eig.eigenvalues) - np.trace(rho).real) <= 1e-12


def test_dimension_cap():
    with pytest.raises(q.DimensionMismatchError):
        as_complex_matrix(np.eye(17))


def test_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_complex_matrix(bad)


def test_check_unitary():
    check_unitary(X)
    with pytest.raises(q.NotUnitaryError):
        check_unitary(0.5 * X)


def test_check_unitary_refuses_a_matrix_that_is_not_square():
    with pytest.raises(q.NotUnitaryError, match=r"matrix is not square: \(2, 3\)"):
        check_unitary(np.ones((2, 3)))


def test_hermitian_eig_refuses_a_vector_and_a_matrix_that_is_not_square():
    with pytest.raises(q.DimensionMismatchError, match="expected a 2-D array, got ndim=1"):
        q.hermitian_eig(np.ones(3))
    with pytest.raises(q.DimensionMismatchError, match=r"matrix is not square: \(2, 3\)"):
        q.hermitian_eig(np.ones((2, 3)))


def test_von_neumann_entropy():
    assert q.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
    assert q.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2))


def fix_phases_by_column(vectors):
    """Reference: the column-by-column loop that _fix_phases' array form replaced."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = col[int(np.argmax(np.abs(col)))]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=16))
@settings(max_examples=40, deadline=None)
def test_fix_phases_matches_column_loop(seed, dim):
    vecs = np.linalg.eigh(random_matrix(seed, dim) + random_matrix(seed, dim).conj().T)[1]
    vecs[:, seed % dim] = 0.0  # a zero column keeps its phase
    assert_close(_fix_phases(vecs), fix_phases_by_column(vecs), ulps=4)
    fixed = _fix_phases(vecs)
    pivots = fixed[np.argmax(np.abs(fixed), axis=0), np.arange(dim)]
    assert np.all(np.abs(pivots.imag) <= 1e-15) and np.all(pivots.real >= 0)


def test_as_complex_stack_checks_the_whole_stack_once():
    ops = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    stack = as_complex_stack(ops)
    assert stack.dtype == np.complex128 and np.array_equal(stack, ops)
    assert not np.shares_memory(stack, ops)  # a new array, which kraus_map makes read-only
    assert as_complex_stack(list(ops), 2).shape == (2, 2, 2)
    for empty in ([], np.zeros((0, 2, 2)), np.zeros((0, 0, 0))):
        assert as_complex_stack(empty, 2).shape == (0, 2, 2)
    ragged = [[[1.0]], [[1.0, 2.0]]]
    for bad in ([np.eye(2), np.eye(3)], np.zeros((2, 2, 3)), np.eye(2), ragged):
        with pytest.raises(q.DimensionMismatchError):
            as_complex_stack(bad)
    with pytest.raises(q.DimensionMismatchError, match="expected a stack of 3 x 3 matrices"):
        as_complex_stack(ops, 3)
    with pytest.raises(q.DimensionMismatchError, match="exceeds the cap"):
        as_complex_stack(np.zeros((1, 17, 17)))
    for value in (np.nan, np.inf, 1j * np.inf):
        bad = ops.astype(complex)
        bad[1, 0, 1] = value
        with pytest.raises(ValueError, match="NaN or Inf"):
            as_complex_stack(bad)
