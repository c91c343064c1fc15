import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.linalg import as_complex_matrix, check_unitary, frob

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


def test_von_neumann_entropy():
    assert q.von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == pytest.approx(0.0)
    assert q.von_neumann_entropy(np.eye(2) / 2) == pytest.approx(np.log(2))
