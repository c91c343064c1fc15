"""Dense complex linear algebra for small Hilbert dimensions.

All matrices are numpy complex128 arrays.  Construction helpers enforce
finiteness and the dimension cap; eigendecompositions use a fixed phase
convention so repeated runs on one platform are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, MAX_DIM, Tolerances
from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NotUnitaryError,
    SingularStateError,
)


def as_complex_matrix(a) -> np.ndarray:
    """Coerce to a finite complex128 2-D array, enforcing the dimension cap."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix contains NaN or Inf entries")
    if max(m.shape) > MAX_DIM:
        raise DimensionMismatchError(
            f"dimension {max(m.shape)} exceeds the cap {MAX_DIM}"
        )
    return m


def as_complex_stack(a, dim: int | None = None) -> np.ndarray:
    """A new finite complex128 (K, d, d) stack of square matrices, enforcing the dimension cap.

    With dim given the matrices must be dim x dim, and no matrices is the (0, dim, dim) stack.
    """
    try:
        s = np.array(a, dtype=np.complex128)
    except ValueError as exc:  # numpy's "inhomogeneous shape" of matrices of different sizes
        raise DimensionMismatchError(f"the matrices do not stack into one array: {exc}") from exc
    if dim is not None and s.shape[:1] == (0,):
        s = s.reshape(0, dim, dim)
    if s.ndim != 3 or s.shape[1] != s.shape[2] or dim not in (None, s.shape[1]):
        want = "square matrices" if dim is None else f"{dim} x {dim} matrices"
        raise DimensionMismatchError(f"expected a stack of {want}, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("matrix contains NaN or Inf entries")
    if s.shape[1] > MAX_DIM:
        raise DimensionMismatchError(f"dimension {s.shape[1]} exceeds the cap {MAX_DIM}")
    return s


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return a.conj().swapaxes(-1, -2)


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frobs(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a (K, m, n) stack."""
    return np.linalg.norm(stack, axis=(-2, -1))


def hermiticity_defects(stack: np.ndarray) -> np.ndarray:
    """Relative Frobenius distance of each matrix of a (R, d, d) stack from its Hermitian part."""
    norms = frobs(stack)
    return np.divide(frobs(stack - adjoint(stack)), norms, out=np.zeros(len(stack)),
                     where=norms != 0.0)


def hermiticity_defect(a: np.ndarray) -> float:
    """hermiticity_defects of one matrix."""
    return float(hermiticity_defects(a[None])[0])


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Ascending eigenvalues and a unitary matrix of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    vectors is a matrix or a stack of them.  Makes the eigenbasis
    deterministic up to degeneracies, which LAPACK already resolves
    deterministically for fixed input bits.
    """
    d, n = vectors.shape[-2:]
    rows = np.argmax(np.abs(vectors), axis=-2)
    if vectors.ndim == 3:  # the pivots' rows in the matrices read as one (R d, n) array
        rows += np.arange(0, len(vectors) * d, d)[:, None]
    pivot = vectors.reshape(-1, n)[rows, np.arange(n)][..., None, :]
    size = np.abs(pivot)
    return vectors * np.divide(size, pivot, out=np.ones_like(pivot), where=size > 0)


def hermitian_eig(
    a: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a (R, d, d) stack.

    The input is symmetrized as (A + A†)/2 before decomposition; inputs
    that are non-Hermitian beyond eps_herm are rejected, a stack when any of
    its matrices is.  A stack's eigenvalues are (R, d) and its eigenvectors
    (R, d, d), each matrix's bit for bit as decomposed alone.
    """
    if np.ndim(a) == 3:
        a = as_complex_stack(a)
    else:
        a = as_complex_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatchError(f"matrix is not square: {a.shape}")
    defect = hermiticity_defects(a.reshape(-1, *a.shape[-2:])).max(initial=0.0)
    if defect > tol.eps_herm:
        raise NonHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds eps_herm={tol.eps_herm}"
        )
    vals, vecs = np.linalg.eigh((a + adjoint(a)) / 2)
    return HermitianEigenDecomposition(vals, _fix_phases(vecs))


def matrix_power_of_positive(
    a: np.ndarray, exponent: float, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """A^exponent for a positive-definite Hermitian A, via eigendecomposition."""
    eig = hermitian_eig(a, tol)
    if np.min(eig.eigenvalues) <= tol.eps_pos:
        raise SingularStateError(
            f"smallest eigenvalue {np.min(eig.eigenvalues):.3e} is not above "
            f"eps_pos={tol.eps_pos}; fractional powers are undefined"
        )
    v = eig.eigenvectors
    return (v * eig.eigenvalues**exponent) @ adjoint(v)


def check_unitary(
    u: np.ndarray, atol: float = 1e-10
) -> None:
    """Raise unless U†U = 1 within atol (Frobenius)."""
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        raise NotUnitaryError(f"matrix is not square: {u.shape}")
    defect = frob(adjoint(u) @ u - np.eye(u.shape[0]))
    if defect > atol:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {atol}")


def von_neumann_entropy(
    rho: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """-Tr[rho ln rho], ignoring eigenvalues below eps_pos."""
    vals = hermitian_eig(rho, tol).eigenvalues
    vals = vals[vals > tol.eps_pos]
    return float(-np.sum(vals * np.log(vals)))
