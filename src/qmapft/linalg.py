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


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frob(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def hermiticity_defect(a: np.ndarray) -> float:
    """Relative Frobenius distance of A from its Hermitian part."""
    na = frob(a)
    if na == 0.0:
        return 0.0
    return frob(a - adjoint(a)) / na


@dataclass(frozen=True)
class HermitianEigenDecomposition:
    """Ascending eigenvalues and a unitary matrix of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Makes the eigenbasis deterministic up to degeneracies, which LAPACK
    already resolves deterministically for fixed input bits.
    """
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        if abs(pivot) > 0:
            out[:, j] = col * (abs(pivot) / pivot)
    return out


def hermitian_eig(
    a: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> HermitianEigenDecomposition:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (A + A†)/2 before decomposition; inputs
    that are non-Hermitian beyond eps_herm are rejected.
    """
    a = as_complex_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"matrix is not square: {a.shape}")
    if hermiticity_defect(a) > tol.eps_herm:
        raise NonHermitianError(
            f"Hermiticity defect {hermiticity_defect(a):.3e} exceeds "
            f"eps_herm={tol.eps_herm}"
        )
    sym = (a + adjoint(a)) / 2
    vals, vecs = np.linalg.eigh(sym)
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
