"""CPTP maps in Kraus form: validation, application, and invariant states.

Density matrices and state vectors are plain complex128 arrays; KrausMap
holds the Kraus operators of one map as one stacked (K, dim, dim) array.
Vectorization is row-major, so the superoperator of rho -> M rho M† is
kron(M, conj(M)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonUniqueInvariantState,
    SingularStateError,
)
from .linalg import adjoint, as_complex_matrix, frob, hermitian_eig, hermiticity_defect


@dataclass(frozen=True)
class KrausMap:
    """One CPTP map: its K Kraus operators stacked into a read-only (K, dim, dim) array."""

    operators: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return len(self.operators)


def kraus_map(operators, labels=None) -> KrausMap:
    """Build a KrausMap from a nonempty list of square matrices of one size."""
    ops = [as_complex_matrix(m) for m in operators]
    if not ops:
        raise ValueError("a Kraus map needs at least one operator")
    dim = ops[0].shape[0]
    for m in ops:
        if m.shape != (dim, dim):
            raise DimensionMismatchError(
                f"operator shape {m.shape} does not match dimension {dim}"
            )
    if labels is None:
        labels = tuple(f"K{k}" for k in range(len(ops)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(ops):
            raise ValueError("labels length does not match operator count")
    stacked = np.stack(ops)
    stacked.setflags(write=False)
    return KrausMap(operators=stacked, labels=labels)


def tp_defect(kmap: KrausMap) -> float:
    """Frobenius norm of sum_k M_k† M_k - 1."""
    ops = kmap.operators
    return frob((ops.conj().swapaxes(1, 2) @ ops).sum(axis=0) - np.eye(kmap.dim))


@dataclass(frozen=True)
class ValidationReport:
    """Result of a CPTP check on a Kraus operator list."""

    tp_deviation: float
    tolerance: float
    trace_preserving: bool
    completely_positive: bool = True  # automatic for any Kraus list

    @property
    def passed(self) -> bool:
        return self.trace_preserving and self.completely_positive


def validate_cptp(kmap: KrausMap, tol: Tolerances = DEFAULT_TOLERANCES) -> ValidationReport:
    """Check trace preservation; complete positivity holds for any Kraus list."""
    dev = tp_defect(kmap)
    return ValidationReport(
        tp_deviation=dev, tolerance=tol.eps_tp, trace_preserving=dev <= tol.eps_tp
    )


def validate_density(rho: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Check Hermiticity, positivity up to -eps_pos, and unit trace."""
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix is not square: {rho.shape}")
    if hermiticity_defect(rho) > tol.eps_herm:
        raise NonHermitianError("density matrix is not Hermitian within eps_herm")
    tr = np.trace(rho)
    if abs(tr - 1.0) > 1e-12:
        raise ValueError(f"density matrix trace {tr} is not 1 within 1e-12")
    vals = hermitian_eig(rho, tol).eigenvalues
    if np.min(vals) < -tol.eps_pos:
        raise ValueError(
            f"density matrix has eigenvalue {np.min(vals):.3e} below -eps_pos"
        )
    return rho


def apply_map(kmap: KrausMap, rho: np.ndarray) -> np.ndarray:
    """sum_k M_k rho M_k†."""
    if rho.shape != (kmap.dim, kmap.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match map dimension {kmap.dim}"
        )
    ops = kmap.operators
    return (ops @ rho @ ops.conj().swapaxes(1, 2)).sum(axis=0)


def build_superoperator(kmap: KrausMap) -> np.ndarray:
    """dim^2 x dim^2 matrix S with S vec(rho) = vec(E(rho)), row-major vec.

    Summed one operator at a time: broadcasting all K products at once would
    hold a K dim^4 array (32 MB at dim 16, K = 31).
    """
    return sum(np.kron(m, m.conj()) for m in kmap.operators)


def invariant_state(
    kmap: KrausMap, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Unique strictly positive fixed point of the map.

    Computed from the eigenvalue-1 subspace of the superoperator; a
    degenerate subspace raises NonUniqueInvariantState (with 1/N offered as
    candidate when it is itself fixed), a singular fixed point raises
    SingularStateError.
    """
    s = build_superoperator(kmap)
    vals, vecs = np.linalg.eig(s)
    # eigenvalue-1 subspace, with slack for roundoff in the spectrum
    fixed = np.where(np.abs(vals - 1.0) <= 1e-9)[0]
    if len(fixed) == 0:
        raise SingularStateError("the map has no fixed point within tolerance")
    if len(fixed) > 1:
        maxmix = np.eye(kmap.dim) / kmap.dim
        candidate = None
        if frob(apply_map(kmap, maxmix) - maxmix) <= tol.eps_fix:
            candidate = maxmix
        raise NonUniqueInvariantState(len(fixed), candidate=candidate)
    x = vecs[:, fixed[0]].reshape(kmap.dim, kmap.dim)
    pi = (x + adjoint(x)) / 2
    tr = np.trace(pi).real
    if abs(tr) < 1e-14:
        # Hermitian part vanished; use the anti-Hermitian part instead
        pi = (x - adjoint(x)) / 2j
        tr = np.trace(pi).real
    pi = pi / tr
    if frob(apply_map(kmap, pi) - pi) > tol.eps_fix:
        raise SingularStateError(
            "fixed-point residual exceeds eps_fix after normalization"
        )
    eig = hermitian_eig(pi, tol)
    if np.min(eig.eigenvalues) <= tol.eps_pos:
        raise SingularStateError(
            f"invariant state has eigenvalue {np.min(eig.eigenvalues):.3e}; "
            f"a strictly positive invariant state is required"
        )
    return pi
