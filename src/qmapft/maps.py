"""CPTP maps in Kraus form: validation, application, and invariant states.

Density matrices and state vectors are plain complex128 arrays; KrausMap
holds the Kraus operators of one map as one stacked (K, dim, dim) array.
Vectorization is row-major, so the superoperator of rho -> M rho M† is
kron(M, conj(M)).

From dimension BLOCK_SPLIT_MIN_DIM up, invariant_state splits the superoperator
into the connected components of its exact nonzero pattern and takes one eig
per block.  A map covariant under a diagonal Hamiltonian (Kossakowski, Frigerio,
Gorini and Verri, CMP 57, 97 (1977)) only couples coherences of one Bohr
frequency; a thermal ladder in its energy basis with one jump pair per pair of
levels couples each coherence |i><j| only to itself: at d = 16 that is one
16 x 16 population block and 240 1 x 1 blocks instead of one 256 x 256 eig.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    DimensionMismatchError,
    NonHermitianError,
    NonUniqueInvariantState,
    NotTracePreservingError,
    SingularStateError,
)
from .linalg import (HermitianEigenDecomposition, adjoint, as_complex_matrix, as_complex_stack,
                     frob, hermitian_eig, hermiticity_defect)


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
    """Build a KrausMap from a nonempty (K, d, d) stack, or list, of square matrices of one size.

    The operators are copied into a new read-only array, checked once as a whole
    (as_complex_stack): finite, square, of one size and within MAX_DIM.
    """
    if len(operators) == 0:
        raise ValueError("a Kraus map needs at least one operator")
    ops = as_complex_stack(operators)
    if labels is None:
        labels = tuple(f"K{k}" for k in range(len(ops)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(ops):
            raise ValueError("labels length does not match operator count")
    ops.setflags(write=False)
    return KrausMap(operators=ops, labels=labels)


def tp_defect(kmap: KrausMap) -> float:
    """Frobenius norm of sum_k M_k† M_k - 1."""
    ops = kmap.operators
    return frob((adjoint(ops) @ ops).sum(axis=0) - np.eye(kmap.dim))


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


def require_trace_preserving(kmap: KrausMap, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Raise NotTracePreservingError unless validate_cptp passes."""
    report = validate_cptp(kmap, tol)
    if not report.passed:
        raise NotTracePreservingError(
            f"map is not trace preserving: ||sum_k M_k† M_k - 1||_F = "
            f"{report.tp_deviation:.3e} exceeds eps_tp={tol.eps_tp}"
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
    return (ops @ rho @ adjoint(ops)).sum(axis=0)


def superoperator_view(kmap: KrausMap) -> np.ndarray:
    """The superoperator as a (dim, dim, dim, dim) array S[a, b, c, d], a view of the Choi matrix.

    sum_k kron(M_k, conj(M_k)) as one gemm: with F the (K, dim^2) flattened operators,
    the Choi matrix (F^T conj(F))[(a, c), (b, d)] = sum_k M_k[a, c] conj(M_k[b, d])
    is S[(a, b), (c, d)] with the middle indices swapped.
    """
    k, d = len(kmap), kmap.dim
    f = kmap.operators.reshape(k, d * d)
    return (f.T @ f.conj()).reshape(d, d, d, d).transpose(0, 2, 1, 3)


def build_superoperator(kmap: KrausMap) -> np.ndarray:
    """dim^2 x dim^2 matrix S with S vec(rho) = vec(E(rho)), row-major vec.

    superoperator_view copied into matrix order: a second dim^4 array next to the
    Choi matrix (1 MB each at dim 16).
    """
    d = kmap.dim
    return superoperator_view(kmap).reshape(d * d, d * d)


# Half-width of the eigenvalue-1 window, with slack for roundoff in the spectrum.
FIXED_WINDOW = 1e-9
# invariant_state takes one dense eig of S below this dimension and one eig per
# block of S from it up.  Ladder maps, one BLAS thread on a shared Xeon vCPU: at
# d = 2 the split took 64 us against 14 us for the dense eig, at d = 6 the two
# took the same time (96 us), and at d = 8 the split was 2-3x faster.
BLOCK_SPLIT_MIN_DIM = 6


def superoperator_blocks(s: np.ndarray) -> np.ndarray:
    """Per index of S (superoperator_view), the least index of its connected component
    in S's exact nonzero pattern.

    adj = (S != 0) | (S != 0)^T with no threshold, so S restricted to the
    components is exactly block-diagonal.  Each round sets every label to the
    least label among its neighbours and then jumps pointers until every label
    is its own label's label; the rounds stop when a round changes nothing.
    """
    n = len(s) ** 2
    nonzero = (s != 0).reshape(n, n)
    adj = nonzero | nonzero.T
    np.fill_diagonal(adj, True)
    rows, cols = np.divmod(np.flatnonzero(adj), n)  # 10x faster than np.nonzero
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    labels = np.arange(n)
    while True:
        hooked = np.minimum.reduceat(labels[cols], starts)
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, labels):
            return labels
        labels = hooked


def _dense_fixed_vector(s: np.ndarray) -> tuple:
    """Eigenvalues of S in the window around 1, and the eigenvector when there is one."""
    vals, vecs = np.linalg.eig(s)
    fixed = np.where(np.abs(vals - 1.0) <= FIXED_WINDOW)[0]
    return len(fixed), vecs[:, fixed[0]] if len(fixed) == 1 else None


def _block_fixed_vector(s: np.ndarray) -> tuple:
    """_dense_fixed_vector from one eig per diagonal block of S (superoperator_view).

    S is never copied into matrix order; each block is gathered from the view.
    The 1 x 1 blocks are their own eigenvalues and take one vectorized test; the
    eigenvector of a fixed block is scattered back into a zero vector of S's size.
    """
    d = len(s)
    labels = superoperator_blocks(s)
    sizes = np.bincount(labels, minlength=d * d)
    singles = np.flatnonzero(sizes[labels] == 1)
    a, b = np.divmod(singles, d)
    fixed = singles[np.abs(s[a, b, a, b] - 1.0) <= FIXED_WINDOW]
    count, vector = len(fixed), np.zeros(d * d, dtype=complex)
    vector[fixed[:1]] = 1.0  # the eigenvector of a fixed 1 x 1 block, if there is one
    for root in np.flatnonzero(sizes > 1):
        block = np.flatnonzero(labels == root)
        a, b = np.divmod(block, d)
        sub = s[a[:, None], b[:, None], a, b]
        # a real block, such as a ladder's population block, takes the faster real eig
        vals, vecs = np.linalg.eig(sub if sub.imag.any() else sub.real)
        in_window = np.flatnonzero(np.abs(vals - 1.0) <= FIXED_WINDOW)
        if count == 0 and len(in_window) == 1:
            vector[block] = vecs[:, in_window[0]]
        count += len(in_window)
    return count, vector if count == 1 else None


def invariant_state(
    kmap: KrausMap, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """Unique strictly positive fixed point of the map.

    Computed from the eigenvalue-1 subspace of the superoperator S: one dense
    eig below dimension BLOCK_SPLIT_MIN_DIM, else one eig per diagonal block of
    S (see the module docstring), with the fixed dimension counted over all
    blocks.  A degenerate subspace raises NonUniqueInvariantState (with 1/N
    offered as candidate when it is itself fixed), a singular or traceless fixed
    point raises SingularStateError.
    """
    if kmap.dim < BLOCK_SPLIT_MIN_DIM:
        count, vector = _dense_fixed_vector(build_superoperator(kmap))
    else:
        count, vector = _block_fixed_vector(superoperator_view(kmap))
    if count == 0:
        raise SingularStateError("the map has no fixed point within tolerance")
    if count > 1:
        maxmix = np.eye(kmap.dim) / kmap.dim
        candidate = None
        if frob(apply_map(kmap, maxmix) - maxmix) <= tol.eps_fix:
            candidate = maxmix
        raise NonUniqueInvariantState(count, candidate=candidate)
    x = vector.reshape(kmap.dim, kmap.dim)
    pi = (x + adjoint(x)) / 2
    tr = np.trace(pi).real
    if abs(tr) < 1e-14:
        # eig makes a vector's largest entry real; for a trace-preserving map with a positive
        # pi that is a diagonal entry, so the fixed vector is a real multiple of pi
        raise SingularStateError(
            f"the map's only fixed vector has zero trace ({tr:.3e}, below 1e-14), "
            f"so it is no multiple of a density matrix"
        )
    pi = pi / tr
    check_invariant_state(kmap, pi, tol)
    return pi


def check_invariant_state(
    kmap: KrausMap, pi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> HermitianEigenDecomposition:
    """Eigendecomposition of pi, once pi is checked to be a strictly positive fixed point.

    Raises SingularStateError when the residual ||E(pi) - pi||_F exceeds
    eps_fix or the smallest eigenvalue of pi is not above eps_pos.
    """
    residual = frob(apply_map(kmap, pi) - pi)
    if residual > tol.eps_fix:
        raise SingularStateError(
            f"state is not a fixed point of the map: residual {residual:.3e} "
            f"exceeds eps_fix={tol.eps_fix}"
        )
    eig = hermitian_eig(pi, tol)
    if np.min(eig.eigenvalues) <= tol.eps_pos:
        raise SingularStateError(
            f"invariant state has eigenvalue {np.min(eig.eigenvalues):.3e}, not above "
            f"eps_pos={tol.eps_pos}; a strictly positive invariant state is required"
        )
    return eig


def choose_invariant_state(
    kmap: KrausMap, pi=None, unital: bool = False, tol: Tolerances = DEFAULT_TOLERANCES
) -> np.ndarray:
    """pi if given, else 1/N if unital (the canonical choice when the fixed point is
    degenerate), else the unique invariant state."""
    if pi is not None:
        return pi
    if unital:
        return np.eye(kmap.dim) / kmap.dim
    return invariant_state(kmap, tol)
