"""CPTP maps in Kraus form: validation, application, and invariant states.

Density matrices and state vectors are plain complex128 arrays; KrausMap
holds the Kraus operators of one map as one stacked (K, dim, dim) array.
Vectorization is row-major, so the superoperator of rho -> M rho M† is
kron(M, conj(M)).

invariant_state builds no S for a map of ladder pattern, whose Kraus operators are each
diagonal or have one nonzero entry: GAD, a classical chain, a thermal ladder in its energy basis
(Kossakowski, Frigerio, Gorini and Verri, CMP 57, 97 (1977)).  Its S moves populations by the
column-stochastic T[a, c] = sum_k |M_k[a, c]|^2 and keeps each coherence in a 1 x 1 block, so
when T has one closed class pi is diagonal, and GTH elimination on T gives it to full relative
accuracy.  Any other map's S is built on its own and split into the connected components of its
exact nonzero pattern: a 1 x 1 block is its own eigenvalue, and each larger block B takes one
SVD of B - 1.

The maps of a process are checked together as one KrausStack, their operators concatenated into
one (sum K_r, d, d) array: one trace-preservation test, one fixed-point residual and one
eigendecomposition of the states serve every map, and GTH runs once over the maps of ladder
pattern (fixed_states).  Each result is the one map's own bytes; invariant_state is the one-map
case.
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
    require,
)
from .linalg import (adjoint, as_complex_matrix, as_complex_stack, frobs, hermitian_eig,
                     hermiticity_defect)


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


@dataclass(frozen=True)
class KrausStack:
    """The Kraus operators of R maps of one dimension, concatenated into one (sum K_r, d, d) array.

    Map r owns rows bounds[r] to bounds[r + 1] and owner[i] is the map of row i, so
    per-operator work on every map of a process is one array operation; x[owner]
    is each map's entry of a per-map (R, ...) array x at each of its rows.
    """

    operators: np.ndarray
    bounds: np.ndarray      # (R + 1,) row offsets
    owner: np.ndarray       # (sum K_r,) map index of each row

    @property
    def dim(self) -> int:
        return self.operators.shape[1]

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def sums(self, rows: np.ndarray) -> np.ndarray:
        """Per map, the sum of its rows of a per-operator (sum K_r, ...) array."""
        # one .sum(axis=0) per map: on one d = 16, K = 31 map's complex rows it took
        # 7 us, np.add.reduceat along the first axis 17-105 us (one thread)
        bounds = self.bounds.tolist()
        return np.stack([rows[a:b].sum(axis=0) for a, b in zip(bounds, bounds[1:])])


def stack_maps(kmaps) -> KrausStack:
    """The KrausStack of a nonempty sequence of maps, which must share one dimension."""
    dims = {kmap.dim for kmap in kmaps}
    if len(dims) != 1:
        raise DimensionMismatchError(f"inconsistent dimensions in process: {dims}")
    counts = [len(kmap) for kmap in kmaps]
    ops = kmaps[0].operators if len(kmaps) == 1 else np.concatenate([m.operators for m in kmaps])
    return KrausStack(ops, np.cumsum([0] + counts), np.repeat(np.arange(len(kmaps)), counts))


def tp_defects(stack: KrausStack) -> np.ndarray:
    """Frobenius norm of sum_k M_k† M_k - 1 of each map of a stack."""
    ops = stack.operators
    return frobs(stack.sums(adjoint(ops) @ ops) - np.eye(stack.dim))


def tp_defect(kmap: KrausMap) -> float:
    """Frobenius norm of sum_k M_k† M_k - 1: the one-map case of tp_defects."""
    return float(tp_defects(stack_maps([kmap]))[0])


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


def validate_density(rho: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """Check Hermiticity, positivity up to -eps_pos, and unit trace; returns (rho as a
    complex matrix, the HermitianEigenDecomposition its positivity test takes)."""
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise DimensionMismatchError(f"density matrix is not square: {rho.shape}")
    require(hermiticity_defect(rho) <= tol.eps_herm, lambda _: NonHermitianError(
        "density matrix is not Hermitian within eps_herm"))
    tr = np.trace(rho)
    require(abs(tr - 1.0) <= 1e-12, lambda _: ValueError(
        f"density matrix trace {tr} is not 1 within 1e-12"))
    eig = hermitian_eig(rho, tol)
    low = np.min(eig.eigenvalues)
    require(low >= -tol.eps_pos, lambda _: ValueError(
        f"density matrix has eigenvalue {low:.3e} below -eps_pos"))
    return rho, eig


def apply_map(kmap: KrausMap, rho: np.ndarray) -> np.ndarray:
    """sum_k M_k rho M_k†."""
    if rho.shape != (kmap.dim, kmap.dim):
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match map dimension {kmap.dim}"
        )
    ops = kmap.operators
    return (ops @ rho @ adjoint(ops)).sum(axis=0)


def fixed_point_residuals(stack: KrausStack, states: np.ndarray) -> np.ndarray:
    """||E_r(states[r]) - states[r]||_F for each map E_r of a stack."""
    ops = stack.operators
    return frobs(stack.sums(ops @ states[stack.owner] @ adjoint(ops)) - states)


def superoperator_view(kmap: KrausMap) -> np.ndarray:
    """The superoperator as a (dim, dim, dim, dim) array S[a, b, c, d], a view of the Choi
    matrix.

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


# The largest singular value of S - 1 counted as zero, with slack for roundoff in S.
FIXED_WINDOW = 1e-9


def superoperator_blocks(s: np.ndarray) -> np.ndarray:
    """Per index of S (superoperator_view), the least index of its connected component
    in S's exact nonzero pattern.

    adj = (S != 0) | (S != 0)^T with no threshold, so S restricted to the
    components is exactly block-diagonal.  Each round sets every label to the
    least label among its neighbours and then jumps pointers until every label
    is its own label's label; the rounds stop when a round changes nothing.
    """
    n = len(s) ** 2
    nonzero = (s.view(np.float64) != 0).view(np.uint16).reshape(n, n) != 0  # 3x faster than s != 0
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


def _not_unique(kmap: KrausMap, count: int, tol: Tolerances) -> NonUniqueInvariantState:
    """The error of a degenerate fixed subspace, offering 1/N when it is itself fixed."""
    maxmix = np.eye(kmap.dim) / kmap.dim
    fixed = fixed_point_residuals(stack_maps([kmap]), maxmix[None])[0] <= tol.eps_fix
    return NonUniqueInvariantState(count, candidate=maxmix if fixed else None)


def _population_chains(stack: KrausStack) -> tuple:
    """(indices of the maps of ladder pattern, their chains P = T^T).

    A map is of ladder pattern when each Kraus operator is diagonal or has one nonzero entry
    at most.  Then sum_k M_k† M_k = diag(column sums of T[a, c] = sum_k |M_k[a, c]|^2), so T
    is column-stochastic when the map is trace preserving; S maps populations by T and each
    coherence |c><e| to itself times sum_k M_k[c, c] conj(M_k[e, e]), of modulus at most
    sqrt(T[c, c] T[e, e]) by Cauchy-Schwarz: a coherence is fixed only between two states that
    T never leaves, two closed classes.  So a chain with one closed class has one fixed point.
    Each sum runs over one map's operators in order."""
    ops, d, starts = np.ascontiguousarray(stack.operators), stack.dim, stack.bounds[:-1]
    nonzero = ((ops.view(np.float64) != 0).view(np.uint16) != 0).reshape(len(ops), d * d)
    count = nonzero.sum(axis=1)
    spread = (count > 1) & (count > nonzero[:, ::d + 1].sum(axis=1))
    p = np.add.reduceat((ops.real**2 + ops.imag**2).transpose(0, 2, 1), starts)
    ladder = np.flatnonzero(~np.logical_or.reduceat(spread, starts))
    return ladder, p[ladder]


def _gth(p: np.ndarray) -> tuple:
    """(closed classes of each chain's exact pattern, x with x P = x of each chain with one
    closed class, else 0) of a (B, n, n) stack of row-stochastic P, overwritten.  Transient
    states are eliminated first, so no exit weight is zero and x is exactly 0 on them."""
    b, n = p.shape[:2]
    reach = (p != 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    closed = ~(reach > reach.transpose(0, 2, 1)).any(axis=2)  # each state it reaches reaches it
    classes = (closed & (reach.argmax(axis=2) == np.arange(n))).sum(axis=1)  # least of its class
    one = np.flatnonzero(classes == 1)
    order = np.argsort(~closed[one], axis=1, kind="stable")
    x = np.zeros((b, n))
    x[one[:, None], order] = _eliminate(p[one[:, None, None], order[:, :, None], order[:, None, :]])
    return classes, x


def _eliminate(p: np.ndarray) -> np.ndarray:
    """x with x P = x and sum x = 1 of each chain of a (B, n, n) stack, overwriting it, by
    Grassmann-Taksar-Heyman elimination (Oper. Res. 33, 1107 (1985)): state k is folded into
    the states below it, divided by its exit weight sum_{j<k} P[k, j], never 1 - P[k, k], so
    x keeps full relative accuracy however nearly decomposable P is (O'Cinneide, Numer. Math.
    65, 109 (1993)).  Elementwise operations and row sums only: each x is its chain's own."""
    n = p.shape[1]
    for k in range(n - 1, 0, -1):
        p[:, :k, k] /= np.add.reduce(p[:, k, :k], axis=1)[:, None]
        p[:, :k, :k] += p[:, :k, k, None] * p[:, k, None, :k]
    x = np.zeros(p.shape[:2])
    x[:, 0] = 1.0
    for k in range(n - 1):  # x[j] = sum_{i<j} x[i] P[i, j], the terms added in order of i
        x[:, k + 1:] += x[:, k, None] * p[:, k, k + 1:]
    return x / x.sum(axis=1)[:, None]


def fixed_states(kmaps, tol: Tolerances) -> np.ndarray:
    """The trace-one Hermitian part of each map's fixed vector of S, not yet checked.

    The maps must be trace preserving, as checked_states tests them first.  A map of ladder
    pattern whose population chain has one closed class (_population_chains) builds no S:
    pi = diag(x), x the chain's GTH vector (_gth, batched).  Any other map's S is built and
    labelled on its own (superoperator_blocks).  The eigenvalue 1 of a trace-preserving map
    is semisimple (Wolf, Quantum Channels & Operations, ch. 6), so the singular values of
    S - 1 at most FIXED_WINDOW count its fixed space: a 1 x 1 block's is read off S's
    diagonal at once, and each larger block B takes one SVD of B - 1, whose last right
    singular vector, conjugated, is a backward-stable fixed vector (Golub and Van Loan,
    8.6).  GTH takes ~0.06 ms for nine GAD maps and 0.31 ms for three d = 16 ladders; the
    block path ~0.12 ms for a qubit map, 0.92 ms for a Haar-rotated d = 8 ladder and 18 ms at
    d = 16, whose S is one block (one BLAS thread, shared 2-vCPU host).  No fixed vector, a
    degenerate fixed subspace or a traceless fixed vector raises.
    """
    d = kmaps[0].dim
    counts, vectors = np.zeros(len(kmaps), dtype=np.int64), np.zeros((len(kmaps), d * d), complex)
    ladder, chains = _population_chains(stack_maps(kmaps))
    if len(ladder):
        classes, x = _gth(chains)
        counts[ladder] = classes == 1  # several closed classes: the block path counts them
        vectors[ladder, ::d + 1] = x
    rest = np.flatnonzero(counts == 0).tolist()
    a, b = np.divmod(np.arange(d * d), d)
    for r in rest:
        s = superoperator_view(kmaps[r])
        labels = superoperator_blocks(s)
        sizes = np.bincount(labels, minlength=d * d)
        fixed = (sizes[labels] == 1) & (np.abs(s[a, b, a, b] - 1.0) <= FIXED_WINDOW)
        counts[r], vectors[r] = fixed.sum(), fixed  # a fixed 1 x 1 block's unit vector
        for root in np.flatnonzero(sizes > 1):
            block = np.flatnonzero(labels == root)
            sub = s[a[block, None], b[block, None], a[block], b[block]] - np.eye(len(block))
            # a real block, such as a ladder's population block, takes the faster real SVD
            _, sv, vh = np.linalg.svd(sub if sub.imag.any() else sub.real)
            zeros = np.count_nonzero(sv <= FIXED_WINDOW)
            if zeros == 1:
                vectors[r, block] = vh[-1].conj()
            counts[r] += zeros
    for kmap, count in zip(kmaps, counts):
        if count != 1:
            raise (_not_unique(kmap, count, tol) if count else
                   SingularStateError("the map has no fixed point within tolerance"))
    if rest:  # a GTH vector has trace one already
        x = vectors[rest].reshape(-1, d, d)
        tr = x.trace(axis1=1, axis2=2)
        require(np.abs(tr) >= 1e-14, lambda r: SingularStateError(
            f"the map's only fixed vector has zero trace ({abs(tr[r]):.3e}, below 1e-14), "
            f"so it is no multiple of a density matrix"))
        x = x / tr[:, None, None]
        vectors[rest] = ((x + adjoint(x)) / 2).reshape(len(rest), -1)
    return vectors.reshape(-1, d, d)


def check_fixed_points(stack: KrausStack, states: np.ndarray, tol: Tolerances) -> None:
    """Raise SingularStateError unless ||E_r(states[r]) - states[r]||_F <= eps_fix for each
    map E_r of the stack."""
    residual = fixed_point_residuals(stack, states)
    require(residual <= tol.eps_fix, lambda r: SingularStateError(
        f"state is not a fixed point of the map: residual {residual[r]:.3e} "
        f"exceeds eps_fix={tol.eps_fix}"))


def require_positive(eigenvalues: np.ndarray, tol: Tolerances) -> None:
    """Raise SingularStateError unless each row of (R, d) eigenvalues is above eps_pos."""
    low = eigenvalues.min(axis=1)
    require(low > tol.eps_pos, lambda r: SingularStateError(
        f"invariant state has eigenvalue {low[r]:.3e}, not above "
        f"eps_pos={tol.eps_pos}; a strictly positive invariant state is required"))


def checked_states(stack: KrausStack, kmaps, pis, tol: Tolerances) -> tuple:
    """(states, their HermitianEigenDecomposition) of the maps of a stack; the pass's one entry.

    Each map is checked to be trace preserving (NotTracePreservingError).  Its state is
    pis[r] if given, else its unique invariant state, from one fixed_states call for all such
    maps; the given states are checked as one stack of finite d x d matrices.  Each state is
    checked to be a strictly positive fixed point (check_fixed_points, one stacked
    hermitian_eig, require_positive: SingularStateError).  One stacked test of each kind
    serves all maps; which map's error is raised, when several fail, is not specified.
    """
    deviation = tp_defects(stack)
    require(deviation <= tol.eps_tp, lambda r: NotTracePreservingError(
        f"map is not trace preserving: ||sum_k M_k† M_k - 1||_F = "
        f"{deviation[r]:.3e} exceeds eps_tp={tol.eps_tp}"))
    d = stack.dim
    computed = [r for r, pi in enumerate(pis) if pi is None]
    states = as_complex_stack([np.zeros((d, d)) if pi is None else pi for pi in pis])
    if states.shape[1:] != (d, d):
        raise DimensionMismatchError(
            f"state shape {states.shape[1:]} does not match map dimension {d}")
    if computed:
        states[computed] = fixed_states([kmaps[r] for r in computed], tol)
    check_fixed_points(stack, states, tol)
    eig = hermitian_eig(states, tol)
    require_positive(eig.eigenvalues, tol)
    return states, eig


def invariant_state(kmap: KrausMap, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Unique strictly positive fixed point of the map: checked_states' one-map case."""
    return checked_states(stack_maps([kmap]), [kmap], [None], tol)[0][0]
