"""Trajectory statistics through map concatenations.

A process is an ordered list of classified maps with measurements at both
ends.  Boundary modes:

* entropic    -- measure the eigenbasis of the initial state before the
                 maps and the eigenbasis of the evolved state after them;
                 the dual process starts from the transformed final state.
* equilibrium -- Gibbs initial states at one inverse temperature for both
                 the forward process (H_i) and the dual (H_f); the boundary
                 term is beta (dE - dF).

Trajectory entropy production is always the boundary term minus the summed
potential changes of the observed operations.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, finite_real
from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatchError,
    EnumerationTooLarge,
    SampleCountTooLarge,
    ZeroProbabilityBranch,
)
from .linalg import adjoint, as_complex_matrix, hermitian_eig, von_neumann_entropy
from .maps import KrausMap, apply_map, validate_density
from .potential import PotentialStructure, SymmetryOp, classify_duals, classify_maps, theta
from .models import gibbs_populations

ENTROPIC = "entropic"
EQUILIBRIUM = "equilibrium"

DEFAULT_BRANCH_CAP = 10_000_000

# How sample_trajectories draws its uniforms; recorded in Monte Carlo reports.
RNG_SCHEME = "philox-rows"
SEED_LIMIT = 2**128  # seeds are Philox keys, 128-bit unsigned integers

# Rows sample_trajectories walks at once.  100k samples of a 3-step GAD
# chain, median of 21 (one thread of a shared 2-vCPU host): blocks of 2048
# take 39.3 ms, 8192 take 40.3 ms and 32768 take 72.5 ms; the first two are
# within noise.
SAMPLE_BLOCK = 8192


@dataclass(frozen=True)
class ProcessStep:
    """One map of the concatenation together with its ladder classification."""

    map: KrausMap
    structure: PotentialStructure


@dataclass(frozen=True)
class BoundaryData:
    """Measurement bases and populations at both ends of a process.

    Every ProcessSpec carries one, resolved when the spec is built: by
    process_spec and with_steps from its boundary mode, or by
    build_dual_process from transforming the forward bases rather than from
    re-diagonalizing anything.
    """

    initial_basis: np.ndarray   # columns
    initial_probs: np.ndarray
    final_basis: np.ndarray
    final_probs: np.ndarray     # populations defining the dual-initial state


@dataclass(frozen=True)
class ProcessSpec:
    """A map concatenation with its boundary, resolved for these steps under the
    tolerances the spec was built with: change the steps with with_steps, as
    dataclasses.replace(spec, steps=...) keeps the old boundary."""

    steps: tuple
    boundary: BoundaryData
    boundary_mode: str = ENTROPIC
    initial_state: np.ndarray | None = None  # entropic mode; None for a dual process
    h_initial: np.ndarray | None = None      # equilibrium mode
    h_final: np.ndarray | None = None
    beta: float | None = None
    symmetry: SymmetryOp | None = None


def make_step(
    kmap: KrausMap,
    pi: np.ndarray | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ProcessStep:
    """Classify a map against pi if given (np.eye(d) / d for a unital map), else its invariant
    state: one step of make_steps."""
    return make_steps([kmap], [pi], tol)[0]


def make_steps(kmaps, pis, tol: Tolerances = DEFAULT_TOLERANCES) -> list:
    """make_step of every map, in one stacked pass (potential.classify_maps).

    pis[r] is map r's state, or None for its invariant state; a list of another
    length than kmaps raises ValueError.  The error raised is the first failing
    map's, as making the steps one by one in order would raise it.
    """
    structures = classify_maps(kmaps, pis, tol)
    return [ProcessStep(map=kmap, structure=s) for kmap, s in zip(kmaps, structures)]


def process_spec(
    steps,
    boundary_mode: str = ENTROPIC,
    initial_state=None,
    h_initial=None,
    h_final=None,
    beta: float | None = None,
    symmetry: SymmetryOp | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ProcessSpec:
    """Validated ProcessSpec constructor: the boundary, resolved for no steps, and the
    symmetry (theta of the boundary's dimension by default), then with_steps, which checks
    their dimensions.  An entropic boundary's initial side is the decomposition of rho_i
    that its positivity test takes (validate_density)."""
    if boundary_mode == ENTROPIC:
        if initial_state is None:
            raise ValueError("entropic mode needs an initial state")
        initial_state, initial_eig = validate_density(initial_state, tol)
        basis, probs = _measured(initial_eig)
        bnd = BoundaryData(basis, probs, basis, probs)  # no steps: the final state is the initial
    elif boundary_mode == EQUILIBRIUM:
        if h_initial is None or h_final is None or beta is None:
            raise ValueError("equilibrium mode needs H_i, H_f and beta")
        if not finite_real(beta):
            raise ValueError(f"'beta' must be a finite number, got {beta!r}")
        beta = float(beta)
        h_initial, h_final = as_complex_matrix(h_initial), as_complex_matrix(h_final)
        # Gibbs populations of H_i and H_f at one beta
        eig_i, eig_f = hermitian_eig(h_initial, tol), hermitian_eig(h_final, tol)
        p_i, p_f = (gibbs_populations(e.eigenvalues, beta)[0] for e in (eig_i, eig_f))
        bnd = BoundaryData(eig_i.eigenvectors, p_i, eig_f.eigenvectors, p_f)
    else:
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    if symmetry is None:
        symmetry = theta(len(bnd.initial_basis))
    spec = ProcessSpec(
        steps=(),
        boundary=bnd,
        boundary_mode=boundary_mode,
        initial_state=initial_state,
        h_initial=h_initial,
        h_final=h_final,
        beta=beta,
        symmetry=symmetry,
    )
    return with_steps(spec, steps, tol)


def with_steps(spec: ProcessSpec, steps, tol: Tolerances = DEFAULT_TOLERANCES) -> ProcessSpec:
    """spec with these steps and its boundary resolved for them.

    The steps, the symmetry and both boundary bases must share one dimension
    (DimensionMismatchError).  An entropic boundary keeps its initial side and
    decomposes, under tol, the initial state evolved through the steps; a dual
    process has no initial state and raises ValueError.  An equilibrium
    boundary is kept.
    """
    steps, bnd = tuple(steps), spec.boundary
    dims = ({s.map.dim for s in steps} | {len(spec.symmetry.matrix)}
            | {len(bnd.initial_basis), len(bnd.final_basis)})
    if len(dims) != 1:
        raise DimensionMismatchError(f"inconsistent dimensions in process: {dims}")
    if spec.boundary_mode == ENTROPIC:
        if spec.initial_state is None:
            raise ValueError("a dual process has no initial state to evolve through new steps")
        basis, probs = (_measured(hermitian_eig(_evolve(steps, spec.initial_state), tol))
                        if steps else (bnd.initial_basis, bnd.initial_probs))
        bnd = replace(bnd, final_basis=basis, final_probs=probs)
    return replace(spec, steps=steps, boundary=bnd)


def _measured(eig) -> tuple:
    """(eigenbasis, populations) of a state's decomposition: its eigenvalues clipped at 0."""
    return eig.eigenvectors, np.clip(eig.eigenvalues, 0.0, None)


def compile_process(
    spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES
) -> BoundaryData:
    """spec.boundary: its measurement bases and populations, resolved when it was built."""
    return spec.boundary


def _evolve(steps, rho: np.ndarray) -> np.ndarray:
    for step in steps:
        rho = apply_map(step.map, rho)
    return rho


@dataclass(frozen=True)
class Trajectory:
    """One realized outcome record with its probability and entropy production."""

    n: int
    ks: tuple
    m: int
    probability: float
    sigma_boundary: float
    delta_phi_sum: float

    @property
    def sigma(self) -> float:
        return self.sigma_boundary - self.delta_phi_sum

    def key(self) -> tuple:
        return (self.n, self.ks, self.m)


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble(Sequence):
    """Exact (probability-weighted) or sampled trajectories as parallel arrays.

    Row i is the outcome record (n[i], ks[i], m[i]) with its weight in the
    distribution (its probability, or 1/N for one of N samples), boundary term
    and summed potential change.  Exact rows come in lexicographic
    (n, k_1 .. k_R, m) order and store the enumerator's prefix codes, from
    which ks is decoded when read.  ens[i] builds row i's Trajectory record
    when it is read; a slice gives a tuple of them.
    """

    n: np.ndarray                # (N,) initial outcomes
    labels: np.ndarray           # exact: (N,) codes of (n, k_1 .. k_R); sampled: (N, R) draws
    m: np.ndarray                # (N,) final outcomes
    probability: np.ndarray      # (N,)
    sigma_boundary: np.ndarray   # (N,)
    delta_phi_sum: np.ndarray    # (N,)
    mode: str                    # "exact" or "mc"
    seed: int | None = None
    radices: tuple = ()          # exact: K_1 .. K_R, the digits of a code below n

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return Trajectory(
            *self.key(i),
            probability=float(self.probability[i]),
            sigma_boundary=float(self.sigma_boundary[i]),
            delta_phi_sum=float(self.delta_phi_sum[i]),
        )

    @property
    def ks(self) -> np.ndarray:
        """(N, R) Kraus labels, one column per step; exact codes are decoded on every read."""
        return self._decode(self.labels)

    def key(self, i: int) -> tuple:
        """Outcome record (n, ks, m) of row i."""
        return (int(self.n[i]), tuple(self._decode(self.labels[i]).tolist()), int(self.m[i]))

    def _decode(self, labels) -> np.ndarray:
        if self.mode != "exact":
            return labels
        digits = np.empty((len(self.radices),) + np.shape(labels), dtype=np.int64)
        for r in reversed(range(len(self.radices))):
            # a floor division and a product: np.divmod and % divide by a scalar far slower
            quotient = labels // self.radices[r]
            digits[r], labels = labels - quotient * self.radices[r], quotient
        return digits.T

    def sigmas(self) -> np.ndarray:
        return self.sigma_boundary - self.delta_phi_sum

    def probabilities(self) -> np.ndarray:
        return self.probability

    def mean(self, values: np.ndarray) -> float:
        """Expectation of per-row values: sum p * x when exact, the sample mean when sampled."""
        if self.mode == "exact":
            return float(np.sum(self.probability * values))
        # np.mean, not a sum with 1/N weights: the two round differently
        return float(np.mean(values))

    @property
    def trajectories(self) -> TrajectoryEnsemble:
        """The ensemble itself, read as a sequence of Trajectory records."""
        return self


def _boundary_terms(bnd: BoundaryData, n: np.ndarray, m: np.ndarray, tol: Tolerances) -> np.ndarray:
    """ln p_i(n) - ln p~_f(m) of each pair (n[i], m[i]); NaN where a population is <= eps_prob."""
    log_i, log_f = (np.log(p, out=np.full(len(p), np.nan), where=p > tol.eps_prob)
                    for p in (bnd.initial_probs, bnd.final_probs))
    return (log_i[:, None] - log_f[None, :]).reshape(-1).take(n * len(log_f) + m)


def _real_if_exact(z: np.ndarray) -> np.ndarray:
    """z.real, contiguous for BLAS, when every imaginary part of z is exactly zero; else z."""
    return np.ascontiguousarray(z.real) if np.iscomplexobj(z) and not z.imag.any() else z


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """re^2 + im^2 of z (re^2 when z is real), summed over its first axis."""
    squares = np.square(z.real)
    if np.iscomplexobj(z):
        squares += np.square(z.imag)
    # added first to last, as np.sum adds fewer than 8 numbers: a reduction
    # along an axis this short is slow
    return sum(squares[1:], squares[0])


def _live(phi: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Rows of phi whose squared norm is above the pruning floor."""
    return np.flatnonzero(_squared_norms(phi.T) > tol.eps_prob)


def enumerate_trajectories(
    spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES
) -> TrajectoryEnsemble:
    """Exact enumeration of the trajectory distribution, breadth first over arrays.

    The live branches of each step are the rows of a (B, d) array of
    unnormalized states; rows with squared norm at or below eps_prob are
    pruned and every operator is applied to every row at once, children in
    (row, k) order.  Rows of the result are therefore in lexicographic
    (n, k_1 .. k_R, m) order.  Each row carries its outcome prefix
    (n, k_1 .. k_r) as one mixed-radix integer, k_r least significant; the
    ensemble keeps it, and n is read off it once, after the last pruning.
    A real process runs in float64 until its first complex step
    (_real_if_exact).  The last stage keeps the (row, m) pairs of one
    flatnonzero of the (B, d) probabilities; every gather is a take.
    """
    bnd = compile_process(spec, tol)
    dim = bnd.initial_basis.shape[0]
    radices = tuple(len(step.map) for step in spec.steps)
    strings = math.prod(radices)
    if dim * dim * strings > DEFAULT_BRANCH_CAP:
        raise EnumerationTooLarge(dim * dim * strings, DEFAULT_BRANCH_CAP)
    code = np.flatnonzero(bnd.initial_probs > tol.eps_prob)
    phi = _real_if_exact(bnd.initial_basis).T.take(code, axis=0)
    dphi = np.zeros(len(code))
    # on (52,488, 2) rows phi.take(live, axis=0) took 62 us in float64 and 150 us in
    # complex128, phi[live] 853 and 886 us (best of 7, one thread of a shared 2-vCPU host)
    for step in spec.steps:
        live = _live(phi, tol)
        ops = _real_if_exact(step.map.operators)
        phi = (phi.take(live, axis=0) @ ops.reshape(-1, dim).T).reshape(-1, dim)
        code = (code.take(live)[:, None] * len(ops) + np.arange(len(ops))).ravel()
        dphi = (dphi.take(live)[:, None] + step.structure.delta_phi).ravel()
    live = _live(phi, tol)
    # each array is released once read, so that the temporaries after it reuse its
    # memory instead of faulting in new pages
    code, dphi, phi = code.take(live), dphi.take(live), phi.take(live, axis=0)
    del live
    amps = phi @ _real_if_exact(bnd.final_basis).conj()
    del phi
    n = code // strings
    probs = _squared_norms(amps[None])
    del amps
    probs *= bnd.initial_probs.take(n)[:, None]
    flat = np.flatnonzero(probs > tol.eps_prob)
    if not len(flat):
        raise ZeroProbabilityBranch(f"every branch has probability <= eps_prob = {tol.eps_prob}")
    row = flat // dim  # 0.5 ms for 73k pairs, where np.nonzero of the (B, d) mask took 1.3 ms
    m = flat - row * dim
    n = n.take(row)
    ensemble = TrajectoryEnsemble(
        n=n,
        labels=code.take(row),
        m=m,
        probability=probs.reshape(-1).take(flat),
        sigma_boundary=_boundary_terms(bnd, n, m, tol),
        delta_phi_sum=dphi.take(row),
        mode="exact",
        radices=radices,
    )
    bad = np.flatnonzero(np.isnan(ensemble.sigma_boundary))
    if bad.size:
        # forward mass lands on an outcome the dual process cannot start from
        raise AbsoluteContinuityViolation(ensemble.key(bad[0]), float(ensemble.probability[bad[0]]))
    return ensemble


def _draw_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per column, the first index whose running weight sum exceeds u * total.

    weights is (K, N) and u is (N,).  The running sums are K - 1 row
    additions, the ones np.cumsum makes in the same order; the drawn index
    counts the first K - 1 sums that are <= u * total.  That is
    searchsorted(side="right") of u * total on the column's cumulative sum,
    clipped to the last index.
    """
    running = [weights[0]]
    for row in weights[1:]:
        running.append(running[-1] + row)
    threshold = u * running[-1]
    drawn = np.zeros(len(u), dtype=np.int64)
    for partial in running[:-1]:
        drawn += partial <= threshold
    return drawn


def _path_probability(spec: ProcessSpec, bnd: BoundaryData, n: int, ks, m: int) -> float:
    """Probability of one outcome record, replayed outside the sampling loop."""
    phi = bnd.initial_basis[:, n]
    for step, k in zip(spec.steps, ks):
        phi = step.map.operators[k] @ phi
    return float(bnd.initial_probs[n] * abs(np.vdot(bnd.final_basis[:, m], phi)) ** 2)


def _walk(spec: ProcessSpec, bnd: BoundaryData, u: np.ndarray) -> tuple:
    """(n, ks, m, summed potential change) of len(u) trajectories walked in lockstep.

    Row i of u holds trajectory i's uniforms: n, one per step, then m.  The
    states are the columns of a (d, N) array, float64 until the first complex
    step.  A step is one product with the K operators stacked as K*d rows,
    read as (K, d, N) candidate branches whose weights p are re^2 + im^2
    summed over d; each column keeps its drawn branch, scaled by 1/sqrt(p).
    m is drawn from the squared moduli of adjoint(final_basis) @ psi.
    """
    count = len(u)
    dim = bnd.initial_basis.shape[0]
    basis = _real_if_exact(bnd.initial_basis / np.linalg.norm(bnd.initial_basis, axis=0))
    n = _draw_rows(np.broadcast_to(bnd.initial_probs[:, None], (dim, count)), u[:, 0])
    psi = basis.take(n, axis=1)
    cols = np.arange(count)
    rows = (np.arange(dim) * count)[:, None]  # flat offset of row j in a (d, N) block
    ks = np.empty((len(spec.steps), count), dtype=np.int64)
    dphi = np.zeros(count)
    for r, step in enumerate(spec.steps):
        ops = _real_if_exact(step.map.operators)
        phis = ops.reshape(-1, dim) @ psi
        branch_p = _squared_norms(phis.reshape(len(ops), dim, count).swapaxes(0, 1))
        k = _draw_rows(branch_p, u[:, r + 1])
        psi = phis.reshape(-1).take(k * (dim * count) + cols + rows)
        psi *= 1.0 / np.sqrt(branch_p.reshape(-1).take(k * count + cols))
        ks[r] = k
        dphi += step.structure.delta_phi.take(k)
    amps = adjoint(_real_if_exact(bnd.final_basis)) @ psi
    m = _draw_rows(_squared_norms(amps[None]), u[:, -1])
    return n, ks.T, m, dphi


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def sample_trajectories(
    spec: ProcessSpec,
    sample_count: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> TrajectoryEnsemble:
    """Draw sample_count trajectories, walked together step by step in blocks.

    sample_count must be a positive integer (a Python or numpy integer, not
    a bool) and seed an integer in [0, 2**128); other values raise
    ValueError.  A sample_count above DEFAULT_BRANCH_CAP raises
    SampleCountTooLarge.  Both checks come before anything is allocated.
    The uniforms come from one Philox stream keyed by seed, read in rows of
    R + 2: row i holds trajectory i's draws for n, each step's Kraus label
    and m, so it depends only on (seed, i) and a longer run extends a
    shorter one.  The rows are drawn SAMPLE_BLOCK at a time from the one
    generator, which continues the stream where the last block ended, so
    they are the rows of one (sample_count, R + 2) draw without holding it;
    _walk takes each block, one trajectory per column of its (d, N) state
    array.
    """
    if not (_is_integer(sample_count) and sample_count > 0):
        raise ValueError(f"sample_count must be a positive integer, got {sample_count!r}")
    if not (_is_integer(seed) and 0 <= seed < SEED_LIMIT):
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    sample_count, seed = int(sample_count), int(seed)
    if sample_count > DEFAULT_BRANCH_CAP:
        raise SampleCountTooLarge(
            f"{sample_count} samples are above the cap {DEFAULT_BRANCH_CAP}; draw fewer samples"
        )
    bnd = compile_process(spec, tol)
    rng = np.random.Generator(np.random.Philox(key=seed))
    n = np.empty(sample_count, dtype=np.int64)
    ks = np.empty((sample_count, len(spec.steps)), dtype=np.int64)
    m = np.empty(sample_count, dtype=np.int64)
    dphi = np.empty(sample_count)
    for lo in range(0, sample_count, SAMPLE_BLOCK):
        u = rng.random((min(SAMPLE_BLOCK, sample_count - lo), len(spec.steps) + 2))
        block = slice(lo, lo + len(u))
        n[block], ks[block], m[block], dphi[block] = _walk(spec, bnd, u)

    ensemble = TrajectoryEnsemble(
        n=n,
        labels=ks,
        m=m,
        probability=np.full(sample_count, 1.0 / sample_count),
        sigma_boundary=_boundary_terms(bnd, n, m, tol),
        delta_phi_sum=dphi,
        mode="mc",
        seed=seed,
    )
    bad = np.flatnonzero(np.isnan(ensemble.sigma_boundary))
    if bad.size:
        # the sampled outcome is one the dual process cannot start from
        record = ensemble.key(bad[0])
        raise AbsoluteContinuityViolation(record, _path_probability(spec, bnd, *record))
    return ensemble


def build_dual_process(
    spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES
) -> ProcessSpec:
    """Reversed concatenation of per-step dual maps with transformed bases.

    Every dual map is built and classified in one stacked pass (classify_duals)
    from the decompositions the forward steps already carry; each forward pi is
    checked again, under tol, to be a strictly positive fixed point.
    """
    bnd = compile_process(spec, tol)
    sym = spec.symmetry
    steps = spec.steps[::-1]
    maps, structures = classify_duals(
        [s.map for s in steps], [s.structure for s in steps], sym, tol)
    dual_steps = [ProcessStep(map=m, structure=s) for m, s in zip(maps, structures)]

    def transform_basis(basis: np.ndarray) -> np.ndarray:
        return sym.matrix @ (basis.conj() if sym.antiunitary else basis)

    boundary = BoundaryData(
        initial_basis=transform_basis(bnd.final_basis),
        initial_probs=bnd.final_probs,
        final_basis=transform_basis(bnd.initial_basis),
        final_probs=bnd.initial_probs,
    )
    return ProcessSpec(steps=tuple(dual_steps), boundary=boundary, symmetry=sym)


@dataclass(frozen=True)
class DetailedFTReport:
    """Branchwise comparison ln(p/p~) vs Sigma over the enumerated ensembles."""

    branch_count: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def verify_detailed_ft(
    spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES
) -> DetailedFTReport:
    """Check ln(p(gamma) / p~(reversed gamma)) = Sigma(gamma) branch by branch.

    The reverse of (n, k_1 .. k_R, m) has p~ = p~_i(m) |<theta n| M~1_{k_1} ..
    M~R_{k_R} |theta m>|^2, M~r the dual of step r.  The read enumerates that
    amplitude left to right: its spec holds the dual steps in forward order with
    their operators transposed, which form no channel (it exists only to be
    enumerated), and the dual's conjugated bases, ends swapped, every weight 1.
    Its rows carry the forward's codes in the forward's ascending order.  It prunes
    only reverses with p~ <= eps_prob, as no factor of p~ exceeds 1; those raise
    AbsoluteContinuityViolation.
    """
    forward = enumerate_trajectories(spec, tol)
    dual = build_dual_process(spec, tol)
    bnd = dual.boundary
    steps = tuple(replace(s, map=replace(s.map, operators=np.ascontiguousarray(
        s.map.operators.transpose(0, 2, 1)))) for s in dual.steps[::-1])
    ones = np.ones(len(bnd.initial_probs))
    read = enumerate_trajectories(ProcessSpec(steps, BoundaryData(
        bnd.final_basis.conj(), ones, bnd.initial_basis.conj(), ones)), tol)
    # keys (n, k_1 .. k_R, m), below 2**63 as d^2 * prod K_r <= DEFAULT_BRANCH_CAP, ascend in
    # both ensembles; a key past the read's last is clipped onto it and so matches nothing
    keys = read.labels * len(ones) + read.m
    wanted = forward.labels * len(ones) + forward.m
    pos = np.searchsorted(keys, wanted).clip(max=len(keys) - 1)
    p_rev = np.where(keys.take(pos) == wanted,
                     bnd.initial_probs.take(forward.m) * read.probability.take(pos), 0.0)
    unmatched = np.flatnonzero(p_rev <= tol.eps_prob)
    if unmatched.size:
        i = unmatched[0]
        raise AbsoluteContinuityViolation(forward.key(i), float(forward.probability[i]))
    log_ratio = np.log(forward.probability / p_rev)
    return DetailedFTReport(
        branch_count=len(forward),
        max_residual=float(np.max(np.abs(log_ratio - forward.sigmas()), initial=0.0)),
        tolerance=1e-9,
    )


@dataclass(frozen=True)
class IntegralFTReport:
    """Deviation of <e^{-Sigma}> from one, plus the mean entropy production."""

    mode: str
    mean_exp_neg_sigma: float
    deviation: float
    mean_sigma: float
    standard_error: float | None = None
    z_score: float | None = None


def verify_integral_ft(ensemble: TrajectoryEnsemble) -> IntegralFTReport:
    """<e^{-Sigma}> over the ensemble; exact sum or sample mean with z-score."""
    if not len(ensemble):
        raise ValueError("ensemble is empty")
    sigmas = ensemble.sigmas()
    weights = np.exp(-sigmas)
    mean = ensemble.mean(weights)
    se = z = None
    if ensemble.mode == "mc":
        n = len(sigmas)
        se = float(np.std(weights, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
        # no finer than the mean's own rounding, about n u mean (u = 2**-53): a deviation
        # at roundoff scale is no evidence against the theorem, nor a zero spread for it
        se = max(se, n * float(np.finfo(float).epsneg) * mean)
        z = (mean - 1.0) / se if se > 0 else -math.inf  # se = 0 only when the mean is 0
    return IntegralFTReport(
        mode=ensemble.mode,
        mean_exp_neg_sigma=mean,
        deviation=abs(mean - 1.0),
        mean_sigma=ensemble.mean(sigmas),
        standard_error=se,
        z_score=z,
    )


@dataclass(frozen=True)
class WorkReport:
    """Work statistics for equilibrium-boundary processes."""

    beta: float
    delta_f: float
    mean_exp_neg_beta_wdiss: float
    deviation: float
    mean_work: float
    mean_heat: float


def work_statistics(
    spec: ProcessSpec,
    ensemble: TrajectoryEnsemble,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> WorkReport:
    """Per-trajectory work from the energy balance W = dE + Q.

    Heat into the reservoirs is read off the potential changes, Q = -sum
    dPhi / beta, so beta (W - dF) coincides with the entropy production;
    unital concatenations are the Q = 0 special case.
    """
    if spec.boundary_mode != EQUILIBRIUM:
        raise ValueError("work statistics require equilibrium boundaries")
    beta = spec.beta
    eig_i, eig_f = hermitian_eig(spec.h_initial, tol), hermitian_eig(spec.h_final, tol)
    f_i, f_f = (-gibbs_populations(e.eigenvalues, beta)[1] / beta for e in (eig_i, eig_f))
    delta_f = f_f - f_i
    heats = -ensemble.delta_phi_sum / beta
    works = (eig_f.eigenvalues[ensemble.m] - eig_i.eigenvalues[ensemble.n]) + heats
    exps = np.exp(-beta * (works - delta_f))
    mean_exp = ensemble.mean(exps)
    return WorkReport(
        beta=beta,
        delta_f=delta_f,
        mean_exp_neg_beta_wdiss=mean_exp,
        deviation=abs(mean_exp - 1.0),
        mean_work=ensemble.mean(works),
        mean_heat=ensemble.mean(heats),
    )


def entropy_change(spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Von Neumann entropy of the evolved state minus the initial state's."""
    bnd = compile_process(spec, tol)
    rho_i = (bnd.initial_basis * bnd.initial_probs) @ adjoint(bnd.initial_basis)
    rho_f = _evolve(spec.steps, rho_i)
    return von_neumann_entropy(rho_f, tol) - von_neumann_entropy(rho_i, tol)
