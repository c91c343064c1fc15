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
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    AbsoluteContinuityViolation,
    DimensionMismatchError,
    EnumerationTooLarge,
    ZeroProbabilityBranch,
)
from .linalg import adjoint, as_complex_matrix, hermitian_eig, von_neumann_entropy
from .maps import KrausMap, apply_map, invariant_state, validate_density
from .potential import (
    PotentialStructure,
    SymmetryOp,
    build_dual,
    build_potential_structure,
    theta,
)
from .models import free_energy

ENTROPIC = "entropic"
EQUILIBRIUM = "equilibrium"

DEFAULT_BRANCH_CAP = 10_000_000

# How sample_trajectories draws its uniforms; recorded in Monte Carlo reports.
RNG_SCHEME = "philox-rows"

# Rows sample_trajectories walks at once: small enough that the per-step
# temporaries are reused from the allocator's free lists instead of being
# freshly mapped each time.
SAMPLE_BLOCK = 8192


@dataclass(frozen=True)
class ProcessStep:
    """One map of the concatenation together with its ladder classification."""

    map: KrausMap
    structure: PotentialStructure


@dataclass(frozen=True)
class BoundaryData:
    """Measurement bases and populations at both ends of a process.

    compile_process resolves one for every ProcessSpec.  Given as a spec's
    explicit_boundary it overrides boundary_mode; dual processes use this,
    because their bases come from transforming the forward bases rather
    than from re-diagonalizing anything.
    """

    initial_basis: np.ndarray   # columns
    initial_probs: np.ndarray
    final_basis: np.ndarray
    final_probs: np.ndarray     # populations defining the dual-initial state


@dataclass(frozen=True)
class ProcessSpec:
    """A map concatenation with boundary measurement data."""

    steps: tuple
    boundary_mode: str = ENTROPIC
    initial_state: np.ndarray | None = None  # entropic mode
    h_initial: np.ndarray | None = None      # equilibrium mode
    h_final: np.ndarray | None = None
    beta: float | None = None
    symmetry: SymmetryOp | None = None
    explicit_boundary: BoundaryData | None = None


def make_step(
    kmap: KrausMap,
    pi: np.ndarray | None = None,
    unital: bool = False,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ProcessStep:
    """Classify a map against an invariant state.

    With no pi the unique invariant state is computed; `unital=True` uses
    the maximally mixed state instead (the canonical choice when the fixed
    point is degenerate).
    """
    if pi is None:
        if unital:
            pi = np.eye(kmap.dim) / kmap.dim
        else:
            pi = invariant_state(kmap, tol)
    structure = build_potential_structure(kmap, pi, tol)
    return ProcessStep(map=kmap, structure=structure)


def process_spec(
    steps,
    boundary_mode: str = ENTROPIC,
    initial_state=None,
    h_initial=None,
    h_final=None,
    beta: float | None = None,
    symmetry: SymmetryOp | None = None,
    explicit_boundary: BoundaryData | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> ProcessSpec:
    """Validated ProcessSpec constructor."""
    steps = tuple(steps)
    if boundary_mode not in (ENTROPIC, EQUILIBRIUM):
        raise ValueError(f"unknown boundary mode {boundary_mode!r}")
    if explicit_boundary is None:
        if boundary_mode == ENTROPIC:
            if initial_state is None:
                raise ValueError("entropic mode needs an initial state")
            initial_state = validate_density(initial_state, tol)
        else:
            if h_initial is None or h_final is None or beta is None:
                raise ValueError("equilibrium mode needs H_i, H_f and beta")
            h_initial = as_complex_matrix(h_initial)
            h_final = as_complex_matrix(h_final)
    dims = {s.map.dim for s in steps}
    if explicit_boundary is not None:
        dims.add(explicit_boundary.initial_basis.shape[0])
    elif boundary_mode == ENTROPIC:
        dims.add(initial_state.shape[0])
    else:
        dims.add(h_initial.shape[0])
        dims.add(h_final.shape[0])
    if symmetry is not None:
        dims.add(symmetry.matrix.shape[0])
    if len(dims) != 1:
        raise DimensionMismatchError(f"inconsistent dimensions in process: {dims}")
    dim = dims.pop()
    if symmetry is None:
        symmetry = theta(dim)
    return ProcessSpec(
        steps=steps,
        boundary_mode=boundary_mode,
        initial_state=initial_state,
        h_initial=h_initial,
        h_final=h_final,
        beta=beta,
        symmetry=symmetry,
        explicit_boundary=explicit_boundary,
    )


def compile_process(
    spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES
) -> BoundaryData:
    """Resolve measurement bases and boundary populations."""
    if spec.explicit_boundary is not None:
        return spec.explicit_boundary
    if spec.boundary_mode == ENTROPIC:
        eig_i = hermitian_eig(spec.initial_state, tol)
        eig_f = hermitian_eig(_evolve(spec.steps, spec.initial_state), tol)
        return BoundaryData(
            initial_basis=eig_i.eigenvectors,
            initial_probs=np.clip(eig_i.eigenvalues.real, 0.0, None),
            final_basis=eig_f.eigenvectors,
            final_probs=np.clip(eig_f.eigenvalues.real, 0.0, None),
        )
    # equilibrium boundaries
    beta = spec.beta
    eig_i = hermitian_eig(spec.h_initial, tol)
    eig_f = hermitian_eig(spec.h_final, tol)
    p_i = np.exp(-beta * eig_i.eigenvalues)
    p_i /= np.sum(p_i)
    p_f = np.exp(-beta * eig_f.eigenvalues)
    p_f /= np.sum(p_f)
    return BoundaryData(
        initial_basis=eig_i.eigenvectors,
        initial_probs=p_i,
        final_basis=eig_f.eigenvectors,
        final_probs=p_f,
    )


def _evolve(steps, rho: np.ndarray) -> np.ndarray:
    for step in steps:
        rho = apply_map(step.map, rho)
    return rho


def _state_from_populations(basis: np.ndarray, probs: np.ndarray) -> np.ndarray:
    return (basis * probs) @ adjoint(basis)


def sigma_boundary(
    boundary: BoundaryData, n: int, m: int, tol: Tolerances = DEFAULT_TOLERANCES
) -> float:
    """Boundary term ln p_i(n) - ln p~_f(m) for one outcome pair."""
    p_n = boundary.initial_probs[n]
    p_m = boundary.final_probs[m]
    if p_n <= tol.eps_prob or p_m <= tol.eps_prob:
        raise ZeroProbabilityBranch(
            f"boundary populations p_i({n})={p_n:.3e}, p_f({m})={p_m:.3e}"
        )
    return float(math.log(p_n) - math.log(p_m))


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
class TrajectoryEnsemble:
    """Exact (probability-weighted) or sampled trajectories as parallel arrays.

    Row i is the outcome record (n[i], ks[i], m[i]) with its probability (1
    for a sample), boundary term and summed potential change.  Exact rows
    are enumerated breadth first and come in lexicographic (n, k_1 .. k_R, m) order.
    """

    n: np.ndarray                # (N,) initial outcomes
    ks: np.ndarray               # (N, R) Kraus labels, one column per step
    m: np.ndarray                # (N,) final outcomes
    probability: np.ndarray      # (N,)
    sigma_boundary: np.ndarray   # (N,)
    delta_phi_sum: np.ndarray    # (N,)
    mode: str                    # "exact" or "mc"
    seed: int | None = None

    def __len__(self) -> int:
        return len(self.n)

    def key(self, i: int) -> tuple:
        """Outcome record (n, ks, m) of row i."""
        return (int(self.n[i]), tuple(self.ks[i].tolist()), int(self.m[i]))

    def sigmas(self) -> np.ndarray:
        return self.sigma_boundary - self.delta_phi_sum

    def probabilities(self) -> np.ndarray:
        return self.probability

    @property
    def trajectories(self) -> "TrajectoryRecords":
        """Read-only sequence of Trajectory records, each built when it is read."""
        return TrajectoryRecords(self)


class TrajectoryRecords(Sequence):
    """Rows of an ensemble seen as Trajectory records; len() builds none of them."""

    def __init__(self, ensemble: TrajectoryEnsemble):
        self._ensemble = ensemble

    def __len__(self) -> int:
        return len(self._ensemble)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        e = self._ensemble
        n, ks, m = e.key(i)
        return Trajectory(
            n=n,
            ks=ks,
            m=m,
            probability=float(e.probability[i]),
            sigma_boundary=float(e.sigma_boundary[i]),
            delta_phi_sum=float(e.delta_phi_sum[i]),
        )


def _boundary_table(bnd: BoundaryData, tol: Tolerances) -> np.ndarray:
    """Boundary terms of all (n, m) pairs; NaN marks a pair the dual cannot start from."""
    dim = len(bnd.initial_probs)
    table = np.full((dim, dim), np.nan)
    for i, j in np.ndindex(dim, dim):
        try:
            table[i, j] = sigma_boundary(bnd, i, j, tol)
        except ZeroProbabilityBranch:
            pass
    return table


def _live(phi: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Rows of phi whose squared norm is above the pruning floor."""
    return np.flatnonzero(np.sum(phi.real**2 + phi.imag**2, axis=1) > tol.eps_prob)


def enumerate_trajectories(
    spec: ProcessSpec,
    tol: Tolerances = DEFAULT_TOLERANCES,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> TrajectoryEnsemble:
    """Exact enumeration of the trajectory distribution, breadth first over arrays.

    The live branches of each step are the rows of a (B, d) array of
    unnormalized states; rows with squared norm at or below eps_prob are
    pruned and every operator is applied to every row at once, children in
    (row, k) order.  Rows of the result are therefore in lexicographic
    (n, k_1 .. k_R, m) order.
    """
    bnd = compile_process(spec, tol)
    dim = bnd.initial_basis.shape[0]
    count = dim * dim * math.prod(len(step.map) for step in spec.steps)
    if count > branch_cap:
        raise EnumerationTooLarge(count, branch_cap)

    n = np.flatnonzero(bnd.initial_probs > tol.eps_prob)
    phi = bnd.initial_basis.T[n]
    ks = np.zeros((len(n), len(spec.steps)), dtype=np.int64)
    dphi = np.zeros(len(n))
    for r, step in enumerate(spec.steps):
        live = _live(phi, tol)
        ops = step.map.operators
        # a gemv per (row, k), the kernel of ops @ phi: gemm-shaped products round differently
        phi = (ops[None] @ phi[live, None, :, None]).reshape(-1, dim)
        parent = np.repeat(live, len(ops))
        k = np.tile(np.arange(len(ops)), len(live))
        n, ks, dphi = n[parent], ks[parent], dphi[parent] + step.structure.delta_phi[k]
        ks[:, r] = k
    live = _live(phi, tol)
    amps = (adjoint(bnd.final_basis)[None] @ phi[live, :, None])[:, :, 0]
    # hypot and float_power round as the scalar abs(z) ** 2 does; np.abs and ** 2 do not
    p_n = bnd.initial_probs[n[live], None]
    probs = np.float_power(np.hypot(amps.real, amps.imag), 2.0) * p_n
    row, m = np.nonzero(probs > tol.eps_prob)
    if not len(row):
        raise ZeroProbabilityBranch(f"every branch has probability <= eps_prob = {tol.eps_prob}")
    row_live = live[row]
    ensemble = TrajectoryEnsemble(
        n=n[row_live],
        ks=ks[row_live],
        m=m,
        probability=probs[row, m],
        sigma_boundary=_boundary_table(bnd, tol)[n[row_live], m],
        delta_phi_sum=dphi[row_live],
        mode="exact",
    )
    bad = np.flatnonzero(np.isnan(ensemble.sigma_boundary))
    if bad.size:
        # forward mass lands on an outcome the dual process cannot start from
        i = bad[0]
        raise AbsoluteContinuityViolation(ensemble.key(i), float(ensemble.probability[i]))
    return ensemble


def _draw_rows(weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row, the first index whose cumulative weight exceeds u * total.

    weights is (N, K) and u is (N,); the rule is searchsorted(side="right")
    of u * total on each row's cumulative sum, clipped to the last index.
    """
    cumulative = np.cumsum(weights, axis=1)
    hits = cumulative <= (u * cumulative[:, -1])[:, None]
    return np.minimum(hits.sum(axis=1), weights.shape[1] - 1)


def _path_probability(spec: ProcessSpec, bnd: BoundaryData, n: int, ks, m: int) -> float:
    """Probability of one outcome record, replayed outside the sampling loop."""
    phi = bnd.initial_basis[:, n]
    for step, k in zip(spec.steps, ks):
        phi = step.map.operators[k] @ phi
    return float(bnd.initial_probs[n] * abs(np.vdot(bnd.final_basis[:, m], phi)) ** 2)


def _walk(spec: ProcessSpec, bnd: BoundaryData, u: np.ndarray) -> tuple:
    """(n, ks, m, summed potential change) of len(u) trajectories walked in lockstep.

    Row i of u holds trajectory i's uniforms: n, one per step, then m.
    """
    count = len(u)
    basis = bnd.initial_basis / np.linalg.norm(bnd.initial_basis, axis=0)
    n = _draw_rows(np.broadcast_to(bnd.initial_probs, (count, len(basis))), u[:, 0])
    psi = basis[:, n].T
    rows = np.arange(count)
    ks = np.empty((count, len(spec.steps)), dtype=np.int64)
    dphi = np.zeros(count)
    for r, step in enumerate(spec.steps):
        phis = psi @ step.map.operators.swapaxes(1, 2)  # (K, count, dim) candidate branches
        branch_p = np.sum(np.abs(phis) ** 2, axis=2).T
        k = _draw_rows(branch_p, u[:, r + 1])
        psi = phis[k, rows] / np.sqrt(branch_p[rows, k])[:, None]
        ks[:, r] = k
        dphi += step.structure.delta_phi[k]
    m = _draw_rows(np.abs(psi @ bnd.final_basis.conj()) ** 2, u[:, -1])
    return n, ks, m, dphi


def sample_trajectories(
    spec: ProcessSpec,
    sample_count: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> TrajectoryEnsemble:
    """Draw sample_count trajectories, walked together step by step in blocks.

    The uniforms come from one Philox stream keyed by seed (a non-negative
    integer below 2**128), read as a (sample_count, R + 2) array: row i
    holds trajectory i's draws for n, each step's Kraus label and m, so it
    depends only on (seed, i) and a longer run extends a shorter one.
    """
    bnd = compile_process(spec, tol)
    u = np.random.Generator(np.random.Philox(key=seed)).random(
        (sample_count, len(spec.steps) + 2)
    )
    n = np.empty(sample_count, dtype=np.int64)
    ks = np.empty((sample_count, len(spec.steps)), dtype=np.int64)
    m = np.empty(sample_count, dtype=np.int64)
    dphi = np.empty(sample_count)
    for lo in range(0, sample_count, SAMPLE_BLOCK):
        block = slice(lo, lo + SAMPLE_BLOCK)
        n[block], ks[block], m[block], dphi[block] = _walk(spec, bnd, u[block])

    ensemble = TrajectoryEnsemble(
        n=n,
        ks=ks,
        m=m,
        probability=np.ones(sample_count),
        sigma_boundary=_boundary_table(bnd, tol)[n, m],
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
    """Reversed concatenation of per-step dual maps with transformed bases."""
    bnd = compile_process(spec, tol)
    sym = spec.symmetry
    dual_steps = []
    for step in reversed(spec.steps):
        dual = build_dual(step.map, step.structure.pi, sym, tol)
        structure = build_potential_structure(dual.map, dual.pi_dual, tol)
        dual_steps.append(ProcessStep(map=dual.map, structure=structure))

    def transform_basis(basis: np.ndarray) -> np.ndarray:
        cols = [sym.on_vector(basis[:, j]) for j in range(basis.shape[1])]
        return np.column_stack(cols)

    boundary = BoundaryData(
        initial_basis=transform_basis(bnd.final_basis),
        initial_probs=bnd.final_probs,
        final_basis=transform_basis(bnd.initial_basis),
        final_probs=bnd.initial_probs,
    )
    return ProcessSpec(
        steps=tuple(dual_steps),
        boundary_mode=spec.boundary_mode,
        initial_state=None,
        h_initial=None,
        h_final=None,
        beta=spec.beta,
        symmetry=sym,
        explicit_boundary=boundary,
    )


def _encode(n: np.ndarray, ks: np.ndarray, m: np.ndarray, radices: list) -> np.ndarray:
    """Outcome strings (n, k_1 .. k_R, m) as mixed-radix integers, n most significant."""
    if math.prod(radices) >= 2**63:
        raise EnumerationTooLarge(math.prod(radices), 2**63 - 1)
    code = n.astype(np.int64)
    for column, radix in zip(ks.T, radices[1:-1]):
        code = code * radix + column
    return code * radices[-1] + m


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
    """Check ln(p(gamma) / p~(reversed gamma)) = Sigma(gamma) branch by branch."""
    forward = enumerate_trajectories(spec, tol)
    dual_spec = build_dual_process(spec, tol)
    dual = enumerate_trajectories(dual_spec, tol)
    dim = dual_spec.explicit_boundary.initial_basis.shape[0]
    radices = [dim] + [len(s.map) for s in dual_spec.steps] + [dim]
    # enumerated rows are in lexicographic order, so their codes ascend; a
    # sentinel above every code, with probability 0, catches unmatched branches
    codes = np.append(_encode(dual.n, dual.ks, dual.m, radices), np.iinfo(np.int64).max)
    probs = np.append(dual.probability, 0.0)
    wanted = _encode(forward.m, forward.ks[:, ::-1], forward.n, radices)
    pos = np.searchsorted(codes, wanted)
    p_rev = np.where(codes[pos] == wanted, probs[pos], 0.0)
    unmatched = np.flatnonzero(p_rev <= tol.eps_prob)
    if unmatched.size:
        i = unmatched[0]
        raise AbsoluteContinuityViolation(forward.key(i), float(forward.probability[i]))
    # math.log per branch: np.log is not bit-identical to it
    log_ratio = np.frompyfunc(math.log, 1, 1)(forward.probability / p_rev).astype(float)
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
    if ensemble.mode == "exact":
        probs = ensemble.probabilities()
        mean = float(np.sum(probs * weights))
        mean_sigma = float(np.sum(probs * sigmas))
        return IntegralFTReport(
            mode="exact",
            mean_exp_neg_sigma=mean,
            deviation=abs(mean - 1.0),
            mean_sigma=mean_sigma,
        )
    n = len(sigmas)
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    z = (mean - 1.0) / se if se > 0 else 0.0
    return IntegralFTReport(
        mode="mc",
        mean_exp_neg_sigma=mean,
        deviation=abs(mean - 1.0),
        mean_sigma=float(np.mean(sigmas)),
        standard_error=se,
        z_score=float(z),
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
    eig_i = hermitian_eig(spec.h_initial, tol)
    eig_f = hermitian_eig(spec.h_final, tol)
    delta_f = free_energy(spec.h_final, beta, tol) - free_energy(
        spec.h_initial, beta, tol
    )
    heats = -ensemble.delta_phi_sum / beta
    works = (eig_f.eigenvalues[ensemble.m] - eig_i.eigenvalues[ensemble.n]) + heats
    # math.exp per trajectory: np.exp is not bit-identical to it
    exps = np.frompyfunc(math.exp, 1, 1)(-beta * (works - delta_f)).astype(float)
    if ensemble.mode == "exact":
        probs = ensemble.probabilities()
        mean_exp = float(np.sum(probs * exps))
        mean_w = float(np.sum(probs * works))
        mean_q = float(np.sum(probs * heats))
    else:
        mean_exp = float(np.mean(exps))
        mean_w = float(np.mean(works))
        mean_q = float(np.mean(heats))
    return WorkReport(
        beta=beta,
        delta_f=delta_f,
        mean_exp_neg_beta_wdiss=mean_exp,
        deviation=abs(mean_exp - 1.0),
        mean_work=mean_w,
        mean_heat=mean_q,
    )


def entropy_change(spec: ProcessSpec, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Von Neumann entropy of the evolved state minus the initial state's."""
    bnd = compile_process(spec, tol)
    rho_i = _state_from_populations(bnd.initial_basis, bnd.initial_probs)
    rho_f = _evolve(spec.steps, rho_i)
    return von_neumann_entropy(rho_f, tol) - von_neumann_entropy(rho_i, tol)
