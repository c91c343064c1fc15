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
from .maps import KrausMap, apply_map, validate_density
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
    from .maps import invariant_state

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


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Exact (probability-weighted) or sampled collection of trajectories."""

    trajectories: tuple
    mode: str                    # "exact" or "mc"
    seed: int | None = None
    sample_count: int | None = None

    def sigmas(self) -> np.ndarray:
        return np.array([t.sigma for t in self.trajectories])

    def probabilities(self) -> np.ndarray:
        return np.array([t.probability for t in self.trajectories])


def enumerate_trajectories(
    spec: ProcessSpec,
    tol: Tolerances = DEFAULT_TOLERANCES,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> TrajectoryEnsemble:
    """Exact branch-by-branch enumeration of the trajectory distribution."""
    bnd = compile_process(spec, tol)
    dim = bnd.initial_basis.shape[0]
    count = dim * dim
    for step in spec.steps:
        count *= len(step.map)
    if count > branch_cap:
        raise EnumerationTooLarge(count, branch_cap)

    out: list[Trajectory] = []

    def descend(r: int, phi: np.ndarray, ks: tuple, dphi: float, n: int):
        if float(np.vdot(phi, phi).real) <= tol.eps_prob:
            return
        if r == len(spec.steps):
            amps = adjoint(bnd.final_basis) @ phi
            for m in range(dim):
                p = float(abs(amps[m]) ** 2) * bnd.initial_probs[n]
                if p > tol.eps_prob:
                    try:
                        sigma = sigma_boundary(bnd, n, m, tol)
                    except ZeroProbabilityBranch as exc:
                        # forward mass lands on an outcome the dual process
                        # cannot start from
                        raise AbsoluteContinuityViolation((n, ks, m), p) from exc
                    out.append(
                        Trajectory(
                            n=n,
                            ks=ks,
                            m=m,
                            probability=p,
                            sigma_boundary=sigma,
                            delta_phi_sum=dphi,
                        )
                    )
            return
        step = spec.steps[r]
        for k, child in enumerate(step.map.operators @ phi):
            descend(r + 1, child, ks + (k,), dphi + step.structure.delta_phi[k], n)

    for n in range(dim):
        if bnd.initial_probs[n] > tol.eps_prob:
            descend(0, bnd.initial_basis[:, n].copy(), (), 0.0, n)

    return TrajectoryEnsemble(trajectories=tuple(out), mode="exact")


def _draw(cumulative: np.ndarray, u: float) -> int:
    return int(np.searchsorted(cumulative, u * cumulative[-1], side="right").clip(
        0, len(cumulative) - 1
    ))


def _sample_one(spec: ProcessSpec, bnd: BoundaryData, rng, tol: Tolerances) -> Trajectory:
    # one uniform per decision point, drawn up front from this trajectory's stream
    u = rng.random(len(spec.steps) + 2)
    n = _draw(np.cumsum(bnd.initial_probs), u[0])
    psi = bnd.initial_basis[:, n]
    psi = psi / np.linalg.norm(psi)
    ks = []
    dphi = 0.0
    for r, step in enumerate(spec.steps):
        phis = step.map.operators @ psi  # (K, dim) candidate branches
        branch_p = np.sum(np.abs(phis) ** 2, axis=1)
        k = _draw(np.cumsum(branch_p), u[r + 1])
        psi = phis[k] / np.sqrt(branch_p[k])
        ks.append(k)
        dphi += step.structure.delta_phi[k]
    born = np.abs(adjoint(bnd.final_basis) @ psi) ** 2
    m = _draw(np.cumsum(born), u[-1])
    try:
        sigma = sigma_boundary(bnd, n, m, tol)
    except ZeroProbabilityBranch as exc:
        # the sampled outcome is one the dual process cannot start from
        raise AbsoluteContinuityViolation(
            (n, tuple(ks), m), _path_probability(spec, bnd, n, ks, m)
        ) from exc
    return Trajectory(
        n=n,
        ks=tuple(ks),
        m=m,
        probability=1.0,
        sigma_boundary=sigma,
        delta_phi_sum=dphi,
    )


def _path_probability(spec: ProcessSpec, bnd: BoundaryData, n: int, ks, m: int) -> float:
    """Probability of one outcome record, replayed outside the sampling loop."""
    phi = bnd.initial_basis[:, n]
    for step, k in zip(spec.steps, ks):
        phi = step.map.operators[k] @ phi
    return float(bnd.initial_probs[n] * abs(np.vdot(bnd.final_basis[:, m], phi)) ** 2)


def sample_trajectories(
    spec: ProcessSpec,
    sample_count: int,
    seed: int,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> TrajectoryEnsemble:
    """Draw sample_count trajectories, one independent stream per index.

    Stream i is derived from (seed, i), so the result is independent of any
    execution order.
    """
    bnd = compile_process(spec, tol)
    trajectories = []
    for i in range(sample_count):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        trajectories.append(_sample_one(spec, bnd, rng, tol))
    return TrajectoryEnsemble(
        trajectories=tuple(trajectories), mode="mc", seed=seed, sample_count=sample_count
    )


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


@dataclass(frozen=True)
class DetailedFTReport:
    """Branchwise comparison ln(p/p~) vs Sigma over the enumerated ensembles."""

    branch_count: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_dict(self) -> dict:
        return {
            "branch_count": self.branch_count,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def verify_detailed_ft(
    spec: ProcessSpec,
    tol: Tolerances = DEFAULT_TOLERANCES,
    tolerance: float = 1e-9,
    branch_cap: int = DEFAULT_BRANCH_CAP,
) -> DetailedFTReport:
    """Check ln(p(gamma) / p~(reversed gamma)) = Sigma(gamma) branch by branch."""
    forward = enumerate_trajectories(spec, tol, branch_cap)
    dual = enumerate_trajectories(build_dual_process(spec, tol), tol, branch_cap)
    dual_probs = {t.key(): t.probability for t in dual.trajectories}
    max_residual = 0.0
    for t in forward.trajectories:
        rev = (t.m, tuple(reversed(t.ks)), t.n)
        p_rev = dual_probs.get(rev, 0.0)
        if p_rev <= tol.eps_prob:
            raise AbsoluteContinuityViolation((t.n, t.ks, t.m), t.probability)
        residual = abs(math.log(t.probability / p_rev) - t.sigma)
        max_residual = max(max_residual, residual)
    return DetailedFTReport(
        branch_count=len(forward.trajectories),
        max_residual=max_residual,
        tolerance=tolerance,
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

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "mean_exp_neg_sigma": self.mean_exp_neg_sigma,
            "deviation": self.deviation,
            "mean_sigma": self.mean_sigma,
            "standard_error": self.standard_error,
            "z_score": self.z_score,
        }


def verify_integral_ft(ensemble: TrajectoryEnsemble) -> IntegralFTReport:
    """<e^{-Sigma}> over the ensemble; exact sum or sample mean with z-score."""
    if not ensemble.trajectories:
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

    def to_dict(self) -> dict:
        return {
            "beta": self.beta,
            "delta_f": self.delta_f,
            "mean_exp_neg_beta_wdiss": self.mean_exp_neg_beta_wdiss,
            "deviation": self.deviation,
            "mean_work": self.mean_work,
            "mean_heat": self.mean_heat,
        }


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
    works = []
    heats = []
    exps = []
    for t in ensemble.trajectories:
        de = float(eig_f.eigenvalues[t.m] - eig_i.eigenvalues[t.n])
        q = -t.delta_phi_sum / beta
        w = de + q
        works.append(w)
        heats.append(q)
        exps.append(math.exp(-beta * (w - delta_f)))
    if ensemble.mode == "exact":
        probs = ensemble.probabilities()
        mean_exp = float(np.sum(probs * np.array(exps)))
        mean_w = float(np.sum(probs * np.array(works)))
        mean_q = float(np.sum(probs * np.array(heats)))
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
