"""Constructors for the standard map families.

Unitary, projective-measurement, dephasing, thermal-qubit, and discretized
Lindblad maps.  Discretized maps are renormalized by the unique positive
right factor that restores exact trace preservation, so all downstream
identities hold exactly rather than to first order in the time step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import DimensionMismatchError, NonHermitianError
from .linalg import (
    adjoint,
    as_complex_matrix,
    check_unitary,
    frob,
    hermitian_eig,
    hermiticity_defect,
    matrix_power_of_positive,
)
from .maps import KrausMap, kraus_map


def unitary_map(u: np.ndarray) -> KrausMap:
    """Single-operator map rho -> U rho U†."""
    u = as_complex_matrix(u)
    check_unitary(u)
    return kraus_map([u], labels=["U"])


def projective_measurement(basis) -> KrausMap:
    """Kraus set of rank-1 projectors onto a complete orthonormal basis."""
    vecs = [np.asarray(b, dtype=np.complex128).reshape(-1) for b in basis]
    dim = vecs[0].shape[0]
    if len(vecs) != dim:
        raise ValueError(f"need {dim} basis vectors, got {len(vecs)}")
    v = np.column_stack(vecs)
    if frob(adjoint(v) @ v - np.eye(dim)) > 1e-10:
        raise ValueError("basis is not orthonormal within 1e-10")
    ops = [np.outer(b, b.conj()) for b in vecs]
    return kraus_map(ops, labels=[f"P{i}" for i in range(dim)])


def dephasing_map(basis, strength: float) -> KrausMap:
    """Scale off-diagonals in the given basis by (1 - strength).

    strength 0 is the identity map, strength 1 full decoherence
    (identical action to the projective measurement on density matrices).
    """
    if not 0.0 <= strength <= 1.0:
        raise ValueError(f"strength {strength} outside [0, 1]")
    proj = projective_measurement(basis)
    dim = proj.dim
    ops = [np.sqrt(1.0 - strength) * np.eye(dim, dtype=np.complex128)]
    labels = ["keep"]
    ops += [np.sqrt(strength) * p for p in proj.operators]
    labels += [f"P{i}" for i in range(dim)]
    return kraus_map(ops, labels=labels)


def thermal_qubit_map(beta_omega: float, gamma: float) -> KrausMap:
    """Generalized amplitude damping with Gibbs fixed point diag(p, 1-p).

    Level splitting omega with ground energy 0; p = e^{beta omega} /
    (1 + e^{beta omega}).  gamma in (0, 1] is the excited-state decay
    strength; gamma = 1 thermalizes completely in one application.
    Operator order: diagonal-ground, decay, diagonal-excited, excitation.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma {gamma} outside (0, 1]")
    if not np.isfinite(beta_omega):
        raise ValueError("beta_omega must be finite")
    p = np.exp(beta_omega) / (1.0 + np.exp(beta_omega))
    k_diag0 = np.sqrt(p) * np.array([[1, 0], [0, np.sqrt(1 - gamma)]])
    k_decay = np.sqrt(p * gamma) * np.array([[0, 1], [0, 0]])
    k_diag1 = np.sqrt(1 - p) * np.array([[np.sqrt(1 - gamma), 0], [0, 1]])
    k_excite = np.sqrt((1 - p) * gamma) * np.array([[0, 0], [1, 0]])
    return kraus_map(
        [k_diag0, k_decay, k_diag1, k_excite],
        labels=["diag0", "decay", "diag1", "excite"],
    )


def _renormalize_trace_preserving(ops, tol: Tolerances):
    """Right-multiply all operators by (sum M†M)^(-1/2)."""
    total = sum(adjoint(m) @ m for m in ops)
    correction = matrix_power_of_positive(total, -0.5, tol)
    return [m @ correction for m in ops]


def lindblad_step(
    h: np.ndarray,
    lindblads,
    dt: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> KrausMap:
    """One exactly trace-preserving Kraus step of a Lindblad evolution.

    M_0 = 1 - (iH + sum L†L / 2) dt, M_k = L_k sqrt(dt), followed by the
    exact renormalization; the pre-normalization trace defect is O(dt^2).
    """
    h = as_complex_matrix(h)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if hermiticity_defect(h) > tol.eps_herm:
        raise NonHermitianError("Hamiltonian is not Hermitian within eps_herm")
    ls = [as_complex_matrix(l) for l in lindblads]
    dim = h.shape[0]
    for l in ls:
        if l.shape != (dim, dim):
            raise DimensionMismatchError("Lindblad operator shape mismatch")
    if ls and max(frob(l) ** 2 * dt for l in ls) > 0.1:
        warnings.warn(
            "max ||L||_F^2 dt > 0.1: the first-order discretization is coarse",
            stacklevel=2,
        )
    decay = sum((adjoint(l) @ l for l in ls), np.zeros((dim, dim), complex))
    m0 = np.eye(dim) - (1j * h + decay / 2) * dt
    ops = _renormalize_trace_preserving([m0] + [l * np.sqrt(dt) for l in ls], tol)
    labels = ["M0"] + [f"L{k}" for k in range(len(ls))]
    return kraus_map(ops, labels=labels)


def multi_reservoir_step(
    h: np.ndarray,
    reservoirs,
    dt: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[KrausMap]:
    """Split one Lindblad time step into a unitary map plus one map per reservoir.

    `reservoirs` is a list of (lindblad list, invariant state) pairs; each
    invariant state must be annihilated, within 1e-8, by its reservoir's
    dissipator.  Each map is a lindblad_step (the unitary one without jumps,
    each reservoir's without H), relabelled U0 and M0,a / Lk,a; the
    concatenation agrees with the combined single map to first order in dt.
    """
    h = as_complex_matrix(h)
    unitary = lindblad_step(h, [], dt, tol)
    steps = [replace(unitary, labels=("U0",))]
    for alpha, (lindblads, pi_alpha) in enumerate(reservoirs):
        ls = [as_complex_matrix(l) for l in lindblads]
        pi_alpha = as_complex_matrix(pi_alpha)
        dissipated = np.zeros(h.shape, dtype=np.complex128)
        for l in ls:
            anti = adjoint(l) @ l
            dissipated += l @ pi_alpha @ adjoint(l) - (anti @ pi_alpha + pi_alpha @ anti) / 2
        if frob(dissipated) > 1e-8:
            raise ValueError(
                f"reservoir {alpha}: supplied state is not a dissipator fixed "
                f"point (residual {frob(dissipated):.3e})"
            )
        kmap = lindblad_step(np.zeros(h.shape), ls, dt, tol)
        labels = [f"M0,{alpha}"] + [f"L{k},{alpha}" for k in range(len(ls))]
        steps.append(replace(kmap, labels=tuple(labels)))
    return steps


def thermal_lindblad_pair(
    omega: float, beta: float, rate: float
) -> list[np.ndarray]:
    """Decay/excitation Lindblad pair for a qubit with splitting omega.

    Rates obey detailed balance: rate_down / rate_up = e^{beta omega}.
    """
    down = np.sqrt(rate) * np.array([[0, 1], [0, 0]], dtype=np.complex128)
    up = np.sqrt(rate * np.exp(-beta * omega)) * np.array(
        [[0, 0], [1, 0]], dtype=np.complex128
    )
    return [down, up]


def gibbs_state(h: np.ndarray, beta: float, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """e^{-beta H} / Tr e^{-beta H}."""
    eig = hermitian_eig(as_complex_matrix(h), tol)
    w = np.exp(-beta * eig.eigenvalues)
    w /= np.sum(w)
    v = eig.eigenvectors
    return (v * w) @ adjoint(v)


def free_energy(h: np.ndarray, beta: float, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """-ln(Tr e^{-beta H}) / beta."""
    vals = hermitian_eig(as_complex_matrix(h), tol).eigenvalues
    return float(-np.log(np.sum(np.exp(-beta * vals))) / beta)


@dataclass(frozen=True)
class BohrLadderReport:
    """Outcome of checking [L, H] = omega L for a single Bohr frequency."""

    omega: float | None
    residual: float
    frequencies: tuple            # distinct E_j - E_i over nonzero entries of L
    f_value: float | None         # f(omega) when f supplied, else None
    delta_phi: float | None       # implied potential change, -f(omega)
    potential_residual: float | None
    tolerance: float

    @property
    def passed(self) -> bool:
        ok = self.omega is not None and self.residual <= self.tolerance
        if ok and self.potential_residual is not None:
            ok = self.potential_residual <= self.tolerance
        return bool(ok)


def check_bohr_ladder(
    h: np.ndarray,
    l: np.ndarray,
    f=None,
    pi: np.ndarray | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BohrLadderReport:
    """Check that L is a ladder operator of H with a single Bohr frequency.

    When both `f` (a function of the energy difference) and `pi` are given
    and pi's eigenvalue ratios follow pi(i)/pi(j) = e^{f(E_j - E_i)}, also
    confirms that L changes the potential of pi by exactly -f(omega), i.e.
    [L, ln pi] = -f(omega) L.
    """
    h = as_complex_matrix(h)
    l = as_complex_matrix(l)
    eig = hermitian_eig(h, tol)
    v = eig.eigenvectors
    coeff = adjoint(v) @ l @ v
    nl = max(frob(l), 1e-300)

    freqs = []
    for j in range(h.shape[0]):
        for i in range(h.shape[0]):
            if abs(coeff[j, i]) > tol.eps_zero * nl:
                freqs.append(float(eig.eigenvalues[i] - eig.eigenvalues[j]))
    distinct = sorted(set(round(w, 12) for w in freqs))

    comm = l @ h - h @ l
    if len(distinct) == 1:
        omega = distinct[0]
        residual = frob(comm - omega * l) / nl
    else:
        omega = None
        residual = float("inf")

    f_value = None
    delta_phi = None
    potential_residual = None
    if f is not None and pi is not None and omega is not None:
        pig = hermitian_eig(as_complex_matrix(pi), tol)
        w = pig.eigenvectors
        log_pi = (w * np.log(pig.eigenvalues)) @ adjoint(w)
        f_value = float(f(omega))
        delta_phi = -f_value
        potential_residual = (
            frob(l @ log_pi - log_pi @ l - delta_phi * l) / nl
        )
    return BohrLadderReport(
        omega=omega,
        residual=residual,
        frequencies=tuple(distinct),
        f_value=f_value,
        delta_phi=delta_phi,
        potential_residual=potential_residual,
        tolerance=1e-10,
    )
