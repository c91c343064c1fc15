"""Constructors for the standard map families, and Gibbs weights.

Unitary, projective-measurement, dephasing, thermal-qubit, and discretized
Lindblad maps.  Discretized maps are renormalized by the unique positive
right factor that restores exact trace preservation, so all downstream
identities hold exactly rather than to first order in the time step.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, finite_real
from .errors import DimensionMismatchError, NonHermitianError, require
from .linalg import (
    adjoint,
    as_complex_matrix,
    as_complex_stack,
    check_unitary,
    frob,
    frobs,
    hermitian_eig,
    hermiticity_defect,
    matrix_power_of_positive,
)
from .maps import KrausMap, kraus_map


def unitary_map(u: np.ndarray) -> KrausMap:
    """Single-operator map rho -> U rho U†."""
    check_unitary(u)
    return kraus_map([u], labels=["U"])


def projective_measurement(basis) -> KrausMap:
    """Kraus set of rank-1 projectors onto a complete orthonormal basis (check_unitary)."""
    vecs = [np.asarray(b, dtype=np.complex128).reshape(-1) for b in basis]
    dim = vecs[0].shape[0]
    if len(vecs) != dim:
        raise ValueError(f"need {dim} basis vectors, got {len(vecs)}")
    check_unitary(np.column_stack(vecs))
    ops = [np.outer(b, b.conj()) for b in vecs]
    return kraus_map(ops, labels=[f"P{i}" for i in range(dim)])


def dephasing_map(basis, strength: float) -> KrausMap:
    """Scale off-diagonals in the given basis by (1 - strength).

    strength 0 is the identity map, strength 1 full decoherence
    (identical action to the projective measurement on density matrices).
    """
    if not (finite_real(strength) and 0 <= strength <= 1):
        raise ValueError(f"'strength' must be a number in [0, 1], got {strength!r}")
    proj = projective_measurement(basis)
    dim = proj.dim
    ops = [np.sqrt(1.0 - strength) * np.eye(dim, dtype=np.complex128)]
    labels = ["keep"]
    ops += [np.sqrt(strength) * p for p in proj.operators]
    labels += [f"P{i}" for i in range(dim)]
    return kraus_map(ops, labels=labels)


def thermal_qubit_map(beta_omega: float, gamma: float) -> KrausMap:
    """Generalized amplitude damping with Gibbs fixed point diag(p, 1-p).

    Level splitting omega, ground energy 0: p = 1 / (1 + e^{-beta omega}) is the
    ground Gibbs population.  gamma in (0, 1] is the excited-state decay
    strength; gamma = 1 thermalizes completely in one application.
    Operator order: diagonal-ground, decay, diagonal-excited, excitation.
    """
    if not (finite_real(gamma) and 0 < gamma <= 1):
        raise ValueError(f"'gamma' must be a number in (0, 1], got {gamma!r}")
    if not finite_real(beta_omega):
        raise ValueError(f"'beta_omega' must be a finite number, got {beta_omega!r}")
    p = gibbs_populations(np.array([0.0, beta_omega]), 1.0)[0][0]
    k_diag0 = np.sqrt(p) * np.array([[1, 0], [0, np.sqrt(1 - gamma)]])
    k_decay = np.sqrt(p * gamma) * np.array([[0, 1], [0, 0]])
    k_diag1 = np.sqrt(1 - p) * np.array([[np.sqrt(1 - gamma), 0], [0, 1]])
    k_excite = np.sqrt((1 - p) * gamma) * np.array([[0, 0], [1, 0]])
    return kraus_map(
        [k_diag0, k_decay, k_diag1, k_excite],
        labels=["diag0", "decay", "diag1", "excite"],
    )


def _renormalize_trace_preserving(ops: np.ndarray, tol: Tolerances) -> np.ndarray:
    """Right-multiply a (K, d, d) stack of operators by (sum M†M)^(-1/2)."""
    total = (adjoint(ops) @ ops).sum(axis=0)
    return ops @ matrix_power_of_positive(total, -0.5, tol)


def lindblad_step(
    h: np.ndarray,
    lindblads,
    dt: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> KrausMap:
    """One exactly trace-preserving Kraus step of a Lindblad evolution.

    M_0 = 1 - (iH + sum L†L / 2) dt, M_k = L_k sqrt(dt), followed by the
    exact renormalization; the pre-normalization trace defect is O(dt^2).
    dt must be positive and finite, H square, and `lindblads` a (K, d, d)
    stack, or a possibly empty list, of matrices of H's size, checked once as
    a whole.
    """
    if not (finite_real(dt) and dt > 0):
        raise ValueError(f"'dt' must be positive and finite, got {dt!r}")
    h = as_complex_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatchError(f"Hamiltonian is not square: {h.shape}")
    require(hermiticity_defect(h) <= tol.eps_herm, lambda _: NonHermitianError(
        "Hamiltonian is not Hermitian within eps_herm"))
    dim = h.shape[0]
    ls = as_complex_stack(lindblads, dim)
    if len(ls) and (frobs(ls) ** 2 * dt).max() > 0.1:
        warnings.warn(
            "max ||L||_F^2 dt > 0.1: the first-order discretization is coarse",
            stacklevel=2,
        )
    decay = (adjoint(ls) @ ls).sum(axis=0)
    m0 = np.eye(dim) - (1j * h + decay / 2) * dt
    ops = _renormalize_trace_preserving(np.concatenate([m0[None], ls * np.sqrt(dt)]), tol)
    labels = ["M0"] + [f"L{k}" for k in range(len(ls))]
    return kraus_map(ops, labels=labels)


def multi_reservoir_step(
    h: np.ndarray,
    reservoirs,
    dt: float,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> list[KrausMap]:
    """Split one Lindblad time step into a unitary map plus one map per reservoir.

    `reservoirs` is a list of (Lindblad stack or list, invariant state) pairs; each
    invariant state must be annihilated, within 1e-8, by its reservoir's
    dissipator.  Each map is a lindblad_step (the unitary one without jumps,
    each reservoir's without H), relabelled U0 and M0,a / Lk,a; the
    concatenation agrees with the combined single map to first order in dt.
    """
    h = as_complex_matrix(h)
    unitary = lindblad_step(h, [], dt, tol)
    steps = [replace(unitary, labels=("U0",))]
    for alpha, (lindblads, pi_alpha) in enumerate(reservoirs):
        ls = as_complex_stack(lindblads, len(h))
        pi_alpha = as_complex_matrix(pi_alpha)
        anti = adjoint(ls) @ ls
        dissipated = (ls @ pi_alpha @ adjoint(ls)
                      - (anti @ pi_alpha + pi_alpha @ anti) / 2).sum(axis=0)
        residual = frob(dissipated)
        require(residual <= 1e-8, lambda _: ValueError(
            f"reservoir {alpha}: supplied state is not a dissipator fixed "
            f"point (residual {residual:.3e})"))
        kmap = lindblad_step(np.zeros(h.shape), ls, dt, tol)
        labels = [f"M0,{alpha}"] + [f"L{k},{alpha}" for k in range(len(ls))]
        steps.append(replace(kmap, labels=tuple(labels)))
    return steps


def thermal_lindblad_pair(omega: float, beta: float, rate: float) -> list[np.ndarray]:
    """Decay/excitation Lindblad pair for a qubit with splitting omega.

    Rates obey detailed balance: rate_down / rate_up = e^{beta omega}.  omega and beta must
    be finite reals and rate a finite real >= 0 (ValueError).
    """
    for name, value in (("omega", omega), ("beta", beta)):
        if not finite_real(value):
            raise ValueError(f"{name!r} must be a finite number, got {value!r}")
    if not (finite_real(rate) and rate >= 0):
        raise ValueError(f"'rate' must be a number in [0, inf), got {rate!r}")
    down = np.sqrt(rate) * np.array([[0, 1], [0, 0]], dtype=np.complex128)
    up = np.sqrt(rate * np.exp(-beta * omega)) * np.array([[0, 0], [1, 0]], dtype=np.complex128)
    return [down, up]


def gibbs_populations(energies: np.ndarray, beta: float) -> tuple:
    """(Populations e^{-beta E} / Z, ln Z) of a vector of energies E.

    The largest exponent is shifted to 0, so no weight overflows; that moves no bit
    when the lowest beta E is 0.  beta must be a finite real (ValueError)."""
    if not finite_real(beta):
        raise ValueError(f"'beta' must be a finite number, got {beta!r}")
    exponent = -beta * np.asarray(energies)
    top = exponent.max()
    w = np.exp(exponent - top)
    total = w.sum()
    return w / total, float(np.log(total) + top)


def gibbs_state(h: np.ndarray, beta: float, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """e^{-beta H} / Tr e^{-beta H}."""
    eig = hermitian_eig(as_complex_matrix(h), tol)
    v = eig.eigenvectors
    return (v * gibbs_populations(eig.eigenvalues, beta)[0]) @ adjoint(v)


def free_energy(h: np.ndarray, beta: float, tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """-ln(Tr e^{-beta H}) / beta."""
    vals = hermitian_eig(as_complex_matrix(h), tol).eigenvalues
    return -gibbs_populations(vals, beta)[1] / beta

