"""Nonequilibrium potential, ladder classification, and dual maps.

The potential of eigenstate i of an invariant state pi is -ln pi(i).  A map
belongs to the ladder family when every Kraus operator only connects
eigenstate pairs with one common potential gap; that gap is the operator's
potential change and fixes the generalized detailed balance relation
between the map and its dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import MixedPotentialOperator, SingularStateError
from .linalg import (
    HermitianEigenDecomposition,
    adjoint,
    as_complex_matrix,
    check_unitary,
    frob,
    hermitian_eig,
    matrix_power_of_positive,
)
from .maps import KrausMap, apply_map, kraus_map, validate_cptp


@dataclass(frozen=True)
class SymmetryOp:
    """A unitary or anti-unitary operator, stored as (V, conjugation flag).

    Acts on vectors as V x (linear) or V conj(x) (anti-unitary), and on
    matrices by the corresponding sandwich.
    """

    matrix: np.ndarray
    antiunitary: bool = True

    def __post_init__(self):
        check_unitary(self.matrix, atol=1e-12)

    def on_vector(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        return self.matrix @ (x.conj() if self.antiunitary else x)

    def on_matrix(self, m: np.ndarray) -> np.ndarray:
        core = m.conj() if self.antiunitary else m
        return self.matrix @ core @ adjoint(self.matrix)


def theta(dim: int) -> SymmetryOp:
    """Plain complex conjugation: the default time-reversal operator."""
    return SymmetryOp(matrix=np.eye(dim, dtype=np.complex128), antiunitary=True)


@dataclass(frozen=True)
class PotentialStructure:
    """Eigendecomposed invariant state with per-operator potential changes."""

    pi: np.ndarray
    eigen: HermitianEigenDecomposition
    potentials: np.ndarray          # -ln pi(i), ascending in i with pi's eigenvalues
    classes: tuple                  # class index per eigenindex
    class_potentials: np.ndarray    # representative potential per class
    delta_phi: np.ndarray           # potential change per Kraus operator


def _group_classes(potentials: np.ndarray, eps_group: float):
    """Group eigenindices whose potentials agree within eps_group."""
    order = np.argsort(potentials)
    classes = [0] * len(potentials)
    reps: list[list[float]] = []
    for idx in order:
        phi = potentials[idx]
        if reps and abs(phi - reps[-1][0]) <= eps_group:
            reps[-1].append(phi)
            classes[idx] = len(reps) - 1
        else:
            reps.append([phi])
            classes[idx] = len(reps) - 1
    class_pot = np.array([np.mean(r) for r in reps])
    return tuple(classes), class_pot


def build_potential_structure(
    kmap: KrausMap, pi: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES
) -> PotentialStructure:
    """Classify the Kraus operators of a map as potential ladder operators.

    Raises MixedPotentialOperator if some operator connects eigenstate pairs
    with two distinct potential gaps, and SingularStateError if pi is not
    strictly positive or not a fixed point.
    """
    pi = as_complex_matrix(pi)
    if frob(apply_map(kmap, pi) - pi) > tol.eps_fix:
        raise SingularStateError(
            "supplied state is not a fixed point of the map within eps_fix"
        )
    eig = hermitian_eig(pi, tol)
    if np.min(eig.eigenvalues) <= tol.eps_pos:
        raise SingularStateError(
            f"invariant state eigenvalue {np.min(eig.eigenvalues):.3e} is not "
            f"strictly positive"
        )
    potentials = -np.log(eig.eigenvalues)
    classes, class_pot = _group_classes(potentials, tol.eps_group)
    v = eig.eigenvectors

    delta_phi = np.zeros(len(kmap))
    for k, m in enumerate(kmap.operators):
        coeff = adjoint(v) @ m @ v  # m^k_{ji} = <pi_j| M_k |pi_i>
        thresh = tol.eps_zero * max(frob(m), 1e-300)
        gaps: list[float] = []
        for j in range(kmap.dim):
            for i in range(kmap.dim):
                if abs(coeff[j, i]) > thresh:
                    gaps.append(class_pot[classes[j]] - class_pot[classes[i]])
        if not gaps:
            continue  # zero operator: no jumps, no potential change
        if max(gaps) - min(gaps) > tol.eps_group:
            distinct = sorted(set(round(g, 12) for g in gaps))
            raise MixedPotentialOperator(k, distinct)
        delta_phi[k] = float(np.mean(gaps))

    return PotentialStructure(
        pi=pi,
        eigen=eig,
        potentials=potentials,
        classes=classes,
        class_potentials=class_pot,
        delta_phi=delta_phi,
    )


@dataclass(frozen=True)
class DualMap:
    """Dual Kraus map together with the transformed invariant state."""

    map: KrausMap
    pi_dual: np.ndarray
    symmetry: SymmetryOp


def build_dual(
    kmap: KrausMap,
    pi: np.ndarray,
    symmetry: SymmetryOp | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DualMap:
    """Dual map with operators A pi^(1/2) M_k† pi^(-1/2) A†."""
    if symmetry is None:
        symmetry = theta(kmap.dim)
    pi = as_complex_matrix(pi)
    if frob(apply_map(kmap, pi) - pi) > tol.eps_fix:
        raise SingularStateError(
            "supplied state is not a fixed point of the map within eps_fix"
        )
    sq = matrix_power_of_positive(pi, 0.5, tol)
    sqinv = matrix_power_of_positive(pi, -0.5, tol)
    duals = [symmetry.on_matrix(sq @ adjoint(m) @ sqinv) for m in kmap.operators]
    dual = kraus_map(duals, labels=tuple(f"{s}~" for s in kmap.labels))
    pi_dual = symmetry.on_matrix(pi)

    report = validate_cptp(dual, tol)
    if not report.passed:
        raise SingularStateError(
            f"dual map is not trace preserving (deviation {report.tp_deviation:.3e})"
        )
    if frob(apply_map(dual, pi_dual) - pi_dual) > tol.eps_fix:
        raise SingularStateError("dual map does not fix the transformed state")
    return DualMap(map=dual, pi_dual=pi_dual, symmetry=symmetry)


@dataclass(frozen=True)
class BalanceReport:
    """Per-operator residuals of the generalized detailed balance relation."""

    residuals: np.ndarray          # ||M~_k - e^{dPhi_k/2} A M_k† A†||_F
    relative_residuals: np.ndarray
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.relative_residuals <= self.tolerance))


def check_detailed_balance(
    kmap: KrausMap,
    dual: DualMap,
    structure: PotentialStructure,
) -> BalanceReport:
    """Check M~_k = e^{dPhi_k / 2} A M_k† A† operator by operator."""
    res = []
    rel = []
    for k, m in enumerate(kmap.operators):
        target = np.exp(structure.delta_phi[k] / 2) * dual.symmetry.on_matrix(
            adjoint(m)
        )
        r = frob(dual.map.operators[k] - target)
        res.append(r)
        rel.append(r / max(frob(m), 1e-300))
    return BalanceReport(
        residuals=np.array(res), relative_residuals=np.array(rel), tolerance=1e-10
    )


@dataclass(frozen=True)
class CommutatorReport:
    """Residuals of the ladder commutation relations against ln pi."""

    ladder_residuals: np.ndarray    # ||[M_k, ln pi] - dPhi_k M_k|| / ||M_k||
    weight_residuals: np.ndarray    # ||[M_k† M_k, pi]|| / ||M_k† M_k||
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(
            np.all(self.ladder_residuals <= self.tolerance)
            and np.all(self.weight_residuals <= self.tolerance)
        )


def check_ladder_commutators(kmap: KrausMap, structure: PotentialStructure) -> CommutatorReport:
    """Check [M_k, ln pi] = dPhi_k M_k and [M_k† M_k, pi] = 0."""
    v = structure.eigen.eigenvectors
    log_pi = (v * np.log(structure.eigen.eigenvalues)) @ adjoint(v)
    ladder = []
    weight = []
    for k, m in enumerate(kmap.operators):
        comm = m @ log_pi - log_pi @ m
        ladder.append(
            frob(comm - structure.delta_phi[k] * m) / max(frob(m), 1e-300)
        )
        w = adjoint(m) @ m
        weight.append(
            frob(w @ structure.pi - structure.pi @ w) / max(frob(w), 1e-300)
        )
    return CommutatorReport(
        ladder_residuals=np.array(ladder),
        weight_residuals=np.array(weight),
        tolerance=1e-10,
    )


@dataclass(frozen=True)
class IndependenceReport:
    """Comparison of potential-change multisets across invariant states."""

    delta_phi_sets: tuple
    max_spread: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_spread <= self.tolerance


def delta_phi_pi_independence(
    kmap: KrausMap, pis, tol: Tolerances = DEFAULT_TOLERANCES
) -> IndependenceReport:
    """Check that the sorted potential-change multiset agrees across fixed points."""
    sets = []
    for pi in pis:
        structure = build_potential_structure(kmap, pi, tol)
        sets.append(np.sort(structure.delta_phi))
    spread = 0.0
    for s in sets[1:]:
        spread = max(spread, float(np.max(np.abs(s - sets[0]))))
    return IndependenceReport(
        delta_phi_sets=tuple(sets), max_spread=spread, tolerance=1e-9
    )
