"""Nonequilibrium potential, ladder classification, and dual maps.

The potential of eigenstate i of an invariant state pi is -ln pi(i).  A map
belongs to the ladder family when every Kraus operator only connects
eigenstate pairs with one common potential gap; that gap is the operator's
potential change and fixes the generalized detailed balance relation
between the map and its dual.  That ladder relation, [M_k, ln pi] = dPhi_k M_k,
has one connection test (connections) and one residual (commutator_residuals);
for a thermal environment it is the Bohr ladder [L, H] = omega L with
dPhi = -beta omega (check_bohr_ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import MixedPotentialOperator, QmapError, SingularStateError, require
from .linalg import (HermitianEigenDecomposition, adjoint, as_complex_matrix, check_unitary,
                     frobs, hermitian_eig)
from .maps import (KrausMap, KrausStack, check_fixed_points, checked_states, require_positive,
                   stack_maps, tp_defects)


# Tolerance of the ladder reports: Bohr ladder, ladder commutators, detailed balance.
LADDER_CHECK_TOL = 1e-10


def _norms(ops: np.ndarray) -> np.ndarray:
    """||M_k||_F of each operator of a (K, d, d) stack, floored so a zero operator divides."""
    return np.maximum(frobs(ops), 1e-300)


def connections(ops: np.ndarray, basis: np.ndarray, eps_zero: float) -> np.ndarray:
    """[k, j, i] is true when |<v_j|M_k|v_i>| > eps_zero ||M_k||_F, for the columns v of basis."""
    coeff = adjoint(basis) @ ops @ basis
    return np.abs(coeff) > eps_zero * _norms(ops)[:, None, None]


def commutator_residuals(ops: np.ndarray, x: np.ndarray, shifts) -> np.ndarray:
    """||[M_k, X] - s_k M_k||_F / ||M_k||_F for each operator of a (K, d, d) stack."""
    return frobs(ops @ x - x @ ops - np.asarray(shifts)[:, None, None] * ops) / _norms(ops)


@dataclass(frozen=True)
class SymmetryOp:
    """A unitary or anti-unitary operator, stored as (V, conjugation flag).

    Acts on vectors as V x (linear) or V conj(x) (anti-unitary), as
    build_dual_process applies it to measurement bases, and on matrices by
    the corresponding sandwich.
    """

    matrix: np.ndarray
    antiunitary: bool = True

    def __post_init__(self):
        check_unitary(self.matrix, atol=1e-12)

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
    gaps: np.ndarray                # distinct potential changes, ascending
    gap_index: np.ndarray           # index into gaps per Kraus operator


def _distinct(values) -> list:
    """The distinct values, rounded to 12 digits, in ascending order: plain numbers to print."""
    return sorted(set(round(v, 12) for v in values.tolist()))


def _segment_means(values: np.ndarray, segment: np.ndarray, count: int) -> np.ndarray:
    """The mean of the values of each of count segments, segment[i] being value i's; 0 if empty."""
    return np.bincount(segment, values, count) / np.maximum(np.bincount(segment, None, count), 1)


def _group(values: np.ndarray, owner: np.ndarray, eps_group: float) -> tuple:
    """Group the values of each segment (the values of one owner; owner ascends).

    In ascending order, a value joins its segment's last group while it is
    within eps_group of that group's first value.  Returns (group index per
    value, counted from its segment's first group; the means of all groups,
    segment by segment; (S + 1,) offsets of each segment's groups in them).
    """
    order = np.lexsort((values, owner))  # owner[order] is owner
    ascending = values[order]
    labels, bases, group, segment = [], [], -1, -1
    for v, o in zip(ascending.tolist(), owner.tolist()):
        if o != segment or abs(v - first) > eps_group:
            group, first = group + 1, v
            if o != segment:
                segment = o
                bases.append(group)
        labels.append(group)
    bases.append(group + 1)
    bases, labels = np.array(bases), np.array(labels, dtype=np.intp)
    index = np.empty_like(order)
    index[order] = labels - bases[owner]
    return index, _segment_means(ascending, labels, group + 1), bases


# What a stacked pass over the maps of a process raises when some map fails a check.
PASS_ERRORS = (QmapError, ValueError, TypeError)


def _replayed(run, kmaps, *per_map):
    """run(stack_maps(kmaps), kmaps, *per_map), whose sequences hold one entry per map.

    Maps of different dimensions raise before the pass.  When the pass raises
    PASS_ERRORS over more than one map, each map is run again alone, in order,
    so the error raised is the first failing map's own, as running the maps one
    by one would raise it.
    """
    stack = stack_maps(kmaps)
    try:
        return run(stack, kmaps, *per_map)
    except PASS_ERRORS as exc:
        if len(kmaps) == 1:
            raise
        failure = exc
    for r in range(len(kmaps)):
        run(stack_maps(kmaps[r:r + 1]), *(x[r:r + 1] for x in (kmaps, *per_map)))
    raise failure


def _classify(stack: KrausStack, states: np.ndarray, eig: HermitianEigenDecomposition,
              tol: Tolerances) -> list:
    """The PotentialStructure of every map of a stack against its checked state, as one pass.

    The potentials, their classes and every operator's connections and gaps are
    computed over all maps at once; an operator that connects pairs of two gaps
    raises MixedPotentialOperator.
    """
    n, d = len(stack), stack.dim
    ops, owner = stack.operators, stack.owner
    vals, vecs = eig.eigenvalues, eig.eigenvectors
    potentials = -np.log(vals)
    classes, class_pot, class_bases = _group(
        potentials.ravel(), np.repeat(np.arange(n), d), tol.eps_group)
    pot = class_pot[classes.reshape(n, d) + class_bases[:-1, None]]
    connects = connections(ops, vecs[owner], tol.eps_zero)
    gap_table = (pot[:, :, None] - pot[:, None, :])[owner]  # gap of each pair (j, i)
    high = np.where(connects, gap_table, -np.inf)
    spread = high.max(axis=(1, 2)) - np.where(connects, gap_table, np.inf).min(axis=(1, 2))
    require(spread <= tol.eps_group, lambda k: MixedPotentialOperator(
        int(k - stack.bounds[owner[k]]), _distinct(high[k][connects[k]])))
    delta_phi = _segment_means(high[connects], np.nonzero(connects)[0], len(ops))
    gap_index, gaps, gap_bases = _group(delta_phi, owner, tol.eps_group)
    structures = []
    for r, (a, b) in enumerate(zip(stack.bounds[:-1], stack.bounds[1:])):
        structures.append(PotentialStructure(
            pi=states[r], eigen=HermitianEigenDecomposition(vals[r], vecs[r]),
            potentials=potentials[r], classes=tuple(classes[r * d:(r + 1) * d].tolist()),
            class_potentials=class_pot[class_bases[r]:class_bases[r + 1]],
            delta_phi=delta_phi[a:b], gaps=gaps[gap_bases[r]:gap_bases[r + 1]],
            gap_index=gap_index[a:b]))
    return structures


def classify_maps(kmaps, pis, tol: Tolerances = DEFAULT_TOLERANCES) -> list:
    """build_potential_structure of every map against its state: pis[r] if given, else the
    map's invariant state (checked_states).

    One pass over the maps stacked as one KrausStack (checked_states, then the
    classification), so each check runs once per (map, state).  The maps must
    share one dimension, and pis holds one entry per map (ValueError).
    When some map fails, the error raised is the first failing map's (_replayed).
    """
    if len(kmaps) != len(pis):
        raise ValueError(f"{len(kmaps)} maps and {len(pis)} pis")

    def run(stack, kmaps, pis):
        return _classify(stack, *checked_states(stack, kmaps, pis, tol), tol)

    return _replayed(run, kmaps, pis) if len(kmaps) else []


def build_potential_structure(
    kmap: KrausMap, pi: np.ndarray | None, tol: Tolerances = DEFAULT_TOLERANCES
) -> PotentialStructure:
    """Classify the Kraus operators of a map as potential ladder operators.

    pi None classifies against the map's unique invariant state.  Raises
    NotTracePreservingError for a map that loses trace, MixedPotentialOperator
    if some operator connects eigenstate pairs with two distinct potential
    gaps, and SingularStateError if pi is not strictly positive or not a fixed
    point.  A zero operator has no jumps and changes the potential by 0.  The
    one-map case of classify_maps.
    """
    return classify_maps([kmap], [pi], tol)[0]


@dataclass(frozen=True)
class DualMap:
    """Dual Kraus map together with the transformed invariant state."""

    map: KrausMap
    pi_dual: np.ndarray
    symmetry: SymmetryOp


def _dual_stack(stack: KrausStack, eig: HermitianEigenDecomposition, states: np.ndarray,
                symmetry: SymmetryOp, tol: Tolerances) -> tuple:
    """(dual operators as a stack of the same bounds, transformed states) of every map of a stack.

    The operators A pi^(1/2) M_k† pi^(-1/2) A† come from each state's decomposition,
    and the dual states are A pi A†.  Each dual map is checked to be trace
    preserving and to fix its state (check_fixed_points): SingularStateError.
    """
    v, w = eig.eigenvectors, eig.eigenvalues[:, None, :]
    # the expressions of matrix_power_of_positive, from the one decomposition
    sq = (v * w**0.5) @ adjoint(v)
    sqinv = (v * w**-0.5) @ adjoint(v)
    owner = stack.owner
    ops = symmetry.on_matrix(sq[owner] @ adjoint(stack.operators) @ sqinv[owner])
    ops.setflags(write=False)
    duals = replace(stack, operators=ops)
    pi_duals = symmetry.on_matrix(states)
    deviation = tp_defects(duals)
    require(deviation <= tol.eps_tp, lambda r: SingularStateError(
        f"dual map is not trace preserving (deviation {deviation[r]:.3e})"))
    check_fixed_points(duals, pi_duals, tol)
    return duals, pi_duals


def _dual_maps(duals: KrausStack, kmaps) -> list:
    ops, bounds = duals.operators, duals.bounds
    return [KrausMap(operators=ops[a:b], labels=tuple(f"{s}~" for s in kmap.labels))
            for kmap, a, b in zip(kmaps, bounds[:-1], bounds[1:])]


def build_dual(
    kmap: KrausMap, pi: np.ndarray | None, symmetry: SymmetryOp | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> DualMap:
    """Dual map with operators A pi^(1/2) M_k† pi^(-1/2) A†, pi None being the map's unique
    invariant state.  The map and pi are checked as build_potential_structure checks them
    (checked_states), and the dual as classify_duals checks it.  Not classify_duals' one-map
    case, which also classifies the dual: a map outside the ladder family has a dual too."""
    if symmetry is None:
        symmetry = theta(kmap.dim)
    stack = stack_maps([kmap])
    states, eig = checked_states(stack, [kmap], [pi], tol)
    duals, pi_duals = _dual_stack(stack, eig, states, symmetry, tol)
    return DualMap(map=_dual_maps(duals, [kmap])[0], pi_dual=pi_duals[0], symmetry=symmetry)


def classify_duals(kmaps, structures, symmetry: SymmetryOp,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> tuple:
    """(dual maps, their PotentialStructures) of maps classified as structures.

    Each structure's pi and eigendecomposition are stacked and trusted, and each
    pi is checked again, under tol, to be a strictly positive fixed point of its
    map.  Then build_dual and build_potential_structure of each dual map against
    its transformed state, in one pass: each dual map's trace preservation,
    fixed point, state decomposition and classification is checked once.  When
    some map fails, the error raised is the first failing map's (_replayed).
    """
    def run(stack, kmaps, structures):
        states = np.array([s.pi for s in structures])
        eig = HermitianEigenDecomposition(np.array([s.eigen.eigenvalues for s in structures]),
                                          np.array([s.eigen.eigenvectors for s in structures]))
        check_fixed_points(stack, states, tol)
        require_positive(eig.eigenvalues, tol)
        duals, pi_duals = _dual_stack(stack, eig, states, symmetry, tol)
        dual_eig = hermitian_eig(pi_duals, tol)
        require_positive(dual_eig.eigenvalues, tol)
        return _dual_maps(duals, kmaps), _classify(duals, pi_duals, dual_eig, tol)

    return _replayed(run, kmaps, structures) if len(kmaps) else ([], [])


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
    kmap: KrausMap, dual: DualMap, structure: PotentialStructure
) -> BalanceReport:
    """Check M~_k = e^{dPhi_k / 2} A M_k† A† for every operator."""
    ops = kmap.operators
    scale = np.exp(structure.delta_phi / 2)[:, None, None]
    res = frobs(dual.map.operators - scale * dual.symmetry.on_matrix(adjoint(ops)))
    return BalanceReport(
        residuals=res, relative_residuals=res / _norms(ops), tolerance=LADDER_CHECK_TOL)


@dataclass(frozen=True)
class CommutatorReport:
    """Residuals of the ladder commutation relations against ln pi."""

    ladder_residuals: np.ndarray    # ||[M_k, ln pi] - dPhi_k M_k|| / ||M_k||
    weight_residuals: np.ndarray    # ||[M_k† M_k, pi]|| / ||M_k† M_k||
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(np.all(self.ladder_residuals <= self.tolerance)
                    and np.all(self.weight_residuals <= self.tolerance))


def check_ladder_commutators(kmap: KrausMap, structure: PotentialStructure) -> CommutatorReport:
    """Check [M_k, ln pi] = dPhi_k M_k and [M_k† M_k, pi] = 0."""
    v, ops = structure.eigen.eigenvectors, kmap.operators
    log_pi = (v * np.log(structure.eigen.eigenvalues)) @ adjoint(v)
    w = adjoint(ops) @ ops
    return CommutatorReport(
        ladder_residuals=commutator_residuals(ops, log_pi, structure.delta_phi),
        weight_residuals=commutator_residuals(w, structure.pi, np.zeros(len(w))),
        tolerance=LADDER_CHECK_TOL,
    )


@dataclass(frozen=True)
class BohrLadderReport:
    """Outcome of checking [L, H] = omega L for a single Bohr frequency."""

    omega: float | None
    residual: float
    frequencies: tuple            # E_j - E_i over nonzero entries of L: each group's mean
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
    h: np.ndarray, l: np.ndarray, f=None, pi: np.ndarray | None = None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> BohrLadderReport:
    """Check that L is a ladder operator of H with a single Bohr frequency.

    The frequencies E_j - E_i of L's nonzero entries are grouped under eps_group, as
    classification groups gaps (_group), and omega is the mean of the one group.  When
    both `f` (a function of the energy difference) and `pi` are given and pi's eigenvalue
    ratios follow pi(i)/pi(j) = e^{f(E_j - E_i)}, also confirms that L changes the potential
    of pi by exactly -f(omega), i.e. [L, ln pi] = -f(omega) L.
    """
    h = as_complex_matrix(h)
    ls = as_complex_matrix(l)[None]
    eig = hermitian_eig(h, tol)
    freqs = eig.eigenvalues[None, :] - eig.eigenvalues[:, None]  # E_i - E_j at (j, i)
    nonzero = connections(ls, eig.eigenvectors, tol.eps_zero)[0]
    groups = _group(freqs[nonzero], np.zeros(nonzero.sum(), np.intp), tol.eps_group)[1].tolist()
    omega = groups[0] if len(groups) == 1 else None
    residual = float("inf") if omega is None else float(commutator_residuals(ls, h, [omega])[0])

    f_value = delta_phi = potential_residual = None
    if f is not None and pi is not None and omega is not None:
        f_value = float(f(omega))
        delta_phi = -f_value
        pig = hermitian_eig(as_complex_matrix(pi), tol)
        log_pi = (pig.eigenvectors * np.log(pig.eigenvalues)) @ adjoint(pig.eigenvectors)
        potential_residual = float(commutator_residuals(ls, log_pi, [delta_phi])[0])
    return BohrLadderReport(
        omega=omega, residual=residual, frequencies=tuple(groups), f_value=f_value,
        delta_phi=delta_phi, potential_residual=potential_residual, tolerance=LADDER_CHECK_TOL)
