import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.linalg import frob
from qmapft.maps import tp_defect

X = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


def random_density(seed, dim=2):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def gaussian_elimination_fixed_point(kmap):
    """Independent oracle: null space of S - I by complex Gaussian elimination."""
    s = q.build_superoperator(kmap)
    d2 = s.shape[0]
    a = (s - np.eye(d2)).astype(complex)
    # forward elimination with partial pivoting
    pivots = []
    row = 0
    for col in range(d2):
        piv = max(range(row, d2), key=lambda r: abs(a[r, col]))
        if abs(a[piv, col]) < 1e-10:
            continue
        a[[row, piv]] = a[[piv, row]]
        a[row] = a[row] / a[row, col]
        for r in range(d2):
            if r != row:
                a[r] = a[r] - a[r, col] * a[row]
        pivots.append(col)
        row += 1
    free = [c for c in range(d2) if c not in pivots]
    assert len(free) == 1, "oracle expects a one-dimensional null space"
    vec = np.zeros(d2, dtype=complex)
    vec[free[0]] = 1.0
    for r, col in enumerate(pivots):
        vec[col] = -a[r, free[0]]
    dim = int(np.sqrt(d2))
    pi = vec.reshape(dim, dim)
    pi = (pi + pi.conj().T) / 2
    return pi / np.trace(pi).real


def test_validate_cptp_unitary():
    report = q.validate_cptp(q.kraus_map([X]))
    assert report.passed and report.tp_deviation == 0.0


def test_validate_cptp_projective():
    assert q.validate_cptp(q.kraus_map([P0, P1])).passed


def test_validate_cptp_trace_decreasing():
    report = q.validate_cptp(q.kraus_map([0.9 * np.eye(2)]))
    assert not report.passed
    assert report.tp_deviation == pytest.approx(frob(0.81 * np.eye(2) - np.eye(2)))


def test_apply_map_identity():
    kmap = q.kraus_map([np.eye(2)])
    rho = random_density(0)
    assert np.allclose(q.apply_map(kmap, rho), rho)


def test_apply_map_decoherence():
    kmap = q.kraus_map([P0, P1])
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert np.allclose(q.apply_map(kmap, rho), np.diag([0.5, 0.5]))


def test_apply_map_gad_fixed_point():
    kmap = q.thermal_qubit_map(np.log(2), 0.5)
    pi = gaussian_elimination_fixed_point(kmap)
    assert np.allclose(pi, np.diag([2 / 3, 1 / 3]), atol=1e-12)
    assert np.allclose(q.apply_map(kmap, pi), pi, atol=1e-12)


def test_superoperator_identity_map():
    s = q.build_superoperator(q.kraus_map([np.eye(3)]))
    assert np.allclose(s, np.eye(9))


def test_superoperator_matches_map_on_matrix_units():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = np.linalg.qr(h)[0]
    kmap = q.unitary_map(u)
    s = q.build_superoperator(kmap)
    for i in range(2):
        for j in range(2):
            unit = np.zeros((2, 2), complex)
            unit[i, j] = 1.0
            assert np.allclose(
                (s @ unit.reshape(-1)).reshape(2, 2), u @ unit @ u.conj().T
            )


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_superoperator_spectral_radius(seed):
    kmap = q.thermal_qubit_map(
        float(np.random.default_rng(seed).uniform(-2, 2)), 0.5
    )
    radius = np.max(np.abs(np.linalg.eigvals(q.build_superoperator(kmap))))
    assert radius <= 1 + 1e-10


@given(st.integers(min_value=0, max_value=10**6))
@settings(max_examples=20, deadline=None)
def test_superoperator_commutes_with_apply(seed):
    kmap = q.thermal_qubit_map(0.8, 0.4)
    s = q.build_superoperator(kmap)
    rho = random_density(seed)
    assert frob((s @ rho.reshape(-1)).reshape(2, 2) - q.apply_map(kmap, rho)) <= 1e-10


@given(st.integers(min_value=0, max_value=10**6), st.sampled_from([2, 3, 8, 16]))
@settings(max_examples=20, deadline=None)
def test_stacked_operators_match_per_operator_loop(seed, dim):
    # reference: the per-operator sums the stacked array expressions replace
    rng = np.random.default_rng(seed)
    count = int(rng.integers(1, 2 * dim))
    ops = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
    kmap = q.kraus_map(list(ops))
    assert kmap.operators.shape == (count, dim, dim) and kmap.dim == dim
    assert not kmap.operators.flags.writeable
    rho = random_density(seed, dim)
    applied = np.zeros_like(rho)
    for m in ops:
        applied = applied + m @ rho @ m.conj().T
    assert np.array_equal(q.apply_map(kmap, rho), applied)
    defect = frob(sum(m.conj().T @ m for m in ops) - np.eye(dim))
    assert tp_defect(kmap) == defect


def test_invariant_state_unitary_degenerate():
    with pytest.raises(q.NonUniqueInvariantState) as info:
        q.invariant_state(q.kraus_map([X]))
    assert info.value.subspace_dim > 1
    assert np.allclose(info.value.candidate, np.eye(2) / 2)


def test_invariant_state_gad_vs_elimination_oracle():
    kmap = q.thermal_qubit_map(np.log(2), 0.5)
    pi = q.invariant_state(kmap)
    assert np.allclose(pi, gaussian_elimination_fixed_point(kmap), atol=1e-10)
    assert np.allclose(pi, np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_invariant_state_measurement_degenerate():
    with pytest.raises(q.NonUniqueInvariantState):
        q.invariant_state(q.kraus_map([P0, P1]))


def test_invariant_state_is_fixed():
    kmap = q.thermal_qubit_map(1.1, 0.9)
    pi = q.invariant_state(kmap)
    assert frob(q.apply_map(kmap, pi) - pi) <= 1e-10


def one_step_ensemble(kmap, rho):
    step = q.make_step(kmap)
    return q.enumerate_trajectories(q.process_spec([step], initial_state=rho))


def test_nonselective_state_is_branch_mixture():
    # summed over n and k, the enumerated branches give the populations of the
    # nonselective state E(rho) in its eigenbasis, the final measurement basis
    kmap = q.thermal_qubit_map(np.log(2), 0.5)
    rho = random_density(11)
    ensemble = one_step_ensemble(kmap, rho)
    p_m = np.bincount(ensemble.m, weights=ensemble.probability, minlength=2)
    assert np.allclose(p_m, q.hermitian_eig(q.apply_map(kmap, rho)).eigenvalues, atol=1e-12)


def test_pure_state_probabilities_match_density_form():
    # the enumerator propagates pure states from rho's eigenbasis; summed over
    # n and m, operator k's branches carry the Born weight Tr[M_k rho M_k†]
    kmap = q.thermal_qubit_map(0.9, 0.6)
    rho = random_density(5)
    ensemble = one_step_ensemble(kmap, rho)
    p_k = np.bincount(ensemble.ks[:, 0], weights=ensemble.probability, minlength=len(kmap))
    born = [np.trace(m @ rho @ m.conj().T).real for m in kmap.operators]
    assert np.allclose(p_k, born, atol=1e-12)


def test_validate_density_rejects_bad_trace():
    with pytest.raises(ValueError):
        q.validate_density(np.diag([0.5, 0.6]).astype(complex))
