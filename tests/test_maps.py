from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

import qmapft as q
from qmapft.linalg import frob
from qmapft.maps import (_population_chains, fixed_point_residuals, fixed_states, stack_maps,
                         superoperator_blocks, superoperator_view, tp_defect, tp_defects)
from conftest import assert_close
from test_exact_classical import kraus, nearly_decomposable
from test_ladder_properties import haar_unitary, ladder_maps

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


def test_apply_map_refuses_a_state_of_another_dimension():
    with pytest.raises(q.DimensionMismatchError,
                       match=r"state shape \(3, 3\) does not match map dimension 2"):
        q.apply_map(q.thermal_qubit_map(np.log(2), 0.5), np.eye(3) / 3)


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
    assert_close(tp_defect(kmap), defect, ulps=4)


def kron_superoperator(kmap):
    """Reference: the sum of K Kronecker products that build_superoperator's gemm replaces."""
    return sum(np.kron(m, m.conj()) for m in kmap.operators)


def eig_fixed_point(s, dim):
    """Reference pi: S's eigenvector of the eigenvalue nearest 1, as a unit-trace state."""
    vals, vecs = np.linalg.eig(s)
    x = vecs[:, np.argmin(np.abs(vals - 1.0))].reshape(dim, dim)
    x = x / np.trace(x)  # removes the eigenvector's arbitrary phase
    return (x + x.conj().T) / 2


def assert_superoperator_and_fixed_point_match_kron(kmap):
    s = kron_superoperator(kmap)
    assert np.max(np.abs(q.build_superoperator(kmap) - s)) <= 1e-15
    pi = q.invariant_state(kmap)
    assert np.max(np.abs(pi - eig_fixed_point(s, kmap.dim))) <= 1e-12


@given(ladder_maps((2, 16)))
@settings(max_examples=15, deadline=None)
def test_superoperator_gemm_matches_kron_sum_on_ladder_maps(example):
    assert_superoperator_and_fixed_point_match_kron(example.kmap)


def test_superoperator_gemm_matches_kron_sum_on_model_library(library):
    maps = {id(s.map): s.map for spec in library.values() for s in spec.steps}
    for kmap in maps.values():
        try:
            assert_superoperator_and_fixed_point_match_kron(kmap)
        except q.NonUniqueInvariantState:
            pass  # a unital step with a degenerate fixed space; S was checked first


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


def test_validate_density_refuses_a_matrix_that_is_not_square():
    with pytest.raises(q.DimensionMismatchError, match=r"density matrix is not square: \(2, 3\)"):
        q.validate_density(np.ones((2, 3)) / 2)


def test_validate_density_returns_the_state_and_its_decomposition():
    checked, eig = q.validate_density([[0.7, 0.2], [0.2, 0.3]])
    assert checked.dtype == np.complex128
    assert np.array_equal(checked, np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
    want = q.hermitian_eig(checked)
    assert np.array_equal(eig.eigenvalues, want.eigenvalues)
    assert np.array_equal(eig.eigenvectors, want.eigenvectors)


def test_invariant_state_of_a_map_with_no_fixed_point_raises():
    # 0.9 U loses trace 0.19 sqrt(2) < eps_tp = 0.5, and every eigenvalue of its S has modulus 0.81
    kmap = q.kraus_map([0.9 * haar_unitary(np.random.default_rng(0), 2)])
    with pytest.raises(q.SingularStateError, match="the map has no fixed point within tolerance"):
        q.invariant_state(kmap, q.Tolerances(eps_tp=0.5))


def test_invariant_state_singular_fixed_point():
    # full amplitude damping: the unique fixed point |0><0| has eigenvalue 0
    kmap = q.kraus_map([P0, np.array([[0, 1], [0, 0]], dtype=complex)])
    with pytest.raises(q.SingularStateError, match="not above eps_pos"):
        q.invariant_state(kmap)


def dense_window(kmap):
    """Reference: the eigenvectors of one dense eig of S whose eigenvalues lie within 1e-9 of 1."""
    vals, vecs = np.linalg.eig(q.build_superoperator(kmap))
    return vecs[:, np.abs(vals - 1.0) <= 1e-9]


# The most ulps of max|pi| that any comparison of pi with another solver's allows,
# whatever the conditioning: 5.7e-14 relative.
PI_ULPS_CAP = 256


def dense_invariant_state(kmap):
    """Reference: (pi as the null vector of one dense SVD of S - 1 gives it, for a
    one-dimensional null space; its bound in ulps of max|pi|).

    The bound is 2 / sigma_2, with sigma_2 the second-smallest singular value of
    S - 1, capped at PI_ULPS_CAP: fixed_states takes the SVD of S's blocks instead,
    another backward-stable SVD, and the null vector's condition grows as
    1 / sigma_2 (Golub and Van Loan, 8.6), as an eigenvector's grows as 1 / sep.
    """
    s = q.build_superoperator(kmap)
    _, sv, vh = np.linalg.svd(s - np.eye(len(s)))
    assert (sv <= 1e-9).sum() == 1
    x = vh[-1].conj().reshape(kmap.dim, kmap.dim)
    x = x / np.trace(x)
    return (x + x.conj().T) / 2, min(2 / sv[-2], PI_ULPS_CAP)


def rational_solve(a, b):
    """x with a x = b, by Gauss-Jordan elimination in fractions.Fraction."""
    m = [row + [v] for row, v in zip(a, b)]
    for c in range(len(m)):
        pivot = next(r for r in range(c, len(m)) if m[r][c] != 0)
        m[c], m[pivot] = m[pivot], m[c]
        for r in range(len(m)):
            if r != c and m[r][c] != 0:
                f = m[r][c] / m[c][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return [row[-1] / row[i] for i, row in enumerate(m)]


def population_block(kmap):
    """T[a, c] = sum_k |M_k[a, c]|^2, summed over k in order as fixed_states sums it, when
    every operator is diagonal or has at most one nonzero entry (ladder pattern); else None."""
    ops = kmap.operators
    if any(np.count_nonzero(m) > 1 and np.count_nonzero(m - np.diag(np.diag(m))) for m in ops):
        return None
    return sum(m.real**2 + m.imag**2 for m in ops)


# What GTH elimination achieves against closed_column_state, in ulps of each entry of pi:
# 3.2 ulps (7.1e-16 relative) seen on the ladder inputs of perfbench and the library.
GTH_ULPS = 9


def closed_column_state(t):
    """Reference: pi = diag(x), x the exact stationary vector of the column-stochastic matrix
    whose off-diagonal entries are T's computed ones, each an exact binary fraction, and
    whose diagonal entries close their columns to 1; rounded once.

    fractions.Fraction Gauss-Jordan elimination of (A - 1) x = 0 with its last equation
    replaced by sum x = 1.  The chain must have one closed class; x is 0 on its transient
    states.
    """
    d = len(t)
    a = [[Fraction(float(t[i][j])) if i != j else Fraction(0) for j in range(d)] for i in range(d)]
    for c in range(d):
        a[c][c] = 1 - sum(a[r][c] for r in range(d))
    rows = [[a[i][j] - (i == j) for j in range(d)] for i in range(d - 1)] + [[Fraction(1)] * d]
    x = rational_solve(rows, [Fraction(0)] * (d - 1) + [Fraction(1)])
    return np.diag([float(v) for v in x]).astype(complex)


def assert_gth_state(pi, kmap):
    """pi is within GTH_ULPS of each entry of the closed-column state of kmap's population
    block, and exactly 0 off the diagonal."""
    want = closed_column_state(population_block(kmap))
    assert_close(pi, want, GTH_ULPS, scale=np.abs(want))


def exact_invariant_state(kmap):
    """Reference: pi from the exact eigenvector of S's computed entries whose eigenvalue
    is nearest 1, on the block of S that holds the populations.

    Every float is an exact binary fraction, so A = S_block - 1 is exact in
    fractions.Fraction, complex entries as the real 2 x 2 blocks [[re, -im], [im, re]].
    A's eigenvalue nearest 0 is the roundoff of S's trace preservation, ~1e-16,
    and its next is -sep, so two exact inverse-iteration solves from the trace
    vector leave an error of ~(1e-16 / sep)^2 relative; the result is rounded once.
    A must be nonsingular, as it is for every map of the model library.
    """
    d = kmap.dim
    s = superoperator_view(kmap)
    labels = superoperator_blocks(s)
    block = np.flatnonzero(labels == labels[0])
    a, b = np.divmod(block, d)
    assert np.all(labels[np.arange(d) * (d + 1)] == labels[0]), "populations span blocks"
    sub = s[a[:, None], b[:, None], a, b] - np.eye(len(block))
    real = np.block([[sub.real, -sub.imag], [sub.imag, sub.real]])
    x = [Fraction(int(i == j)) for i, j in zip(a, b)] + [Fraction(0)] * len(block)
    for _ in range(2):
        x = rational_solve([[Fraction(v) for v in row] for row in real.tolist()], x)
    trace = sum(x[i] for i in np.flatnonzero(a == b))
    n = len(block)
    vector = np.zeros(d * d, dtype=complex)
    vector[block] = [complex(float(x[i] / trace), float(x[n + i] / trace)) for i in range(n)]
    pi = vector.reshape(d, d)
    return (pi + pi.conj().T) / 2


def lindblad_ladder(d, collective=False, beta=0.7, rate=0.3, dt=None):
    """A discretized thermal ladder in its energy basis, with generic gaps, its step dt
    (by default 0.05 over the largest ||L||_F^2).

    One jump pair per neighbouring pair of levels keeps every coherence |i><j| a block of
    its own; collective=True uses the truncated annihilation operator instead, which
    couples |i><j| to |i-1><j-1|, one block per diagonal of rho.
    """
    energies = np.cumsum(np.linspace(1.0, 1.5, d)) - 1.0
    h = np.diag(energies).astype(complex)
    lowers = [np.outer(np.eye(d)[i - 1], np.eye(d)[i]) for i in range(1, d)]
    if collective:
        lowers = [sum(np.sqrt(i) * low for i, low in enumerate(lowers, 1))]
    gaps = [1.0] if collective else np.diff(energies)
    jumps = []
    for low, gap in zip(lowers, gaps):
        jumps += [np.sqrt(rate) * low, np.sqrt(rate * np.exp(-beta * gap)) * low.T]
    return q.lindblad_step(h, jumps, 0.05 / max(frob(l) ** 2 for l in jumps) if dt is None else dt)


def stinespring_map(d, count, seed):
    """A Haar-random isometry C^d -> C^(count d), cut into count Kraus operators."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((count * d, d)) + 1j * rng.standard_normal((count * d, d))
    return q.kraus_map(list(np.linalg.qr(z)[0].reshape(count, d, d)))


def assert_blocks_exact(kmap):
    """The blocks are the components of S's pattern and S vanishes outside them;
    returns the number of blocks."""
    s = q.build_superoperator(kmap)
    view = superoperator_view(kmap)
    assert np.array_equal(view.reshape(s.shape), s)
    labels = superoperator_blocks(view)
    assert labels.shape == (len(s),)
    # each index carries the least index of its block, so the blocks partition range(d^2)
    assert np.all(labels <= np.arange(len(s))) and np.array_equal(labels[labels], labels)
    count, reference = connected_components((s != 0) | (s != 0).T, directed=False)
    assert len(np.unique(labels)) == count
    assert len(np.unique(np.stack([labels, reference]), axis=1)[0]) == count
    assert np.all(s[labels[:, None] != labels[None, :]] == 0)
    return count


@given(st.booleans().flatmap(lambda haar: ladder_maps((2, 16), haar)))
@settings(max_examples=15, deadline=None)
def test_block_split_is_exact_on_ladder_maps(example):
    d = example.kmap.dim
    # in the computational basis, each coherence |i><j| is mapped to 0 alone
    assert assert_blocks_exact(example.kmap) in (1, d * d - d + 1)
    assert_superoperator_and_fixed_point_match_kron(example.kmap)
    assert np.max(np.abs(q.invariant_state(example.kmap) - example.pi)) <= 1e-9


@pytest.mark.parametrize("d", [2, 3, 6, 9, 16])
@pytest.mark.parametrize("collective", [False, True])
def test_block_split_is_exact_on_lindblad_ladders(d, collective):
    # 1 x 1 coherence blocks, or one block per diagonal of rho (2d - 1 of them)
    kmap = lindblad_ladder(d, collective)
    assert assert_blocks_exact(kmap) == (2 * d - 1 if collective else d * d - d + 1)
    assert_superoperator_and_fixed_point_match_kron(kmap)


def test_block_split_of_a_dense_map_is_one_block():
    for d in (2, 7):
        kmap = stinespring_map(d, 3, seed=4)
        assert assert_blocks_exact(kmap) == 1
        assert_superoperator_and_fixed_point_match_kron(kmap)


def test_one_path_matches_the_dense_eig_on_model_library(library):
    # a map of ladder pattern takes GTH: its pi is within GTH_ULPS of each entry of the
    # exact closed-column state (1.9e-16 relative at worst on the library's maps, where
    # the dense eig was 9.8-14 ulps of max|pi| off on the qubit Lindblad steps and 354 on
    # the qutrit step); a map on the block path is within the capped 2 / sigma_2 of the
    # dense SVD and PI_ULPS_CAP of the exact eigenvector of S's computed entries; the
    # dense eig's window counts the fixed space
    maps = {id(s.map): s.map for spec in library.values() for s in spec.steps}
    for kmap in maps.values():
        window = dense_window(kmap).shape[1]
        if window == 1 and population_block(kmap) is not None:
            assert_gth_state(q.invariant_state(kmap), kmap)
        elif window == 1:
            pi, bound = dense_invariant_state(kmap)
            assert_close(q.invariant_state(kmap), pi, bound)
            assert_close(q.invariant_state(kmap), exact_invariant_state(kmap), PI_ULPS_CAP)
        else:
            with pytest.raises(q.NonUniqueInvariantState) as info:
                q.invariant_state(kmap)
            assert info.value.subspace_dim == window


DEGENERATE_MAPS = {
    "identity": lambda d: q.kraus_map([np.eye(d)]),
    "permutation": lambda d: q.unitary_map(np.eye(d)[np.random.default_rng(d).permutation(d)]),
    "measurement": lambda d: q.projective_measurement(list(np.eye(d))),
    "haar_measurement": lambda d: q.projective_measurement(
        list(haar_unitary(np.random.default_rng(d), d).T)),
    "dephasing": lambda d: q.dephasing_map(list(np.eye(d)), 1.0),
}


@pytest.mark.parametrize("d", [2, 3, 6, 8, 16])
@pytest.mark.parametrize("name", sorted(DEGENERATE_MAPS))
def test_degenerate_maps_above_the_crossover(name, d):
    kmap = DEGENERATE_MAPS[name](d)
    with pytest.raises(q.NonUniqueInvariantState) as info:
        q.invariant_state(kmap)
    assert info.value.subspace_dim == dense_window(kmap).shape[1] > 1
    # every one of these maps is unital, so 1/N is offered
    assert np.array_equal(info.value.candidate, np.eye(d) / d)


@pytest.mark.parametrize("d", [2, 6, 16])
def test_full_amplitude_damping_ladder_is_singular_above_the_crossover(d):
    e = np.eye(d)
    kmap = q.kraus_map([np.outer(e[0], e[0])] + [np.outer(e[i - 1], e[i]) for i in range(1, d)])
    # S's pattern is not symmetric: |i><i| -> |i-1><i-1| one way; coherences go to 0
    assert assert_blocks_exact(kmap) == d * d - d + 1
    with pytest.raises(q.SingularStateError, match="not above eps_pos"):
        q.invariant_state(kmap)


def spy_block_path(monkeypatch):
    """(the (n, n) of each SVD, the maps whose S is built): what fixed_states' block path
    takes, recorded from this call on."""
    shapes, built = [], []
    svd, view = np.linalg.svd, q.maps.superoperator_view
    monkeypatch.setattr(q.maps.np.linalg, "svd", lambda a: shapes.append(a.shape[-2:]) or svd(a))
    monkeypatch.setattr(q.maps, "superoperator_view", lambda kmap: built.append(kmap) or view(kmap))
    return shapes, built


def assert_stack_is_each_map_alone(kmaps, monkeypatch):
    """fixed_states of a stack that mixes exact patterns: each pi is its one-map
    invariant_state's bytes, a map of ladder pattern's within GTH_ULPS of its closed-column
    state and any other's within the dense SVD's bound; returns (the (n, n) of each SVD
    fixed_states takes, sorted; the indices of the maps whose S it builds)."""
    states = fixed_states(kmaps, q.DEFAULT_TOLERANCES)
    assert states.shape == (len(kmaps), kmaps[0].dim, kmaps[0].dim)
    for kmap, pi in zip(kmaps, states):
        if population_block(kmap) is None:
            reference, bound = dense_invariant_state(kmap)
            assert_close(pi, reference, bound)
        else:
            assert_gth_state(pi, kmap)
        assert_close(pi, q.invariant_state(kmap), 0)
    shapes, built = spy_block_path(monkeypatch)
    fixed_states(kmaps, q.DEFAULT_TOLERANCES)
    return sorted(shapes), [next(r for r, m in enumerate(kmaps) if m is b) for b in built]


def test_energy_basis_ladder_stacked_with_a_rotated_one(monkeypatch):
    # the energy-basis ladder is of ladder pattern and takes GTH, building no S; the
    # Haar-rotated ladder's S is one 64 x 64 block, solved by the block path
    ladder = lindblad_ladder(8)
    u = haar_unitary(np.random.default_rng(8), 8)
    rotated = q.kraus_map(u @ lindblad_ladder(8, beta=0.4).operators @ u.conj().T)
    assert assert_blocks_exact(ladder) == 57 and assert_blocks_exact(rotated) == 1
    assert population_block(ladder) is not None and population_block(rotated) is None
    assert assert_stack_is_each_map_alone([ladder, rotated, ladder], monkeypatch) == \
        ([(64, 64)], [1])


def test_gad_stacked_with_a_dense_complex_map(monkeypatch):
    # GAD takes GTH on its {|0><0|, |1><1|} chain; the dense map takes one 4 x 4 SVD
    gad = q.thermal_qubit_map(np.log(2), 0.5)
    dense = stinespring_map(2, 3, seed=5)
    assert assert_blocks_exact(gad) == 3 and assert_blocks_exact(dense) == 1
    assert assert_stack_is_each_map_alone([gad, dense, gad], monkeypatch) == ([(4, 4)], [1])


def swap_qubit_map(a, b):
    """A qubit map whose second operator both decays and excites, [[0, a], [b, 0]]: not of
    ladder pattern, so it takes the block path, where S's blocks are its populations and
    its two coherences |0><1|, |1><0|, which that operator couples; a != b keeps that
    block's eigenvalues sqrt((1 - a^2)(1 - b^2)) +- ab below 1."""
    return q.kraus_map([np.diag([np.sqrt(1 - b * b), np.sqrt(1 - a * a)]), [[0, a], [b, 0]]])


def test_fixed_states_solves_each_block_path_map_alone(monkeypatch):
    # a dense d = 4 map's S is one 16 x 16 block; a swap qubit map's S has two 2 x 2 blocks
    # and no 1 x 1 block; GAD maps take GTH and no SVD.  Each map gets its own SVD per
    # block, a stack's as invariant_state's
    dense = [stinespring_map(4, 3, seed) for seed in range(4)]
    swaps = [swap_qubit_map(0.3 + 0.05 * i, 0.2) for i in range(9)]
    gads = [q.thermal_qubit_map(0.5 + 0.1 * i, 0.5) for i in range(9)]
    singly = [q.invariant_state(kmap) for kmap in dense + swaps + gads]
    shapes, built = spy_block_path(monkeypatch)
    states = [pi for kmaps in (dense, swaps, gads)
              for pi in fixed_states(kmaps, q.DEFAULT_TOLERANCES)]
    assert shapes == [(16, 16)] * 4 + [(2, 2)] * 18
    assert built == dense + swaps
    for pi, want in zip(states, singly):
        assert_close(pi, want, 0)


def test_singleton_blocks_take_no_eig(monkeypatch):
    # d = 16: diagonal operators and one operator that swaps levels 0 and 1 with unequal
    # amplitudes, so S has two 2 x 2 blocks, the populations and the coherences of levels 0
    # and 1 (swap_qubit_map), and 252 1 x 1 blocks; the 196 coherences and populations of
    # levels 2..15 are fixed, and the population block adds one fixed vector
    d, a, b = 16, 0.3, 0.2
    down = np.zeros((d, d))
    down[0, 1], down[1, 0] = a, b
    kmap = q.kraus_map([np.diag([np.sqrt(1 - b * b), np.sqrt(1 - a * a)] + [1.0] * (d - 2)),
                        down])
    labels = superoperator_blocks(superoperator_view(kmap))
    assert (np.bincount(labels, minlength=d * d)[labels] == 1).sum() == 252
    shapes, built = spy_block_path(monkeypatch)
    with pytest.raises(q.NonUniqueInvariantState) as info:
        q.invariant_state(kmap)
    assert shapes == [(2, 2)] * 2 and built == [kmap]
    assert info.value.subspace_dim == dense_window(kmap).shape[1] == 197
    assert info.value.candidate is None


def test_operators_in_any_memory_layout_give_the_same_pi():
    # kraus_map keeps an array's layout, so a Fortran-ordered stack's rows are strided
    for kmap in (q.thermal_qubit_map(0.5, 0.5), lindblad_ladder(4), stinespring_map(3, 2, seed=1)):
        strided = q.kraus_map(np.asfortranarray(kmap.operators))
        assert not strided.operators.flags.c_contiguous
        assert_close(q.invariant_state(strided), q.invariant_state(kmap), 0)


def test_d16_ladder_takes_no_eig_of_the_whole_superoperator(monkeypatch):
    # nor any SVD, nor its S: the energy-basis ladder is of ladder pattern
    shapes, built = spy_block_path(monkeypatch)
    kmap = lindblad_ladder(16)
    assert_gth_state(q.invariant_state(kmap), kmap)
    assert shapes == built == []


# maps of ladder pattern: thermal ladders in their energy basis, and item 15's chains, whose
# blocks {0, 1} and {2} are coupled with weight eps, the regime where an eigenvalue-1 solve
# of S loses relative accuracy in pi's small entries
LADDER_PATTERN_MAPS = {
    **{f"ladder-d{d}-beta{beta}": (lambda d=d, beta=beta: lindblad_ladder(d, beta=beta))
       for d in range(2, 17) for beta in (0.2, 0.7)},
    **{f"chain-1e-{k}": (lambda k=k: kraus(nearly_decomposable(Fraction(1, 10**k))))
       for k in (3, 6, 9, 12, 15)},
}


@pytest.mark.parametrize("name", sorted(LADDER_PATTERN_MAPS))
def test_ladder_pattern_pi_is_the_exact_closed_column_state(name, monkeypatch):
    shapes, built = spy_block_path(monkeypatch)
    kmap = LADDER_PATTERN_MAPS[name]()
    assert_gth_state(q.invariant_state(kmap), kmap)
    assert shapes == built == []


# states 0 and 1 drain into the closed class {2, 3}, whose pi is (2/3, 1/3)
TRANSIENT_CHAIN = [[Fraction(1, 2), Fraction(1, 4), 0, 0], [Fraction(1, 4), Fraction(1, 4), 0, 0],
                   [Fraction(1, 4), 0, Fraction(3, 4), Fraction(1, 2)],
                   [0, Fraction(1, 2), Fraction(1, 4), Fraction(1, 2)]]


def test_transient_states_get_exactly_zero():
    # states 0 and 1 drain into the closed class {2, 3}, which lies above them, so GTH
    # must eliminate them first; fixed_states leaves pi unchecked (assert_gth_state asks
    # for exact zeros where the exact state is 0), invariant_state refuses it
    kmap = kraus(TRANSIENT_CHAIN)
    assert_gth_state(fixed_states([kmap], q.DEFAULT_TOLERANCES)[0], kmap)
    with pytest.raises(q.SingularStateError, match="not above eps_pos"):
        q.invariant_state(kmap)


def test_reducible_population_chains_count_their_closed_classes():
    # two closed classes ({0, 1} and {3}) and a transient state 2; then two absorbing
    # states and a diagonal operator that keeps their coherences |0><1| and |1><0| fixed
    two = kraus([[Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), 0],
                 [Fraction(1, 2), Fraction(2, 3), Fraction(1, 4), 0],
                 [0, 0, Fraction(1, 4), 0], [0, 0, Fraction(1, 4), 1]])
    half = np.sqrt(0.5)
    kept = q.kraus_map([np.diag([1.0, 1.0, 0.0]), half * np.outer(np.eye(3)[0], np.eye(3)[2]),
                        half * np.outer(np.eye(3)[1], np.eye(3)[2])])
    for kmap, dim in ((two, 2), (kept, 4)):
        assert population_block(kmap) is not None
        with pytest.raises(q.NonUniqueInvariantState) as info:
            q.invariant_state(kmap)
        assert info.value.subspace_dim == dense_window(kmap).shape[1] == dim
        assert info.value.candidate is None


def near_trace_preserving(kmap, eps_tp):
    """kmap and four maps of ladder pattern like it, at a trace-preservation defect of about
    0.9 eps_tp: every operator scaled by sqrt(1 +- 0.9 eps_tp / sqrt(d)), and column 0 of
    every operator by sqrt(1 +- 0.9 eps_tp), which moves one column sum of T by all of it."""
    d, ops = kmap.dim, kmap.operators
    column = np.ones(d)
    maps = [kmap]
    for sign in (1, -1):
        column[0] = np.sqrt(1 + sign * 0.9 * eps_tp)
        maps += [q.kraus_map(np.sqrt(1 + sign * 0.9 * eps_tp / np.sqrt(d)) * ops),
                 q.kraus_map(ops * column)]
    return maps


def assert_trace_preservation_bounds_column_sums(kmaps):
    """For each map of ladder pattern that passes checked_states' test ||sum M† M - 1||_F <=
    eps_tp, T's column sums lie within eps_tp of 1: sum_k M_k† M_k is diag of those sums.  So
    the column-sum test _population_chains once made next to the pattern decided nothing, and
    GTH takes exactly the maps it took with it.  Returns how many maps of ladder pattern it
    checked."""
    checked = 0
    for tol in (q.DEFAULT_TOLERANCES, q.Tolerances(eps_tp=0.5)):
        for kmap in kmaps:
            stack = stack_maps(near_trace_preserving(kmap, tol.eps_tp))
            assert (tp_defects(stack) <= tol.eps_tp).all()
            ladder, chains = _population_chains(stack)
            assert np.abs(chains.sum(axis=2) - 1.0).max(initial=0.0) <= tol.eps_tp
            checked += len(ladder)
    return checked


def test_trace_preservation_bounds_column_sums_on_model_library(library):
    maps = {id(s.map): s.map for spec in library.values() for s in spec.steps}
    assert assert_trace_preservation_bounds_column_sums(list(maps.values())) > 0


@given(ladder_maps((2, 16), haar=False))
@settings(max_examples=25, deadline=None)
def test_trace_preservation_bounds_column_sums_of_ladder_maps(example):
    assert assert_trace_preservation_bounds_column_sums([example.kmap]) == 2 * 5


def test_fixed_states_of_any_stack_are_each_maps_bytes():
    # maps of ladder pattern (irreducible, and with transient states, which a stack of
    # irreducible chains alone never gathers) and block-path maps, in shuffled stacks
    rng = np.random.default_rng(3)
    u = haar_unitary(rng, 4)
    rotated = q.kraus_map(u @ lindblad_ladder(4).operators @ u.conj().T)
    pool = [lindblad_ladder(4), lindblad_ladder(4, beta=0.2), kraus(TRANSIENT_CHAIN),
            stinespring_map(4, 3, seed=6), rotated]
    alone = [fixed_states([kmap], q.DEFAULT_TOLERANCES)[0] for kmap in pool]
    for _ in range(12):
        picks = rng.integers(0, len(pool), size=rng.integers(1, 7))
        for r, pi in zip(picks, fixed_states([pool[r] for r in picks], q.DEFAULT_TOLERANCES)):
            assert_close(pi, alone[r], 0)


SHORT_STEPS = {
    "qubit": lambda dt: q.lindblad_step(np.diag([0.0, 1.0]),
                                        q.thermal_lindblad_pair(1.0, np.log(2), 0.5), dt=dt),
    "ladder-d4": lambda dt: lindblad_ladder(4, dt=dt),
}


@pytest.mark.parametrize("dt", [1e-10, 1e-12])
@pytest.mark.parametrize("name", sorted(SHORT_STEPS))
def test_lindblad_step_at_dt_1e_10_has_one_fixed_point(name, dt):
    # each population chain has one closed class, which GTH sees from the exact pattern, so
    # no coherence is fixed, though at these dt each coherence's 1 x 1 entry lies within 1e-9
    # of 1 (FIXED_WINDOW would count the qubit's fixed dimension as 3, the ladder's as 13)
    kmap = SHORT_STEPS[name](dt)
    want = closed_column_state(population_block(kmap))
    assert np.max(np.abs(q.invariant_state(kmap) - want)) <= 1e-12


def test_traceless_fixed_vector_is_a_singular_state_error():
    # not trace preserving: the only fixed vector of S is u sigma_z u†, whose zero trace once
    # ended in a divide warning and a NaN pi.  fixed_states leaves trace preservation
    # unchecked; invariant_state tests it first.  Haar-rotated, so the map is not of ladder
    # pattern and takes the block path, which reaches the zero-trace guard
    e01 = np.array([[0, 1], [0, 0]], dtype=complex)
    u = haar_unitary(np.random.default_rng(5), 2)
    ops = np.array([P0, P1, np.sqrt(0.3) * P0, np.sqrt(0.3) * e01])
    kmap = q.kraus_map(u @ ops @ u.conj().T)
    assert tp_defect(kmap) > 0.1 and not len(_population_chains(stack_maps([kmap]))[0])
    with pytest.raises(q.SingularStateError, match="zero trace"):
        fixed_states([kmap], q.DEFAULT_TOLERANCES)
    with pytest.raises(q.NotTracePreservingError):
        q.invariant_state(kmap)


def rotated_ladder(d, seed=8):
    """The rotated thermal ladder of CI's rotated8 check, at any d: lindblad_ladder(d) at
    dt = 0.05 conjugated by a random unitary, so S is one block."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
    return q.kraus_map(u @ lindblad_ladder(d, dt=0.05).operators @ u.conj().T)


@pytest.mark.parametrize("d", [10, 12, 14, 16])
def test_rotated_ladders_classify_and_dualize(d):
    # S is one d^2 x d^2 block: the block path's one SVD of the whole S - 1 must give a pi
    # accurate enough for the ladder classification and a trace-preserving dual at d = 16
    kmap, tol = rotated_ladder(d), q.DEFAULT_TOLERANCES
    pi = q.invariant_state(kmap)
    assert fixed_point_residuals(stack_maps([kmap]), pi[None])[0] <= tol.eps_fix
    q.build_potential_structure(kmap, None)
    assert tp_defect(q.build_dual(kmap, None).map) <= tol.eps_tp


@pytest.mark.parametrize("d", [2, 3, 4])
def test_rotated_ladder_pi_is_the_exact_eigenvector(d):
    # 230 ulps at d = 4.  From d = 5 the conditioning bound 2 / sigma_2 (303 ulps at d = 5)
    # exceeds PI_ULPS_CAP, and the SVD's pi is 265 ulps off there
    kmap = rotated_ladder(d)
    assert population_block(kmap) is None
    assert_close(q.invariant_state(kmap), exact_invariant_state(kmap), PI_ULPS_CAP)
