import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.linalg import frob, hermitian_eig
from qmapft.potential import DualMap, _group, _segment_means
from conftest import assert_close, unital_step
from test_ladder_properties import haar_unitary, ladder_maps

LN2 = np.log(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)
P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)


@pytest.fixture
def gad():
    kmap = q.thermal_qubit_map(LN2, 0.5)
    pi = q.invariant_state(kmap)
    return kmap, pi


def test_unital_all_delta_phi_zero():
    kmap = q.unitary_map(X)
    structure = q.build_potential_structure(kmap, np.eye(2) / 2)
    assert np.allclose(structure.delta_phi, 0.0)


def test_gad_delta_phi_values(gad):
    kmap, pi = gad
    structure = q.build_potential_structure(kmap, pi)
    assert structure.delta_phi == pytest.approx([0.0, -LN2, 0.0, LN2], abs=1e-12)
    # potential of the heavier eigenvalue is -ln(2/3)
    assert sorted(structure.potentials) == pytest.approx(
        [-np.log(2 / 3), -np.log(1 / 3)], abs=1e-12
    )


def test_mixed_potential_operator_rejected(gad):
    _, pi = gad  # diag(2/3, 1/3)
    # one operator combining decay and excitation: two distinct gaps
    a, b = np.sqrt(0.2), np.sqrt(0.1)
    mixed = np.array([[0, a], [b, 0]], dtype=complex)
    diag = np.diag([np.sqrt(1 - b**2), np.sqrt(1 - a**2)]).astype(complex)
    kmap = q.kraus_map([diag, mixed])
    assert frob(q.apply_map(kmap, pi) - pi) <= 1e-12
    with pytest.raises(q.MixedPotentialOperator) as info:
        q.build_potential_structure(kmap, pi)
    assert info.value.operator_index == 1
    assert len(info.value.gaps) == 2
    assert "gaps [-0.69314718056, 0.69314718056];" in str(info.value)  # plain numbers


def test_dual_of_unitary_is_conjugated_adjoint():
    rng = np.random.default_rng(1)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = np.linalg.qr(h)[0]
    dual = q.build_dual(q.unitary_map(u), np.eye(3) / 3)
    assert np.allclose(dual.map.operators[0], u.conj().T.conj())  # == u.T
    assert np.allclose(dual.map.operators[0], u.T)


def test_dual_of_pauli_x_is_itself():
    dual = q.build_dual(q.unitary_map(X), np.eye(2) / 2)
    assert np.allclose(dual.map.operators[0], X)


def test_gad_dual_swaps_jump_labels(gad):
    kmap, pi = gad
    dual = q.build_dual(kmap, pi)
    # diagonal operators map to themselves, decay <-> excitation
    perm = [0, 3, 2, 1]
    for k, p in enumerate(perm):
        assert frob(dual.map.operators[k] - kmap.operators[p]) <= 1e-12


def test_detailed_balance_gad(gad):
    kmap, pi = gad
    structure = q.build_potential_structure(kmap, pi)
    dual = q.build_dual(kmap, pi)
    report = q.check_detailed_balance(kmap, dual, structure)
    assert report.passed
    assert np.max(report.residuals) < 1e-12


def test_detailed_balance_projective_measurement():
    kmap = q.kraus_map([P0, P1])
    pi = np.eye(2) / 2
    structure = q.build_potential_structure(kmap, pi)
    dual = q.build_dual(kmap, pi)
    report = q.check_detailed_balance(kmap, dual, structure)
    assert report.passed
    assert np.allclose(structure.delta_phi, 0.0)
    for a, b in zip(dual.map.operators, kmap.operators):
        assert np.allclose(a, b)


def test_detailed_balance_detects_perturbation(gad):
    kmap, pi = gad
    structure = q.build_potential_structure(kmap, pi)
    dual = q.build_dual(kmap, pi)
    perturbed_ops = [m.copy() for m in dual.map.operators]
    perturbed_ops[1][0, 0] += 0.01
    broken = DualMap(
        map=q.kraus_map(perturbed_ops), pi_dual=dual.pi_dual, symmetry=dual.symmetry
    )
    report = q.check_detailed_balance(kmap, broken, structure)
    assert not report.passed
    assert report.residuals[1] == pytest.approx(0.01, rel=1e-6)


def test_ladder_commutators_gad(gad):
    kmap, pi = gad
    structure = q.build_potential_structure(kmap, pi)
    report = q.check_ladder_commutators(kmap, structure)
    assert report.passed
    # decay operator: [M, ln pi] = -ln2 * M
    v = structure.eigen.eigenvectors
    log_pi = (v * np.log(structure.eigen.eigenvalues)) @ v.conj().T
    m = kmap.operators[1]
    assert frob(m @ log_pi - log_pi @ m - (-LN2) * m) <= 1e-12


def test_ladder_commutators_unital():
    kmap = q.unitary_map(X)
    structure = q.build_potential_structure(kmap, np.eye(2) / 2)
    report = q.check_ladder_commutators(kmap, structure)
    assert np.max(report.ladder_residuals) == 0.0


@pytest.mark.parametrize("beta_omega,gamma", [(0.3, 0.2), (LN2, 0.5), (1.7, 0.9)])
def test_classification_implies_commutators(beta_omega, gamma):
    kmap = q.thermal_qubit_map(beta_omega, gamma)
    pi = q.invariant_state(kmap)
    structure = q.build_potential_structure(kmap, pi)
    assert q.check_ladder_commutators(kmap, structure).passed


def sorted_delta_phis(kmap, pis):
    """The sorted potential changes of kmap against each of several of its fixed points."""
    return [np.sort(q.build_potential_structure(kmap, pi).delta_phi) for pi in pis]


def test_delta_phi_independence_trivial(gad):
    kmap, pi = gad
    first, second = sorted_delta_phis(kmap, [pi, pi])
    assert_close(second, first, 0)


def test_delta_phi_independence_block_diagonal():
    # direct sum of two identical GAD maps: a whole family of fixed points
    gad = q.thermal_qubit_map(LN2, 0.5)
    ops = []
    for m in gad.operators:
        big = np.zeros((4, 4), complex)
        big[:2, :2] = m
        big[2:, 2:] = m
        ops.append(big)
    kmap = q.kraus_map(ops)
    pi_block = np.diag([2 / 3, 1 / 3]).astype(complex)
    pis = []
    for t in (0.3, 0.5, 0.8):
        pi = np.zeros((4, 4), complex)
        pi[:2, :2] = t * pi_block
        pi[2:, 2:] = (1 - t) * pi_block
        pis.append(pi)
    sets = sorted_delta_phis(kmap, pis)
    # each set is (-ln 2, 0, 0, ln 2) from another pi's logarithm: largest difference seen 1 eps
    for s in sets[1:]:
        assert_close(s, sets[0], 4, scale=1.0)


def test_delta_phi_independence_measurement_map():
    kmap = q.kraus_map([P0, P1])
    pis = [np.eye(2) / 2, np.diag([1 / 3, 2 / 3]).astype(complex)]
    for s in sorted_delta_phis(kmap, pis):
        assert np.array_equal(s, [0.0, 0.0])


def test_dual_involution(gad):
    kmap, pi = gad
    d1 = q.build_dual(kmap, pi)
    d2 = q.build_dual(d1.map, d1.pi_dual)
    for a, b in zip(d2.map.operators, kmap.operators):
        assert frob(a - b) <= 1e-10


def test_dual_delta_phi_flips_sign(gad):
    kmap, pi = gad
    structure = q.build_potential_structure(kmap, pi)
    dual = q.build_dual(kmap, pi)
    dual_structure = q.build_potential_structure(dual.map, dual.pi_dual)
    assert np.allclose(dual_structure.delta_phi, -structure.delta_phi, atol=1e-12)


def test_two_step_outcome_reversal(gad):
    # Tr[E_k2 E_k1(pi)] = Tr[E~_k1 E~_k2(pi~)] for all index pairs
    kmap, pi = gad
    dual = q.build_dual(kmap, pi)
    m_ops, d_ops = kmap.operators, dual.map.operators
    for k1, k2 in itertools.product(range(len(kmap)), repeat=2):
        fwd = np.trace(
            m_ops[k2] @ m_ops[k1] @ pi @ m_ops[k1].conj().T @ m_ops[k2].conj().T
        ).real
        rev = np.trace(
            d_ops[k1] @ d_ops[k2] @ dual.pi_dual @ d_ops[k2].conj().T @ d_ops[k1].conj().T
        ).real
        assert fwd == pytest.approx(rev, abs=1e-12)


def test_build_dual_rejects_non_fixed_point(gad):
    kmap, _ = gad
    with pytest.raises(q.SingularStateError):
        q.build_dual(kmap, np.diag([0.5, 0.5]).astype(complex))


def test_build_dual_rejects_a_dual_that_is_not_trace_preserving():
    # pi moved off the fixed point by 1e-4 still passes eps_fix = 1e-3, but its dual
    # operators then lose trace: the dual map fails the trace-preservation test of any map
    kmap = q.thermal_qubit_map(0.7, 0.4)
    pi = q.invariant_state(kmap) + 1e-4 * np.diag([1.0, -1.0])
    with pytest.raises(q.NotTracePreservingError,
                       match=r"map is not trace preserving: \|\|sum_k M_k† M_k - 1\|\|_F = "
                             r"1.346e-04 exceeds eps_tp=1e-10"):
        q.build_dual(kmap, pi, tol=q.Tolerances(eps_fix=1e-3))


def test_structure_rejects_singular_pi():
    kmap = q.kraus_map([P0, P1])
    with pytest.raises(q.SingularStateError):
        q.build_potential_structure(kmap, P0)


def test_symmetry_op_antiunitary_action():
    sym = q.theta(2)
    m = np.array([[1j, 0], [0, 2]], dtype=complex)
    assert np.allclose(sym.on_matrix(m), m.conj())
    # on vectors: the dual process measures in the conjugated forward bases
    psi = np.array([1j, 1]) / np.sqrt(2)
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.outer(psi.conj(), psi)
    spec = q.process_spec([unital_step(q.unitary_map(np.eye(2)))],
                          initial_state=rho, symmetry=sym)
    forward = q.compile_process(spec)
    dual = q.build_dual_process(spec).boundary
    assert np.abs(forward.initial_basis.imag).max() > 0.5  # conjugation is visible
    assert np.allclose(dual.final_basis, forward.initial_basis.conj())
    assert np.allclose(dual.initial_basis, forward.final_basis.conj())


def test_symmetry_op_requires_unitary():
    with pytest.raises(q.NotUnitaryError):
        q.SymmetryOp(matrix=np.array([[2, 0], [0, 1]], dtype=complex))


def test_unitary_symmetry_dual():
    # a linear (non-conjugating) symmetry also yields a valid dual
    kmap = q.thermal_qubit_map(LN2, 0.5)
    pi = q.invariant_state(kmap)
    sym = q.SymmetryOp(matrix=np.diag([1.0, 1j]).astype(complex), antiunitary=False)
    dual = q.build_dual(kmap, pi, sym)
    assert q.validate_cptp(dual.map).passed
    structure = q.build_potential_structure(kmap, pi)
    assert q.check_detailed_balance(kmap, dual, structure).passed


def _group_classes(potentials, eps_group):
    """Reference: group eigenindices whose potentials agree within eps_group, one by one."""
    order = np.argsort(potentials)
    classes = [0] * len(potentials)
    reps = []
    for idx in order:
        phi = potentials[idx]
        if reps and abs(phi - reps[-1][0]) <= eps_group:
            reps[-1].append(phi)
        else:
            reps.append([phi])
        classes[idx] = len(reps) - 1
    return tuple(classes), np.array([np.mean(r) for r in reps])


def scalar_classification(kmap, pi, tol=q.DEFAULT_TOLERANCES):
    """Reference: the entry-by-entry loop that build_potential_structure's arrays replaced.

    Returns ((classes, class_potentials, delta_phi), None), or (None, (operator
    index, gap list)) where it would raise MixedPotentialOperator.
    """
    eig = hermitian_eig(pi, tol)
    classes, class_pot = _group_classes(-np.log(eig.eigenvalues), tol.eps_group)
    v = eig.eigenvectors
    delta_phi = np.zeros(len(kmap))
    for k, m in enumerate(kmap.operators):
        coeff = v.conj().T @ m @ v
        thresh = tol.eps_zero * max(frob(m), 1e-300)
        gaps = []
        for j in range(kmap.dim):
            for i in range(kmap.dim):
                if abs(coeff[j, i]) > thresh:
                    gaps.append(class_pot[classes[j]] - class_pot[classes[i]])
        if not gaps:
            continue
        if max(gaps) - min(gaps) > tol.eps_group:
            return None, (k, sorted(set(round(g, 12) for g in gaps)))
        delta_phi[k] = float(np.mean(gaps))
    return (classes, class_pot, delta_phi), None


def assert_classification_matches_scalar_loop(kmap, pi, ulps):
    """The structure of build_potential_structure against the reference loop's, each float
    field within ulps (assert_close), or the same MixedPotentialOperator."""
    expected, mixed = scalar_classification(kmap, pi)
    try:
        structure = q.build_potential_structure(kmap, pi)
    except q.MixedPotentialOperator as exc:
        assert mixed == (exc.operator_index, exc.gaps)
        return False
    assert mixed is None
    classes, class_pot, delta_phi = expected
    assert structure.classes == classes
    assert all(type(c) is int for c in structure.classes)  # reports write them as ints
    assert_close(structure.class_potentials, class_pot, ulps, "class_potentials")
    assert_close(structure.delta_phi, delta_phi, ulps, "delta_phi")
    assert_gap_index(structure)
    return True


def test_classification_matches_scalar_loop_on_library_maps(library):
    for spec in library.values():
        for step in spec.steps:
            assert assert_classification_matches_scalar_loop(step.map, step.structure.pi, ulps=0)


def test_segment_means_match_np_mean():
    # runs below and above np.mean's 8-value pairwise block, and empty runs; the
    # bound is relative to each run's largest magnitude, which the sums round against
    rng = np.random.default_rng(5)
    counts = np.array([0, 1, 2, 3, 7, 8, 9, 16, 0, 33, 256])
    values = rng.standard_normal(counts.sum()) * 10.0 ** rng.integers(-3, 3, counts.sum())
    starts = np.cumsum(counts) - counts
    want = [np.mean(values[a:a + c]) if c else 0.0 for a, c in zip(starts, counts)]
    scale = [np.abs(values[a:a + c]).max(initial=0.0) for a, c in zip(starts, counts)]
    segment = np.repeat(np.arange(len(counts)), counts)
    assert_close(_segment_means(values, segment, len(counts)), np.array(want), 4, scale=scale)


@given(st.lists(st.lists(st.floats(-3, 3), min_size=1, max_size=40), min_size=1, max_size=4),
       st.sampled_from([0.0, 1e-9, 0.1]))
def test_group_matches_the_one_by_one_reference(segments, eps_group):
    # one call groups every segment; each segment's groups are its own one-by-one grouping
    owner = np.repeat(np.arange(len(segments)), [len(v) for v in segments])
    index, means, bases = _group(np.concatenate(segments), owner, eps_group)
    starts = np.cumsum([0] + [len(v) for v in segments])
    for r, values in enumerate(segments):
        classes, class_pot = _group_classes(np.array(values), eps_group)
        assert tuple(index[starts[r]:starts[r + 1]].tolist()) == classes
        assert_close(means[bases[r]:bases[r + 1]], class_pot, 4, r, scale=np.abs(values).max())
    assert bases[-1] == len(means)


def assert_gap_index(structure, eps_group=q.DEFAULT_TOLERANCES.eps_group):
    """gaps ascend by more than eps_group, and each operator's gap is its own within eps_group."""
    gaps, index = structure.gaps, structure.gap_index
    assert index.dtype == np.int64 and index.shape == structure.delta_phi.shape
    assert np.all(np.diff(gaps) > eps_group)
    assert np.all(np.abs(structure.delta_phi - gaps[index]) <= eps_group)
    assert sorted(set(index.tolist())) == list(range(len(gaps)))


@given(ladder_maps((2, 16)))
@settings(max_examples=15, deadline=None)
def test_gap_index_groups_operators_by_the_generators_potential_change(example):
    exact = example.delta_phi
    apart = np.abs(exact[:, None] - exact[None, :])
    # a near-degenerate generator, with two changes between 1e-12 and 1e-6
    # apart, has no unambiguous grouping
    assume(not np.any((apart > 1e-12) & (apart < 1e-6)))
    structure = q.build_potential_structure(example.kmap, example.pi)
    assert_gap_index(structure)
    index = structure.gap_index
    assert np.array_equal(index[:, None] == index[None, :], apart <= 1e-12)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_stacked_classification_matches_scalar_loop_on_mixed_library_maps(library, data):
    # a unitary mixing W of the Kraus operators is another representation of
    # the same channel; a phased permutation keeps the ladder form, a Haar W
    # in general does not
    steps = {id(s.map): s for spec in library.values() for s in spec.steps}
    step = data.draw(st.sampled_from(sorted(steps.values(), key=lambda s: s.map.labels)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    count = len(step.map)
    if data.draw(st.booleans()):
        w = haar_unitary(rng, count)
    else:
        phases = np.exp(2j * np.pi * rng.random(count))
        w = phases[:, None] * np.eye(count)[rng.permutation(count)]
    mixed = q.kraus_map(np.tensordot(w, step.map.operators, axes=1))
    assert_classification_matches_scalar_loop(mixed, step.structure.pi, ulps=0)


@given(ladder_maps((2, 16)))
@settings(max_examples=15, deadline=None)
def test_stacked_layers_match_per_operator_loops_on_ladder_maps(example):
    kmap, pi = example.kmap, example.pi
    assert assert_classification_matches_scalar_loop(kmap, pi, ulps=8)
    structure = q.build_potential_structure(kmap, pi)
    comm = q.check_ladder_commutators(kmap, structure)
    dual = q.build_dual(kmap, pi)
    balance = q.check_detailed_balance(kmap, dual, structure)
    v = structure.eigen.eigenvectors
    log_pi = (v * np.log(structure.eigen.eigenvalues)) @ v.conj().T
    sq = (v * structure.eigen.eigenvalues**0.5) @ v.conj().T
    sqinv = (v * structure.eigen.eigenvalues**-0.5) @ v.conj().T
    # the stacked forms make the same products as these loops; the residuals are norms
    # of the same matrices, so they agree relative to each residual
    for k, m in enumerate(kmap.operators):
        norm = max(frob(m), 1e-300)
        ladder = frob(m @ log_pi - log_pi @ m - structure.delta_phi[k] * m) / norm
        w = m.conj().T @ m
        weight = frob(w @ pi - pi @ w) / max(frob(w), 1e-300)
        dual_m = (sq @ m.conj().T @ sqinv).conj()  # the default symmetry conjugates
        assert np.array_equal(dual.map.operators[k], dual_m)
        balance_residual = frob(dual.map.operators[k] - np.exp(structure.delta_phi[k] / 2) * m.T)
        got = [comm.ladder_residuals[k], comm.weight_residuals[k], balance.residuals[k],
               balance.relative_residuals[k]]
        want = np.array([ladder, weight, balance_residual, balance_residual / norm])
        assert_close(np.array(got), want, 8, k, scale=want)


def reference_dual_operators(kmap, pi, symmetry):
    """Dual operators with pi^(+-1/2) from two matrix_power_of_positive calls."""
    sq = q.matrix_power_of_positive(pi, 0.5)
    sqinv = q.matrix_power_of_positive(pi, -0.5)
    return symmetry.on_matrix(sq @ q.adjoint(kmap.operators) @ sqinv)


def test_dual_matches_matrix_power_reference_on_model_library(library):
    for spec in library.values():
        for step in spec.steps:
            pi = step.structure.pi
            dual = q.build_dual(step.map, pi, spec.symmetry)
            expected = reference_dual_operators(step.map, pi, spec.symmetry)
            assert np.array_equal(dual.map.operators, expected)


@given(ladder_maps((2, 16)))
@settings(max_examples=15, deadline=None)
def test_dual_matches_matrix_power_reference_on_ladder_maps(example):
    dual = q.build_dual(example.kmap, example.pi)
    expected = reference_dual_operators(example.kmap, example.pi, q.theta(example.kmap.dim))
    assert np.array_equal(dual.map.operators, expected)


def shifted_pi(kmap, pi, residual):
    """pi + t diag(1, -1): a unit-trace state in pi's eigenbasis whose fixed-point
    residual ||E(pi) - pi||_F is `residual`, up to pi's own residual of about 1e-16."""
    x = np.diag([1.0, -1.0]).astype(complex)
    return pi + residual / frob(q.apply_map(kmap, x) - x) * x


# eps_fix below the default: a state off the fixed point by the default 1e-10
# makes a dual whose trace-preservation defect, 2.3e-10, fails eps_tp first
EDGE_TOLERANCES = q.Tolerances(eps_fix=1e-12)


@pytest.mark.parametrize("build", [q.build_potential_structure, q.build_dual],
                         ids=["classify", "dual"])
def test_pi_residual_edge_at_eps_fix(gad, build):
    kmap, pi = gad
    eps_fix = EDGE_TOLERANCES.eps_fix
    build(kmap, shifted_pi(kmap, pi, 0.99 * eps_fix), tol=EDGE_TOLERANCES)
    with pytest.raises(q.SingularStateError, match="not a fixed point.*exceeds eps_fix"):
        build(kmap, shifted_pi(kmap, pi, 1.01 * eps_fix), tol=EDGE_TOLERANCES)


@pytest.mark.parametrize("build", [q.build_potential_structure, q.build_dual],
                         ids=["classify", "dual"])
def test_pi_eigenvalue_edge_at_eps_pos(gad, build):
    kmap, pi = gad
    low = hermitian_eig(pi).eigenvalues[0]
    build(kmap, pi, tol=q.Tolerances(eps_pos=float(np.nextafter(low, 0))))
    with pytest.raises(q.SingularStateError, match="not above eps_pos"):
        build(kmap, pi, tol=q.Tolerances(eps_pos=float(low)))


def test_one_eigendecomposition_checks_pi_and_builds_the_dual(gad, monkeypatch):
    kmap, pi = gad
    calls = []
    for module in (q.linalg, q.maps):  # matrix_power_of_positive calls the one in linalg
        monkeypatch.setattr(module, "hermitian_eig",
                            lambda *a, **k: calls.append(1) or hermitian_eig(*a, **k))
    q.build_dual(kmap, pi)
    assert len(calls) == 2  # pi's, which also builds the dual; then the dual state's check
