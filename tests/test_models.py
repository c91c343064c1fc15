import itertools

import numpy as np
import pytest

import qmapft as q
from qmapft.linalg import adjoint, frob

LN2 = np.log(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)
SZ_BASIS = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]


def test_unitary_map_rejects_non_unitary():
    with pytest.raises(q.NotUnitaryError):
        q.unitary_map(0.5 * X)


def test_projective_measurement_rejects_skew_basis():
    with pytest.raises(ValueError):
        q.projective_measurement([np.array([1, 0]), np.array([1, 1]) / np.sqrt(2)])


def test_projective_measurement_decoheres():
    kmap = q.projective_measurement(SZ_BASIS)
    rho = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)
    assert np.allclose(q.apply_map(kmap, rho), np.diag([0.5, 0.5]))


def test_dephasing_half_strength():
    kmap = q.dephasing_map(SZ_BASIS, 0.5)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    out = q.apply_map(kmap, rho)
    assert np.allclose(out, np.array([[0.5, 0.25], [0.25, 0.5]]))


def test_dephasing_endpoints():
    rho = np.array([[0.5, 0.3], [0.3, 0.5]], dtype=complex)
    assert np.allclose(q.apply_map(q.dephasing_map(SZ_BASIS, 0.0), rho), rho)
    proj = q.projective_measurement(SZ_BASIS)
    assert np.allclose(
        q.apply_map(q.dephasing_map(SZ_BASIS, 1.0), rho), q.apply_map(proj, rho)
    )


def test_dephasing_strength_out_of_range():
    with pytest.raises(ValueError):
        q.dephasing_map(SZ_BASIS, 1.5)


def test_thermal_qubit_full_thermalization():
    kmap = q.thermal_qubit_map(LN2, 1.0)
    rho = np.array([[0.1, 0.2], [0.2, 0.9]], dtype=complex)
    assert np.allclose(q.apply_map(kmap, rho), np.diag([2 / 3, 1 / 3]), atol=1e-12)


def test_thermal_qubit_gamma_range():
    with pytest.raises(ValueError):
        q.thermal_qubit_map(LN2, 0.0)
    with pytest.raises(ValueError):
        q.thermal_qubit_map(LN2, 1.2)


def test_thermal_qubit_gibbs_fixed_point():
    for bw in (-1.0, 0.0, 0.5, 2.0):
        kmap = q.thermal_qubit_map(bw, 0.3)
        p = np.exp(bw) / (1 + np.exp(bw))
        pi = np.diag([p, 1 - p]).astype(complex)
        assert frob(q.apply_map(kmap, pi) - pi) <= 1e-14


@pytest.mark.parametrize(
    "beta_omega,gamma",
    list(itertools.product([0.2, 0.7, LN2, 1.5, 2.3], [0.1, 0.3, 0.5, 0.8, 1.0])),
)
def test_thermal_qubit_dual_is_jump_swap(beta_omega, gamma):
    kmap = q.thermal_qubit_map(beta_omega, gamma)
    pi = q.invariant_state(kmap)
    dual = q.build_dual(kmap, pi)
    perm = [0, 3, 2, 1]
    for k, p in enumerate(perm):
        assert frob(dual.map.operators[k] - kmap.operators[p]) <= 1e-10


def test_lindblad_step_no_jump_operator():
    h = np.diag([0.0, 1.0]).astype(complex)
    dt = 0.01
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    kmap = q.lindblad_step(h, [down], dt)
    # pre-normalization M0 = 1 - (iH + L†L/2)dt; exact TP changes it by O(dt^2)
    expected = np.eye(2) - (1j * h + np.diag([0.0, 0.5])) * dt
    assert frob(kmap.operators[0] - expected) <= 5 * dt**2
    assert q.validate_cptp(kmap).passed
    assert q.maps.tp_defect(kmap) <= 1e-14


def test_lindblad_step_amplitude_damping_drift():
    h = np.zeros((2, 2), complex)
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    kmap = q.lindblad_step(h, [down], 0.01)
    rho = np.diag([0.5, 0.5]).astype(complex)
    for _ in range(2000):
        rho = q.apply_map(kmap, rho)
    assert np.allclose(rho, np.diag([1.0, 0.0]), atol=1e-6)


def test_lindblad_step_rejects_bad_inputs():
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        q.lindblad_step(np.zeros((2, 2), complex), [down], -0.1)
    with pytest.raises(q.NonHermitianError):
        q.lindblad_step(down, [down], 0.01)


def test_lindblad_step_coarse_dt_warns():
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.warns(UserWarning):
        q.lindblad_step(np.zeros((2, 2), complex), [down], 0.5)


def test_thermal_pair_fixed_point_near_gibbs():
    omega, beta, rate, dt = 1.0, LN2, 0.5, 0.01
    h = np.diag([0.0, omega]).astype(complex)
    kmap = q.lindblad_step(h, q.thermal_lindblad_pair(omega, beta, rate), dt)
    pi = q.invariant_state(kmap)
    assert frob(pi - q.gibbs_state(h, beta)) <= 5 * dt


def test_lindblad_gibbs_convergence_order():
    omega, beta, rate = 1.0, LN2, 0.5
    h = np.diag([0.0, omega]).astype(complex)
    gibbs = q.gibbs_state(h, beta)
    dts = [0.02, 0.01, 0.005, 0.0025, 0.00125]
    errs = []
    for dt in dts:
        kmap = q.lindblad_step(h, q.thermal_lindblad_pair(omega, beta, rate), dt)
        errs.append(frob(q.invariant_state(kmap) - gibbs))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_multi_reservoir_matches_single_reservoir():
    omega, beta, rate, dt = 1.0, LN2, 0.4, 0.01
    h = np.diag([0.0, omega]).astype(complex)
    ls = q.thermal_lindblad_pair(omega, beta, rate)
    combined = q.lindblad_step(h, ls, dt)
    unitary, reservoir = q.multi_reservoir_step(h, [(ls, q.gibbs_state(h, beta))], dt)
    rho = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    split = q.apply_map(reservoir, q.apply_map(unitary, rho))
    assert frob(split - q.apply_map(combined, rho)) <= 5 * dt**2


def test_multi_reservoir_branch_probabilities_agree():
    # H commutes with the populations, so branch probabilities of the split
    # jump operators agree with the combined map's to O(dt^2)
    omega, rate, dt = 1.0, 0.4, 0.01
    h = np.diag([0.0, omega]).astype(complex)
    res = [
        (q.thermal_lindblad_pair(omega, np.log(2), rate), q.gibbs_state(h, np.log(2))),
        (q.thermal_lindblad_pair(omega, np.log(3), rate), q.gibbs_state(h, np.log(3))),
    ]
    maps = q.multi_reservoir_step(h, res, dt)
    rho = np.diag([0.7, 0.3]).astype(complex)
    all_ls = res[0][0] + res[1][0]
    combined = q.lindblad_step(h, all_ls, dt)
    def jump_probs(kmap, state):
        return [np.trace(m @ state @ m.conj().T).real for m in kmap.operators[1:]]

    split_jump_probs = []
    state = q.apply_map(maps[0], rho)
    for kmap in maps[1:]:
        split_jump_probs += jump_probs(kmap, state)
        state = q.apply_map(kmap, state)
    combined_jump_probs = jump_probs(combined, rho)
    assert np.allclose(split_jump_probs, combined_jump_probs, atol=5 * dt**2)


def test_multi_reservoir_rejects_non_fixed_point():
    omega, dt = 1.0, 0.01
    h = np.diag([0.0, omega]).astype(complex)
    ls = q.thermal_lindblad_pair(omega, LN2, 0.4)
    wrong_pi = np.eye(2) / 2
    with pytest.raises(ValueError):
        q.multi_reservoir_step(h, [(ls, wrong_pi)], dt)


def test_multi_reservoir_steps_classify():
    omega, rate, dt = 1.0, 0.4, 0.01
    h = np.diag([0.0, omega]).astype(complex)
    res = [
        (q.thermal_lindblad_pair(omega, np.log(2), rate), q.gibbs_state(h, np.log(2))),
        (q.thermal_lindblad_pair(omega, np.log(3), rate), q.gibbs_state(h, np.log(3))),
    ]
    for i, kmap in enumerate(q.multi_reservoir_step(h, res, dt)):
        pi = np.eye(2) / 2 if i == 0 else q.invariant_state(kmap)
        structure = q.build_potential_structure(kmap, pi)
        assert q.check_ladder_commutators(kmap, structure).passed


def test_gibbs_state_and_free_energy():
    h = np.diag([0.0, 1.0]).astype(complex)
    beta = LN2
    pi = q.gibbs_state(h, beta)
    assert np.allclose(pi, np.diag([2 / 3, 1 / 3]), atol=1e-14)
    z = 1 + np.exp(-beta)
    assert q.free_energy(h, beta) == pytest.approx(-np.log(z) / beta, abs=1e-14)


def test_gibbs_state_basis_independent():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = np.linalg.qr(m)[0]
    h0 = np.diag([0.0, 1.0, 2.5]).astype(complex)
    h = u @ h0 @ adjoint(u)
    assert frob(q.gibbs_state(h, 0.7) - u @ q.gibbs_state(h0, 0.7) @ adjoint(u)) <= 1e-12


def test_bohr_ladder_exact_frequency():
    omega0 = 1.3
    h = np.diag([0.0, omega0]).astype(complex)
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    report = q.check_bohr_ladder(h, down)
    assert report.passed
    assert report.omega == pytest.approx(omega0, abs=1e-14)
    assert report.residual <= 1e-14


def test_bohr_ladder_rejects_mixed_frequencies():
    h = np.diag([0.0, 1.0]).astype(complex)
    report = q.check_bohr_ladder(h, X)  # X raises and lowers: two frequencies
    assert not report.passed
    assert report.omega is None
    assert len(report.frequencies) == 2


def test_bohr_ladder_potential_consistency():
    # with pi = Gibbs and f(w) = beta*w the decay operator's potential change
    # equals -beta*omega0, matching the map classification
    omega0, beta = 1.0, LN2
    h = np.diag([0.0, omega0]).astype(complex)
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    pi = q.gibbs_state(h, beta)
    report = q.check_bohr_ladder(h, down, f=lambda w: beta * w, pi=pi)
    assert report.passed
    assert report.f_value == pytest.approx(beta * omega0, abs=1e-12)
    assert report.delta_phi == pytest.approx(-beta * omega0, abs=1e-12)

    kmap = q.thermal_qubit_map(beta * omega0, 0.5)
    structure = q.build_potential_structure(kmap, q.invariant_state(kmap))
    assert report.delta_phi == pytest.approx(structure.delta_phi[1], abs=1e-12)
    assert report.potential_residual <= 1e-12
