import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.linalg import (adjoint, as_complex_matrix, frob, hermiticity_defect,
                           matrix_power_of_positive)
from conftest import assert_close
from test_process import _ladder_chain
from test_cli import NOT_FINITE_IDS, NOT_FINITE_REALS

LN2 = np.log(2.0)
X = np.array([[0, 1], [1, 0]], dtype=complex)
SZ_BASIS = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]


def test_unitary_map_rejects_non_unitary():
    with pytest.raises(q.NotUnitaryError):
        q.unitary_map(0.5 * X)


def test_projective_measurement_rejects_skew_basis():
    with pytest.raises(q.NotUnitaryError, match="unitarity defect"):
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


@pytest.mark.parametrize("beta_omega, ground", [(800, 1.0), (-800, 0.0)])
def test_thermal_qubit_at_extreme_beta_omega_has_a_singular_fixed_point(beta_omega, ground):
    # e^{800} overflowed to NaN operators; RuntimeWarnings fail the test
    kmap = q.thermal_qubit_map(beta_omega, 0.5)
    assert np.isfinite(kmap.operators).all()
    pi = np.diag([ground, 1 - ground]).astype(complex)
    assert frob(q.apply_map(kmap, pi) - pi) == 0
    with pytest.raises(q.SingularStateError):
        q.make_step(kmap)


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


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_lindblad_step_refuses_a_dt_that_is_not_positive_and_finite(dt):
    # an infinite dt once warned three times and failed on "NaN or Inf entries"
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        message = re.escape(f"'dt' must be positive and finite, got {dt!r}")
        with pytest.raises(ValueError, match=message):
            q.lindblad_step(np.diag([0.0, 1.0]), [down], dt)
    assert caught == []


def test_projective_measurement_needs_as_many_vectors_as_the_dimension():
    with pytest.raises(ValueError, match="need 2 basis vectors, got 1"):
        q.projective_measurement([np.array([1.0, 0.0])])


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


def unshifted_gibbs(h, beta):
    """Reference: gibbs_state's and free_energy's expressions before the exponent shift."""
    eig = q.hermitian_eig(h)
    w = np.exp(-beta * eig.eigenvalues)
    w /= np.sum(w)
    v = eig.eigenvectors
    f = float(-np.log(np.sum(np.exp(-beta * eig.eigenvalues))) / beta) if beta else None
    return w, (v * w) @ adjoint(v), f


def test_gibbs_populations_match_unshifted_expressions_when_lowest_beta_e_is_zero():
    rng = np.random.default_rng(8)
    for d in range(2, 17):
        levels = np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 2.0, size=d - 1)]))
        # the lowest beta E is 0: at E = 0 for beta > 0, at the top level for beta < 0
        for beta, energies in ((rng.uniform(0.1, 3.0), levels), (-rng.uniform(0.1, 3.0), -levels),
                               (0.0, levels)):
            h = np.diag(energies).astype(complex)
            pops, log_z = q.gibbs_populations(q.hermitian_eig(h).eigenvalues, beta)
            want_pops, want_state, want_f = unshifted_gibbs(h, beta)
            assert pops.tobytes() == want_pops.tobytes(), (d, beta)
            assert q.gibbs_state(h, beta).tobytes() == want_state.tobytes(), (d, beta)
            if beta:
                assert q.free_energy(h, beta) == want_f, (d, beta)
            else:
                assert log_z == math.log(d)


@pytest.mark.parametrize("beta, populations, f", [(1e6, [1.0, 0.0], -1.0),
                                                  (-1e3, [0.0, 1.0], 1.0)])
def test_gibbs_weights_stay_finite_at_large_beta(beta, populations, f):
    # the unshifted e^{-beta E} overflowed here; RuntimeWarnings fail the test
    h = np.diag([-1.0, 1.0]).astype(complex)
    pops, log_z = q.gibbs_populations(np.array([-1.0, 1.0]), beta)
    assert pops.tolist() == populations and log_z == abs(beta)
    assert q.free_energy(h, beta) == f
    assert np.array_equal(q.gibbs_state(h, beta), np.diag(populations))


# each real parameter of the models that went unchecked, by the name its message gives it: a
# NaN beta gave NaN populations, 10**400 an OverflowError, a NaN rate NaN operators
MODEL_REAL_PARAMETERS = {
    "gibbs_state-beta": ("'beta'", lambda v: q.gibbs_state(np.diag([0.0, 1.0]), v)),
    "free_energy-beta": ("'beta'", lambda v: q.free_energy(np.diag([0.0, 1.0]), v)),
    "lindblad_pair-omega": ("'omega'", lambda v: q.thermal_lindblad_pair(v, 1.0, 0.5)),
    "lindblad_pair-beta": ("'beta'", lambda v: q.thermal_lindblad_pair(1.0, v, 0.5)),
    "lindblad_pair-rate": ("'rate'", lambda v: q.thermal_lindblad_pair(1.0, 1.0, v)),
}


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=NOT_FINITE_IDS)
@pytest.mark.parametrize("case", list(MODEL_REAL_PARAMETERS))
def test_model_real_parameters_refuse_what_is_not_a_finite_real(case, value):
    name, build = MODEL_REAL_PARAMETERS[case]
    with pytest.raises(ValueError, match=re.escape(name)):
        build(value)


def test_thermal_lindblad_pair_refuses_a_negative_rate():
    # its square root warned and made NaN operators
    with pytest.raises(ValueError, match=re.escape("'rate' must be a number in [0, inf), got -1")):
        q.thermal_lindblad_pair(1, 1, -1)
    down, up = q.thermal_lindblad_pair(1, 1, 0)
    assert not down.any() and not up.any()


@pytest.mark.parametrize("beta", [0, 0.0, -0.0, np.float64(0)], ids=repr)
def test_free_energy_refuses_beta_zero(beta):
    # -ln Z / beta raised ZeroDivisionError
    with pytest.raises(ValueError, match=re.escape("'beta' must be nonzero")):
        q.free_energy(np.diag([0.0, 1.0]), beta)


@pytest.mark.parametrize("omega, beta, rate", [
    (1.0, -1000.0, 0.5), (1e200, -1e200, 0.5), (np.float64(1e200), np.float64(-1e200), 0.5),
    (1.0, -700.0, 1e300)])
def test_thermal_lindblad_pair_refuses_an_overflowing_excitation_rate(omega, beta, rate):
    # e^{-beta omega} warned "overflow encountered in exp", then gave inf and NaN operators;
    # a RuntimeWarning fails the test
    with pytest.raises(ValueError, match=re.escape("rate * e^(-beta omega), overflows")):
        q.thermal_lindblad_pair(omega, beta, rate)
    down, up = q.thermal_lindblad_pair(1.0, -700.0, 0.5)  # e^700 is finite
    assert up[1, 0] == np.sqrt(0.5 * np.exp(700.0)) and down[0, 1] == np.sqrt(0.5)


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


def test_bohr_ladder_groups_frequencies_under_eps_group():
    # the two spacings, 0.12345678901250001 and 0.12345678901249996, once rounded to 12
    # digits on either side of ...9012|5 and read as two frequencies
    w = 0.1234567890125
    h = np.diag([0.3, 0.3 + w, 0.3 + 2 * w]).astype(complex)
    l = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
    report = q.check_bohr_ladder(h, l)
    assert report.passed and len(report.frequencies) == 1
    assert abs(report.omega - w) <= 1e-15 and report.residual <= 1e-14


def bohr_frequencies_by_entry(h, l, tol=q.DEFAULT_TOLERANCES):
    """Reference: the entry-by-entry loop that check_bohr_ladder's array form replaced, with
    the frequencies grouped under eps_group as classification groups gaps: in ascending
    order, each joins the last group while within eps_group of its first, and each group
    gives its mean, summed in that order."""
    eig = q.hermitian_eig(h, tol)
    coeff = adjoint(eig.eigenvectors) @ l @ eig.eigenvectors
    nl = max(frob(l), 1e-300)
    freqs = []
    for j in range(h.shape[0]):
        for i in range(h.shape[0]):
            if abs(coeff[j, i]) > tol.eps_zero * nl:
                freqs.append(float(eig.eigenvalues[i] - eig.eigenvalues[j]))
    groups = []
    for w in sorted(freqs):
        if groups and abs(w - groups[-1][0]) <= tol.eps_group:
            groups[-1].append(w)
        else:
            groups.append([w])
    means = []
    for group in groups:
        total = 0.0
        for w in group:
            total += w
        means.append(total / len(group))
    return tuple(means)


def bohr_residuals_inline(h, l, omega, f, pi, tol=q.DEFAULT_TOLERANCES):
    """Reference: (residual, potential_residual) from check_bohr_ladder's former inline
    expressions, before commutator_residuals."""
    nl = max(frob(l), 1e-300)
    comm = l @ h - h @ l
    pig = q.hermitian_eig(pi, tol)
    w = pig.eigenvectors
    log_pi = (w * np.log(pig.eigenvalues)) @ adjoint(w)
    delta_phi = -float(f(omega))
    return frob(comm - omega * l) / nl, frob(l @ log_pi - log_pi @ l - delta_phi * l) / nl


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=6))
@settings(max_examples=30, deadline=None)
def test_bohr_frequencies_match_entry_loop(seed, dim):
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))[0]
    h = u @ np.diag(np.round(rng.uniform(0, 3, dim), 1)) @ adjoint(u)
    jump = np.zeros((dim, dim), complex)
    jump[0, 1] = 1.0
    beta = rng.uniform(0.1, 2.0)
    pi, f = q.gibbs_state(h, beta), lambda w: beta * w
    for l in (u @ jump @ adjoint(u), rng.standard_normal((dim, dim)) + 0j):
        assert q.check_bohr_ladder(h, l).frequencies == bohr_frequencies_by_entry(h, l)
        report = q.check_bohr_ladder(h, l, f=f, pi=pi)
        if report.omega is None:
            assert report.residual == float("inf") and report.potential_residual is None
        else:  # relative to each residual, as both take the norm of the same matrix
            residuals = np.array([report.residual, report.potential_residual])
            want = np.array(bohr_residuals_inline(h, l, report.omega, f, pi))
            assert_close(residuals, want, ulps=4, scale=want)


def kraus_map_per_operator(operators, labels=None):
    """Reference: kraus_map as it was, one as_complex_matrix call per operator."""
    ops = [as_complex_matrix(m) for m in operators]
    if not ops:
        raise ValueError("a Kraus map needs at least one operator")
    dim = ops[0].shape[0]
    for m in ops:
        if m.shape != (dim, dim):
            raise q.DimensionMismatchError(
                f"operator shape {m.shape} does not match dimension {dim}"
            )
    if labels is None:
        labels = tuple(f"K{k}" for k in range(len(ops)))
    else:
        labels = tuple(str(s) for s in labels)
        if len(labels) != len(ops):
            raise ValueError("labels length does not match operator count")
    stacked = np.stack(ops)
    stacked.setflags(write=False)
    return q.KrausMap(operators=stacked, labels=labels)


def lindblad_step_per_matrix(h, lindblads, dt, tol=q.DEFAULT_TOLERANCES):
    """Reference: lindblad_step as it was, with one product and one sum term per matrix
    (and its _renormalize_trace_preserving inlined)."""
    h = as_complex_matrix(h)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if hermiticity_defect(h) > tol.eps_herm:
        raise q.NonHermitianError("Hamiltonian is not Hermitian within eps_herm")
    ls = [as_complex_matrix(l) for l in lindblads]
    dim = h.shape[0]
    for l in ls:
        if l.shape != (dim, dim):
            raise q.DimensionMismatchError("Lindblad operator shape mismatch")
    decay = sum((adjoint(l) @ l for l in ls), np.zeros((dim, dim), complex))
    m0 = np.eye(dim) - (1j * h + decay / 2) * dt
    ops = [m0] + [l * np.sqrt(dt) for l in ls]
    total = sum(adjoint(m) @ m for m in ops)
    correction = matrix_power_of_positive(total, -0.5, tol)
    ops = [m @ correction for m in ops]
    labels = ["M0"] + [f"L{k}" for k in range(len(ls))]
    return kraus_map_per_operator(ops, labels=labels)


def ladder_chain_inputs(monkeypatch, d):
    """The (H, jumps, dt) of each lindblad_step that test_process._ladder_chain builds."""
    seen, build = [], q.lindblad_step
    monkeypatch.setattr(q, "lindblad_step", lambda *args: seen.append(args) or build(*args))
    _ladder_chain(d, 2, 0)
    monkeypatch.undo()
    return seen


def haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    qr, r = np.linalg.qr(z)
    return qr * (np.diagonal(r) / np.abs(np.diagonal(r)))


def assert_same_map(kmap, reference):
    assert kmap.labels == reference.labels
    assert kmap.operators.shape == reference.operators.shape
    assert kmap.operators.tobytes() == reference.operators.tobytes()  # signed zeros too


@pytest.mark.parametrize("d", range(2, 17))
def test_stacked_builders_are_the_per_matrix_code_bit_for_bit(monkeypatch, d):
    rng = np.random.default_rng([14, d])
    for h, jumps, dt in ladder_chain_inputs(monkeypatch, d):
        u = haar_unitary(rng, d)
        rotated = [u @ l @ adjoint(u) for l in jumps]
        for hh, ls in ((h, jumps), (u @ h @ adjoint(u), rotated)):
            reference = lindblad_step_per_matrix(hh, ls, dt)
            assert_same_map(q.lindblad_step(hh, ls, dt), reference)
            assert_same_map(q.lindblad_step(hh, np.array(ls), dt), reference)
            assert_same_map(q.lindblad_step(hh, [], dt), lindblad_step_per_matrix(hh, [], dt))
            for ops in (reference.operators, ls):
                assert_same_map(q.kraus_map(ops), kraus_map_per_operator(ops))
                assert_same_map(q.kraus_map(list(ops)), kraus_map_per_operator(ops))


def test_kraus_map_keeps_signed_zeros_and_copies_its_input():
    ops = np.array([[[-0.0, 1.0], [0.0, -0.0j]], [[0.0, -0.0], [-0.0, 0.0]]], dtype=complex)
    ops.imag[0] = -0.0
    kmap = q.kraus_map(ops)
    assert_same_map(kmap, kraus_map_per_operator(ops))
    assert not kmap.operators.flags.writeable and ops.flags.writeable
    ops[0, 0, 0] = 5.0  # the caller's array stays theirs
    assert kmap.operators[0, 0, 0] == 0.0


def test_builders_check_each_stack_once(monkeypatch):
    import qmapft.maps
    import qmapft.models

    h, jumps, dt = ladder_chain_inputs(monkeypatch, 16)[0]
    calls = []
    for module in (qmapft.maps, qmapft.models):
        for name in ("as_complex_matrix", "as_complex_stack"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, *rest, _f=real, _n=name: (
                calls.append((_n, np.shape(a))) or _f(a, *rest)))
    q.lindblad_step(h, jumps, dt)
    # H once, the jumps once, the renormalized operators once in kraus_map
    assert calls == [("as_complex_matrix", (16, 16)), ("as_complex_stack", (30, 16, 16)),
                     ("as_complex_stack", (31, 16, 16))]


def test_lindblad_step_refuses_a_hamiltonian_that_is_not_square():
    for h in (np.zeros((2, 3)), np.zeros((3, 2))):
        with pytest.raises(q.DimensionMismatchError,
                           match=re.escape(f"Hamiltonian is not square: {h.shape}")):
            q.lindblad_step(h, [], 0.1)


def test_lindblad_step_refuses_jumps_of_another_size():
    down = np.array([[0, 1], [0, 0]], dtype=complex)
    for ls in ([np.eye(3)], [down, np.eye(3)], np.zeros((1, 3, 3))):
        with pytest.raises(q.DimensionMismatchError):
            q.lindblad_step(np.diag([0.0, 1.0]), ls, 0.1)
