import math

import numpy as np
import pytest

import qmapft as q
from qmapft.linalg import frob
from qmapft.process import BoundaryData, compile_process, sigma_boundary

LN2 = np.log(2.0)
OMEGA = 1.0
X = np.array([[0, 1], [1, 0]], dtype=complex)


def analytic_quench_mean(beta, e_i, e_f):
    """Two-level sudden quench with U = 1: <e^{-beta(W - dF)}> by direct sum.

    Independent oracle: p_n e^{-beta(E^f_n - E^i_n - dF)} summed over the two
    levels, everything in closed form.
    """
    z_i = sum(math.exp(-beta * e) for e in e_i)
    z_f = sum(math.exp(-beta * e) for e in e_f)
    df = (-math.log(z_f) + math.log(z_i)) / beta
    total = 0.0
    for n in range(2):
        p_n = math.exp(-beta * e_i[n]) / z_i
        total += p_n * math.exp(-beta * (e_f[n] - e_i[n] - df))
    return total


def gad_process(rho=None, steps=3):
    step = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    if rho is None:
        rho = np.diag([0.9, 0.1]).astype(complex)
    return q.process_spec([step] * steps, initial_state=rho)


def test_sigma_boundary_indices_follow_eigenvalue_order():
    # gamma = 1 thermalizes in one step: rho_f = diag(2/3, 1/3) regardless
    rho_i = np.diag([0.75, 0.25]).astype(complex)
    step = q.make_step(q.thermal_qubit_map(LN2, 1.0))
    spec = q.process_spec([step], initial_state=rho_i)
    comp = compile_process(spec)
    n = int(np.argmax(comp.initial_probs))   # outcome with p = 3/4
    m = int(np.argmin(comp.final_probs))     # outcome with p = 1/3
    assert sigma_boundary(comp, n, m) == pytest.approx(np.log(0.75 / (1 / 3)), abs=1e-12)
    assert sigma_boundary(comp, n, m) == pytest.approx(np.log(9 / 4), abs=1e-12)


def test_sigma_boundary_zero_probability():
    rho_i = np.diag([1.0, 0.0]).astype(complex)
    spec = q.process_spec(
        [q.make_step(q.unitary_map(np.eye(2)), unital=True)], initial_state=rho_i
    )
    comp = compile_process(spec)
    n = int(np.argmax(comp.initial_probs))
    m = int(np.argmin(comp.final_probs))
    with pytest.raises(q.ZeroProbabilityBranch):
        sigma_boundary(comp, n, m)


def test_enumeration_r0_pure_boundary():
    # no maps at all: sigma is ln p_n - ln p_m of the same state
    rho = np.diag([0.75, 0.25]).astype(complex)
    spec = q.process_spec([], initial_state=rho)
    ens = q.enumerate_trajectories(spec)
    assert len(ens.trajectories) == 2  # only n == m branches survive
    for t in ens.trajectories:
        assert t.n == t.m
        assert t.sigma == pytest.approx(0.0, abs=1e-14)
    assert sum(t.probability for t in ens.trajectories) == pytest.approx(1.0)


def test_enumeration_deterministic_x_map():
    rho = np.diag([0.75, 0.25]).astype(complex)
    spec = q.process_spec(
        [q.make_step(q.unitary_map(X), unital=True)], initial_state=rho
    )
    ens = q.enumerate_trajectories(spec)
    assert len(ens.trajectories) == 2
    comp = compile_process(spec)
    for t in ens.trajectories:
        # the swap is deterministic: the final population equals the initial one
        assert comp.final_probs[t.m] == pytest.approx(comp.initial_probs[t.n])
        assert t.probability == pytest.approx(comp.initial_probs[t.n])
        assert t.sigma == pytest.approx(0.0, abs=1e-14)
    assert sorted(t.probability for t in ens.trajectories) == pytest.approx([0.25, 0.75])


def test_enumeration_probabilities_sum_to_one():
    ens = q.enumerate_trajectories(gad_process())
    assert sum(t.probability for t in ens.trajectories) == pytest.approx(1.0, abs=1e-12)


def test_enumeration_mean_sigma_nonnegative():
    ens = q.enumerate_trajectories(gad_process())
    report = q.verify_integral_ft(ens)
    assert report.mean_sigma >= -1e-12
    assert report.deviation <= 1e-12


def test_enumeration_branch_cap():
    with pytest.raises(q.EnumerationTooLarge):
        q.enumerate_trajectories(gad_process(steps=4), branch_cap=100)


@pytest.mark.parametrize(
    "run",
    [q.enumerate_trajectories, lambda spec: q.sample_trajectories(spec, 50, seed=1)],
    ids=["enumerate", "sample"],
)
def test_enumeration_absolute_continuity_violation(run):
    # dual-initial population is zero on an outcome the forward process reaches
    basis = np.eye(2, dtype=complex)
    boundary = BoundaryData(
        initial_basis=basis,
        initial_probs=np.array([0.5, 0.5]),
        final_basis=basis,
        final_probs=np.array([1.0, 0.0]),
    )
    spec = q.process_spec(
        [q.make_step(q.unitary_map(np.eye(2)), unital=True)],
        explicit_boundary=boundary,
    )
    with pytest.raises(q.AbsoluteContinuityViolation):
        run(spec)


def test_dual_process_single_unitary_step():
    rng = np.random.default_rng(4)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    u = np.linalg.qr(m)[0]
    spec = q.process_spec(
        [q.make_step(q.unitary_map(u), unital=True)],
        initial_state=np.diag([0.8, 0.2]).astype(complex),
    )
    dual = q.build_dual_process(spec)
    assert len(dual.steps) == 1
    assert frob(dual.steps[0].map.operators[0] - u.T) <= 1e-12


def test_dual_process_reverses_step_order():
    a = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    b = q.make_step(q.thermal_qubit_map(np.log(3), 0.7))
    spec = q.process_spec([a, b], initial_state=np.diag([0.8, 0.2]).astype(complex))
    dual = q.build_dual_process(spec)
    # dual of the thermal qubit map swaps decay and excitation in place
    perm = [0, 3, 2, 1]
    for k, p in enumerate(perm):
        assert frob(dual.steps[0].map.operators[k] - b.map.operators[p]) <= 1e-12
        assert frob(dual.steps[1].map.operators[k] - a.map.operators[p]) <= 1e-12


def test_dual_process_stationary_is_statistically_identical():
    step = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    pi = step.structure.pi
    spec = q.process_spec([step, step], initial_state=pi)
    fwd = q.enumerate_trajectories(spec)
    rev = q.enumerate_trajectories(q.build_dual_process(spec))
    fwd_probs = {t.key(): t.probability for t in fwd.trajectories}
    rev_probs = {t.key(): t.probability for t in rev.trajectories}
    # thermal map: dual trajectory (n, k1 k2, m) has the jump labels swapped
    swap = {0: 0, 1: 3, 2: 2, 3: 1}
    for (n, ks, m), p in fwd_probs.items():
        mirrored = (n, tuple(swap[k] for k in ks), m)
        assert rev_probs[mirrored] == pytest.approx(p, abs=1e-14)


def test_detailed_ft_gad():
    report = q.verify_detailed_ft(gad_process())
    assert report.passed
    assert report.max_residual <= 1e-12


def test_detailed_ft_stationary_sigma_zero():
    step = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    spec = q.process_spec([step, step], initial_state=step.structure.pi)
    ens = q.enumerate_trajectories(spec)
    assert np.max(np.abs(ens.sigmas())) <= 1e-12
    assert q.verify_detailed_ft(spec).passed


def test_integral_ft_exact_gad():
    report = q.verify_integral_ft(q.enumerate_trajectories(gad_process()))
    assert report.mode == "exact"
    assert report.deviation <= 1e-12
    assert report.mean_sigma > 1e-3  # genuinely out of equilibrium


def test_sampling_deterministic_given_seed():
    spec = gad_process()
    a = q.sample_trajectories(spec, 200, seed=7)
    b = q.sample_trajectories(spec, 200, seed=7)
    assert [t.key() for t in a.trajectories] == [t.key() for t in b.trajectories]
    c = q.sample_trajectories(spec, 200, seed=8)
    assert [t.key() for t in a.trajectories] != [t.key() for t in c.trajectories]


def test_sampling_prefix_stable():
    # stream i depends only on (seed, i): a longer run extends a shorter one
    spec = gad_process()
    small = q.sample_trajectories(spec, 50, seed=3)
    big = q.sample_trajectories(spec, 100, seed=3)
    assert [t.key() for t in small.trajectories] == [
        t.key() for t in big.trajectories[:50]
    ]


def test_sampling_matches_enumeration():
    spec = gad_process(steps=1)
    exact = {t.key(): t.probability for t in q.enumerate_trajectories(spec).trajectories}
    sampled = q.sample_trajectories(spec, 20000, seed=11)
    counts: dict = {}
    for t in sampled.trajectories:
        counts[t.key()] = counts.get(t.key(), 0) + 1
    for key, p in exact.items():
        freq = counts.get(key, 0) / 20000
        assert freq == pytest.approx(p, abs=0.02)


def test_sampling_integral_ft_within_error():
    report = q.verify_integral_ft(q.sample_trajectories(gad_process(), 20000, seed=5))
    assert report.mode == "mc"
    assert abs(report.z_score) <= 3.0


def test_work_statistics_trivial_process():
    h = np.diag([0.0, OMEGA]).astype(complex)
    spec = q.process_spec(
        [q.make_step(q.unitary_map(np.eye(2)), unital=True)],
        boundary_mode="equilibrium",
        h_initial=h,
        h_final=h,
        beta=LN2,
    )
    ens = q.enumerate_trajectories(spec)
    report = q.work_statistics(spec, ens)
    assert report.delta_f == pytest.approx(0.0, abs=1e-14)
    assert report.mean_work == pytest.approx(0.0, abs=1e-14)
    assert report.mean_heat == pytest.approx(0.0, abs=1e-14)
    assert report.deviation <= 1e-14


def test_work_statistics_sudden_quench_matches_analytic_sum():
    h_i = np.diag([0.0, OMEGA]).astype(complex)
    h_f = np.diag([0.0, 2 * OMEGA]).astype(complex)
    beta = LN2
    spec = q.process_spec(
        [q.make_step(q.unitary_map(np.eye(2)), unital=True)],
        boundary_mode="equilibrium",
        h_initial=h_i,
        h_final=h_f,
        beta=beta,
    )
    ens = q.enumerate_trajectories(spec)
    report = q.work_statistics(spec, ens)
    oracle = analytic_quench_mean(beta, [0.0, OMEGA], [0.0, 2 * OMEGA])
    assert oracle == pytest.approx(1.0, abs=1e-14)  # the identity itself
    assert report.mean_exp_neg_beta_wdiss == pytest.approx(oracle, abs=1e-12)
    assert report.deviation <= 1e-12


def test_work_statistics_thermal_map_same_hamiltonian():
    h = np.diag([0.0, OMEGA]).astype(complex)
    spec = q.process_spec(
        [q.make_step(q.thermal_qubit_map(LN2 * OMEGA, 0.5))] * 2,
        boundary_mode="equilibrium",
        h_initial=h,
        h_final=h,
        beta=LN2 / OMEGA,
    )
    ens = q.enumerate_trajectories(spec)
    # starting from equilibrium of the same Hamiltonian: Sigma = 0 branchwise
    assert np.max(np.abs(ens.sigmas())) <= 1e-12
    report = q.work_statistics(spec, ens)
    assert report.deviation <= 1e-12


def test_work_statistics_requires_equilibrium_mode():
    with pytest.raises(ValueError):
        q.work_statistics(gad_process(), q.enumerate_trajectories(gad_process()))


def test_unital_mean_sigma_equals_entropy_change(library):
    spec = library["unital_concat"]
    ens = q.enumerate_trajectories(spec)
    mean_sigma = float(np.sum(ens.probabilities() * ens.sigmas()))
    assert mean_sigma == pytest.approx(q.entropy_change(spec), abs=1e-10)


def test_library_integral_ft_exact(library):
    for name, spec in library.items():
        report = q.verify_integral_ft(q.enumerate_trajectories(spec))
        assert report.deviation <= 1e-12, name


def test_library_detailed_ft(library):
    for name, spec in library.items():
        report = q.verify_detailed_ft(spec)
        assert report.passed, name
        assert report.max_residual <= 1e-9, name


def test_process_spec_validation():
    step = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    with pytest.raises(ValueError):
        q.process_spec([step], boundary_mode="bogus", initial_state=np.eye(2) / 2)
    with pytest.raises(ValueError):
        q.process_spec([step])  # entropic without a state
    with pytest.raises(ValueError):
        q.process_spec([step], boundary_mode="equilibrium")  # missing H, beta
    with pytest.raises(q.DimensionMismatchError):
        q.process_spec([step], initial_state=np.eye(3) / 3)
