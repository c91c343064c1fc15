import math

import numpy as np
import pytest

import qmapft as q
import qmapft.process
from qmapft.linalg import adjoint, frob
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


def _reference_enumerate(spec, tol=q.DEFAULT_TOLERANCES):
    """Reference enumerator: the depth-first recursion, one branch at a time."""
    bnd = compile_process(spec, tol)
    dim = bnd.initial_basis.shape[0]
    rows = []

    def descend(r, phi, ks, dphi, n):
        if float(np.vdot(phi, phi).real) <= tol.eps_prob:
            return
        if r == len(spec.steps):
            amps = adjoint(bnd.final_basis) @ phi
            for m in range(dim):
                p = float(abs(amps[m]) ** 2) * bnd.initial_probs[n]
                if p > tol.eps_prob:
                    try:
                        sigma = sigma_boundary(bnd, n, m, tol)
                    except q.ZeroProbabilityBranch as exc:
                        raise q.AbsoluteContinuityViolation((n, ks, m), p) from exc
                    rows.append((n, ks, m, p, sigma, dphi))
            return
        step = spec.steps[r]
        for k, child in enumerate(step.map.operators @ phi):
            descend(r + 1, child, ks + (k,), dphi + step.structure.delta_phi[k], n)

    for n in range(dim):
        if bnd.initial_probs[n] > tol.eps_prob:
            descend(0, bnd.initial_basis[:, n].copy(), (), 0.0, n)
    n, ks, m, p, sigma, dphi = zip(*rows)
    return {
        "n": np.array(n),
        "ks": np.array(ks, dtype=np.int64).reshape(len(rows), len(spec.steps)),
        "m": np.array(m),
        "probability": np.array(p, dtype=float),
        "sigma_boundary": np.array(sigma),
        "delta_phi_sum": np.array(dphi, dtype=float),
    }


def _ladder_chain(d, r, seed):
    """R discretized thermal-ladder Lindblad steps: K = 2d - 1, one jump per level pair."""
    rng = np.random.default_rng([d, r, seed])
    steps = []
    for _ in range(r):
        gaps = rng.uniform(0.5, 1.2, size=d - 1)
        beta = rng.uniform(0.2, 0.5)
        down = rng.uniform(0.5, 1.0, size=d - 1)
        jumps = []
        for i in range(1, d):
            lower = np.zeros((d, d))
            lower[i - 1, i] = 1.0
            jumps.append(np.sqrt(down[i - 1]) * lower)
            jumps.append(np.sqrt(down[i - 1] * np.exp(-beta * gaps[i - 1])) * lower.T)
        h = np.diag(np.concatenate([[0.0], np.cumsum(gaps)]))
        dt = rng.uniform(0.04, 0.08) / down.max()
        steps.append(q.make_step(q.lindblad_step(h, jumps, dt)))
    pops = 0.5 / d + 0.5 * rng.dirichlet(np.ones(d))
    return q.process_spec(steps, initial_state=np.diag(pops).astype(complex))


def test_breadth_first_enumeration_matches_reference(library):
    # the ladders (K = 2d - 1) catch products and |amplitude|^2 forms that round
    # differently from the reference's by one ulp
    ladders = {f"ladder_d{d}": _ladder_chain(d, 3, 0) for d in (8, 12, 14, 16)}
    for name, spec in {**library, **ladders}.items():
        for label, s in ((name, spec), (name + " dual", q.build_dual_process(spec))):
            ens = q.enumerate_trajectories(s)
            for field, want in _reference_enumerate(s).items():
                got = getattr(ens, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), (label, field)


def _qubit_spec(initial_probs, steps, final_probs=(0.5, 0.5)):
    """A qubit process measured in the computational basis at both ends."""
    basis = np.eye(2, dtype=complex)
    boundary = BoundaryData(
        initial_basis=basis,
        initial_probs=np.array(initial_probs, dtype=float),
        final_basis=basis,
        final_probs=np.array(final_probs, dtype=float),
    )
    return q.process_spec(steps, explicit_boundary=boundary)


HALF_OR_REST = [0.5 * np.eye(2), math.sqrt(0.75) * np.eye(2)]


def test_enumeration_prunes_branch_with_norm_exactly_eps_prob():
    tol = q.Tolerances(eps_prob=0.25)
    first = q.make_step(q.kraus_map(HALF_OR_REST), unital=True)
    # not trace preserving: had the k1 = 0 branch (squared norm 0.25 = eps_prob)
    # survived, its child 2 phi would reach the end with probability 1
    boost = q.kraus_map([2 * np.eye(2), 0 * np.eye(2)])
    boost = q.ProcessStep(map=boost, structure=first.structure)
    spec = _qubit_spec([1.0, 0.0], [first, boost])
    ens = q.enumerate_trajectories(spec, tol)
    assert ens.ks.tolist() == [[1, 0]]
    assert np.array_equal(ens.probability, _reference_enumerate(spec, tol)["probability"])


def test_enumeration_prunes_leaf_with_probability_exactly_eps_prob():
    tol = q.Tolerances(eps_prob=0.125)
    spec = _qubit_spec([0.5, 0.5], [q.make_step(q.kraus_map(HALF_OR_REST), unital=True)])
    ens = q.enumerate_trajectories(spec, tol)
    # the k = 0 leaves have probability 0.25 * 0.5 = eps_prob exactly
    assert [ens.key(i) for i in range(len(ens))] == [(0, (1,), 0), (1, (1,), 1)]


def test_enumeration_with_every_branch_pruned_names_eps_prob():
    spec = _qubit_spec([0.5, 0.5], [q.make_step(q.kraus_map(HALF_OR_REST), unital=True)])
    with pytest.raises(q.ZeroProbabilityBranch, match="eps_prob"):
        q.enumerate_trajectories(spec, q.Tolerances(eps_prob=0.9))


def test_absolute_continuity_violation_names_first_branch_in_row_order():
    # m = 1 cannot start the dual; (0, (1,), 1) and (1, (0,), 1) both reach it
    kmap = q.kraus_map([math.sqrt(0.3) * np.eye(2), math.sqrt(0.7) * X])
    step = q.make_step(kmap, unital=True)
    spec = _qubit_spec([0.5, 0.5], [step], final_probs=[1.0, 0.0])
    with pytest.raises(q.AbsoluteContinuityViolation) as got:
        q.enumerate_trajectories(spec)
    with pytest.raises(q.AbsoluteContinuityViolation) as want:
        _reference_enumerate(spec)
    assert got.value.trajectory == want.value.trajectory == (0, (1,), 1)
    assert got.value.probability == want.value.probability


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


def test_detailed_ft_matching_agrees_with_tuple_lookup(library):
    # reference: each reversed branch looked up by its (n, ks, m) tuple
    for name, spec in library.items():
        forward = q.enumerate_trajectories(spec)
        dual = q.enumerate_trajectories(q.build_dual_process(spec))
        p_rev = {t.key(): t.probability for t in dual.trajectories}
        worst = 0.0
        for t in forward.trajectories:
            p = p_rev[(t.m, t.ks[::-1], t.n)]
            worst = max(worst, abs(math.log(t.probability / p) - t.sigma))
        report = q.verify_detailed_ft(spec)
        assert report.max_residual == worst, name
        assert report.branch_count == len(forward.trajectories), name


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


def _scalar_walk(spec, u):
    """Reference sampler: one trajectory walked on its own from its row of uniforms."""
    bnd = compile_process(spec)

    def draw(weights, x):
        cumulative = np.cumsum(weights)
        i = np.searchsorted(cumulative, x * cumulative[-1], side="right")
        return int(min(i, len(cumulative) - 1))

    n = draw(bnd.initial_probs, u[0])
    psi = bnd.initial_basis[:, n] / np.linalg.norm(bnd.initial_basis[:, n])
    ks = []
    dphi = 0.0
    for r, step in enumerate(spec.steps):
        phis = step.map.operators @ psi
        branch_p = np.sum(np.abs(phis) ** 2, axis=1)
        k = draw(branch_p, u[r + 1])
        psi = phis[k] / np.sqrt(branch_p[k])
        ks.append(k)
        dphi += step.structure.delta_phi[k]
    m = draw(np.abs(adjoint(bnd.final_basis) @ psi) ** 2, u[-1])
    return (n, tuple(ks), m), float(sigma_boundary(bnd, n, m) - dphi)


def test_lockstep_sampler_matches_scalar_walk(library):
    count, seed = 400, 23
    for name, spec in library.items():
        ens = q.sample_trajectories(spec, count, seed=seed)
        rows = np.random.Generator(np.random.Philox(key=seed)).random(
            (count, len(spec.steps) + 2)
        )
        for t, u in zip(ens.trajectories, rows):
            key, sigma = _scalar_walk(spec, u)
            assert t.key() == key, name
            assert t.sigma == sigma, name  # bit-identical, not approximate


def test_sampling_blocks_do_not_change_results(monkeypatch):
    spec = gad_process()
    whole = q.sample_trajectories(spec, 1000, seed=9)
    monkeypatch.setattr(qmapft.process, "SAMPLE_BLOCK", 64)
    blocked = q.sample_trajectories(spec, 1000, seed=9)
    for field in ("n", "ks", "m", "sigma_boundary", "delta_phi_sum"):
        assert np.array_equal(getattr(whole, field), getattr(blocked, field)), field


def test_ensemble_is_arrays():
    spec = gad_process()
    for ens in (q.enumerate_trajectories(spec), q.sample_trajectories(spec, 30, seed=2)):
        count = len(ens)
        assert ens.n.shape == ens.m.shape == (count,)
        assert ens.ks.shape == (count, 3)
        assert ens.probability.shape == ens.sigma_boundary.shape == (count,)
        assert np.array_equal(ens.sigmas(), ens.sigma_boundary - ens.delta_phi_sum)
        records = ens.trajectories
        assert len(records) == count and records[-1].key() == ens.key(count - 1)
        assert [t.sigma for t in records] == ens.sigmas().tolist()


def test_sampling_accepts_full_philox_key_range():
    spec = gad_process()
    top = q.sample_trajectories(spec, 20, seed=2**128 - 1)
    assert len(top) == 20 and top.seed == 2**128 - 1
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            q.sample_trajectories(spec, 20, seed=seed)


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


def test_work_statistics_agrees_with_per_trajectory_loop(library):
    for name in ("thermal_equilibrium_same_h", "sudden_quench", "quench_then_thermalize"):
        spec = library[name]
        ens = q.enumerate_trajectories(spec)
        e_i = np.linalg.eigvalsh(spec.h_initial)
        e_f = np.linalg.eigvalsh(spec.h_final)
        report = q.work_statistics(spec, ens)
        mean_exp = mean_w = 0.0
        for t in ens.trajectories:
            heat = -t.delta_phi_sum / spec.beta
            work = e_f[t.m] - e_i[t.n] + heat
            mean_exp += t.probability * math.exp(-spec.beta * (work - report.delta_f))
            mean_w += t.probability * work
        assert report.mean_exp_neg_beta_wdiss == pytest.approx(mean_exp, abs=1e-14), name
        assert report.mean_work == pytest.approx(mean_w, abs=1e-14), name


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


def test_process_spec_checks_symmetry_dimension():
    step = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    symmetry = q.SymmetryOp(np.eye(3, dtype=complex))
    with pytest.raises(q.DimensionMismatchError):
        q.process_spec([step], initial_state=np.eye(2) / 2, symmetry=symmetry)
