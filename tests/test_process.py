import dataclasses
import math
from collections.abc import Sequence

import numpy as np
import pytest

import qmapft as q
import qmapft.maps
import qmapft.process
from qmapft.linalg import adjoint, frob, hermitian_eig
from conftest import HADAMARD, assert_close, gad_step, unital_step
from qmapft.process import (
    BoundaryData,
    IntegralFTReport,
    WorkReport,
    _boundary_terms,
    compile_process,
    with_steps,
)

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


def sigma_boundary(boundary, n, m, tol=q.DEFAULT_TOLERANCES):
    """Reference: the boundary term of one outcome pair, as the per-pair loop computed it."""
    p_n = boundary.initial_probs[n]
    p_m = boundary.final_probs[m]
    if p_n <= tol.eps_prob or p_m <= tol.eps_prob:
        raise q.ZeroProbabilityBranch(
            f"boundary populations p_i({n})={p_n:.3e}, p_f({m})={p_m:.3e}"
        )
    return float(math.log(p_n) - math.log(p_m))


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
    assert _boundary_terms(comp, n, m, q.DEFAULT_TOLERANCES) == sigma_boundary(comp, n, m)


def test_sigma_boundary_zero_probability():
    rho_i = np.diag([1.0, 0.0]).astype(complex)
    spec = q.process_spec(
        [unital_step(q.unitary_map(np.eye(2)))], initial_state=rho_i
    )
    comp = compile_process(spec)
    n = int(np.argmax(comp.initial_probs))
    m = int(np.argmin(comp.final_probs))
    with pytest.raises(q.ZeroProbabilityBranch):
        sigma_boundary(comp, n, m)
    assert np.isnan(_boundary_terms(comp, n, m, q.DEFAULT_TOLERANCES))


def _reference_table(bnd, tol):
    """The per-pair loop the boundary terms replaced, as a table: NaN where it raises."""
    dim = len(bnd.initial_probs)
    table = np.full((dim, dim), np.nan)
    for i, j in np.ndindex(dim, dim):
        try:
            table[i, j] = sigma_boundary(bnd, i, j, tol)
        except q.ZeroProbabilityBranch:
            pass
    return table


def test_boundary_table_matches_per_pair_formula(library):
    for name, spec in library.items():
        for label, s in ((name, spec), (name + " dual", q.build_dual_process(spec))):
            bnd = compile_process(s)
            # eps_prob equal to the smallest initial population: its row turns NaN
            low = float(np.min(bnd.initial_probs))
            for tol in (q.DEFAULT_TOLERANCES, q.Tolerances(eps_prob=low)):
                n, m = np.indices((len(bnd.initial_probs), len(bnd.final_probs)))
                got, want = _boundary_terms(bnd, n, m, tol), _reference_table(bnd, tol)
                assert_close(got, want, 2, (label, tol.eps_prob))
                dead = np.logical_or.outer(bnd.initial_probs <= tol.eps_prob,
                                           bnd.final_probs <= tol.eps_prob)
                assert np.array_equal(np.isnan(got), dead), (label, tol.eps_prob)


def _reference_boundary(spec, tol=q.DEFAULT_TOLERANCES):
    """compile_process as it was before specs carried their boundary: both sides
    resolved from the spec's boundary mode and steps on every call."""
    if spec.boundary_mode == "entropic":
        rho = spec.initial_state
        for step in spec.steps:
            rho = q.apply_map(step.map, rho)
        eig_i, eig_f = hermitian_eig(spec.initial_state, tol), hermitian_eig(rho, tol)
        p_i, p_f = (np.clip(e.eigenvalues.real, 0.0, None) for e in (eig_i, eig_f))
    else:
        eig_i, eig_f = hermitian_eig(spec.h_initial, tol), hermitian_eig(spec.h_final, tol)
        p_i, p_f = (q.gibbs_populations(e.eigenvalues, spec.beta)[0] for e in (eig_i, eig_f))
    return BoundaryData(eig_i.eigenvectors, p_i, eig_f.eigenvectors, p_f)


def assert_same_boundary(got, want, label):
    for field in dataclasses.fields(BoundaryData):
        assert_close(getattr(got, field.name), getattr(want, field.name), 0, (label, field.name))


def test_resolved_boundary_is_the_reference_bit_for_bit(library):
    modes = set()
    for name, spec in library.items():
        assert compile_process(spec) is spec.boundary
        assert_same_boundary(spec.boundary, _reference_boundary(spec), name)
        modes.add(spec.boundary_mode)
    assert modes == {"entropic", "equilibrium"}


def test_with_steps_resolves_the_final_basis_of_the_new_steps(library):
    spec = library["gad_r3"]
    other = [unital_step(q.unitary_map(HADAMARD)), spec.steps[0]]
    moved = with_steps(spec, other)
    assert moved.steps == tuple(other)
    assert_same_boundary(moved.boundary, _reference_boundary(moved), "new steps")
    assert moved.boundary.initial_basis is spec.boundary.initial_basis
    assert not np.array_equal(moved.boundary.final_basis, spec.boundary.final_basis)
    # no steps: the final side is the initial one
    bare = with_steps(spec, ())
    assert_same_boundary(bare.boundary, _reference_boundary(bare), "no steps")
    assert bare.boundary.final_probs is spec.boundary.initial_probs


def test_with_steps_keeps_an_equilibrium_boundary(library):
    spec = library["quench_then_thermalize"]
    assert spec.boundary_mode == "equilibrium"
    for steps in ((), spec.steps[::-1], [gad_step(LN2 / 2)] * 2):
        assert with_steps(spec, steps).boundary is spec.boundary


def test_with_steps_refuses_a_dual_process():
    dual = q.build_dual_process(gad_process())
    with pytest.raises(ValueError, match="initial state"):
        with_steps(dual, dual.steps)


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
        [unital_step(q.unitary_map(X))], initial_state=rho
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


def test_enumeration_branch_cap(monkeypatch):
    spec = gad_process(steps=4)  # 2 * 2 * 4**4 = 1024 branches
    monkeypatch.setattr(qmapft.process, "DEFAULT_BRANCH_CAP", 1024)
    assert len(q.enumerate_trajectories(spec)) > 0
    monkeypatch.setattr(qmapft.process, "DEFAULT_BRANCH_CAP", 1023)
    with pytest.raises(q.EnumerationTooLarge) as info:
        q.enumerate_trajectories(spec)
    assert (info.value.branch_count, info.value.cap) == (1024, 1023)


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
    spec = q.ProcessSpec(
        steps=(unital_step(q.unitary_map(np.eye(2))),),
        symmetry=q.theta(2),
        boundary=boundary,
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


def assert_enumeration_matches_reference(spec, ulps, label):
    """enumerate_trajectories of spec has the reference's rows: the same outcome records,
    and each float field within ulps of the reference's (assert_close)."""
    ens = q.enumerate_trajectories(spec)
    for field, want in _reference_enumerate(spec).items():
        assert_close(getattr(ens, field), want, ulps, (label, field))


def test_breadth_first_enumeration_matches_reference(library):
    # the ladders have K = 2d - 1 dense operators, d up to 16
    ladders = {f"ladder_d{d}": _ladder_chain(d, 3, 0) for d in (8, 12, 14, 16)}
    for name, spec in {**library, **ladders}.items():
        for label, s in ((name, spec), (name + " dual", q.build_dual_process(spec))):
            assert_enumeration_matches_reference(s, 8, label)


def _dense_complex_chain(d, r, seed):
    """R mixtures of 2-4 Haar unitaries from a dense complex initial state.

    Every operator, state and basis vector is dense and complex.  The maps are
    unital, so they classify; the forward steps get random potential changes
    in place of their zero ones, so that the summed changes are checked too.
    """
    rng = np.random.default_rng([d, r, seed])
    steps = []
    for _ in range(r):
        k = int(rng.integers(2, 5))
        z = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        weights = np.sqrt(rng.dirichlet(np.ones(k)))[:, None, None]
        step = unital_step(q.kraus_map(weights * np.linalg.qr(z)[0]))
        structure = dataclasses.replace(step.structure, delta_phi=rng.standard_normal(k))
        steps.append(q.ProcessStep(map=step.map, structure=structure))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ adjoint(g)
    return q.process_spec(steps, initial_state=rho / np.trace(rho).real)


@pytest.mark.parametrize("d", range(2, 8))
def test_enumeration_matches_reference_on_dense_complex_maps(d):
    spec = _dense_complex_chain(d, 3, 0)
    for label, s in (("forward", spec), ("dual", q.build_dual_process(spec))):
        assert_enumeration_matches_reference(s, 8, (d, label))


def _qubit_spec(initial_probs, steps, final_probs=(0.5, 0.5)):
    """A qubit process measured in the computational basis at both ends."""
    basis = np.eye(2, dtype=complex)
    boundary = BoundaryData(
        initial_basis=basis,
        initial_probs=np.array(initial_probs, dtype=float),
        final_basis=basis,
        final_probs=np.array(final_probs, dtype=float),
    )
    return q.ProcessSpec(steps=tuple(steps), boundary=boundary, symmetry=q.theta(2))


HALF_OR_REST = [0.5 * np.eye(2), math.sqrt(0.75) * np.eye(2)]


def test_enumeration_prunes_branch_with_norm_exactly_eps_prob():
    tol = q.Tolerances(eps_prob=0.25)
    first = unital_step(q.kraus_map(HALF_OR_REST))
    # not trace preserving: had the k1 = 0 branch (squared norm 0.25 = eps_prob)
    # survived, its child 2 phi would reach the end with probability 1
    boost = q.kraus_map([2 * np.eye(2), 0 * np.eye(2)])
    boost = q.ProcessStep(map=boost, structure=first.structure)
    spec = _qubit_spec([1.0, 0.0], [first, boost])
    ens = q.enumerate_trajectories(spec, tol)
    assert ens.ks.tolist() == [[1, 0]]
    assert np.array_equal(ens.probability, _reference_enumerate(spec, tol)["probability"])


@pytest.mark.parametrize("d", range(1, 8))
def test_pruning_floor_at_each_rows_own_norm(d):
    # below 8 columns np.sum adds left to right, as the column sums of _live do:
    # with eps_prob set to a row's norm as np.sum gives it, that row is dropped
    rng = np.random.default_rng(d)
    phi = (rng.standard_normal((200, d)) + 1j * rng.standard_normal((200, d))) * 1e-7
    norms = np.sum(phi.real**2 + phi.imag**2, axis=1)
    for eps in norms[:20]:
        want = np.flatnonzero(norms > eps)
        assert np.array_equal(qmapft.process._live(phi, q.Tolerances(eps_prob=eps)), want)


def test_enumeration_prunes_leaf_with_probability_exactly_eps_prob():
    tol = q.Tolerances(eps_prob=0.125)
    spec = _qubit_spec([0.5, 0.5], [unital_step(q.kraus_map(HALF_OR_REST))])
    ens = q.enumerate_trajectories(spec, tol)
    # the k = 0 leaves have probability 0.25 * 0.5 = eps_prob exactly
    assert [ens.key(i) for i in range(len(ens))] == [(0, (1,), 0), (1, (1,), 1)]


def test_enumeration_with_every_branch_pruned_names_eps_prob():
    spec = _qubit_spec([0.5, 0.5], [unital_step(q.kraus_map(HALF_OR_REST))])
    with pytest.raises(q.ZeroProbabilityBranch, match="eps_prob"):
        q.enumerate_trajectories(spec, q.Tolerances(eps_prob=0.9))


def test_absolute_continuity_violation_names_first_branch_in_row_order():
    # m = 1 cannot start the dual; (0, (1,), 1) and (1, (0,), 1) both reach it
    kmap = q.kraus_map([math.sqrt(0.3) * np.eye(2), math.sqrt(0.7) * X])
    step = unital_step(kmap)
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
        [unital_step(q.unitary_map(u))],
        initial_state=np.diag([0.8, 0.2]).astype(complex),
    )
    dual = q.build_dual_process(spec)
    assert len(dual.steps) == 1
    assert frob(dual.steps[0].map.operators[0] - u.T) <= 1e-12


def _haar_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    qr, r = np.linalg.qr(z)
    return qr * (np.diag(r) / np.abs(np.diag(r)))


def _per_column_bases(spec):
    """Reference: the dual bases as SymmetryOp.on_vector built them, one column at a time."""
    bnd = compile_process(spec)
    sym = spec.symmetry

    def on_vector(x):
        x = np.asarray(x, dtype=np.complex128)
        return sym.matrix @ (x.conj() if sym.antiunitary else x)

    def transform(basis):
        return np.column_stack([on_vector(column) for column in basis.T])

    return transform(bnd.final_basis), transform(bnd.initial_basis)


@pytest.mark.parametrize("antiunitary", [True, False], ids=["antiunitary", "unitary"])
def test_dual_bases_match_per_column_transform(antiunitary):
    rng = np.random.default_rng([5, antiunitary])
    for d in range(2, 17):
        u, v, w = (_haar_unitary(rng, d) for _ in range(3))
        rho = (w * rng.dirichlet(np.ones(d))) @ adjoint(w)
        spec = q.process_spec(
            [unital_step(q.unitary_map(u))],
            initial_state=rho,
            symmetry=q.SymmetryOp(v, antiunitary=antiunitary),
        )
        dual = q.build_dual_process(spec).boundary
        want_initial, want_final = _per_column_bases(spec)
        for got, want in ((dual.initial_basis, want_initial), (dual.final_basis, want_final)):
            assert_close(got, want, 4, d)


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


def test_dual_process_checks_each_forward_pi_under_its_tolerances():
    # the first step's pi is a fixed point within the default eps_fix, not within 1e-14
    kmap = q.thermal_qubit_map(LN2, 0.5)
    pi = q.invariant_state(kmap) + 1e-12 * np.diag([1.0, -1.0])
    spec = q.process_spec([q.make_step(kmap, pi), q.make_step(kmap)],
                          initial_state=np.diag([0.8, 0.2]).astype(complex))
    q.build_dual_process(spec)
    strict = dataclasses.replace(q.DEFAULT_TOLERANCES, eps_fix=1e-14)
    with pytest.raises(q.SingularStateError, match="not a fixed point of the map"):
        q.build_dual_process(spec, strict)


def test_dual_process_raises_the_first_failing_step_in_dual_order():
    # under these tolerances the first step's pi is not a fixed point and the last step's
    # pi (smallest eigenvalue about 0.047) is not above eps_pos; the dual process runs the
    # steps in reverse, so the last forward step fails first and must raise its own error
    a = q.thermal_qubit_map(LN2, 0.5)
    pi_a = q.invariant_state(a) + 1e-12 * np.diag([1.0, -1.0])
    steps = [q.make_step(a, pi_a), q.make_step(a), q.make_step(q.thermal_qubit_map(3.0, 0.5))]
    spec = q.process_spec(steps, initial_state=np.diag([0.8, 0.2]).astype(complex))
    strict = dataclasses.replace(q.DEFAULT_TOLERANCES, eps_fix=1e-14, eps_pos=0.1)
    with pytest.raises(q.SingularStateError, match="not above eps_pos"):
        q.build_dual_process(spec, strict)


@pytest.mark.parametrize("counts", [(2, 1), (1, 2)], ids=["short-lists", "long-lists"])
def test_make_steps_refuses_lists_of_another_length_than_the_maps(counts):
    gad = q.thermal_qubit_map(LN2, 0.5)
    maps, pis = [gad] * counts[0], [None] * counts[1]
    with pytest.raises(ValueError, match=f"{counts[0]} maps and {counts[1]} pis"):
        q.process.make_steps(maps, pis)


@pytest.mark.parametrize("dims", [(2, 3), (3, 2)], ids=["qutrit-H_f", "qutrit-H_i"])
@pytest.mark.parametrize("steps", [0, 1], ids=["no-steps", "qubit-step"])
def test_equilibrium_boundary_of_two_dimensions_is_refused(dims, steps):
    h_i, h_f = (np.diag(np.arange(d, dtype=float)) for d in dims)
    gad = [q.make_step(q.thermal_qubit_map(LN2, 0.5))] * steps
    with pytest.raises(q.DimensionMismatchError) as info:
        q.process_spec(gad, boundary_mode="equilibrium", h_initial=h_i, h_final=h_f, beta=1.0)
    assert str(info.value) == "inconsistent dimensions in process: {2, 3}"


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


def _radix_edge_specs():
    """An R = 0 qutrit process, and a unitary step (K = 1, digits of radix 1) between two GADs."""
    gad = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    hadamard = unital_step(q.unitary_map(np.array([[1, 1], [1, -1]]) / math.sqrt(2)))
    return {
        "r0": q.process_spec([], initial_state=np.diag([0.5, 0.3, 0.2]).astype(complex)),
        "unitary_k1": q.process_spec(
            [gad, hadamard, gad], initial_state=np.diag([0.9, 0.1]).astype(complex)
        ),
    }


def test_detailed_ft_matching_agrees_with_tuple_lookup(library):
    # reference: each reversed branch looked up by its (n, ks, m) tuple in the dual
    # process's own enumeration, whose amplitudes are associated from the right;
    # verify_detailed_ft associates them from the left.  Each branch's p~ then
    # differs by at most 15.8 eps relative (unitary_k1, where the Hadamard step's
    # amplitudes cancel; at most 2.9 eps on the others), so the residuals by that
    # plus the rounding of a log below 3: the bound is twice the largest seen
    specs = {**library, **_radix_edge_specs(), "gad_r5": gad_process(steps=5),
             "ladder_d8": _ladder_chain(8, 3, 0)}
    for name, spec in specs.items():
        forward = q.enumerate_trajectories(spec)
        dual = q.enumerate_trajectories(q.build_dual_process(spec))
        p_rev = {t.key(): t.probability for t in dual.trajectories}
        ratios = np.array([t.probability / p_rev[(t.m, t.ks[::-1], t.n)] for t in forward])
        worst = float(np.max(np.abs(np.log(ratios) - [t.sigma for t in forward])))
        report = q.verify_detailed_ft(spec)
        assert abs(report.max_residual - worst) <= 32 * np.finfo(float).eps, name
        assert report.branch_count == len(forward.trajectories), name


def smallest_reverse_branch(spec):
    """(forward record, the probability of its reverse) where that reverse is least likely
    among the records whose reverse is less likely than they are.

    Only those records are candidates: eps_prob = p~ must prune the reverse and keep the
    forward branch.  Over all records the least p~ can be an exact tie (GAD(ln 2, 0.5)
    gives (1, (2, 3), 0) and (0, (1, 3), 0) the same 11/720), and pi's last bit would
    pick between a record with p~ < p and one with p~ > p.
    """
    forward = q.enumerate_trajectories(spec)
    p_rev = {t.key(): t.probability for t in q.enumerate_trajectories(q.build_dual_process(spec))}
    pairs = [(t, p_rev[(t.m, t.ks[::-1], t.n)]) for t in forward]
    return min(((t, p) for t, p in pairs if p < t.probability), key=lambda tp: tp[1])


def test_detailed_ft_matching_at_the_eps_prob_edge():
    spec = gad_process(steps=2)
    t, p_rev = smallest_reverse_branch(spec)
    assert p_rev < t.probability
    # eps_prob = p~ prunes the reverse branch but keeps the forward one, which
    # then goes unmatched; it is refused before a log is taken, since np.log
    # of p / 0 would warn, and this suite fails on that warning
    with pytest.raises(q.AbsoluteContinuityViolation) as got:
        q.verify_detailed_ft(spec, q.Tolerances(eps_prob=p_rev))
    assert got.value.trajectory == t.key() and got.value.probability == t.probability
    tol = q.Tolerances(eps_prob=np.nextafter(p_rev, 0))
    kept = q.enumerate_trajectories(spec, tol)
    assert t.key() in [u.key() for u in kept]
    report = q.verify_detailed_ft(spec, tol)
    assert report.branch_count == len(kept) and report.max_residual <= 1e-9


def test_rank_deficient_initial_state_verifies_the_detailed_ft():
    # p_i(n) = 0 on one level: the dual process ends there with mass of its own,
    # whose boundary term is NaN; the matching reads only the dual's probabilities
    spec = gad_process(rho=np.diag([1.0, 0.0]).astype(complex), steps=2)
    forward = q.enumerate_trajectories(spec)
    report = q.verify_detailed_ft(spec)
    assert report.passed and report.branch_count == len(forward)
    assert report.max_residual <= 1e-12
    # <e^{-Sigma}> falls short of 1 by the dual mass on the zero-population level
    dual = q.build_dual_process(spec)
    bnd = dual.boundary
    rho = (bnd.initial_basis * bnd.initial_probs) @ adjoint(bnd.initial_basis)
    for step in dual.steps:
        rho = q.apply_map(step.map, rho)
    empty = bnd.final_basis[:, bnd.final_probs <= q.DEFAULT_TOLERANCES.eps_prob]
    assert empty.shape[1] == 1
    lost = float(np.trace(adjoint(empty) @ rho @ empty).real)
    assert lost > 0.1
    assert q.verify_integral_ft(forward).mean_exp_neg_sigma == pytest.approx(1 - lost, abs=1e-12)


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


def _reference_draw_rows(weights, u):
    """Per row, the first index whose cumulative weight exceeds u * total.

    weights is (N, K) and u is (N,); the rule is searchsorted(side="right")
    of u * total on each row's cumulative sum, clipped to the last index.
    """
    cumulative = np.cumsum(weights, axis=1)
    hits = cumulative <= (u * cumulative[:, -1])[:, None]
    return np.minimum(hits.sum(axis=1), weights.shape[1] - 1)


def _reference_walk(spec, bnd, u):
    """Reference lockstep sampler: one (N, d) row per trajectory, |z|**2 summed along d.

    (n, ks, m, summed potential change) of len(u) trajectories; row i of u
    holds trajectory i's uniforms: n, one per step, then m.
    """
    count = len(u)
    basis = bnd.initial_basis / np.linalg.norm(bnd.initial_basis, axis=0)
    n = _reference_draw_rows(np.broadcast_to(bnd.initial_probs, (count, len(basis))), u[:, 0])
    psi = basis[:, n].T
    rows = np.arange(count)
    ks = np.empty((count, len(spec.steps)), dtype=np.int64)
    dphi = np.zeros(count)
    for r, step in enumerate(spec.steps):
        phis = psi @ step.map.operators.swapaxes(1, 2)  # (K, count, dim) candidate branches
        branch_p = np.sum(np.abs(phis) ** 2, axis=2).T
        k = _reference_draw_rows(branch_p, u[:, r + 1])
        psi = phis[k, rows] / np.sqrt(branch_p[rows, k])[:, None]
        ks[:, r] = k
        dphi += step.structure.delta_phi[k]
    m = _reference_draw_rows(np.abs(psi @ bnd.final_basis.conj()) ** 2, u[:, -1])
    return n, ks, m, dphi


def _assert_walk_matches_reference(spec, count, seed, label):
    bnd = compile_process(spec)
    u = np.random.Generator(np.random.Philox(key=seed)).random((count, len(spec.steps) + 2))
    got = qmapft.process._walk(spec, bnd, u)
    for field, a, b in zip(("n", "ks", "m", "dphi"), got, _reference_walk(spec, bnd, u)):
        assert a.dtype == b.dtype and np.array_equal(a, b), (label, field)


def test_walk_matches_reference_on_the_library(library):
    for name, spec in library.items():
        for label, s in ((name, spec), (name + " dual", q.build_dual_process(spec))):
            _assert_walk_matches_reference(s, 20_000, 41, label)


def _dense_complex_maps(d, k, r, seed):
    """R mixtures of K Haar unitaries from a dense complex initial state, as prefixes.

    Returns R + 1 processes: the first r steps for r = 0 .. R.  The steps get
    random potential changes, so that the summed changes are checked too.
    """
    rng = np.random.default_rng([d, k, r, seed])
    steps = []
    for _ in range(r):
        weights = np.sqrt(rng.dirichlet(np.ones(k)))[:, None, None]
        unitaries = [_haar_unitary(rng, d) for _ in range(k)]
        step = unital_step(q.kraus_map(weights * np.array(unitaries)))
        structure = dataclasses.replace(step.structure, delta_phi=rng.standard_normal(k))
        steps.append(q.ProcessStep(map=step.map, structure=structure))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ adjoint(g)
    rho /= np.trace(rho).real
    return [q.process_spec(steps[:i], initial_state=rho) for i in range(r + 1)]


@pytest.mark.parametrize("d", range(1, 8))
def test_walk_matches_reference_on_dense_complex_maps(d):
    for k in range(1, 2 * d):
        for r, spec in enumerate(_dense_complex_maps(d, k, 4, 0)):
            _assert_walk_matches_reference(spec, 2000, 100 * k + r, (d, k, r))


def test_walk_matches_reference_on_ladder_chains():
    for d in range(8, 17):
        _assert_walk_matches_reference(_ladder_chain(d, 3, 1), 2000, d, d)


def _is_real(spec):
    """Every operator of spec and both of its measurement bases have zero imaginary parts."""
    bnd = compile_process(spec)
    arrays = [s.map.operators for s in spec.steps] + [bnd.initial_basis, bnd.final_basis]
    return not any(a.imag.any() for a in arrays)


def _classical_chain(d, r, seed):
    """R random classical Markov steps M_ji = sqrt(T_ji) |j><i| on d states from a random
    diagonal state: a real process.  A cycle 0 -> 1 -> .. -> 0 keeps every T irreducible."""
    rng = np.random.default_rng([d, r, seed])
    kmaps = []
    for _ in range(r):
        weights = rng.random((d, d)) * (rng.random((d, d)) < 0.4) + np.roll(np.eye(d), 1, axis=0)
        t = weights / weights.sum(axis=0)
        ops = []
        for j, i in zip(*np.nonzero(t)):
            ops.append(np.zeros((d, d)))
            ops[-1][j, i] = np.sqrt(t[j, i])
        kmaps.append(q.kraus_map(ops))
    steps = qmapft.process.make_steps(kmaps, [None] * r)
    return q.process_spec(steps, initial_state=np.diag(rng.dirichlet(np.ones(d))))


def _phase_twin(spec, seed, first=0):
    """spec with each operator of steps first .. R - 1 times its own unit phase e^{i theta_k}.

    The twin has the same channel, the same potential changes and the same
    boundary as spec, but complex operators, so it takes the complex path.
    """
    rng = np.random.default_rng(seed)
    steps = list(spec.steps)
    for r in range(first, len(steps)):
        kmap = steps[r].map
        phases = np.exp(2j * np.pi * rng.random(len(kmap)))[:, None, None]
        phased = q.kraus_map(phases * kmap.operators, kmap.labels)
        steps[r] = dataclasses.replace(steps[r], map=phased)
    return dataclasses.replace(spec, steps=tuple(steps), boundary=compile_process(spec))


def _real_processes(library):
    """The real processes of the library and real classical chains on d = 2 .. 7 states."""
    real = {name: spec for name, spec in library.items() if _is_real(spec)}
    assert {"gad_r3", "gad_mixed_r4", "unital_concat", "sudden_quench"} <= real.keys()
    chains = {f"classical_d{d}": _classical_chain(d, 3, 0) for d in range(2, 8)}
    assert all(_is_real(spec) for spec in chains.values())
    return {**real, **chains}


# A real process and its phase twin take the float64 and the complex128 path,
# whose probabilities round apart by a few units of roundoff of the largest one
# (at most 3.2 over these processes and their duals).  Their potential changes
# come from the same structures, forward and dual, so the summed ones are equal.
TWIN_PROB_ULPS = 8
TWIN_DPHI_ULPS = 0


def test_phase_twins_enumerate_as_the_real_process(library):
    for name, spec in _real_processes(library).items():
        # every step complex, and only the last (the state turns complex mid-chain)
        for first in (0, len(spec.steps) - 1):
            twin = _phase_twin(spec, first, first)
            pairs = ((name, spec, twin),
                     (name + " dual", q.build_dual_process(spec), q.build_dual_process(twin)))
            for label, real, phased in pairs:
                got, want = q.enumerate_trajectories(phased), q.enumerate_trajectories(real)
                for field in ("n", "labels", "m"):
                    assert np.array_equal(getattr(got, field), getattr(want, field)), label
                label = (label, first)
                assert_close(got.probability, want.probability, TWIN_PROB_ULPS, label)
                assert_close(got.sigma_boundary, want.sigma_boundary, 0, label)
                assert_close(got.delta_phi_sum, want.delta_phi_sum, TWIN_DPHI_ULPS, label)


def test_phase_twins_sample_as_the_real_process(library):
    for name, spec in _real_processes(library).items():
        for first in (0, len(spec.steps) - 1):
            got = q.sample_trajectories(_phase_twin(spec, first, first), 4000, seed=first + 5)
            want = q.sample_trajectories(spec, 4000, seed=first + 5)
            for field in ("n", "labels", "m"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (name, field)
            assert_close(got.delta_phi_sum, want.delta_phi_sum, TWIN_DPHI_ULPS, (name, first))


def test_real_processes_run_in_float64(monkeypatch):
    # every step product passes through _squared_norms: the enumerator's R + 1 row
    # prunings and its probabilities, and the sampler's R branch weights and m draw
    dtypes = []
    squared_norms = qmapft.process._squared_norms

    def spy(z):
        dtypes.append(z.dtype.name)
        return squared_norms(z)

    monkeypatch.setattr(qmapft.process, "_squared_norms", spy)
    spec = gad_process(steps=4)
    f, c = "float64", "complex128"
    # the chain, its last step complex, every step complex (the initial basis stays real)
    cases = ((spec, [f] * 6, [f] * 5),
             (_phase_twin(spec, 0, 3), [f] * 4 + [c] * 2, [f] * 3 + [c] * 2),
             (_phase_twin(spec, 0), [f] + [c] * 5, [c] * 5))
    for s, enumerated, sampled in cases:
        dtypes.clear()
        q.enumerate_trajectories(s)
        assert dtypes == enumerated
        dtypes.clear()
        q.sample_trajectories(s, 100, seed=1)
        assert dtypes == sampled


def _searchsorted_draw(weights, u):
    """min(searchsorted(cumsum(w), u * total, side="right"), K - 1) of each column."""
    drawn = []
    for w, x in zip(weights.T, u):
        cumulative = np.cumsum(w)
        drawn.append(min(np.searchsorted(cumulative, x * cumulative[-1], side="right"), len(w) - 1))
    return np.array(drawn)


DRAW_EDGES = (0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0))


@pytest.mark.parametrize("k", range(1, 7))
def test_draw_rows_is_the_clipped_searchsorted_rule(k):
    # dyadic weights make ties and running sums that u * total hits exactly
    rng = np.random.default_rng(k)
    count = 400
    tables = (
        rng.choice([0.0, 0.25, 0.5, 1.0], size=(k, count)),
        np.where(rng.random((k, count)) < 0.3, 0.0, rng.random((k, count))),
    )
    for weights in tables:
        for u in [np.full(count, x) for x in DRAW_EDGES] + [rng.random(count)]:
            drawn = qmapft.process._draw_rows(weights, u)
            assert drawn.dtype == np.int64
            assert np.array_equal(drawn, _searchsorted_draw(weights, u)), u[0]
            positive = weights.sum(axis=0) > 0
            assert np.all(weights[drawn, np.arange(count)][positive] > 0)


def test_draw_rows_skips_zero_weight_branches_at_both_ends():
    rng = np.random.default_rng(5)
    weights = rng.random((4, 300))
    first_zero, last_zero = weights.copy(), weights.copy()
    first_zero[0] = 0.0
    last_zero[-1] = 0.0
    at_zero = qmapft.process._draw_rows(first_zero, np.zeros(300))
    assert np.all(at_zero == 1)
    at_top = qmapft.process._draw_rows(last_zero, np.full(300, np.nextafter(1.0, 0.0)))
    assert np.all(at_top == 2)


def test_sampling_blocks_do_not_change_results(monkeypatch):
    spec = gad_process()
    whole = q.sample_trajectories(spec, 1000, seed=9)
    monkeypatch.setattr(qmapft.process, "SAMPLE_BLOCK", 64)
    blocked = q.sample_trajectories(spec, 1000, seed=9)
    for field in ("n", "ks", "m", "sigma_boundary", "delta_phi_sum"):
        assert np.array_equal(getattr(whole, field), getattr(blocked, field)), field


def test_blockwise_uniforms_are_the_rows_of_one_draw(monkeypatch):
    # three blocks and a ragged tail, each drawn from the one generator where the last
    # block ended: the walk sees the rows of one (count, R + 2) draw
    spec = gad_process()
    monkeypatch.setattr(qmapft.process, "SAMPLE_BLOCK", 64)
    count, width = 3 * 64 + 17, len(spec.steps) + 2
    whole = np.random.Generator(np.random.Philox(key=12)).random((count, width))
    rng = np.random.Generator(np.random.Philox(key=12))
    blocks = [rng.random((n, width)) for n in (64, 64, 64, 17)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    ens = q.sample_trajectories(spec, count, seed=12)
    want = qmapft.process._walk(spec, compile_process(spec), whole)
    for field, got, b in zip(("n", "ks", "m", "dphi"),
                             (ens.n, ens.ks, ens.m, ens.delta_phi_sum), want):
        assert got.dtype == b.dtype and np.array_equal(got, b), field


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
        assert records is ens and isinstance(ens, Sequence)
        assert ens[:2] == (ens[0], ens[1]) and ens[1].key() == ens.key(1)
        # every way of reading a row gives the record of that row of ks
        columns = (ens.n.tolist(), ens.ks.tolist(), ens.m.tolist())
        rows = [(n, tuple(ks), m) for n, ks, m in zip(*columns)]
        assert [ens.key(i) for i in range(count)] == rows, ens.mode
        assert [ens[i].key() for i in range(count)] == rows, ens.mode
        assert [ens[np.int64(i)].key() for i in range(count)] == rows, ens.mode
        assert [t.key() for t in list(ens)] == rows and ens[-1].key() == rows[-1], ens.mode
        for i in (count, -count - 1, np.int64(count)):
            with pytest.raises(IndexError):
                ens[i]
            with pytest.raises(IndexError):
                ens.key(i)
    # exact labels are decoded on each read: (N, R) int64 at R = 0 and with a K = 1 step
    for name, spec in _radix_edge_specs().items():
        ens = q.enumerate_trajectories(spec)
        ks = ens.ks
        assert ks.dtype == np.int64 and ks.shape == (len(ens), len(spec.steps)), name
        if ks.size:
            assert np.all(ks[:, 1] == 0), name  # the unitary step's only label
            ks[:] = 7
        assert not np.any(ens.ks == 7), name
        assert ens.ks.tolist() == [list(ens.key(i)[1]) for i in range(len(ens))], name


def _assert_codes_ascend(ens, spec, label):
    """(n, k_1 .. k_R, m) read as mixed-radix integers from the rows' labels strictly ascend."""
    dim = compile_process(spec).initial_basis.shape[0]
    codes = ens.n.copy()
    for radix, column in zip([len(step.map) for step in spec.steps], ens.ks.T):
        assert np.all((0 <= column) & (column < radix)), label
        codes = codes * radix + column
    codes = codes * dim + ens.m
    assert np.all(np.diff(codes) > 0), label
    # the codes the matching reads are these, prefixes (n, k_1 .. k_R) as stored
    assert np.array_equal(ens.labels * dim + ens.m, codes), label


def test_exact_outcome_codes_strictly_ascend(library):
    # the detailed-FT matching searches one sorted array of codes with another
    ladders = {f"ladder_d{d}": _ladder_chain(d, 3, 0) for d in (8, 12, 14, 16)}
    dense = {f"dense_d{d}": _dense_complex_chain(d, 3, 0) for d in range(2, 8)}
    for name, spec in {**library, **ladders, **dense, **_radix_edge_specs()}.items():
        for label, s in ((name, spec), (name + " dual", q.build_dual_process(spec))):
            _assert_codes_ascend(q.enumerate_trajectories(s), s, label)


def test_sampling_accepts_full_philox_key_range():
    spec = gad_process()
    top = q.sample_trajectories(spec, 20, seed=2**128 - 1)
    assert len(top) == 20 and top.seed == 2**128 - 1
    for seed in (-1, 2**128):
        with pytest.raises(ValueError):
            q.sample_trajectories(spec, 20, seed=seed)


@pytest.mark.parametrize("count", [0, -3, 2.5, True, 1e13, "20"])
def test_sample_count_must_be_a_positive_integer(count):
    with pytest.raises(ValueError, match=f"^sample_count must be a positive integer, got {count!r}$"):
        q.sample_trajectories(gad_process(), count, seed=0)


@pytest.mark.parametrize("seed", [1.5, True, -1, 2**128, "3"])
def test_seed_must_be_an_integer_philox_key(seed):
    with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\*\*128\), got {seed!r}$"):
        q.sample_trajectories(gad_process(), 20, seed=seed)


def test_sampling_accepts_numpy_integers():
    spec = gad_process()
    want = q.sample_trajectories(spec, 20, seed=4)
    got = q.sample_trajectories(spec, np.int64(20), seed=np.uint64(4))
    assert type(got.seed) is int and got.seed == 4
    for field in ("n", "ks", "m", "probability", "delta_phi_sum"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


def test_sample_count_above_the_cap_is_rejected_before_allocating():
    # 10^13 rows of uniforms would be 218 TiB; the cap is checked first
    with pytest.raises(q.SampleCountTooLarge, match="above the cap 10000000") as got:
        q.sample_trajectories(gad_process(), 10**13, seed=0)
    assert "Monte Carlo" not in str(got.value)


def test_sample_cap_edge(monkeypatch):
    monkeypatch.setattr(qmapft.process, "DEFAULT_BRANCH_CAP", 100)
    assert len(q.sample_trajectories(gad_process(), 100, seed=0)) == 100
    with pytest.raises(q.SampleCountTooLarge):
        q.sample_trajectories(gad_process(), 101, seed=0)


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


def mc_ensemble(sigmas):
    """A sampled ensemble of one-step rows with the given entropy productions."""
    n = len(sigmas)
    zeros = np.zeros(n, dtype=np.int64)
    return q.TrajectoryEnsemble(n=zeros, labels=zeros[:, None], m=zeros,
                                probability=np.full(n, 1.0 / n),
                                sigma_boundary=np.asarray(sigmas, dtype=float),
                                delta_phi_sum=np.zeros(n), mode="mc")


def test_integral_ft_verdict_fails_a_constant_sigma():
    # every e^{-Sigma} is e^{-1/2}: no spread, yet the mean is 0.61; a zero standard error
    # once gave z = 0
    report = q.verify_integral_ft(mc_ensemble(np.full(2000, 0.5)))
    assert report.mean_exp_neg_sigma == pytest.approx(np.exp(-0.5), rel=1e-15)
    assert report.standard_error > 0
    assert report.z_score < -3.0


def test_integral_ft_of_an_empty_ensemble_raises():
    none, empty = np.zeros(0, dtype=np.int64), np.zeros(0)
    ensemble = q.TrajectoryEnsemble(n=none, labels=none, m=none, probability=empty,
                                    sigma_boundary=empty, delta_phi_sum=empty, mode="exact")
    with pytest.raises(ValueError, match="ensemble is empty"):
        q.verify_integral_ft(ensemble)


def test_integral_ft_verdict_of_vanishing_weights_is_minus_infinity():
    # e^{-Sigma} underflows to 0 on every sample: the mean and its floor are 0
    report = q.verify_integral_ft(mc_ensemble(np.full(10, 800.0)))
    assert report.mean_exp_neg_sigma == 0.0 and report.standard_error == 0.0
    assert report.z_score == -math.inf


def test_work_statistics_trivial_process():
    h = np.diag([0.0, OMEGA]).astype(complex)
    spec = q.process_spec(
        [unital_step(q.unitary_map(np.eye(2)))],
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
        [unital_step(q.unitary_map(np.eye(2)))],
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


def test_work_statistics_makes_two_eigendecompositions(library, monkeypatch):
    spec = library["quench_then_thermalize"]
    ens = q.enumerate_trajectories(spec)
    want = q.work_statistics(spec, ens)
    calls = []
    counted = lambda *a, **k: calls.append(1) or q.hermitian_eig(*a, **k)
    for module in (q.linalg, q.models, qmapft.process):
        monkeypatch.setattr(module, "hermitian_eig", counted)
    assert q.work_statistics(spec, ens) == want
    assert len(calls) == 2


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


def forked_integral_ft(ensemble):
    """verify_integral_ft as it was, with its own exact and Monte Carlo bodies."""
    sigmas = ensemble.sigmas()
    weights = np.exp(-sigmas)
    if ensemble.mode == "exact":
        probs = ensemble.probabilities()
        mean = float(np.sum(probs * weights))
        mean_sigma = float(np.sum(probs * sigmas))
        return IntegralFTReport(
            mode="exact",
            mean_exp_neg_sigma=mean,
            deviation=abs(mean - 1.0),
            mean_sigma=mean_sigma,
        )
    n = len(sigmas)
    mean = float(np.mean(weights))
    se = float(np.std(weights, ddof=1) / np.sqrt(n)) if n > 1 else float("inf")
    # the standard error's floor at the mean's rounding, which the Monte Carlo verdict
    # took on after the fork; it changes no mean
    se = max(se, n * 2.0**-53 * mean)
    z = (mean - 1.0) / se
    return IntegralFTReport(
        mode="mc",
        mean_exp_neg_sigma=mean,
        deviation=abs(mean - 1.0),
        mean_sigma=float(np.mean(sigmas)),
        standard_error=se,
        z_score=float(z),
    )


def forked_work_statistics(spec, ensemble, tol=q.DEFAULT_TOLERANCES):
    """work_statistics as it was, with its own exact and Monte Carlo means."""
    beta = spec.beta
    eig_i, eig_f = q.hermitian_eig(spec.h_initial, tol), q.hermitian_eig(spec.h_final, tol)
    f_i, f_f = (-q.gibbs_populations(e.eigenvalues, beta)[1] / beta for e in (eig_i, eig_f))
    delta_f = f_f - f_i
    heats = -ensemble.delta_phi_sum / beta
    works = (eig_f.eigenvalues[ensemble.m] - eig_i.eigenvalues[ensemble.n]) + heats
    exps = np.exp(-beta * (works - delta_f))
    if ensemble.mode == "exact":
        probs = ensemble.probabilities()
        mean_exp = float(np.sum(probs * exps))
        mean_w = float(np.sum(probs * works))
        mean_q = float(np.sum(probs * heats))
    else:
        mean_exp = float(np.mean(exps))
        mean_w = float(np.mean(works))
        mean_q = float(np.mean(heats))
    return WorkReport(
        beta=beta,
        delta_f=delta_f,
        mean_exp_neg_beta_wdiss=mean_exp,
        deviation=abs(mean_exp - 1.0),
        mean_work=mean_w,
        mean_heat=mean_q,
    )


EQUILIBRIUM_LIBRARY = ("thermal_equilibrium_same_h", "sudden_quench", "quench_then_thermalize")


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_one_mean_reports_equal_the_forked_bodies(library, mode):
    assert len(library) == 12
    for name, spec in library.items():
        if mode == "exact":
            ens = q.enumerate_trajectories(spec)
        else:
            ens = q.sample_trajectories(spec, 2000, seed=9)
        assert q.verify_integral_ft(ens) == forked_integral_ft(ens), name
        if name in EQUILIBRIUM_LIBRARY:
            assert q.work_statistics(spec, ens) == forked_work_statistics(spec, ens), name


def test_sampled_rows_weigh_one_over_n_and_mean_follows_the_mode(library):
    spec = library["gad_mixed_r4"]
    for count in (1, 3, 2000):
        sampled = q.sample_trajectories(spec, count, seed=9)
        assert sampled.probability.tolist() == [1.0 / count] * count
        assert [t.probability for t in sampled.trajectories] == [1.0 / count] * count
        x = np.exp(-sampled.sigmas())
        assert sampled.mean(x) == float(np.mean(x))
    exact = q.enumerate_trajectories(spec)
    x = np.exp(-exact.sigmas())
    assert exact.mean(x) == float(np.sum(exact.probability * x))
    assert exact.mean(exact.sigmas()) == float(np.sum(exact.probability * exact.sigmas()))


def test_process_spec_decomposes_the_initial_state_once(monkeypatch):
    # validate_density's positivity test and the boundary's initial side share one
    # decomposition of rho_i; the evolved state takes the other
    steps = [gad_step()] * 3
    rho = np.diag([0.9, 0.1]).astype(complex)
    rho_f = rho
    for step in steps:
        rho_f = q.apply_map(step.map, rho_f)
    decomposed = []
    for module in (qmapft.maps, qmapft.process):
        real = module.hermitian_eig
        monkeypatch.setattr(module, "hermitian_eig", lambda a, *rest, real=real: (
            decomposed.append(np.array(a)) or real(a, *rest)))
    spec = q.process_spec(steps, initial_state=rho)
    assert len(decomposed) == 2
    assert np.array_equal(decomposed[0], rho) and np.array_equal(decomposed[1], rho_f)
    eig = hermitian_eig(rho)
    assert np.array_equal(spec.boundary.initial_basis, eig.eigenvectors)
    assert np.array_equal(spec.boundary.initial_probs, eig.eigenvalues)
