"""The stacked step pass against a one-map-at-a-time reference, under stated bounds.

make_steps (which load_process_file calls) and build_dual_process check,
classify and dualize every step of a process in one pass over stacked
arrays.  The reference here is per-map code: GTH elimination in plain Python
floats on the population chain of a map of ladder pattern, else one unbatched
SVD of B - 1 per block B of one map's superoperator; one fixed-point residual and one
eigendecomposition per (map, state); and the dual built and classified map by
map.  Every PotentialStructure field, every dual operator
and every dual state must agree within the bound each test states
(conftest.assert_close); test_maps compares pi with a dense SVD of S - 1 and
with the exact eigenvector of S's computed entries.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.cli import main
from qmapft.linalg import adjoint, frob, frobs, hermiticity_defect, hermiticity_defects
from qmapft.maps import (FIXED_WINDOW, stack_maps, superoperator_blocks, superoperator_view,
                         tp_defect, tp_defects, fixed_point_residuals)
from qmapft.serialize import load_process_file, map_to_json, matrix_to_json
from conftest import assert_close
from test_ladder_properties import ladder_maps
from test_maps import population_block

TOL = q.DEFAULT_TOLERANCES


def reference_eig(a):
    """hermitian_eig of one matrix, as it was before it took stacks."""
    vals, vecs = np.linalg.eigh((a + adjoint(a)) / 2)
    pivot = vecs[np.argmax(np.abs(vecs), axis=0), np.arange(vecs.shape[1])]
    size = np.hypot(pivot.real, pivot.imag)
    return vals, vecs * np.divide(size, pivot, out=np.ones_like(pivot), where=size > 0)


def block_fixed_vector(s):
    """(the number of singular values of S - 1 at most FIXED_WINDOW, the null vector when
    that is one), from one unbatched SVD of B - 1 per diagonal block B of one map's S
    (superoperator_view)."""
    d = len(s)
    labels = superoperator_blocks(s)
    sizes = np.bincount(labels, minlength=d * d)
    singles = np.flatnonzero(sizes[labels] == 1)
    a, b = np.divmod(singles, d)
    fixed = singles[np.abs(s[a, b, a, b] - 1.0) <= FIXED_WINDOW]
    count, vector = len(fixed), np.zeros(d * d, dtype=complex)
    vector[fixed[:1]] = 1.0
    for root in np.flatnonzero(sizes > 1):
        block = np.flatnonzero(labels == root)
        a, b = np.divmod(block, d)
        sub = s[a[:, None], b[:, None], a, b] - np.eye(len(block))
        _, sv, vh = np.linalg.svd(sub if sub.imag.any() else sub.real)
        zeros = np.flatnonzero(sv <= FIXED_WINDOW)
        if count == 0 and len(zeros) == 1:
            vector[block] = vh[-1].conj()
        count += len(zeros)
    return count, vector if count == 1 else None


def gth_state(t):
    """pi = diag(x), x with T x = x and sum x = 1, of an irreducible column-stochastic T, one
    map at a time: state k is folded into the states below it, divided by its exit weight
    sum_{j<k} T[j, k], and x[j] = sum_{i<j} x[i] P[i, j] is summed in index order."""
    p = t.T.copy()  # p[i, j]: the weight of i -> j
    n = len(p)
    for k in range(n - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    x = np.zeros(n)
    x[0] = 1.0
    for j in range(1, n):
        for i in range(j):
            x[j] += x[i] * p[i, j]
    return np.diag(x / x.sum()).astype(complex)


def reference_invariant_state(kmap):
    d = kmap.dim
    t = population_block(kmap)
    if t is not None:
        return gth_state(t)
    count, vector = block_fixed_vector(superoperator_view(kmap))
    assert count == 1
    x = vector.reshape(d, d)
    x = x / np.trace(x)
    return (x + adjoint(x)) / 2


def reference_group(values, eps_group):
    """(index, np.mean of each group): in ascending order, a value joins the last group
    while it is within eps_group of that group's first value."""
    order = np.argsort(values, kind="stable")
    labels, groups = np.empty(len(values), dtype=np.int64), []
    for i in order:
        if not groups or abs(values[i] - values[groups[-1][0]]) > eps_group:
            groups.append([])
        groups[-1].append(i)
        labels[i] = len(groups) - 1
    return labels, np.array([np.mean(np.sort(values[g])) for g in groups])


def reference_structure(kmap, pi):
    """The fields of build_potential_structure, one operator at a time."""
    pi = np.asarray(pi, dtype=complex)
    assert frob(q.apply_map(kmap, pi) - pi) <= TOL.eps_fix
    vals, vecs = reference_eig(pi)
    assert vals.min() > TOL.eps_pos
    potentials = -np.log(vals)
    classes, class_pot = reference_group(potentials, TOL.eps_group)
    pot = class_pot[classes]
    gap = pot[:, None] - pot[None, :]
    delta_phi = []
    for m in kmap.operators:
        coeff = adjoint(vecs) @ m @ vecs
        connects = np.hypot(coeff.real, coeff.imag) > TOL.eps_zero * max(frob(m), 1e-300)
        if connects.any():
            assert np.ptp(gap[connects]) <= TOL.eps_group
        delta_phi.append(np.mean(gap[connects]) if connects.any() else 0.0)
    gap_index, gaps = reference_group(np.array(delta_phi), TOL.eps_group)
    return {"pi": pi, "eigenvalues": vals, "eigenvectors": vecs, "potentials": potentials,
            "classes": tuple(classes.tolist()), "class_potentials": class_pot,
            "delta_phi": np.array(delta_phi), "gaps": gaps, "gap_index": gap_index}


def reference_dual(kmap, pi, sym):
    """(build_dual's operators and state, one operator at a time; the operators' scale).

    The scale of operator k is ||pi^(1/2)||_F ||M_k||_F ||pi^(-1/2)||_F, the
    normwise scale of the product that makes it (Higham, ch. 3): a last-bit
    change of pi's eigenvectors moves the product by ulps of that scale.
    """
    vals, vecs = reference_eig(pi)
    sq = (vecs * vals**0.5) @ adjoint(vecs)
    sqinv = (vecs * vals**-0.5) @ adjoint(vecs)
    ops = np.array([sym.on_matrix(sq @ adjoint(m) @ sqinv) for m in kmap.operators])
    scale = frob(sq) * frobs(kmap.operators) * frob(sqinv)
    return (q.kraus_map(ops, labels=[f"{s}~" for s in kmap.labels]), sym.on_matrix(pi),
            scale[:, None, None])


def assert_structure(structure, want, label, ulps):
    got = {"pi": structure.pi, "eigenvalues": structure.eigen.eigenvalues,
           "eigenvectors": structure.eigen.eigenvectors, "classes": structure.classes,
           **{f: getattr(structure, f) for f in
              ("potentials", "class_potentials", "delta_phi", "gaps", "gap_index")}}
    for field, value in want.items():
        if field == "classes":
            assert got[field] == value, (label, field)
        else:
            assert_close(got[field], value, ulps, (label, field))


def assert_process_matches_reference(spec, pis, label, ulps):
    """spec's steps and dual steps are the reference's within ulps; pis[r] is step r's state."""
    for r, (step, pi) in enumerate(zip(spec.steps, pis)):
        assert_structure(step.structure, reference_structure(step.map, pi), (label, r), ulps)
    dual = q.build_dual_process(spec)
    for r, (step, fwd) in enumerate(zip(dual.steps, spec.steps[::-1])):
        dual_map, pi_dual, scale = reference_dual(fwd.map, fwd.structure.pi, spec.symmetry)
        assert step.map.labels == dual_map.labels, (label, r)
        assert_close(step.map.operators, dual_map.operators, ulps, (label, r, "ops"), scale)
        assert not step.map.operators.flags.writeable
        assert_structure(step.structure, reference_structure(dual_map, pi_dual),
                         (label, "dual", r), ulps)


def reference_state(kmap, pi, unital):
    if pi is not None:
        return pi
    return np.eye(kmap.dim) / kmap.dim if unital else reference_invariant_state(kmap)


def assert_steps_match_reference(inputs, rho, label, ulps, symmetry=None):
    """make_steps of (map, pi, unital) inputs of one dimension, a unital one given pi = 1/N,
    and their duals."""
    steps = q.process.make_steps([m for m, _, _ in inputs],
                                 [np.eye(m.dim) / m.dim if u else pi for m, pi, u in inputs])
    spec = q.process_spec(steps, initial_state=rho, symmetry=symmetry)
    states = [reference_state(*i) for i in inputs]
    assert_process_matches_reference(spec, states, label, ulps)


def library_inputs(library):
    """Every map of the model library, by dimension, as (map, None, unital) inputs: a map
    whose library pi is 1/N is marked unital, the others get their invariant state computed."""
    by_dim = {}
    for spec in library.values():
        for step in spec.steps:
            d = step.map.dim
            unital = np.array_equal(step.structure.pi, np.eye(d) / d)
            by_dim.setdefault(d, []).append((step.map, None, unital))
    return by_dim


def structure_bytes(s):
    """Every array of a PotentialStructure as (dtype, shape, bytes)."""
    arrays = (s.pi, s.eigen.eigenvalues, s.eigen.eigenvectors, s.potentials, s.delta_phi,
              s.gaps, s.gap_index)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


def unital_file(path, kmap, step):
    """A qubit process file of a GAD step, so that Sigma fluctuates, then kmap with its state
    set by step ("unital" or "pi" keys)."""
    path.write_text(json.dumps({
        "steps": [{"model": "thermal_qubit", "beta_omega": 0.5, "gamma": 0.3},
                  {"map": map_to_json(kmap), **step}],
        "initial_state": matrix_to_json(np.diag([0.7, 0.3]))}))
    return path


def test_three_ways_of_saying_unital_agree_bit_for_bit(library, tmp_path):
    # pi = 1/N given to make_steps, "unital": true in a file, and --unital on the command line
    unital = [m for inputs in library_inputs(library).values() for m, _, u in inputs if u]
    assert len(unital) == 9 and {m.dim for m in unital} == {2}
    half = np.eye(2) / 2
    half_path = tmp_path / "half.json"
    half_path.write_text(json.dumps(matrix_to_json(half)))
    for r, kmap in enumerate(unital):
        flagged = unital_file(tmp_path / f"unital{r}.json", kmap, {"unital": True})
        given = unital_file(tmp_path / f"pi{r}.json", kmap, {"pi": matrix_to_json(half)})
        want = structure_bytes(q.process.make_steps([kmap], [half])[0].structure)
        assert structure_bytes(load_process_file(flagged)[0].steps[1].structure) == want, r
        map_path = tmp_path / f"map{r}.json"
        map_path.write_text(json.dumps(map_to_json(kmap)))
        for command in ("classify", "dual"):
            outs = [tmp_path / f"{command}{r}-{name}.out" for name in ("unital", "pi")]
            for flag, out in zip((["--unital"], ["--pi", str(half_path)]), outs):
                assert main([command, str(map_path), *flag, "--out", str(out)]) == 0, (r, command)
            assert outs[0].read_bytes() == outs[1].read_bytes(), (r, command)
        for mode in (["--mode", "exact"], ["--mode", "mc", "--samples", "2000", "--seed", "5"]):
            outs = [tmp_path / f"{name}{r}-{mode[1]}.out" for name in ("unital", "pi")]
            for proc, out in zip((flagged, given), outs):
                assert main(["verify", str(proc), *mode, "--out", str(out)]) == 0, (r, mode)
            assert outs[0].read_bytes() == outs[1].read_bytes(), (r, mode)


def test_library_steps_stacked_match_reference(library):
    by_dim = library_inputs(library)
    assert {len(m) for m, _, _ in by_dim[2]} == {1, 2, 3, 4}  # one stack of mixed K
    for d, inputs in by_dim.items():
        rho = np.eye(d) / d
        assert_steps_match_reference(inputs, rho, f"library d={d}", 0)
        assert_steps_match_reference(inputs[::-1], rho, f"library d={d} reversed", 0)


def test_library_processes_match_reference(library):
    for name, spec in library.items():
        assert_process_matches_reference(spec, [s.structure.pi for s in spec.steps], name, 0)


@given(st.integers(2, 16).flatmap(lambda d: st.lists(ladder_maps((d, d)), min_size=1, max_size=3)))
@settings(max_examples=20, deadline=None)
def test_ladder_chains_match_reference(examples):
    # computed states and exact ones as given pis, up to d = 16 (Haar-rotated maps, so the
    # block path at every d)
    inputs = [(e.kmap, None, False) for e in examples] + [(e.kmap, e.pi, False) for e in examples]
    d = examples[0].kmap.dim
    assert_steps_match_reference(inputs, np.eye(d) / d, d, 8)


@pytest.mark.parametrize("d", range(2, 8))
def test_dense_complex_unital_chains_match_reference(d):
    rng = np.random.default_rng(d)
    inputs = []
    for k in (1, 3, 2, 4):
        z = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        weights = np.sqrt(rng.dirichlet(np.ones(k)))[:, None, None]
        inputs.append((q.kraus_map(weights * np.linalg.qr(z)[0]), None, True))
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ adjoint(g)
    u = np.linalg.qr(g)[0]
    for sym in (None, q.SymmetryOp(u, antiunitary=False), q.SymmetryOp(u, antiunitary=True)):
        assert_steps_match_reference(inputs, rho / np.trace(rho).real, (d, sym), 8, symmetry=sym)


def mixed_process_file(path):
    """A qubit process file of a Hadamard unital step, GAD steps (K = 4) with their states
    computed or given as "pi", and a two-jump lindblad_step (K = 3)."""
    gad = q.thermal_qubit_map(0.7, 0.4)
    pi = q.invariant_state(gad)
    h = [[1, 1], [1, -1]]
    steps = [
        {"model": "thermal_qubit", "beta_omega": 0.5, "gamma": 0.3},
        {"model": "unitary", "U": matrix_to_json(np.array(h) / np.sqrt(2)), "unital": True},
        {"map": map_to_json(gad), "pi": matrix_to_json(pi)},
        {"model": "lindblad_step", "H": matrix_to_json(np.diag([0.0, 1.0])),
         "lindblads": [matrix_to_json([[0, 0.8], [0, 0]]), matrix_to_json([[0, 0], [0.5, 0]])],
         "dt": 0.1},
        {"model": "thermal_qubit", "beta_omega": 1.1, "gamma": 0.6},
    ]
    path.write_text(json.dumps({"steps": steps,
                                "initial_state": matrix_to_json(np.diag([0.7, 0.3]))}))
    return pi


def test_mixed_process_file_matches_reference(tmp_path):
    path = tmp_path / "mixed.json"
    pi = mixed_process_file(path)
    spec, _ = load_process_file(path)
    assert [len(s.map) for s in spec.steps] == [4, 1, 4, 3, 4]
    given = [None, np.eye(2) / 2, pi, None, None]
    states = [reference_state(s.map, p, False) for s, p in zip(spec.steps, given)]
    assert_process_matches_reference(spec, states, "mixed file", 0)


def signed_zero_stack(rng, counts, d):
    """Maps of the given K with entries of both zero signs, as (maps, stack)."""
    maps = []
    for k in counts:
        z = rng.standard_normal((k, d, d)) + 1j * rng.standard_normal((k, d, d))
        z.real[rng.random(z.shape) < 0.3] = -0.0
        z.imag[rng.random(z.shape) < 0.3] = -0.0
        z[rng.random(k) < 0.3] *= -0.0  # whole operators of signed zeros
        maps.append(q.kraus_map(z))
    return maps, stack_maps(maps)


@pytest.mark.parametrize("counts", [[1], [4, 4, 4], [1, 4, 2, 1, 3], [3, 1], [7] * 5])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 16])
def test_segment_sums_round_as_per_map_sums(counts, d):
    # a sum of K terms in another order is within (K - 1) ulps of the sum of |term|
    # (Higham, ch. 4): the bounds are stated against that scale, entry by entry
    rng = np.random.default_rng([d, *counts])
    maps, stack = signed_zero_stack(rng, counts, d)
    rows = stack.operators @ adjoint(stack.operators)
    sums = stack.sums(rows)
    for r, (a, b) in enumerate(zip(stack.bounds[:-1], stack.bounds[1:])):
        assert_close(sums[r], rows[a:b].sum(axis=0), 8, r, scale=np.abs(rows[a:b]).sum(axis=0))
    states = rng.standard_normal((len(maps), d, d)) + 1j * rng.standard_normal((len(maps), d, d))
    states.real[rng.random(states.shape) < 0.3] = -0.0
    terms = stack.operators @ states[stack.owner] @ adjoint(stack.operators)
    applied = stack.sums(terms)
    residuals = fixed_point_residuals(stack, states)
    defects = tp_defects(stack)
    for r, kmap in enumerate(maps):
        scale = np.abs(terms[stack.owner == r]).sum(axis=0)
        assert_close(applied[r], q.apply_map(kmap, states[r]), 8, r, scale=scale)
        want = frob(q.apply_map(kmap, states[r]) - states[r])
        assert_close(residuals[r], want, 8, r, scale=frob(scale) + frob(states[r]))
        ops = kmap.operators
        weights = adjoint(ops) @ ops
        want = frob(weights.sum(axis=0) - np.eye(d))
        assert_close(defects[r], want, 8, r, scale=frob(np.abs(weights).sum(axis=0)) + d**0.5)
        assert tp_defect(kmap) == defects[r], r  # its one-map case


@pytest.mark.parametrize("d", [1, 2, 3, 7, 16])
def test_stacked_hermitian_eig_is_each_matrix_alone(d):
    rng = np.random.default_rng(d)
    g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    stack = g + adjoint(g)
    stack[1] = 0.0
    stack[3] += 1e-12 * g[3]  # non-Hermitian within eps_herm
    eig = q.hermitian_eig(stack)
    defects = hermiticity_defects(stack)
    for r, a in enumerate(stack):
        # each matrix decomposed alone takes the same code path: the same bits
        alone = q.hermitian_eig(a)
        assert_close(eig.eigenvalues[r], alone.eigenvalues, 0, r)
        assert_close(eig.eigenvectors[r], alone.eigenvectors, 0, r)
        assert_close(defects[r], np.float64(hermiticity_defect(a)), 0, r)
        vals, vecs = reference_eig(a)
        assert_close(eig.eigenvalues[r], vals, 0, r)
        assert_close(eig.eigenvectors[r], vecs, 4, r)
        assert_close(frobs(stack)[r], frob(a), 4, r)
    stack[2] += 1e-3 * g[2]
    stack[4] += 1e-3 * g[4]
    with pytest.raises(q.NonHermitianError):
        q.hermitian_eig(stack)


def step_fields(step):
    """Every field of a ProcessStep: its map's operators and labels, and its structure's."""
    s = step.structure
    return {"operators": step.map.operators, "labels": step.map.labels,
            "eigenvalues": s.eigen.eigenvalues, "eigenvectors": s.eigen.eigenvectors,
            **{f.name: getattr(s, f.name) for f in dataclasses.fields(s) if f.name != "eigen"}}


def carried_decomposition_dual(fwd, sym):
    """The dual step built from the decomposition the forward structure carries, as the
    stacked dual pass built it before build_duals checked each pi again: the operators
    A pi^(1/2) M_k† pi^(-1/2) A†, classified against A pi A†."""
    v, w = fwd.structure.eigen.eigenvectors, fwd.structure.eigen.eigenvalues
    k = len(fwd.map)
    sq = np.repeat(((v * w**0.5) @ adjoint(v))[None], k, axis=0)
    sqinv = np.repeat(((v * w**-0.5) @ adjoint(v))[None], k, axis=0)
    ops = sym.on_matrix(sq @ adjoint(fwd.map.operators) @ sqinv)
    dual = q.kraus_map(ops, labels=[f"{s}~" for s in fwd.map.labels])
    return q.make_step(dual, sym.on_matrix(fwd.structure.pi))


def assert_one_dual_path(spec, label):
    """Each step of spec's dual process is make_step of build_dual of its forward step, and
    the dual step that the forward structure's own decomposition gives, bit for bit."""
    dual = q.build_dual_process(spec)
    assert len(dual.steps) == len(spec.steps)
    for r, (step, fwd) in enumerate(zip(dual.steps, spec.steps[::-1])):
        d = q.build_dual(fwd.map, fwd.structure.pi, spec.symmetry)
        got = step_fields(step)
        for name, want in (("build_dual", q.make_step(d.map, d.pi_dual)),
                           ("carried", carried_decomposition_dual(fwd, spec.symmetry))):
            for field, value in step_fields(want).items():
                assert np.array_equal(got[field], value), (label, r, name, field)


def exchange(d, antiunitary):
    """The symmetry |i> -> |d - 1 - i>: sigma_x at d = 2."""
    return q.SymmetryOp(np.eye(d, dtype=complex)[::-1], antiunitary=antiunitary)


def test_library_dual_steps_take_the_one_path(library):
    for name, spec in library.items():
        assert_one_dual_path(spec, name)
        d = spec.steps[0].map.dim
        for antiunitary in (True, False):
            sym = exchange(d, antiunitary)
            assert d > 2 or np.array_equal(sym.matrix, [[0, 1], [1, 0]])
            assert_one_dual_path(dataclasses.replace(spec, symmetry=sym), (name, antiunitary))


@given(st.integers(2, 16).flatmap(lambda d: st.lists(ladder_maps((d, d)), min_size=1, max_size=3)))
@settings(max_examples=10, deadline=None)
def test_ladder_dual_steps_take_the_one_path(examples):
    # computed states and exact ones as given pis, each process under theta and the exchange
    kmaps = [e.kmap for e in examples]
    steps = q.process.make_steps(kmaps * 2, [None] * len(kmaps) + [e.pi for e in examples])
    d = kmaps[0].dim
    for sym in (None, exchange(d, True), exchange(d, False)):
        spec = q.process_spec(steps, initial_state=np.eye(d) / d, symmetry=sym)
        assert_one_dual_path(spec, (d, sym))
