"""Metamorphic relations: invariances of the fluctuation theorems as oracles.

Two runs of the oracle on inputs whose answers must agree are compared with
each other, with no reference implementation:

- relabelling: permuting one step's Kraus operators permutes the outcome
  codes and changes nothing else;
- identity insertion: a unital K = 1 identity step changes no row's code,
  probability or entropy production;
- basis covariance: rotating every operator, both boundaries and the symmetry
  by one unitary V changes no row's code, and each row's probability and
  entropy production only by roundoff.  The rotated maps are no longer of
  ladder pattern, so their invariant states come from an SVD of S - 1, not GTH;
- Kraus splitting: M_k -> (cos a M_k, sin a M_k) is the same channel, so it
  keeps pi, gives each copy M_k's potential change, splits each row through
  M_k into two of probability cos^2 a p and sin^2 a p, and keeps every other
  row, each row's entropy production and <e^{-Sigma}>;
- time reversal: the dual of the dual process is the process.

The processes are the model library and benchmark ladders (perfbench.gen)
with d <= 8 and R <= 3: fixed ones, and for the Hypothesis tests drawn ones.
"""

from __future__ import annotations

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from conftest import assert_close, model_library, unital_step
from qmapft.process import EQUILIBRIUM, BoundaryData, with_steps
from qmapft.serialize import load_process_file
from test_ladder_properties import haar_unitary
from test_maps import population_block

# name: (d, R, equilibrium boundary, generator seed)
LADDERS = {"ladder_d3_r2": (3, 2, False, 1), "ladder_d4_r3": (4, 3, False, 2),
           "ladder_d5_r3_eq": (5, 3, True, 3), "ladder_d8_r2": (8, 2, False, 4),
           "ladder_d8_r3": (8, 3, False, 5), "ladder_d8_r2_eq": (8, 2, True, 6)}
LIBRARY = model_library()
NAMES = list(LIBRARY) + list(LADDERS)


def ladder_process(d, r, equilibrium, seed):
    """The benchmark's ladder process of R lindblad_step steps of dimension d, read back from
    the file its generator writes."""
    from perfbench.gen import ladder_verify

    with tempfile.TemporaryDirectory() as tmp:
        op = ladder_verify(d, r, equilibrium).make(np.random.default_rng(seed),
                                                   Path(tmp) / "ladder")
        return load_process_file(op.path)[0]


@pytest.fixture(scope="module")
def processes():
    return {**LIBRARY, **{name: ladder_process(*shape) for name, shape in LADDERS.items()}}


@st.composite
def drawn_processes(draw):
    """(label, spec): a process of the model library, or a benchmark ladder with d <= 8 and
    R <= 3 from a drawn seed."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(LIBRARY)))
        return name, LIBRARY[name]
    shape = (draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.booleans()),
             draw(st.integers(0, 2**32 - 1)))
    return shape, ladder_process(*shape)


def dimension(spec) -> int:
    return len(spec.boundary.initial_basis)


def is_unital(step) -> bool:
    d = step.map.dim
    return np.array_equal(step.structure.pi, np.eye(d) / d)


def remade(step, kmap):
    """kmap made into a step as step was: with pi = 1/N if that was unital, else with its
    invariant state computed again."""
    return unital_step(kmap) if is_unital(step) else q.make_step(kmap)


def relabelled(spec, r, perm):
    """spec with step r's operators reordered, its operator j being the old operator
    perm[j]; the step is made as the old one was (remade)."""
    step = spec.steps[r]
    kmap = q.kraus_map(step.map.operators[perm], labels=[step.map.labels[j] for j in perm])
    steps = list(spec.steps)
    steps[r] = remade(step, kmap)
    return with_steps(spec, steps)


def with_identity(spec, r):
    """spec with a unital identity step inserted before step r."""
    identity = unital_step(q.kraus_map([np.eye(dimension(spec))]))
    return with_steps(spec, spec.steps[:r] + (identity,) + spec.steps[r:])


def row_keys(spec, ens, r=None, perm=None):
    """One integer key (n, k_1 .. k_R, m) per row, step r's labels read through perm."""
    ks = ens.ks.copy()
    if perm is not None:
        ks[:, r] = perm[ks[:, r]]
    code = ens.n.copy()
    for step, column in zip(spec.steps, ks.T):
        code = code * len(step.map) + column
    return code * dimension(spec) + ens.m


def shuffle(rng, k: int) -> np.ndarray:
    """A random k-cycle of range(k), which moves every index when k > 1."""
    order, perm = rng.permutation(k), np.empty(k, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    return perm


@pytest.mark.parametrize("name", NAMES)
def test_relabelling_permutes_the_codes_and_nothing_else(processes, name):
    spec = processes[name]
    ens = q.enumerate_trajectories(spec)
    keys, detailed = row_keys(spec, ens), q.verify_detailed_ft(spec)
    rng = np.random.default_rng(NAMES.index(name))
    for r in range(len(spec.steps)):
        perm = shuffle(rng, len(spec.steps[r].map))
        other = relabelled(spec, r, perm)
        before, after = spec.steps[r].structure, other.steps[r].structure
        # pi is computed again from the reordered operators, whose sums may round otherwise;
        # the evolved final state does, so the final basis moves by roundoff.  Largest
        # differences seen: pi and delta_phi none, p 1.7 eps relative, Sigma 1 eps, the
        # detailed residual 0.25 eps
        assert_close(after.pi, before.pi, 4, (name, r))
        assert_close(after.delta_phi, before.delta_phi[perm], 4, (name, r), scale=1.0)
        ens2 = q.enumerate_trajectories(other)
        keys2 = row_keys(spec, ens2, r, perm)
        order = np.argsort(keys2)
        assert np.array_equal(keys2[order], keys), (name, r)
        assert_close(ens2.probability[order], ens.probability, 8, (name, r),
                     scale=ens.probability)
        assert_close(ens2.sigmas()[order], ens.sigmas(), 8, (name, r), scale=1.0)
        assert_close(q.verify_detailed_ft(other).max_residual, detailed.max_residual, 8,
                     (name, r), scale=1.0)


@pytest.mark.parametrize("name", NAMES)
def test_identity_insertion_changes_no_row(processes, name):
    spec = processes[name]
    ens = q.enumerate_trajectories(spec)
    detailed = q.verify_detailed_ft(spec)
    for r in range(len(spec.steps) + 1):
        other = with_identity(spec, r)
        identity = other.steps[r].structure
        assert np.array_equal(identity.delta_phi, [0.0]), (name, r)
        ens2 = q.enumerate_trajectories(other)
        # 1 * x and x + 0 are exact: the same rows, in the same order, with the same numbers
        assert np.array_equal(ens2.labels, ens.labels), (name, r)
        assert np.array_equal(ens2.n, ens.n) and np.array_equal(ens2.m, ens.m), (name, r)
        assert np.array_equal(np.delete(ens2.ks, r, axis=1), ens.ks), (name, r)
        assert not ens2.ks[:, r].any(), (name, r)
        assert np.array_equal(ens2.probability, ens.probability), (name, r)
        assert np.array_equal(ens2.sigmas(), ens.sigmas()), (name, r)
        # the dual of the identity is built through pi^(1/2) and pi^(-1/2), so it is the
        # identity up to roundoff: residuals differed by at most 3.2 eps
        assert_close(q.verify_detailed_ft(other).max_residual, detailed.max_residual, 16,
                     (name, r), scale=1.0)


def rotated(spec, v):
    """spec seen in the basis v: every operator M -> v M v†, the initial state or both
    Hamiltonians likewise, and the symmetry Theta = U K -> v Theta v† = v U v^T K (v U v†
    for a unitary one); each step is made as the old one was, as in relabelled."""
    steps = [remade(step, q.kraus_map(v @ step.map.operators @ v.conj().T, step.map.labels))
             for step in spec.steps]
    sym = spec.symmetry
    symmetry = q.SymmetryOp(v @ sym.matrix @ (v.T if sym.antiunitary else v.conj().T),
                            antiunitary=sym.antiunitary)
    if spec.boundary_mode == EQUILIBRIUM:
        return q.process_spec(steps, EQUILIBRIUM, h_initial=v @ spec.h_initial @ v.conj().T,
                              h_final=v @ spec.h_final @ v.conj().T, beta=spec.beta,
                              symmetry=symmetry)
    return q.process_spec(steps, initial_state=v @ spec.initial_state @ v.conj().T,
                          symmetry=symmetry)


# A boundary state with a repeated eigenvalue has no preferred basis in that eigenspace, so
# the rotated run measures in another one and its rows are not the original's
DEGENERATE_BOUNDARY = {"unital_concat", "projective_only"}
COVARIANT = [name for name in NAMES if name not in DEGENERATE_BOUNDARY]


@pytest.mark.parametrize("name", COVARIANT)
def test_basis_covariance_keeps_every_row(processes, name):
    spec = processes[name]
    for probs in (spec.boundary.initial_probs, spec.boundary.final_probs):
        assert np.min(np.diff(np.sort(probs))) > 1e-6, name
    v = haar_unitary(np.random.default_rng(NAMES.index(name)), dimension(spec))
    other = rotated(spec, v)
    assert all(population_block(step.map) is None or is_unital(step)
               for step in other.steps), name
    ens, ens2 = q.enumerate_trajectories(spec), q.enumerate_trajectories(other)
    assert np.array_equal(row_keys(other, ens2), row_keys(spec, ens)), name
    # the rotated pi is an SVD's, against GTH's on the original side, so delta_phi and Sigma
    # move by its error.  Largest differences seen: p 23 eps relative, Sigma 1915 eps
    # (4.3e-13, two_reservoir_r2); over 13 Haar draws per process 41 eps and 3859 eps
    assert_close(ens2.probability, ens.probability, 64, name, scale=ens.probability)
    assert_close(ens2.sigmas(), ens.sigmas(), 8192, name, scale=1.0)
    # both sides pass the detailed FT at roundoff, so the disagreement above passes every
    # check: largest residuals seen 7.3 eps unrotated, 60 eps rotated (98 over 13 draws)
    for process in (spec, other):
        assert q.verify_detailed_ft(process).max_residual <= 256 * np.finfo(float).eps, name


# No pruning floor: a copy of a row just above eps_prob could fall below it while the row
# stays, so with the default floor the two enumerations need not have matching rows
NO_FLOOR = q.Tolerances(eps_prob=0.0)


@given(drawn_processes(), st.data())
@settings(max_examples=30, deadline=None)
def test_kraus_splitting_splits_p_and_keeps_the_rest(drawn, data):
    label, spec = drawn
    r = data.draw(st.integers(0, len(spec.steps) - 1), label="step")
    step = spec.steps[r]
    k = data.draw(st.integers(0, len(step.map) - 1), label="operator")
    alpha = data.draw(st.floats(0.05, np.pi / 2 - 0.05), label="alpha")
    ops = step.map.operators
    split = q.kraus_map(np.concatenate(
        [ops[:k], [np.cos(alpha) * ops[k], np.sin(alpha) * ops[k]], ops[k + 1:]]))
    steps = list(spec.steps)
    steps[r] = remade(step, split)
    # the channel is the same, so its boundary is: kept, not evolved again through the split
    other = dataclasses.replace(spec, steps=tuple(steps))
    perm = np.r_[0:k + 1, k:len(ops)]  # the split step's operator j is the old perm[j]
    # pi is computed again from the split operators, whose sums round otherwise.  Largest
    # differences seen over 300 draws: pi 2.4 eps, delta_phi 3 eps
    before, after = step.structure, other.steps[r].structure
    assert_close(after.pi, before.pi, 8, label)
    assert_close(after.delta_phi, before.delta_phi[perm], 8, label, scale=1.0)
    ens = q.enumerate_trajectories(spec, NO_FLOOR)
    ens2 = q.enumerate_trajectories(other, NO_FLOOR)
    keys, keys2 = row_keys(spec, ens), row_keys(spec, ens2, r, perm)
    # each row of the split process is a copy of one row of the process, and each row
    # through M_k has its two copies: row[i] is the process's row of the split one's row i
    row = np.searchsorted(keys, keys2)
    assert np.array_equal(keys[row], keys2), label
    copies = np.bincount(row, minlength=len(keys))
    assert np.array_equal(copies, np.where(ens.ks[:, r] == k, 2, 1)), label
    # through the first copy p is cos^2 a times the row's, through the second sin^2 a times
    # it; summed over its copies, each row keeps its p, and each copy has the row's Sigma, so
    # the distribution of (n, sum delta_phi, m) is kept.  Largest differences seen over 300
    # draws: p 4.6 eps relative, summed p 4.1 eps, Sigma 3 eps, <e^{-Sigma}> 2.5 eps
    share = np.select([ens2.ks[:, r] == k, ens2.ks[:, r] == k + 1],
                      [np.cos(alpha) ** 2, np.sin(alpha) ** 2], 1.0)
    want = share * ens.probability[row]
    assert_close(ens2.probability, want, 16, label, scale=want)
    summed = np.bincount(row, ens2.probability, len(keys))
    assert_close(summed, ens.probability, 16, label, scale=ens.probability)
    assert_close(ens2.sigmas(), ens.sigmas()[row], 8, label, scale=1.0)
    means = [q.verify_integral_ft(e).mean_exp_neg_sigma for e in (ens, ens2)]
    assert_close(means[1], means[0], 8, label, scale=1.0)


@given(drawn_processes())
@settings(max_examples=30, deadline=None)
def test_dual_of_the_dual_process_is_the_process(drawn):
    label, spec = drawn
    back = q.build_dual_process(q.build_dual_process(spec))
    # Theta is complex conjugation, an involution: the boundary comes back bit for bit, and
    # so does each pi, transformed twice.  Each operator goes through pi^(1/2) and pi^(-1/2)
    # twice.  Largest differences seen over 300 draws: operators 2.1 eps, p 10.1 eps
    # relative, delta_phi and Sigma none
    for field in dataclasses.fields(BoundaryData):
        assert np.array_equal(getattr(back.boundary, field.name),
                              getattr(spec.boundary, field.name)), (label, field.name)
    for r, (got, want) in enumerate(zip(back.steps, spec.steps)):
        assert np.array_equal(got.structure.pi, want.structure.pi), (label, r)
        assert_close(got.structure.delta_phi, want.structure.delta_phi, 4, (label, r), scale=1.0)
        assert_close(got.map.operators, want.map.operators, 8, (label, r))
    ens, ens2 = q.enumerate_trajectories(spec), q.enumerate_trajectories(back)
    assert np.array_equal(row_keys(back, ens2), row_keys(spec, ens)), label
    assert_close(ens2.probability, ens.probability, 32, label, scale=ens.probability)
    assert_close(ens2.sigmas(), ens.sigmas(), 4, label, scale=1.0)
