"""Property tests over random ladder maps with a known invariant state.

Each example has potentials Phi with gaps of at least 1e-3 and p ∝ e^{-Phi}.
A column-stochastic T with T p = p is a Metropolis chain plus a 3-cycle
circulation, which breaks classical detailed balance.  With a Haar-random U
the Kraus operators sqrt(T_ji) U|j><i|U† each connect exactly one pair of
eigenstates of pi = U diag(p) U†, so operator (j, i) changes the potential by
exactly Phi_j - Phi_i.
"""

from dataclasses import dataclass

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.linalg import frob


@dataclass(frozen=True)
class LadderExample:
    kmap: q.KrausMap
    pi: np.ndarray          # U diag(p) U†, the exact invariant state
    delta_phi: np.ndarray   # Phi_j - Phi_i per operator


def haar_unitary(rng, d):
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    qr, r = np.linalg.qr(z)
    return qr * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def ladder_maps(draw, dims):
    d = draw(st.integers(*dims))
    gaps = draw(st.lists(st.floats(1e-3, 0.25), min_size=d - 1, max_size=d - 1))
    flux = draw(st.floats(0.0, 0.9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = np.concatenate([[0.0], np.cumsum(gaps)])
    p = np.exp(-phi) / np.sum(np.exp(-phi))
    # Metropolis with a uniform proposal: T[j, i] p_i = T[i, j] p_j
    t = np.minimum(1.0, p[:, None] / p[None, :]) / d
    np.fill_diagonal(t, 0.0)
    np.fill_diagonal(t, 1.0 - t.sum(axis=0))
    if d >= 3:
        # probability flux J around a -> b -> c -> a keeps T p = p and the column sums
        a, b, c = rng.choice(d, 3, replace=False)
        j = flux * min(t[i, i] * p[i] for i in (a, b, c))
        for src, dst in ((a, b), (b, c), (c, a)):
            t[dst, src] += j / p[src]
            t[src, src] -= j / p[src]
    u = haar_unitary(rng, d)
    ops, dphi = [], []
    for jj in range(d):
        for ii in range(d):
            ops.append(np.sqrt(t[jj, ii]) * np.outer(u[:, jj], u[:, ii].conj()))
            dphi.append(phi[jj] - phi[ii])
    return LadderExample(q.kraus_map(ops), (u * p) @ u.conj().T, np.array(dphi))


@given(ladder_maps((2, 16)))
@settings(max_examples=25, deadline=None)
def test_random_ladder_map_invariant_state_classification_and_dual(example):
    kmap = example.kmap
    pi = q.invariant_state(kmap)
    assert frob(pi - example.pi) <= 1e-9
    structure = q.build_potential_structure(kmap, pi)
    assert np.max(np.abs(structure.delta_phi - example.delta_phi)) <= 1e-8
    dual = q.build_dual(kmap, pi)
    double = q.build_dual(dual.map, dual.pi_dual)
    assert np.max(np.abs(double.map.operators - kmap.operators)) <= 1e-10
    balance = q.check_detailed_balance(kmap, dual, structure)
    assert np.max(balance.relative_residuals) <= 1e-10


@st.composite
def ladder_chains(draw):
    """One to three ladder maps of one dimension d <= 4, and a seed for the initial state."""
    d = draw(st.integers(2, 4))
    maps = draw(st.lists(ladder_maps((d, d)), min_size=1, max_size=3))
    return maps, draw(st.integers(0, 2**32 - 1))


@given(ladder_chains())
@settings(max_examples=15, deadline=None)
def test_random_ladder_chain_fluctuation_theorems(chain):
    examples, seed = chain
    d = examples[0].kmap.dim
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    spec = q.process_spec([q.make_step(e.kmap) for e in examples],
                          initial_state=rho / np.trace(rho).real)
    integral = q.verify_integral_ft(q.enumerate_trajectories(spec))
    assert integral.deviation <= 1e-12
    assert q.verify_detailed_ft(spec).max_residual <= 1e-9
