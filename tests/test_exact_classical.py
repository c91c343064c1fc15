"""Classical Markov chains as Kraus maps, against exact rational values.

A column-stochastic T is the Kraus map M_ji = sqrt(T_ji) |j><i|, one operator
per nonzero entry: the setting of the Hatano-Sasa relation (PRL 86, 3463
(2001)).  With rational T and rational boundary populations, every quantity
the oracle computes has an exact value, computed here with fractions.Fraction:

* pi solves T pi = pi with sum pi = 1;
* M_ji changes the potential by ln(pi_i / pi_j);
* the dual step moves j -> i with weight T~[i, j] = T[j, i] pi_i / pi_j;
* a branch n -> ... -> m has p = p_0(n) prod T, its reverse has
  p~ = p_R(m) prod T~, and Sigma = ln(p / p~);
* <e^{-Sigma}> is the dual mass of the reversed branches: 1 minus the dual
  mass that ends on an outcome of zero initial population.

Each float the oracle gives is compared with the exact value, rounded once,
under a bound stated per quantity.  That is a reference outside the oracle's
own floating-point paths: its theorems hold to roundoff for whatever pi it
uses, so only an exact pi shows how far its potentials are from the true ones.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import qmapft as q
from qmapft.process import compile_process

F = Fraction
TOL = q.DEFAULT_TOLERANCES

# Bounds against the exact values, each rounded to float once.  pi comes from GTH
# elimination on the population chain (maps._eliminate), which keeps its relative
# accuracy however nearly decomposable the chain is; p~, Delta Phi and Sigma inherit
# pi's error.  p does not depend on pi.
PI_RTOL = 2e-15          # pi, relative to each entry (4.7e-16 seen, at couplings to 1e-15)
DELTA_PHI_ATOL = 4e-15   # Delta Phi of each operator, absolute (|Delta Phi| < 10 here)
PROB_RTOL = 1e-14        # each branch's p, relative to it
DUAL_PROB_RTOL = 2e-13   # each branch's p~, relative to it
SIGMA_ATOL = 2e-13       # each branch's Sigma, absolute
INTEGRAL_ATOL = 1e-14    # <e^{-Sigma}>, absolute; the exact value is at most 1
RESIDUAL_ATOL = 1e-13    # the detailed-FT residual max |ln(p / p~) - Sigma|; exactly 0
# Pruning is tested only where the exact p is outside this band around eps_prob; p and p~
# carry the relative errors above, so a branch inside it may fall on either side.
PRUNE_BAND = DUAL_PROB_RTOL  # relative to eps_prob

def stochastic(weights):
    """The column-stochastic matrix of nonnegative integer weights, as Fractions; T[j][i]
    is the probability of i -> j."""
    d = len(weights)
    totals = [sum(weights[j][i] for j in range(d)) for i in range(d)]
    return [[F(weights[j][i], totals[i]) for i in range(d)] for j in range(d)]


def stationary(t):
    """The exact pi with T pi = pi and sum pi = 1 of an irreducible T, by Gauss-Jordan
    elimination: the last equation of (T - 1) pi = 0 is replaced by sum pi = 1."""
    d = len(t)
    rows = [[t[j][i] - (i == j) for i in range(d)] + [F(0)] for j in range(d - 1)]
    rows.append([F(1)] * d + [F(1)])
    for c in range(d):
        pivot = next(r for r in range(c, d) if rows[r][c] != 0)
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c] != 0:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


def operators(t):
    """(to, from) of each Kraus operator of T, one per nonzero entry, row by row."""
    d = len(t)
    return [(j, i) for j in range(d) for i in range(d) if t[j][i] != 0]


def kraus(t):
    d = len(t)
    ops = []
    for j, i in operators(t):
        m = np.zeros((d, d))
        m[j, i] = math.sqrt(t[j][i])
        ops.append(m)
    return q.kraus_map(ops)


def branches(weights, ops, start):
    """{(first state, operator indices, last state): probability} of every path of nonzero
    probability; step r applies ops[r][k] = (to, from) with weight weights[r][to][from]."""
    paths = {(s, (), s): p for s, p in enumerate(start) if p}
    for w, op in zip(weights, ops):
        paths = {(first, ks + (k,), j): p * w[j][i]
                 for (first, ks, last), p in paths.items()
                 for k, (j, i) in enumerate(op) if i == last}
    return paths


def evolve(t, p):
    d = len(t)
    return [sum(t[j][i] * p[i] for i in range(d)) for j in range(d)]


def reverse(key):
    """The key of a branch's reverse: the same operators in reverse order, ends swapped."""
    first, ks, last = key
    return (last, ks[::-1], first)


class Exact:
    """The exact quantities of a classical process: T_1 .. T_R, initial populations p_0."""

    def __init__(self, chain, p0):
        self.pis = [stationary(t) for t in chain]
        self.ops = [operators(t) for t in chain]
        p_final = p0
        for t in chain:
            p_final = evolve(t, p_final)
        self.forward = branches(chain, self.ops, p0)
        # the dual process runs the steps in reverse; dual operator k of a step moves
        # along forward operator k backwards, j -> i, with weight T~[i, j]
        dual_weights = [[[t[j][i] * pi[i] / pi[j] for j in range(len(t))] for i in range(len(t))]
                        for t, pi in zip(chain, self.pis)]
        dual_ops = [[(i, j) for j, i in op] for op in self.ops]
        self.dual = branches(dual_weights[::-1], dual_ops[::-1], p_final)

    def delta_phi(self, r):
        pi = self.pis[r]
        return [math.log(pi[i] / pi[j]) for j, i in self.ops[r]]

    def integral(self):
        """<e^{-Sigma}>: the dual mass of the reversed forward branches."""
        return sum(self.dual.get(reverse(key), 0) for key in self.forward)


def spec_of(chain, p0):
    steps = q.process.make_steps([kraus(t) for t in chain], [None] * len(chain))
    return q.process_spec(steps, initial_state=np.diag([float(p) for p in p0]).astype(complex))


def states(basis):
    """The computational state of each measurement-basis column, which must be a unit vector."""
    state = np.argmax(np.abs(basis), axis=0)
    assert np.array_equal(np.abs(basis), np.eye(len(basis))[:, state])
    return state


def keyed(ensemble, bnd):
    """{(first state, operator indices, last state): probability} of an exact ensemble."""
    first, last = states(bnd.initial_basis)[ensemble.n], states(bnd.final_basis)[ensemble.m]
    return {(int(a), tuple(ks), int(b)): p for a, ks, b, p in
            zip(first, ensemble.ks.tolist(), last, ensemble.probability.tolist())}


def assert_rel(got, want, rtol, label):
    want = float(want)
    assert abs(got - want) <= rtol * abs(want), (label, got, want)


def assert_potentials(spec, exact):
    """Each step's pi and Delta Phi against the exact ones."""
    for r, step in enumerate(spec.steps):
        pi = step.structure.pi
        assert np.array_equal(pi, np.diag(np.diag(pi)))
        for got, want in zip(np.diag(pi).real.tolist(), exact.pis[r]):
            assert_rel(got, want, PI_RTOL, ("pi", r))
        error = np.abs(step.structure.delta_phi - exact.delta_phi(r))
        assert error.max() <= DELTA_PHI_ATOL, ("delta_phi", r, error.max())


def assert_process(chain, p0):
    """Every quantity of the process of chain from p0 against its exact value."""
    exact = Exact(chain, p0)
    # no branch is near the pruning floor, and the exact theorems hold
    assert min(exact.forward.values()) > 1e3 * TOL.eps_prob
    assert all(exact.dual[reverse(key)] > 0 for key in exact.forward)
    unpopulated = {s for s, p in enumerate(p0) if p == 0}
    assert exact.integral() == 1 - sum(p for key, p in exact.dual.items() if key[2] in unpopulated)

    spec = spec_of(chain, p0)
    assert_potentials(spec, exact)
    ensemble = q.enumerate_trajectories(spec)
    bnd = compile_process(spec)
    forward = keyed(ensemble, bnd)
    assert forward.keys() == exact.forward.keys()
    for key, p in forward.items():
        assert_rel(p, exact.forward[key], PROB_RTOL, ("p", key))

    dual_spec = q.build_dual_process(spec)
    dual_bnd = dual_spec.boundary
    ones = replace(dual_bnd, final_probs=np.ones_like(dual_bnd.final_probs))
    dual = keyed(q.enumerate_trajectories(replace(dual_spec, boundary=ones)), ones)
    assert dual.keys() == exact.dual.keys()
    for key, p in dual.items():
        assert_rel(p, exact.dual[key], DUAL_PROB_RTOL, ("p~", key))

    sigma = dict(zip(forward, ensemble.sigmas().tolist()))
    for key, p in exact.forward.items():
        want = math.log(p / exact.dual[reverse(key)])
        assert abs(sigma[key] - want) <= SIGMA_ATOL, ("sigma", key, sigma[key], want)

    integral = q.verify_integral_ft(ensemble).mean_exp_neg_sigma
    assert abs(integral - float(exact.integral())) <= INTEGRAL_ATOL, (integral, exact.integral())
    assert q.verify_detailed_ft(spec).max_residual <= RESIDUAL_ATOL


# a generic three-state chain, and blocks {0, 1} and {2} coupled with weight eps,
# whose pi tends to (3/10, 9/20, 1/4) as eps -> 0: no two entries are equal
GENERIC = stochastic([[2, 1, 1], [1, 1, 2], [1, 1, 1]])


def nearly_decomposable(eps):
    return [[F(1, 2), F(1, 3), 2 * eps], [F(1, 2) - eps, F(2, 3) - eps, eps],
            [eps, eps, 1 - 3 * eps]]


HALVES = [F(1, 2), F(1, 3), F(1, 6)]


def test_generic_chain():
    assert_process([GENERIC, nearly_decomposable(F(1, 10)), GENERIC], HALVES)


def test_zero_initial_population():
    # the dual ends on the unpopulated outcome with positive mass, so the exact
    # <e^{-Sigma}> is below 1 by that mass
    chain, p0 = [GENERIC, nearly_decomposable(F(1, 10)), GENERIC], [F(1, 2), F(1, 2), F(0)]
    assert 0 < 1 - Exact(chain, p0).integral() < 1
    assert_process(chain, p0)


def test_nearly_decomposable_chain():
    assert_process([nearly_decomposable(F(1, 10**3))] * 3, HALVES)


@pytest.mark.parametrize("eps", [F(1, 10**6), F(1, 10**9), F(1, 10**12), F(1, 10**15)],
                         ids=["1e-6", "1e-9", "1e-12", "1e-15"])
def test_nearly_decomposable_chain_potentials_at_weak_coupling(eps):
    # the regime where an eigenvalue-1 solve of S loses relative accuracy in pi's small
    # entries, and below eps = 1e-10 sees two fixed points in its window
    chain = [nearly_decomposable(eps)]
    assert_potentials(spec_of(chain, HALVES), Exact(chain, HALVES))


@st.composite
def classical_processes(draw):
    """(T_1 .. T_R, p_0): d <= 4, R <= 3, small integer weights around a cycle
    0 -> 1 -> .. -> d - 1 -> 0, so every T is irreducible and has one positive pi."""
    d, r = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    chain = []
    for _ in range(r):
        weights = draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                                min_size=d, max_size=d))
        for i in range(d):
            weights[(i + 1) % d][i] += 1
        chain.append(stochastic(weights))
    p0 = draw(st.lists(st.integers(0, 3), min_size=d, max_size=d).filter(any))
    return chain, [F(p, sum(p0)) for p in p0]


@given(classical_processes())
@settings(max_examples=40, deadline=None)
def test_random_classical_processes(process):
    chain, p0 = process
    for t in chain:
        # pi entries within 1e-6 of each other are item 8's near-degenerate case
        pi = sorted(stationary(t))
        assume(all(b == a or b - a > 1e-6 * b for a, b in zip(pi, pi[1:])))
    assert_process(chain, p0)


def leaky(a, b):
    """A three-state step with O(1) inflow to every state, so pi is well conditioned, and
    two small entries: 0 -> 2 with weight a and 1 -> 1 with weight b."""
    return [[F(1, 2), F(1, 2) - b, F(1, 3)], [F(1, 2) - a, b, F(1, 3)], [a, F(1, 2), F(1, 3)]]


@pytest.mark.parametrize("a, b, c", [(F(1, 10**5), F(2, 10**5), F(3, 10**8)),
                                     (F(1, 20000), F(7, 10**5), F(1, 10**10))])
def test_pruning_keeps_exactly_the_branches_above_eps_prob(a, b, c):
    # products of the small entries and of the small initial population c put
    # forward and dual branches at about 10 and 0.1 times eps_prob; with c = 1e-10
    # some of those at 0.1 times it reach the last stage, so its own floor drops them
    chain, p0 = [leaky(a, b), leaky(b, a), leaky(a, b)], [F(1, 2) - c, F(1, 2), c]
    exact = Exact(chain, p0)
    eps = F(TOL.eps_prob)
    ratios = [p / eps for p in (*exact.forward.values(), *exact.dual.values())]
    assert any(5 < x < 20 for x in ratios) and any(F(1, 20) < x < F(1, 5) for x in ratios)

    spec = spec_of(chain, p0)
    dual_spec = q.build_dual_process(spec)
    ones = replace(dual_spec.boundary,
                   final_probs=np.ones_like(dual_spec.boundary.final_probs))
    kept = {}
    for label, s, bnd, want in (
            ("forward", spec, compile_process(spec), exact.forward),
            ("dual", replace(dual_spec, boundary=ones), ones, exact.dual)):
        kept[label] = keyed(q.enumerate_trajectories(s), bnd).keys()
        assert kept[label] <= want.keys(), label
        clear = {key for key, p in want.items() if abs(p - eps) > PRUNE_BAND * eps}
        assert kept[label] & clear == {key for key in clear if want[key] > eps}, label
    # the matching finds the reverse of every kept forward branch, though the
    # reverses' amplitudes are read left to right and their prefixes pruned there
    report = q.verify_detailed_ft(spec)
    assert report.branch_count == len(kept["forward"]), report
    assert report.max_residual <= RESIDUAL_ATOL, report


# pi of this chain is exactly (1003/3506, 750/1753, 1003/3506): pi_0 = pi_2
EQUAL_PI = [[F(1, 2), F(1, 3), F(3, 2006)],
            [F(1, 2) - F(1, 1000), F(2, 3) - F(1, 1000), F(1, 1000)],
            [F(1, 1000), F(1, 1000), 1 - F(1, 1000) - F(3, 2006)]]


@pytest.mark.parametrize("steps", [1, 3])
def test_equal_pi_chain_detailed_ft(steps):
    # pi_0 = pi_2: classification groups them and the dual takes the raw pi ratio, so any
    # error in pi beyond roundoff shows in the residual
    assert stationary(EQUAL_PI) == [F(1003, 3506), F(750, 1753), F(1003, 3506)]
    report = q.verify_detailed_ft(spec_of([EQUAL_PI] * steps, HALVES))
    assert report.max_residual <= RESIDUAL_ATOL, report
