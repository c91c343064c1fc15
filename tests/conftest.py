"""Shared fixtures: the model library of exactly enumerable processes."""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is first imported (pytest imports
# no numpy before this file): on a busy two-core host a threaded eig of a
# 256x256 superoperator took 1.3 s against 0.11 s on one thread, against the
# wall-time bounds of the acceptance gate.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import qmapft as q  # noqa: E402

LN2 = np.log(2.0)
OMEGA = 1.0

SZ_BASIS = [np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)]
HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def assert_close(got, want, ulps, label=None, scale=None):
    """Assert that got is the reference want up to ulps units of roundoff.

    A unit is float64's machine epsilon times the reference's scale: max |want|
    unless scale is given (an array scales entry by entry).  Shapes, dtypes and
    NaN positions must agree, and integer arrays must be equal.  ulps=0 asks for
    the same bytes, signed zeros included.
    """
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype, label
    if ulps == 0 or not np.issubdtype(want.dtype, np.inexact):
        assert got.tobytes() == want.tobytes(), label
        return
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan), label
    if scale is None:
        scale = np.max(np.abs(want[~nan]), initial=0.0)
    error = np.abs(np.where(nan, 0.0, got - want))
    bound = ulps * np.finfo(float).eps * np.broadcast_to(scale, want.shape)
    worst = np.argmax(error - bound) if error.size else 0
    assert np.all(error <= bound), (label, f"error {error.flat[worst]:.3e} > {bound.flat[worst]:.3e}")


def unital_step(kmap):
    """make_step with pi = 1/N given."""
    return q.make_step(kmap, np.eye(kmap.dim) / kmap.dim)


def gad_step(beta_omega=LN2, gamma=0.5):
    return q.make_step(q.thermal_qubit_map(beta_omega, gamma))


def lindblad_thermal_step(dt=0.01, beta=LN2, omega=OMEGA, rate=0.5):
    h = np.diag([0.0, omega]).astype(complex)
    kmap = q.lindblad_step(h, q.thermal_lindblad_pair(omega, beta, rate), dt)
    return q.make_step(kmap)


def qutrit_lindblad_step(dt=0.01, beta=LN2, omega=OMEGA, rate=0.4):
    """Three-level ladder with one decay/excitation pair per transition."""
    h = np.diag([0.0, omega, 2 * omega]).astype(complex)
    lo = np.zeros((3, 3), complex)
    lo[0, 1] = 1.0
    hi = np.zeros((3, 3), complex)
    hi[1, 2] = 1.0
    ls = []
    for jump in (lo, hi):
        ls.append(np.sqrt(rate) * jump)
        ls.append(np.sqrt(rate * np.exp(-beta * omega)) * jump.conj().T)
    kmap = q.lindblad_step(h, ls, dt)
    return q.make_step(kmap)


def two_reservoir_steps(dt=0.01, omega=OMEGA, rate=0.4):
    h = np.diag([0.0, omega]).astype(complex)
    reservoirs = [
        (q.thermal_lindblad_pair(omega, np.log(2), rate), q.gibbs_state(h, np.log(2))),
        (q.thermal_lindblad_pair(omega, np.log(3), rate), q.gibbs_state(h, np.log(3))),
    ]
    maps = q.multi_reservoir_step(h, reservoirs, dt)
    return [unital_step(m) if i == 0 else q.make_step(m) for i, m in enumerate(maps)]


def model_library() -> dict:
    """Named, exactly enumerable processes spanning the map families."""
    gad = gad_step()
    pi = gad.structure.pi
    rho_a = np.diag([0.9, 0.1]).astype(complex)
    rho_b = np.diag([0.8, 0.2]).astype(complex)
    h_i = np.diag([0.0, OMEGA]).astype(complex)
    h_f = np.diag([0.0, 2 * OMEGA]).astype(complex)

    unital_steps = [
        unital_step(q.unitary_map(HADAMARD)),
        unital_step(q.projective_measurement(SZ_BASIS)),
        unital_step(q.dephasing_map(SZ_BASIS, 0.3)),
    ]
    specs = {
        "gad_stationary_r2": q.process_spec([gad, gad], initial_state=pi),
        "gad_r3": q.process_spec([gad] * 3, initial_state=rho_a),
        "gad_mixed_r4": q.process_spec(
            [gad, gad_step(np.log(3), 0.7), gad, gad_step(LN2, 1.0)],
            initial_state=rho_b,
        ),
        "unital_concat": q.process_spec(unital_steps, initial_state=rho_b),
        "unitary_only": q.process_spec(
            [unital_step(q.unitary_map(np.array([[0, 1], [1, 0]], complex)))],
            initial_state=rho_a,
        ),
        "projective_only": q.process_spec(
            [unital_step(q.projective_measurement([HADAMARD[:, 0], HADAMARD[:, 1]]))],
            initial_state=rho_b,
        ),
        "thermal_equilibrium_same_h": q.process_spec(
            [gad, gad],
            boundary_mode="equilibrium",
            h_initial=h_i,
            h_final=h_i,
            beta=LN2 / OMEGA,
        ),
        "sudden_quench": q.process_spec(
            [unital_step(q.unitary_map(np.eye(2)))],
            boundary_mode="equilibrium",
            h_initial=h_i,
            h_final=h_f,
            beta=LN2 / OMEGA,
        ),
        "quench_then_thermalize": q.process_spec(
            [
                unital_step(q.unitary_map(np.eye(2))),
                q.make_step(q.thermal_qubit_map(2 * LN2, 0.6)),
            ],
            boundary_mode="equilibrium",
            h_initial=h_i,
            h_final=h_f,
            beta=LN2 / OMEGA,
        ),
        "lindblad_r3": q.process_spec(
            [lindblad_thermal_step()] * 3,
            initial_state=np.diag([0.7, 0.3]).astype(complex),
        ),
        "qutrit_lindblad_r2": q.process_spec(
            [qutrit_lindblad_step()] * 2,
            initial_state=np.diag([0.5, 0.3, 0.2]).astype(complex),
        ),
        "two_reservoir_r2": q.process_spec(
            two_reservoir_steps() * 2, initial_state=rho_a
        ),
    }
    return specs


@pytest.fixture(scope="session")
def library() -> dict:
    return model_library()
