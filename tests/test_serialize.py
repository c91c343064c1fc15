"""Report layout and histogram output of the serialize module.

The reference layouts are the hand-written to_dict methods the report
classes had before serialize learned to write dataclasses; the reference
histogram is the per-bin mask loop sigma_histogram_csv had before it
assigned each sample to its bin in one pass.
"""

import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

import qmapft as q
import qmapft.serialize
from qmapft.config import DEFAULT_TOLERANCES
from qmapft.serialize import dumps_report, sigma_histogram_csv

LN2 = np.log(2.0)
GAD = q.thermal_qubit_map(LN2, 0.5)
GAD_PI = q.invariant_state(GAD)
GAD_STRUCTURE = q.build_potential_structure(GAD, GAD_PI)
H = np.diag([0.0, 1.0]).astype(complex)
DOWN = np.array([[0, 1], [0, 0]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)


def old_validation(r):
    return {
        "tp_deviation": r.tp_deviation,
        "tolerance": r.tolerance,
        "trace_preserving": r.trace_preserving,
        "completely_positive": r.completely_positive,
        "passed": r.passed,
    }


def old_commutator(r):
    return {
        "ladder_residuals": list(map(float, r.ladder_residuals)),
        "weight_residuals": list(map(float, r.weight_residuals)),
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def old_balance(r):
    return {
        "residuals": list(map(float, r.residuals)),
        "relative_residuals": list(map(float, r.relative_residuals)),
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def old_independence(r):
    return {
        "delta_phi_sets": [list(map(float, s)) for s in r.delta_phi_sets],
        "max_spread": r.max_spread,
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def old_bohr_ladder(r):
    return {
        "omega": r.omega,
        "residual": r.residual,
        "frequencies": list(map(float, r.frequencies)),
        "f_value": r.f_value,
        "delta_phi": r.delta_phi,
        "potential_residual": r.potential_residual,
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def old_detailed_ft(r):
    return {
        "branch_count": r.branch_count,
        "max_residual": r.max_residual,
        "tolerance": r.tolerance,
        "passed": r.passed,
    }


def old_integral_ft(r):
    return {
        "mode": r.mode,
        "mean_exp_neg_sigma": r.mean_exp_neg_sigma,
        "deviation": r.deviation,
        "mean_sigma": r.mean_sigma,
        "standard_error": r.standard_error,
        "z_score": r.z_score,
    }


def old_work(r):
    return {
        "beta": r.beta,
        "delta_f": r.delta_f,
        "mean_exp_neg_beta_wdiss": r.mean_exp_neg_beta_wdiss,
        "deviation": r.deviation,
        "mean_work": r.mean_work,
        "mean_heat": r.mean_heat,
    }


def old_tolerances(r):
    return asdict(r)


def _work(library):
    spec = library["quench_then_thermalize"]
    return q.work_statistics(spec, q.enumerate_trajectories(spec))


# report type -> (a real instance built from the library, its former to_dict)
REPORTS = {
    "ValidationReport": (lambda lib: q.validate_cptp(GAD), old_validation),
    "ValidationReport-failing": (
        lambda lib: q.validate_cptp(q.kraus_map([0.9 * np.eye(2, dtype=complex)])),
        old_validation,
    ),
    "CommutatorReport": (
        lambda lib: q.check_ladder_commutators(GAD, GAD_STRUCTURE), old_commutator
    ),
    "BalanceReport": (
        lambda lib: q.check_detailed_balance(GAD, q.build_dual(GAD, GAD_PI), GAD_STRUCTURE),
        old_balance,
    ),
    "IndependenceReport": (
        lambda lib: q.delta_phi_pi_independence(GAD, [GAD_PI, GAD_PI]), old_independence
    ),
    "BohrLadderReport": (
        lambda lib: q.check_bohr_ladder(H, DOWN, f=lambda w: LN2 * w, pi=q.gibbs_state(H, LN2)),
        old_bohr_ladder,
    ),
    "BohrLadderReport-mixed": (lambda lib: q.check_bohr_ladder(H, X), old_bohr_ladder),
    "DetailedFTReport": (lambda lib: q.verify_detailed_ft(lib["gad_r3"]), old_detailed_ft),
    "IntegralFTReport-exact": (
        lambda lib: q.verify_integral_ft(q.enumerate_trajectories(lib["gad_r3"])),
        old_integral_ft,
    ),
    "IntegralFTReport-mc": (
        lambda lib: q.verify_integral_ft(q.sample_trajectories(lib["gad_r3"], 500, seed=4)),
        old_integral_ft,
    ),
    "WorkReport": (_work, old_work),
    "Tolerances": (lambda lib: DEFAULT_TOLERANCES, old_tolerances),
    "Tolerances-custom": (lambda lib: q.Tolerances(eps_tp=1e-3, eps_prob=0), old_tolerances),
}


@pytest.mark.parametrize("case", list(REPORTS))
def test_report_objects_serialize_in_their_former_to_dict_layout(library, case):
    build, old_to_dict = REPORTS[case]
    report = build(library)
    assert type(report).__name__ == case.split("-")[0]
    assert not hasattr(report, "to_dict")
    assert dumps_report({"report": report}) == dumps_report({"report": old_to_dict(report)})


def test_complex_arrays_are_not_serialized():
    with pytest.raises(TypeError):
        dumps_report({"pi": np.eye(2, dtype=complex)})


def mask_loop_histogram(ensemble, bin_width):
    """sigma_histogram_csv as it was: one mask pass over every sample per bin."""
    sigmas = ensemble.sigmas()
    if ensemble.mode == "exact":
        weights = ensemble.probabilities()
    else:
        weights = np.full(len(sigmas), 1.0 / len(sigmas))
    lo = np.floor(np.min(sigmas) / bin_width)
    hi = np.floor(np.max(sigmas) / bin_width)
    lines = ["bin_left,bin_right,probability"]
    for b in range(int(lo), int(hi) + 1):
        left = b * bin_width
        right = (b + 1) * bin_width
        mask = (sigmas >= left) & (sigmas < right)
        if b == int(hi):
            mask = (sigmas >= left) & (sigmas <= right)
        p = float(np.sum(weights[mask]))
        lines.append(
            f"{format(left, '.17g')},{format(right, '.17g')},{format(p, '.17g')}"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_single_pass_histogram_matches_mask_loop(library, mode):
    for name, spec in library.items():
        if mode == "exact":
            ensemble = q.enumerate_trajectories(spec)
        else:
            ensemble = q.sample_trajectories(spec, 2000, seed=9)
        for bin_width in (1.0, LN2 / 2, 0.1, 0.013, 1e-3):
            expected = mask_loop_histogram(ensemble, bin_width)
            assert sigma_histogram_csv(ensemble, bin_width) == expected, (name, bin_width)


def test_histogram_edges_drop_and_close_like_mask_loop():
    # At width 0.1 the first edge is 17 * 0.1 = 1.7000000000000002, above the
    # sample at 1.7, which no bin counts; 43 * 0.1 lies on the right edge of the
    # last bin, [42 * 0.1, 43 * 0.1], which is closed.
    sigmas = np.array([1.7, 1.75, 43 * 0.1, 1.8, 1.75])
    probs = np.array([0.125, 0.25, 0.5, 0.0625, 0.0625])
    for mode in ("exact", "mc"):
        ensemble = SimpleNamespace(mode=mode, sigmas=lambda: sigmas, probabilities=lambda: probs)
        for bin_width in (0.1, 0.05, 0.3, 1e-3):
            expected = mask_loop_histogram(ensemble, bin_width)
            assert sigma_histogram_csv(ensemble, bin_width) == expected, (mode, bin_width)
    lines = sigma_histogram_csv(ensemble, 0.1).splitlines()
    assert lines[1] == "1.7000000000000002,1.8,0.40000000000000002"
    assert lines[-1] == "4.2000000000000002,4.2999999999999998,0.20000000000000001"
    assert len(lines) == 1 + 26


def test_histogram_bin_cap(monkeypatch):
    monkeypatch.setattr(qmapft.serialize, "MAX_BINS", 3)
    probs = np.array([0.5, 0.5])
    for top, allowed in ((2.5, True), (3.5, False)):
        ensemble = SimpleNamespace(mode="exact", sigmas=lambda: np.array([0.0, top]),
                                   probabilities=lambda: probs)
        if allowed:
            assert len(sigma_histogram_csv(ensemble, 1.0).splitlines()) == 1 + 3
        else:
            with pytest.raises(q.HistogramTooLarge) as info:
                sigma_histogram_csv(ensemble, 1.0)
            assert info.value.bin_count == 4 and info.value.cap == 3


@pytest.mark.parametrize("width", [0.0, -1.0, math.inf, math.nan])
def test_histogram_bin_width_must_be_positive_and_finite(width):
    ensemble = SimpleNamespace(mode="mc", sigmas=lambda: np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        sigma_histogram_csv(ensemble, width)
