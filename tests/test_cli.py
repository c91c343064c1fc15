import gc
import json
import math
import re
import sys
import warnings
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import qmapft as q
import qmapft.cli
import qmapft.maps
import qmapft.process
from qmapft.cli import main
from qmapft.config import finite_real
from test_potential import EDGE_TOLERANCES, shifted_pi
from test_process import smallest_reverse_branch
from test_ladder_properties import haar_unitary
from qmapft.serialize import (
    collector_paused,
    dumps_report,
    load_map_file,
    load_process_file,
    map_from_json,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    sigma_histogram_csv,
)

LN2 = np.log(2.0)


def write_gad_map(path, beta_omega=LN2, gamma=0.5):
    kmap = q.thermal_qubit_map(beta_omega, gamma)
    path.write_text(json.dumps(map_to_json(kmap)))
    return kmap


def write_gad_process(path, steps=2):
    data = {
        "steps": [{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5}] * steps,
        "initial_state": matrix_to_json(np.diag([0.9, 0.1])),
    }
    path.write_text(json.dumps(data))


def test_matrix_round_trip():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)


def test_matrix_from_json_malformed():
    with pytest.raises(q.ProcessFileError):
        matrix_from_json([[1.0, 2.0]])  # entries must be [re, im] pairs


def test_map_round_trip():
    kmap = q.thermal_qubit_map(LN2, 0.5)
    back = map_from_json(map_to_json(kmap))
    assert back.labels == kmap.labels
    for a, b in zip(back.operators, kmap.operators):
        assert np.array_equal(a, b)


def test_map_from_json_dim_mismatch():
    data = map_to_json(q.thermal_qubit_map(LN2, 0.5))
    data["dim"] = 3
    with pytest.raises(q.ProcessFileError):
        map_from_json(data)


def test_load_map_file_reports_line_and_column(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"operators": [\n  broken\n]}')
    with pytest.raises(q.ProcessFileError) as info:
        load_map_file(bad)
    assert "line 2" in str(info.value)


def test_load_process_file_models(tmp_path):
    path = tmp_path / "proc.json"
    write_gad_process(path)
    spec, raw = load_process_file(path)
    assert len(spec.steps) == 2
    assert spec.boundary_mode == "entropic"
    assert raw["steps"][0]["model"] == "thermal_qubit"


def test_load_process_file_map_file_reference(tmp_path):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    proc = tmp_path / "proc.json"
    proc.write_text(
        json.dumps(
            {
                "steps": [{"map_file": "gad.json"}],
                "initial_state": matrix_to_json(np.diag([0.8, 0.2])),
            }
        )
    )
    spec, _ = load_process_file(proc)
    assert len(spec.steps) == 1 and spec.steps[0].map.dim == 2


def test_load_process_file_missing_key(tmp_path):
    proc = tmp_path / "proc.json"
    proc.write_text(json.dumps({"steps": [], "boundary_mode": "equilibrium"}))
    with pytest.raises(q.ProcessFileError):
        load_process_file(proc)


def test_dumps_report_float_precision():
    text = dumps_report({"x": 1 / 3})
    assert "0.33333333333333331" in text
    assert json.loads(text)["x"] == 1 / 3


def test_sigma_histogram_probabilities_sum_to_one():
    step = q.make_step(q.thermal_qubit_map(LN2, 0.5))
    spec = q.process_spec([step] * 2, initial_state=np.diag([0.9, 0.1]).astype(complex))
    csv = sigma_histogram_csv(q.enumerate_trajectories(spec), 0.25)
    lines = csv.strip().splitlines()
    assert lines[0] == "bin_left,bin_right,probability"
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cli_validate_ok(tmp_path, capsys):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    assert main(["validate", str(map_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema_version"] == 1
    assert report["validate"]["passed"] is True


def test_cli_validate_trace_decreasing(tmp_path):
    bad = q.kraus_map([0.9 * np.eye(2, dtype=complex)])
    path = tmp_path / "bad_map.json"
    path.write_text(json.dumps(map_to_json(bad)))
    assert main(["validate", str(path)]) == 1


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_verify_process_parse_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"steps": [\n  {"model": "thermal_qubit",,}\n]}')
    assert main(["verify", str(broken)]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "line 2, column 29" in err

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["verify", str(not_object)]) == 2
    assert "must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "sample"])
@pytest.mark.parametrize(
    "option",
    [["--samples", "0"], ["--samples", "-5"], ["--bin-width", "0"], ["--bin-width", "-0.5"],
     # inf once wrote the CSV line nan,inf,0, which drops all of the probability
     ["--bin-width", "inf"], ["--bin-width", "nan"]],
    ids=["samples-zero", "samples-negative", "bin-width-zero", "bin-width-negative",
         "bin-width-inf", "bin-width-nan"],
)
def test_cli_rejects_non_positive_samples_and_bin_width(tmp_path, capsys, command, option):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    hist = tmp_path / "hist.csv"
    with pytest.raises(SystemExit) as info:
        main([command, str(proc), "--hist", str(hist)] + option)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert f"{option[0]}: must be positive" in captured.err
    assert captured.out == "" and not hist.exists()


def test_cli_classify_gad(tmp_path, capsys):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    assert main(["classify", str(map_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    dphi = report["classify"]["structure"]["delta_phi"]
    assert sorted(dphi) == pytest.approx([-LN2, 0.0, 0.0, LN2], abs=1e-12)


def test_cli_classify_degenerate_needs_pi(tmp_path, capsys):
    proj = q.projective_measurement(
        [np.array([1, 0], complex), np.array([0, 1], complex)]
    )
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(map_to_json(proj)))
    assert main(["classify", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert "--pi" in captured.err and "--unital" in captured.err


def test_cli_classify_degenerate_with_unital_flag(tmp_path):
    proj = q.projective_measurement(
        [np.array([1, 0], complex), np.array([0, 1], complex)]
    )
    path = tmp_path / "proj.json"
    path.write_text(json.dumps(map_to_json(proj)))
    assert main(["classify", str(path), "--unital"]) == 0


def test_cli_dual_writes_map(tmp_path):
    map_path = tmp_path / "gad.json"
    kmap = write_gad_map(map_path)
    out = tmp_path / "dual.json"
    assert main(["dual", str(map_path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    dual = map_from_json(report["dual"]["map"])
    perm = [0, 3, 2, 1]
    for k, p in enumerate(perm):
        assert np.allclose(dual.operators[k], kmap.operators[p], atol=1e-12)


def test_cli_verify_exact(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    assert main(["verify", str(proc)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verify"]["integral_ft"]["deviation"] <= 1e-12
    assert report["verify"]["detailed_ft"]["passed"] is True


def test_cli_exact_verify_resolves_the_boundary_once(tmp_path, monkeypatch):
    # the forward enumeration, the dual and the detailed-FT matching all read the
    # boundary the loaded spec carries: rho_i evolves once through the R steps,
    # and rho_i and the evolved state are each decomposed once, in maps or in process.
    # The steps' states take one stacked decomposition when they are classified, one
    # when the dual process checks them again, and the dual states one when the dual
    # steps are checked and classified as any steps are
    r = 5
    proc = tmp_path / "proc.json"
    write_gad_process(proc, steps=r)
    spec, _ = load_process_file(proc)
    rho_f = spec.initial_state
    for step in spec.steps:
        rho_f = q.apply_map(step.map, rho_f)
    evolved, decomposed = [], []

    def spy(name, state_arg, seen):
        real = getattr(qmapft.process, name)

        def call(*args, **kwargs):
            seen.append(np.array(args[state_arg]))
            return real(*args, **kwargs)

        monkeypatch.setattr(qmapft.process, name, call)

    spy("apply_map", 1, evolved)
    spy("hermitian_eig", 0, decomposed)
    # rho_i's positivity test in maps takes the decomposition the boundary reads
    real_eig = qmapft.maps.hermitian_eig
    monkeypatch.setattr(qmapft.maps, "hermitian_eig",
                        lambda a, *rest: decomposed.append(np.array(a)) or real_eig(a, *rest))
    assert main(["verify", str(proc), "--out", str(tmp_path / "report.json")]) == 0
    assert len(evolved) == r
    assert len(decomposed) == 5
    assert np.array_equal(decomposed[0], spec.initial_state)
    states = np.array([s.structure.pi for s in spec.steps])
    assert np.array_equal(decomposed[1], states)  # one stacked decomposition
    assert np.array_equal(decomposed[2], rho_f)
    assert np.array_equal(decomposed[3], states[::-1])
    assert np.array_equal(decomposed[4], states[::-1].conj())  # theta's A pi A†


def test_cli_verify_resource_cap(tmp_path, capsys):
    proc = tmp_path / "big.json"
    data = {
        # 16 four-operator steps: 4 * 4^16 > the default branch cap
        "steps": [{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5}] * 16,
        "initial_state": matrix_to_json(np.diag([0.9, 0.1])),
    }
    proc.write_text(json.dumps(data))
    assert main(["verify", str(proc)]) == 4


def test_cli_verify_mc_reports_byte_identical(tmp_path):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["verify", str(proc), "--mode", "mc", "--samples", "2000", "--seed", "42"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_sample_histogram(tmp_path):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    hist = tmp_path / "hist.csv"
    out = tmp_path / "report.json"
    assert (
        main(
            [
                "sample", str(proc), "--samples", "1000", "--seed", "1",
                "--out", str(out), "--hist", str(hist), "--bin-width", "0.5",
            ]
        )
        == 0
    )
    lines = hist.read_text().strip().splitlines()
    assert lines[0] == "bin_left,bin_right,probability"
    total = sum(float(line.split(",")[2]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_cli_tolerances_override(tmp_path, capsys):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps({"eps_tp": 1e-3}))
    assert main(["--tolerances", str(tol_path), "validate", str(map_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tolerances"]["eps_tp"] == 1e-3


def test_cli_mc_reports_record_rng_scheme(tmp_path):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    reports = {}
    for name, argv in {
        "verify-mc": ["verify", str(proc), "--mode", "mc", "--samples", "500"],
        "sample": ["sample", str(proc), "--samples", "500"],
        "verify-exact": ["verify", str(proc)],
    }.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--out", str(out)]) == 0
        reports[name] = json.loads(out.read_text())
    assert reports["verify-mc"]["verify"]["rng_scheme"] == "philox-rows"
    assert reports["sample"]["sample"]["rng_scheme"] == "philox-rows"
    assert "rng_scheme" not in reports["verify-exact"]["verify"]


def write_process_with(path, **settings):
    write_gad_process(path)
    data = json.loads(path.read_text())
    data.update(settings)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("command", [["verify", "--mode", "mc"], ["sample"]],
                         ids=["verify", "sample"])
@pytest.mark.parametrize("samples", [0, -3, 2.5, "100", True])
def test_cli_rejects_bad_samples_in_process_file(tmp_path, capsys, command, samples):
    proc = tmp_path / "proc.json"
    write_process_with(proc, samples=samples)
    assert main([command[0], str(proc)] + command[1:]) == 2
    err = capsys.readouterr().err
    assert "parse error" in err and "'samples' must be a positive integer" in err


@pytest.mark.parametrize("command", [["verify", "--mode", "mc"], ["sample"]],
                         ids=["verify", "sample"])
def test_cli_seed_must_be_a_philox_key(tmp_path, capsys, command):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    base = [command[0], str(proc)] + command[1:] + ["--samples", "200"]
    for seed in ["-1", str(2**128), "1.5", "x"]:
        with pytest.raises(SystemExit) as info:
            main(base + ["--seed", seed])
        assert info.value.code == 2
        assert "--seed: must be an integer in [0, 2**128)" in capsys.readouterr().err
    for seed in [-1, 2**128, 1.5]:
        write_process_with(proc, seed=seed)
        assert main(base) == 2
        assert "'seed' must be an integer in [0, 2**128)" in capsys.readouterr().err
    write_process_with(proc, seed=2**128 - 1)
    assert main(base + ["--out", str(tmp_path / "top.json")]) == 0


def test_cli_verify_with_eps_prob_at_a_reverse_branch(tmp_path, capsys):
    proc_path, tol_path, out = tmp_path / "proc.json", tmp_path / "tol.json", tmp_path / "r.json"
    write_gad_process(proc_path)
    t, p_rev = smallest_reverse_branch(load_process_file(proc_path)[0])
    assert p_rev < t.probability
    tol_path.write_text(json.dumps({"eps_prob": p_rev}))
    argv = ["--tolerances", str(tol_path), "verify", str(proc_path), "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and not out.exists()
    assert len(lines) == 1 and lines[0].startswith("error:") and str(t.key()) in lines[0]
    tol_path.write_text(json.dumps({"eps_prob": float(np.nextafter(p_rev, 0))}))
    assert main(argv) == 0
    assert json.loads(out.read_text())["verify"]["detailed_ft"]["max_residual"] <= 1e-9


def test_cli_calls_in_one_process_share_no_state(tmp_path, capsys):
    proc, tol_path = tmp_path / "proc.json", tmp_path / "tol.json"
    write_process_with(proc, seed=3, samples=20)
    tol_path.write_text(json.dumps({"eps_tp": 1e-3}))

    def report(*argv):
        out = tmp_path / "out.json"
        assert main(list(argv) + ["--out", str(out)]) == 0
        return json.loads(out.read_text())

    flagged = report("--tolerances", str(tol_path), "sample", str(proc), "--seed", "5",
                     "--samples", "10")["sample"]
    assert (flagged["seed"], flagged["samples"]) == (5, 10)
    plain = report("sample", str(proc))
    assert (plain["sample"]["seed"], plain["sample"]["samples"]) == (3, 20)
    assert plain["tolerances"]["eps_tp"] == q.DEFAULT_TOLERANCES.eps_tp
    assert report("verify", str(proc), "--mode", "mc")["verify"]["mode"] == "mc"
    exact = report("verify", str(proc))["verify"]
    assert exact["mode"] == "exact" and "detailed_ft" in exact and "samples" not in exact


def test_cli_pi_file_parse_error(tmp_path, capsys):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    pi_path = tmp_path / "broken.json"
    pi_path.write_text("[[[1, 0], [0, 0]],")
    assert main(["classify", str(map_path), "--pi", str(pi_path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_tolerances_file_parse_errors(tmp_path, capsys):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    tol_path = tmp_path / "tol.json"
    for text, message in [
        (json.dumps({"eps_tp": 1e-3, "eps_bogus": 1e-3}), "unknown tolerance 'eps_bogus'"),
        (json.dumps([1e-3]), "must be a JSON object"),
        (json.dumps({"eps_tp": "small"}), "tolerance 'eps_tp' must be a number"),
    ]:
        tol_path.write_text(text)
        assert main(["--tolerances", str(tol_path), "validate", str(map_path)]) == 2
        err = capsys.readouterr().err
        assert "parse error" in err and message in err


def test_cli_eps_eig_is_not_a_tolerance(tmp_path, capsys):
    # it set a threshold that nothing read; reports no longer list it
    map_path, tol_path = tmp_path / "gad.json", tmp_path / "tol.json"
    write_gad_map(map_path)
    assert main(["validate", str(map_path)]) == 0
    assert "eps_eig" not in json.loads(capsys.readouterr().out)["tolerances"]
    tol_path.write_text(json.dumps({"eps_eig": 1e-12}))
    assert main(["--tolerances", str(tol_path), "validate", str(map_path)]) == 2
    assert "unknown tolerance 'eps_eig'" in assert_one_parse_error(capsys, tol_path)


def test_cli_verify_with_every_branch_pruned(tmp_path, capsys):
    proc_path = tmp_path / "proc.json"
    write_gad_process(proc_path, steps=3)
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps({"eps_prob": 0.9}))
    assert main(["--tolerances", str(tol_path), "verify", str(proc_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "eps_prob" in lines[0]


EQUILIBRIUM_BOUNDARY = {
    "boundary_mode": "equilibrium",
    "H_i": matrix_to_json(np.diag([0.0, 1.0])),
    "H_f": matrix_to_json(np.diag([0.0, 2.0])),
    "beta": 0.5,
}
GAD_MAP = map_to_json(q.thermal_qubit_map(LN2, 0.5))
LINDBLAD_STEP = {
    "model": "lindblad_step",
    "H": matrix_to_json(np.diag([0.0, 1.0])),
    "lindblads": [matrix_to_json(np.array([[0, 1], [0, 0]]))],
    "dt": 0.1,
}

# process-file content that builds nothing: each once ended in a ValueError or
# TypeError traceback
BAD_PROCESS_SETTINGS = {
    "beta-not-a-number": dict(EQUILIBRIUM_BOUNDARY, beta="abc"),
    "unknown-boundary-mode": dict(EQUILIBRIUM_BOUNDARY, boundary_mode="bogus"),
    "beta-omega-not-a-number": {
        "steps": [{"model": "thermal_qubit", "beta_omega": "x", "gamma": 0.5}]},
    "gamma-above-one": {"steps": [{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 2}]},
    "negative-dt": {"steps": [dict(LINDBLAD_STEP, dt=-1)]},
    "initial-trace-0.6": {"initial_state": matrix_to_json(np.diag([0.5, 0.1]))},
    "more-labels-than-operators": {
        "steps": [{"map": dict(GAD_MAP, labels=["a", "b", "c", "d", "e"])}]},
    "no-operators": {"steps": [{"map": dict(GAD_MAP, operators=[])}]},
    "dim-not-a-number": {"steps": [{"map": dict(GAD_MAP, dim="x")}]},
    # these passed through int(), float() or bool() and built something else
    "dim-not-an-integer": {"steps": [{"map": dict(GAD_MAP, dim=2.7)}]},
    "dim-a-string-of-digits": {"steps": [{"map": dict(GAD_MAP, dim="2")}]},
    "dim-true": {"steps": [{"map": dict(GAD_MAP, dim=True)}]},
    "beta-a-string-of-digits": dict(EQUILIBRIUM_BOUNDARY, beta="0.5"),
    "beta-nan": dict(EQUILIBRIUM_BOUNDARY, beta=float("nan")),
    "beta-infinity": dict(EQUILIBRIUM_BOUNDARY, beta=float("inf")),
    "unital-a-string": {"steps": [
        {"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5, "unital": "false"}]},
    "antiunitary-a-string": {"symmetry": {"matrix": matrix_to_json(np.eye(2)),
                                          "antiunitary": "false"}},
    # this one was reported as a missing 'H_i'
    "unknown-boundary-mode-with-initial-state": {"boundary_mode": "bogus"},
    # these two once printed their parse error without the file's name
    "unknown-model": {"steps": [{"model": "bogus"}]},
    "step-without-a-map": {"steps": [{"pi": matrix_to_json(np.eye(2) / 2)}]},
}


def assert_one_parse_error(capsys, path) -> str:
    """The one stderr line of a parse error naming the file; nothing on stdout."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("parse error:"), captured.err
    assert str(path) in lines[0] and "Traceback" not in captured.err
    return lines[0]


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("case", list(BAD_PROCESS_SETTINGS))
def test_cli_bad_values_in_process_file_are_parse_errors(tmp_path, capsys, case, mode):
    proc = tmp_path / "proc.json"
    write_process_with(proc, **BAD_PROCESS_SETTINGS[case])
    assert main(["verify", str(proc), "--mode", mode, "--samples", "100"]) == 2
    assert_one_parse_error(capsys, proc)


@pytest.mark.parametrize("dt", [float("inf"), float("nan")], ids=["infinity", "nan"])
def test_cli_non_finite_dt_is_a_parse_error_naming_dt(tmp_path, capsys, dt):
    # JSON's Infinity and NaN once warned, then failed on "NaN or Inf entries"
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, dt=dt)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", str(proc)]) == 2
    assert f"'dt' must be positive and finite, got {dt!r}" in assert_one_parse_error(capsys, proc)
    assert caught == []


@pytest.mark.parametrize("case", ["more-labels-than-operators", "no-operators",
                                  "dim-not-a-number", "dim-not-an-integer",
                                  "dim-a-string-of-digits", "dim-true"])
def test_cli_bad_values_in_map_file_are_parse_errors(tmp_path, capsys, case):
    bad_map = BAD_PROCESS_SETTINGS[case]["steps"][0]["map"]
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(bad_map))
    assert main(["validate", str(map_path)]) == 2
    assert_one_parse_error(capsys, map_path)

    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"map_file": "map.json"}])
    assert main(["verify", str(proc)]) == 2
    assert_one_parse_error(capsys, map_path)


# matrices that are not nested rows of [re, im] pairs of numbers: a string was
# rejected without the file's name, the third number was dropped, the integer
# too large for a float ended in an OverflowError traceback, and the empty
# matrix exited 1 with a dimension error
MALFORMED_MATRICES = {
    "empty": [],
    "empty-row": [[]],
    "string-entry": [[["1", 0], [0, 0]], [[0, 0], [1, 0]]],
    "three-numbers": [[[0.5, 0, 7], [0, 0]], [[0, 0], [0.5, 0]]],
    "integer-too-large-for-a-float": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]],
}


def assert_malformed_matrix_named(capsys, path):
    assert "malformed matrix" in assert_one_parse_error(capsys, path)


@pytest.mark.parametrize("case", list(MALFORMED_MATRICES))
def test_cli_malformed_matrix_in_process_file_names_it(tmp_path, capsys, case):
    proc = tmp_path / "proc.json"
    write_process_with(proc, initial_state=MALFORMED_MATRICES[case])
    assert main(["verify", str(proc)]) == 2
    assert_malformed_matrix_named(capsys, proc)


@pytest.mark.parametrize("case", list(MALFORMED_MATRICES))
def test_cli_malformed_matrix_in_map_file_names_it(tmp_path, capsys, case):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(dict(GAD_MAP, operators=[MALFORMED_MATRICES[case]])))
    assert main(["validate", str(map_path)]) == 2
    assert_malformed_matrix_named(capsys, map_path)

    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"map_file": "map.json"}])
    assert main(["verify", str(proc)]) == 2
    assert_malformed_matrix_named(capsys, map_path)


@pytest.mark.parametrize("command", ["classify", "dual"])
@pytest.mark.parametrize("case", list(MALFORMED_MATRICES))
def test_cli_malformed_pi_file_names_it(tmp_path, capsys, case, command):
    map_path, pi_path = tmp_path / "map.json", tmp_path / "pi.json"
    write_gad_map(map_path)
    pi_path.write_text(json.dumps(MALFORMED_MATRICES[case]))
    assert main([command, str(map_path), "--pi", str(pi_path)]) == 2
    assert_malformed_matrix_named(capsys, pi_path)


THERMAL_STEP = {"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5}

# a number where one matrix belongs: each printed "'int' object is not
# iterable" without saying which matrix it meant
MATRIX_KEYS = {
    "H": {"steps": [dict(LINDBLAD_STEP, H=5)]},
    "U": {"steps": [{"model": "unitary", "U": 5}]},
    "basis": {"steps": [{"model": "dephasing", "basis": 5, "strength": 0.3}]},
    "pi": {"steps": [dict(THERMAL_STEP, pi=5)]},
    "initial_state": {"initial_state": 5},
    "H_i": dict(EQUILIBRIUM_BOUNDARY, H_i=5),
    "H_f": dict(EQUILIBRIUM_BOUNDARY, H_f=5),
    "matrix": {"symmetry": {"matrix": 5}},
}


@pytest.mark.parametrize("key", list(MATRIX_KEYS))
def test_cli_malformed_single_matrix_names_its_key(tmp_path, capsys, key):
    proc = tmp_path / "proc.json"
    write_process_with(proc, **MATRIX_KEYS[key])
    assert main(["verify", str(proc)]) == 2
    line = assert_one_parse_error(capsys, proc)
    assert f"malformed matrix of [re, im] pairs in {key!r}" in line


@pytest.mark.parametrize("symmetry", ["ab", [1], 5, None])
def test_cli_symmetry_that_is_not_an_object_is_named(tmp_path, capsys, symmetry):
    # a string once printed "string indices must be integers, not 'str'"
    proc = tmp_path / "proc.json"
    write_process_with(proc, symmetry=symmetry)
    assert main(["verify", str(proc)]) == 2
    assert "'symmetry' must be an object" in assert_one_parse_error(capsys, proc)


@pytest.mark.parametrize("map_file", [5, ["map.json"], None, True])
def test_cli_map_file_that_is_not_a_string_is_named(tmp_path, capsys, map_file):
    # 5 once printed "unsupported operand type(s) for /: 'PosixPath' and 'int'"
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"map_file": map_file}])
    assert main(["verify", str(proc)]) == 2
    assert "'map_file' must be a path string" in assert_one_parse_error(capsys, proc)


def test_cli_package_errors_in_process_file_keep_their_exit_code(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, initial_state=matrix_to_json(np.array([[0.9, 0.3], [0.2, 0.1]])))
    assert main(["verify", str(proc)]) == 1
    assert capsys.readouterr().err.startswith("error: density matrix is not Hermitian")


@pytest.mark.parametrize("text", [
    '{"eps_herm": NaN}', '{"eps_prob": -1}', '{"eps_tp": Infinity}',
    '{"eps_fix": -Infinity}', '{"eps_zero": 1e400}', '{"eps_group": -1e-300}',
    # an integer past the float range once ended in an OverflowError traceback
    pytest.param(json.dumps({"eps_prob": 10**400}), id="eps_prob-401-digits"),
])
def test_cli_tolerances_must_be_finite_and_not_negative(tmp_path, capsys, text):
    proc = tmp_path / "proc.json"
    # not Hermitian: a NaN eps_herm once let it through
    write_process_with(proc, initial_state=matrix_to_json(np.array([[0.9, 0.3], [0.2, 0.1]])))
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(text)
    assert main(["--tolerances", str(tol_path), "verify", str(proc)]) == 2
    key = next(iter(json.loads(text)))
    assert f"tolerance {key!r} must be a number in [0, inf)" in assert_one_parse_error(
        capsys, tol_path
    )


def test_cli_unknown_boundary_mode_is_named(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, boundary_mode="bogus")  # the file keeps its initial_state
    assert main(["verify", str(proc)]) == 2
    assert "unknown boundary mode 'bogus'" in assert_one_parse_error(capsys, proc)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1, True, "1e-9",
                                   pytest.param(10**400, id="401-digits")])
def test_tolerances_rule_holds_in_the_library(value):
    with pytest.raises(ValueError, match="tolerance 'eps_prob' must be a number in"):
        q.Tolerances(eps_prob=value)


def test_tolerances_accept_zero_in_the_library():
    assert q.Tolerances(eps_prob=0, eps_fix=0.0).eps_prob == 0


def test_cli_tolerances_accept_zero(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps({"eps_prob": 0}))
    assert main(["--tolerances", str(tol_path), "verify", str(proc)]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["eps_prob"] == 0


# values that are not a finite real: a 400-digit integer once ended in an OverflowError
# traceback (dt, beta) or in numpy's "ufunc 'isfinite' not supported" (beta_omega)
NOT_FINITE_REALS = [10**400, -10**400, math.nan, math.inf, -math.inf, True, "1"]
NOT_FINITE_IDS = ["huge", "minus-huge", "nan", "inf", "minus-inf", "true", "string"]


def test_finite_real_takes_reals_within_the_float_range():
    finite = [0, -3, 2.5, np.float64(-1e-300), np.float32(2.5), np.int8(-7), np.uint64(2**64 - 1),
              Fraction(1, 3), sys.float_info.max, int(sys.float_info.max), -sys.float_info.max]
    assert all(finite_real(v) for v in finite)
    assert not any(finite_real(v) for v in NOT_FINITE_REALS)
    # a float32 infinity is not finite, though the largest float cast to float32 is inf too
    assert not any(finite_real(v) for v in [np.float32(np.inf), np.float16(np.nan),
                                            Fraction(10**400), int(sys.float_info.max) + 1,
                                            np.True_, None, 1j, np.array(1.0), [1.0]])


def _histogram(bin_width):
    ensemble = q.enumerate_trajectories(
        q.process_spec([q.make_step(q.thermal_qubit_map(LN2, 0.5))],
                       initial_state=np.diag([0.9, 0.1])))
    return sigma_histogram_csv(ensemble, bin_width)


# each real-valued parameter, by the name its message gives it, and the function that takes it
REAL_PARAMETERS = {
    "'beta'": lambda v: q.process_spec((), boundary_mode="equilibrium", h_initial=np.eye(2),
                                       h_final=np.eye(2), beta=v),
    "'beta_omega'": lambda v: q.thermal_qubit_map(v, 0.5),
    "'gamma'": lambda v: q.thermal_qubit_map(LN2, v),
    "'strength'": lambda v: q.dephasing_map(np.eye(2), v),
    "'dt'": lambda v: q.lindblad_step(np.diag([0.0, 1.0]), [], v),
    "bin width": _histogram,
}


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=NOT_FINITE_IDS)
@pytest.mark.parametrize("name", list(REAL_PARAMETERS))
def test_every_real_parameter_refuses_what_is_not_a_finite_real_in_the_library(name, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        REAL_PARAMETERS[name](value)


# the same parameters as a process file gives them
REAL_KEYS_IN_FILES = {
    "dt": lambda v: {"steps": [dict(LINDBLAD_STEP, dt=v)]},
    "beta": lambda v: dict(EQUILIBRIUM_BOUNDARY, beta=v),
    "beta_omega": lambda v: {"steps": [dict(THERMAL_STEP, beta_omega=v)]},
    "gamma": lambda v: {"steps": [dict(THERMAL_STEP, gamma=v)]},
    "strength": lambda v: {"steps": [{"model": "dephasing", "basis": matrix_to_json(np.eye(2)),
                                      "strength": v}]},
}


@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=NOT_FINITE_IDS)
@pytest.mark.parametrize("key", list(REAL_KEYS_IN_FILES))
def test_cli_real_values_that_are_not_finite_reals_are_parse_errors_naming_the_key(
        tmp_path, capsys, key, value):
    proc = tmp_path / "proc.json"
    write_process_with(proc, **REAL_KEYS_IN_FILES[key](value))
    assert main(["verify", str(proc)]) == 2
    assert repr(key) in assert_one_parse_error(capsys, proc)


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_cli_symmetry_dimension_must_match_the_maps(tmp_path, capsys, mode):
    # a 3x3 symmetry on a qubit process once ended in a matmul traceback (exact)
    # or was ignored (mc)
    proc = tmp_path / "proc.json"
    write_process_with(proc, symmetry={"matrix": matrix_to_json(np.eye(3))})
    assert main(["verify", str(proc), "--mode", mode, "--samples", "100"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == ""
    assert len(lines) == 1 and lines[0].startswith("error: inconsistent dimensions"), captured.err


@pytest.mark.parametrize("mode", ["exact", "mc"])
def test_cli_equilibrium_hamiltonians_of_two_dimensions_are_refused(tmp_path, capsys, mode):
    proc = tmp_path / "proc.json"
    write_process_with(proc, boundary_mode="equilibrium", beta=1.0,
                       H_i=matrix_to_json(np.diag([0.0, 1.0])),
                       H_f=matrix_to_json(np.diag([0.0, 1.0, 2.0])))
    assert main(["verify", str(proc), "--mode", mode, "--samples", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: inconsistent dimensions in process: {2, 3}"]


@pytest.mark.parametrize("width", ["1e-6", "1e-300", "1e-320"])
def test_cli_histogram_over_the_bin_cap_is_a_resource_error(tmp_path, capsys, width):
    # a one-step GAD process spans 2.1 Sigma: 2.1M bins at 1e-6, and a count
    # that once overflowed an allocation or an int conversion at the others
    proc = tmp_path / "proc.json"
    write_gad_process(proc, steps=1)
    hist, out = tmp_path / "hist.csv", tmp_path / "report.json"
    args = ["verify", str(proc), "--hist", str(hist), "--out", str(out), "--bin-width", width]
    assert main(args) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: histogram needs"), captured.err
    assert "above the cap 1000000" in lines[0]
    assert captured.out == "" and not hist.exists() and not out.exists()


@pytest.mark.parametrize("command", ["classify", "dual"])
def test_cli_pi_file_at_the_eps_fix_and_eps_pos_edges(tmp_path, capsys, command):
    map_path, pi_path, tol_path = (tmp_path / n for n in ("map.json", "pi.json", "tol.json"))
    kmap = write_gad_map(map_path)
    pi = q.invariant_state(kmap)
    argv = ["--tolerances", str(tol_path), command, str(map_path), "--pi", str(pi_path)]

    tol_path.write_text(json.dumps({"eps_fix": EDGE_TOLERANCES.eps_fix}))
    for residual, code in ((0.99, 0), (1.01, 1)):
        pi_path.write_text(json.dumps(matrix_to_json(
            shifted_pi(kmap, pi, residual * EDGE_TOLERANCES.eps_fix))))
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: state is not a fixed point of the map: residual")

    pi_path.write_text(json.dumps(matrix_to_json(pi)))
    low = float(q.hermitian_eig(pi).eigenvalues[0])
    for eps_pos, code in ((float(np.nextafter(low, 0)), 0), (low, 1)):
        tol_path.write_text(json.dumps({"eps_pos": eps_pos}))
        assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: invariant state has eigenvalue") and "not above eps_pos" in err


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("command", [["verify", "--mode", "mc"], ["sample"]],
                         ids=["verify-mc", "sample"])
def test_cli_sample_count_above_the_cap_is_a_resource_error(tmp_path, capsys, command, source):
    # 10^13 rows of uniforms would be 218 TiB; the count is rejected before that
    proc, out = tmp_path / "proc.json", tmp_path / "report.json"
    count = 10**13
    if source == "file":
        write_process_with(proc, samples=count)
        extra = []
    else:
        write_gad_process(proc)
        extra = ["--samples", str(count)]
    assert main([command[0], str(proc), *command[1:], *extra, "--out", str(out)]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0] == f"error: {count} samples are above the cap 10000000; draw fewer samples"
    assert captured.out == "" and not out.exists()


def write_equilibrium_process(path, beta, energies):
    h = matrix_to_json(np.diag(energies))
    path.write_text(json.dumps({
        "steps": [{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5}],
        "boundary_mode": "equilibrium", "H_i": h, "H_f": h, "beta": beta,
    }))


def test_cli_equilibrium_at_beta_zero_verifies(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_equilibrium_process(proc, 0, [0.0, 1.0])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["verify", str(proc)]) == 0
    assert not seen
    assert json.loads(capsys.readouterr().out)["verify"]["detailed_ft"]["passed"] is True


@pytest.mark.parametrize("beta, trajectory", [(1e6, "(0, (3,), 1)"), (-1e3, "(1, (1,), 0)")])
def test_cli_equilibrium_at_large_beta_names_the_unmatched_trajectory(
        tmp_path, capsys, beta, trajectory):
    # one Gibbs population underflows to 0, so the dual cannot start where the
    # thermal step excites (k = 3) or decays (k = 1) the one populated level;
    # the unshifted weights overflowed to NaN instead
    proc = tmp_path / "proc.json"
    write_equilibrium_process(proc, beta, [-1.0, 1.0])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["verify", str(proc)]) == 1
    assert not seen
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err
    assert lines[0].startswith(f"error: forward trajectory {trajectory} has probability")
    assert lines[0].endswith("but its reverse is absent from the dual process")


THERMAL_LINDBLAD_STEP = dict(LINDBLAD_STEP, lindblads=[
    matrix_to_json(np.array([[0, 1], [0, 0]])), matrix_to_json(np.array([[0, 0], [0.5, 0]]))])


@pytest.mark.parametrize("step", [{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5},
                                  THERMAL_LINDBLAD_STEP], ids=["thermal_qubit", "lindblad_step"])
def test_cli_rank_deficient_initial_state_verifies(tmp_path, capsys, step):
    # the forward process never starts from the empty level; the dual ends there
    # with mass of its own, which verify once refused as an absent reverse
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[step] * 2, initial_state=matrix_to_json(np.diag([1.0, 0.0])))
    assert main(["verify", str(proc)]) == 0
    report = json.loads(capsys.readouterr().out)["verify"]
    assert report["detailed_ft"]["passed"] is True
    assert report["detailed_ft"]["max_residual"] <= 1e-12
    # that dual mass is missing from <e^{-Sigma}>, so the Monte Carlo z-test fails; its
    # standard error is the sample's, far above the floor at the mean's rounding
    assert report["integral_ft"]["mean_exp_neg_sigma"] < 0.99
    assert main(["verify", str(proc), "--mode", "mc", "--samples", "20000", "--seed", "3"]) == 1
    integral = json.loads(capsys.readouterr().out)["verify"]["integral_ft"]
    assert integral["standard_error"] > 1e6 * 20000 * 2.0**-53 and integral["z_score"] < -3.0


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("beta_omega", [800, -800])
def test_cli_thermal_qubit_at_extreme_beta_omega_has_a_singular_pi(tmp_path, capsys, beta_omega,
                                                                 mode):
    # p = 1 or 0 exactly: pi = diag(p, 1 - p) is singular; e^{800} once overflowed
    # to two RuntimeWarnings and a parse error about NaN entries
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"model": "thermal_qubit", "beta_omega": beta_omega,
                                     "gamma": 0.5}])
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main(["verify", str(proc), "--mode", mode]) == 1
    assert not seen
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err
    assert lines[0].startswith("error: invariant state has eigenvalue 0.000e+00, not above eps_pos")


# values that once built a map: JSON true counted as the number 1, and a string
# of labels was split into one label per character
WRONG_TYPES_THAT_BUILT = {
    "beta_omega": {"model": "thermal_qubit", "beta_omega": True, "gamma": 0.5},
    "gamma": {"model": "thermal_qubit", "beta_omega": LN2, "gamma": True},
    "strength": {"model": "dephasing", "basis": matrix_to_json(np.eye(2)), "strength": True},
    "dt": dict(LINDBLAD_STEP, dt=True),
    "labels": {"map": dict(GAD_MAP, labels="abcd")},
}


@pytest.mark.parametrize("key", list(WRONG_TYPES_THAT_BUILT))
def test_cli_booleans_and_label_strings_are_parse_errors_naming_the_key(tmp_path, capsys, key):
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[WRONG_TYPES_THAT_BUILT[key]])
    assert main(["verify", str(proc)]) == 2
    assert repr(key) in assert_one_parse_error(capsys, proc)


def test_cli_label_string_in_map_file_is_a_parse_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(WRONG_TYPES_THAT_BUILT["labels"]["map"]))
    assert main(["validate", str(map_path)]) == 2
    assert "'labels'" in assert_one_parse_error(capsys, map_path)


def test_cli_map_file_without_operators_is_a_parse_error(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"dim": 2, "labels": ["a"]}))
    assert main(["validate", str(map_path)]) == 2
    line = assert_one_parse_error(capsys, map_path)
    assert "map file must be an object with an 'operators' key" in line


def test_cli_projective_step_with_too_few_vectors_is_a_parse_error(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"model": "projective", "basis": [[[1, 0], [0, 0]]]}])
    assert main(["verify", str(proc)]) == 2
    assert "need 2 basis vectors, got 1" in assert_one_parse_error(capsys, proc)


def test_cli_classify_of_a_map_with_no_fixed_point_exits_1(tmp_path, capsys):
    # 0.9 U passes eps_tp = 0.5, but no eigenvalue of its S is 1
    map_path, tol_path = tmp_path / "map.json", tmp_path / "tol.json"
    u = q.kraus_map([0.9 * haar_unitary(np.random.default_rng(0), 2)])
    map_path.write_text(json.dumps(map_to_json(u)))
    tol_path.write_text(json.dumps({"eps_tp": 0.5}))
    assert main(["--tolerances", str(tol_path), "classify", str(map_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the map has no fixed point within tolerance\n"


# One step of GAD from |0><0|: p_i(1) = 0, so the dual process ends on level 1 with mass
# m = 0.28316 that no forward branch reverses, and <e^{-Sigma}> = 1 - m = 0.71684.  Exact
# verify passes (detailed residual 3.1e-16); the Monte Carlo verdict compares the mean with 1,
# not 1 - m, and fails at z = -14.4 (z = -458 at 10^5 samples; against 1 - m, z = 0.64).
@pytest.mark.xfail(strict=True, reason="ROADMAP items 10 and 17: the Monte Carlo verdict "
                   "ignores the dual mass on zero-population outcomes")
def test_cli_monte_carlo_verify_of_a_pure_initial_state_passes(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[dict(THERMAL_STEP, beta_omega=0.5)],
                       initial_state=matrix_to_json(np.diag([1.0, 0.0])))
    assert main(["verify", str(proc), "--mode", "mc", "--samples", "100"]) == 0


# sum_k M_k† M_k = 2|0><0|: classify once passed it, and verify blamed the dual map
LEAKY_MAP = map_to_json(q.kraus_map([np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 0.0]])]))


def assert_not_trace_preserving(capsys):
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err
    assert lines[0] == ("error: map is not trace preserving: ||sum_k M_k† M_k - 1||_F = "
                        "1.414e+00 exceeds eps_tp=1e-10")


@pytest.mark.parametrize("command", ["classify", "dual"])
def test_cli_map_file_that_is_not_trace_preserving_exits_1(tmp_path, capsys, command):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(LEAKY_MAP))
    assert main([command, str(map_path)]) == 1
    assert_not_trace_preserving(capsys)
    assert main(["validate", str(map_path)]) == 1  # validate still writes its report
    assert json.loads(capsys.readouterr().out)["validate"]["passed"] is False


@pytest.mark.parametrize("command", [["verify"], ["verify", "--mode", "mc"], ["sample"]],
                         ids=["exact", "mc", "sample"])
def test_cli_process_step_that_is_not_trace_preserving_exits_1(tmp_path, capsys, command):
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5},
                                    {"map": LEAKY_MAP}])
    assert main([command[0], str(proc), *command[1:], "--samples", "10"]) == 1
    assert_not_trace_preserving(capsys)


def test_cli_tolerances_reach_lindblad_step_models(tmp_path, capsys):
    # H with a Hermiticity defect of 1e-8: above the default eps_herm, below 1e-6
    h = np.diag([0.5e-8j, 1.0])
    lindblads = [matrix_to_json(l) for l in q.thermal_lindblad_pair(1.0, LN2, 0.5)]
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, H=matrix_to_json(h), lindblads=lindblads)])
    assert main(["verify", str(proc)]) == 1
    assert "eps_herm" in capsys.readouterr().err
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps({"eps_herm": 1e-6}))
    assert main(["--tolerances", str(tol_path), "verify", str(proc)]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["detailed_ft"]["passed"] is True


def with_matrix_inserted(matrices, bad, at=1):
    return matrices[:at] + [bad] + matrices[at:]


@pytest.mark.parametrize("case", list(MALFORMED_MATRICES))
def test_cli_malformed_matrix_among_operators_names_it(tmp_path, capsys, case):
    bad_map = dict(GAD_MAP, operators=with_matrix_inserted(GAD_MAP["operators"],
                                                           MALFORMED_MATRICES[case]))
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(bad_map))
    assert main(["validate", str(map_path)]) == 2
    assert "malformed matrix of [re, im] pairs in 'operators'" in assert_one_parse_error(
        capsys, map_path)

    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"map": bad_map}])
    assert main(["verify", str(proc)]) == 2
    assert "in 'operators'" in assert_one_parse_error(capsys, proc)


@pytest.mark.parametrize("case", list(MALFORMED_MATRICES))
def test_cli_malformed_matrix_among_lindblads_names_it(tmp_path, capsys, case):
    proc = tmp_path / "proc.json"
    lindblads = with_matrix_inserted(LINDBLAD_STEP["lindblads"] * 2, MALFORMED_MATRICES[case])
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, lindblads=lindblads)])
    for mode in ("exact", "mc"):
        assert main(["verify", str(proc), "--mode", mode, "--samples", "10"]) == 2
        assert "malformed matrix of [re, im] pairs in 'lindblads'" in assert_one_parse_error(
            capsys, proc)


RAGGED_MATRIX = [[[0, 0], [1, 0]], [[0, 0]]]


def test_cli_ragged_rows_in_a_list_of_matrices_are_parse_errors(tmp_path, capsys):
    map_path, proc = tmp_path / "map.json", tmp_path / "proc.json"
    map_path.write_text(json.dumps(dict(GAD_MAP, operators=with_matrix_inserted(
        GAD_MAP["operators"], RAGGED_MATRIX))))
    assert main(["validate", str(map_path)]) == 2
    assert "rows have different lengths [1, 2]" in assert_one_parse_error(capsys, map_path)
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, lindblads=[RAGGED_MATRIX])])
    assert main(["verify", str(proc)]) == 2
    assert "rows have different lengths [1, 2]" in assert_one_parse_error(capsys, proc)


def assert_one_error(capsys) -> str:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:"), captured.err
    return lines[0]


def test_cli_matrices_of_different_sizes_exit_1(tmp_path, capsys):
    qutrit = matrix_to_json(np.eye(3) / 2)
    map_path, proc = tmp_path / "map.json", tmp_path / "proc.json"
    map_path.write_text(json.dumps(dict(GAD_MAP, operators=with_matrix_inserted(
        GAD_MAP["operators"], qutrit))))
    assert main(["validate", str(map_path)]) == 1
    assert "'operators' have different shapes (2, 2) and (3, 3)" in assert_one_error(capsys)
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, lindblads=LINDBLAD_STEP["lindblads"]
                                         + [qutrit])])
    assert main(["verify", str(proc)]) == 1
    assert "'lindblads' have different shapes (2, 2) and (3, 3)" in assert_one_error(capsys)
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, lindblads=[qutrit])])
    assert main(["verify", str(proc)]) == 1
    assert "expected a stack of 2 x 2 matrices, got shape (1, 3, 3)" in assert_one_error(capsys)


def test_cli_hamiltonian_that_is_not_square_exits_1(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    for shape in ((2, 3), (3, 2)):
        write_process_with(proc, steps=[dict(LINDBLAD_STEP, H=matrix_to_json(np.zeros(shape)))])
        assert main(["verify", str(proc)]) == 1
        assert assert_one_error(capsys) == f"error: Hamiltonian is not square: {shape}"


def test_cli_lindblad_step_without_jumps_is_unitary(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[dict(LINDBLAD_STEP, lindblads=[], unital=True)])
    spec, _ = load_process_file(proc)
    kmap = spec.steps[0].map
    want = q.lindblad_step(np.diag([0.0, 1.0]), [], LINDBLAD_STEP["dt"])
    assert kmap.labels == ("M0",) and kmap.operators.tobytes() == want.operators.tobytes()
    assert main(["verify", str(proc)]) == 0
    assert json.loads(capsys.readouterr().out)["verify"]["detailed_ft"]["passed"] is True


# content that is not the JSON type its key needs: each once ended in a TypeError
# or ValueError message that named no key
NOT_ARRAYS_OR_OBJECTS = {
    "steps": {"steps": 5},
    "steps-a-string": {"steps": "ab"},
    "steps-an-object": {"steps": {"model": "thermal_qubit"}},
    "a-step-a-number": {"steps": [5]},
    "a-step-an-array": {"steps": [["thermal_qubit"]]},
    "lindblads-a-string": {"steps": [dict(LINDBLAD_STEP, lindblads="ab")]},
    "lindblads-a-number": {"steps": [dict(LINDBLAD_STEP, lindblads=3)]},
    "lindblads-one-matrix": {"steps": [dict(LINDBLAD_STEP, lindblads=LINDBLAD_STEP["H"])]},
    "operators-a-string": {"steps": [{"map": dict(GAD_MAP, operators="ab")}]},
}
NAMED_KEY = {"steps": "'steps'", "a-step": "each entry of 'steps' must be an object",
             "lindblads": "'lindblads'", "operators": "'operators'"}


@pytest.mark.parametrize("case", list(NOT_ARRAYS_OR_OBJECTS))
def test_cli_wrong_json_types_are_parse_errors_naming_the_key(tmp_path, capsys, case):
    proc = tmp_path / "proc.json"
    write_process_with(proc, **NOT_ARRAYS_OR_OBJECTS[case])
    assert main(["verify", str(proc)]) == 2
    key = next(v for k, v in NAMED_KEY.items() if case.startswith(k))
    assert key in assert_one_parse_error(capsys, proc)


# One failing step of each kind, and a later step that fails at an earlier check (trace
# preservation, or a mixed operator after a leaky map): steps are checked in one stacked
# pass, and the first failing step in file order must still raise its own error.
A, B = 0.2**0.5, 0.1**0.5
MIXED_MAP = map_to_json(q.kraus_map([np.diag([(1 - B * B)**0.5, (1 - A * A)**0.5]),
                                     [[0, A], [B, 0]]]))
HADAMARD_STEP = {"model": "unitary", "U": matrix_to_json(np.array([[1, 1], [1, -1]]) / 2**0.5)}
FAILING_STEPS = {
    "non_unique": (HADAMARD_STEP, {"map": LEAKY_MAP}, q.NonUniqueInvariantState, 3,
                   "error: invariant state is not unique (fixed subspace dimension 2)"),
    "mixed": ({"map": MIXED_MAP}, {"map": LEAKY_MAP}, q.MixedPotentialOperator, 1,
              "error: Kraus operator 1 straddles distinct potential gaps "
              "[-0.69314718056, 0.69314718056]"),
    "singular": ({"map": GAD_MAP, "pi": matrix_to_json(np.diag([0.5, 0.5]))},
                 {"map": LEAKY_MAP}, q.SingularStateError, 1,
                 "error: state is not a fixed point of the map: residual"),
    "not_tp": ({"map": LEAKY_MAP}, {"map": MIXED_MAP}, q.NotTracePreservingError, 1,
               "error: map is not trace preserving"),
}


@pytest.mark.parametrize("kind", list(FAILING_STEPS))
def test_first_failing_step_in_file_order_raises(tmp_path, capsys, kind):
    failing, later, error, code, message = FAILING_STEPS[kind]
    good = {"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5}
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[good, good, failing, good, later, failing])
    assert main(["verify", str(proc)]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), lines
    # verify has no --pi flag to hint at: a process file gives a step's "pi"
    assert "--pi" not in lines[0]
    with pytest.raises(error) as info:
        load_process_file(proc)
    if kind == "non_unique":
        assert info.value.subspace_dim == 2
        assert np.array_equal(info.value.candidate, np.eye(2) / 2)
    if kind == "mixed":
        assert info.value.operator_index == 1
        assert info.value.gaps == [-0.69314718056, 0.69314718056]


@pytest.mark.parametrize("kind", list(FAILING_STEPS))
@pytest.mark.parametrize("parse_error", ["bad_step", "initial_state", "boundary_mode"])
def test_parse_errors_come_before_every_step_check(tmp_path, capsys, kind, parse_error):
    failing = FAILING_STEPS[kind][0]
    steps = [failing, {"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5}]
    settings = {"steps": steps}
    if parse_error == "bad_step":
        steps.append({"model": "thermal_qubit", "beta_omega": LN2, "gamma": "x"})
    elif parse_error == "initial_state":
        settings["initial_state"] = 5
    else:
        settings["boundary_mode"] = "adiabatic"
    proc = tmp_path / "proc.json"
    write_process_with(proc, **settings)
    assert main(["verify", str(proc)]) == 2
    assert_one_parse_error(capsys, proc)


def test_steps_of_different_dimensions_are_refused_before_any_step_check(tmp_path, capsys):
    # the Hadamard step alone would need --pi (exit 3); the qutrit step cannot share its stack
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[HADAMARD_STEP, {"model": "unitary",
                                                    "U": matrix_to_json(np.eye(3))}])
    assert main(["verify", str(proc)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["error: inconsistent dimensions in process: {2, 3}"]


@pytest.mark.parametrize("command", ["classify", "dual"])
def test_pi_and_unital_flags_are_exclusive(tmp_path, capsys, command):
    map_path, pi_path = tmp_path / "gad.json", tmp_path / "pi.json"
    kmap = write_gad_map(map_path)
    pi_path.write_text(json.dumps(matrix_to_json(q.invariant_state(kmap))))
    with pytest.raises(SystemExit) as info:
        main([command, str(map_path), "--pi", str(pi_path), "--unital"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert "not allowed with argument" in captured.err and captured.out == ""


def test_step_with_pi_and_unital_true_is_a_parse_error(tmp_path, capsys):
    pi = matrix_to_json(q.invariant_state(q.thermal_qubit_map(LN2, 0.5)))
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"map": GAD_MAP, "pi": pi, "unital": True}])
    assert main(["verify", str(proc)]) == 2
    line = assert_one_parse_error(capsys, proc)
    assert "'pi'" in line and "'unital'" in line
    # "unital": false next to "pi" says nothing new and stays allowed
    write_process_with(proc, steps=[{"map": GAD_MAP, "pi": pi, "unital": False}])
    assert main(["verify", str(proc)]) == 0


def test_dual_of_a_map_outside_the_ladder_family(tmp_path, capsys):
    # build_dual does not classify the dual: a mixed operator has a dual map, not a class
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(MIXED_MAP))
    assert main(["dual", str(path)]) == 0
    dual = json.loads(capsys.readouterr().out)["dual"]
    assert len(dual["map"]["operators"]) == 2 and dual["map"]["dim"] == 2
    assert main(["classify", str(path)]) == 1
    # one error: line, as every other failed check prints
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: Kraus operator 1 straddles"), lines


def test_cli_projective_unital_step_verifies(tmp_path, capsys):
    # a process-file step of the "projective" model, in the Hadamard basis, with 1/N as its state
    proc = tmp_path / "proc.json"
    basis = matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    steps = [{"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5},
             {"model": "projective", "basis": basis, "unital": True}]
    write_process_with(proc, steps=steps)
    assert main(["verify", str(proc)]) == 0
    report = json.loads(capsys.readouterr().out)["verify"]
    assert report["detailed_ft"]["passed"] is True
    assert abs(report["integral_ft"]["mean_exp_neg_sigma"] - 1.0) <= 1e-12


# rows are the basis vectors |0> and (|0> + |1>) / sqrt(2): not orthogonal
SKEW = matrix_to_json(np.array([[1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)]]))


@pytest.mark.parametrize("step", [{"model": "projective", "basis": SKEW},
                                  {"model": "dephasing", "basis": SKEW, "strength": 0.5},
                                  {"model": "unitary", "U": SKEW}],
                         ids=["projective", "dephasing", "unitary"])
def test_cli_skew_basis_step_is_a_failed_check(tmp_path, capsys, step):
    # a skew measurement basis fails the one unitarity check, as a non-unitary U does: exit 1
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[dict(step, unital=True)])
    assert main(["verify", str(proc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: unitarity defect 1.000e+00 exceeds 1e-10"]


def test_cli_dual_of_a_degenerate_map_needs_pi(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps(map_to_json(q.kraus_map([np.eye(3)]))))
    assert main(["dual", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "fixed subspace dimension 9" in captured.err
    assert "--pi" in captured.err and "--unital" in captured.err


def test_cli_initial_state_below_minus_eps_pos_is_a_parse_error(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, initial_state=matrix_to_json(np.diag([1.1, -0.1])))
    assert main(["verify", str(proc)]) == 2
    line = assert_one_parse_error(capsys, proc)
    assert "density matrix has eigenvalue -1.000e-01 below -eps_pos" in line


def test_cli_step_pi_of_the_wrong_shape_is_named(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    step = {"model": "thermal_qubit", "beta_omega": LN2, "gamma": 0.5,
            "pi": matrix_to_json(np.eye(3) / 3)}
    write_process_with(proc, steps=[step])
    assert main(["verify", str(proc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: state shape (3, 3) does not match map dimension 2"]


def test_cli_missing_map_file_is_a_parse_error(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[{"map_file": "missing.json"}])
    assert main(["verify", str(proc)]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1
    assert lines[0].startswith(f"parse error: {tmp_path / 'missing.json'}: [Errno 2] ")


# file contents the JSON decoder refuses without a JSONDecodeError: a UTF-16 file
# (its byte-order mark 0xff 0xfe is not UTF-8) and arrays nested past the depth limit
UNDECODABLE = {
    "not-utf-8": b"\xff\xfe" + "{}".encode("utf-16-le"),
    "too-deep": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("kind", ["map", "process", "pi", "tolerances"])
@pytest.mark.parametrize("content", list(UNDECODABLE))
def test_cli_undecodable_files_are_parse_errors(tmp_path, capsys, kind, content):
    map_path = tmp_path / "gad.json"
    write_gad_map(map_path)
    bad = tmp_path / f"{kind}.json"
    bad.write_bytes(UNDECODABLE[content])
    argv = {"map": ["classify", str(bad)],
            "process": ["verify", str(bad)],
            "pi": ["classify", str(map_path), "--pi", str(bad)],
            "tolerances": ["--tolerances", str(bad), "classify", str(map_path)]}[kind]
    assert main(argv) == 2
    assert_one_parse_error(capsys, bad)


HADAMARD_STEP = {"model": "unitary", "unital": True,
                 "U": matrix_to_json(np.array([[1, 1], [1, -1]]) / np.sqrt(2))}


@pytest.mark.parametrize("mode", [[], ["--mode", "mc", "--samples", "2000", "--seed", "5"]],
                         ids=["exact", "mc"])
def test_cli_unital_hadamard_step_verifies_at_roundoff_scale(tmp_path, capsys, mode):
    # Sigma is 0 up to roundoff: <e^{-Sigma}> misses 1 by about 1e-16, with a sample spread
    # smaller still; the Monte Carlo verdict once divided the two and exited 1
    proc = tmp_path / "proc.json"
    write_process_with(proc, steps=[HADAMARD_STEP],
                       initial_state=matrix_to_json(np.diag([2 / 3, 1 / 3])))
    assert main(["verify", str(proc), *mode]) == 0
    integral = json.loads(capsys.readouterr().out)["verify"]["integral_ft"]
    assert integral["deviation"] <= 1e-15
    if mode:
        assert integral["standard_error"] == 2000 * 2.0**-53 * integral["mean_exp_neg_sigma"]


def inside_main() -> bool:
    frame = sys._getframe(1)
    while frame is not None and frame.f_code is not main.__code__:
        frame = frame.f_back
    return frame is not None


@contextmanager
def collector(enabled, threshold=None):
    """The cycle collector enabled or disabled (and at the given threshold), then as it was;
    yields the list of the generations of the passes that start inside main meanwhile."""
    was, thresholds, passes = gc.isenabled(), gc.get_threshold(), []

    def record(phase, info):
        if phase == "start" and inside_main():
            passes.append(info["generation"])

    (gc.enable if enabled else gc.disable)()
    if threshold is not None:
        gc.set_threshold(threshold)
    gc.callbacks.append(record)
    try:
        yield passes
    finally:
        gc.callbacks.remove(record)
        gc.set_threshold(*thresholds)
        (gc.enable if was else gc.disable)()


def command_ending(case, path, monkeypatch):
    """argv of a command that ends in the given way, and its exit code or exception."""
    if case == "check-failed":
        path.write_text(json.dumps(map_to_json(q.kraus_map([0.9 * np.eye(2, dtype=complex)]))))
        return ["validate", str(path)], 1
    if case == "parse-error":
        path.write_text("{not json")
        return ["validate", str(path)], 2
    if case == "needs-input":
        proj = q.projective_measurement([np.array([1, 0], complex), np.array([0, 1], complex)])
        path.write_text(json.dumps(map_to_json(proj)))
        return ["classify", str(path)], 3
    if case == "resource-cap":
        write_gad_process(path)
        return ["verify", str(path), "--mode", "mc", "--samples", str(10**13)], 4
    if case == "argparse":
        return ["no-such-command", str(path)], SystemExit
    write_gad_map(path)
    if case == "runtime-error":
        def fail(*args):
            raise RuntimeError("a fault inside the command")

        monkeypatch.setattr(qmapft.cli, "validate_cptp", fail)
        return ["validate", str(path)], RuntimeError
    return ["validate", str(path)], 0


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("case", ["ok", "check-failed", "parse-error", "needs-input",
                                  "resource-cap", "argparse", "runtime-error"])
def test_main_restores_the_callers_collector(tmp_path, monkeypatch, case, enabled):
    argv, outcome = command_ending(case, tmp_path / "input.json", monkeypatch)
    parse_args, parsing = qmapft.cli.PARSER.parse_args, []

    def recording(args):
        parsing.append(gc.isenabled())
        return parse_args(args)

    monkeypatch.setattr(qmapft.cli.PARSER, "parse_args", recording)
    # at threshold 1 a running collector would start a pass at almost every allocation
    with collector(enabled, threshold=1) as passes:
        try:
            code = main(argv)
        except (SystemExit, RuntimeError) as exc:
            code = type(exc)
        after = gc.isenabled()
    assert code == outcome
    assert after is enabled and collector_paused.states == []  # every block was left
    assert parsing == [False] and passes == []


def test_main_starts_no_collector_pass_on_a_ladder(tmp_path, monkeypatch):
    from perfbench.gen import ladder_verify

    op = ladder_verify(16, 3).make(np.random.default_rng(3), tmp_path / "ladder16")
    with collector(True, threshold=1) as passes:
        code = main(list(op.argv))
    assert code == 0 and gc.isenabled()
    assert passes == []
    assert json.loads(op.report.read_text())["verify"]["detailed_ft"]["passed"] is True
    # control: with the collector running inside the command, the same probe sees passes
    enumerate_trajectories = qmapft.cli.enumerate_trajectories

    def enabled_first(*args):
        gc.enable()
        return enumerate_trajectories(*args)

    monkeypatch.setattr(qmapft.cli, "enumerate_trajectories", enabled_first)
    with collector(True, threshold=1) as passes:
        assert main(list(op.argv)) == 0
    assert passes
