import json

import numpy as np
import pytest

import qmapft as q
from qmapft.cli import main
from qmapft.serialize import (
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
    with pytest.raises(SystemExit) as info:
        main(["classify", str(path)])
    assert info.value.code == 3
    assert "--pi" in capsys.readouterr().err


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


@pytest.mark.parametrize("case", ["more-labels-than-operators", "no-operators",
                                  "dim-not-a-number"])
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


def test_cli_package_errors_in_process_file_keep_their_exit_code(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_process_with(proc, initial_state=matrix_to_json(np.array([[0.9, 0.3], [0.2, 0.1]])))
    assert main(["verify", str(proc)]) == 1
    assert capsys.readouterr().err.startswith("error: density matrix is not Hermitian")


@pytest.mark.parametrize("text", [
    '{"eps_herm": NaN}', '{"eps_prob": -1}', '{"eps_tp": Infinity}',
    '{"eps_fix": -Infinity}', '{"eps_zero": 1e400}', '{"eps_group": -1e-300}',
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


def test_cli_tolerances_accept_zero(tmp_path, capsys):
    proc = tmp_path / "proc.json"
    write_gad_process(proc)
    tol_path = tmp_path / "tol.json"
    tol_path.write_text(json.dumps({"eps_prob": 0}))
    assert main(["--tolerances", str(tol_path), "verify", str(proc)]) == 0
    assert json.loads(capsys.readouterr().out)["tolerances"]["eps_prob"] == 0


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
