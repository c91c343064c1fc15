"""Checks that fail closed, and the command line's exit-code contract as a property.

Every check passes only when its comparison is true (errors.require), so a
defect that overflows to inf or NaN fails it.  The files under tests/repros
are inputs whose defects overflow; each once passed a check or failed with
another error.  cli.main runs every command with numpy's overflow and
invalid warnings off, because the checks refuse what those make; a library
caller sets its own floating-point state, as the library tests below do.

The contract: `validate`, `classify`, `dual`, `verify` (exact and mc) and
`sample` return an exit code in 0-4 and raise nothing, and a nonzero exit
either prints one stderr line starting `parse error:` (exit 2) or `error:`,
or writes the report of a failed verdict (exit 1).  A Hypothesis grammar
mutates valid map, process and tolerance documents (the model library's
kinds and perfbench.gen's) to test it: a leaf replaced by junk, a key deleted
or a matrix scaled.
"""

from __future__ import annotations

import copy
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import qmapft as q
import qmapft.errors
from qmapft.cli import main
from qmapft.linalg import adjoint, frobs, hermiticity_defect, hermiticity_defects
from qmapft.serialize import map_to_json, matrix_to_json

REPROS = Path(__file__).parent / "repros"
OVERFLOW = {"over": "ignore", "invalid": "ignore"}  # cli.main's floating-point state

# each repro file and the first words of its one stderr line
REPRO_ERRORS = {
    "nonhermitian_h_i": "error: Hermiticity defect 1.414e+00 exceeds eps_herm",
    "overflowing_symmetry": "error: unitarity defect nan exceeds 1e-12",
    "overflowing_map": "error: map is not trace preserving: ||sum_k M_k† M_k - 1||_F = nan",
    "overflowing_pi": "error: invariant state has eigenvalue nan, not above eps_pos",
}


def test_a_non_hermitian_matrix_of_huge_entries_is_refused_in_the_library():
    # the Frobenius norms of the unscaled matrix overflowed, so the defect was NaN
    # and hermitian_eig returned eigenvalues +-5e159
    with pytest.raises(q.NonHermitianError, match="Hermiticity defect 1.414e"):
        q.hermitian_eig(np.array([[0, 1e160], [0, 1]]))
    with pytest.raises(q.NonHermitianError):
        q.process_spec((), boundary_mode="equilibrium", h_initial=[[0, 1e155], [0, 1]],
                       h_final=np.eye(2), beta=1.0)
    # at the other end every square underflowed to 0, and so did the defect
    with pytest.raises(q.NonHermitianError, match="Hermiticity defect 1.407e-01"):
        q.hermitian_eig(np.array([[1e-310, 1e-311], [0, 0]]))
    for tiny in ([[1e-310, 0], [0, 1e-310]], [[1e-320, 2e-320j], [-2e-320j, 0]]):
        assert hermiticity_defect(np.array(tiny, dtype=complex)) == 0.0


def test_hermiticity_defect_keeps_its_bits_where_no_norm_overflows():
    rng = np.random.default_rng(5)
    g = rng.standard_normal((300, 4, 4)) + 1j * rng.standard_normal((300, 4, 4))
    stack = g + adjoint(g) + 1e-9 * rng.uniform(0, 10, (300, 1, 1)) * g
    unscaled = frobs(stack - adjoint(stack)) / frobs(stack)
    assert hermiticity_defects(stack).tobytes() == unscaled.tobytes()
    # so are a power of two times them, whose squares would underflow or overflow
    for power in (-600, 600):
        assert hermiticity_defects(2.0**power * stack).tobytes() == unscaled.tobytes()
    # and a strided view's, such as a transpose
    assert hermiticity_defects(stack.transpose(0, 2, 1)).tobytes() == unscaled.tobytes()
    h = g[0] + adjoint(g[0])
    want = q.hermitian_eig(h.T.copy()).eigenvalues
    assert q.hermitian_eig(h.T).eigenvalues.tobytes() == want.tobytes()


def test_a_symmetry_whose_unitarity_defect_overflows_is_not_unitary_in_the_library():
    # U†U - 1 has the entry inf + nan i, whose norm is NaN
    with np.errstate(**OVERFLOW), pytest.raises(q.NotUnitaryError, match="defect nan"):
        q.SymmetryOp(np.diag([1e160, 1.0]))


def test_a_map_whose_trace_defect_overflows_is_not_trace_preserving_in_the_library():
    # its invariant state was sought, and found singular
    kmap = q.kraus_map([np.diag([1e160, 1.0])])
    with np.errstate(**OVERFLOW):
        with pytest.raises(q.NotTracePreservingError, match="= nan exceeds eps_tp"):
            q.invariant_state(kmap)
        # validate agrees
        assert not q.validate_cptp(kmap).trace_preserving


def test_a_pi_whose_decomposition_overflows_is_refused_where_it_is_checked_in_the_library():
    # its NaN eigenvalues passed the positivity test, and enumeration found
    # "every branch has probability <= eps_prob"
    identity = q.kraus_map([np.eye(2)])
    with np.errstate(**OVERFLOW), pytest.raises(q.SingularStateError, match="eigenvalue nan"):
        q.make_step(identity, np.diag([0.5, 1e308]))


@pytest.mark.parametrize("mode", ["exact", "mc"])
@pytest.mark.parametrize("name", list(REPRO_ERRORS))
def test_cli_repro_exits_1_with_its_one_error_line(capsys, name, mode):
    assert main(["verify", str(REPROS / f"{name}.json"), "--mode", mode, "--samples", "100"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and len(lines) == 1, captured.err
    assert lines[0].startswith(REPRO_ERRORS[name])


def test_cli_validate_of_the_overflowing_map_fails_its_verdict(tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(json.loads((REPROS / "overflowing_map.json").read_text())
                               ["steps"][0]["map"]))
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)["validate"]
    assert captured.err == "" and report["tp_deviation"] == "nan" and report["passed"] is False
    assert main(["classify", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: map is not trace preserving")


def _seed_documents() -> list:
    """(kind, document) of valid map, process and tolerance documents."""
    from perfbench.gen import exact_gad, ladder_map, ladder_verify, mc_chain

    gad = q.thermal_qubit_map(np.log(2), 0.5)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    library = {
        "steps": [{"model": "unitary", "U": matrix_to_json(hadamard), "unital": True},
                  {"model": "projective", "basis": matrix_to_json(np.eye(2)), "unital": True},
                  {"model": "dephasing", "basis": matrix_to_json(np.eye(2)), "strength": 0.3,
                   "unital": True},
                  {"map": map_to_json(gad), "pi": matrix_to_json(q.invariant_state(gad))}],
        "initial_state": matrix_to_json(np.diag([0.8, 0.2])),
        "symmetry": {"matrix": matrix_to_json(np.eye(2)), "antiunitary": True},
        "samples": 64, "seed": 3,
    }
    docs = [("map", map_to_json(gad)), ("process", library),
            ("tolerances", {"eps_herm": 1e-10, "eps_tp": 1e-10, "eps_pos": 1e-12,
                            "eps_prob": 1e-14})]
    slots = [("map", ladder_map(3, "classify")), ("process", exact_gad(2)),
             ("process", exact_gad(1, equilibrium=True)),
             ("process", mc_chain("lindblad_step", 2, 64, "verify")),
             ("process", ladder_verify(3, 1))]
    with tempfile.TemporaryDirectory() as tmp:
        for s, (kind, slot) in enumerate(slots):
            op = slot.make(np.random.default_rng(s), Path(tmp) / f"seed{s}")
            docs.append((kind, dict(json.loads(op.path.read_text()), samples=64, seed=3)
                         if kind == "process" else json.loads(op.path.read_text())))
    return docs


SEEDS = _seed_documents()
MAPS = [doc for kind, doc in SEEDS if kind == "map"]
PROCESSES = [doc for kind, doc in SEEDS if kind == "process"]
TOLERANCES = next(doc for kind, doc in SEEDS if kind == "tolerances")
COMMANDS = {"map": [["validate"], ["classify"], ["dual"]],
            "process": [["verify"], ["verify", "--mode", "mc"], ["sample"]]}
JUNK = [None, True, False, "x", "1", [], [[]], {}, [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        0, -1, 1e-300, -1e-300, 1e155, -1e155, 1e160, 1e200, -1e250, 1e308, -1e308,
        10**400, -10**400]
FACTORS = [0.0, -1.0, 1e-300, 1e155, 1e160, 1e200, 1e308]


def _nodes(doc, path=()):
    """The path of every node below a document's root, parents first."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _nodes(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _is_matrix(x) -> bool:
    return (isinstance(x, list) and len(x) > 0 and all(
        isinstance(row, list) and len(row) > 0 and all(
            isinstance(p, list) and len(p) == 2 and all(
                type(v) in (int, float) and abs(v) <= sys.float_info.max for v in p)
            for p in row) for row in x))


def _mutate(data, doc):
    """doc with one to three mutations drawn from the grammar, each at a drawn node."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(_nodes(doc))
        kind = data.draw(st.sampled_from(["junk", "delete", "scale"]))
        if kind == "delete":
            paths = [p for p in paths if isinstance(_at(doc, p[:-1]), dict)]
        elif kind == "scale":
            paths = [p for p in paths if _is_matrix(_at(doc, p))]
        if not paths:
            continue
        path = data.draw(st.sampled_from(paths))
        parent = _at(doc, path[:-1])
        if kind == "junk":
            parent[path[-1]] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
        elif kind == "delete":
            del parent[path[-1]]
        else:
            factor = data.draw(st.sampled_from(FACTORS))
            parent[path[-1]] = [[[factor * v for v in p] for p in row] for row in parent[path[-1]]]
    return doc


def failed_verdict(command, report) -> bool:
    """True when the report of a command is that of a failed verdict."""
    if command[0] == "validate":
        return report["validate"]["passed"] is False
    if command[0] == "classify":
        return report["classify"]["commutators"]["passed"] is False
    if command == ["verify", "--mode", "mc"]:
        return not abs(float(report["verify"]["integral_ft"]["z_score"])) <= 3.0
    return command == ["verify"] and report["verify"]["detailed_ft"]["passed"] is False


def assert_exit_contract(kind, doc, command, tolerances=None) -> int:
    """Run one command on doc, written to a file, assert the exit-code contract, and return
    the exit code.  Process commands also write a histogram."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out, tol = (Path(tmp) / name for name in ("input.json", "report.json", "tol.json"))
        path.write_text(json.dumps(doc))
        argv = [command[0], str(path), *command[1:], "--out", str(out)]
        if kind == "process":
            argv += ["--hist", str(Path(tmp) / "hist.csv")]
        if tolerances is not None:
            tol.write_text(json.dumps(tolerances))
            argv = ["--tolerances", str(tol), *argv]
        stderr = io.StringIO()
        with redirect_stderr(stderr), redirect_stdout(io.StringIO()):
            code = main(argv)
        lines = stderr.getvalue().splitlines()
        assert code in range(5), (argv, code)
        if code == 0:
            assert lines == [], lines
        elif lines:
            assert len(lines) == 1, lines
            assert lines[0].startswith("parse error:" if code == 2 else "error:"), (code, lines)
        else:
            assert code == 1 and failed_verdict(command, json.loads(out.read_text())), argv
    return code


@pytest.mark.filterwarnings("ignore:max ||L||_F^2 dt > 0.1:UserWarning")
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_keep_the_exit_contract(data):
    kind = data.draw(st.sampled_from(["map", "process", "tolerances"]))
    if kind == "tolerances":
        doc, tolerances = data.draw(st.sampled_from(PROCESSES)), _mutate(data, TOLERANCES)
        kind = "process"
    else:
        doc, tolerances = _mutate(data, data.draw(st.sampled_from(MAPS if kind == "map"
                                                                  else PROCESSES))), None
    assert_exit_contract(kind, doc, data.draw(st.sampled_from(COMMANDS[kind])), tolerances)


@pytest.mark.parametrize("kind, doc", [(k, d) for k, d in SEEDS if k != "tolerances"])
def test_seed_documents_pass_every_command(kind, doc):
    for command in COMMANDS[kind]:
        assert assert_exit_contract(kind, doc, command, TOLERANCES) == 0, command


def test_a_check_that_lets_nan_pass_breaks_the_contract(monkeypatch):
    # require as `if defect > tol: raise` decided it: a NaN defect, printed as nan, passes
    def nan_passes(passed, error_of):
        for i in np.flatnonzero(~np.asarray(passed).reshape(-1)):
            error = error_of(int(i))
            if "nan" not in str(error):
                raise error

    for module in (qmapft.errors, qmapft.linalg, qmapft.maps, qmapft.potential, qmapft.models):
        monkeypatch.setattr(module, "require", nan_passes)
    # the grammar finds a violation by itself, and the overflowing symmetry is one: its
    # dual states are inf, and a traceback ends the run
    with pytest.raises(Exception):
        test_mutated_documents_keep_the_exit_contract()
    doc = json.loads((REPROS / "overflowing_symmetry.json").read_text())
    with pytest.raises(ValueError, match="NaN or Inf"):
        assert_exit_contract("process", doc, ["verify"])
