"""Report layout and histogram output of the serialize module.

The reference layouts are the hand-written to_dict methods the report
classes had before serialize learned to write dataclasses; the reference
histogram is the per-bin mask loop sigma_histogram_csv had before it
assigned each sample to its bin in one pass; the reference writer is
_format_value as it was before it wrote finite float arrays row by row and
all-zero blocks once; the reference parser is matrix_from_json as it was
before it read a list of matrices as one stack, one complex() call per entry.
"""

import dataclasses
import gc
import json
import math
import re
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

import qmapft as q
import qmapft.serialize
from qmapft.cli import main
from qmapft.config import DEFAULT_TOLERANCES
from qmapft.linalg import as_complex_matrix
from qmapft.serialize import (
    dumps_report,
    load_map_file,
    map_from_json,
    map_to_json,
    matrices_from_json,
    matrix_from_json,
    matrix_to_json,
    sigma_histogram_csv,
)
from test_cli import MALFORMED_MATRICES
from test_ladder_properties import ladder_maps

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
    with pytest.raises(TypeError):
        dumps_report({"map": np.zeros((3, 2, 2), dtype=complex)})
    with pytest.raises(TypeError):
        dumps_report({"z": np.complex128(1j)})


def test_numpy_scalars_and_arrays_write_as_the_four_numpy_branches_did():
    # the text the np.bool_, np.floating, np.integer and ndarray branches wrote
    report = {"b": np.bool_(True), "f": np.float64(0.1), "h": np.float32(0.1),
              "i": np.int64(-7), "u": np.uint8(200),
              "a": np.array([[1 / 3, 2.0], [np.inf, np.nan]]),
              "k": np.arange(3), "m": np.array([True, False])}
    assert dumps_report(report) == (
        '{"b": true, "f": 0.10000000000000001, "h": 0.10000000149011612, "i": -7, '
        '"u": 200, "a": [[0.33333333333333331, 2], ["inf", "nan"]], "k": [0, 1, 2], '
        '"m": [true, false]}\n'
    )


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
    weights = {"exact": np.array([0.125, 0.25, 0.5, 0.0625, 0.0625]),
               "mc": np.full(5, 1.0 / 5)}  # a sampled row weighs 1/N
    for mode, probs in weights.items():
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


def comprehension_matrix_to_json(m):
    """matrix_to_json as it was: one [re, im] pair per entry, built in Python."""
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def test_matrix_codec_equals_the_comprehension_with_negative_zeros():
    rng = np.random.default_rng(3)
    for d in range(2, 17):
        stack = rng.normal(size=(3, d, d)) + 1j * rng.normal(size=(3, d, d))
        stack.real[rng.random((3, d, d)) < 0.2] = -0.0
        stack.imag[rng.random((3, d, d)) < 0.2] = -0.0
        expected = [comprehension_matrix_to_json(m) for m in stack]
        got = matrix_to_json(stack)
        assert got == expected and repr(got) == repr(expected), d
        got = matrix_to_json(stack[0])
        assert got == expected[0] and repr(got) == repr(expected[0]), d
    assert "-0.0" in repr(expected)
    real = np.array([[0.9, -0.0], [0, 1]])
    assert repr(matrix_to_json(real)) == repr(comprehension_matrix_to_json(real))
    data = map_to_json(GAD)
    expected = [comprehension_matrix_to_json(m) for m in GAD.operators]
    assert repr(data["operators"]) == repr(expected)


def reference_format_value(v) -> str:
    """_format_value as it was before it wrote float arrays row by row: one call per value."""
    if isinstance(v, bool) or v is None:
        return json.dumps(v)
    if isinstance(v, float):
        if v != v or v in (float("inf"), float("-inf")):
            return json.dumps(str(v))
        return format(v, ".17g")
    if isinstance(v, (int, str)):
        return json.dumps(v)
    if isinstance(v, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {reference_format_value(x)}" for k, x in v.items()
        )
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(reference_format_value(x) for x in v) + "]"
    if isinstance(v, (np.generic, np.ndarray)):
        return reference_format_value(v.tolist())
    if dataclasses.is_dataclass(v):
        items = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
        if isinstance(getattr(type(v), "passed", None), property):
            items["passed"] = v.passed
        return reference_format_value(items)
    raise TypeError(f"cannot serialize {type(v)}")


def writer_calls(monkeypatch, value) -> tuple[str, int]:
    """dumps_report's text of value, and how many _format_value calls wrote it."""
    calls = []
    inner = qmapft.serialize._format_value

    def counted(v):
        calls.append(v)
        return inner(v)

    with monkeypatch.context() as patch:
        patch.setattr(qmapft.serialize, "_format_value", counted)
        return dumps_report(value), len(calls)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3.3e-320,
               2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
               -1.7976931348623157e308, 3.0, -3.0, 1e16, 2.0**53 + 2, 123456789012345680.0,
               0.1, 1 / 3, 1e-5, 1e-4, 1e21, 1e22, 9.999999999999999e16, 0.5]


def random_finite_floats(rng, size):
    bits = rng.integers(0, 2**64, size=4 * size, dtype=np.uint64, endpoint=False)
    floats = bits.view(np.float64)
    return floats[np.isfinite(floats)][:size]


@pytest.mark.parametrize("shape", [(1,), (7,), (4, 4, 2), (3, 5, 5, 2), (1, 5), (3, 1, 2),
                                   (1, 1, 1), (2, 1, 3, 1), (16, 16, 2), (31, 16, 16, 2)])
def test_float_arrays_write_the_reference_bytes_row_by_row(monkeypatch, shape):
    rng = np.random.default_rng(sum(shape))
    size = math.prod(shape)
    pools = [random_finite_floats(rng, size),
             rng.choice(EDGE_FLOATS, size=size),
             rng.normal(size=size) * 10.0 ** rng.integers(-320, 300, size=size)]
    for flat in pools:
        a = flat.reshape(shape)
        assert np.isfinite(a).all()
        text, calls = writer_calls(monkeypatch, a)
        assert calls == 1  # no recursion: the array was written by its row templates
        assert text == reference_format_value(a.tolist()) + "\n"
        # inside a report, and as a non-contiguous view, the bytes are the same
        report = {"x": a, "t": a.T, "s": [a[..., ::-1]]}
        expected = {"x": a.tolist(), "t": a.T.tolist(), "s": [a[..., ::-1].tolist()]}
        assert dumps_report(report) == reference_format_value(expected) + "\n"


def test_every_edge_float_writes_as_the_general_path_does(monkeypatch):
    a = np.array(EDGE_FLOATS)
    text, calls = writer_calls(monkeypatch, a)
    assert calls == 1
    assert text == reference_format_value(a.tolist()) + "\n"
    assert text.startswith("[0, -0, 4.9406564584124654e-324, -4.9406564584124654e-324, ")
    assert "1.7976931348623157e+308, -1.7976931348623157e+308, 3, -3, 10000000000000000, " in text


def zero_blocks(shape, seed):
    """A finite array whose blocks over the last two axes (the last axis of a vector) are,
    in turn, zero, zero but for one -0.0, zero but for one 5e-324, and dense."""
    a = np.random.default_rng(seed).normal(size=shape)
    blocks = a.reshape(-1, math.prod(shape[-2:]))
    for i, block in enumerate(blocks):
        if i % 4 < 3:
            block[:] = 0.0
            block[len(block) // 2] = (0.0, -0.0, 5e-324)[i % 4]
    return a


def ladder_dual_operators():
    """The dual operators of a d = 16 benchmark ladder map: a zero entry in most rows."""
    from perfbench.gen import _ladder, _ladder_kraus

    ops = _ladder_kraus(*_ladder(np.random.default_rng(7), 16))
    return qmapft.serialize.matrix_pairs(q.build_dual(q.kraus_map(ops), None).map.operators)


ZERO_BLOCK_ARRAYS = {
    "zeros-1d": lambda: np.zeros(5),
    "zeros-2d": lambda: np.zeros((3, 4)),
    "zeros-4d": lambda: np.zeros((31, 16, 16, 2)),
    "negative-zero-1d": lambda: np.array([0.0, 0.0, -0.0, 0.0]),
    "negative-zero-block": lambda: zero_blocks((3, 4, 2), 0)[:2],
    "subnormal-1d": lambda: np.array([0.0, 5e-324, 0.0]),
    "subnormal-block": lambda: zero_blocks((3, 4, 2), 1)[2:],
    "1d": lambda: zero_blocks((6,), 2),
    "2d": lambda: zero_blocks((4, 3), 3),
    "3d": lambda: zero_blocks((9, 4, 3), 4),
    "5d": lambda: zero_blocks((2, 3, 2, 3, 2), 5),
    "ladder-dual": ladder_dual_operators,
    "dense": lambda: np.random.default_rng(6).normal(size=(31, 16, 16, 2)),
}


@pytest.mark.parametrize("case", list(ZERO_BLOCK_ARRAYS))
def test_zero_blocks_write_the_general_path_bytes(monkeypatch, case):
    a = ZERO_BLOCK_ARRAYS[case]()
    if case == "ladder-dual":  # most blocks, the rows of an operator, are zero
        nonzero = a.reshape(-1, 32).view(np.uint64).any(axis=1)
        assert a.shape == (31, 16, 16, 2) and 0 < nonzero.sum() < len(nonzero) / 4
    for v in (a, a[..., ::-1], a.T):
        text, calls = writer_calls(monkeypatch, v)
        assert calls == 1
        assert text == qmapft.serialize._format_value(v.tolist()) + "\n"
        assert text == reference_format_value(v.tolist()) + "\n"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("content", ["good", "invalid", "not-utf-8", "missing"])
def test_read_json_leaves_the_cycle_collector_as_it_found_it(tmp_path, monkeypatch, enabled,
                                                              content):
    path = tmp_path / "file.json"
    if content != "missing":
        path.write_bytes({"good": b'{"a": [[1, 2], [3]]}', "invalid": b"{not json",
                          "not-utf-8": b"\xff\xfe{}"}[content])
    decoding = []

    def loads(text):
        decoding.append(gc.isenabled())
        return json.JSONDecoder().decode(text)

    monkeypatch.setattr(json, "loads", loads)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if content == "good":
            assert qmapft.serialize._read_json(path) == {"a": [[1, 2], [3]]}
        else:
            with pytest.raises(q.ProcessFileError, match=re.escape(str(path))):
                qmapft.serialize._read_json(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    # the decoder ran with the collector paused; a file that cannot be read is never decoded
    assert decoding == ([False] if content in ("good", "invalid") else [])


@pytest.mark.parametrize("value", [
    np.array([1.0, np.nan]), np.array([[np.inf, 2.0], [0.5, -np.inf]]),
    np.arange(6).reshape(2, 3), np.array([True, False]), np.array([0.1, 2.5], dtype=np.float32),
    np.array(1.5), np.array(-0.0), np.zeros((0,)), np.zeros((2, 0)), np.zeros((0, 3, 2)),
], ids=["nan", "inf", "int", "bool", "float32", "0-d", "0-d-negative-zero", "empty",
        "empty-rows", "empty-stack"])
def test_other_arrays_keep_the_general_path(monkeypatch, value):
    text, calls = writer_calls(monkeypatch, value)
    assert calls > 1  # the array went on as value.tolist(), written value by value
    assert text == reference_format_value(value.tolist()) + "\n"


@pytest.mark.parametrize("dims, examples", [((2, 15), 6), ((16, 16), 2)])
def test_classify_and_dual_reports_read_back_bit_exactly(tmp_path_factory, dims, examples):
    @given(ladder_maps(dims))
    @settings(max_examples=examples, deadline=None)
    def check(example):
        tmp = tmp_path_factory.mktemp("ladder")
        path = tmp / "map.json"
        path.write_text(json.dumps(map_to_json(example.kmap)))
        kmap = load_map_file(path)
        pi = q.invariant_state(kmap)
        dual = q.build_dual(kmap, pi)
        structure = q.build_potential_structure(kmap, pi)

        assert main(["dual", str(path), "--out", str(tmp / "dual.json")]) == 0
        report = json.loads((tmp / "dual.json").read_text())["dual"]
        back = map_from_json(report["map"])
        assert np.array_equal(back.operators, dual.map.operators)
        assert back.labels == dual.map.labels
        assert np.array_equal(matrix_from_json(report["pi_dual"]), dual.pi_dual)

        main(["classify", str(path), "--out", str(tmp / "classify.json")])
        report = json.loads((tmp / "classify.json").read_text())["classify"]
        assert np.array_equal(matrix_from_json(report["pi"]), pi)
        assert np.array_equal(report["structure"]["delta_phi"], structure.delta_phi)

    check()


def matrix_from_json_per_entry(data):
    """Reference: matrix_from_json with one complex() call per entry."""
    try:
        rows = [[complex(re, im) for re, im in row] for row in data]
        if not rows or not all(rows):
            raise ValueError("it has no entries")
        return as_complex_matrix(np.array(rows, dtype=np.complex128))
    except (TypeError, ValueError, OverflowError) as exc:
        raise q.ProcessFileError(f"malformed matrix of [re, im] pairs: {exc}") from exc


# JSON numbers whose float value is easy to get wrong: signed zeros, subnormals,
# integers a float cannot hold exactly, and the booleans complex() reads as 1 and 0
AWKWARD_ENTRIES = [-0.0, 0.0, 0, -0, 5e-324, -5e-324, 2.2250738585072009e-308, -1e-310,
                   True, False, 1, -7, 2**53 + 1, -(2**63) - 1, 2**64 + 1, 10**300, 1e308]


def awkward_stack(rng, k, d):
    """A JSON (k, d, d) stack of [re, im] pairs: Gaussian floats, a quarter of them awkward."""
    values = (rng.standard_normal((k, d, d, 2)) * 10.0 ** rng.integers(-3, 4)).tolist()
    flat = [pair for m in values for row in m for pair in row]
    for pair in flat:
        for i in (0, 1):
            if rng.random() < 0.25:
                pair[i] = AWKWARD_ENTRIES[rng.integers(len(AWKWARD_ENTRIES))]
    return json.loads(json.dumps(values))


@pytest.mark.parametrize("d", range(1, 17))
def test_matrices_from_json_is_the_per_entry_parser_bit_for_bit(d):
    rng = np.random.default_rng([14, d])
    for k in (1, 2, 2 * d - 1):
        data = awkward_stack(rng, k, d)
        stack = matrices_from_json(data, "operators")
        reference = np.stack([matrix_from_json_per_entry(m) for m in data])
        assert stack.dtype == np.complex128 and stack.shape == (k, d, d)
        assert stack.tobytes() == reference.tobytes()
        for m, want in zip(data, reference):
            assert matrix_from_json(m).tobytes() == want.tobytes()


def test_matrix_from_json_reads_rectangular_matrices_bit_for_bit():
    data = awkward_stack(np.random.default_rng(5), 1, 3)[0][:2]  # 2 x 3
    assert matrix_from_json(data).tobytes() == matrix_from_json_per_entry(data).tobytes()


# entries np.array would have read as numbers, and nestings that are not matrices
NOT_MATRICES = {
    **MALFORMED_MATRICES,
    "numeric-string": [[["1", 0]]],
    "null-entry": [[[None, 0]]],
    "boolean-string": [[["true", 0]]],
    "one-number": [[[1.0]]],
    "nested-entry": [[[[1.0], 0]]],
    "object-entry": [[[{"re": 1}, 0]]],
    "object-pair": [[{"re": 1, "im": 0}]],
    "string-pair": [["ab"]],
    "number-row": [1.0],
    "string-matrix": "ab",
    "number-matrix": 5,
    "null-matrix": None,
    "ragged-rows": [[[1, 0], [0, 0]], [[1, 0]]],
    "nan": [[[float("nan"), 0]]],
    "infinity": [[[0, float("inf")]]],
    "integer-past-the-float-range": [[[0, -(10**400)]]],
}


@pytest.mark.parametrize("case", list(NOT_MATRICES))
def test_matrix_from_json_refuses_what_the_per_entry_parser_refused(case):
    data = json.loads(json.dumps(NOT_MATRICES[case]))
    with pytest.raises(q.ProcessFileError, match="malformed matrix"):
        matrix_from_json_per_entry(data)
    with pytest.raises(q.ProcessFileError, match="malformed matrix"):
        matrix_from_json(data)
    with pytest.raises(q.ProcessFileError, match="malformed matrix of \\[re, im\\] pairs in 'L'"):
        matrices_from_json([matrix_to_json(np.eye(2)), data], "L")


def test_matrices_from_json_names_a_key_that_is_not_an_array():
    for data in ["ab", 5, None, {"a": 1}]:
        with pytest.raises(q.ProcessFileError, match="'lindblads' must be an array of matrices"):
            matrices_from_json(data, "lindblads")


def test_matrices_of_different_shapes_are_a_dimension_error():
    data = [matrix_to_json(np.eye(2)), matrix_to_json(np.eye(3))]
    with pytest.raises(q.DimensionMismatchError, match=r"different shapes \(2, 2\) and \(3, 3\)"):
        matrices_from_json(data, "operators")
    with pytest.raises(q.DimensionMismatchError, match="exceeds the cap 16"):
        matrices_from_json([matrix_to_json(np.eye(17))], "operators")


def test_an_empty_array_is_the_empty_stack():
    assert matrices_from_json([], "lindblads").shape == (0, 0, 0)
