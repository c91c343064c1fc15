"""JSON and CSV input/output.

Matrices serialize as nested row-major arrays of [re, im] pairs; this
format is shared by map files, process files, and reports.  Report floats
are printed with 17 significant digits so golden files round-trip exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import HistogramTooLarge, ProcessFileError
from .linalg import as_complex_matrix
from .maps import KrausMap, kraus_map
from .potential import SymmetryOp
from . import models
from .process import ProcessSpec, TrajectoryEnsemble, make_step, process_spec

SCHEMA_VERSION = 1

# Most bins sigma_histogram_csv writes: a million CSV lines, about 60 MB.
MAX_BINS = 1_000_000


def matrix_to_json(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = []
        for row in data:
            rows.append([complex(entry[0], entry[1]) for entry in row])
        return as_complex_matrix(np.array(rows, dtype=np.complex128))
    except (TypeError, IndexError, ValueError) as exc:
        raise ProcessFileError(f"malformed matrix: {exc}") from exc


def map_to_json(kmap: KrausMap) -> dict:
    return {
        "dim": kmap.dim,
        "operators": [matrix_to_json(m) for m in kmap.operators],
        "labels": list(kmap.labels),
    }


def map_from_json(data) -> KrausMap:
    if not isinstance(data, dict) or "operators" not in data:
        raise ProcessFileError("map file must be an object with an 'operators' key")
    ops = [matrix_from_json(m) for m in data["operators"]]
    kmap = kraus_map(ops, labels=data.get("labels"))
    if "dim" in data and int(data["dim"]) != kmap.dim:
        raise ProcessFileError(
            f"declared dim {data['dim']} does not match operators ({kmap.dim})"
        )
    return kmap


def _read_json(path: Path):
    """Parsed JSON of a file; failures become ProcessFileError with line and column."""
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ProcessFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                               f"column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ProcessFileError(f"{path}: {exc}") from exc


@contextmanager
def _file_content(path: Path):
    """Turn errors raised while building from a file's content into ProcessFileError."""
    try:
        yield
    except KeyError as exc:
        raise ProcessFileError(f"{path}: missing required key {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise ProcessFileError(f"{path}: {exc}") from exc


def load_map_file(path) -> KrausMap:
    data = _read_json(Path(path))
    with _file_content(path):
        return map_from_json(data)


def _build_model(entry: dict) -> KrausMap:
    name = entry["model"]
    if name == "thermal_qubit":
        return models.thermal_qubit_map(entry["beta_omega"], entry["gamma"])
    if name == "unitary":
        return models.unitary_map(matrix_from_json(entry["U"]))
    if name == "projective":
        # basis vectors are the rows of a matrix
        return models.projective_measurement(matrix_from_json(entry["basis"]))
    if name == "dephasing":
        return models.dephasing_map(matrix_from_json(entry["basis"]), entry["strength"])
    if name == "lindblad_step":
        return models.lindblad_step(
            matrix_from_json(entry["H"]),
            [matrix_from_json(l) for l in entry["lindblads"]],
            entry["dt"],
        )
    raise ProcessFileError(f"unknown model {name!r}")


def step_from_json(entry: dict, base_dir: Path, tol: Tolerances):
    if "map_file" in entry:
        kmap = load_map_file(base_dir / entry["map_file"])
    elif "map" in entry:
        kmap = map_from_json(entry["map"])
    elif "model" in entry:
        kmap = _build_model(entry)
    else:
        raise ProcessFileError(
            "each step needs one of 'map_file', 'map', or 'model'"
        )
    pi = matrix_from_json(entry["pi"]) if "pi" in entry else None
    return make_step(kmap, pi=pi, unital=bool(entry.get("unital", False)), tol=tol)


def load_process_file(
    path, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[ProcessSpec, dict]:
    """Load a process spec; returns (spec, raw dict) for seed/sample defaults."""
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ProcessFileError(f"{path}: process file must be a JSON object")
    with _file_content(path):
        steps = [step_from_json(e, path.parent, tol) for e in data.get("steps", [])]
        mode = data.get("boundary_mode", "entropic")
        symmetry = None
        if "symmetry" in data:
            symmetry = SymmetryOp(
                matrix=matrix_from_json(data["symmetry"]["matrix"]),
                antiunitary=bool(data["symmetry"].get("antiunitary", True)),
            )
        kwargs = {}
        if mode == "entropic":
            kwargs["initial_state"] = matrix_from_json(data["initial_state"])
        else:
            kwargs["h_initial"] = matrix_from_json(data["H_i"])
            kwargs["h_final"] = matrix_from_json(data["H_f"])
            kwargs["beta"] = float(data["beta"])
        spec = process_spec(
            steps, boundary_mode=mode, symmetry=symmetry, tol=tol, **kwargs
        )
    return spec, data


def _format_value(v) -> str:
    if isinstance(v, np.bool_):
        v = bool(v)
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
            f"{json.dumps(str(k))}: {_format_value(x)}" for k, x in v.items()
        )
        return "{" + items + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_format_value(x) for x in v) + "]"
    if isinstance(v, (np.floating,)):
        return _format_value(float(v))
    if isinstance(v, (np.integer,)):
        return str(int(v))
    if isinstance(v, np.ndarray):
        return _format_value(v.tolist())
    if dataclasses.is_dataclass(v):
        # a report: its fields in declaration order, then its verdict if it has one
        items = {f.name: getattr(v, f.name) for f in dataclasses.fields(v)}
        if isinstance(getattr(type(v), "passed", None), property):
            items["passed"] = v.passed
        return _format_value(items)
    raise TypeError(f"cannot serialize {type(v)}")


def dumps_report(report: dict) -> str:
    """Deterministic JSON text with floats at 17 significant digits."""
    return _format_value(report) + "\n"


def make_report(body: dict, tol: Tolerances = DEFAULT_TOLERANCES) -> dict:
    """Wrap a report body with the schema version and tolerance configuration."""
    out = {"schema_version": SCHEMA_VERSION, "tolerances": tol}
    out.update(body)
    return out


def sigma_histogram_csv(
    ensemble: TrajectoryEnsemble, bin_width: float = 0.1
) -> str:
    """CSV histogram of entropy production: bin_left, bin_right, probability.

    Raises HistogramTooLarge, before allocating anything, when the Sigma
    range needs more than MAX_BINS bins of this width.
    """
    if not 0 < bin_width < math.inf:  # NaN fails both comparisons
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    sigmas = ensemble.sigmas()
    # Python floats: a range too wide for the width gives an inf or NaN count, not a warning
    lo, hi = (float(np.floor(float(s) / bin_width)) for s in (np.min(sigmas), np.max(sigmas)))
    if not hi - lo + 1 <= MAX_BINS:
        raise HistogramTooLarge(hi - lo + 1, MAX_BINS)
    if ensemble.mode == "exact":
        weights = ensemble.probabilities()
    else:
        weights = np.full(len(sigmas), 1.0 / len(sigmas))
    edges = np.arange(int(lo), int(hi) + 2) * bin_width
    # bin b is [edges[b], edges[b + 1]), the last one closed; -1 and len(edges) - 1
    # collect the samples outside every edge, which no bin reports
    bins = np.searchsorted(edges, sigmas, side="right") - 1
    bins[sigmas == edges[-1]] = len(edges) - 2
    order = np.argsort(bins, kind="stable")
    weights = weights[order]
    bounds = np.searchsorted(bins[order], np.arange(len(edges))).tolist()
    edges = edges.tolist()
    lines = ["bin_left,bin_right,probability"]
    for left, right, start, stop in zip(edges, edges[1:], bounds, bounds[1:]):
        # a fine histogram is mostly empty bins, which need no reduction
        p = float(weights[start:stop].sum()) if stop > start else 0.0
        lines.append(f"{left:.17g},{right:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"
