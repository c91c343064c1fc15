"""JSON and CSV input/output.

Matrices serialize as nested row-major arrays of [re, im] pairs; this
format is shared by map files, process files, and reports.  A list of
matrices (a map's "operators", a lindblad_step's "lindblads") must hold
matrices of one shape and is read as one (K, m, n) stack by
matrices_from_json; a single matrix is its K = 1 case.  Report floats
are printed with 17 significant digits, so they read back bit-exactly.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
from contextlib import contextmanager
from itertools import chain
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, MAX_DIM, Tolerances, finite_real
from .errors import DimensionMismatchError, HistogramTooLarge, ProcessFileError
from .maps import KrausMap, kraus_map
from .potential import SymmetryOp
from . import models
from .process import (ENTROPIC, EQUILIBRIUM, ProcessSpec, TrajectoryEnsemble, make_steps,
                      process_spec, with_steps)

SCHEMA_VERSION = 1

# Most bins sigma_histogram_csv writes: a million CSV lines, about 60 MB.
MAX_BINS = 1_000_000


def matrix_pairs(m: np.ndarray) -> np.ndarray:
    """A matrix, or a stack of them, as a (..., 2) float array of [re, im] pairs."""
    m = np.asarray(m, dtype=np.complex128)
    return np.stack([m.real, m.imag], axis=-1)


def matrix_to_json(m: np.ndarray) -> list:
    return matrix_pairs(m).tolist()


class _Malformed(ProcessFileError, ValueError):
    """Bad content, to be named by _file_content; other ProcessFileErrors name their file."""


def matrices_from_json(data, key: str | None) -> np.ndarray:
    """A JSON array of K matrices of [re, im] pairs as one (K, m, n) complex128 stack.

    One pass over the nesting: each level is flattened and every length checked
    (rows of a matrix, entries of a row, two numbers per pair); the entries must
    be JSON numbers or booleans, each read as complex(re, im) reads it, and are
    converted by one np.array call and checked to be finite.  Bad content is a
    parse error naming `key`, if given; well-formed matrices of different
    shapes, or a dimension above MAX_DIM, raise DimensionMismatchError.  An
    empty array is the (0, 0, 0) stack.
    """
    if type(data) is not list:
        raise _Malformed(f"{key!r} must be an array of matrices, got {data!r}")
    try:
        rows = list(chain.from_iterable(data))
        pairs = list(chain.from_iterable(rows))
        if set(map(len, pairs)) - {2}:
            bad = next(p for p in pairs if len(p) != 2)
            raise ValueError(f"entry {bad!r} is not an [re, im] pair")
        numbers = list(chain.from_iterable(pairs))
        try:  # np.array reads the string "1" as 1.0 and null as NaN; sum() refuses both
            sum(numbers)
        except TypeError:
            bad = next(x for x in numbers if type(x) not in (int, float, bool))
            raise TypeError(f"entry {bad!r} is not a number") from None
        values = np.array(numbers, dtype=np.float64)  # OverflowError past the float range
        if not np.isfinite(values).all():
            raise ValueError("matrix contains NaN or Inf entries")
        counts, widths = set(map(len, data)), set(map(len, rows))
        if 0 in counts | widths:
            raise ValueError("it has no entries")
        if len(counts) > 1 or len(widths) > 1:
            shapes = [(len(m), *sorted(set(map(len, m)))) for m in data]
            ragged = next((s for s in shapes if len(s) > 2), None)
            if ragged:
                raise ValueError(f"its rows have different lengths {list(ragged[1:])}")
            other = next(s for s in shapes if s != shapes[0])
            raise DimensionMismatchError(
                f"the matrices of {key!r} have different shapes {shapes[0]} and {other}")
    except (TypeError, ValueError, OverflowError) as exc:
        where = f" in {key!r}" if key else ""
        raise _Malformed(f"malformed matrix of [re, im] pairs{where}: {exc}") from exc
    shape = (len(data), *counts, *widths) if data else (0, 0, 0)
    if max(shape[1:]) > MAX_DIM:
        raise DimensionMismatchError(f"dimension {max(shape[1:])} exceeds the cap {MAX_DIM}")
    return values.view(np.complex128).reshape(shape)


def matrix_from_json(data, key: str | None = None) -> np.ndarray:
    """One matrix of [re, im] pairs: the K = 1 case of matrices_from_json."""
    return matrices_from_json([data], key)[0]


def map_pairs(kmap: KrausMap) -> dict:
    """map_to_json's object with the operators left a matrix_pairs array, for reports."""
    return {
        "dim": kmap.dim,
        "operators": matrix_pairs(kmap.operators),
        "labels": list(kmap.labels),
    }


def map_to_json(kmap: KrausMap) -> dict:
    data = map_pairs(kmap)
    data["operators"] = data["operators"].tolist()
    return data


def map_from_json(data) -> KrausMap:
    if not isinstance(data, dict) or "operators" not in data:
        raise _Malformed("map file must be an object with an 'operators' key")
    ops = matrices_from_json(data["operators"], "operators")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):  # a string would be split
        raise _Malformed(f"'labels' must be a list, got {labels!r}")
    kmap = kraus_map(ops, labels=labels)
    dim = data.get("dim", kmap.dim)
    if type(dim) is not int or dim != kmap.dim:  # type(): isinstance counts true as an int
        raise _Malformed(f"declared dim {dim!r} is not the operators' dimension {kmap.dim}")
    return kmap


class _CollectorPause:
    """`with collector_paused:` pauses the cycle collector for the block and restores its
    state on every exit, so a collector the caller disabled stays disabled.  Static methods
    of one shared instance: entering and leaving allocate no object the collector tracks (no
    context object, no bound method), so no pass starts at either edge of the block."""

    # the collector's state before each open block, innermost last; one list per process,
    # as there is one collector
    states: list = []

    @staticmethod
    def __enter__():
        _CollectorPause.states.append(gc.isenabled())
        gc.disable()

    @staticmethod
    def __exit__(exc_type, exc, tb):
        if _CollectorPause.states.pop():
            gc.enable()


collector_paused = _CollectorPause()


def _read_json(path: Path):
    """Parsed JSON of a UTF-8 file, decoded with the cycle collector paused (JSON holds no
    cycles to free); failures become ProcessFileError."""
    try:
        text = path.read_text(encoding="utf-8")
        with collector_paused:
            return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProcessFileError(f"{path}: invalid JSON at line {exc.lineno}, "
                               f"column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
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


def load_matrix_file(path) -> np.ndarray:
    data = _read_json(Path(path))
    with _file_content(path):
        return matrix_from_json(data)


def load_tolerances(path) -> Tolerances:
    """Tolerances of a JSON object of known keys; Tolerances checks each value."""
    data = _read_json(Path(path))
    if not isinstance(data, dict):
        raise ProcessFileError(f"{path}: tolerance file must be a JSON object")
    known = {f.name for f in dataclasses.fields(Tolerances)}
    for key in data:
        if key not in known:
            raise ProcessFileError(f"{path}: unknown tolerance {key!r}")
    with _file_content(path):
        return Tolerances(**data)


def _build_model(entry: dict, tol: Tolerances) -> KrausMap:
    name = entry["model"]
    if name == "thermal_qubit":
        return models.thermal_qubit_map(entry["beta_omega"], entry["gamma"])
    if name == "unitary":
        return models.unitary_map(matrix_from_json(entry["U"], "U"))
    if name == "projective":
        # basis vectors are the rows of a matrix
        return models.projective_measurement(matrix_from_json(entry["basis"], "basis"))
    if name == "dephasing":
        return models.dephasing_map(
            matrix_from_json(entry["basis"], "basis"), entry["strength"])
    if name == "lindblad_step":
        return models.lindblad_step(
            matrix_from_json(entry["H"], "H"),
            matrices_from_json(entry["lindblads"], "lindblads"),
            entry["dt"],
            tol,
        )
    raise _Malformed(f"unknown model {name!r}")


def _boolean(data: dict, key: str, default: bool) -> bool:
    """data[key], which must be a JSON boolean: bool("false") is true."""
    value = data.get(key, default)
    if not isinstance(value, bool):
        raise _Malformed(f"{key!r} must be true or false, got {value!r}")
    return value


def step_inputs_from_json(entry: dict, base_dir: Path, tol: Tolerances) -> tuple:
    """(map, pi or None) of one entry of "steps", read and built, not yet checked; "unital":
    true is read as pi = 1/N."""
    if not isinstance(entry, dict):
        raise _Malformed(f"each entry of 'steps' must be an object, got {entry!r}")
    if "map_file" in entry:
        if not isinstance(entry["map_file"], str):
            raise _Malformed(f"'map_file' must be a path string, got {entry['map_file']!r}")
        kmap = load_map_file(base_dir / entry["map_file"])
    elif "map" in entry:
        kmap = map_from_json(entry["map"])
    elif "model" in entry:
        kmap = _build_model(entry, tol)
    else:
        raise _Malformed("each step needs one of 'map_file', 'map', or 'model'")
    pi = matrix_from_json(entry["pi"], "pi") if "pi" in entry else None
    if _boolean(entry, "unital", False):
        if pi is not None:
            raise _Malformed("a step takes 'pi' or 'unital': true, not both")
        pi = np.eye(kmap.dim) / kmap.dim
    return kmap, pi


def load_process_file(
    path, tol: Tolerances = DEFAULT_TOLERANCES
) -> tuple[ProcessSpec, dict]:
    """Load a process spec; returns (spec, raw dict) for seed/sample defaults.

    The whole file is read, and its boundary and symmetry checked, before any
    step is: so a parse error anywhere comes first.  Then every step is checked
    and classified in one make_steps pass (trace preservation first), which
    raises the first failing step's error; last, the steps' dimension is
    checked against the boundary's and the boundary resolved for them
    (with_steps), so the spec returned carries its measurement bases.
    """
    path = Path(path)
    data = _read_json(path)
    if not isinstance(data, dict):
        raise ProcessFileError(f"{path}: process file must be a JSON object")
    with _file_content(path):
        steps = data.get("steps", [])
        if not isinstance(steps, list):  # a string would be read letter by letter
            raise _Malformed(f"'steps' must be an array of step objects, got {steps!r}")
        inputs = [step_inputs_from_json(e, path.parent, tol) for e in steps]
        mode = data.get("boundary_mode", ENTROPIC)
        symmetry = None
        if "symmetry" in data:
            sym = data["symmetry"]
            if not isinstance(sym, dict):
                raise _Malformed(f"'symmetry' must be an object with a 'matrix' key, got {sym!r}")
            symmetry = SymmetryOp(
                matrix=matrix_from_json(sym["matrix"], "matrix"),
                antiunitary=_boolean(sym, "antiunitary", True),
            )
        kwargs = {}
        if mode == ENTROPIC:
            kwargs["initial_state"] = matrix_from_json(data["initial_state"], "initial_state")
        elif mode == EQUILIBRIUM:  # any other mode is named by process_spec
            kwargs["h_initial"] = matrix_from_json(data["H_i"], "H_i")
            kwargs["h_final"] = matrix_from_json(data["H_f"], "H_f")
            kwargs["beta"] = data["beta"]  # process_spec checks it is a finite number
        boundary = process_spec((), boundary_mode=mode, symmetry=symmetry, tol=tol, **kwargs)
        kmaps, pis = zip(*inputs) if inputs else ((), ())
        spec = with_steps(boundary, make_steps(kmaps, pis, tol), tol)
    return spec, data


def _nested(items, shape, fmt="%.17g"):
    """Texts of the consecutive `shape` blocks of items: a C-level template per row, per axis."""
    items = iter(items)
    for n in reversed(shape):
        items = map(f"[{', '.join([fmt] * n)}]".__mod__, zip(*[items] * n))
        fmt = "%s"
    return items


def _format_value(v) -> str:
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
    if (type(v) is np.ndarray and v.dtype == np.float64 and v.ndim and v.size
            and np.isfinite(v).all()):
        # the general path's bytes by blocks over the last two axes; zero bits share one text
        shape = v.shape[-2:]
        blocks = v.reshape(-1, math.prod(shape))
        nonzero = blocks.view(np.uint64).any(axis=1)
        zero = next(_nested([0.0] * blocks.shape[1], shape))
        texts = _nested(blocks[nonzero].ravel().tolist(), shape)
        return next(_nested([next(texts) if x else zero for x in nonzero.tolist()],
                            v.shape[:-2], "%s"))
    if isinstance(v, (np.generic, np.ndarray)):
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
    if not (finite_real(bin_width) and bin_width > 0):
        raise ValueError(f"bin width must be positive and finite, got {bin_width}")
    sigmas = ensemble.sigmas()
    # Python floats: a range too wide for the width gives an inf or NaN count, not a warning
    lo, hi = (float(np.floor(float(s) / bin_width)) for s in (np.min(sigmas), np.max(sigmas)))
    if not hi - lo + 1 <= MAX_BINS:
        raise HistogramTooLarge(hi - lo + 1, MAX_BINS)
    edges = np.arange(int(lo), int(hi) + 2) * bin_width
    # bin b is [edges[b], edges[b + 1]), the last one closed; -1 and len(edges) - 1
    # collect the samples outside every edge, which no bin reports
    bins = np.searchsorted(edges, sigmas, side="right") - 1
    bins[sigmas == edges[-1]] = len(edges) - 2
    order = np.argsort(bins, kind="stable")
    weights = ensemble.probabilities()[order]
    bounds = np.searchsorted(bins[order], np.arange(len(edges))).tolist()
    edges = edges.tolist()
    lines = ["bin_left,bin_right,probability"]
    for left, right, start, stop in zip(edges, edges[1:], bounds, bounds[1:]):
        # a fine histogram is mostly empty bins, which need no reduction
        p = float(weights[start:stop].sum()) if stop > start else 0.0
        lines.append(f"{left:.17g},{right:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"
