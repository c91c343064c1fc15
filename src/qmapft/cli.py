"""Command-line front end.

Subcommands: validate, classify, dual, verify, sample.  All structured
output is JSON (CSV for histograms); exit codes are 0 success, 1 check
failed, 2 parse error, 3 user input needed (invariant state), 4 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    EnumerationTooLarge,
    MixedPotentialOperator,
    NonUniqueInvariantState,
    ProcessFileError,
    QmapError,
)
from .maps import invariant_state, validate_cptp
from .potential import build_dual, build_potential_structure, check_ladder_commutators
from .process import (
    build_dual_process,
    enumerate_trajectories,
    sample_trajectories,
    verify_detailed_ft,
    verify_integral_ft,
)
from .serialize import (
    dumps_report,
    load_map_file,
    load_process_file,
    make_report,
    map_to_json,
    matrix_from_json,
    matrix_to_json,
    sigma_histogram_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_NEEDS_INPUT = 3
EXIT_RESOURCE_CAP = 4


def _load_tolerances(path) -> Tolerances:
    if path is None:
        return DEFAULT_TOLERANCES
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ProcessFileError(f"{path}: {exc}") from exc
    return Tolerances(**data)


def _emit(report: dict, out_path) -> None:
    text = dumps_report(report)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _resolve_pi(kmap, args, tol):
    if args.pi:
        return matrix_from_json(json.loads(Path(args.pi).read_text()))
    if getattr(args, "unital", False):
        return np.eye(kmap.dim) / kmap.dim
    try:
        return invariant_state(kmap, tol)
    except NonUniqueInvariantState as exc:
        print(
            f"error: {exc}; pass --pi FILE (or --unital for the maximally "
            f"mixed state)",
            file=sys.stderr,
        )
        raise SystemExit(EXIT_NEEDS_INPUT) from exc


def cmd_validate(args) -> int:
    tol = _load_tolerances(args.tolerances)
    kmap = load_map_file(args.map_file)
    report = validate_cptp(kmap, tol)
    _emit(make_report({"validate": report.to_dict()}, tol), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_classify(args) -> int:
    tol = _load_tolerances(args.tolerances)
    kmap = load_map_file(args.map_file)
    pi = _resolve_pi(kmap, args, tol)
    try:
        structure = build_potential_structure(kmap, pi, tol)
    except MixedPotentialOperator as exc:
        print(f"classification failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    comm = check_ladder_commutators(kmap, structure)
    body = {
        "pi": matrix_to_json(pi),
        "structure": structure.to_dict(),
        "labels": list(kmap.labels),
        "commutators": comm.to_dict(),
    }
    _emit(make_report({"classify": body}, tol), args.out)
    return EXIT_OK if comm.passed else EXIT_CHECK_FAILED


def cmd_dual(args) -> int:
    tol = _load_tolerances(args.tolerances)
    kmap = load_map_file(args.map_file)
    pi = _resolve_pi(kmap, args, tol)
    dual = build_dual(kmap, pi, tol=tol)
    body = {
        "map": map_to_json(dual.map),
        "pi_dual": matrix_to_json(dual.pi_dual),
    }
    _emit(make_report({"dual": body}, tol), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    tol = _load_tolerances(args.tolerances)
    spec, raw = load_process_file(args.process_file, tol)
    body: dict = {"mode": args.mode}
    if args.mode == "exact":
        ensemble = enumerate_trajectories(spec, tol)
        detailed = verify_detailed_ft(spec, tol)
        integral = verify_integral_ft(ensemble)
        sigmas = ensemble.sigmas()
        body["integral_ft"] = integral.to_dict()
        body["detailed_ft"] = detailed.to_dict()
        body["max_abs_sigma"] = float(np.max(np.abs(sigmas)))
        ok = detailed.passed
    else:
        samples = args.samples or int(raw.get("samples", 10000))
        seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
        ensemble = sample_trajectories(spec, samples, seed, tol)
        integral = verify_integral_ft(ensemble)
        body["samples"] = samples
        body["seed"] = seed
        body["integral_ft"] = integral.to_dict()
        ok = abs(integral.z_score) <= 3.0
    if args.hist:
        Path(args.hist).write_text(sigma_histogram_csv(ensemble, args.bin_width))
    _emit(make_report({"verify": body}, tol), args.out)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sample(args) -> int:
    tol = _load_tolerances(args.tolerances)
    spec, raw = load_process_file(args.process_file, tol)
    samples = args.samples or int(raw.get("samples", 10000))
    seed = args.seed if args.seed is not None else int(raw.get("seed", 0))
    ensemble = sample_trajectories(spec, samples, seed, tol)
    integral = verify_integral_ft(ensemble)
    body = {
        "samples": samples,
        "seed": seed,
        "integral_ft": integral.to_dict(),
    }
    if args.hist:
        Path(args.hist).write_text(sigma_histogram_csv(ensemble, args.bin_width))
    _emit(make_report({"sample": body}, tol), args.out)
    return EXIT_OK


def _positive(cast):
    """argparse type: a value of the given type that is above zero."""

    def parse(text: str):
        value = cast(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value

    parse.__name__ = cast.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmapft",
        description="Fluctuation-theorem verification for CPTP quantum maps",
    )
    parser.add_argument("--tolerances", help="JSON file overriding tolerance defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a map file for trace preservation")
    p.add_argument("map_file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="potential ladder classification of a map")
    p.add_argument("map_file")
    p.add_argument("--pi", help="JSON matrix file with the invariant state")
    p.add_argument("--unital", action="store_true", help="use pi = 1/N")
    p.add_argument("--out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual", help="construct the dual map")
    p.add_argument("map_file")
    p.add_argument("--pi")
    p.add_argument("--unital", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("verify", help="fluctuation-theorem verification of a process")
    p.add_argument("process_file")
    p.add_argument("--mode", choices=["exact", "mc"], default="exact")
    p.add_argument("--samples", type=_positive(int))
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--hist", help="write a CSV histogram of entropy production")
    p.add_argument("--bin-width", type=_positive(float), default=0.1)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sample", help="Monte Carlo sampling of a process")
    p.add_argument("process_file")
    p.add_argument("--samples", type=_positive(int))
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--hist")
    p.add_argument("--bin-width", type=_positive(float), default=0.1)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProcessFileError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except EnumerationTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except NonUniqueInvariantState as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEEDS_INPUT
    except QmapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
