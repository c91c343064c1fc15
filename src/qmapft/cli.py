"""Command-line front end.

Subcommands: validate, classify, dual, verify, sample.  All structured
output is JSON (CSV for histograms); exit codes are 0 success, 1 check
failed, 2 parse error, 3 user input needed (invariant state), 4 resource
cap exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import (
    EnumerationTooLarge,
    HistogramTooLarge,
    NonUniqueInvariantState,
    ProcessFileError,
    QmapError,
    SampleCountTooLarge,
)
from .maps import validate_cptp
from .potential import build_dual, build_potential_structure, check_ladder_commutators
from .process import (
    RNG_SCHEME,
    SEED_LIMIT,
    enumerate_trajectories,
    sample_trajectories,
    verify_detailed_ft,
    verify_integral_ft,
)
from .serialize import (
    collector_paused,
    dumps_report,
    load_map_file,
    load_matrix_file,
    load_process_file,
    load_tolerances,
    make_report,
    map_pairs,
    matrix_pairs,
    sigma_histogram_csv,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_NEEDS_INPUT = 3
EXIT_RESOURCE_CAP = 4


def _emit(report: dict, out_path) -> None:
    text = dumps_report(report)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _given_pi(kmap, args):
    """The --pi file's state, 1/N with --unital, else None: the invariant state is computed
    and checked once, by the call that classifies or dualizes the map."""
    if args.pi:
        return load_matrix_file(args.pi)
    return np.eye(kmap.dim) / kmap.dim if args.unital else None


def cmd_validate(args, tol: Tolerances) -> int:
    kmap = load_map_file(args.map_file)
    report = validate_cptp(kmap, tol)
    _emit(make_report({"validate": report}, tol), args.out)
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_classify(args, tol: Tolerances) -> int:
    kmap = load_map_file(args.map_file)
    structure = build_potential_structure(kmap, _given_pi(kmap, args), tol)
    comm = check_ladder_commutators(kmap, structure)
    body = {
        "pi": matrix_pairs(structure.pi),
        # pi is written above, as a complex matrix; its eigendecomposition is left out
        "structure": {name: getattr(structure, name) for name in
                      ("potentials", "classes", "class_potentials", "delta_phi")},
        "labels": list(kmap.labels),
        "commutators": comm,
    }
    _emit(make_report({"classify": body}, tol), args.out)
    return EXIT_OK if comm.passed else EXIT_CHECK_FAILED


def cmd_dual(args, tol: Tolerances) -> int:
    kmap = load_map_file(args.map_file)
    dual = build_dual(kmap, _given_pi(kmap, args), tol=tol)
    body = {
        "map": map_pairs(dual.map),
        "pi_dual": matrix_pairs(dual.pi_dual),
    }
    _emit(make_report({"dual": body}, tol), args.out)
    return EXIT_OK


def _monte_carlo(args, spec, raw: dict, tol: Tolerances) -> tuple:
    """(ensemble, report body) of a Monte Carlo run.

    The sample count and seed are each flag's value if given, else the
    process file's.
    """
    samples = args.samples or raw.get("samples", 10000)
    seed = args.seed if args.seed is not None else raw.get("seed", 0)
    # type(...) is int: JSON true/false are bools, which isinstance counts as ints
    if not (type(samples) is int and samples > 0):
        raise ProcessFileError(
            f"{args.process_file}: 'samples' must be a positive integer, got {samples!r}"
        )
    if not (type(seed) is int and 0 <= seed < SEED_LIMIT):
        raise ProcessFileError(
            f"{args.process_file}: 'seed' must be an integer in [0, 2**128), got {seed!r}"
        )
    ensemble = sample_trajectories(spec, samples, seed, tol)
    body = {
        "samples": samples,
        "seed": seed,
        "rng_scheme": RNG_SCHEME,
        "integral_ft": verify_integral_ft(ensemble),
    }
    return ensemble, body


def _write_outputs(args, ensemble, command: str, body: dict, tol: Tolerances) -> None:
    """The --hist CSV, then the report; a histogram over its bin cap writes neither."""
    if args.hist:
        Path(args.hist).write_text(sigma_histogram_csv(ensemble, args.bin_width))
    _emit(make_report({command: body}, tol), args.out)


def cmd_verify(args, tol: Tolerances) -> int:
    spec, raw = load_process_file(args.process_file, tol)
    body: dict = {"mode": args.mode}
    if args.mode == "exact":
        ensemble = enumerate_trajectories(spec, tol)
        detailed = verify_detailed_ft(spec, tol)
        body["integral_ft"] = verify_integral_ft(ensemble)
        body["detailed_ft"] = detailed
        body["max_abs_sigma"] = float(np.max(np.abs(ensemble.sigmas())))
        ok = detailed.passed
    else:
        ensemble, mc = _monte_carlo(args, spec, raw, tol)
        body.update(mc)
        ok = abs(mc["integral_ft"].z_score) <= 3.0
    _write_outputs(args, ensemble, "verify", body, tol)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_sample(args, tol: Tolerances) -> int:
    spec, raw = load_process_file(args.process_file, tol)
    ensemble, body = _monte_carlo(args, spec, raw, tol)
    _write_outputs(args, ensemble, "sample", body, tol)
    return EXIT_OK


def _positive(cast):
    """argparse type: a finite value of the given type that is above zero."""

    def parse(text: str):
        value = cast(text)
        if not 0 < value < math.inf:  # NaN fails both comparisons
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value

    parse.__name__ = cast.__name__
    return parse


def _seed(text: str) -> int:
    """argparse type: an integer in [0, 2**128), the range of Philox keys."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < SEED_LIMIT:
        raise argparse.ArgumentTypeError(f"must be an integer in [0, 2**128), got {text}")
    return value


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

    for name, func, text in [
        ("classify", cmd_classify, "potential ladder classification of a map"),
        ("dual", cmd_dual, "construct the dual map"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("map_file")
        given = p.add_mutually_exclusive_group()
        given.add_argument("--pi", help="JSON matrix file with the invariant state")
        given.add_argument("--unital", action="store_true", help="use pi = 1/N")
        p.add_argument("--out")
        p.set_defaults(func=func)

    for name, func, text in [
        ("verify", cmd_verify, "fluctuation-theorem verification of a process"),
        ("sample", cmd_sample, "Monte Carlo sampling of a process"),
    ]:
        p = sub.add_parser(name, help=text)
        p.add_argument("process_file")
        if name == "verify":
            p.add_argument("--mode", choices=["exact", "mc"], default="exact")
        p.add_argument("--samples", type=_positive(int))
        p.add_argument("--seed", type=_seed)
        p.add_argument("--out")
        p.add_argument("--hist", help="write a CSV histogram of entropy production")
        p.add_argument("--bin-width", type=_positive(float), default=0.1)
        p.set_defaults(func=func)
    return parser


# built once: parse_args fills a new namespace on every call
PARSER = build_parser()


def main(argv=None) -> int:
    """Run one command, parsing to report, with the cycle collector paused (a pass over its
    decoded input and arrays frees nothing); every exit restores the caller's state."""
    with collector_paused:
        args = PARSER.parse_args(argv)
        try:
            tol = (DEFAULT_TOLERANCES if args.tolerances is None
                   else load_tolerances(args.tolerances))
            return args.func(args, tol)
        except ProcessFileError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_PARSE_ERROR
        except (EnumerationTooLarge, HistogramTooLarge, SampleCountTooLarge) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RESOURCE_CAP
        except NonUniqueInvariantState as exc:
            hint = "; pass --pi FILE (or --unital for the maximally mixed state)"
            print(f"error: {exc}{hint if hasattr(args, 'pi') else ''}", file=sys.stderr)
            return EXIT_NEEDS_INPUT
        except QmapError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
