"""Benchmark of the qmapft command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client in one process runs CLI
operations back to back through `qmapft.cli.main(argv)` (a closed loop),
one seeded input file per operation, in whole rounds until S seconds have
passed.  Every report is checked; the last line of standard output is one
JSON object with the metrics.  `--trace 0` gives the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run.  End-to-end times are
scaled to a reference machine speed measured next to each operation (see
`speed_kernel`).  The exit code is 0 only when every operation passed its
checks.  See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy is first imported
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import gen, spans  # noqa: E402

SETUP_REPS = 7          # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
# A run continues past --seconds until it has this many operations, so that
# the tail percentile leaves TAIL_BEYOND samples in the costliest slots.
MIN_OPS = 4 * TAIL_BEYOND

# Correctness gate.
EXACT_INTEGRAL_TOL = 1e-12
EXACT_DETAILED_TOL = 1e-9
MC_Z_MAX = 3.0
# A correct sampler exceeds |z| = 3 in 0.27% of operations.  An operation
# over the limit is re-run, untimed, with the next two Monte Carlo seeds and
# fails only if both re-runs exceed the limit too.
MC_RECHECKS = 2
MAP_TOL = 1e-10         # trace preservation and fixed point of a dual map
CLASSIFY_TOL = 1e-9     # delta-phi of no-jump and reversed-jump operators
HIST_TOL = 1e-9

# Machine-speed reference.  On a shared host the speed of the same code
# drifts by up to 1.8x over seconds to minutes, with the CPU busy the whole
# time (no steal, no waiting).  A fixed kernel that does not touch qmapft
# runs untimed before and after every operation and every set-up probe, and
# every SAMPLE_PERIOD_S inside a long operation; each stretch of wall time
# between two kernel runs is scaled by REF_KERNEL_S over the mean of their
# kernel times.  REF_KERNEL_S is the kernel's median time on an unloaded
# 2-vCPU Xeon, so scaled times read as seconds on that machine.
REF_KERNEL_S = 0.0063
SAMPLE_PERIOD_S = 0.25
_KERNEL_RNG = np.random.default_rng(20150515)
_KERNEL_SMALL = _KERNEL_RNG.standard_normal((4, 4)) + 1j * _KERNEL_RNG.standard_normal((4, 4))
_KERNEL_EIG = _KERNEL_RNG.standard_normal((48, 48))

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "trajectories_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "process.enumerate_s": "s", "process.enumerate_calls": "count",
    "process.branches": "count", "process.us_per_branch": "us",
    "process.branch_yield": "ratio", "process.detailed_ft_match_s": "s",
    "process.dual_process_s": "s", "process.compile_calls": "count",
    "process.compile_s": "s", "process.integral_ft_s": "s",
    "process.sample_s": "s", "process.us_per_sample": "us",
    "maps.invariant_state_s": "s", "maps.invariant_state_calls": "count",
    "maps.apply_map_s": "s", "maps.apply_map_calls": "count",
    "potential.classify_s": "s", "potential.classify_calls": "count",
    "potential.dual_s": "s", "potential.dual_calls": "count",
    "linalg.hermitian_eig_s": "s", "linalg.hermitian_eig_calls": "count",
    "serialize.load_s": "s", "serialize.report_s": "s", "models.build_s": "s",
    "cli.self_s": "s", "cli.op_s": "s", "trace.untraced_op_s": "s",
    "trace.overhead_frac": "ratio",
}


class ProgramMissing(Exception):
    """The checkout holds no qmapft sources to benchmark."""


def import_cli():
    """qmapft.cli imported from this checkout's src/, never from elsewhere."""
    if not (SRC / "qmapft" / "__init__.py").is_file():
        raise ProgramMissing(f"no qmapft package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qmapft.cli

    if Path(qmapft.cli.__file__).resolve().parent != SRC / "qmapft":
        raise ProgramMissing(f"qmapft was imported from {qmapft.cli.__file__}, not {SRC}")
    return qmapft.cli


# ---------------------------------------------------------------- speed


def speed_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array and LAPACK work.

    The mix mirrors what qmapft's operations spend their time on: Python
    loops, many calls on tiny matrices, and dense eigensolvers.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += (i * i) % 7
    for _ in range(600):
        acc += float(np.trace(_KERNEL_SMALL @ _KERNEL_SMALL.conj().T).real)
    for _ in range(2):
        np.linalg.eig(_KERNEL_EIG)
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two kernel runs into reference seconds."""
    return REF_KERNEL_S / (0.5 * (before + after))


class SpeedMeter:
    """Times operations in wall seconds and in reference seconds.

    The kernel runs after each operation, and from a SIGALRM handler every
    SAMPLE_PERIOD_S inside it, so an operation of a few seconds that spans
    a change of machine speed is scaled stretch by stretch.  The handler's
    own time is left out of the operation's wall time.
    """

    def __init__(self):
        self.kernel = speed_kernel()    # kernel time at the end of the last operation

    def timed(self, fn, *args) -> tuple:
        """(fn(*args), wall seconds, reference seconds)."""
        marks = []                      # (operation seconds so far, kernel seconds)
        paused = 0.0

        def tick(signum, frame):
            nonlocal paused
            t = time.perf_counter()
            marks.append((t - t0 - paused, speed_kernel()))
            paused += time.perf_counter() - t

        previous = signal.signal(signal.SIGALRM, tick)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0 - paused
            signal.signal(signal.SIGALRM, previous)
        after = speed_kernel()
        points = [(0.0, self.kernel)] + marks + [(wall, after)]
        reference = sum((b - a) * speed_scale(ka, kb)
                        for (a, ka), (b, kb) in zip(points, points[1:]))
        self.kernel = after
        return result, wall, reference


# ---------------------------------------------------------------- checks


def _matrices(data) -> np.ndarray:
    return np.array([[[complex(re, im) for re, im in row] for row in m] for m in data])


def _check_hist(path: Path, problems: list) -> bytes:
    text = path.read_text()
    rows = text.strip().splitlines()[1:]
    total = sum(float(row.split(",")[2]) for row in rows)
    if not rows or abs(total - 1.0) > HIST_TOL:
        problems.append(f"histogram over {len(rows)} bins sums to {total!r}")
    return text.encode()


def inspect(op: gen.Op) -> tuple:
    """Check one operation's report files.

    Returns (problems, z_failed, branches, samples, bytes for the digest);
    z_failed is set when |z| exceeded the limit.
    """
    problems: list = []
    z_failed = False
    branches = samples = 0
    try:
        blob = op.report.read_bytes()
        report = json.loads(blob)
        if op.kind == "verify_exact":
            body = report["verify"]
            dev = body["integral_ft"]["deviation"]
            res = body["detailed_ft"]["max_residual"]
            branches = int(body["detailed_ft"]["branch_count"])
            if not dev <= EXACT_INTEGRAL_TOL:
                problems.append(f"integral FT deviation {dev!r} > {EXACT_INTEGRAL_TOL}")
            if not res <= EXACT_DETAILED_TOL:
                problems.append(f"detailed FT residual {res!r} > {EXACT_DETAILED_TOL}")
            if branches <= 0:
                problems.append("no branches enumerated")
        elif op.kind in ("verify_mc", "sample_hist"):
            body = report["verify" if op.kind == "verify_mc" else "sample"]
            samples = int(body["samples"])
            z = body["integral_ft"]["z_score"]
            if samples != op.samples:
                problems.append(f"{samples} samples reported, {op.samples} requested")
            if not (isinstance(z, (int, float)) and abs(z) <= MC_Z_MAX):
                z_failed = True
                problems.append(f"|z| of {z!r} exceeds {MC_Z_MAX}")
            blob += _check_hist(op.hist, problems)
        elif op.kind == "classify":
            body = report["classify"]
            dphi = body["structure"]["delta_phi"]
            labels = body["labels"]
            if len(dphi) != op.kraus or not body["commutators"]["passed"]:
                problems.append("classification has the wrong size or fails its commutators")
            # no-jump operator: no potential change; a jump and its reverse: opposite changes
            worst = max([abs(dphi[0])] + [abs(a + b) for a, b in zip(dphi[1::2], dphi[2::2])])
            if labels[0] != "M0" or not worst <= CLASSIFY_TOL:
                problems.append(f"potential changes violate the ladder structure by {worst!r}")
        elif op.kind == "dual":
            body = report["dual"]
            ops = _matrices(body["map"]["operators"])
            pi = _matrices([body["pi_dual"]])[0]
            dim = ops.shape[1]
            tp = np.linalg.norm(np.einsum("kji,kjl->il", ops.conj(), ops) - np.eye(dim))
            fix = np.linalg.norm(np.einsum("kij,jl,kml->im", ops, pi, ops.conj()) - pi)
            if len(ops) != op.kraus or not (tp <= MAP_TOL and fix <= MAP_TOL):
                problems.append(f"dual map: {len(ops)} operators, TP defect {tp!r}, "
                                f"fixed-point residual {fix!r}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return problems + [f"unreadable report: {exc!r}"], False, 0, 0, b""
    return problems, z_failed, branches, samples, blob


def invoke(cli, argv, tracer=None):
    """Run one CLI operation in this process; returns (exit code, error text)."""
    try:
        if tracer is None:
            return cli.main(list(argv)), None
        return tracer.call(spans.ROOT_LAYER, cli.main, list(argv)), None
    except SystemExit as exc:
        return exc.code, None
    except Exception:  # a crash is a failed operation, and the loop goes on
        return None, traceback.format_exc(limit=3)


def judge(cli, op: gen.Op, rc, error) -> dict:
    """Correctness verdict for one finished operation (untimed)."""
    problems, z_failed, branches, samples, blob = inspect(op)
    # `verify --mode mc` itself exits 1 when |z| > 3
    expected = 1 if (z_failed and op.kind == "verify_mc") else 0
    if rc != expected:
        crash = f": {error.strip().splitlines()[-1]}" if error else ""
        problems.insert(0, f"exit code {rc}{crash}")
    rechecks = 0
    if z_failed and len(problems) == 1:
        seed = int(op.argv[op.argv.index("--seed") + 1])
        for k in range(1, MC_RECHECKS + 1):
            rechecks += 1
            rerun = op.with_mc_seed((seed + k) % 2**31)
            rc2, _ = invoke(cli, rerun.argv)
            more, z2, *_ = inspect(rerun)
            if rc2 == (1 if z2 else 0) and not more:
                problems = []
                break
    return {"ok": not problems, "problems": problems, "branches": branches,
            "samples": samples, "rechecks": rechecks, "digest": hashlib.sha256(blob).hexdigest()}


# ---------------------------------------------------------------- runs


class SetupProbe:
    """Fresh processes that import qmapft and load one round's inputs.

    Calling the probe with the seconds elapsed runs every probe due by then;
    the probes are spread evenly over the run, so that one slow phase of the
    machine does not set the median.  Each probe's wall time is kept in
    `wall` and, scaled to the reference speed, in `times`.
    """

    def __init__(self, workload: gen.Workload, seed: int, workdir: Path, reps: int,
                 seconds: float):
        setup_dir = workdir / "setup"
        setup_dir.mkdir()
        loads = [["map" if op.kind in ("classify", "dual") else "process", str(op.path)]
                 for op in workload.round_ops(seed, 0, setup_dir)]
        self.listing = setup_dir / "inputs.json"
        self.listing.write_text(json.dumps(loads))
        self.due = [seconds * i / max(reps - 1, 1) for i in range(reps)]
        self.times: list = []
        self.wall: list = []

    def __call__(self, elapsed: float) -> None:
        while len(self.times) < len(self.due) and elapsed >= self.due[len(self.times)]:
            before = speed_kernel()
            out = subprocess.run(
                [sys.executable, str(BENCH / "probe.py"), str(SRC), str(self.listing)],
                capture_output=True, text=True, timeout=150, check=True)
            wall = float(out.stdout.split()[-1])
            self.wall.append(wall)
            self.times.append(wall * speed_scale(before, speed_kernel()))


def closed_loop(cli, workload: gen.Workload, seed: int, seconds: float, workdir: Path,
                tracer: spans.Tracer | None, between_rounds=None) -> tuple:
    """Run whole rounds back to back until `seconds` have passed and MIN_OPS ran.

    `between_rounds(elapsed)`, if given, runs after each round, untimed.

    Untraced runs run every round untraced, timed by a SpeedMeter; each
    record's `scaled` is its time in reference seconds.  Traced runs run rounds in pairs, one untraced and
    one traced, interleaved slot by slot with alternating order, so both
    sides of the tracing overhead see the same machine state; they report
    wall time only.
    """
    records: list = []
    round_digests: list = []
    digest = hashlib.sha256()
    start = time.perf_counter()
    j = 0
    while True:
        modes = (False,) if tracer is None else (False, True)
        rounds = [workload.round_ops(seed, j + k, workdir) for k in range(len(modes))]
        runs = [[] for _ in modes]
        meter = SpeedMeter() if tracer is None else None
        for s in range(len(workload.slots)):
            for k in (range(len(modes)) if s % 2 == 0 else reversed(range(len(modes)))):
                traced = modes[k]
                scaled = None
                if meter is not None:
                    (rc, error), elapsed, scaled = meter.timed(invoke, cli, rounds[k][s].argv)
                else:
                    with spans.installed(tracer) if traced else nullcontext():
                        if traced:
                            tracer.op_id = len(records) + k * len(workload.slots) + s
                        t0 = time.perf_counter()
                        rc, error = invoke(cli, rounds[k][s].argv, tracer if traced else None)
                        elapsed = time.perf_counter() - t0
                runs[k].append((elapsed, scaled, rc, error))
        for k, traced in enumerate(modes):
            for s, (op, (elapsed, scaled, rc, error)) in enumerate(zip(rounds[k], runs[k])):
                rec = judge(cli, op, rc, error)
                digest.update(rec.pop("digest").encode())
                rec.update(round=j, slot=s, traced=traced, seconds=elapsed, scaled=scaled,
                           bound=op.bound)
                records.append(rec)
            round_digests.append(digest.hexdigest())
            for path in workdir.glob(f"r{j}s*"):
                path.unlink()
            j += 1
        elapsed = time.perf_counter() - start
        if between_rounds is not None:
            between_rounds(elapsed)
        if elapsed >= seconds and len(records) >= MIN_OPS:
            return records, round_digests


# ---------------------------------------------------------------- metrics


def tail_percentile(values: list) -> tuple:
    """(p, value): the highest whole percentile leaving >= TAIL_BEYOND samples above it.

    Nearest-rank; never below the median, which is what runs of fewer than
    2 * TAIL_BEYOND operations report.
    """
    n = len(values)
    p = max(50, 100 * (n - TAIL_BEYOND) // n)
    rank = max(1, -(-p * n // 100))
    return p, sorted(values)[rank - 1]


def end_to_end(records: list, probe: SetupProbe) -> tuple:
    """End-to-end metrics, every time in reference seconds (see speed_kernel)."""
    setup = probe.times
    times = [r["scaled"] for r in records]
    wall = [r["seconds"] for r in records]
    busy = sum(times)
    branches = sum(r["branches"] for r in records)
    samples = sum(r["samples"] for r in records)
    p, tail = tail_percentile(times)
    n = len(times)
    metrics = {
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail,
        "ops_per_s": n / busy,
        "trajectories_per_s": (branches + samples) / busy,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {
        "op_s.p50": f"n={n} operations",
        "op_s.tail": f"p{p} of n={n} operations",
        "ops_per_s": f"{n} operations in {busy:.3f} reference s of operation time",
        "trajectories_per_s":
            f"{branches} branches + {samples} samples over {busy:.3f} reference s",
        "setup_s": f"median of {len(setup)} fresh processes, in reference s",
        "peak_rss_mb": "maximum resident set of this process",
    }
    extra = {
        "op_s.tail_percentile": p,
        "branches_per_s": branches / busy if branches else None,
        "samples_per_s": samples / busy if samples else None,
        "failed_frac": sum(not r["ok"] for r in records) / n,
        # the same statistics of unscaled wall time, and the machine's speed
        "wall.op_s.p50": statistics.median(wall),
        "wall.op_s.tail": tail_percentile(wall)[1],
        "wall.ops_per_s": n / sum(wall),
        "wall.setup_s": statistics.median(probe.wall),
        "speed.wall_over_reference": sum(wall) / busy,
    }
    return metrics, counts, extra


def per_layer(records: list, tracer: spans.Tracer) -> tuple:
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    n = len(traced)
    self_s: dict = {}
    calls: dict = {}
    enum_calls_by_op: dict = {}
    branches = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        layer = span[spans.LAYER]
        self_s[layer] = self_s.get(layer, 0.0) + own
        calls[layer] = calls.get(layer, 0) + 1
        if layer == "process.enumerate":
            branches += span[spans.BRANCHES]
            enum_calls_by_op[span[spans.OP]] = enum_calls_by_op.get(span[spans.OP], 0) + 1
    bound = sum(records[op]["bound"] * k for op, k in enum_calls_by_op.items())
    samples = sum(r["samples"] for r in traced)
    op_s = sum(r["seconds"] for r in traced) / n
    untraced_op_s = sum(r["seconds"] for r in untraced) / len(untraced)
    metrics = {}
    for name in PER_LAYER:  # <layer>_s and <layer>_calls; the rest follow
        layer, _, stat = name.rpartition("_")
        if stat == "s":
            metrics[name] = self_s.get(layer, 0.0) / n
        elif stat == "calls":
            metrics[name] = calls.get(layer, 0) / n
    metrics.update({
        "process.branches": branches / n,
        "process.us_per_branch":
            1e6 * self_s.get("process.enumerate", 0.0) / branches if branches else 0.0,
        "process.branch_yield": branches / bound if bound else 0.0,
        "process.us_per_sample":
            1e6 * self_s.get("process.sample", 0.0) / samples if samples else 0.0,
        "cli.self_s": self_s.get(spans.ROOT_LAYER, 0.0) / n,
        "cli.op_s": op_s,
        "trace.untraced_op_s": untraced_op_s,
        "trace.overhead_frac": op_s / untraced_op_s - 1.0,
    })
    counts = {name: f"mean over n={n} traced operations" for name in metrics}
    counts["trace.untraced_op_s"] = f"mean over n={len(untraced)} untraced operations"
    counts["trace.overhead_frac"] = f"{n} traced against {len(untraced)} untraced operations"
    extra = {
        "sum_of_self_times_s": sum(self_s.values()) / n,
        "spans": len(tracer.spans),
    }
    return metrics, counts, extra


# ---------------------------------------------------------------- environment


def _git_commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = None
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------- main


def parse_args(argv):
    names = sorted(gen.workloads())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload's shapes (the benchmark's self-test)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_cli()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = gen.workloads(tiny=args.tiny)[args.workload]
    seed = args.seed % 2**63
    (BENCH / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=BENCH / "_work"))
    tracer = spans.Tracer() if args.trace else None
    try:
        probe = None
        if tracer is None:
            reps = 1 if args.tiny else SETUP_REPS
            probe = SetupProbe(workload, seed, workdir, reps, args.seconds)
            probe(0.0)
        records, round_digests = closed_loop(cli, workload, seed, args.seconds, workdir, tracer,
                                             probe)
        setup = {} if probe is None else {"reference": probe.times, "wall": probe.wall}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics, counts, extra = end_to_end(records, probe)
        units = END_TO_END
    else:
        metrics, counts, extra = per_layer(records, tracer)
        units = PER_LAYER
    failed = [r for r in records if not r["ok"]]
    correct = not failed
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "environment": environment(),
        "workload_definition": workload.describe(),
        "metrics": {k: {"value": metrics[k], "unit": units[k], "samples": counts[k]}
                    for k in units},
        "extra": extra,
        "setup_seconds": setup,
        "attempted": len(records),
        "failed": len(failed),
        "mc_rechecked": [{"round": r["round"], "slot": r["slot"], "reruns": r["rechecks"]}
                         for r in records if r["rechecks"]],
        "failures": [{"round": r["round"], "slot": r["slot"], "problems": r["problems"]}
                     for r in failed[:20]],
        "report_digest": {"rounds": len(round_digests), "sha256": round_digests[-1],
                          "after_each_round": round_digests},
        "op_seconds": [r["seconds"] for r in records],
        "op_reference_seconds": [r["scaled"] for r in records],
    }
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tag = "-tiny" if args.tiny else ""
    out = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}{tag}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")

    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {len(records)} operations, "
          f"{len(failed)} failed, {len(round_digests)} rounds, digest {round_digests[-1][:16]}")
    for name in units:
        print(f"#   {name:28s} {metrics[name]:<14.6g} {units[name]:6s} {counts[name]}")
    for name, value in extra.items():
        print(f"#   {name:28s} {value}")
    for f in result["failures"]:
        print(f"#   FAILED round {f['round']} slot {f['slot']}: {'; '.join(f['problems'])}")
    print(f"#   results: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
