"""Seeded input generator for the qmapft benchmark.

A workload is a fixed *round* of operation slots.  Every operation gets its
own process or map file, whose parameters come from a random stream keyed
by (seed, round, slot) alone: the same seed gives the same files, and no two
operations of a run share an input, so a cache kept across invocations
cannot show a gain that one-process-per-invocation users would never get.
The program under test sees only these files and its command line.

Slot shapes (R, d, K, sample counts) are fixed per slot and only the
continuous parameters are seeded, so the cost of a round hardly depends on
the seed.  Each round has an odd number of slots of distinct cost, so the
median and the tail of the operation times land inside one slot's cluster
rather than between two.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Ranges of the seeded continuous parameters, recorded with every result.
EXACT_GAD = {"beta_omega": (0.3, 1.5), "gamma": (0.2, 0.9), "p_ground": (0.55, 0.95)}
# Narrower for Monte Carlo: bounded |Sigma| keeps e^{-Sigma} light-tailed,
# so a few thousand samples estimate <e^{-Sigma}> with a meaningful z-score.
MC_GAD = {"beta_omega": (0.2, 0.8), "gamma": (0.2, 0.6), "p_ground": (0.4, 0.8)}
MC_LINDBLAD = {"omega": (0.5, 1.5), "beta": (0.2, 0.8), "rate": (0.5, 1.0), "rate_dt": (0.05, 0.1)}
LADDER = {"gap": (0.5, 1.2), "beta": (0.2, 0.5), "down_rate": (0.5, 1.0), "rate_dt": (0.04, 0.08)}
EQUILIBRIUM = {"beta": (0.5, 1.5), "omega": (0.5, 1.5)}


@dataclass(frozen=True)
class Op:
    """One CLI operation, its input and report files, and its shape."""

    kind: str              # verify_exact, verify_mc, sample_hist, classify, dual
    argv: tuple
    report: Path
    path: Path             # the input file: a map file for classify and dual
    hist: Path | None = None
    bound: int = 0         # d^2 * prod_r K_r, the enumeration bound of one process
    kraus: int = 0         # K of the map file (classify, dual)
    samples: int = 0       # Monte Carlo samples requested

    def with_mc_seed(self, seed: int) -> "Op":
        """The same operation with another Monte Carlo seed."""
        argv = list(self.argv)
        argv[argv.index("--seed") + 1] = str(seed)
        return replace(self, argv=tuple(argv))


@dataclass(frozen=True)
class Slot:
    info: dict             # shape of the slot, recorded with every result
    make: object           # make(rng, stem) -> Op


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple
    params: dict

    def round_ops(self, seed: int, j: int, workdir: Path) -> list:
        """Write the inputs of round j and return its operations in order."""
        ops = []
        for s, slot in enumerate(self.slots):
            rng = np.random.default_rng([seed, j, s])
            ops.append(slot.make(rng, workdir / f"r{j}s{s}"))
        return ops

    def describe(self) -> dict:
        return {
            "why": self.why,
            "round": [slot.info for slot in self.slots],
            "seeded_parameters": self.params,
        }


def _mat(m) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m, dtype=complex)]


def _write(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj))
    return path


def _u(rng, bounds) -> float:
    return float(rng.uniform(*bounds))


def _gad_steps(rng, r: int, ranges: dict) -> list:
    return [
        {
            "model": "thermal_qubit",
            "beta_omega": _u(rng, ranges["beta_omega"]),
            "gamma": _u(rng, ranges["gamma"]),
        }
        for _ in range(r)
    ]


def _qubit_lindblad(rng) -> dict:
    omega = _u(rng, MC_LINDBLAD["omega"])
    beta = _u(rng, MC_LINDBLAD["beta"])
    rate = _u(rng, MC_LINDBLAD["rate"])
    down = np.sqrt(rate) * np.array([[0, 1], [0, 0]])
    up = np.sqrt(rate * np.exp(-beta * omega)) * np.array([[0, 0], [1, 0]])
    return {
        "model": "lindblad_step",
        "H": _mat(np.diag([0.0, omega])),
        "lindblads": [_mat(down), _mat(up)],
        "dt": _u(rng, MC_LINDBLAD["rate_dt"]) / rate,
    }


def _ladder(rng, d: int):
    """Hamiltonian, jump operators and dt of a thermal ladder with generic gaps.

    Each of the 2(d - 1) jumps connects one neighbouring pair of levels, so
    every Kraus operator of the discretized step changes the potential by a
    single amount: K = 2d - 1 with the no-jump operator.
    """
    gaps = rng.uniform(*LADDER["gap"], size=d - 1)
    beta = _u(rng, LADDER["beta"])
    down = rng.uniform(*LADDER["down_rate"], size=d - 1)
    jumps = []
    for i in range(1, d):
        lower = np.zeros((d, d))
        lower[i - 1, i] = 1.0
        jumps.append(np.sqrt(down[i - 1]) * lower)
        jumps.append(np.sqrt(down[i - 1] * np.exp(-beta * gaps[i - 1])) * lower.T)
    h = np.diag(np.concatenate([[0.0], np.cumsum(gaps)]))
    dt = _u(rng, LADDER["rate_dt"]) / float(down.max())
    return h, jumps, dt


def _ladder_kraus(h, jumps, dt) -> list:
    """Discretized Lindblad step M0 = 1 - (iH + sum L'L / 2) dt, M_k = L_k sqrt(dt),
    renormalized to be exactly trace preserving."""
    d = h.shape[0]
    decay = sum(l.conj().T @ l for l in jumps)
    ops = [np.eye(d) - (1j * h + decay / 2) * dt] + [l * np.sqrt(dt) for l in jumps]
    w, v = np.linalg.eigh(sum(m.conj().T @ m for m in ops))
    correction = (v * w**-0.5) @ v.conj().T
    return [m @ correction for m in ops]


def _ladder_labels(d: int) -> list:
    return ["M0"] + [f"{kind}{i}" for i in range(1, d) for kind in ("down", "up")]


def _equilibrium(rng, dim: int) -> dict:
    """Gibbs boundaries with diagonal H_i and H_f, so the enumerator still prunes."""

    def levels():
        return np.diag(np.cumsum([0.0] + list(rng.uniform(*EQUILIBRIUM["omega"], size=dim - 1))))

    return {
        "boundary_mode": "equilibrium",
        "beta": _u(rng, EQUILIBRIUM["beta"]),
        "H_i": _mat(levels()),
        "H_f": _mat(levels()),
    }


def _report(stem: Path) -> Path:
    return stem.with_name(stem.name + ".out.json")


def exact_gad(r: int, equilibrium: bool = False) -> Slot:
    def make(rng, stem):
        proc = {"steps": _gad_steps(rng, r, EXACT_GAD)}
        if equilibrium:
            proc.update(_equilibrium(rng, 2))
        else:
            p = _u(rng, EXACT_GAD["p_ground"])
            proc["initial_state"] = _mat(np.diag([p, 1.0 - p]))
        path = _write(stem.with_suffix(".json"), proc)
        report = _report(stem)
        return Op(
            "verify_exact",
            ("verify", str(path), "--out", str(report)),
            report,
            path=path,
            bound=4 * 4**r,
        )

    boundary = "equilibrium" if equilibrium else "entropic"
    return Slot({"op": "verify exact", "model": "thermal_qubit", "R": r, "d": 2, "K": 4,
                 "boundary": boundary}, make)


def mc_chain(model: str, r: int, samples: int, command: str) -> Slot:
    """`verify --mode mc` or `sample --hist` on a GAD or Lindblad qubit chain."""

    def make(rng, stem):
        if model == "thermal_qubit":
            steps = _gad_steps(rng, r, MC_GAD)
        else:
            steps = [_qubit_lindblad(rng) for _ in range(r)]
        p = _u(rng, MC_GAD["p_ground"])
        proc = {"steps": steps, "initial_state": _mat(np.diag([p, 1.0 - p]))}
        path = _write(stem.with_suffix(".json"), proc)
        report = _report(stem)
        hist = stem.with_name(stem.name + ".hist.csv")
        seed = int(rng.integers(2**31))
        common = ("--samples", str(samples), "--seed", str(seed), "--out", str(report),
                  "--hist", str(hist))
        if command == "verify":
            argv = ("verify", str(path), "--mode", "mc") + common
            kind = "verify_mc"
        else:
            argv = ("sample", str(path)) + common
            kind = "sample_hist"
        return Op(kind, argv, report, path=path, hist=hist, samples=samples)

    k = 4 if model == "thermal_qubit" else 3
    op = "verify mc --hist" if command == "verify" else "sample --hist"
    return Slot({"op": op, "model": model, "R": r, "d": 2, "K": k, "samples": samples}, make)


def ladder_map(d: int, command: str) -> Slot:
    """`classify` or `dual` on a map file of one discretized ladder step."""

    def make(rng, stem):
        ops = _ladder_kraus(*_ladder(rng, d))
        path = _write(stem.with_suffix(".json"),
                      {"operators": [_mat(m) for m in ops], "labels": _ladder_labels(d)})
        report = _report(stem)
        return Op(command, (command, str(path), "--out", str(report)), report,
                  path=path, kraus=len(ops))

    return Slot({"op": command, "model": "ladder map file", "d": d, "K": 2 * d - 1}, make)


def ladder_verify(d: int, r: int, equilibrium: bool = False) -> Slot:
    """Exact `verify` of R lindblad_step model steps, each its own ladder."""

    def make(rng, stem):
        steps = []
        for _ in range(r):
            h, jumps, dt = _ladder(rng, d)
            steps.append({"model": "lindblad_step", "H": _mat(h),
                          "lindblads": [_mat(l) for l in jumps], "dt": dt})
        proc = {"steps": steps}
        if equilibrium:
            proc.update(_equilibrium(rng, d))
        else:
            pops = 0.5 / d + 0.5 * rng.dirichlet(np.ones(d))
            proc["initial_state"] = _mat(np.diag(pops))
        path = _write(stem.with_suffix(".json"), proc)
        report = _report(stem)
        return Op("verify_exact", ("verify", str(path), "--out", str(report)), report,
                  path=path, bound=d * d * (2 * d - 1) ** r)

    boundary = "equilibrium" if equilibrium else "entropic"
    return Slot({"op": "verify exact", "model": "lindblad_step ladder", "R": r, "d": d,
                 "K": 2 * d - 1, "boundary": boundary}, make)


def workloads(tiny: bool = False) -> dict:
    """The benchmark's workloads; `tiny` shrinks every shape for the self-test."""
    if tiny:
        chain, samples = (3, 4, 5), (100, 120, 140, 160, 180)
        dims = (3, 4, 5, 3, 4, 5, 3, 4, 5)
    else:
        chain, samples = (7, 8, 9), (2000, 2500, 3000, 3500, 4000)
        dims = (16, 16, 16, 12, 10, 12, 8, 14, 14)
    short, middle, long = chain
    exact = Workload(
        "exact_chain",
        "exact verify of thermal-qubit (GAD) chains, R = 7, 7, 8, 8, 8, 9, 9 with "
        "equilibrium boundaries in the last slot: the trajectory enumerator and "
        "detailed-FT matching do nearly all the work, deep and narrow (d = 2, K = 4, "
        "3^R of the 4^(R+1) branches survive)",
        (exact_gad(short), exact_gad(short), exact_gad(middle), exact_gad(middle),
         exact_gad(middle), exact_gad(long), exact_gad(long, equilibrium=True)),
        {"thermal_qubit": EXACT_GAD, "equilibrium": EQUILIBRIUM},
    )
    mc = Workload(
        "mc_sample",
        "verify --mode mc and sample --hist on GAD and Lindblad qubit chains, R = 3-5, "
        "a few thousand samples each with distinct seeds: isolates the sampler and its "
        "random-stream scheme and never calls the enumerator",
        (mc_chain("thermal_qubit", 3, samples[0], "verify"),
         mc_chain("lindblad_step", 4, samples[1], "sample"),
         mc_chain("thermal_qubit", 5, samples[2], "verify"),
         mc_chain("lindblad_step", 3, samples[3], "verify"),
         mc_chain("thermal_qubit", 4, samples[4], "sample")),
        {"thermal_qubit": MC_GAD, "lindblad_step": MC_LINDBLAD},
    )
    ladder = Workload(
        "ladder_d16",
        "classify, dual and exact verify (R <= 3) of discretized Lindblad ladder maps, "
        "d = 8-16, K = 2d - 1: the per-map layers (d^2 x d^2 superoperator eig, "
        "classification of every step, duals) dominate, and the enumerator runs wide "
        "and shallow with a tiny branch yield",
        (ladder_map(dims[0], "classify"), ladder_map(dims[1], "dual"),
         ladder_verify(dims[2], 3),
         ladder_map(dims[3], "classify"), ladder_map(dims[4], "dual"),
         ladder_verify(dims[5], 2, equilibrium=True),
         ladder_map(dims[6], "classify"), ladder_map(dims[7], "dual"),
         ladder_verify(dims[8], 3)),
        {"ladder": LADDER, "equilibrium": EQUILIBRIUM},
    )
    return {w.name: w for w in (exact, mc, ladder)}
