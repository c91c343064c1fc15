"""Self-test of the benchmark: tiny versions of every workload.

Checks that every metric of BENCHMARK.json is printed with its unit, that
counts and report digests repeat exactly across two runs of the same seed,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import gen, run

WORKLOADS = sorted(gen.workloads())


def _run(capsys, workload: str, trace: int, seed: int = 3) -> tuple:
    rc = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                   "--trace", str(trace), "--tiny"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    saved = run.BENCH / "out" / f"{workload}-seed{seed}-trace{trace}-tiny.json"
    return rc, last, json.loads(saved.read_text())


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed_with_units(capsys, workload):
    rc, last, saved = _run(capsys, workload, trace=0)
    assert rc == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert saved["environment"]["numpy"] and saved["workload_definition"]["why"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_and_digest_repeat(capsys, workload):
    runs = [_run(capsys, workload, trace=1) for _ in range(2)]
    for rc, last, _ in runs:
        assert rc == 0 and last["correct"]
        assert {k: v["unit"] for k, v in last["metrics"].items()} == run.PER_LAYER
    counts = [k for k, unit in run.PER_LAYER.items() if unit == "count"]
    counts.append("process.branch_yield")
    first, second = ({k: last["metrics"][k]["value"] for k in counts} for _, last, _ in runs)
    assert first == second
    assert runs[0][2]["report_digest"] == runs[1][2]["report_digest"]
    if workload == "exact_chain":
        assert first["process.compile_calls"] == 4.0
        assert first["process.enumerate_calls"] == 3.0


def test_tail_percentile_leaves_ten_samples_above():
    assert run.tail_percentile(list(range(40))) == (75, 29)
    assert run.tail_percentile(list(range(100))) == (90, 89)
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (50, 2.0)


def test_speed_meter_scales_each_stretch(monkeypatch):
    import time

    kernels = iter([run.REF_KERNEL_S] + [2 * run.REF_KERNEL_S] * 10)
    monkeypatch.setattr(run, "speed_kernel", lambda: next(kernels))
    meter = run.SpeedMeter()
    result, wall, reference = meter.timed(time.sleep, 0.6)
    assert result is None and 0.6 <= wall < 0.7
    # the first stretch, up to the tick at 0.25 s, runs at 1.5x the reference
    # kernel time on average; every later one at 2x
    assert abs(reference - (0.25 / 1.5 + (wall - 0.25) / 2)) < 0.01
    assert meter.kernel == 2 * run.REF_KERNEL_S


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
