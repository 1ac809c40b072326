"""Smoke test of the benchmark at toy size.

Run from the root of the checkout: ``python3 -m pytest bench/test_smoke.py``.
It is not part of the library's test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TOY = {
    "sweep": {},
    "learn": {"p": 5, "n": 2000, "pool_size": 2},
    "scan": {"p": 6, "n": 1000, "pool_size": 2},
    "cli": {"p": 5, "n": 500, "pool_size": 2},
}
TOY_OPS = {"sweep": 2, "learn": 2, "scan": 2, "cli": 1}


def toy(name, seed=3):
    workload = workloads.WORKLOADS[name](seed, run.ROOT)
    for key, value in TOY[name].items():
        setattr(workload, key, value)
    workload.setup()
    return workload


def run_toy(workload):
    failures = {}
    ks = range(TOY_OPS[workload.name])
    try:
        run.run_ops(workload, workload.op, ks, failures, "toy")
        for k, why in workload.final_check(len(ks)).items():
            failures.setdefault(("toy", k), why)
    finally:
        workload.close()
    return failures


@pytest.mark.parametrize("name", sorted(TOY))
def test_workload_passes_its_checks(name):
    assert run_toy(toy(name)) == {}


def _drop_trials(report):
    report.trial_records = ()
    return report


def _unconverged(model):
    model.diagnostics = tuple(replace(d, converged=False) for d in model.diagnostics)
    return model


def _unnormalised(out):
    first = next(iter(out["pmf"]))
    out["pmf"][first] += 1e-6
    return out


CORRUPT = {"sweep": _drop_trials, "learn": _unconverged, "scan": _unnormalised}


@pytest.mark.parametrize("name", sorted(TOY))
def test_corrupted_output_counts_as_failed(name):
    workload = toy(name)
    op = workload.op
    if name == "cli":
        def corrupted(k):
            out = op(k)
            path = Path(workload.path("eval.txt"))
            text = path.read_text()
            count = workloads._key_values(text)["ne_true"]
            path.write_text(text.replace(f"ne_true {count}", f"ne_true {int(count) + 1}"))
            return out
    else:
        def corrupted(k):
            return CORRUPT[name](op(k))
    workload.op = corrupted
    failures = run_toy(workload)
    assert len(failures) == TOY_OPS[name]


@pytest.mark.parametrize("name", ["sweep", "cli"])
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = toy(name)
    workload.trace_ops = TOY_OPS[name]
    spans = tmp_path / "spans.jsonl"
    try:
        metrics, attempted, failures, mismatched = run.traced(workload, spans)
    finally:
        workload.close()
    assert failures == {} and mismatched == []
    rows = [json.loads(line) for line in spans.read_text().splitlines()]
    by_id = {row["id"]: row for row in rows}
    assert any(by_id[row["parent"]]["name"] == "learner.fit_game"
               for row in rows if row["name"] == "learner.fit_player")
    assert sorted(metrics) == sorted(n for n, _, _ in layers.PER_LAYER)
    assert metrics["learner.fit_game.calls"] > 0
    if name == "cli":
        assert metrics["cli.main.self_s"] > 0 and metrics["fileio.bytes_written"] > 0


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_command_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "0.01", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(n for n, _, _ in run.END_TO_END)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "learn", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and "correct" not in out.stdout
