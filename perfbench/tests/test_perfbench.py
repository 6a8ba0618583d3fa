"""Tests of the benchmark itself, at tiny input sizes.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from tracing import SpanTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(capsys, workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    code = run.main([
        "--workload", workload, "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny", *extra,
    ])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def assert_metrics(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"], metric["name"]
        assert isinstance(got["value"], (int, float)), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    code, result = bench(capsys, workload, 0)
    assert code == 0
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_per_layer_metrics_and_a_well_formed_tree(capsys, workload):
    code, result = bench(capsys, workload, 1)
    assert code == 0 and result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    with np.load(run.OUT_DIR / f"spans-{workload}-seed{SEED}.npz") as data:
        names = list(data["names"])
        spans = {k: data[k] for k in ("start", "end", "parent", "name", "op")}
    table = SpanTable(names, spans)
    assert table.well_formed() == []
    parent = spans["parent"]
    child = parent >= 0
    assert np.all(spans["start"][child] >= spans["start"][parent[child]])
    assert np.all(spans["end"][child] <= spans["end"][parent[child]])
    assert np.all(table.self_s >= -1e-9)
    layers = table.layer_self_ms()
    assert sum(layers.values()) + table.unattributed_ms == pytest.approx(table.wall_ms)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_metrics_repeat_exactly_for_a_seed(capsys, workload):
    sims = []
    for __ in range(2):
        __, result = bench(capsys, workload, 0)
        sims.append({k: v["value"] for k, v in result["metrics"].items()
                     if k.startswith("sim_") or k == "slo_miss_ratio"})
    assert sims[0] == sims[1]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_mismatch_fails_the_run(capsys, workload):
    code, result = bench(capsys, workload, 0, "--inject-mismatch")
    assert code != 0
    assert not result["correct"] and result["failed"] >= 1


def test_traced_contrasts_between_workloads(capsys):
    layer = {}
    for workload in ("adaptive_tpch", "exec_dop_sweep", "serve_tenants"):
        __, result = bench(capsys, workload, 1)
        layer[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert layer["adaptive_tpch"]["core.mutate.calls"] > 0
    assert layer["exec_dop_sweep"]["core.mutate.calls"] == 0
    assert layer["serve_tenants"]["core.mutate.calls"] == 0
    assert (layer["adaptive_tpch"]["engine.memo.hit_rate"]
            > layer["exec_dop_sweep"]["engine.memo.hit_rate"])
    assert (layer["exec_dop_sweep"]["operators.evaluate.ms"]
            > layer["serve_tenants"]["operators.evaluate.ms"])


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
