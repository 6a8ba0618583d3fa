"""Smoke tests for every experiment runner at miniature scale.

These don't assert paper shapes (the benchmarks do, at full scale);
they assert the runners execute, produce well-formed reports, and
populate their result structures.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.bench.experiments import (
    ablations,
    fig01_dop,
    fig11_trace,
    fig12_skew,
    fig16_workload,
    fig17_tpcds,
    fig18_chaos,
    fig18_robustness,
    fig19_util,
)
from repro.workloads import SkewedSelectWorkload, TpcdsDataset, TpchDataset

pytestmark = pytest.mark.slow

#: Simulated-time digests of the concurrent experiments at the sizes
#: below.  A change here is a change to simulated results: a bug, not a
#: refresh.
FIG01_DIGEST = "a893a795474d2b025f97fc1ed32de0ff"
FIG16_DIGEST = "eeaf98cdf4399cc9de088aa4aad4714f"


def _times_digest(**tables: dict) -> str:
    """blake2b over every value of ``tables`` as ``float.hex``."""
    doc = {
        name: {"/".join(map(str, key)): float(value).hex()
               for key, value in table.items()}
        for name, table in tables.items()
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def tiny_tpch() -> TpchDataset:
    return TpchDataset(scale_factor=1)


@pytest.fixture(scope="module")
def tiny_tpcds() -> TpcdsDataset:
    return TpcdsDataset(scale_factor=5)


class TestRunnersExecute:
    def test_fig01(self, tiny_tpch):
        result = fig01_dop.run(tiny_tpch, clients=4, horizon=0.5)
        assert len(result.times) == len(fig01_dop.QUERIES) * len(fig01_dop.DOPS)
        assert all(t > 0 for t in result.times.values())
        assert "Figure 1" in result.report.format()
        assert _times_digest(times=result.times) == FIG01_DIGEST

    def test_fig11(self):
        result = fig11_trace.run(outer_mb=320, inner_mb=16)
        assert result.trace[0] == result.adaptive.serial_time
        assert result.adaptive.gme_time < result.trace[0]
        assert "Figure 11" in result.report.format()

    def test_fig12(self):
        workload = SkewedSelectWorkload(tuples_m=50)
        result = fig12_skew.run(workload, skews=(10,))
        assert (10, "static8") in result.times
        assert (10, "dynamic") in result.times
        assert result.report is not None

    def test_fig16(self, tiny_tpch):
        result = fig16_workload.run(
            tiny_tpch, queries=("q6", "q14"), clients=4, horizon=0.5
        )
        assert result.isolated[("q6", "HP")] > 0
        assert result.concurrent[("q14", "AP")] > 0
        assert ("q6" in result.ap_plans) and ("q14" in result.ap_plans)
        assert _times_digest(
            isolated=result.isolated, concurrent=result.concurrent
        ) == FIG16_DIGEST

    def test_fig17(self, tiny_tpcds):
        result = fig17_tpcds.run(tiny_tpcds, queries=("ds5",), max_runs=80)
        assert result.times_ms[("ds5", "HP", "2s")] > 0
        assert result.times_ms[("ds5", "AP", "4s")] > 0
        assert result.hp_over_ap("ds5") > 0

    def test_fig18(self, tiny_tpch):
        result = fig18_robustness.run(tiny_tpch, queries=("q6",), invocations=2)
        lo, hi = result.spread("q6", "total_runs")
        assert 0 < lo <= hi
        assert "q6 A: total runs" in result.report.format()

    def test_fig18_chaos(self, tiny_tpch):
        result = fig18_chaos.run(tiny_tpch, queries=("q6",))
        assert result.injected["q6"] > 0
        assert result.chaos["q6"].gme_time <= result.chaos["q6"].serial_time
        assert "q6 C: faults absorbed" in result.report.format()

    def test_fig19(self, tiny_tpch):
        result = fig19_util.run(tiny_tpch)
        assert 0 < result.ap_utilization <= 1
        assert 0 < result.hp_utilization <= 1
        assert "tomograph" in result.report.format()

    def test_ablation_gme(self):
        result = ablations.run_gme_threshold(thresholds=(0.0, 0.2))
        assert len(result.rows) == 2

    def test_ablation_batch(self):
        result = ablations.run_mutations_per_run(batch_sizes=(1, 4))
        assert result.rows["batch=4"][1] <= result.rows["batch=1"][1] * 2
