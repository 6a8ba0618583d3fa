"""Figure 1: response-time variation with DOP under concurrent load.

The paper shows heuristically parallelized TPC-H Q9, Q13, Q17 executed
with 8/16/32 threads under a saturating 32-client workload: no single
DOP wins everywhere, motivating feedback-driven DOP selection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...concurrency import ClientSpec, background_load
from ...core.heuristic import HeuristicParallelizer
from ...workloads.tpch import TpchDataset
from ..reporting import ExperimentReport

QUERIES = ("q9", "q13", "q17")
DOPS = (8, 16, 32)

#: Approximate bar heights from Figure 1 (seconds), for shape reference.
PAPER_TIMES = {
    ("q9", 8): 6.2, ("q9", 16): 4.8, ("q9", 32): 5.6,
    ("q13", 8): 3.4, ("q13", 16): 4.2, ("q13", 32): 3.0,
    ("q17", 8): 4.6, ("q17", 16): 3.6, ("q17", 32): 4.2,
}


@dataclass
class Fig01Result:
    """Measured (query, dop) -> response time under load."""

    times: dict[tuple[str, int], float] = field(default_factory=dict)
    report: ExperimentReport | None = None

    def best_dop(self, query: str) -> int:
        """The DOP with the lowest measured time for ``query``."""
        return min(DOPS, key=lambda d: self.times[(query, d)])


def run(
    dataset: TpchDataset | None = None,
    *,
    clients: int = 32,
    horizon: float = 4.0,
) -> Fig01Result:
    """Measure HP plans at each DOP under a saturating background load."""
    if dataset is None:
        dataset = TpchDataset(scale_factor=10)
    config = dataset.sim_config()
    background_plans = [
        HeuristicParallelizer(32).parallelize(dataset.plan(q))
        for q in ("q6", "q14", "q9", "q19")
    ]
    result = Fig01Result()
    report = ExperimentReport(
        experiment="Figure 1: HP response time vs DOP under 32-client load",
        claim="no single DOP is best for every query under contention",
        machine=config.machine,
    )
    for query in QUERIES:
        for dop in DOPS:
            plan = HeuristicParallelizer(dop).parallelize(dataset.plan(query))
            workload = background_load(
                config,
                [
                    ClientSpec(name=f"bg-{i}", plans=background_plans)
                    for i in range(clients)
                ],
                horizon=horizon,
            )
            measured = workload.measure_plan(plan, max_threads=dop, warmup=0.5)
            t = measured.response_time
            result.times[(query, dop)] = t
            report.add(
                f"{query} @ {dop} threads",
                PAPER_TIMES[(query, dop)],
                round(t, 3),
                unit="s",
            )
    for query in QUERIES:
        report.extra.append(
            f"{query}: fastest DOP measured = {result.best_dop(query)} "
            f"(paper: varies per query; non-monotonic in DOP)"
        )
    result.report = report
    return result
