"""One-shot cluster execution, with retry-on-replica resilience.

``cluster_execute`` mirrors :func:`repro.engine.executor.execute` on a
:class:`~repro.cluster.simulator.ClusterSimulator`; it is the facade the
scaleout bench, the determinism matrix, and the adaptive cluster driver
all go through.

``execute_with_failover`` adds the shared-nothing resilience loop: an
injected operator failure on a cluster plan *is* a node failure -- the
failed operator's effective placement names the dead node -- so the
shard map is failed over to the replicas, the plan is rebuilt against
the surviving placement, and the query retries with a freshly derived
seed.  The whole loop is deterministic: which node dies, when, and what
the retry computes are all pure functions of the config seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis.sanitize import Sanitizer
from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..engine.executor import _resolve_faults, _resolve_sanitize
from ..engine.memo import IntermediateCache
from ..engine.scheduler import ExecutionResult
from ..errors import ClusterError, InjectedFaultError, PlanError, StorageError
from ..observe import Observer
from ..plan.analysis import analyze_plan
from ..plan.graph import Plan
from ..storage.sharded import ShardMap
from .plans import resolve_placements
from .simulator import ClusterSimulator
from .spec import ClusterSpec


def cluster_execute(
    plan: Plan,
    cluster: ClusterSpec,
    config: SimulationConfig | None = None,
    *,
    analyze: bool = False,
    memo: IntermediateCache | None = None,
    faults: FaultInjector | FaultPlan | None = None,
    trace: Observer | None = None,
    sanitize: bool | None = None,
) -> ExecutionResult:
    """Run ``plan`` alone on a fresh simulated cluster.

    ``config`` describes one *node* (``config.machine`` must equal
    ``cluster.node``); the simulator flattens it to the cluster machine.
    All the single-machine knobs (memoization, chaos, tracing,
    sanitizer) compose unchanged -- see
    :func:`repro.engine.executor.execute` for their contracts.
    """
    if analyze:
        report = analyze_plan(plan)
        if report.has_errors:
            raise PlanError(
                "refusing to execute a plan with analyzer errors:\n"
                + report.format()
            )
    if config is None:
        config = SimulationConfig(machine=cluster.node)
    injector = _resolve_faults(faults, config)
    sanitizer = Sanitizer() if _resolve_sanitize(sanitize) else None
    simulator = ClusterSimulator(
        cluster,
        config,
        memo=memo,
        faults=injector,
        observe=trace,
        sanitizer=sanitizer,
    )
    sid = simulator.submit(plan)
    simulator.run()
    return simulator.result(sid)


@dataclass
class FailoverResult:
    """Outcome of a resilient cluster execution."""

    result: ExecutionResult
    shard_map: ShardMap
    attempts: int
    failed_nodes: tuple[int, ...]


def execute_with_failover(
    build_plan: Callable[[ShardMap], Plan],
    shard_map: ShardMap,
    cluster: ClusterSpec,
    config: SimulationConfig | None = None,
    *,
    faults: FaultInjector | FaultPlan | None = None,
    max_failovers: int | None = None,
    memo: IntermediateCache | None = None,
    trace: Observer | None = None,
) -> FailoverResult:
    """Run a sharded query, failing over to replicas on node failures.

    ``build_plan`` maps a shard map to a plan, so the retry rebuilds
    against the post-failover placement.  Each injected failure kills
    the node hosting the faulted operator (its effective placement);
    that node's shards promote to their replicas and the query retries
    with a freshly derived seed.  At most ``max_failovers`` nodes may
    die (default: ``nodes - 1``, the last copy must survive).
    """
    if config is None:
        config = SimulationConfig(machine=cluster.node)
    injector = _resolve_faults(faults, config)
    budget = (
        max_failovers if max_failovers is not None else cluster.nodes - 1
    )
    failed: list[int] = []
    for attempt in range(budget + 1):
        plan = build_plan(shard_map)
        placements = resolve_placements(plan, cluster.nodes)
        node_index = {
            node.nid: i for i, node in enumerate(plan.nodes())
        }
        try:
            result = cluster_execute(
                plan,
                cluster,
                config.with_seed(config.seed + attempt),
                faults=injector,
                memo=memo,
                trace=trace,
            )
            return FailoverResult(
                result=result,
                shard_map=shard_map,
                attempts=attempt + 1,
                failed_nodes=tuple(failed),
            )
        except InjectedFaultError as error:
            by_index = {i: nid for nid, i in node_index.items()}
            nid = by_index.get(error.nid)
            dead = placements[nid] if nid is not None else 0
            failed.append(dead)
            if attempt == budget:
                raise ClusterError(
                    f"query kept failing after {budget} failovers "
                    f"(dead nodes: {failed})"
                ) from error
            try:
                shard_map = shard_map.failover(dead)
            except StorageError as lost:
                raise ClusterError(
                    f"node {dead} died and took a shard's last copy with "
                    f"it (dead so far: {failed}): {lost}"
                ) from lost
            if trace is not None:
                trace.tracer.event(
                    "node_failover",
                    "cluster",
                    0.0,
                    node=dead,
                    attempt=attempt,
                )
    raise AssertionError("unreachable")
