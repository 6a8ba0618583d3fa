"""One-shot plan execution facade."""

from __future__ import annotations

import os

from ..analysis.sanitize import Sanitizer
from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..errors import PlanError
from ..observe import Observer
from ..plan.analysis import analyze_plan
from ..plan.graph import Plan
from .memo import IntermediateCache
from .scheduler import ExecutionResult, Simulator


def _resolve_sanitize(sanitize: bool | None) -> bool:
    """Explicit argument wins; otherwise the ``REPRO_SANITIZE`` env var."""
    if sanitize is not None:
        return sanitize
    return os.environ.get("REPRO_SANITIZE", "").strip().lower() in (
        "1", "true", "yes", "on",
    )


def _resolve_faults(
    faults: FaultInjector | FaultPlan | None, config: SimulationConfig
) -> FaultInjector | None:
    """Accept a ready injector or a bare plan (seeded from the config)."""
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults, seed=config.derive_seed("chaos"))
    return faults


def execute(
    plan: Plan,
    config: SimulationConfig | None = None,
    *,
    analyze: bool = False,
    memo: IntermediateCache | None = None,
    faults: FaultInjector | FaultPlan | None = None,
    trace: Observer | None = None,
    sanitize: bool | None = None,
) -> ExecutionResult:
    """Run ``plan`` alone on a fresh simulated machine.

    Convenience wrapper used by examples, tests, and the adaptive driver;
    concurrent workloads build their own :class:`Simulator` instead.

    ``analyze=True`` is the debug mode: the static plan analyzer runs
    first and a plan with ``error`` diagnostics is refused with a
    :class:`~repro.errors.PlanError` carrying the full report, instead
    of executing to a silently wrong (or crashing) result.

    ``memo`` shares an :class:`~repro.engine.memo.IntermediateCache`
    across calls so repeated executions of structurally overlapping
    plans skip redundant host-side operator work; simulated results are
    identical with or without it.

    ``faults`` injects chaos: pass a
    :class:`~repro.chaos.faults.FaultPlan` (an injector is derived from
    the config seed) or a prepared
    :class:`~repro.chaos.injector.FaultInjector`.  Stragglers and
    memory-pressure spikes only perturb simulated timing; an injected
    operator exception aborts this execution with
    :class:`~repro.errors.InjectedFaultError` (retry policies live in
    the :mod:`repro.concurrency` service layer).

    ``trace`` attaches a :class:`~repro.observe.Observer`: the run's
    spans (submission, operator tasks, dispatch/eval/fault events) and
    metrics accumulate there.  The same observer may be reused across
    calls to correlate a sequence of executions on one timeline (see
    :attr:`repro.observe.Tracer.time_base`).  Tracing never changes
    simulated results and its canonical output is bit-identical across
    repeated runs.

    ``sanitize=True`` (or ``REPRO_SANITIZE=1`` in the environment) runs
    the whole execution under the runtime sanitizer
    (:class:`~repro.analysis.sanitize.Sanitizer`): input buffers are
    checksummed around every evaluation batch, the dispatch-order commit
    barrier is verified, and every commit folds into a rolling trace
    fingerprint.  A violated invariant raises
    :class:`~repro.errors.SanitizerError`.  Host cost only -- simulated
    results are identical with or without it.
    """
    if analyze:
        report = analyze_plan(plan)
        if report.has_errors:
            raise PlanError(
                "refusing to execute a plan with analyzer errors:\n"
                + report.format()
            )
    if config is None:
        config = SimulationConfig()
    injector = _resolve_faults(faults, config)
    sanitizer = Sanitizer() if _resolve_sanitize(sanitize) else None
    simulator = Simulator(
        config, memo=memo, faults=injector, observe=trace, sanitizer=sanitizer
    )
    sid = simulator.submit(plan)
    simulator.run()
    return simulator.result(sid)
