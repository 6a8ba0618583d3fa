"""Unified observability: structured tracing, metrics, exporters.

The paper's adaptive loop is driven by an execution profiler and its
analysis is told through tomograph-style operator timelines ("Run-time
environment", Section 2; Figures 19/20).  This package industrializes
that feedback channel: one :class:`Observer` correlates an entire
adaptive instance -- every run, every operator task, every cache and
fault event -- in a single span tree plus a metrics registry,
with deterministic exporters on top.

Usage::

    from repro import TpchDataset, execute
    from repro.observe import Observer

    dataset = TpchDataset(scale_factor=1)
    obs = Observer()
    execute(dataset.plan("q6"), dataset.sim_config(), trace=obs)
    open("trace.json", "w").write(obs.to_chrome_trace())  # Perfetto-ready
    print(obs.to_prometheus())

Guarantees (enforced by the golden-trace suite under ``tests/observe``):

* **Near zero-cost when disabled** -- no observer attached means one
  ``is not None`` check per instrumented site.
* **Bit-deterministic when enabled** -- the canonical projection
  (:func:`~repro.observe.canonical.canonical_json`) is byte-identical
  across repeated seeded runs; host wall-clock data is opt-in
  (``host_time=True``) and always stripped from canonical output.
"""

from __future__ import annotations

from .canonical import (
    SCHEMA,
    canonical_json,
    canonical_metrics,
    canonical_observation,
    canonical_trace,
)
from .exporters import (
    PROMETHEUS_CONTENT_TYPE,
    scrape,
    to_chrome_trace,
    to_jsonl,
    to_prometheus,
)
from .metrics import (
    DURATION_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .spans import Span, Tracer


class Observer:
    """One observed execution: a tracer plus a metrics registry.

    Pass it to :func:`repro.engine.execute` (``trace=``),
    :class:`repro.core.AdaptiveParallelizer` (``observe=``), or
    :class:`repro.concurrency.ResilientWorkload` (``observe=``); the
    same observer may span several of these in sequence -- that is the
    point: one correlated timeline for a whole adaptive instance or
    workload.

    ``host_time=True`` additionally stamps every span with host
    ``perf_counter()`` times; canonical exports strip them.
    """

    def __init__(self, *, host_time: bool = False) -> None:
        self.tracer = Tracer(host_time=host_time)
        self.metrics = MetricsRegistry()

    # ------------------------------------------------------------------
    # Export conveniences
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Close the root span (idempotent)."""
        self.tracer.finish()

    def canonical(self) -> dict:
        """The machine-stable projection (see :mod:`.canonical`)."""
        return canonical_observation(self)

    def canonical_json(self) -> str:
        """Canonical projection as deterministic JSON bytes."""
        return canonical_json(self)

    def to_chrome_trace(self, *, trace_name: str = "repro") -> str:
        """Chrome ``trace_event`` JSON (Perfetto/chrome://tracing)."""
        return to_chrome_trace(self, trace_name=trace_name)

    def to_jsonl(self, *, host: bool = True) -> str:
        """One span per line, creation order."""
        return to_jsonl(self, host=host)

    def to_prometheus(self, *, host: bool = True) -> str:
        """Prometheus text exposition of the metrics."""
        return to_prometheus(self, host=host)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Observer(spans={len(self.tracer)}, series={len(self.metrics)})"


__all__ = [
    "DURATION_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
    "SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observer",
    "Span",
    "Tracer",
    "canonical_json",
    "canonical_metrics",
    "canonical_observation",
    "canonical_trace",
    "scrape",
    "to_chrome_trace",
    "to_jsonl",
    "to_prometheus",
]
