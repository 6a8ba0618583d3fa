"""Canonical (machine-stable) projection of an observation.

Golden-trace fixtures compare *bytes*, so everything host-dependent has
to go: ``host_t0``/``host_t1`` span timestamps, span attributes whose
key starts with ``host_``, and metric families registered with
``host=True`` (anything that legitimately varies with the host).  What
remains is a pure function of simulated execution and therefore
bit-identical across machines and across repeated seeded runs.

Simulated times are IEEE doubles serialized via :func:`repr` semantics
(``json.dumps`` uses ``float.__repr__``), which round-trips exactly --
no rounding, no tolerance.  If two canonical traces differ, the
simulation itself diverged.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .metrics import MetricsRegistry
from .spans import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from . import Observer

#: Format tag embedded in every canonical document.
SCHEMA = "repro/observe/v1"


def canonical_trace(tracer: Tracer) -> list[dict]:
    """The span tree as plain data, host fields stripped, id order."""
    return [span.as_dict(host=False) for span in tracer.spans]


def canonical_metrics(registry: MetricsRegistry) -> dict:
    """The worker-invariant metric values (host families dropped)."""
    return registry.collect(host=False)


def canonical_observation(observer: "Observer") -> dict:
    """The full canonical document: schema tag, trace, and metrics.

    The observer's tracer is finished first (idempotent), so the root
    span always carries its end time.
    """
    observer.tracer.finish()
    return {
        "schema": SCHEMA,
        "trace": canonical_trace(observer.tracer),
        "metrics": canonical_metrics(observer.metrics),
    }


def canonical_json(observer: "Observer") -> str:
    """The canonical document as deterministic JSON bytes.

    Sorted keys, no whitespace variance, ``repr``-exact floats: equal
    observations produce equal strings, byte for byte.
    """
    return json.dumps(
        canonical_observation(observer),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
    )
