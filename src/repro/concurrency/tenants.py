"""Tenant and SLO-class configuration of the SQL service.

A *tenant* is one paying customer of the shared simulated machine: it
owns a fair-share weight, an admission envelope (how many of its
queries may run or wait at once), and an SLO class.  The *SLO class*
bundles the latency promise (p50/p99 targets) with the service
disciplines that protect it -- per-attempt timeout and retry budget --
so "interactive" tenants time out fast and retry eagerly while "batch"
tenants wait patiently and never thrash the machine.

Everything here is plain validated data; the fair scheduler
(:mod:`repro.concurrency.admission`), the closed-loop service core and
the asyncio server act on it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import ServeError


@dataclass(frozen=True)
class SloClass:
    """A latency promise plus the disciplines that defend it.

    Targets are *simulated* seconds: the report grades each tenant's
    p50/p99 against them.  ``timeout`` bounds one submission attempt
    (``None`` waits forever); ``max_retries`` bounds re-submissions
    after injected faults or timeouts.
    """

    name: str
    #: Median / tail latency targets, simulated seconds.
    p50_target: float
    p99_target: float
    #: Per-attempt client timeout, simulated seconds (None = none).
    timeout: float | None = None
    #: Retry budget after faults/timeouts.
    max_retries: int = 3
    #: Default fair-share weight of tenants in this class.
    default_weight: int = 1

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("SLO class needs a name")
        if self.p50_target <= 0 or self.p99_target < self.p50_target:
            raise ServeError(
                f"SLO class {self.name!r} needs 0 < p50_target <= p99_target"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise ServeError(f"SLO class {self.name!r}: timeout must be positive")
        if self.max_retries < 0:
            raise ServeError(f"SLO class {self.name!r}: max_retries must be >= 0")
        if self.default_weight < 1:
            raise ServeError(f"SLO class {self.name!r}: weight must be >= 1")


#: The built-in service tiers.  Targets are sized for the quick-mode
#: TPC-H workload mix (simple selections to grouped aggregations on the
#: two-socket preset); a tenant config file may define its own classes.
INTERACTIVE = SloClass(
    "interactive", p50_target=0.25, p99_target=1.5, timeout=4.0,
    max_retries=3, default_weight=4,
)
STANDARD = SloClass(
    "standard", p50_target=0.5, p99_target=3.0, timeout=8.0,
    max_retries=3, default_weight=2,
)
BATCH = SloClass(
    "batch", p50_target=2.0, p99_target=10.0, timeout=None,
    max_retries=1, default_weight=1,
)

BUILTIN_CLASSES: dict[str, SloClass] = {
    c.name: c for c in (INTERACTIVE, STANDARD, BATCH)
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's contract with the service."""

    name: str
    slo: SloClass = STANDARD
    #: Fair-share weight (admissions are proportional to it while the
    #: tenant is backlogged).  0 = take the class default.
    weight: int = 0
    #: Concurrent submissions this tenant may have running (admission
    #: cap); None = limited only by the service-wide cap.
    max_in_flight: int | None = None
    #: Queries this tenant may have *waiting* for admission; arrivals
    #: beyond it are rejected (load shedding), never silently queued.
    queue_limit: int = 64
    #: Hardware-thread cap per query (None = machine default).
    max_threads: int | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeError("tenant needs a name")
        if self.weight < 0:
            raise ServeError(f"tenant {self.name!r}: weight must be >= 0")
        if self.max_in_flight is not None and self.max_in_flight < 1:
            raise ServeError(
                f"tenant {self.name!r}: max_in_flight must be >= 1 (or None)"
            )
        if self.queue_limit < 0:
            raise ServeError(f"tenant {self.name!r}: queue_limit must be >= 0")
        if self.max_threads is not None and self.max_threads < 1:
            raise ServeError(
                f"tenant {self.name!r}: max_threads must be >= 1 (or None)"
            )

    @property
    def effective_weight(self) -> int:
        """The configured weight, falling back to the class default."""
        return self.weight if self.weight > 0 else self.slo.default_weight


@dataclass(frozen=True)
class TenantDirectory:
    """The validated set of tenants the service admits."""

    tenants: tuple[TenantSpec, ...]
    by_name: dict[str, TenantSpec] = field(init=False)

    def __post_init__(self) -> None:
        if not self.tenants:
            raise ServeError("the service needs at least one tenant")
        index: dict[str, TenantSpec] = {}
        for spec in self.tenants:
            if spec.name in index:
                raise ServeError(f"duplicate tenant {spec.name!r}")
            index[spec.name] = spec
        object.__setattr__(self, "by_name", index)

    def __iter__(self):
        return iter(self.tenants)

    def __len__(self) -> int:
        return len(self.tenants)

    def get(self, name: str) -> TenantSpec:
        spec = self.by_name.get(name)
        if spec is None:
            known = ", ".join(sorted(self.by_name))
            raise ServeError(f"unknown tenant {name!r} (known: {known})")
        return spec

    @property
    def default(self) -> TenantSpec:
        """The tenant anonymous (HTTP one-shot) requests bill to."""
        return self.tenants[0]


def default_tenants() -> TenantDirectory:
    """The three-tier demo directory the CLI and loadgen default to."""
    return TenantDirectory(
        (
            TenantSpec("gold", slo=INTERACTIVE, max_in_flight=16),
            TenantSpec("silver", slo=STANDARD, max_in_flight=12),
            TenantSpec("bronze", slo=BATCH, max_in_flight=8, queue_limit=32),
        )
    )


def parse_tenants(document: str | dict) -> TenantDirectory:
    """Build a directory from a JSON document (CLI ``--tenants`` file).

    Shape::

        {"classes": {"rt": {"p50_target": 0.1, "p99_target": 0.5}},
         "tenants": [{"name": "acme", "class": "rt", "weight": 3}]}

    ``classes`` is optional and extends the built-in tiers; each tenant
    entry accepts the :class:`TenantSpec` fields plus ``class``.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ServeError(f"malformed tenant config: {exc}") from exc
    if not isinstance(document, dict):
        raise ServeError("tenant config must be a JSON object")
    classes = dict(BUILTIN_CLASSES)
    for name, fields in (document.get("classes") or {}).items():
        if not isinstance(fields, dict):
            raise ServeError(f"SLO class {name!r} must be an object")
        try:
            classes[name] = SloClass(name=name, **fields)
        except TypeError as exc:
            raise ServeError(f"SLO class {name!r}: {exc}") from exc
    entries = document.get("tenants")
    if not isinstance(entries, list) or not entries:
        raise ServeError("tenant config needs a non-empty 'tenants' list")
    specs = []
    for entry in entries:
        if not isinstance(entry, dict):
            raise ServeError("each tenant entry must be an object")
        entry = dict(entry)
        class_name = entry.pop("class", STANDARD.name)
        if class_name not in classes:
            known = ", ".join(sorted(classes))
            raise ServeError(
                f"unknown SLO class {class_name!r} (known: {known})"
            )
        try:
            specs.append(TenantSpec(slo=classes[class_name], **entry))
        except TypeError as exc:
            raise ServeError(f"tenant entry {entry!r}: {exc}") from exc
    return TenantDirectory(tuple(specs))
