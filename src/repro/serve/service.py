"""The multi-tenant configuration of the closed-loop service core.

The same service discipline the asyncio front end exposes -- weighted-
fair admission, per-class timeouts and bounded retries, DOP shedding,
chaos tolerance -- driven by the simulator's event loop through
:class:`~repro.concurrency.service.ClosedLoop`, with one lane per tenant
and every client named after its tenant.  One seed gives a
byte-identical :class:`~repro.serve.report.ServeReport` at any host
worker count; the load generator builds its SLO reports on it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..concurrency.service import Client, ClosedLoop
from ..concurrency.tenants import TenantDirectory
from ..config import SimulationConfig
from ..errors import ReproError, ServeError
from ..observe.metrics import MetricsRegistry
from ..plan.graph import Plan
from .report import ServeReport, TenantOutcome


@dataclass(frozen=True)
class TenantLoad:
    """One tenant's offered load: clients re-issuing a plan mix."""

    tenant: str
    clients: int
    #: Plan templates the tenant's clients draw from (each run copies
    #: every template once and re-executes that private copy).
    plans: tuple[Plan, ...]
    #: Mean think time between one client's queries, simulated seconds.
    think_mean: float = 0.25

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServeError(f"tenant {self.tenant!r} needs >= 1 client")
        if not self.plans:
            raise ServeError(f"tenant {self.tenant!r} needs >= 1 plan")
        if self.think_mean < 0:
            raise ServeError(f"tenant {self.tenant!r}: think_mean must be >= 0")


class _TenantLoop(ClosedLoop):
    """First arrivals ramp over the horizon; submissions share a cache."""

    spread_arrivals = True
    memo = True


class TenantLoadService:
    """Deterministic multi-tenant load run on one shared machine."""

    def __init__(
        self,
        config: SimulationConfig,
        directory: TenantDirectory,
        loads: list[TenantLoad],
        *,
        horizon: float = 2.0,
        faults: FaultInjector | FaultPlan | None = None,
        max_in_flight: int | None = None,
        chaos_label: str | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_lock: threading.Lock | None = None,
    ) -> None:
        if horizon <= 0:
            raise ServeError("horizon must be positive")
        if not loads:
            raise ServeError("need at least one tenant load")
        seen = set()
        for load in loads:
            directory.get(load.tenant)  # raises on unknown tenants
            if load.tenant in seen:
                raise ServeError(f"duplicate load for tenant {load.tenant!r}")
            seen.add(load.tenant)
        self.config = config
        self.directory = directory
        self.loads = loads
        self.horizon = horizon
        # Seeded from the service's own config, so the fault stream is
        # the same whatever client seed a run uses.
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, seed=config.derive_seed("chaos"))
        self.faults = faults
        if chaos_label is None:
            chaos_label = "none" if faults is None else "injected"
        self.chaos_label = chaos_label
        self.max_in_flight = max_in_flight
        # Live metrics (optional): pure bookkeeping -- the report never
        # reads from here, so determinism is untouched.
        self.metrics = metrics
        self.metrics_lock = metrics_lock

    # ------------------------------------------------------------------
    def run(self, *, seed: int | None = None) -> ServeReport:
        """Run the load to completion and report.

        ``seed`` stamps the report and reseeds the client arrival RNG;
        when ``None``, the config's own seed drives everything.
        Repeated calls with the same seed are independent and
        byte-identical.
        """
        config = self.config if seed is None else self.config.with_seed(seed)
        clients = [
            Client(
                load.tenant,
                self.directory.get(load.tenant),
                load.plans,
                think_mean=load.think_mean,
            )
            for load in self.loads
            for __ in range(load.clients)
        ]
        loop = _TenantLoop(
            config,
            self.directory,
            clients,
            horizon=self.horizon,
            seed=config.derive_seed("serve.clients"),
            faults=self.faults,
            max_in_flight=self.max_in_flight,
            metrics=self.metrics,
            metrics_lock=self.metrics_lock,
        )
        workload = loop.run()
        report = ServeReport(
            seed=config.seed,
            horizon=self.horizon,
            chaos=self.chaos_label,
            faults_injected=workload.faults_injected,
            fault_schedule=workload.fault_schedule,
            last_completion=workload.last_completion,
        )
        counts = loop.counts
        for load in self.loads:
            tenant = load.tenant
            stats = loop.scheduler.stats(tenant)
            report.tenants[tenant] = TenantOutcome(
                spec=self.directory.get(tenant),
                clients=load.clients,
                issued=counts[tenant, "issue"],
                rejected=counts[tenant, "reject"],
                completed=len(loop.times[tenant]),
                retries=counts[tenant, "retry"],
                timeouts=counts[tenant, "timeout"],
                abandoned=counts[tenant, "abandon"],
                admission_waits=counts[tenant, "admission_wait"],
                peak_in_flight=stats.peak_in_flight,
                peak_queue_depth=stats.peak_queue_depth,
                response_times=loop.times[tenant],
            )
            # Cross-check the scheduler's view against the client-side
            # accounting: every offer is an issue or a retry readmit.
            expected = counts[tenant, "issue"] + counts[tenant, "retry"]
            if stats.offered != expected:  # pragma: no cover - invariant
                raise ReproError(
                    f"tenant {tenant!r}: scheduler saw {stats.offered} "
                    f"offers, clients made {expected}"
                )
        return report
