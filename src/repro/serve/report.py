"""Per-tenant latency-SLO reporting, the loadgen's deliverable.

The report is the service layer's bit-reproducibility surface: every
number in :meth:`ServeReport.as_dict` is a pure function of simulated
execution (latencies are simulated seconds, counters come from the
deterministic scheduler), so one seed produces byte-identical JSON on
any host -- the golden fixtures under ``tests/serve/golden/`` compare exactly
those bytes.

It also reconciles with the resilience layer:
:meth:`ServeReport.workload_report` projects the same run onto the
:class:`~repro.concurrency.service.WorkloadReport` shape, and the
property suite asserts the per-tenant counters sum to it exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..concurrency.service import WorkloadReport
from ..concurrency.tenants import TenantSpec
from ..errors import ServeError

#: Format tag embedded in every report document.
SCHEMA = "repro/serve/slo/v1"


def _pct(times: list[float], q: float) -> float:
    return float(np.percentile(times, q)) if times else 0.0


@dataclass
class TenantOutcome:
    """Everything one tenant experienced during a load run."""

    spec: TenantSpec
    clients: int = 0
    issued: int = 0
    rejected: int = 0
    completed: int = 0
    retries: int = 0
    timeouts: int = 0
    abandoned: int = 0
    admission_waits: int = 0
    peak_in_flight: int = 0
    peak_queue_depth: int = 0
    #: Client-perceived response times, simulated seconds, completion
    #: order (includes every retry and backoff wait).
    response_times: list[float] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Queries that made it past admission control."""
        return self.issued - self.rejected

    @property
    def p50(self) -> float:
        return _pct(self.response_times, 50.0)

    @property
    def p99(self) -> float:
        return _pct(self.response_times, 99.0)

    def attainment(self) -> float:
        """Fraction of completions inside the class's p99 target."""
        if not self.response_times:
            return 1.0
        target = self.spec.slo.p99_target
        met = sum(1 for t in self.response_times if t <= target)
        return met / len(self.response_times)

    def as_dict(self) -> dict:
        slo = self.spec.slo
        return {
            "class": slo.name,
            "weight": self.spec.effective_weight,
            "clients": self.clients,
            "issued": self.issued,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "abandoned": self.abandoned,
            "admission_waits": self.admission_waits,
            "peak_in_flight": self.peak_in_flight,
            "peak_queue_depth": self.peak_queue_depth,
            "p50_ms": self.p50 * 1000.0,
            "p99_ms": self.p99 * 1000.0,
            "max_ms": (max(self.response_times) * 1000.0
                       if self.response_times else 0.0),
            "slo": {
                "p50_target_ms": slo.p50_target * 1000.0,
                "p99_target_ms": slo.p99_target * 1000.0,
                "p50_ok": self.p50 <= slo.p50_target,
                "p99_ok": self.p99 <= slo.p99_target,
                "attainment": self.attainment(),
            },
        }


@dataclass
class ServeReport:
    """The full multi-tenant SLO report of one load run."""

    seed: int
    horizon: float
    chaos: str = "none"
    faults_injected: int = 0
    fault_schedule: tuple = ()
    last_completion: float = 0.0
    tenants: dict[str, TenantOutcome] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def outcome(self, tenant: str) -> TenantOutcome:
        try:
            return self.tenants[tenant]
        except KeyError:
            raise ServeError(f"no outcome recorded for tenant {tenant!r}") from None

    def completed(self) -> int:
        return sum(o.completed for o in self.tenants.values())

    def throughput(self) -> float:
        """Completed queries per simulated second."""
        span = self.last_completion if self.last_completion > 0 else self.horizon
        return self.completed() / span if span > 0 else 0.0

    def admitted_share(self) -> dict[str, float]:
        """Each tenant's fraction of all admitted queries."""
        total = sum(o.admitted for o in self.tenants.values())
        if total == 0:
            return {name: 0.0 for name in sorted(self.tenants)}
        return {
            name: self.tenants[name].admitted / total
            for name in sorted(self.tenants)
        }

    def weight_share(self) -> dict[str, float]:
        """Each tenant's fraction of the total fair-share weight."""
        total = sum(o.spec.effective_weight for o in self.tenants.values())
        return {
            name: self.tenants[name].spec.effective_weight / total
            for name in sorted(self.tenants)
        }

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """The byte-stable projection (golden-fixture surface)."""
        all_times = [
            t
            for name in sorted(self.tenants)
            for t in self.tenants[name].response_times
        ]
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "horizon": self.horizon,
            "chaos": self.chaos,
            "tenants": {
                name: self.tenants[name].as_dict()
                for name in sorted(self.tenants)
            },
            "totals": {
                "issued": sum(o.issued for o in self.tenants.values()),
                "admitted": sum(o.admitted for o in self.tenants.values()),
                "rejected": sum(o.rejected for o in self.tenants.values()),
                "completed": self.completed(),
                "retries": sum(o.retries for o in self.tenants.values()),
                "timeouts": sum(o.timeouts for o in self.tenants.values()),
                "abandoned": sum(o.abandoned for o in self.tenants.values()),
                "admission_waits": sum(
                    o.admission_waits for o in self.tenants.values()
                ),
                "faults_injected": self.faults_injected,
                "last_completion": self.last_completion,
                "throughput_qps": self.throughput(),
                "p50_ms": _pct(all_times, 50.0) * 1000.0,
                "p99_ms": _pct(all_times, 99.0) * 1000.0,
            },
            "fairness": {
                "admitted_share": self.admitted_share(),
                "weight_share": self.weight_share(),
            },
        }

    def workload_report(self) -> WorkloadReport:
        """The same run in :class:`WorkloadReport` shape (reconciliation).

        ``by_client`` is keyed by tenant (one simulated "client" per
        tenant aggregate); resilience counters are the tenant sums, so
        ``sum(tenant.X) == workload_report().X`` holds by construction
        *and* is asserted against the live scheduler counters by the
        property suite.
        """
        report = WorkloadReport(
            horizon=self.horizon,
            last_completion=self.last_completion,
            retries=sum(o.retries for o in self.tenants.values()),
            timeouts=sum(o.timeouts for o in self.tenants.values()),
            abandoned=sum(o.abandoned for o in self.tenants.values()),
            faults_injected=self.faults_injected,
            admission_waits=sum(o.admission_waits for o in self.tenants.values()),
            peak_in_flight=max(
                (o.peak_in_flight for o in self.tenants.values()), default=0
            ),
            peak_queue_depth=max(
                (o.peak_queue_depth for o in self.tenants.values()), default=0
            ),
            fault_schedule=tuple(self.fault_schedule),
        )
        for name in sorted(self.tenants):
            report.by_client[name] = list(self.tenants[name].response_times)
        return report

    def format(self) -> str:
        """Human-readable summary (CLI output)."""
        lines = [
            f"load run: horizon {self.horizon:g}s simulated, seed {self.seed}, "
            f"chaos {self.chaos}",
            f"  totals: {self.completed()} completed "
            f"({self.throughput():.1f} q/s), "
            f"{sum(o.rejected for o in self.tenants.values())} rejected, "
            f"{sum(o.retries for o in self.tenants.values())} retries, "
            f"{self.faults_injected} faults injected",
        ]
        share = self.admitted_share()
        weights = self.weight_share()
        for name in sorted(self.tenants):
            o = self.tenants[name]
            p50_mark = "ok" if o.p50 <= o.spec.slo.p50_target else "MISS"
            p99_mark = "ok" if o.p99 <= o.spec.slo.p99_target else "MISS"
            lines.append(
                f"  {name} [{o.spec.slo.name}, w={o.spec.effective_weight}]: "
                f"{o.clients} clients, {o.completed}/{o.issued} completed, "
                f"{o.rejected} rejected | p50 {o.p50 * 1000:.1f} ms ({p50_mark}), "
                f"p99 {o.p99 * 1000:.1f} ms ({p99_mark}) | "
                f"share {share[name]:.2f} (weight {weights[name]:.2f})"
            )
        return "\n".join(lines)
