"""Deterministic weighted-fair admission across tenants.

One scheduler instance fronts the shared machine: the asyncio server
(:mod:`repro.serve.server`) pumps it from the event loop (host time),
the closed-loop service core (:mod:`repro.concurrency.service`) pumps
it from simulator callbacks (simulated time) and uses it as its only
admission path.  It is deliberately clock-free and pure -- admission order is a
function of the offer/release sequence only -- which is what makes the
load generator's SLO report byte-reproducible and the fairness
properties testable in isolation.

The discipline is start-time weighted fair queuing: each tenant carries
a virtual time that advances by ``1/weight`` per admission, and the
next admission goes to the eligible tenant with the smallest
``(vtime, name)``.  Eligible means: non-empty queue, below its own
``max_in_flight``, and the service-wide cap not exhausted.  Two
guarantees fall out:

* **weighted share** -- while several tenants stay backlogged, their
  admission counts converge to the ratio of their weights (the
  hypothesis suite pins a tolerance band);
* **no starvation** -- a backlogged tenant's vtime is eventually the
  minimum, so it is always admitted after a bounded number of foreign
  admissions (at most ``weight_total / weight`` per own admission).

A tenant whose queue drains and later refills resumes at
``max(own vtime, vtime of the last admission)`` -- returning from idle
earns service, not a burst of stored credit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import ServeError
from .tenants import TenantDirectory, TenantSpec


@dataclass
class TenantSchedStats:
    """Admission bookkeeping for one tenant (all monotone counters)."""

    offered: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    peak_queue_depth: int = 0
    peak_in_flight: int = 0

    def as_dict(self) -> dict:
        return {
            "offered": self.offered,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "peak_queue_depth": self.peak_queue_depth,
            "peak_in_flight": self.peak_in_flight,
        }


class _TenantLane:
    """Mutable scheduler state of one tenant."""

    __slots__ = ("spec", "queue", "in_flight", "vtime", "stats")

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.queue: list[Any] = []
        self.in_flight = 0
        self.vtime = 0.0
        self.stats = TenantSchedStats()


class FairScheduler:
    """Weighted-fair admission control over a fixed tenant directory."""

    def __init__(
        self, directory: TenantDirectory, *, max_in_flight: int
    ) -> None:
        if max_in_flight < 1:
            raise ServeError("max_in_flight must be >= 1")
        self.directory = directory
        self.max_in_flight = max_in_flight
        self._lanes = {spec.name: _TenantLane(spec) for spec in directory}
        self._vnow = 0.0
        self.in_flight = 0
        self.peak_in_flight = 0

    # ------------------------------------------------------------------
    def _lane(self, tenant: str) -> _TenantLane:
        lane = self._lanes.get(tenant)
        if lane is None:
            raise ServeError(f"unknown tenant {tenant!r}")
        return lane

    def offer(self, tenant: str, item: Any) -> bool:
        """Queue ``item`` for admission; False = rejected (queue full)."""
        lane = self._lane(tenant)
        lane.stats.offered += 1
        if len(lane.queue) >= lane.spec.queue_limit:
            lane.stats.rejected += 1
            return False
        if not lane.queue:
            # Re-entering from idle: no stored credit for time not used.
            lane.vtime = max(lane.vtime, self._vnow)
        lane.queue.append(item)
        if len(lane.queue) > lane.stats.peak_queue_depth:
            lane.stats.peak_queue_depth = len(lane.queue)
        return True

    def _next_lane(self) -> _TenantLane | None:
        if self.in_flight >= self.max_in_flight:
            return None
        best: _TenantLane | None = None
        for spec in self.directory:
            lane = self._lanes[spec.name]
            if not lane.queue:
                continue
            cap = lane.spec.max_in_flight
            if cap is not None and lane.in_flight >= cap:
                continue
            if best is None or (lane.vtime, lane.spec.name) < (
                best.vtime,
                best.spec.name,
            ):
                best = lane
        return best

    def next_ready(self) -> tuple[TenantSpec, Any] | None:
        """Admit and return the next ``(tenant, item)``, if any."""
        lane = self._next_lane()
        if lane is None:
            return None
        item = lane.queue.pop(0)
        lane.in_flight += 1
        lane.stats.admitted += 1
        if lane.in_flight > lane.stats.peak_in_flight:
            lane.stats.peak_in_flight = lane.in_flight
        lane.vtime += 1.0 / lane.spec.effective_weight
        self._vnow = lane.vtime
        self.in_flight += 1
        if self.in_flight > self.peak_in_flight:
            self.peak_in_flight = self.in_flight
        return lane.spec, item

    def pump(self) -> list[tuple[TenantSpec, Any]]:
        """Admit as many queued items as the caps allow, in fair order."""
        admitted = []
        while (nxt := self.next_ready()) is not None:
            admitted.append(nxt)
        return admitted

    def release(self, tenant: str, *, completed: bool = True) -> None:
        """Return an in-flight slot after a query settles."""
        lane = self._lane(tenant)
        if lane.in_flight < 1 or self.in_flight < 1:
            raise ServeError(
                f"release without matching admission for tenant {tenant!r}"
            )
        lane.in_flight -= 1
        self.in_flight -= 1
        if completed:
            lane.stats.completed += 1

    # ------------------------------------------------------------------
    def queued_depth(self, tenant: str) -> int:
        return len(self._lane(tenant).queue)

    def stats(self, tenant: str) -> TenantSchedStats:
        return self._lane(tenant).stats

    def drain(self) -> list[tuple[TenantSpec, Any]]:
        """Remove and return everything still queued (shutdown path)."""
        out = []
        for spec in self.directory:
            lane = self._lanes[spec.name]
            out.extend((spec, item) for item in lane.queue)
            lane.queue.clear()
        return out

    @property
    def idle(self) -> bool:
        """True when nothing is queued or running."""
        return self.in_flight == 0 and all(
            not lane.queue for lane in self._lanes.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        queued = sum(len(lane.queue) for lane in self._lanes.values())
        return (
            f"FairScheduler(in_flight={self.in_flight}/{self.max_in_flight}, "
            f"queued={queued})"
        )
