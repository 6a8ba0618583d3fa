"""The seeded fault injector: turns a :class:`FaultPlan` into events.

Determinism contract
--------------------
Every random draw happens in simulated-event order: one
``draw_dispatch`` per committed operator dispatch (in the scheduler's
dispatch-order commit barrier) and one ``draw_disconnect`` per query
submission (in the workload service layer).  Both orders are properties
of *simulated* execution, which is bit-identical across repeated runs
-- so the fault schedule is too.  Nothing in this module may consult
wall-clock time, host thread identity, or any other non-simulated
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ChaosError, InjectedFaultError
from .faults import FaultEvent, FaultKind, FaultPlan, FaultStats

#: Offsets separating the injector's two independent random streams.
_DISPATCH_STREAM = 0x5EED_D15F
_CLIENT_STREAM = 0x5EED_C11E


@dataclass(frozen=True)
class FaultDecision:
    """Outcome of one dispatch-level draw: which fault, how hard."""

    kind: FaultKind
    magnitude: float = 0.0


class FaultInjector:
    """Draws faults from a seeded stream and records the schedule.

    One injector serves one simulated run; it is *stateful* (consumed
    draws, recorded schedule, fault budget) and must not be shared
    between simulators.  Use :meth:`spawn` to derive a fresh injector
    with the same plan and seed.
    """

    def __init__(self, plan: FaultPlan, seed: int = 0) -> None:
        if not isinstance(plan, FaultPlan):
            raise ChaosError(f"expected a FaultPlan, got {type(plan).__name__}")
        self.plan = plan
        self.seed = int(seed)
        self._dispatch_rng = np.random.default_rng(
            (self.seed + _DISPATCH_STREAM) % 2**63
        )
        self._client_rng = np.random.default_rng(
            (self.seed + _CLIENT_STREAM) % 2**63
        )
        self._events: list[FaultEvent] = []
        self.stats = FaultStats()
        #: Optional :class:`repro.observe.Observer`: every recorded
        #: fault also bumps ``repro_faults_injected_total{kind=...}``.
        #: Draws happen on the simulator main thread in dispatch /
        #: submission order, so the counters are deterministic too.
        self.observe = None

    def spawn(self) -> "FaultInjector":
        """A fresh injector with the same plan and seed (no state)."""
        return FaultInjector(self.plan, self.seed)

    # ------------------------------------------------------------------
    @property
    def schedule(self) -> tuple[FaultEvent, ...]:
        """Every fault injected so far, in injection order."""
        return tuple(self._events)

    @property
    def exhausted(self) -> bool:
        """True once the ``max_faults`` budget is spent."""
        budget = self.plan.max_faults
        return budget is not None and len(self._events) >= budget

    # ------------------------------------------------------------------
    def draw_dispatch(
        self, *, sid: int, nid: int, client: str, now: float
    ) -> FaultDecision | None:
        """Decide the fate of one operator dispatch.

        Exactly one uniform draw is consumed per call (plus one more
        when a magnitude-bearing fault fires), so the stream position is
        a pure function of how many dispatches the simulation has
        committed -- the determinism anchor.
        """
        plan = self.plan
        self.stats.dispatch_draws += 1
        if plan.dispatch_rate <= 0.0 or self.exhausted:
            return None
        roll = float(self._dispatch_rng.random())
        threshold = plan.operator_exception_rate
        if roll < threshold:
            self._record(
                FaultKind.OPERATOR_EXCEPTION, now, sid=sid, nid=nid, client=client
            )
            self.stats.operator_exceptions += 1
            return FaultDecision(FaultKind.OPERATOR_EXCEPTION)
        threshold += plan.straggler_rate
        if roll < threshold:
            span = plan.straggler_slowdown - 1.0
            magnitude = 1.0 + float(self._dispatch_rng.random()) * span
            self._record(
                FaultKind.STRAGGLER,
                now,
                sid=sid,
                nid=nid,
                client=client,
                magnitude=magnitude,
            )
            self.stats.stragglers += 1
            return FaultDecision(FaultKind.STRAGGLER, magnitude)
        threshold += plan.mem_pressure_rate
        if roll < threshold:
            span = plan.mem_pressure_factor - 1.0
            magnitude = 1.0 + float(self._dispatch_rng.random()) * span
            self._record(
                FaultKind.MEM_PRESSURE,
                now,
                sid=sid,
                nid=nid,
                client=client,
                magnitude=magnitude,
            )
            self.stats.mem_pressure_spikes += 1
            return FaultDecision(FaultKind.MEM_PRESSURE, magnitude)
        return None

    def draw_disconnect(self, *, sid: int, client: str, now: float) -> bool:
        """Decide whether this submission's client disconnects.

        Consumed by the workload service layer at submission time, on
        the main thread, so the draw order tracks submission order.
        """
        self.stats.submission_draws += 1
        if self.plan.disconnect_rate <= 0.0 or self.exhausted:
            return False
        if float(self._client_rng.random()) < self.plan.disconnect_rate:
            self._record(
                FaultKind.CLIENT_DISCONNECT, now, sid=sid, client=client
            )
            self.stats.disconnects += 1
            return True
        return False

    # ------------------------------------------------------------------
    def error_for(self, *, sid: int, nid: int, now: float) -> InjectedFaultError:
        """The exception an ``OPERATOR_EXCEPTION`` decision raises."""
        return InjectedFaultError(
            f"injected operator failure (sid={sid}, node={nid}, "
            f"t={now:.6f}s)",
            sid=sid,
            nid=nid,
            when=now,
        )

    def _record(
        self,
        kind: FaultKind,
        when: float,
        *,
        sid: int = -1,
        nid: int = -1,
        client: str = "",
        magnitude: float = 0.0,
    ) -> None:
        self._events.append(
            FaultEvent(
                kind=kind,
                when=when,
                sid=sid,
                nid=nid,
                client=client,
                magnitude=magnitude,
            )
        )
        if self.observe is not None:
            self.observe.metrics.counter(
                "repro_faults_injected_total",
                "faults injected by the chaos harness",
                kind=kind.value,
            ).inc()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"FaultInjector(seed={self.seed}, injected={len(self._events)}, "
            f"draws={self.stats.dispatch_draws})"
        )
