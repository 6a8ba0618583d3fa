"""The closed-loop service core: one simulated-time state machine.

The paper's concurrent experiments (Figures 1 and 16) run 32 clients
re-issuing random TPC-H queries on one shared machine; contention for
cores and memory bandwidth is emergent from the shared scheduler.  The
chaos harness and the multi-tenant serve layer run the same loop, so it
is written once, as :class:`ClosedLoop`::

    issue -> admit -> submit -> complete | fail | timeout
          -> retry (backoff, DOP shed) or abandon -> think -> issue

* **admission** -- every query passes the weighted-fair
  :class:`~repro.concurrency.admission.FairScheduler`; a query its
  lane's queue cannot hold is rejected (the client thinks and moves on),
  a queued one waits for a slot under the service-wide cap;
* **timeout** -- the client gives up on an attempt after its lane's
  SLO-class timeout; the work still drains (the simulator has no
  preemptive cancel), but the late verdict is discarded;
* **retry** -- injected faults and timeouts re-enter admission after
  ``BACKOFF_BASE * BACKOFF_FACTOR**k`` simulated seconds, at most the
  class's ``max_retries`` times, each retry halving the query's thread
  cap so a struggling query stops amplifying the overload;
* **think** -- after each verdict the client waits a seeded exponential
  think time (at ``think_mean == 0`` it re-issues inside the callback).

Three configurations cover every caller: :func:`background_load` (the
figures' fault-free load, timed with :meth:`ClosedLoop.measure_plan`),
:class:`ResilientWorkload` (one FIFO lane under chaos) and
:class:`~repro.serve.service.TenantLoadService` (one lane per tenant).
Every RNG draw and decision happens on the simulator main thread in
simulated-event order, so one seed gives bit-identical reports and
traces at any host ``workers`` count.
"""

from __future__ import annotations

import math
import sys
import threading
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from ..chaos.faults import FaultPlan
from ..chaos.injector import FaultInjector
from ..config import SimulationConfig
from ..engine.evalpool import EvalPool
from ..engine.memo import IntermediateCache
from ..engine.scheduler import ExecutionResult, Simulator
from ..errors import InjectedFaultError, ReproError
from ..observe import Observer
from ..observe.metrics import MetricsRegistry
from ..plan.graph import Plan
from .admission import FairScheduler
from .tenants import SloClass, TenantDirectory, TenantSpec

#: First retry backoff, simulated seconds, and its per-retry multiplier.
BACKOFF_BASE = 0.02
BACKOFF_FACTOR = 2.0
#: Delay before a disconnected client reconnects, simulated seconds.
RECONNECT_DELAY = 0.05

#: Decisions an :class:`~repro.observe.Observer` records as ``service``
#: events and ``repro_service_<decision>_total`` counters.
_SERVICE_EVENTS = frozenset(
    ("admission_wait", "retry", "shed_dop", "timeout", "abandon", "disconnect")
)
#: Decisions the live registry counts per tenant: family and help text.
_LIVE = {
    "issue": ("repro_serve_queries_total", "queries issued"),
    "reject": ("repro_serve_rejected_total", "admission-rejected queries"),
    "retry": ("repro_serve_retries_total", "query retries"),
    "timeout": ("repro_serve_timeouts_total", "client timeouts"),
    "abandon": ("repro_serve_abandoned_total", "abandoned queries"),
    "complete": ("repro_serve_completed_total", "completed queries"),
}


def backoff(retry_index: int) -> float:
    """Delay before retry number ``retry_index`` (0-based)."""
    return BACKOFF_BASE * BACKOFF_FACTOR**retry_index


@dataclass
class WorkloadReport:
    """Per-client response times and service counters of one run."""

    horizon: float
    by_client: dict[str, list[float]] = field(default_factory=dict)
    #: Simulated time of the last completed query (0.0 when none
    #: completed).  Runs that end early -- every client exhausted its
    #: ``max_queries`` budget -- stop well before ``horizon``, so rates
    #: are computed over this span, not the configured horizon.
    last_completion: float = 0.0
    #: Service-level counters (zero for a fault-free run that never
    #: times out or waits for admission).
    retries: int = 0
    timeouts: int = 0
    disconnects: int = 0
    shed_dop: int = 0
    abandoned: int = 0
    faults_injected: int = 0
    admission_waits: int = 0
    peak_in_flight: int = 0
    peak_queue_depth: int = 0
    #: The injected fault schedule, as plain tuples (see
    #: :meth:`repro.chaos.faults.FaultEvent.as_tuple`) -- part of the
    #: bit-reproducibility surface.
    fault_schedule: tuple = ()

    def completed(self, client: str | None = None) -> int:
        """Queries completed, for one client or in total."""
        if client is not None:
            return len(self.by_client.get(client, []))
        return sum(len(v) for v in self.by_client.values())

    def mean_response(self, client: str) -> float:
        """Mean response time of one client's completed queries."""
        times = self.by_client.get(client)
        if not times:
            raise ReproError(f"client {client!r} completed no queries")
        return float(np.mean(times))

    def response_percentile(self, q: float) -> float:
        """The q-th percentile (0-100) response time over all clients."""
        times = [t for values in self.by_client.values() for t in values]
        if not times:
            raise ReproError("no queries completed")
        return float(np.percentile(times, q))

    @property
    def p50_response(self) -> float:
        """Median response time over all clients."""
        return self.response_percentile(50.0)

    @property
    def p99_response(self) -> float:
        """99th-percentile response time over all clients."""
        return self.response_percentile(99.0)

    @property
    def elapsed(self) -> float:
        """The span rates are computed over.

        The actual last-completion time when the run produced any
        completions (a ``max_queries``-bounded run can end long before
        the horizon); the configured horizon otherwise.
        """
        return self.last_completion if self.last_completion > 0.0 else self.horizon

    def throughput(self) -> float:
        """Completed queries per simulated second, across all clients."""
        span = self.elapsed
        return self.completed() / span if span > 0 else 0.0

    def as_dict(self) -> dict:
        """A plain-data projection, the bit-reproducibility surface.

        Two runs with the same seed must produce *equal* dictionaries
        (including every individual response time), at any host worker
        count -- the chaos property tests compare exactly this.
        """
        doc = asdict(self)
        doc["by_client"] = dict(sorted(doc["by_client"].items()))
        return doc


@dataclass(frozen=True)
class ResilienceConfig:
    """Client-side disciplines of the single-lane configuration."""

    #: Timeout per submission attempt, simulated seconds (None = none).
    timeout: float | None = None
    #: Maximum re-submissions of one query after faults or timeouts.
    max_retries: int = 3

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ReproError("timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ReproError("max_retries must be >= 0")


@dataclass
class ClientSpec:
    """One simulated client: a stream of query plans to re-issue.

    ``plans`` are plan templates.  The service copies each one once, when
    it is built, and every submission of a template executes that one
    private copy, so later changes to ``plans`` do not reach a built
    service.  The client draws the next plan at random (the paper's "32
    clients invoke random simple and complex queries repeatedly").
    """

    name: str
    plans: Sequence[Plan]
    #: Stop after issuing this many queries (None = until the horizon).
    max_queries: int | None = None

    def __post_init__(self) -> None:
        if not self.plans:
            raise ValueError(f"client {self.name!r} needs at least one plan")


@dataclass(eq=False, slots=True)
class Client:
    """One closed-loop client as the core drives it.

    ``name`` keys its response times and labels its submissions (serve
    clients share their tenant's name); ``lane`` is the tenant whose
    queue, SLO class and thread cap its queries use.
    """

    name: str
    lane: TenantSpec
    plans: Sequence[Plan]
    #: Mean think time after each verdict, simulated seconds.
    think_mean: float = 0.0
    max_queries: int | None = None
    #: Queries issued in the current run.
    issued: int = 0


class _Query:
    """One client query across its retries."""

    __slots__ = ("client", "template", "t0", "tries", "max_threads", "submitted")

    def __init__(self, client: Client, template: Plan, t0: float) -> None:
        self.client = client
        self.template = template
        #: First-issue time: response times include every wait and retry.
        self.t0 = t0
        self.tries = 0
        #: Thread cap of the next submission (halved on retries).
        self.max_threads = client.lane.max_threads
        #: Set when admission hands the query to the machine.
        self.submitted = False


class _Attempt:
    """One submission of a :class:`_Query`.

    A timed-out attempt keeps draining while its retry runs; the two must
    not share verdict flags, so these live per attempt.
    """

    __slots__ = ("query", "timed_out", "disconnected", "settled")

    def __init__(self, query: _Query, disconnected: bool) -> None:
        self.query = query
        self.timed_out = False
        self.disconnected = disconnected
        #: Completed or failed -- guards the timeout timer.
        self.settled = False


class ClosedLoop:
    """Closed-loop clients on one shared simulated machine.

    What tells the configurations apart is data: the lanes and clients,
    the client RNG ``seed``, the three class attributes below (set by
    the configuration subclasses), and the two decision sinks --
    ``observe`` (``service`` events, ``repro_service_*`` counters) and
    ``metrics`` (the live per-tenant ``repro_serve_*`` families, guarded
    by ``metrics_lock`` because the asyncio ``/metrics`` endpoint scrapes
    them mid-run).  Every :meth:`run` and :meth:`measure_plan` starts
    from fresh state.

    Construction copies each distinct template once; the clients draw
    from those private copies, and every run's simulator shares one
    execution skeleton per copy across its concurrent submissions.
    """

    #: First arrivals uniform over the horizon (else all at t=0, in order).
    spread_arrivals = False
    #: Clients draw disconnects from the fault injector and reconnect.
    disconnects = False
    #: Submissions share one intermediate cache.
    memo = False

    def __init__(
        self,
        config: SimulationConfig,
        directory: TenantDirectory,
        clients: Sequence[Client],
        *,
        horizon: float,
        seed: int,
        faults: FaultInjector | FaultPlan | None = None,
        max_in_flight: int | None = None,
        workers: int | None = None,
        observe: Observer | None = None,
        metrics: MetricsRegistry | None = None,
        metrics_lock: threading.Lock | None = None,
    ) -> None:
        if horizon <= 0:
            raise ReproError("horizon must be positive")
        if not clients:
            raise ReproError("need at least one client")
        if max_in_flight is None:
            # Enough to keep every hardware thread busy, small enough to
            # bound queueing amplification under overload.
            max_in_flight = 2 * config.machine.hardware_threads
        if max_in_flight < 1:
            raise ReproError("max_in_flight must be >= 1 (or None)")
        if isinstance(faults, FaultPlan):
            faults = FaultInjector(faults, seed=config.derive_seed("chaos"))
        self.config = config
        self.directory = directory
        self.clients = list(clients)
        private: dict[Plan, Plan] = {}  # template -> copy (identity keys)
        for client in self.clients:
            for plan in client.plans:
                if plan not in private:
                    private[plan] = plan.copy()
            client.plans = tuple(private[p] for p in client.plans)
        self._templates = tuple(private.values())
        self.horizon = horizon
        self.seed = seed
        self.faults = faults
        self.max_in_flight = max_in_flight
        self.workers = workers
        self.observe = observe
        self.metrics = metrics
        self.metrics_lock = metrics_lock if metrics_lock is not None else threading.Lock()
        self.pool: EvalPool | None = None

    # ------------------------------------------------------------------
    def run(self) -> WorkloadReport:
        """Run every client to the horizon, drain, and report."""
        try:
            self._start()
            self.simulator.run()
        finally:
            self._close_pool()
        return self._report()

    def measure_plan(
        self, plan: Plan, *, max_threads: int | None = None, warmup: float = 1.0
    ) -> ExecutionResult:
        """Execute ``plan`` once under the clients' load.

        The clients run for ``warmup`` simulated seconds first so the
        machine is saturated when the probe arrives; the probe bypasses
        admission (it is the measurement, not a client).
        """
        try:
            self._start()
            self._run_until(warmup)
            sid = self.simulator.submit(
                plan, client="probe", max_threads=max_threads
            )
            self.simulator.run()
        finally:
            self._close_pool()
        return self.simulator.result(sid)

    # ------------------------------------------------------------------
    def _start(self) -> None:
        """Fresh per-run state, then the clients' first arrivals."""
        workers = self.workers
        if workers is not None and workers > 1:
            self.pool = EvalPool(workers)
        self.pool_stats = None
        self.injector = self.faults.spawn() if self.faults is not None else None
        self._disconnect_draws = self.injector if self.disconnects else None
        self.simulator = Simulator(
            self.config,
            evalpool=self.pool,
            faults=self.injector,
            memo=IntermediateCache() if self.memo else None,
            observe=self.observe,
        )
        for template in self._templates:
            self.simulator.share(template)
        self.scheduler = FairScheduler(self.directory, max_in_flight=self.max_in_flight)
        self.rng = np.random.default_rng(self.seed)
        #: Decision tallies keyed by (lane, decision).
        self.counts: Counter[tuple[str, str]] = Counter()
        #: Response times per client name, in completion order.
        self.times: dict[str, list[float]] = {c.name: [] for c in self.clients}
        self.last_completion = 0.0
        #: Deepest lane queue a waiting query joined.
        self.peak_wait_depth = 0
        for client in self.clients:
            client.issued = 0
            if self.spread_arrivals:
                when = float(self.rng.uniform(0.0, self.horizon))
                self.simulator.schedule_at(when, lambda _c=client: self._issue(_c))
            else:
                self._issue(client)

    def _run_until(self, when: float) -> None:
        """Advance the clients' load towards ``when`` for the probe.

        Steps as :meth:`Simulator.run` does, timers firing before every
        dispatch, and stops at the first event at or past ``when`` -- or
        earlier, at an event that leaves no task running.
        """
        simulator = self.simulator
        while (simulator.now < when and simulator._tasks) or simulator.now == 0.0:
            simulator._fire_timers()
            simulator._dispatch()
            if not simulator._tasks:
                break
            simulator._advance()
            if simulator.now >= when:
                break

    def _close_pool(self) -> None:
        if self.pool is not None:
            self.pool_stats = self.pool.stats()
            self.pool.close()
            self.pool = None

    def _report(self) -> WorkloadReport:
        totals: Counter[str] = Counter()
        for (__, kind), n in self.counts.items():
            totals[kind] += n
        report = WorkloadReport(
            horizon=self.horizon,
            by_client={name: list(times) for name, times in self.times.items()},
            last_completion=self.last_completion,
            retries=totals["retry"],
            timeouts=totals["timeout"],
            disconnects=totals["disconnect"],
            shed_dop=totals["shed_dop"],
            abandoned=totals["abandon"],
            admission_waits=totals["admission_wait"],
            peak_in_flight=self.scheduler.peak_in_flight,
            peak_queue_depth=self.peak_wait_depth,
        )
        if self.injector is not None:
            report.faults_injected = self.injector.stats.total
            report.fault_schedule = tuple(e.as_tuple() for e in self.injector.schedule)
        obs = self.observe
        if obs is not None:
            obs.metrics.gauge(
                "repro_service_peak_in_flight",
                "maximum concurrent submissions observed",
            ).set(float(report.peak_in_flight))
            obs.metrics.gauge(
                "repro_service_peak_queue_depth",
                "maximum admission-queue depth observed",
            ).set(float(report.peak_queue_depth))
            if self.pool_stats is not None:
                obs.record_pool(self.pool_stats)
        return report

    def _note(self, kind: str, client: Client, **attrs) -> None:
        """The decision hook: tally ``kind`` and feed the configured sinks."""
        tenant = client.lane.name
        self.counts[tenant, kind] += 1
        obs = self.observe
        if obs is not None and kind in _SERVICE_EVENTS:
            obs.tracer.event(
                kind, "service", self.simulator.now, client=client.name, **attrs
            )
            obs.metrics.counter(
                f"repro_service_{kind}_total", f"service-level {kind} decisions"
            ).inc()
        if self.metrics is not None and kind in _LIVE:
            family, help_text = _LIVE[kind]
            with self.metrics_lock:
                self.metrics.counter(family, help_text, tenant=tenant).inc()
                if kind == "complete":
                    self.metrics.histogram(
                        "repro_serve_latency_seconds",
                        help="client-perceived simulated latency",
                        tenant=tenant,
                    ).observe(attrs["latency"])

    # ---- the state machine, in loop order ----------------------------
    def _issue(self, client: Client) -> None:
        if self.simulator.now >= self.horizon:
            return
        if client.max_queries is not None and client.issued >= client.max_queries:
            return
        client.issued += 1
        self._note("issue", client)
        plans = client.plans
        template = plans[int(self.rng.integers(0, len(plans)))]
        if not self._offer(_Query(client, template, self.simulator.now)):
            self._think(client)  # shed at admission: try again later

    def _offer(self, query: _Query, *, retry: bool = False) -> bool:
        client = query.client
        lane = client.lane.name
        if not self.scheduler.offer(lane, query):
            if not retry:
                self._note("reject", client)
            return False
        self._pump()
        if not query.submitted:
            depth = self.scheduler.queued_depth(lane)
            self.peak_wait_depth = max(self.peak_wait_depth, depth)
            self._note("admission_wait", client, depth=depth)
        return True

    def _pump(self) -> None:
        for __, query in self.scheduler.pump():
            self._submit(query)

    def _submit(self, query: _Query) -> None:
        query.submitted = True
        client = query.client
        simulator = self.simulator
        draws = self._disconnect_draws
        disconnected = draws is not None and draws.draw_disconnect(
            sid=-1, client=client.name, now=simulator.now
        )
        attempt = _Attempt(query, disconnected)
        simulator.submit(
            query.template,
            client=client.name,
            max_threads=query.max_threads,
            on_complete=lambda _sid, _a=attempt: self._on_complete(_a),
            on_failure=lambda _sid, error, _a=attempt: self._on_failure(_a, error),
        )
        timeout = client.lane.slo.timeout
        if timeout is not None:
            simulator.schedule_at(
                simulator.now + timeout, lambda _a=attempt: self._on_timeout(_a)
            )

    def _release(self, query: _Query) -> None:
        self.scheduler.release(query.client.lane.name)
        self._pump()

    def _on_complete(self, attempt: _Attempt) -> None:
        query = attempt.query
        self._release(query)
        if attempt.timed_out:
            return  # the client gave up on this attempt already
        attempt.settled = True
        client = query.client
        now = self.simulator.now
        if attempt.disconnected:
            self._note("disconnect", client)
            self.simulator.schedule_at(
                now + RECONNECT_DELAY, lambda _c=client: self._issue(_c)
            )
            return
        elapsed = now - query.t0
        self.times[client.name].append(elapsed)
        if now > self.last_completion:
            self.last_completion = now
        self._note("complete", client, latency=elapsed)
        self._think(client)

    def _on_failure(self, attempt: _Attempt, error: Exception) -> None:
        self._release(attempt.query)
        if not isinstance(error, InjectedFaultError):
            raise error  # a genuine engine bug must never be retried away
        if attempt.timed_out:
            return  # the timeout path already decided what happens
        attempt.settled = True
        self._retry_or_abandon(attempt.query)

    def _on_timeout(self, attempt: _Attempt) -> None:
        if attempt.settled:
            return  # completed or failed before the deadline
        attempt.timed_out = True
        self._note("timeout", attempt.query.client)
        self._retry_or_abandon(attempt.query)

    def _retry_or_abandon(self, query: _Query) -> None:
        client = query.client
        if query.tries >= client.lane.slo.max_retries:
            self._note("abandon", client)
            self._think(client)
            return
        retry_index = query.tries
        query.tries += 1
        self._note("retry", client, attempt=query.tries)
        cap = query.max_threads
        if cap is None:
            cap = self.config.effective_threads
        if cap > 1:  # shed DOP: halve the cap, down to one thread
            query.max_threads = cap // 2
            self._note("shed_dop", client, threads=cap // 2)
        self.simulator.schedule_at(
            self.simulator.now + backoff(retry_index),
            lambda _q=query: self._readmit(_q),
        )

    def _readmit(self, query: _Query) -> None:
        query.submitted = False
        if not self._offer(query, retry=True):
            # The retry found its lane queue full: the client abandons it.
            self._note("abandon", query.client)
            self._think(query.client)

    def _think(self, client: Client) -> None:
        """Schedule the client's next issue, if inside the horizon."""
        if client.think_mean <= 0:
            self._issue(client)
            return
        when = self.simulator.now + float(self.rng.exponential(client.think_mean))
        if when < self.horizon:
            self.simulator.schedule_at(when, lambda _c=client: self._issue(_c))


# ----------------------------------------------------------------------
# single-lane configurations
# ----------------------------------------------------------------------
def _one_lane(
    specs: Sequence[ClientSpec], resilience: ResilienceConfig | None = None
) -> tuple[TenantDirectory, list[Client]]:
    """Every client in one FIFO lane with an unbounded queue.

    Admission is then plain FIFO under the service-wide cap.  The lane's
    SLO class carries the resilience disciplines and no latency target.
    """
    res = resilience if resilience is not None else ResilienceConfig()
    slo = SloClass(
        "clients", p50_target=math.inf, p99_target=math.inf,
        timeout=res.timeout, max_retries=res.max_retries,
    )
    lane = TenantSpec("clients", slo=slo, queue_limit=sys.maxsize)
    clients = [Client(s.name, lane, s.plans, max_queries=s.max_queries) for s in specs]
    return TenantDirectory((lane,)), clients


def background_load(
    config: SimulationConfig, clients: Sequence[ClientSpec], *, horizon: float = 30.0
) -> ClosedLoop:
    """The figures' fault-free background load (Figures 1 and 16).

    Clients re-issue the moment a query completes; no faults, no
    timeouts, and the cap (one slot per client) never binds.
    """
    return ClosedLoop(
        config,
        *_one_lane(clients),
        horizon=horizon,
        seed=config.seed + 7_919,
        max_in_flight=len(clients),
    )


class ResilientWorkload(ClosedLoop):
    """Closed-loop clients in one FIFO lane that survive injected chaos.

    :class:`ResilienceConfig` applies to every client; ``max_in_flight``
    caps concurrent submissions (None = twice the hardware threads).
    Clients also draw disconnects from the fault injector: a disconnected
    client loses its verdict and reissues ``RECONNECT_DELAY`` later.
    """

    disconnects = True

    def __init__(
        self,
        config: SimulationConfig,
        clients: Sequence[ClientSpec],
        *,
        horizon: float = 30.0,
        faults: FaultInjector | FaultPlan | None = None,
        resilience: ResilienceConfig | None = None,
        max_in_flight: int | None = None,
        workers: int | None = None,
        observe: Observer | None = None,
    ) -> None:
        super().__init__(
            config,
            *_one_lane(clients, resilience),
            horizon=horizon,
            seed=config.derive_seed("service.clients"),
            faults=faults,
            max_in_flight=max_in_flight,
            workers=workers,
            observe=observe,
        )
