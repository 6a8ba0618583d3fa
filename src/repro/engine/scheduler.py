"""The discrete-event data-flow scheduler.

Operators are dispatched once all their inputs are materialized and a
hardware thread is free (the paper's "data-flow graph based scheduling
policy").  Real results are computed eagerly at dispatch; the *duration*
of the operator is simulated with a roofline model:

* cpu work proceeds at the thread's compute rate (reduced when its
  hyperthread sibling is busy),
* memory work proceeds at the thread's bandwidth share -- a per-thread
  cap, further divided when the socket's sustained bandwidth is
  oversubscribed by concurrent memory-bound operators.

An operator finishes when *both* works are done.  Rates are recomputed at
every event, so resource contention from concurrent queries emerges
naturally -- this is what makes adaptively parallelized plans
"resource-contention aware" in the reproduction, as on real hardware.

Hot-path notes: the event loop runs once per operator dispatch and once
per completion, tens of thousands of times per adaptive instance, so the
per-event work is kept O(running tasks): ready queues are deques,
completed tasks are removed by swap-with-last, and the per-socket count
of memory-bound tasks (the bandwidth-sharing denominator) is maintained
incrementally instead of rescanning every task at every event.  A plan
submitted many times (closed-loop clients) registers once with
:meth:`Simulator.share`, so its topological walk, consumer index and
fingerprints are built once, not per submission.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from ..analysis.sanitize import Sanitizer
from ..chaos.faults import FaultKind
from ..chaos.injector import FaultDecision, FaultInjector
from ..config import SimulationConfig
from ..costmodel.model import CostContext, compute_work, thread_bandwidth_cap
from ..errors import SchedulerError
from ..observe import Observer
from ..operators.base import Operator, WorkProfile
from ..plan.graph import Plan, PlanNode
from ..storage.column import Intermediate, intermediate_nbytes
from .machine import HardwareThread, MachineState
from .memo import IntermediateCache
from .noise import NoiseModel
from .profiler import OpRecord, QueryProfile

_EPS = 1e-12


@dataclass
class ExecutionResult:
    """Values of a plan's output nodes plus the execution profile."""

    outputs: list[Intermediate]
    profile: QueryProfile

    @property
    def response_time(self) -> float:
        return self.profile.response_time


class _Skeleton:
    """The execution shape of one plan, shared by all its submissions.

    Built from one ``plan.nodes()`` walk and never mutated afterwards:
    initial input counts, pending-consumer counts, consumer lists,
    leaves and output nids.  Everything an execution changes lives on
    :class:`_Submission` or in simulator state keyed by ``(sid, nid)``,
    so concurrent submissions of one plan object may share a skeleton
    (see :meth:`Simulator.share`).
    """

    __slots__ = (
        "plan", "waiting", "pending_consumers", "consumers", "leaves", "is_output",
        "size", "fingerprints", "node_index",
    )

    def __init__(
        self, plan: Plan, *, fingerprints: bool, node_index: bool
    ) -> None:
        self.plan = plan
        nodes = plan.nodes()
        self.waiting: dict[int, int] = {}
        self.pending_consumers: dict[int, int] = {n.nid: 0 for n in nodes}
        self.consumers: dict[int, list[PlanNode]] = {}
        for node in nodes:
            self.waiting[node.nid] = len(node.inputs)
            for child in node.inputs:
                self.pending_consumers[child.nid] += 1
                self.consumers.setdefault(child.nid, []).append(node)
        self.leaves = tuple(n for n in nodes if not n.inputs)
        self.is_output = frozenset(out.nid for out in plan.outputs)
        self.size = len(nodes)
        # One shared O(nodes) walk; only needed when memoization is on.
        self.fingerprints: dict[int, bytes] = (
            plan.fingerprints() if fingerprints else {}
        )
        # Plan-relative node position (nid -> index in topological
        # order).  ``PlanNode.nid`` comes from a process-global counter,
        # so raw nids are not reproducible across runs; the fault
        # schedule records these stable indices instead.  Only needed
        # when fault injection is on.
        self.node_index: dict[int, int] = (
            {node.nid: i for i, node in enumerate(nodes)} if node_index else {}
        )


class _Submission:
    """One query instance inside the simulator."""

    __slots__ = (
        "sid", "plan", "skeleton", "client", "max_threads", "on_complete",
        "on_failure", "failed", "profile", "values", "waiting", "pending_consumers",
        "remaining", "running", "ready", "live_bytes", "span",
    )

    def __init__(
        self,
        sid: int,
        skeleton: _Skeleton,
        submit_time: float,
        client: str,
        max_threads: int,
        on_complete: Callable[[int], None] | None,
        *,
        on_failure: Callable[[int, Exception], None] | None = None,
    ) -> None:
        self.sid = sid
        self.plan = skeleton.plan
        self.skeleton: _Skeleton | None = skeleton
        self.client = client
        self.max_threads = max_threads
        self.on_complete = on_complete
        self.on_failure = on_failure
        #: The exception that killed this submission (None while alive).
        self.failed: Exception | None = None
        self.profile = QueryProfile(submit_time=submit_time)
        self.values: dict[int, Intermediate] = {}
        self.waiting = dict(skeleton.waiting)
        self.pending_consumers = dict(skeleton.pending_consumers)
        self.remaining = skeleton.size
        self.running = 0
        self.live_bytes = 0.0
        self.ready: deque[PlanNode] = deque(skeleton.leaves)
        #: Tracing span covering submit -> finish (None when unobserved).
        self.span = None

    @property
    def finished(self) -> bool:
        return self.remaining == 0

    def release_bookkeeping(self) -> None:
        """Drop execution-only state once the submission has finished.

        Long concurrent workloads complete many thousands of submissions
        on one simulator; only the output values and the profile must
        outlive execution.
        """
        self.waiting = {}
        self.pending_consumers = {}
        self.ready = deque()
        self.skeleton = None


class _Task:
    """A running operator.

    Placement (core, socket, NUMA bandwidth scale) is fixed at commit;
    the rates and finish horizon are rewritten by every
    :meth:`Simulator._advance`.
    """

    __slots__ = (
        "submission", "node", "thread", "core", "socket", "mem_scale", "cpu_rem",
        "mem_rem", "cpu_work", "mem_work", "start", "index", "mem_active",
        "net_rem", "lat_rem", "link", "net_active", "cpu_rate", "mem_rate",
        "net_rate", "finish",
    )

    def __init__(
        self,
        submission: _Submission,
        node: PlanNode,
        thread: HardwareThread,
        cpu_work: float,
        mem_work: float,
        start: float,
        mem_scale: float = 1.0,
    ) -> None:
        self.submission = submission
        self.node = node
        self.thread = thread
        self.core = thread.core_id
        self.socket = thread.socket_id
        #: Bandwidth multiplier: ``numa_remote_factor`` for a task reading
        #: inputs homed on another socket (strict NUMA), else 1.0.
        self.mem_scale = mem_scale
        self.cpu_work = cpu_work
        self.mem_work = mem_work
        self.cpu_rem = cpu_work
        self.mem_rem = mem_work
        self.start = start
        #: Position in the simulator's running-task list (swap-removal).
        self.index = -1
        #: True while this task still counts toward its socket's
        #: memory-bandwidth demand.
        self.mem_active = mem_work > _EPS
        #: Cross-node transfer state (cluster simulation only): bytes
        #: left on the wire, latency left before the transfer starts,
        #: the NIC (destination node id) being shared, and whether the
        #: task still counts toward that NIC's processor-sharing
        #: demand.  Single-machine tasks never activate these.
        self.net_rem = 0.0
        self.lat_rem = 0.0
        self.link = -1
        self.net_active = False
        #: Rates and time-to-finish as of the latest event.
        self.cpu_rate = 0.0
        self.mem_rate = 0.0
        self.net_rate = 0.0
        self.finish = 0.0


class _PendingDispatch:
    """One collected dispatch awaiting evaluation and commit.

    ``_dispatch`` first *collects* every runnable (submission, node,
    thread) triple in deterministic scheduler order, then evaluates the
    batch, then *commits* each entry strictly in collection order.  All
    simulated-state mutation -- noise draws, memo counters, cost
    charging, NUMA homing -- happens at commit time, so a failing or
    memo-shared evaluation cannot reorder it.
    """

    __slots__ = (
        "sub",
        "node",
        "thread",
        "fingerprint",
        "peeked",
        "job_index",
        "fault",
    )

    def __init__(
        self, sub: _Submission, node: PlanNode, thread: HardwareThread
    ) -> None:
        self.sub = sub
        self.node = node
        self.thread = thread
        #: Plan fingerprint of ``node`` (only when memoization is on).
        self.fingerprint: bytes | None = None
        #: (value, profile) held from a lock-free memo peek; keeping the
        #: reference pins it even if a same-batch commit evicts it.
        self.peeked: tuple[Intermediate, WorkProfile] | None = None
        #: Index into the batch's evaluation-job results, -1 when the
        #: result comes from ``peeked`` instead.
        self.job_index = -1
        #: Injected-fault decision for this dispatch (chaos harness);
        #: drawn at collection time, in collection order.
        self.fault: FaultDecision | None = None


class EvalFailure:
    """A settled evaluation error: the kernel raised instead of returning.

    Failures travel through the batch as *values* so a raising operator
    cannot abort its siblings mid-flight: every job runs, results come
    back in batch order, and the dispatch-order commit barrier decides
    -- deterministically -- which submission a failure kills and whether
    it propagates or is retried.
    """

    __slots__ = ("error",)

    def __init__(self, error: Exception) -> None:
        self.error = error

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EvalFailure({self.error!r})"


def settle_job(job: Callable[[], Any]) -> Callable[[], Any]:
    """Wrap ``job`` so an exception settles into an :class:`EvalFailure`.

    ``KeyboardInterrupt``/``SystemExit`` still propagate; everything
    else -- genuine operator bugs and injected chaos alike -- is
    captured for the commit barrier to resolve in dispatch order.
    """

    def settled() -> Any:
        try:
            return job()
        except Exception as exc:  # noqa: BLE001 - settled by design
            return EvalFailure(exc)

    return settled


def _make_eval_job(
    op: Operator, inputs: list[Intermediate]
) -> Callable[[], tuple[Intermediate, WorkProfile]]:
    def job() -> tuple[Intermediate, WorkProfile]:
        output = op.evaluate(inputs)
        return output, op.work_profile(inputs, output)

    return job


class Simulator:
    """Shared simulated machine executing one or more plans.

    ``memo`` plugs in a cross-run :class:`~repro.engine.memo.IntermediateCache`:
    operators whose plan fingerprint is cached skip real evaluation and
    reuse the stored intermediate and work profile.  Simulated time is
    unaffected -- the roofline model still charges the same work -- only
    host wall-clock changes.

    ``faults`` plugs in a :class:`~repro.chaos.injector.FaultInjector`:
    every committed dispatch consults it (in dispatch order) and may
    crash, slow down, or memory-starve the operator.
    Submissions killed by a fault -- injected or a genuine operator
    exception -- are cleaned up without poisoning the simulator: the
    thread is released, pending work is dropped, and the exception
    either goes to the submission's ``on_failure`` handler or is raised
    from :meth:`run` in dispatch order, after the machine state has been
    restored, so the same simulator keeps serving other submissions.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        memo: IntermediateCache | None = None,
        faults: FaultInjector | None = None,
        observe: Observer | None = None,
        sanitizer: Sanitizer | None = None,
    ) -> None:
        self.config = config
        self.memo = memo
        self.faults = faults
        # ``sanitizer`` plugs in a repro.analysis.sanitize.Sanitizer:
        # every dispatch round's input buffers are checksummed around
        # evaluation, the dispatch-order commit barrier is verified, and
        # committed values fold into a rolling trace fingerprint.  Host
        # cost only; simulated results are untouched.
        self.sanitizer = sanitizer
        # ``observe`` plugs in a repro.observe.Observer: one span per
        # submission and per completed operator task, instant events for
        # dispatch rounds, evaluation batches, and injected faults, and
        # metric counters for all of the above.  Every emission happens
        # in dispatch/completion order, so the trace is bit-identical
        # across repeated runs.  When None (the default),
        # instrumentation costs one attribute check per site.
        self.observe = observe
        if observe is not None and faults is not None and faults.observe is None:
            faults.observe = observe
        self.machine = MachineState(config.machine)
        self.cost_ctx = CostContext(machine=config.machine, data_scale=config.data_scale)
        self.noise = NoiseModel(config.noise, config.rng())
        self.now = 0.0
        self._sid_counter = itertools.count()
        self._submissions: dict[int, _Submission] = {}
        self._queue: list[_Submission] = []  # FIFO across unfinished submissions
        self._tasks: list[_Task] = []
        spec = config.machine
        self._thread_cap = thread_bandwidth_cap(spec, self.cost_ctx.params)
        self._socket_bw = spec.mem_bandwidth_gbps * 1e9
        self._remote_factor = spec.numa_remote_factor
        self._last_profiles: dict[tuple[int, int], WorkProfile] = {}
        # Hash tables are cached on their build input (per submission):
        # the first join over an inner node pays the build, later clones
        # probe the shared table.  Keyed by sid so a finished
        # submission's entries can be dropped in one operation.
        self._hash_built: dict[int, set[int]] = {}
        # Home socket of each produced intermediate (strict-NUMA mode).
        self._home_socket: dict[int, dict[int, int]] = {}
        # Number of memory-bound running tasks per socket -- the
        # bandwidth-sharing denominator, maintained incrementally.
        self._socket_mem_demand = [0] * spec.sockets
        # Network lanes (cluster simulation): NIC ingress bandwidth and
        # active transfers per destination node.  Empty on one machine.
        self._link_bw = 0.0
        self._link_demand: list[int] = []
        # Skeletons of plans registered with :meth:`share`; a Plan
        # hashes by identity, so this maps plan objects, not contents.
        self._shared: dict[Plan, _Skeleton] = {}
        # Simulated-time timers: (when, seq, callback) heap.  The seq
        # tiebreak keeps same-instant callbacks firing in registration
        # order, which the determinism guarantees depend on.
        self._timers: list[tuple[float, int, Callable[[], None]]] = []
        self._timer_seq = itertools.count()
        # Exceptions of failed submissions without an on_failure handler,
        # in failure (dispatch) order, raised from the event loop once
        # the machine state is consistent again.
        self._pending_failures: deque[Exception] = deque()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        plan: Plan,
        *,
        client: str = "client-0",
        max_threads: int | None = None,
        on_complete: Callable[[int], None] | None = None,
        on_failure: Callable[[int, Exception], None] | None = None,
    ) -> int:
        """Register a plan for execution at the current simulated time.

        Returns a submission id usable with :meth:`result`.
        ``on_complete`` (called with the submission id) may submit
        follow-up queries -- that is how closed-loop clients are built.
        ``on_failure`` (called with the submission id and the exception)
        absorbs operator failures -- injected or genuine -- instead of
        letting them propagate out of :meth:`run`; resilient workload
        layers use it to retry with backoff.
        """
        limit = max_threads if max_threads is not None else self.config.effective_threads
        limit = min(limit, self.config.machine.hardware_threads)
        sid = next(self._sid_counter)
        skeleton = self._shared.get(plan)
        if skeleton is None:
            skeleton = self._skeleton(plan)
        sub = _Submission(
            sid, skeleton, self.now, client, limit, on_complete, on_failure=on_failure
        )
        self._submissions[sid] = sub
        obs = self.observe
        if obs is not None:
            sub.span = obs.tracer.begin(
                f"query:{client}",
                "submission",
                self.now,
                sid=sid,
                client=client,
                nodes=sub.remaining,
            )
            obs.metrics.counter(
                "repro_submissions_total", "queries submitted to the simulator"
            ).inc()
        if sub.finished:  # degenerate empty plan
            sub.profile.finish_time = self.now
            if sub.span is not None:
                self.observe.tracer.end(sub.span, self.now)
        else:
            self._queue.append(sub)
        return sid

    def share(self, plan: Plan) -> None:
        """Build ``plan``'s execution skeleton once for all its submissions.

        For callers that submit one plan object many times, such as
        closed-loop clients re-issuing a template.  The caller must not
        mutate ``plan`` afterwards; a plan that is not shared gets a
        fresh skeleton at every :meth:`submit`.
        """
        self._shared[plan] = self._skeleton(plan)

    def _skeleton(self, plan: Plan) -> _Skeleton:
        return _Skeleton(
            plan,
            fingerprints=self.memo is not None,
            node_index=self.faults is not None,
        )

    def run(self) -> None:
        """Advance simulated time until no work remains.

        An unhandled submission failure raises here *after* the machine
        state has been restored; calling :meth:`run` again resumes the
        remaining submissions (and raises the next unhandled failure, in
        dispatch order, if there is one).
        """
        while True:
            self._fire_timers()
            self._dispatch()
            if not self._tasks:
                if self._timers:
                    # Idle until the next timer: jump simulated time.
                    when = self._timers[0][0]
                    if when > self.now:
                        self.now = when
                    self._fire_timers()
                    continue
                if self._queue:
                    stuck = [s.sid for s in self._queue]
                    raise SchedulerError(
                        f"deadlock: submissions {stuck} have pending work but "
                        "nothing is runnable"
                    )
                return
            self._advance()

    def schedule_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` at simulated time ``when`` (>= now).

        Timers fire between dispatch rounds;
        same-instant timers fire in registration order.  This is the
        primitive behind simulated-time backoff and client timeouts in
        the resilient workload layer.
        """
        if when < self.now - _EPS:
            raise SchedulerError(
                f"cannot schedule a timer in the past ({when} < {self.now})"
            )
        heapq.heappush(self._timers, (when, next(self._timer_seq), callback))

    def result(self, sid: int) -> ExecutionResult:
        sub = self._submissions[sid]
        if sub.failed is not None:
            raise sub.failed
        if not sub.finished:
            raise SchedulerError(f"submission {sid} has not finished")
        outputs = [sub.values[out.nid] for out in sub.plan.outputs]
        return ExecutionResult(outputs=outputs, profile=sub.profile)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _fire_timers(self) -> None:
        """Run every timer whose deadline has been reached."""
        timers = self._timers
        while timers and timers[0][0] <= self.now + _EPS:
            __, __, callback = heapq.heappop(timers)
            callback()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        batch = self._collect_dispatches()
        if batch:
            obs = self.observe
            if obs is not None:
                obs.tracer.event(
                    "dispatch", "dispatch", self.now, batch=len(batch)
                )
                obs.metrics.counter(
                    "repro_dispatch_rounds_total", "non-empty dispatch rounds"
                ).inc()
            results = self._evaluate_batch(batch)
            san = self.sanitizer
            if san is not None:
                # Each input's baseline is its at-commit checksum, so
                # verification needs no pre-evaluation snapshot: one
                # post-evaluation re-read per distinct input, compared
                # against the checksum recorded when it was committed;
                # the dispatch-order commit barrier is checked in the
                # same pass.
                san.verify_dispatch(batch, len(results))
            for entry in batch:
                self._commit_dispatch(entry, results)
                if san is not None and entry.sub.failed is None:
                    san.record_commit(
                        entry.sub.sid,
                        entry.node.nid,
                        entry.sub.values.get(entry.node.nid),
                    )
        if self._pending_failures:
            # Raised only after the whole batch committed, so every
            # thread claimed this round is accounted for and the
            # simulator stays consistent (and reusable).
            raise self._pending_failures.popleft()

    def _collect_dispatches(self) -> list[_PendingDispatch]:
        """Claim every runnable (submission, node, thread) triple.

        Thread acquisition and the per-submission running count advance
        here so the collection order is exactly the order the serial
        engine dispatched in; evaluation and all remaining bookkeeping
        are deferred to :meth:`_commit_dispatch`.
        """
        batch: list[_PendingDispatch] = []
        progress = True
        while progress:
            progress = False
            for sub in self._queue:
                if not sub.ready or sub.running >= sub.max_threads:
                    continue
                thread = self.machine.pick_thread()
                if thread is None:
                    return batch
                node = sub.ready.popleft()
                self.machine.acquire(thread)
                sub.running += 1
                entry = _PendingDispatch(sub, node, thread)
                if self.faults is not None:
                    # Drawn here, in collection order: the fault
                    # schedule is a pure function of simulated dispatch
                    # order.
                    entry.fault = self.faults.draw_dispatch(
                        sid=sub.sid,
                        nid=sub.skeleton.node_index[node.nid],
                        client=sub.client,
                        now=self.now,
                    )
                batch.append(entry)
                progress = True
        return batch

    def _evaluate_batch(
        self, batch: list[_PendingDispatch]
    ) -> list[tuple[Intermediate, WorkProfile]]:
        """Run the real operator work for a collected batch.

        With memoization on, each entry is first resolved against the
        cache without touching its counters (``peek``): already-cached
        nodes carry the peeked value, and same-batch duplicates (clones
        with equal fingerprints) share one evaluation -- the commit
        phase replays the exact hit/miss sequence the serial engine
        produces.  The remaining unique jobs run in order, each settled
        so a raising kernel cannot abort its siblings.
        """
        memo = self.memo
        jobs: list[Callable[[], tuple[Intermediate, WorkProfile]]] = []
        job_of_fp: dict[bytes, int] = {}
        for entry in batch:
            sub, node = entry.sub, entry.node
            fault = entry.fault
            if fault is not None and fault.kind is FaultKind.OPERATOR_EXCEPTION:
                # The operator will be killed at commit; evaluating it
                # would only waste host work.
                continue
            if memo is not None:
                fingerprint = sub.skeleton.fingerprints[node.nid]
                entry.fingerprint = fingerprint
                peeked = memo.peek(fingerprint)
                if peeked is not None:
                    entry.peeked = peeked
                    continue
                shared = job_of_fp.get(fingerprint)
                if shared is not None:
                    entry.job_index = shared
                    continue
                job_of_fp[fingerprint] = len(jobs)
            entry.job_index = len(jobs)
            inputs = [sub.values[child.nid] for child in node.inputs]
            jobs.append(settle_job(_make_eval_job(node.op, inputs)))
        obs = self.observe
        if obs is not None and jobs:
            # The job list is a pure function of dispatch order and memo
            # state, so this event and these counters are canonical.
            obs.tracer.event("eval_batch", "pool", self.now, jobs=len(jobs))
            obs.metrics.counter(
                "repro_eval_batches_total", "operator evaluation batches"
            ).inc()
            obs.metrics.counter(
                "repro_eval_jobs_total", "real operator evaluations"
            ).inc(len(jobs))
        return [job() for job in jobs]

    def _commit_dispatch(
        self,
        entry: _PendingDispatch,
        results: list[tuple[Intermediate, WorkProfile]],
    ) -> None:
        """Turn one evaluated dispatch into a running simulated task.

        Runs in collection order -- the barrier that keeps memo
        counters, noise draws, and simulated time independent of how
        the batch was evaluated.  Failures -- injected faults and genuine
        operator exceptions (settled into :class:`EvalFailure` slots by
        the evaluation phase) -- are resolved here too, in the same
        order, so "which submission died first" is deterministic.
        """
        sub, node, thread = entry.sub, entry.node, entry.thread
        if sub.failed is not None:
            # A same-batch entry already killed this submission; the
            # claimed thread is simply returned.
            self._drop_claim(sub, thread)
            return
        fault = entry.fault
        obs = self.observe
        if obs is not None and fault is not None:
            obs.tracer.event(
                fault.kind.value,
                "fault",
                self.now,
                parent=sub.span,
                node=sub.skeleton.node_index[node.nid],
                magnitude=fault.magnitude,
            )
        if fault is not None and fault.kind is FaultKind.OPERATOR_EXCEPTION:
            assert self.faults is not None
            error = self.faults.error_for(
                sid=sub.sid, nid=sub.skeleton.node_index[node.nid], now=self.now
            )
            self._fail_submission(sub, thread, error)
            return
        memo = self.memo
        if memo is not None:
            fingerprint = entry.fingerprint
            assert fingerprint is not None
            cached = memo.get(fingerprint)
            if cached is not None:
                # Equal fingerprint == bit-identical value and counters;
                # the real evaluate/work_profile calls were skipped.
                output, profile = cached
                if obs is not None:
                    obs.metrics.counter(
                        "repro_memo_hits_total", "memo cache hits"
                    ).inc()
            else:
                # First committer of this fingerprint (or a peeked entry
                # whose value a same-batch commit just evicted).
                if entry.job_index >= 0:
                    settled = results[entry.job_index]
                else:
                    peeked = entry.peeked
                    assert peeked is not None
                    settled = peeked
                if isinstance(settled, EvalFailure):
                    self._fail_submission(sub, thread, settled.error)
                    return
                output, profile = settled
                evicted = memo.put(fingerprint, output, profile)
                if obs is not None:
                    obs.metrics.counter(
                        "repro_memo_misses_total", "memo cache misses"
                    ).inc()
                    obs.metrics.counter(
                        "repro_memo_insertions_total", "memo cache insertions"
                    ).inc()
                    if evicted:
                        obs.metrics.counter(
                            "repro_memo_evictions_total", "memo cache evictions"
                        ).inc(evicted)
                        obs.tracer.event(
                            "evict", "memo", self.now, count=evicted
                        )
        else:
            settled = results[entry.job_index]
            if isinstance(settled, EvalFailure):
                self._fail_submission(sub, thread, settled.error)
                return
            output, profile = settled
        sub.values[node.nid] = output
        amortize = False
        if node.kind in ("join", "semijoin") and len(node.inputs) == 2:
            built = self._hash_built.setdefault(sub.sid, set())
            inner_nid = node.inputs[1].nid
            amortize = inner_nid in built
            built.add(inner_nid)
        work = compute_work(
            node.kind, profile, self.cost_ctx, amortize_build=amortize
        )
        self._last_profiles[(sub.sid, node.nid)] = profile
        # Memory claims: the new intermediate is now live.
        sub.live_bytes += intermediate_nbytes(output) * self.config.data_scale
        if sub.live_bytes > sub.profile.peak_memory_bytes:
            sub.profile.peak_memory_bytes = sub.live_bytes
        factor = self.noise.factor()
        mem_extra = 1.0
        if fault is not None:
            # Timing-only faults: the operator's *result* is untouched,
            # only its simulated duration grows.
            if fault.kind is FaultKind.STRAGGLER:
                factor *= fault.magnitude
            elif fault.kind is FaultKind.MEM_PRESSURE:
                mem_extra = fault.magnitude
        remote = False
        if not self.config.machine.numa_first_touch and node.inputs:
            # Strict NUMA: reading inputs homed on another socket is slow.
            homes_of_sub = self._home_socket.get(sub.sid)
            if homes_of_sub is None:
                homes_of_sub = {}
            homes = [
                homes_of_sub.get(child.nid, thread.socket_id)
                for child in node.inputs
            ]
            remote_count = sum(1 for h in homes if h != thread.socket_id)
            remote = remote_count * 2 > len(homes)
        # The thread was acquired (and ``sub.running`` advanced) at
        # collection time so the placement policy saw it as busy.
        self._start_task(
            sub,
            node,
            thread,
            max(work.cpu_cycles * factor, 1.0),
            max(work.mem_bytes * factor * mem_extra, 0.0),
            remote,
        )

    def _start_task(
        self,
        sub: _Submission,
        node: PlanNode,
        thread: HardwareThread,
        cpu_work: float,
        mem_work: float,
        remote: bool,
    ) -> _Task:
        """Put a committed operator on its (already acquired) thread."""
        task = _Task(
            sub,
            node,
            thread,
            cpu_work,
            mem_work,
            self.now,
            self._remote_factor if remote else 1.0,
        )
        task.index = len(self._tasks)
        self._tasks.append(task)
        if task.mem_active:
            self._socket_mem_demand[task.socket] += 1
        return task

    # ------------------------------------------------------------------
    # Submission failure
    # ------------------------------------------------------------------
    def _drop_claim(self, sub: _Submission, thread: HardwareThread) -> None:
        """Return a collected-but-uncommitted dispatch's thread."""
        self.machine.release(thread)
        sub.running -= 1
        if sub.failed is not None and sub.running == 0:
            self._settle_failed(sub)

    def _fail_submission(
        self, sub: _Submission, thread: HardwareThread, error: Exception
    ) -> None:
        """Kill ``sub``: drop its pending work, keep the machine sane.

        In-flight simulated tasks of the submission are left to finish
        (their threads are released on completion, results discarded);
        once the last one drains, the failure is settled -- delivered to
        the ``on_failure`` handler or queued for :meth:`run` to raise.
        """
        sub.failed = error
        if sub in self._queue:
            self._queue.remove(sub)
        sub.ready.clear()
        self._drop_claim(sub, thread)

    def _settle_failed(self, sub: _Submission) -> None:
        """Final bookkeeping once a failed submission has fully drained."""
        sub.profile.finish_time = self.now
        self._hash_built.pop(sub.sid, None)
        self._home_socket.pop(sub.sid, None)
        error = sub.failed
        assert error is not None
        obs = self.observe
        if obs is not None and sub.span is not None:
            obs.tracer.end(
                sub.span, self.now, failed=True, error=type(error).__name__
            )
            obs.metrics.counter(
                "repro_submissions_failed_total", "submissions killed by a failure"
            ).inc()
        on_failure = sub.on_failure
        sub.values = {}
        sub.live_bytes = 0.0
        sub.release_bookkeeping()
        if on_failure is not None:
            on_failure(sub.sid, error)
        else:
            self._pending_failures.append(error)

    # ------------------------------------------------------------------
    # Time advance
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Step simulated time to the next task completion or timer.

        The innermost simulator loop, run once per event over every
        running task of both simulators.  Per event it computes one
        bandwidth share per socket; per task, it reads the cpu rate of
        the task's core (:attr:`MachineState.core_rate`, derived from the
        same definition :meth:`MachineState.compute_rate` uses) and
        derives a memory rate and -- for cluster transfers -- a NIC rate
        behind the link latency.  A task finishes when all its works are
        drained.
        """
        tasks = self._tasks
        core_rate = self.machine.core_rate
        thread_cap = self._thread_cap
        socket_bw = self._socket_bw
        socket_demand = self._socket_mem_demand
        # A socket's sustained bandwidth splits evenly over its
        # memory-bound tasks, each capped at what one thread can draw.
        socket_rate = []
        for n_mem in socket_demand:
            share = socket_bw / n_mem if n_mem else thread_cap
            socket_rate.append(thread_cap if thread_cap < share else share)
        link_bw = self._link_bw
        link_demand = self._link_demand
        eps = _EPS

        dt = math.inf
        for task in tasks:
            cpu_rate = task.cpu_rate = core_rate[task.core]
            mem_rate = task.mem_rate = socket_rate[task.socket] * task.mem_scale
            rem = task.cpu_rem
            horizon = rem / cpu_rate if rem > eps else 0.0
            rem = task.mem_rem
            if rem > eps:
                mem_t = rem / mem_rate
                if mem_t > horizon:
                    horizon = mem_t
            if task.net_active:
                net_rate = task.net_rate = link_bw / link_demand[task.link]
                rem = task.net_rem
                net_t = task.lat_rem + (rem / net_rate if rem > eps else 0.0)
                if net_t > horizon:
                    horizon = net_t
            task.finish = horizon
            if horizon < dt:
                dt = horizon
        timers = self._timers
        if timers:
            # Never step past a timer deadline: the callback (a backoff
            # retry, a client timeout) must observe the machine at its
            # scheduled instant.
            window = timers[0][0] - self.now
            if window < dt:
                dt = window if window > 0.0 else 0.0
        self.now += dt
        completed = []
        deadline = dt + eps
        for task in tasks:
            if task.finish <= deadline:
                task.cpu_rem = 0.0
                task.mem_rem = 0.0
                if task.mem_active:
                    task.mem_active = False
                    socket_demand[task.socket] -= 1
                if task.net_active:
                    task.lat_rem = 0.0
                    task.net_rem = 0.0
                    task.net_active = False
                    link_demand[task.link] -= 1
                completed.append(task)
                continue
            # A drained work stays 0.0 (and off its socket's demand).
            rem = task.cpu_rem
            if rem:
                rem -= dt * task.cpu_rate
                task.cpu_rem = rem if rem > 0.0 else 0.0
            rem = task.mem_rem
            if rem:
                rem -= dt * task.mem_rate
                task.mem_rem = rem if rem > 0.0 else 0.0
                if rem <= eps and task.mem_active:
                    task.mem_active = False
                    socket_demand[task.socket] -= 1
            if task.net_active:
                lat = task.lat_rem
                if dt <= lat:
                    # Still inside the latency window: no bytes flowed.
                    task.lat_rem = lat - dt
                else:
                    task.lat_rem = 0.0
                    rem = task.net_rem - (dt - lat) * task.net_rate
                    task.net_rem = rem if rem > 0.0 else 0.0
                if task.lat_rem <= eps and task.net_rem <= eps:
                    task.net_active = False
                    link_demand[task.link] -= 1
        for task in completed:
            self._complete(task)

    def _remove_task(self, task: _Task) -> None:
        """O(1) removal: swap the last running task into ``task``'s slot."""
        tasks = self._tasks
        last = tasks.pop()
        if last is not task:
            tasks[task.index] = last
            last.index = task.index
        task.index = -1

    def _complete(self, task: _Task) -> None:
        self._remove_task(task)
        self.machine.release(task.thread)
        sub = task.submission
        if sub.failed is not None:
            # A task of an already-failed submission draining out: no
            # consumers to wake, no profile to record.
            self._last_profiles.pop((sub.sid, task.node.nid), None)
            sub.running -= 1
            if sub.running == 0:
                self._settle_failed(sub)
            return
        if not self.config.machine.numa_first_touch:
            self._home_socket.setdefault(sub.sid, {})[task.node.nid] = (
                task.thread.socket_id
            )
        sub.running -= 1
        sub.remaining -= 1
        node = task.node
        wp = self._last_profiles.pop((sub.sid, node.nid))
        sub.profile.records.append(
            OpRecord(
                node=node,
                kind=node.kind,
                describe=node.describe(),
                start=task.start,
                end=self.now,
                thread_id=task.thread.thread_id,
                socket_id=task.thread.socket_id,
                cpu_cycles=task.cpu_work,
                mem_bytes=task.mem_work,
                tuples_in=wp.tuples_in,
                tuples_out=wp.tuples_out,
            )
        )
        obs = self.observe
        if obs is not None:
            # One task span per OpRecord, same interval and affiliation
            # -- the 1:1 mapping the golden-trace suite asserts.
            obs.tracer.add(
                node.kind,
                "task",
                task.start,
                self.now,
                parent=sub.span,
                op=node.describe(),
                thread=task.thread.thread_id,
                socket=task.thread.socket_id,
                cpu_cycles=task.cpu_work,
                mem_bytes=task.mem_work,
                tuples_in=wp.tuples_in,
                tuples_out=wp.tuples_out,
                **self._task_span_attrs(task),
            )
            duration = self.now - task.start
            obs.metrics.counter(
                "repro_tasks_total", "completed operator tasks", kind=node.kind
            ).inc()
            obs.metrics.counter(
                "repro_task_sim_seconds_total",
                "simulated seconds by operator kind",
                kind=node.kind,
            ).inc(duration)
            obs.metrics.histogram(
                "repro_task_sim_seconds", help="simulated task durations"
            ).observe(duration)
        # Wake up consumers whose inputs are now complete.
        for consumer in sub.skeleton.consumers.get(node.nid, ()):
            sub.waiting[consumer.nid] -= 1
            if sub.waiting[consumer.nid] == 0:
                sub.ready.append(consumer)
        self._release_value(sub, node)
        if sub.finished:
            sub.profile.finish_time = self.now
            self._queue.remove(sub)
            self._hash_built.pop(sub.sid, None)
            self._home_socket.pop(sub.sid, None)
            sub.release_bookkeeping()
            if obs is not None and sub.span is not None:
                obs.tracer.end(sub.span, self.now)
                obs.metrics.counter(
                    "repro_submissions_completed_total", "submissions that finished"
                ).inc()
            if sub.on_complete is not None:
                sub.on_complete(sub.sid)

    def _task_span_attrs(self, task: _Task) -> dict:
        """Extra attributes for a completed task's span.

        The base simulator adds none, keeping single-machine traces
        byte-stable; the cluster simulator overrides this to stamp the
        node dimension on multi-node runs.
        """
        return {}

    def _release_value(self, sub: _Submission, node: PlanNode) -> None:
        # Free input intermediates once their last consumer has finished.
        is_output = sub.skeleton.is_output
        for child in node.inputs:
            sub.pending_consumers[child.nid] -= 1
            if sub.pending_consumers[child.nid] == 0 and child.nid not in is_output:
                freed = sub.values.pop(child.nid, None)
                if freed is not None:
                    sub.live_bytes -= (
                        intermediate_nbytes(freed) * self.config.data_scale
                    )
