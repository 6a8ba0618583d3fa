"""Differential test of the simulator's event loop against a frozen reference.

``Simulator._advance`` is the one rate loop of both simulators: cpu at the
core's hyperthread-aware rate, memory at the socket's bandwidth share (with
the strict-NUMA remote penalty), and -- on a cluster -- a network lane that
waits out the link latency and then shares the destination NIC.  Simulated
results must not move when that loop is optimised, so this file keeps the
two loops it replaced verbatim (the single-machine loop and the cluster's
network-aware copy) and drives both implementations with the same
generated task mixes.  After every event the simulated clock, every running
task's remaining cpu, memory, latency and network work, and the completion
order must agree bit for bit (compared as ``float.hex``).
"""

from __future__ import annotations

import heapq
from dataclasses import replace

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.spec import ClusterSpec, LinkSpec
from repro.config import SimulationConfig, laptop_machine, two_socket_machine
from repro.engine.machine import MachineState
from repro.engine.scheduler import _EPS, Simulator


class _RefTask:
    """The running-task fields the reference loops read and write."""

    __slots__ = (
        "key", "thread", "cpu_rem", "mem_rem", "remote", "mem_active",
        "net_rem", "lat_rem", "link", "net_active", "index",
    )

    def __init__(self, key, thread, cpu_work, mem_work, remote):
        self.key = key
        self.thread = thread
        self.cpu_rem = cpu_work
        self.mem_rem = mem_work
        self.remote = remote
        self.mem_active = mem_work > _EPS
        self.net_rem = 0.0
        self.lat_rem = 0.0
        self.link = -1
        self.net_active = False
        self.index = -1


class _Reference:
    """The event loops before they were merged, kept verbatim.

    ``_base_advance`` is the single-machine ``Simulator._advance`` and
    ``_advance`` the cluster's network-aware override, which fell back to
    it while no transfer was in flight.
    """

    def __init__(self, sim: Simulator, cluster: ClusterSpec | None) -> None:
        self.config = sim.config
        self.cluster = cluster
        self.machine = MachineState(sim.config.machine)
        self._thread_cap = sim._thread_cap
        self._socket_mem_demand: dict[int, int] = {}
        self._link_demand: dict[int, int] = {}
        self._net_count = 0
        self._tasks: list[_RefTask] = []
        self._timers: list[tuple[float, int]] = []
        self.now = 0.0
        self.completed: list[int] = []

    # -- harness ---------------------------------------------------------
    def start(self, key, thread_id, cpu_work, mem_work, remote, net):
        thread = self.machine.threads[thread_id]
        self.machine.acquire(thread)
        task = _RefTask(key, thread, cpu_work, mem_work, remote)
        task.index = len(self._tasks)
        self._tasks.append(task)
        if task.mem_active:
            demand = self._socket_mem_demand
            socket = thread.socket_id
            demand[socket] = demand.get(socket, 0) + 1
        if net is not None:
            wire, dst = net
            task.net_rem = wire
            task.lat_rem = self.cluster.link.latency_s
            task.link = dst
            task.net_active = True
            self._link_demand[dst] = self._link_demand.get(dst, 0) + 1
            self._net_count += 1

    def fire_timers(self):
        while self._timers and self._timers[0][0] <= self.now + _EPS:
            heapq.heappop(self._timers)

    def _complete(self, task):
        tasks = self._tasks
        last = tasks.pop()
        if last is not task:
            tasks[task.index] = last
            last.index = task.index
        task.index = -1
        self.machine.release(task.thread)
        self.completed.append(task.key)

    # -- the frozen loops ------------------------------------------------
    def _deactivate_mem(self, task):
        task.mem_active = False
        demand = self._socket_mem_demand
        socket = task.thread.socket_id
        left = demand[socket] - 1
        if left:
            demand[socket] = left
        else:
            del demand[socket]

    def _deactivate_net(self, task):
        task.net_active = False
        self._net_count -= 1
        demand = self._link_demand
        left = demand[task.link] - 1
        if left:
            demand[task.link] = left
        else:
            del demand[task.link]

    def _base_advance(self):
        tasks = self._tasks
        spec = self.config.machine
        core_busy = self.machine._core_busy
        full_rate = spec.cycles_per_second
        ht_rate = full_rate * (spec.hyperthread_yield / 2.0)
        socket_demand = self._socket_mem_demand
        socket_bw = spec.mem_bandwidth_gbps * 1e9
        thread_cap = self._thread_cap
        remote_factor = spec.numa_remote_factor

        cpu_rates = []
        mem_rates = []
        finish_in = []
        dt = None
        for task in tasks:
            thread = task.thread
            cpu_rate = full_rate if core_busy[thread.core_id] == 1 else ht_rate
            n_mem = socket_demand.get(thread.socket_id, 0)
            if n_mem > 0:
                mem_rate = socket_bw / n_mem
                if thread_cap < mem_rate:
                    mem_rate = thread_cap
            else:
                mem_rate = thread_cap
            if task.remote:
                mem_rate *= remote_factor
            cpu_t = task.cpu_rem / cpu_rate if task.cpu_rem > _EPS else 0.0
            mem_t = task.mem_rem / mem_rate if task.mem_rem > _EPS else 0.0
            horizon = cpu_t if cpu_t > mem_t else mem_t
            cpu_rates.append(cpu_rate)
            mem_rates.append(mem_rate)
            finish_in.append(horizon)
            if dt is None or horizon < dt:
                dt = horizon
        if self._timers:
            window = self._timers[0][0] - self.now
            if window < dt:
                dt = window if window > 0.0 else 0.0
        self.now += dt
        completed = []
        deadline = dt + _EPS
        for i, task in enumerate(tasks):
            cpu_rem = task.cpu_rem - dt * cpu_rates[i]
            mem_rem = task.mem_rem - dt * mem_rates[i]
            if finish_in[i] <= deadline:
                cpu_rem = 0.0
                mem_rem = 0.0
                completed.append(task)
            task.cpu_rem = cpu_rem if cpu_rem > 0.0 else 0.0
            task.mem_rem = mem_rem if mem_rem > 0.0 else 0.0
            if task.mem_active and mem_rem <= _EPS:
                self._deactivate_mem(task)
        for task in completed:
            self._complete(task)

    def _advance(self):
        if self._net_count == 0:
            self._base_advance()
            return
        tasks = self._tasks
        spec = self.config.machine
        core_busy = self.machine._core_busy
        full_rate = spec.cycles_per_second
        ht_rate = full_rate * (spec.hyperthread_yield / 2.0)
        socket_demand = self._socket_mem_demand
        socket_bw = spec.mem_bandwidth_gbps * 1e9
        thread_cap = self._thread_cap
        remote_factor = spec.numa_remote_factor
        link_bw = self.cluster.link.bandwidth_gbps * 1e9
        link_demand = self._link_demand

        cpu_rates = []
        mem_rates = []
        net_rates = []
        finish_in = []
        dt = None
        for task in tasks:
            thread = task.thread
            cpu_rate = full_rate if core_busy[thread.core_id] == 1 else ht_rate
            n_mem = socket_demand.get(thread.socket_id, 0)
            if n_mem > 0:
                mem_rate = socket_bw / n_mem
                if thread_cap < mem_rate:
                    mem_rate = thread_cap
            else:
                mem_rate = thread_cap
            if task.remote:
                mem_rate *= remote_factor
            cpu_t = task.cpu_rem / cpu_rate if task.cpu_rem > _EPS else 0.0
            mem_t = task.mem_rem / mem_rate if task.mem_rem > _EPS else 0.0
            horizon = cpu_t if cpu_t > mem_t else mem_t
            if task.net_active:
                net_rate = link_bw / link_demand[task.link]
                net_t = task.lat_rem + (
                    task.net_rem / net_rate if task.net_rem > _EPS else 0.0
                )
                if net_t > horizon:
                    horizon = net_t
            else:
                net_rate = 0.0
            cpu_rates.append(cpu_rate)
            mem_rates.append(mem_rate)
            net_rates.append(net_rate)
            finish_in.append(horizon)
            if dt is None or horizon < dt:
                dt = horizon
        if self._timers:
            window = self._timers[0][0] - self.now
            if window < dt:
                dt = window if window > 0.0 else 0.0
        self.now += dt
        completed = []
        deadline = dt + _EPS
        for i, task in enumerate(tasks):
            done = finish_in[i] <= deadline
            cpu_rem = task.cpu_rem - dt * cpu_rates[i]
            mem_rem = task.mem_rem - dt * mem_rates[i]
            if done:
                cpu_rem = 0.0
                mem_rem = 0.0
                completed.append(task)
            task.cpu_rem = cpu_rem if cpu_rem > 0.0 else 0.0
            task.mem_rem = mem_rem if mem_rem > 0.0 else 0.0
            if task.mem_active and mem_rem <= _EPS:
                self._deactivate_mem(task)
            if task.net_active:
                if done:
                    task.lat_rem = 0.0
                    task.net_rem = 0.0
                elif dt <= task.lat_rem:
                    task.lat_rem -= dt
                else:
                    spill = dt - task.lat_rem
                    task.lat_rem = 0.0
                    net_rem = task.net_rem - spill * net_rates[i]
                    task.net_rem = net_rem if net_rem > 0.0 else 0.0
                if done or (
                    task.lat_rem <= _EPS and task.net_rem <= _EPS
                ):
                    self._deactivate_net(task)
        for task in completed:
            self._complete(task)


# ----------------------------------------------------------------------
# the implementation under test, stripped to its loop
# ----------------------------------------------------------------------
def _build(cluster_mode: bool, strict_numa: bool):
    # Eight threads per socket: enough memory-bound tasks to split a
    # socket's bandwidth below the per-thread cap, few enough cores that
    # the generated mixes reach hyperthread siblings.
    if cluster_mode:
        node = replace(laptop_machine(8), numa_first_touch=not strict_numa)
        cluster = ClusterSpec(
            node=node, nodes=2, link=LinkSpec(latency_s=2e-4, bandwidth_gbps=0.5)
        )
        sim = ClusterSimulator(cluster, SimulationConfig(machine=node))
    else:
        cluster = None
        machine = replace(
            two_socket_machine(), cores_per_socket=4, numa_first_touch=not strict_numa
        )
        sim = Simulator(SimulationConfig(machine=machine))
    completed: list[int] = []

    def complete(task):  # the loop's callback, minus plan bookkeeping
        sim._remove_task(task)
        sim.machine.release(task.thread)
        completed.append(task.node)

    sim._complete = complete
    return sim, _Reference(sim, cluster), completed


# Mostly memory-bound work, so sockets split their bandwidth; some
# tasks have none, or a sliver at the deactivation threshold.
mem_work = st.one_of(
    st.floats(1e5, 1e9),
    st.floats(1e5, 1e9),
    st.floats(1e5, 1e9),
    st.sampled_from([0.0, _EPS / 2, 1.5 * _EPS]),
)
task_spec = st.tuples(
    st.floats(1.0, 5e7),  # cpu cycles
    mem_work,  # memory bytes
    st.sampled_from([1.0, 1.0, 2.5, 7.0]),  # STRAGGLER magnitude
    st.sampled_from([1.0, 1.0, 3.0]),  # MEM_PRESSURE magnitude
    st.booleans(),  # remote (used under strict NUMA)
    st.one_of(st.none(), st.floats(1e2, 5e6)),  # wire bytes (cluster only)
    st.integers(0, 1),  # destination node
    st.integers(0, 3),  # arrival wave
)
#: Sixteen tasks at once: every socket saturated, every sibling busy, and
#: transfers both inside and past the link latency.
SATURATED = [
    (
        1e6 * (k + 1),
        5e7 * (k % 3 + 1),
        1.0,
        1.0,
        k % 2 == 0,
        1e6 * (k + 1) if k % 3 else None,
        k % 2,
        0,
    )
    for k in range(16)
]


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    cluster_mode=st.booleans(),
    strict_numa=st.booleans(),
    tasks=st.lists(task_spec, min_size=1, max_size=28),
    timers=st.lists(st.floats(0.0, 2e-2), max_size=6),
)
@example(cluster_mode=False, strict_numa=True, tasks=SATURATED, timers=[1e-4])
@example(
    cluster_mode=True, strict_numa=False, tasks=SATURATED, timers=[1e-4, 3e-4, 1e-3]
)
def test_loop_matches_frozen_reference(cluster_mode, strict_numa, tasks, timers):
    sim, ref, completed = _build(cluster_mode, strict_numa)
    for when in timers:
        sim.schedule_at(when, lambda: None)
        heapq.heappush(ref._timers, (when, len(ref._timers)))
    waves: dict[int, list] = {}
    for key, spec in enumerate(tasks):
        waves.setdefault(spec[-1], []).append((key, spec))
    live: dict[int, object] = {}
    wave = 0
    events = 0
    while True:
        for key, (cpu, mem, straggler, pressure, remote, wire, dst, __) in (
            waves.pop(wave, [])
        ):
            thread = sim.machine.pick_thread()
            if thread is None:
                continue  # machine full: this task never arrives
            sim.machine.acquire(thread)
            # As a commit scales work under STRAGGLER / MEM_PRESSURE.
            cpu_work = max(cpu * straggler, 1.0)
            mem_work = max(mem * straggler * pressure, 0.0)
            remote = remote and strict_numa
            task = sim._start_task(None, key, thread, cpu_work, mem_work, remote)
            net = None
            if cluster_mode and wire is not None:
                net = (wire * straggler, dst)
                sim._start_transfer(task, *net)
            ref.start(key, thread.thread_id, cpu_work, mem_work, remote, net)
            live[key] = task
        wave += 1
        sim._fire_timers()
        ref.fire_timers()
        if not sim._tasks and not waves:
            break
        assert len(sim._tasks) == len(ref._tasks)
        if not sim._tasks:
            continue
        sim._advance()
        ref._advance()
        events += 1
        assert events < 10_000
        assert sim.now.hex() == ref.now.hex()
        assert completed == ref.completed
        for ref_task in ref._tasks:
            task = live[ref_task.key]
            assert task.index >= 0
            assert task.cpu_rem.hex() == ref_task.cpu_rem.hex()
            assert task.mem_rem.hex() == ref_task.mem_rem.hex()
            assert task.lat_rem.hex() == ref_task.lat_rem.hex()
            assert task.net_rem.hex() == ref_task.net_rem.hex()
            assert task.mem_active == ref_task.mem_active
            assert task.net_active == ref_task.net_active
    assert not ref._tasks
    assert sorted(completed) == sorted(live)
    assert all(n == 0 for n in sim._socket_mem_demand)
    assert all(n == 0 for n in sim._link_demand)


def test_loop_cpu_rates_are_compute_rate():
    """The loop's per-task cpu rate is what ``compute_rate`` reports."""
    sim, __, __ = _build(cluster_mode=False, strict_numa=False)
    machine = sim.machine
    threads = machine.threads[:3]  # two siblings of core 0, one of core 1
    for thread in threads:
        machine.acquire(thread)
        sim._start_task(None, thread.thread_id, thread, 1e6, 0.0, False)
    sim.schedule_at(1e-9, lambda: None)  # clip the step: nothing finishes
    sim._advance()
    assert len(sim._tasks) == 3
    for task in sim._tasks:
        assert task.cpu_rate == machine.compute_rate(task.thread)
    assert {task.cpu_rate for task in sim._tasks} == {
        machine.solo_rate, machine.shared_rate
    }
