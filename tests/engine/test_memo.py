"""IntermediateCache bounds, LRU policy, counters, and engine reuse."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core import AdaptiveParallelizer, ConvergenceParams
from repro.engine import IntermediateCache, Simulator, execute
from repro.errors import ReproError
from repro.operators import Aggregate, Fetch, RangePredicate, Scan, Select
from repro.operators.base import WorkProfile
from repro.plan import Plan
from repro.storage import Column, LNG
from repro.storage.column import BAT, Scalar
from repro.workloads import JoinMicroWorkload, TpchDataset, q1_style_plan


def make_bat(n: int) -> BAT:
    return BAT(np.arange(n), np.arange(n), LNG)


def profile() -> WorkProfile:
    return WorkProfile(tuples_in=1, tuples_out=1)


class TestCachePolicy:
    def test_get_put_roundtrip(self):
        cache = IntermediateCache()
        value, prof = make_bat(8), profile()
        assert cache.get(b"k") is None
        cache.put(b"k", value, prof)
        hit = cache.get(b"k")
        assert hit is not None and hit[0] is value and hit[1] is prof

    def test_capacity_must_be_positive(self):
        with pytest.raises(ReproError):
            IntermediateCache(0)

    def test_lru_eviction_by_bytes(self):
        bat = make_bat(64)  # 64 * 16 = 1024 payload bytes
        cache = IntermediateCache(3 * (bat.nbytes + 200))
        for key in (b"a", b"b", b"c"):
            cache.put(key, make_bat(64), profile())
        cache.get(b"a")  # refresh: b becomes LRU
        cache.put(b"d", make_bat(64), profile())
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None
        assert cache.get(b"c") is not None
        assert cache.get(b"d") is not None
        assert cache.stats().evictions == 1

    def test_oversized_entry_refused(self):
        cache = IntermediateCache(256)
        cache.put(b"big", make_bat(1024), profile())
        assert len(cache) == 0
        assert cache.stats().oversized == 1
        assert cache.current_bytes == 0

    def test_replacement_does_not_leak_bytes(self):
        cache = IntermediateCache()
        cache.put(b"k", make_bat(64), profile())
        before = cache.current_bytes
        cache.put(b"k", make_bat(64), profile())
        assert cache.current_bytes == before
        assert len(cache) == 1

    def test_views_charged_overhead_only(self):
        """Scalars (and slices) are views/constants: caching them must
        not charge the underlying data bytes."""
        cache = IntermediateCache()
        cache.put(b"s", Scalar(1.5, LNG), profile())
        assert cache.current_bytes < 1024

    def test_clear_keeps_counters(self):
        cache = IntermediateCache()
        cache.put(b"k", make_bat(8), profile())
        cache.get(b"k")
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats().hits == 1 and cache.stats().insertions == 1

    def test_stats_hit_rate(self):
        cache = IntermediateCache()
        assert cache.stats().hit_rate == 0.0
        cache.put(b"k", make_bat(4), profile())
        cache.get(b"k")
        cache.get(b"missing")
        assert cache.stats().hit_rate == pytest.approx(0.5)
        as_dict = cache.stats().as_dict()
        assert as_dict["hits"] == 1 and as_dict["misses"] == 1


def small_plan() -> Plan:
    col = Column("v", LNG, np.arange(4_000) % 97)
    plan = Plan()
    scan = plan.add(Scan(col))
    sel = plan.add(Select(RangePredicate(hi=40)), [scan])
    fetch = plan.add(Fetch(), [sel, scan])
    agg = plan.add(Aggregate("sum"), [fetch])
    plan.set_outputs([agg])
    return plan


class TestThreadSafety:
    def test_concurrent_get_put_keeps_counters_consistent(self):
        """Hammer one cache from many threads; invariants must hold.

        The scheduler mutates the cache only on its commit path, but one
        cache may be shared by several host threads (the serving engine's
        thread and its callers), so its single lock must survive
        arbitrary interleaving.
        """
        import threading

        cache = IntermediateCache(capacity_bytes=64 * 1024)
        profile = WorkProfile(tuples_out=8)
        rounds = 200

        def worker(tid: int) -> None:
            for i in range(rounds):
                key = f"{tid % 3}:{i % 17}".encode()
                if cache.get(key) is None:
                    cache.put(key, make_bat(8), profile)
                cache.peek(key)
                len(cache)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * rounds
        # Every miss is followed by exactly one (small) put.
        assert stats.insertions == stats.misses
        assert stats.lookups == stats.hits + stats.misses


class TestEngineIntegration:
    def test_repeat_execution_hits_cache(self):
        config = SimulationConfig(seed=7)
        memo = IntermediateCache()
        plan = small_plan()
        execute(plan.copy(), config, memo=memo)
        first_misses = memo.stats().misses
        execute(plan.copy(), config, memo=memo)
        assert memo.stats().hits == first_misses  # every operator reused
        assert memo.stats().misses == first_misses

    def test_cached_results_identical(self):
        config = SimulationConfig(seed=7)
        plan = small_plan()
        plain = execute(plan.copy(), config)
        memo = IntermediateCache()
        execute(plan.copy(), config, memo=memo)
        warm = execute(plan.copy(), config, memo=memo)
        assert warm.response_time == plain.response_time
        assert warm.outputs[0].value == plain.outputs[0].value
        records = [
            (r.kind, r.start, r.end, r.thread_id) for r in plain.profile.records
        ]
        warm_records = [
            (r.kind, r.start, r.end, r.thread_id) for r in warm.profile.records
        ]
        assert records == warm_records

    def test_simulator_without_memo_skips_fingerprints(self):
        sim = Simulator(SimulationConfig(seed=7))
        sid = sim.submit(small_plan())
        sim.run()
        assert sim.result(sid).outputs  # plain path still works


def _q1_style_instance():
    dataset = TpchDataset(scale_factor=1)
    return q1_style_plan(dataset), dataset.sim_config(seed=29)


def _join_micro_instance():
    micro = JoinMicroWorkload(outer_mb=640, inner_mb=16)
    return micro.plan(), micro.sim_config(seed=31)


class TestHitRateFloor:
    @pytest.mark.parametrize(
        "build", [_q1_style_instance, _join_micro_instance],
        ids=["q1_style", "join_micro"],
    )
    def test_adaptive_instance_reuses_most_intermediates(self, build):
        """Consecutive AP runs share almost their whole plan, so most
        operator dispatches must be memo hits (82.4% on the Q1-style
        instance and 89.9% on the join micro; the counts are
        deterministic)."""
        plan, config = build()
        parallelizer = AdaptiveParallelizer(
            config,
            convergence=ConvergenceParams(
                number_of_cores=config.effective_threads, max_runs=60
            ),
            memoize=True,
        )
        result = parallelizer.optimize(plan)
        assert result.total_runs == 60
        assert parallelizer.memo.stats().hit_rate > 0.5
