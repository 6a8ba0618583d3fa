"""Runtime mutation sanitizer: checksums, commit order, dual-run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.certificates import certify_type
from repro.analysis.sanitize import (
    Sanitizer,
    checksum_intermediate,
    verify_dual_run,
)
from repro.config import SimulationConfig, laptop_machine
from repro.engine import execute
from repro.errors import SanitizerError
from repro.operators import Aggregate, RangePredicate, Scan, Select
from repro.operators.base import Operator, WorkProfile
from repro.plan import Plan, PlanBuilder
from repro.storage import BAT, LNG, Candidates, Column, Scalar


@pytest.fixture()
def config() -> SimulationConfig:
    return SimulationConfig(machine=laptop_machine(4), data_scale=10.0)


class ArraySource(Operator):
    """Materializes a fresh *writable* BAT (column buffers are read-only,
    so mutation tests need an intermediate a kernel could write)."""

    kind = "array_source"

    def __init__(self, values: np.ndarray) -> None:
        super().__init__()
        self.base = np.asarray(values, dtype=np.int64)

    def evaluate(self, inputs):
        tail = np.array(self.base)
        return BAT(np.arange(len(tail)), tail, LNG)

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_out=len(self.base))


class SneakyMutator(Operator):
    """Mutates its input through ``np.add.at`` -- a ufunc-method spelling
    the AST taint pass cannot classify, so it *certifies pure*.  Exactly
    the kernel the runtime sanitizer exists to catch."""

    kind = "sneaky_mutator"

    def evaluate(self, inputs):
        bat = inputs[0]
        np.add.at(bat.tail, 0, 1)
        return Scalar(int(bat.tail.sum()), LNG)

    def work_profile(self, inputs, output) -> WorkProfile:
        return WorkProfile(tuples_in=len(inputs[0]), tuples_out=1)


def sneaky_plan(n: int = 64) -> Plan:
    plan = Plan()
    src = plan.add(ArraySource(np.arange(n)))
    plan.set_outputs([plan.add(SneakyMutator(), [src])])
    return plan


def clean_plan(catalog) -> Plan:
    builder = PlanBuilder(catalog)
    sel = builder.select(builder.scan("facts", "val"), RangePredicate(hi=500))
    return builder.build(builder.aggregate("count", sel))


class TestChecksums:
    def test_none_checksums_to_zero(self):
        assert checksum_intermediate(None) == 0

    def test_array_checksum_tracks_content(self):
        a = np.arange(10)
        b = np.arange(10)
        assert checksum_intermediate(a) == checksum_intermediate(b)
        b = b.copy()
        b[3] = 99
        assert checksum_intermediate(a) != checksum_intermediate(b)

    def test_column_slice_covers_base_buffer(self):
        backing = np.arange(100, dtype=np.int64)
        col = Column("v", LNG, backing.copy())
        view = col.slice(10, 20)
        before = checksum_intermediate(view)
        # Mutate the base buffer *inside the slice window* through the
        # storage-side escape hatch; the slice checksum must change.
        col.values.setflags(write=True)
        try:
            col.values[15] = -1
        finally:
            col.values.setflags(write=False)
        assert checksum_intermediate(view) != before

    def test_slices_with_same_values_but_different_window_differ(self):
        col = Column("v", LNG, np.zeros(100, dtype=np.int64))
        assert checksum_intermediate(col.slice(0, 10)) != checksum_intermediate(
            col.slice(10, 20)
        )

    def test_candidates_uniqueness_is_part_of_the_sum(self):
        oids = np.array([1, 2, 3], dtype=np.int64)
        a = Candidates(oids, check_sorted=False, unique=True)
        b = Candidates(oids, check_sorted=False, unique=None)
        assert checksum_intermediate(a) != checksum_intermediate(b)

    def test_bat_covers_head_and_tail(self):
        bat = BAT(np.arange(5), np.arange(5), LNG)
        moved = BAT(np.arange(1, 6), np.arange(5), LNG)
        assert checksum_intermediate(bat) != checksum_intermediate(moved)

    def test_scalar_dtype_matters(self):
        from repro.storage import DBL

        assert checksum_intermediate(Scalar(1, LNG)) != checksum_intermediate(
            Scalar(1.0, DBL)
        )


class TestCommitOrder:
    def test_strict_dispatch_order_passes(self):
        Sanitizer().check_commit_order([0, 1, 2], 3)

    def test_memo_peeks_are_skipped(self):
        Sanitizer().check_commit_order([-1, 0, -1, 1], 2)

    def test_same_batch_repeats_are_allowed(self):
        Sanitizer().check_commit_order([0, 0, 1, 2, 2], 3)

    def test_out_of_order_commit_raises(self):
        with pytest.raises(SanitizerError, match="commit barrier"):
            Sanitizer().check_commit_order([1, 0], 2)

    def test_unclaimed_results_raise(self):
        with pytest.raises(SanitizerError, match="commit barrier"):
            Sanitizer().check_commit_order([0], 2)


class TestInputImmutability:
    def test_verify_passes_when_inputs_untouched(self):
        sanitizer = Sanitizer()
        entries = [(0, 5, "Select", [(3, np.arange(10))])]
        snap = sanitizer.snapshot_inputs(entries)
        sanitizer.verify_inputs(snap, entries)

    def test_verify_names_the_mutated_input(self):
        sanitizer = Sanitizer()
        buf = np.arange(10)
        entries = [(0, 3, "Select", [(1, buf)])]
        snap = sanitizer.snapshot_inputs(entries)
        buf[0] = 99
        with pytest.raises(SanitizerError, match=r"Select\(nid=3\) input #0"):
            sanitizer.verify_inputs(snap, entries)

    def test_mutation_between_commit_and_use_is_caught(self):
        # The baseline is the *at-commit* checksum, so a buffer mutated
        # in any round between its commit and its use is still caught.
        sanitizer = Sanitizer()
        buf = np.arange(10)
        sanitizer.record_commit(0, 1, buf)
        buf[0] = 99  # mutated while idle, before the consuming round
        entries = [(0, 3, "Select", [(1, buf)])]
        snap = sanitizer.snapshot_inputs(entries)
        with pytest.raises(SanitizerError, match="mutated a shared input"):
            sanitizer.verify_inputs(snap, entries)


class TestChecksumCaches:
    """At-commit checksums are cached (by object identity, and by
    ``(column uid, window)`` for read-only slices) so memoized re-commits
    do not re-read buffers; staleness is *detection*, never a miss."""

    def test_recommit_of_same_object_reuses_checksum(self):
        import repro.analysis.sanitize as S

        sanitizer = Sanitizer()
        bat = BAT(np.arange(8), np.arange(8), LNG)
        sanitizer.record_commit(0, 1, bat)
        assert S._OBJECT_CRC[id(bat)] == sanitizer._commit_crc[(0, 1)]
        sanitizer.record_commit(1, 4, bat)  # memo hit under a fresh sid
        assert sanitizer._commit_crc[(1, 4)] == sanitizer._commit_crc[(0, 1)]

    def test_object_cache_evicts_on_garbage_collection(self):
        import gc

        import repro.analysis.sanitize as S

        sanitizer = Sanitizer()
        bat = BAT(np.arange(8), np.arange(8), LNG)
        oid = id(bat)
        sanitizer.record_commit(0, 1, bat)
        assert oid in S._OBJECT_CRC
        del bat
        gc.collect()
        assert oid not in S._OBJECT_CRC

    def test_slice_cache_shares_checksum_across_fresh_slice_objects(self):
        import repro.analysis.sanitize as S

        col = Column("v", LNG, np.arange(50, dtype=np.int64))
        sanitizer = Sanitizer()
        sanitizer.record_commit(0, 1, col.slice(5, 15))
        key = (col.uid, 5, 15)
        assert key in S._SLICE_CRC
        # A brand-new slice object over the same window reuses it.
        sanitizer.record_commit(1, 2, col.slice(5, 15))
        assert sanitizer._commit_crc[(1, 2)] == S._SLICE_CRC[key]

    def test_stale_slice_baseline_flags_escape_hatch_mutations(self):
        # Mutating a read-only base buffer through setflags leaves the
        # cached baseline stale -- and the next verify read flags it.
        sanitizer = Sanitizer()
        col = Column("v", LNG, np.arange(50, dtype=np.int64))
        view = col.slice(0, 50)
        sanitizer.record_commit(0, 1, view)
        col.values.setflags(write=True)
        try:
            col.values[7] = -99
        finally:
            col.values.setflags(write=False)
        entries = [(0, 3, "Select", [(1, view)])]
        with pytest.raises(SanitizerError, match="mutated a shared input"):
            sanitizer.verify_round(entries)

    def test_slice_cache_clears_at_capacity(self, monkeypatch):
        import repro.analysis.sanitize as S

        monkeypatch.setattr(S, "_SLICE_CRC_LIMIT", 1)
        col = Column("v", LNG, np.arange(10, dtype=np.int64))
        sanitizer = Sanitizer()
        sanitizer.record_commit(0, 1, col.slice(0, 5))
        sanitizer.record_commit(0, 2, col.slice(5, 10))
        assert len(S._SLICE_CRC) == 1  # cleared wholesale, then refilled

    def test_writable_backed_slices_are_never_cached_by_window(self):
        import repro.analysis.sanitize as S

        col = Column("v", LNG, np.arange(10, dtype=np.int64))
        col.values.setflags(write=True)  # escape hatch left open
        try:
            Sanitizer().record_commit(0, 1, col.slice(0, 5))
            assert (col.uid, 0, 5) not in S._SLICE_CRC
        finally:
            col.values.setflags(write=False)


class TestSanitizedExecution:
    def test_sneaky_kernel_certifies_pure(self):
        # The premise of the runtime layer: this mutator is invisible to
        # the static pass (np.add.at), so it certifies pure...
        assert certify_type(SneakyMutator).pure

    def test_sanitizer_catches_the_mutation(self, config):
        # ...and the sanitizer catches it at run time.
        with pytest.raises(SanitizerError, match="mutated a shared input"):
            execute(sneaky_plan(), config, sanitize=True)

    def test_mutation_goes_unnoticed_without_sanitizer(self, config):
        result = execute(sneaky_plan(64), config)
        # sum(0..63) + 1 from the sneaky in-place increment.
        assert result.outputs[0].value == sum(range(64)) + 1

    def test_clean_plans_pass_clean(self, config, small_catalog):
        result = execute(clean_plan(small_catalog), config, sanitize=True)
        assert result.outputs[0].value > 0

    def test_env_var_enables_sanitizer(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(SanitizerError):
            execute(sneaky_plan(), config)

    def test_explicit_false_overrides_env(self, config, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        result = execute(sneaky_plan(64), config, sanitize=False)
        assert result.outputs[0].value == sum(range(64)) + 1


class TestDualRun:
    def test_clean_plan_has_repeatable_fingerprint(self, config, small_catalog):
        fp = verify_dual_run(clean_plan(small_catalog), config)
        assert len(fp) == 8
        int(fp, 16)  # well-formed hex

    def test_fingerprint_is_reproducible(self, config, small_catalog):
        # Fingerprints fold node ids, which are allocated globally, so
        # reproducibility is an invariant of one plan instance (rebuilt
        # or copied plans renumber and legitimately differ).
        plan = clean_plan(small_catalog)
        first = verify_dual_run(plan, config)
        second = verify_dual_run(plan, config)
        assert first == second

    def test_fingerprints_differ_across_plans(self, config, small_catalog):
        builder = PlanBuilder(small_catalog)
        other = builder.build(
            builder.aggregate("count", builder.scan("facts", "qty"))
        )
        assert verify_dual_run(clean_plan(small_catalog), config) != (
            verify_dual_run(other, config)
        )

    def test_stats_count_batches_and_commits(self, config, small_catalog):
        from repro.engine import Simulator

        sanitizer = Sanitizer()
        simulator = Simulator(config, sanitizer=sanitizer)
        sid = simulator.submit(clean_plan(small_catalog))
        simulator.run()
        simulator.result(sid)
        stats = sanitizer.stats()
        assert stats["batches_checked"] > 0
        assert stats["buffers_checked"] > 0
        assert stats["commits_recorded"] >= 3  # scan, select, aggregate
        assert stats["fingerprint"] == sanitizer.fingerprint


def test_scan_select_pipeline_cannot_mutate_base_columns(config):
    values = np.arange(500, dtype=np.int64)
    col = Column("v", LNG, values.copy())
    before = col.values.tobytes()
    plan = Plan()
    scan = plan.add(Scan(col))
    sel = plan.add(Select(RangePredicate(hi=250)), [scan])
    plan.set_outputs([plan.add(Aggregate("count"), [sel])])
    execute(plan, config, sanitize=True)
    assert col.values.tobytes() == before
