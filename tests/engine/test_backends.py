"""Evaluation-pool sizing: ``default_workers``.

The workers determinism sweeps that used to live here were consolidated
into ``tests/integration/test_determinism_matrix.py``; the pool's own
unit tests live in ``tests/engine/test_evalpool.py``.
"""

from __future__ import annotations

from repro.engine.evalpool import _cgroup_cpu_limit, default_workers


class TestDefaultWorkers:
    """``default_workers`` respects affinity masks and cgroup quotas."""

    def test_positive_and_bounded_by_visible_cpus(self):
        import os

        count = default_workers()
        assert count >= 1
        if hasattr(os, "sched_getaffinity"):
            assert count <= len(os.sched_getaffinity(0))

    def test_cgroup_v2_quota(self, tmp_path):
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) == 2

    def test_cgroup_v2_unlimited(self, tmp_path):
        (tmp_path / "cpu.max").write_text("max 100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) is None

    def test_cgroup_v2_fractional_quota_floors_to_one(self, tmp_path):
        (tmp_path / "cpu.max").write_text("50000 100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) == 1

    def test_cgroup_v1_quota(self, tmp_path):
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("300000\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) == 3

    def test_cgroup_v1_unlimited(self, tmp_path):
        v1 = tmp_path / "cpu"
        v1.mkdir()
        (v1 / "cpu.cfs_quota_us").write_text("-1\n")
        (v1 / "cpu.cfs_period_us").write_text("100000\n")
        assert _cgroup_cpu_limit(str(tmp_path)) is None

    def test_missing_cgroup_files_mean_unlimited(self, tmp_path):
        assert _cgroup_cpu_limit(str(tmp_path)) is None

    def test_quota_caps_default_workers(self, tmp_path):
        (tmp_path / "cpu.max").write_text("100000 100000\n")
        assert default_workers(_cgroup_base=str(tmp_path)) == 1

    def test_memoized_per_process(self, tmp_path, monkeypatch):
        """Repeated calls probe the cgroup filesystem exactly once.

        The probe showed up in wallclock-bench stage timings, so
        ``default_workers`` memoizes per (process, cgroup base);
        ``cache_clear()`` forces a re-probe.
        """
        import repro.engine.evalpool as evalpool

        probes = []
        real = evalpool._cgroup_cpu_limit
        monkeypatch.setattr(
            evalpool,
            "_cgroup_cpu_limit",
            lambda base: probes.append(base) or real(base),
        )
        (tmp_path / "cpu.max").write_text("200000 100000\n")
        default_workers.cache_clear()
        first = default_workers(_cgroup_base=str(tmp_path))
        for _ in range(5):
            assert default_workers(_cgroup_base=str(tmp_path)) == first
        assert probes == [str(tmp_path)]
        default_workers.cache_clear()
        assert default_workers(_cgroup_base=str(tmp_path)) == first
        assert len(probes) == 2
