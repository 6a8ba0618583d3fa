"""Command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestInfo:
    def test_info_prints_machines(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "E5-2650" in out and "E5-4657" in out


class TestRun:
    def test_serial_run(self, capsys):
        code = main(
            ["run", "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5", "--sf", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serial:" in out
        assert "output[0]" in out

    def test_heuristic_run_with_plan(self, capsys):
        code = main(
            [
                "run",
                "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 5",
                "--sf",
                "1",
                "--parallelize",
                "heuristic",
                "--partitions",
                "4",
                "--show-plan",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "heuristic(4):" in out
        assert "select" in out  # plan listing

    def test_tomograph_flag(self, capsys):
        code = main(
            [
                "run",
                "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5",
                "--sf",
                "1",
                "--parallelize",
                "heuristic",
                "--tomograph",
            ]
        )
        assert code == 0
        assert "parallelism usage" in capsys.readouterr().out

    def test_dot_output(self, capsys, tmp_path):
        target = tmp_path / "plan.dot"
        code = main(
            [
                "run",
                "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5",
                "--sf",
                "1",
                "--dot",
                str(target),
            ]
        )
        assert code == 0
        assert target.read_text().startswith("digraph")

    def test_group_output_summarized(self, capsys):
        code = main(
            [
                "run",
                "SELECT l_discount, COUNT(*) FROM lineitem GROUP BY l_discount",
                "--sf",
                "1",
            ]
        )
        assert code == 0
        assert "groups" in capsys.readouterr().out or "{" in capsys.readouterr().out

    def test_sql_error_reports_cleanly(self, capsys):
        code = main(["run", "SELECT nope FROM lineitem", "--sf", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestAdapt:
    def test_adapt_named_query(self, capsys):
        code = main(["adapt", "--query", "q6", "--sf", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "GME" in out and "converged" in out

    def test_adapt_with_trace(self, capsys):
        code = main(
            [
                "adapt",
                "--sql",
                "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 25",
                "--sf",
                "1",
                "--trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "execution time vs run" in out
        assert "mutations by scheme" in out

    def test_unknown_query_fails(self, capsys):
        code = main(["adapt", "--query", "q99", "--sf", "1"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_adapt_bandit_policy_with_explain(self, capsys):
        code = main(
            ["adapt", "--query", "q6", "--sf", "1", "--policy", "bandit", "--explain"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "policy: bandit" in out
        assert "DOP decision provenance:" in out
        assert "dop.bandit_arm" in out

    def test_adapt_unknown_policy_fails(self, capsys):
        code = main(["adapt", "--query", "q6", "--sf", "1", "--policy", "zen"])
        assert code == 1
        assert "unknown convergence policy" in capsys.readouterr().err

    def test_adapt_warmstart_round_trip_and_learn(self, capsys, tmp_path):
        store = tmp_path / "exp.json"
        base = [
            "adapt", "--query", "q6", "--sf", "1",
            "--policy", "warmstart", "--experience", str(store),
        ]
        assert main(base + ["--explain"]) == 0
        first = capsys.readouterr().out
        assert "policy: warmstart+credit_debit (cold)" in first
        assert "dop.cold_fallback" in first
        assert store.exists()
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "(warm-started)" in second

        # The learn command inspects what adapt recorded.
        assert main(["learn", str(store)]) == 0
        listing = capsys.readouterr().out
        assert "1 record(s)" in listing
        assert "dop=" in listing

    def test_learn_json_output(self, capsys, tmp_path):
        store = tmp_path / "exp.json"
        assert main(
            ["adapt", "--query", "q6", "--sf", "1", "--experience", str(store)]
        ) == 0
        capsys.readouterr()
        assert main(["learn", str(store), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["records"][0]["dop"] > 0
        assert doc["capacity_bytes"] > doc["size_bytes"] > 0

    def test_learn_missing_store_fails(self, capsys, tmp_path):
        assert main(["learn", str(tmp_path / "nope.json")]) == 1
        assert "no experience store" in capsys.readouterr().err


class TestLint:
    def test_lint_clean_named_query(self, capsys):
        code = main(["lint", "--query", "q6", "--sf", "1"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_clean_sql(self, capsys):
        code = main(
            [
                "lint",
                "--sql",
                "SELECT COUNT(*) FROM lineitem WHERE l_quantity < 5",
                "--sf",
                "1",
            ]
        )
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_corrupted_plan_json_fails(self, capsys, tmp_path):
        import json

        from repro.engine import execute
        from repro.core import PlanMutator
        from repro.plan import to_json
        from repro.workloads import TpchDataset

        dataset = TpchDataset(scale_factor=1)
        plan = dataset.plan("q6")
        mutator = PlanMutator(plan)
        profile = execute(plan, dataset.sim_config()).profile
        for __ in range(3):
            mutator.mutate(profile)
            profile = execute(plan, dataset.sim_config()).profile
        document = json.loads(to_json(plan))
        for spec in document["nodes"]:
            if spec["op"]["kind"] == "slice" and spec["op"]["lo"] == 0:
                spec["op"]["hi"] //= 2  # open a coverage gap
                break
        target = tmp_path / "bad_plan.json"
        target.write_text(json.dumps(document))
        code = main(["lint", "--plan-json", str(target), "--sf", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "error" in out and "partition." in out

    def test_lint_strict_fails_on_warnings(self, capsys, tmp_path):
        import json

        from repro.engine import execute
        from repro.core import PlanMutator
        from repro.plan import to_json
        from repro.workloads import TpchDataset

        dataset = TpchDataset(scale_factor=1)
        plan = dataset.plan("q6")
        mutator = PlanMutator(plan)
        profile = execute(plan, dataset.sim_config()).profile
        for __ in range(3):
            mutator.mutate(profile)
            profile = execute(plan, dataset.sim_config()).profile
        document = json.loads(to_json(plan))
        # Two pack branches claiming the same partition position is a
        # warn-level determinism smell (determinism.duplicate-key).
        pack_spec = next(s for s in document["nodes"] if s["op"]["kind"] == "pack")
        first, second = pack_spec["inputs"][:2]
        document["nodes"][second]["order_key"] = document["nodes"][first]["order_key"]
        target = tmp_path / "plan.json"
        target.write_text(json.dumps(document))
        assert main(["lint", "--plan-json", str(target), "--sf", "1"]) == 0
        capsys.readouterr()
        assert main(["lint", "--plan-json", str(target), "--sf", "1", "--strict"]) == 1
        assert "warn" in capsys.readouterr().out


class TestAdaptVerbose:
    def test_adapt_verbose_prints_analyzer_summaries(self, capsys):
        code = main(
            [
                "adapt",
                "--sql",
                "SELECT SUM(l_extendedprice) FROM lineitem WHERE l_quantity < 25",
                "--sf",
                "1",
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "analyzer: clean" in out


class TestChaos:
    ARGS = ["chaos", "--sf", "1", "--horizon", "0.3", "--clients", "2"]

    def test_chaos_demo_workload_half(self, capsys):
        assert main(self.ARGS + ["--no-adapt"]) == 0
        out = capsys.readouterr().out
        assert "faults injected:" in out
        assert "admission:" in out

    def test_chaos_demo_is_deterministic(self, capsys):
        assert main(self.ARGS + ["--no-adapt"]) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS + ["--no-adapt"]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_demo_full(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "faults injected:" in out
        assert "under chaos:" in out
        assert "chaos GME / clean GME:" in out

    def test_chaos_heavy_level(self, capsys):
        assert main(self.ARGS + ["--no-adapt", "--level", "heavy"]) == 0
        out = capsys.readouterr().out
        assert "chaos level: heavy" in out


class TestBench:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        assert "fig11" in out and "fig17" in out
        assert "fig18chaos" in out

    def test_bench_rejects_unknown(self):
        with pytest.raises(SystemExit):
            main(["bench", "fig99"])

    def test_bench_requires_an_experiment(self, capsys):
        assert main(["bench"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--scaleout" in err

    def test_bench_scaleout_default_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--scaleout", "--quick"]) == 0
        assert "wrote BENCH_scaleout.json" in capsys.readouterr().out
        report = json.loads((tmp_path / "BENCH_scaleout.json").read_text())
        assert report["quick"] is True
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_scaleout.json"]
