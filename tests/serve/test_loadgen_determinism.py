"""Seeded load generation: byte-identical SLO reports, pinned by goldens.

These tests run the ``tiny`` preset (18 simulated clients, 3 tenants)
against the real TPC-H catalog at scale factor 1 -- the same path
``repro serve --loadgen`` takes -- and assert the serialized
:class:`ServeReport` never drifts.  Run
``pytest tests/serve --regen-golden`` after an *intentional* change to
the service discipline and review the fixture diff like code.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ServeError
from repro.serve import (
    PRESETS,
    LoadgenSpec,
    TenantMix,
    build_service,
    chaos_plan,
    preset,
    run_loadgen,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report_json(report) -> str:
    return json.dumps(report.as_dict(), indent=2, sort_keys=True)


def _check_golden(name: str, payload: str, regen: bool) -> None:
    path = GOLDEN_DIR / name
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(payload + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden fixture {path} is missing -- run "
        "pytest tests/serve --regen-golden"
    )
    assert payload + "\n" == path.read_text(), (
        f"SLO report diverged from {path.name}; if the change is "
        "intentional, regenerate with --regen-golden and review the diff"
    )


@pytest.fixture(scope="module")
def tiny_clean_report():
    return run_loadgen(preset("tiny"))


class TestGolden:
    def test_tiny_clean_golden(self, tiny_clean_report, regen_golden):
        _check_golden(
            "loadgen_tiny_clean.json", _report_json(tiny_clean_report),
            regen_golden,
        )

    def test_tiny_chaos_light_golden(self, regen_golden):
        report = run_loadgen(preset("tiny", chaos="light"))
        assert report.faults_injected > 0
        _check_golden(
            "loadgen_tiny_chaos_light.json", _report_json(report),
            regen_golden,
        )


class TestDeterminism:
    def test_repeat_run_byte_identical(self, tiny_clean_report):
        again = run_loadgen(preset("tiny"))
        assert _report_json(again) == _report_json(tiny_clean_report)

    # Worker-count invariance moved to the
    # consolidated sweep in tests/integration/test_determinism_matrix.py
    # (scenario "serve").

    def test_chaos_light_repeatable(self):
        spec = preset("tiny", chaos="light")
        assert _report_json(run_loadgen(spec)) == _report_json(
            run_loadgen(spec)
        )

    def test_seed_changes_report(self, tiny_clean_report):
        reseeded = run_loadgen(preset("tiny", seed=99))
        assert _report_json(reseeded) != _report_json(tiny_clean_report)

    def test_report_meets_shape_contract(self, tiny_clean_report):
        doc = tiny_clean_report.as_dict()
        assert doc["schema"] == "repro/serve/slo/v1"
        assert set(doc["tenants"]) == {"gold", "silver", "bronze"}
        for outcome in doc["tenants"].values():
            assert outcome["admitted"] == outcome["issued"] - outcome["rejected"]
            assert outcome["completed"] <= outcome["admitted"]
        totals = doc["totals"]
        assert totals["issued"] == sum(
            o["issued"] for o in doc["tenants"].values()
        )


class TestSpecs:
    def test_presets_scale_monotonically(self):
        sizes = [PRESETS[n].total_clients for n in ("tiny", "smoke", "quick")]
        assert sizes == sorted(sizes)
        assert PRESETS["quick"].total_clients >= 1000
        assert len(PRESETS["quick"].mixes) >= 3

    def test_preset_unknown(self):
        with pytest.raises(ServeError, match="unknown preset"):
            preset("nope")

    def test_chaos_plan_labels(self):
        assert chaos_plan("none") is None
        assert chaos_plan("light") is not None
        assert chaos_plan("heavy") is not None
        with pytest.raises(ServeError, match="chaos"):
            chaos_plan("medium")

    def test_spec_validation(self):
        mix = TenantMix("gold", clients=1, statements=("SELECT 1 FROM t",))
        with pytest.raises(ServeError, match="mix"):
            LoadgenSpec("x", mixes=())
        with pytest.raises(ServeError, match="horizon"):
            LoadgenSpec("x", mixes=(mix,), horizon=0.0)
        with pytest.raises(ServeError, match="client"):
            TenantMix("gold", clients=0, statements=("SELECT 1 FROM t",))
        with pytest.raises(ServeError, match="statement"):
            TenantMix("gold", clients=1, statements=())

    def test_build_service_requires_paired_config(self, serve_config):
        with pytest.raises(ServeError, match="both"):
            build_service(preset("tiny"), config=serve_config)
