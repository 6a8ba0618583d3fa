"""Golden-trace regression fixtures.

The canonical export is a byte-stable contract: later PRs may make the
engine faster, but they must not silently change what the observability
layer reports.  Run ``pytest tests/observe --regen-golden`` after an
*intentional* trace change and review the fixture diff like any other
code change.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from tests.observe.conftest import observe_join_adaptive, observe_q1

GOLDEN_DIR = Path(__file__).parent / "golden"


def _check_golden(name: str, payload: str, regen: bool) -> None:
    path = GOLDEN_DIR / name
    if regen:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(payload + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden fixture {path} is missing -- run "
        "pytest tests/observe --regen-golden"
    )
    assert payload + "\n" == path.read_text(), (
        f"canonical output diverged from {path.name}; if the change is "
        "intentional, regenerate with --regen-golden and review the diff"
    )


def test_q1_style_golden(tpch_sf1, regen_golden):
    observer = observe_q1(tpch_sf1)
    _check_golden("q1_style.json", observer.canonical_json(), regen_golden)


def test_join_micro_adaptive_golden(regen_golden):
    observer = observe_join_adaptive()
    _check_golden("join_micro.json", observer.canonical_json(), regen_golden)


def test_host_time_stripped_from_canonical(tpch_sf1):
    """``host_time=True`` changes nothing in the canonical projection."""
    plain = observe_q1(tpch_sf1)
    timed = observe_q1(tpch_sf1, host_time=True)
    assert any(s.host_t0 is not None for s in timed.tracer.spans)
    assert timed.canonical_json() == plain.canonical_json()
    # ... but the raw JSONL does carry the host fields.
    assert '"host_t0"' in timed.to_jsonl()
    assert '"host_t0"' not in timed.to_jsonl(host=False)
