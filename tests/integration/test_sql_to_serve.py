"""Full stack, SQL text to served bytes.

The serving layer's headline claim: what a client receives for a given
statement is a function of (statement, config) only -- not of what the
server executed before.  These tests drive real sockets end to end and
diff the bytes.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import ServeEngine, ReproServer, preset, run_loadgen
from repro.workloads import TpchDataset

_tpch = TpchDataset(scale_factor=1)

Q6 = (
    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem "
    "WHERE l_shipdate >= DATE '1994-01-01' "
    "AND l_shipdate < DATE '1995-01-01' "
    "AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24"
)
ACCTBAL = "SELECT COUNT(*) FROM customer WHERE c_acctbal > 0"

def _canonical_via_engine(sql: str, *, warm: bool) -> str:
    engine = ServeEngine(_tpch.sim_config(), _tpch.catalog).start()
    try:
        if warm:
            # Unrelated traffic first: canonical bytes must not care
            # about history.
            engine.submit_sql(ACCTBAL).result(timeout=60)
        payload = engine.submit_sql(sql, canonical=True).result(timeout=60)
    finally:
        engine.close()
    return payload["canonical"]


class TestCanonicalAcrossHistory:
    @pytest.mark.parametrize("sql", [Q6, ACCTBAL], ids=["q6", "acctbal"])
    def test_engine_canonical_bytes_identical(self, sql):
        reference = _canonical_via_engine(sql, warm=False)
        assert reference.startswith("{")
        assert _canonical_via_engine(sql, warm=True) == reference

    def test_served_rows_identical_over_sockets(self):
        """The NDJSON result document is byte-stable across servers."""

        async def serve_one() -> bytes:
            server = ReproServer(_tpch.sim_config(), _tpch.catalog)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b'{"op":"hello","tenant":"gold"}\n')
                writer.write(
                    json.dumps(
                        {"op": "query", "id": 1, "sql": Q6, "canonical": True}
                    ).encode() + b"\n"
                )
                await writer.drain()
                await reader.readline()  # hello ack
                line = await reader.readline()
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            # Strip the host-side timing field: everything else is the
            # deterministic surface.
            doc = json.loads(line)
            assert doc["ok"], doc
            # Guard against a silently-empty selection: Q6 must
            # actually aggregate rows.
            assert doc["rows"][0]["value"] > 0
            doc.pop("host_batch_ms", None)
            return json.dumps(doc, sort_keys=True).encode()

        async def main() -> list[bytes]:
            return [await serve_one() for __ in range(2)]

        first, second = asyncio.run(main())
        assert first == second


class TestLoadgen:
    def test_report_against_serve_golden(self, regen_golden):
        """The integration run matches the fixture pinned in tests/serve."""
        from pathlib import Path

        path = (
            Path(__file__).parent.parent
            / "serve" / "golden" / "loadgen_tiny_clean.json"
        )
        if not path.exists():
            pytest.skip("serve goldens not generated yet")
        report = run_loadgen(preset("tiny"))
        payload = json.dumps(report.as_dict(), indent=2, sort_keys=True)
        assert payload + "\n" == path.read_text()
