"""The asyncio front end: sockets, HTTP, admission, graceful shutdown.

No fixed ports anywhere: every server binds port 0 and reports what the
kernel picked, so parallel test processes cannot collide.  Tests are
plain sync functions running their async bodies via the
``server_runner`` fixture (which owns start/stop), since the harness
has no asyncio plugin.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.serve import INTERACTIVE, ReproServer, TenantDirectory, TenantSpec

from tests.serve.conftest import COUNT_SQL, GROUP_SQL


class TestLifecycle:
    def test_port_zero_resolves(self, server_runner):
        async def body(server):
            assert server.port != 0
            assert server.serving

        server_runner(body)

    def test_two_servers_no_collision(self, serve_config, small_catalog):
        async def main():
            a = ReproServer(serve_config, small_catalog)
            b = ReproServer(serve_config, small_catalog)
            await a.start()
            await b.start()
            try:
                assert a.port != b.port
            finally:
                await a.stop()
                await b.stop()

        asyncio.run(main())

    def test_start_stop_idempotent(self, serve_config, small_catalog):
        async def main():
            server = ReproServer(serve_config, small_catalog)
            await server.start()
            port = server.port
            await server.start()  # no-op
            assert server.port == port
            await server.stop()
            await server.stop()  # no-op
            assert not server.serving
            assert not server.engine.running

        asyncio.run(main())

    def test_stop_closes_idle_connections(self, server_runner, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            response = await client.call(op="hello", tenant="gold")
            assert response["ok"]
            await server.stop()
            assert await client.closed_by_server()
            await client.close()

        server_runner(body)


class TestNdjsonSessions:
    def test_full_session_flow(self, server_runner, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            hello = await client.call(op="hello", tenant="gold", id=1)
            assert hello["ok"] and hello["tenant"] == "gold"
            assert hello["protocol"] == 1
            result = await client.call(op="query", id=2, sql=COUNT_SQL)
            assert result["ok"]
            assert result["id"] == 2
            assert result["rows"] == [{"kind": "scalar", "value": 2000}]
            assert result["simulated_ms"] > 0
            pong = await client.call(op="ping", id=3)
            assert pong["type"] == "pong"
            bye = await client.call(op="goodbye", id=4)
            assert bye["type"] == "goodbye" and bye["queries"] == 1
            assert await client.closed_by_server()
            await client.close()

        server_runner(body)

    def test_query_before_hello(self, server_runner, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            response = await client.call(op="query", sql=COUNT_SQL)
            assert not response["ok"] and response["kind"] == "session"
            # Connection stays usable: bind and retry.
            assert (await client.call(op="hello", tenant="silver"))["ok"]
            assert (await client.call(op="query", sql=COUNT_SQL))["ok"]
            await client.close()

        server_runner(body)

    def test_bad_sql_is_typed_error(self, server_runner, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            await client.call(op="hello", tenant="gold")
            response = await client.call(op="query", id=7, sql="SELECT nope FROM facts")
            assert not response["ok"]
            assert response["kind"] == "sql" and response["id"] == 7
            # ... and the session survives.
            assert (await client.call(op="query", sql=COUNT_SQL))["ok"]
            await client.close()

        server_runner(body)

    def test_schema_error_keeps_connection(self, server_runner, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            response = await client.call(op="teleport")
            assert response["kind"] == "protocol"
            assert (await client.call(op="ping"))["type"] == "pong"
            await client.close()

        server_runner(body)

    def test_framing_error_closes_connection(self, server_runner, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            await client.send_raw(b"this is not json\n")
            response = await client.recv()
            assert response["kind"] == "protocol"
            assert await client.closed_by_server()
            await client.close()

        server_runner(body)


class TestHttp:
    def test_healthz_and_metrics(self, server_runner, http):
        async def body(server):
            status, text = await http.get(server.host, server.port, "/healthz")
            assert status == 200
            doc = json.loads(text)
            assert doc["ok"] and doc["tenants"] == ["gold", "silver", "bronze"]
            status, text = await http.get(server.host, server.port, "/metrics")
            assert status == 200

        server_runner(body)

    def test_metrics_live_after_queries(self, server_runner, http, ndjson_client):
        async def body(server):
            client = await ndjson_client.connect(server.host, server.port)
            await client.call(op="hello", tenant="gold")
            await client.call(op="query", sql=COUNT_SQL)
            await client.close()
            _, text = await http.get(server.host, server.port, "/metrics")
            assert 'repro_serve_queries_total{tenant="gold"} 1' in text
            assert 'repro_serve_completed_total{tenant="gold"} 1' in text
            assert "repro_serve_latency_seconds_bucket" in text

        server_runner(body)

    def test_post_query(self, server_runner, http):
        async def body(server):
            body_bytes = json.dumps({"sql": COUNT_SQL, "tenant": "silver"}).encode()
            status, text = await http.post(
                server.host, server.port, "/query", body_bytes
            )
            assert status == 200
            doc = json.loads(text)
            assert doc["ok"] and doc["rows"][0]["value"] == 2000

        server_runner(body)

    def test_post_query_bad_requests(self, server_runner, http):
        async def body(server):
            status, _ = await http.post(server.host, server.port, "/query", b"{}")
            assert status == 400
            status, _ = await http.post(
                server.host, server.port, "/query",
                json.dumps({"sql": "SELECT nope FROM facts"}).encode(),
            )
            assert status == 400

        server_runner(body)

    def test_unknown_path_and_wrong_method(self, server_runner, http):
        async def body(server):
            status, _ = await http.get(server.host, server.port, "/nope")
            assert status == 404
            status, _ = await http.post(server.host, server.port, "/metrics", b"")
            assert status == 405

        server_runner(body)


def _gate_engine(server) -> tuple[threading.Event, threading.Event]:
    """Block the engine's batch execution until released (test hook)."""
    release = threading.Event()
    entered = threading.Event()
    original = server.engine._execute_batch

    def gated(batch):
        entered.set()
        assert release.wait(timeout=30), "test forgot to release the engine"
        original(batch)

    server.engine._execute_batch = gated
    return release, entered


class TestAdmission:
    def _tiny_directory(self) -> TenantDirectory:
        return TenantDirectory(
            (TenantSpec("gold", slo=INTERACTIVE, max_in_flight=1,
                        queue_limit=1),)
        )

    def test_queue_full_rejects_deterministically(
        self, server_runner, ndjson_client
    ):
        async def body(server):
            release, entered = _gate_engine(server)
            clients = []
            for _ in range(3):
                client = await ndjson_client.connect(server.host, server.port)
                await client.call(op="hello", tenant="gold")
                clients.append(client)
            # q1 admitted (in flight, held by the gate), q2 queued,
            # q3 must bounce off the queue limit.
            for client in clients:
                await client.send_raw(
                    json.dumps({"op": "query", "sql": COUNT_SQL}).encode() + b"\n"
                )
                await asyncio.sleep(0.05)
            rejected = await clients[2].recv()
            assert not rejected["ok"] and rejected["kind"] == "rejected"
            release.set()
            assert (await clients[0].recv())["ok"]
            assert (await clients[1].recv())["ok"]
            for client in clients:
                await client.close()

        server_runner(body, tenants=self._tiny_directory(), max_in_flight=1)

    def test_rejection_counted_in_metrics(self, server_runner, http, ndjson_client):
        async def body(server):
            release, entered = _gate_engine(server)
            clients = []
            for _ in range(3):
                client = await ndjson_client.connect(server.host, server.port)
                await client.call(op="hello", tenant="gold")
                clients.append(client)
            for client in clients:
                await client.send_raw(
                    json.dumps({"op": "query", "sql": COUNT_SQL}).encode() + b"\n"
                )
                await asyncio.sleep(0.05)
            await clients[2].recv()
            _, text = await http.get(server.host, server.port, "/metrics")
            assert 'repro_serve_rejected_total{tenant="gold"} 1' in text
            release.set()
            await clients[0].recv()
            await clients[1].recv()
            for client in clients:
                await client.close()

        server_runner(body, tenants=self._tiny_directory(), max_in_flight=1)


class TestGracefulShutdown:
    def test_in_flight_queries_drain(self, serve_config, small_catalog, ndjson_client):
        async def main():
            server = ReproServer(serve_config, small_catalog)
            await server.start()
            release, entered = _gate_engine(server)
            client = await ndjson_client.connect(server.host, server.port)
            await client.call(op="hello", tenant="gold")
            await client.send_raw(
                json.dumps({"op": "query", "id": 1, "sql": GROUP_SQL}).encode()
                + b"\n"
            )
            await asyncio.get_running_loop().run_in_executor(
                None, lambda: entered.wait(timeout=30)
            )
            stopper = asyncio.create_task(server.stop())
            await asyncio.sleep(0.05)
            release.set()
            # The in-flight query's response must still arrive.
            response = await client.recv()
            assert response["ok"] and response["id"] == 1
            await stopper
            assert not server.engine.running
            await client.close()

        asyncio.run(main())

    def test_new_queries_refused_while_stopping(
        self, serve_config, small_catalog, http
    ):
        async def main():
            server = ReproServer(serve_config, small_catalog)
            await server.start()
            await server.stop()
            # Direct API check: post-stop execution is refused as shed load.
            from repro.errors import AdmissionError
            from repro.serve import Request

            with pytest.raises(AdmissionError, match="shutting down"):
                await server.execute_query(
                    "gold", Request(op="query", sql=COUNT_SQL)
                )

        asyncio.run(main())

    def test_engine_thread_stopped_with_server(self, serve_config, small_catalog):
        # Stopping the server must stop the engine's worker thread.
        async def main():
            server = ReproServer(serve_config, small_catalog)
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b'{"op":"hello","tenant":"gold"}\n')
            writer.write(
                json.dumps({"op": "query", "sql": COUNT_SQL}).encode() + b"\n"
            )
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            assert json.loads(await reader.readline())["ok"]
            writer.close()
            await writer.wait_closed()
            assert server.engine.running
            await server.stop()
            assert not server.engine.running

        asyncio.run(main())
