"""Fixtures for the serving suite.

Socket tests always bind port 0 (the kernel picks a free port), so
parallel test runs never collide; ``server_runner`` owns the full
start/stop lifecycle so a failing test body cannot leak a listener or
an evaluation-pool worker.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.config import SimulationConfig, laptop_machine
from repro.serve import ReproServer
from repro.sql import plan_sql

#: Statements that plan against the shared ``small_catalog`` fixture.
COUNT_SQL = "SELECT COUNT(*) FROM facts"
SUM_SQL = "SELECT SUM(val) FROM facts WHERE qty < 25"
GROUP_SQL = "SELECT fk, COUNT(*) FROM facts GROUP BY fk ORDER BY fk"


@pytest.fixture()
def serve_config() -> SimulationConfig:
    """A small simulated machine, same shape the unit suites use."""
    return SimulationConfig(machine=laptop_machine(8), data_scale=100.0)


@pytest.fixture()
def serve_plans(small_catalog):
    return {
        "count": plan_sql(COUNT_SQL, small_catalog),
        "sum": plan_sql(SUM_SQL, small_catalog),
        "group": plan_sql(GROUP_SQL, small_catalog),
    }


class NdjsonClient:
    """A minimal test client for the NDJSON wire protocol."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "NdjsonClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    async def send_raw(self, data: bytes) -> None:
        self.writer.write(data)
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)

    async def call(self, **doc) -> dict:
        await self.send_raw(json.dumps(doc).encode() + b"\n")
        return await self.recv()

    async def closed_by_server(self) -> bool:
        return await self.reader.readline() == b""

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@pytest.fixture()
def ndjson_client():
    return NdjsonClient


@pytest.fixture()
def server_runner(serve_config, small_catalog):
    """Run an async test body against a live server, then tear down.

    Usage::

        def test_x(server_runner):
            async def body(server):
                ...
            server_runner(body, workers=2)
    """

    def run(body, *, config=None, catalog=None, **server_kw):
        async def main():
            server = ReproServer(
                config if config is not None else serve_config,
                catalog if catalog is not None else small_catalog,
                **server_kw,
            )
            await server.start()
            try:
                return await body(server)
            finally:
                await server.stop()

        return asyncio.run(main())

    return run


async def http_get(host: str, port: int, path: str) -> tuple[int, str]:
    """One-shot HTTP GET; returns (status, body)."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = int(data.split(b" ", 2)[1])
    return status, data.partition(b"\r\n\r\n")[2].decode()


async def http_post(host: str, port: int, path: str, body: bytes) -> tuple[int, str]:
    reader, writer = await asyncio.open_connection(host, port)
    head = (
        f"POST {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode()
    writer.write(head + body)
    await writer.drain()
    data = await reader.read()
    writer.close()
    await writer.wait_closed()
    status = int(data.split(b" ", 2)[1])
    return status, data.partition(b"\r\n\r\n")[2].decode()


@pytest.fixture()
def http():
    class _Http:
        get = staticmethod(http_get)
        post = staticmethod(http_post)

    return _Http
