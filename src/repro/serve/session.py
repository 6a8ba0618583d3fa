"""Per-connection session lifecycle of the SQL service.

A session is the server-side state of one client connection: which
tenant it bills to, where it is in its lifecycle, and what it has done.
The state machine is small and strict::

    NEW --hello--> READY --goodbye--> CLOSED
     |                |
     +--query-> error +--hello-> error (no re-binding)

Keeping it outside the asyncio handler makes the lifecycle rules unit
testable without sockets: :meth:`Session.handle` answers every
non-query frame by itself and *admits* query frames (validating state
and returning the bound tenant) without executing them -- execution is
the server's job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..concurrency.tenants import TenantDirectory, TenantSpec
from ..errors import ServeError
from .protocol import PROTOCOL_VERSION, Request, Response, error_response

#: Lifecycle states.
NEW, READY, CLOSED = "new", "ready", "closed"


@dataclass
class SessionStats:
    """What one session has done (monotone counters)."""

    queries: int = 0
    completed: int = 0
    rejected: int = 0
    errors: int = 0


class Session:
    """One connection's lifecycle, tenant binding, and counters."""

    _ids = itertools.count(1)

    def __init__(self, directory: TenantDirectory) -> None:
        self.directory = directory
        self.session_id = next(Session._ids)
        self.state = NEW
        self.tenant: TenantSpec | None = None
        self.stats = SessionStats()

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.state == CLOSED

    def handle(self, request: Request) -> Response | None:
        """Answer a non-query frame; return ``None`` for admitted queries.

        A ``None`` return means: the request is a query, the session is
        READY, and :attr:`tenant` is the spec to bill -- the caller
        executes it and must report back via :meth:`note_result`.
        """
        if self.state == CLOSED:
            return error_response(
                "session", "session is closed", id=request.id
            )
        if request.op == "ping":
            return Response(type="pong", id=request.id)
        if request.op == "hello":
            return self._hello(request)
        if request.op == "goodbye":
            self.state = CLOSED
            return Response(
                type="goodbye",
                id=request.id,
                body={"session": self.session_id, "queries": self.stats.queries},
            )
        if request.op == "query":
            if self.state != READY:
                self.stats.errors += 1
                return error_response(
                    "session", "no tenant bound; send hello first", id=request.id
                )
            self.stats.queries += 1
            return None
        raise AssertionError(f"unvalidated op {request.op!r}")  # pragma: no cover

    def _hello(self, request: Request) -> Response:
        if self.state == READY:
            self.stats.errors += 1
            return error_response(
                "session",
                f"session already bound to tenant {self.tenant.name!r}",
                id=request.id,
            )
        try:
            spec = self.directory.get(request.tenant or "")
        except ServeError as exc:
            self.stats.errors += 1
            return error_response("session", str(exc), id=request.id)
        self.tenant = spec
        self.state = READY
        return Response(
            type="hello",
            id=request.id,
            body={
                "session": self.session_id,
                "protocol": PROTOCOL_VERSION,
                "tenant": spec.name,
                "slo_class": spec.slo.name,
                "weight": spec.effective_weight,
            },
        )

    # ------------------------------------------------------------------
    def note_result(self, *, ok: bool, rejected: bool = False) -> None:
        """Record the outcome of an admitted query."""
        if rejected:
            self.stats.rejected += 1
        elif ok:
            self.stats.completed += 1
        else:
            self.stats.errors += 1

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tenant = self.tenant.name if self.tenant else None
        return (
            f"Session(id={self.session_id}, state={self.state}, "
            f"tenant={tenant!r}, queries={self.stats.queries})"
        )
