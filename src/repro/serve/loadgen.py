"""Seeded multi-tenant load generation with SLO reporting.

Two drivers over the same tenant mixes:

* :func:`run_loadgen` -- the deterministic path.  Builds a
  :class:`~repro.serve.service.TenantLoadService` over a generated
  TPC-H dataset and runs thousands of closed-loop clients in
  *simulated* time.  Same seed, same preset => byte-identical
  :class:`~repro.serve.report.ServeReport` JSON on any host, any
  worker count -- the golden fixtures under
  ``tests/serve/golden/`` hold exactly these bytes, clean and under
  ``CHAOS_LIGHT``.
* :func:`drive_live` -- the socket path.  Opens real NDJSON
  connections against a running :class:`~repro.serve.server.ReproServer`
  and hammers it; latencies here are host time (not reproducible), so
  it reports counts, not goldens.  The integration suite and the CI
  smoke job use it to prove the asyncio front end survives concurrency.

Presets: ``tiny`` (fixture-sized), ``smoke`` (CI, 200 clients),
``quick`` (the headline 1000-client/3-tenant cell), ``full``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, replace

from ..chaos.faults import CHAOS_HEAVY, CHAOS_LIGHT, FaultPlan
from ..concurrency.tenants import TenantDirectory, default_tenants
from ..config import SimulationConfig
from ..errors import ServeError
from ..observe.metrics import MetricsRegistry
from ..sql import PlanCache
from ..storage.catalog import Catalog
from ..workloads.tpch import TpchDataset
from .protocol import (
    Request,
    decode_response,
    encode_request,
)
from .report import ServeReport
from .service import TenantLoad, TenantLoadService

__all__ = [
    "LoadgenSpec",
    "PRESETS",
    "TenantMix",
    "build_service",
    "drive_live",
    "run_loadgen",
]

# Statement mixes per SLO tier: interactive tenants run cheap scans,
# batch tenants run the join-heavy analytics.  All texts plan against
# the TPC-H catalog of :class:`~repro.workloads.tpch.TpchDataset`.
GOLD_SQL = (
    """SELECT SUM(l_extendedprice * l_discount) FROM lineitem
       WHERE l_shipdate >= DATE '1994-01-01'
         AND l_shipdate < DATE '1995-01-01'
         AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24""",
    """SELECT COUNT(*), SUM(c_acctbal) FROM customer
       WHERE c_acctbal > 500000""",
)
SILVER_SQL = (
    """SELECT c_nationkey, COUNT(*) FROM orders, customer
       WHERE o_custkey = c_custkey
         AND o_orderpriority <> '1-URGENT'
       GROUP BY c_nationkey ORDER BY c_nationkey""",
    """SELECT SUM(l_extendedprice) / 7 FROM lineitem, part
       WHERE l_partkey = p_partkey AND p_brand = 'Brand#23'
         AND p_container = 'MED BOX' AND l_quantity < 9""",
)
BRONZE_SQL = (
    """SELECT n_name, SUM(l_extendedprice * (100 - l_discount))
       FROM lineitem, part, supplier, nation
       WHERE l_partkey = p_partkey AND l_suppkey = s_suppkey
         AND s_nationkey = n_nationkey AND p_type LIKE '%BRASS%'
       GROUP BY n_name ORDER BY n_name""",
    """SELECT COUNT(*), SUM(c_acctbal) FROM customer
       WHERE c_acctbal > 500000
         AND c_custkey NOT IN (SELECT o_custkey FROM orders)""",
)


@dataclass(frozen=True)
class TenantMix:
    """One tenant's slice of the offered load."""

    tenant: str
    clients: int
    statements: tuple[str, ...]
    think_mean: float = 0.25

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ServeError(f"mix for {self.tenant!r} needs >= 1 client")
        if not self.statements:
            raise ServeError(f"mix for {self.tenant!r} needs >= 1 statement")


@dataclass(frozen=True)
class LoadgenSpec:
    """A complete, named load-generation scenario."""

    name: str
    mixes: tuple[TenantMix, ...]
    seed: int = 20160316
    horizon: float = 2.0
    scale_factor: int = 1
    chaos: str = "none"
    max_in_flight: int | None = None

    def __post_init__(self) -> None:
        if not self.mixes:
            raise ServeError("a loadgen spec needs at least one tenant mix")
        if self.horizon <= 0:
            raise ServeError("horizon must be positive")
        if self.chaos not in ("none", "light", "heavy"):
            raise ServeError(
                f"unknown chaos level {self.chaos!r} "
                "(expected none, light, or heavy)"
            )

    @property
    def total_clients(self) -> int:
        return sum(mix.clients for mix in self.mixes)

    def with_chaos(self, chaos: str) -> "LoadgenSpec":
        return replace(self, chaos=chaos)


def _mixes(gold: int, silver: int, bronze: int) -> tuple[TenantMix, ...]:
    return (
        TenantMix("gold", gold, GOLD_SQL, think_mean=0.15),
        TenantMix("silver", silver, SILVER_SQL, think_mean=0.25),
        TenantMix("bronze", bronze, BRONZE_SQL, think_mean=0.4),
    )


#: Named scenarios; ``quick`` is the issue's headline cell (>= 1000
#: concurrent clients across >= 3 tenants), ``smoke`` the CI gate,
#: ``tiny`` the golden-fixture size.
PRESETS: dict[str, LoadgenSpec] = {
    "tiny": LoadgenSpec("tiny", _mixes(8, 6, 4), horizon=1.0),
    "smoke": LoadgenSpec("smoke", _mixes(80, 70, 50), horizon=1.5),
    "quick": LoadgenSpec("quick", _mixes(400, 350, 250), horizon=2.0),
    "full": LoadgenSpec("full", _mixes(800, 700, 500), horizon=4.0),
}


def preset(name: str, *, chaos: str = "none", seed: int | None = None) -> LoadgenSpec:
    """Look up a preset, optionally overriding chaos level and seed."""
    try:
        spec = PRESETS[name]
    except KeyError:
        raise ServeError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    spec = spec.with_chaos(chaos)
    if seed is not None:
        spec = replace(spec, seed=seed)
    return spec


def chaos_plan(label: str) -> FaultPlan | None:
    """Map a chaos label to its fault plan (``none`` -> no injection)."""
    if label == "none":
        return None
    if label == "light":
        return CHAOS_LIGHT
    if label == "heavy":
        return CHAOS_HEAVY
    raise ServeError(f"unknown chaos level {label!r}")


# ----------------------------------------------------------------------
# deterministic (simulated-time) driver
# ----------------------------------------------------------------------
def build_service(
    spec: LoadgenSpec,
    *,
    config: SimulationConfig | None = None,
    catalog: Catalog | None = None,
    directory: TenantDirectory | None = None,
    metrics: MetricsRegistry | None = None,
    metrics_lock=None,
) -> TenantLoadService:
    """Assemble the simulated-time service for ``spec``.

    ``config``/``catalog`` default to a generated TPC-H dataset at the
    spec's scale factor, reseeded with the spec's seed; pass both to
    drive custom schemas (the unit tests do).
    """
    if (config is None) != (catalog is None):
        raise ServeError("pass both config and catalog, or neither")
    if catalog is None:
        dataset = TpchDataset(scale_factor=spec.scale_factor)
        catalog = dataset.catalog
        config = dataset.sim_config().with_seed(spec.seed)
    assert config is not None
    plans = PlanCache(catalog)
    loads = [
        TenantLoad(
            tenant=mix.tenant,
            clients=mix.clients,
            plans=tuple(plans.template(text) for text in mix.statements),
            think_mean=mix.think_mean,
        )
        for mix in spec.mixes
    ]
    return TenantLoadService(
        config,
        directory if directory is not None else default_tenants(),
        loads,
        horizon=spec.horizon,
        faults=chaos_plan(spec.chaos),
        max_in_flight=spec.max_in_flight,
        chaos_label=spec.chaos,
        metrics=metrics,
        metrics_lock=metrics_lock,
    )


def run_loadgen(
    spec: LoadgenSpec,
    *,
    metrics: MetricsRegistry | None = None,
    metrics_lock=None,
) -> ServeReport:
    """Run ``spec`` to completion and return its deterministic report."""
    service = build_service(spec, metrics=metrics, metrics_lock=metrics_lock)
    return service.run(seed=spec.seed)


# ----------------------------------------------------------------------
# live (socket) driver
# ----------------------------------------------------------------------
async def _drive_one_client(
    host: str,
    port: int,
    tenant: str,
    statements: tuple[str, ...],
    queries: int,
    counts: dict,
) -> None:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(encode_request(Request(op="hello", tenant=tenant)))
        await writer.drain()
        hello = decode_response(await reader.readline())
        if not hello.ok:
            counts["errors"] += 1
            return
        for i in range(queries):
            sql = statements[i % len(statements)]
            writer.write(
                encode_request(Request(op="query", id=i, sql=sql, limit=4))
            )
            await writer.drain()
            response = decode_response(await reader.readline())
            counts["issued"] += 1
            if response.ok:
                counts["completed"] += 1
            elif response.kind == "rejected":
                counts["rejected"] += 1
            else:
                counts["errors"] += 1
        writer.write(encode_request(Request(op="goodbye")))
        await writer.drain()
        await reader.readline()
    except (ConnectionError, asyncio.IncompleteReadError):
        counts["errors"] += 1
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass


async def drive_live(
    host: str,
    port: int,
    *,
    mixes: tuple[TenantMix, ...] | None = None,
    clients_per_tenant: int = 10,
    queries_per_client: int = 3,
    max_concurrency: int = 256,
) -> dict:
    """Hammer a live server over real sockets; returns count totals.

    Host-time path: useful for liveness/robustness assertions
    (everything answered, nothing hung), not for latency goldens.
    """
    if mixes is None:
        mixes = _mixes(clients_per_tenant, clients_per_tenant, clients_per_tenant)
    counts = {
        mix.tenant: {"issued": 0, "completed": 0, "rejected": 0, "errors": 0}
        for mix in mixes
    }
    gate = asyncio.Semaphore(max_concurrency)

    async def gated(mix: TenantMix) -> None:
        async with gate:
            await _drive_one_client(
                host,
                port,
                mix.tenant,
                mix.statements,
                queries_per_client,
                counts[mix.tenant],
            )

    await asyncio.gather(
        *(
            gated(mix)
            for mix in mixes
            for _ in range(mix.clients)
        )
    )
    totals = {
        key: sum(c[key] for c in counts.values())
        for key in ("issued", "completed", "rejected", "errors")
    }
    return {"by_tenant": counts, **totals}
