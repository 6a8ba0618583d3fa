"""Concurrent workload simulation: closed-loop clients on one machine."""

from .admission import FairScheduler, TenantSchedStats
from .service import (
    Client,
    ClientSpec,
    ClosedLoop,
    ResilienceConfig,
    ResilientWorkload,
    WorkloadReport,
    background_load,
)

__all__ = [
    "Client",
    "ClientSpec",
    "ClosedLoop",
    "FairScheduler",
    "ResilienceConfig",
    "ResilientWorkload",
    "TenantSchedStats",
    "WorkloadReport",
    "background_load",
]
