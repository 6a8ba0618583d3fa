"""Discrete-event multi-core execution engine."""

from .executor import execute
from .machine import HardwareThread, MachineState
from .memo import CacheStats, IntermediateCache
from .noise import NoiseModel
from .profiler import OpRecord, QueryProfile
from .scheduler import EvalFailure, ExecutionResult, Simulator, settle_job

__all__ = [
    "CacheStats",
    "EvalFailure",
    "ExecutionResult",
    "HardwareThread",
    "IntermediateCache",
    "MachineState",
    "NoiseModel",
    "OpRecord",
    "QueryProfile",
    "Simulator",
    "execute",
    "settle_job",
]
