"""repro: adaptive query parallelization in a multi-core column store.

A faithful, laptop-scale reproduction of "Adaptive query parallelization
in multi-core column stores" (Gawade & Kersten, EDBT 2016): a columnar
execution engine on a simulated multi-core machine, plus the paper's
adaptive parallelization framework (plan morphing + convergence), the
heuristic/work-stealing/Vectorwise baselines, and the full experiment
suite.

Quickstart::

    from repro import TpchDataset, AdaptiveParallelizer

    dataset = TpchDataset(scale_factor=10)
    config = dataset.sim_config()
    result = AdaptiveParallelizer(config).optimize(dataset.plan("q6"))
    print(result.speedup, result.gme_run, result.total_runs)
"""

from .chaos import (
    CHAOS_HEAVY,
    CHAOS_LIGHT,
    FaultInjector,
    FaultKind,
    FaultPlan,
)
from .concurrency import (
    ClientSpec,
    ClosedLoop,
    ResilienceConfig,
    ResilientWorkload,
    WorkloadReport,
)
from .config import (
    NOISY,
    QUIET,
    MachineSpec,
    NoiseConfig,
    SimulationConfig,
    four_socket_machine,
    laptop_machine,
    two_socket_machine,
)
from .core import (
    AdaptiveParallelizer,
    AdaptiveResult,
    ConvergenceParams,
    ConvergenceTracker,
    HeuristicParallelizer,
    PlanMutator,
    WorkStealingConfig,
    WorkStealingExecutor,
)
from .engine import ExecutionResult, Simulator, execute
from .errors import ReproError
from .learn import (
    BanditAdvisor,
    DopDecision,
    ExperienceRecord,
    ExperienceStore,
    machine_signature,
    plan_signature,
    resolve_policy,
)
from .observe import Observer
from .plan import Plan, PlanBuilder, format_plan, plan_stats, validate_plan
from .sql import plan_sql
from .storage import BAT, Candidates, Catalog, Column, Scalar, Table
from .workloads import TpcdsDataset, TpchDataset

__version__ = "1.0.0"

__all__ = [
    "AdaptiveParallelizer",
    "AdaptiveResult",
    "BAT",
    "BanditAdvisor",
    "CHAOS_HEAVY",
    "CHAOS_LIGHT",
    "Candidates",
    "Catalog",
    "ClientSpec",
    "ClosedLoop",
    "Column",
    "ConvergenceParams",
    "ConvergenceTracker",
    "DopDecision",
    "ExecutionResult",
    "ExperienceRecord",
    "ExperienceStore",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "HeuristicParallelizer",
    "MachineSpec",
    "NOISY",
    "NoiseConfig",
    "Observer",
    "Plan",
    "PlanBuilder",
    "PlanMutator",
    "QUIET",
    "ReproError",
    "ResilienceConfig",
    "ResilientWorkload",
    "Scalar",
    "SimulationConfig",
    "Simulator",
    "Table",
    "TpcdsDataset",
    "TpchDataset",
    "WorkStealingConfig",
    "WorkStealingExecutor",
    "WorkloadReport",
    "execute",
    "format_plan",
    "four_socket_machine",
    "laptop_machine",
    "machine_signature",
    "plan_signature",
    "plan_sql",
    "plan_stats",
    "resolve_policy",
    "two_socket_machine",
    "validate_plan",
    "__version__",
]
