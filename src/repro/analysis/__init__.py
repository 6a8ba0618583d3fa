"""Codebase-level static analysis: the kernel purity certifier.

Where :mod:`repro.plan.analysis` proves properties of *plan graphs*,
this package proves properties of the *code* the engine runs -- the
other half of the adaptive-parallelization correctness argument.  The
paper's premise is that mutated plans stay semantically equivalent to
the serial plan; that only holds if the operator kernels themselves are
pure, deterministic functions of their inputs.  Three rule families
check exactly that, over plain :mod:`ast` trees (nothing is imported or
executed):

* :mod:`~repro.analysis.purity` -- kernels must not write shared input
  buffers, module state, or instance state (taint-based aliasing
  analysis of numpy views).
* :mod:`~repro.analysis.determinism` -- no unseeded randomness, host
  clocks, ``id()``-derived keys, or unsorted set iteration outside the
  host-only module families.
* :mod:`~repro.analysis.concurrency` -- pool-reachable code follows the
  repo's locking idioms; kernels never mutate ``self``.

Verdicts are materialized as per-operator **purity certificates**
(:mod:`~repro.analysis.certificates`), which guard the memo's reuse of
intermediates across operators and runs, and the **runtime sanitizer**
(:mod:`~repro.analysis.sanitize`) cross-checks at execution time what
static analysis cannot see.  The ``repro analyze`` CLI runs the whole
thing over the repo; see ``docs/static_analysis.md``.
"""

from .certificates import (
    CERTIFICATE_VERSION,
    CertificateRegistry,
    OperatorCertificate,
    build_registry,
    certify_type,
    registered_operator_classes,
)
from .concurrency import POOL_REACHABLE_PREFIXES, ConcurrencyRule
from .determinism import HOST_ONLY_PREFIXES, DeterminismRule
from .diagnostics import (
    SEVERITIES,
    AnalysisReport,
    Diagnostic,
    exit_code,
    report_document,
)
from .framework import (
    Baseline,
    CodeContext,
    CodeRule,
    Suppression,
    analyze_files,
    analyze_modules,
    default_rules,
)
from .purity import KERNEL_METHODS, KernelEffects, PurityRule, analyze_kernel
from .sanitize import Sanitizer, checksum_intermediate, verify_dual_run
from .source import SourceModule, default_package_path, discover, parse_file

__all__ = [
    "AnalysisReport",
    "Baseline",
    "CERTIFICATE_VERSION",
    "CertificateRegistry",
    "CodeContext",
    "CodeRule",
    "ConcurrencyRule",
    "DeterminismRule",
    "Diagnostic",
    "HOST_ONLY_PREFIXES",
    "KERNEL_METHODS",
    "KernelEffects",
    "OperatorCertificate",
    "POOL_REACHABLE_PREFIXES",
    "PurityRule",
    "SEVERITIES",
    "Sanitizer",
    "SourceModule",
    "Suppression",
    "analyze_files",
    "analyze_kernel",
    "analyze_modules",
    "build_registry",
    "certify_type",
    "checksum_intermediate",
    "default_package_path",
    "default_rules",
    "discover",
    "exit_code",
    "parse_file",
    "registered_operator_classes",
    "report_document",
    "verify_dual_run",
]
