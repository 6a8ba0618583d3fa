"""Weighted-fair admission, re-exported for the serve layer.

The scheduler lives in :mod:`repro.concurrency.admission`, next to the
closed-loop service core that uses it as its only admission path.
"""

from ..concurrency.admission import FairScheduler, TenantSchedStats

__all__ = ["FairScheduler", "TenantSchedStats"]
