"""The supervised worker pool and its warm planner-context pools.

Public surface:

* :class:`SupervisedWorkerPool` / :class:`SupervisorPolicy` — the one
  process pool: heartbeat supervision, crash isolation with restart,
  recycling, drain-aware shutdown.  The :mod:`repro.serve` daemon keeps
  one resident; ``repro batch --workers N`` runs a finite workload
  through :meth:`SupervisedWorkerPool.map`, outcomes in input order.
  Per-worker breaker deltas merge into a :class:`BreakerScoreboard`.
* :class:`WorkerState` / :class:`WorkerConfig` — what each worker
  process holds: a resilient executor plus a warm context pool.
* :class:`PlannerContextPool` / :func:`catalog_fingerprint` — the warm
  context pool and its structured, delta-aware catalog fingerprint.
"""

from .supervisor import (
    BreakerScoreboard,
    SupervisedWorkerPool,
    SupervisorPolicy,
)
from .pool import (
    CatalogFingerprint,
    PlannerContextPool,
    catalog_fingerprint,
)
from .worker import (
    WorkerConfig,
    WorkerResult,
    WorkerState,
    WorkerTask,
    crash_outcome,
)

__all__ = [
    "BreakerScoreboard",
    "CatalogFingerprint",
    "PlannerContextPool",
    "SupervisedWorkerPool",
    "SupervisorPolicy",
    "WorkerConfig",
    "WorkerResult",
    "WorkerState",
    "WorkerTask",
    "catalog_fingerprint",
    "crash_outcome",
]
