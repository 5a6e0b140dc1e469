"""Worker-side state for the supervised worker pool.

Each pool worker holds one :class:`WorkerState`: a resilient executor
(whose circuit breakers span every request the worker serves, matching
the serial executor's semantics) plus a warm
:class:`~repro.parallel.pool.PlannerContextPool` so repeated requests
against the same catalog reuse memoized containment work.

Everything crossing the process boundary is a small picklable
dataclass:

* :class:`WorkerTask` in — the request, its input-order index, and any
  chaos faults to activate for just this task (deterministic kill
  tests attach the fault to the poisoned task, so replacement workers
  are unaffected).
* :class:`WorkerResult` out — the outcome, breaker-counter deltas for
  the parent's scoreboard, context-pool hit/miss, and the planner-stats
  delta.  Input errors (:class:`~repro.errors.ReproError`) ride back as
  ``error`` so the parent re-raises them with the same taxonomy
  exit-code semantics as the serial path; any other worker-side
  exception degrades to a ``failed`` outcome for that request alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..errors import ReproError, ServiceError, WorkerCrashError
from ..planner.context import PlannerContext, PlannerStats
from ..service.cache import PlanCache
from ..service.executor import (
    BackendFailure,
    ExecutionOutcome,
    PlanRequest,
    ResilientExecutor,
)
from ..service.policy import ServicePolicy
from ..testing.faults import Fault, fire, inject
from .pool import PlannerContextPool

__all__ = [
    "WorkerConfig",
    "WorkerResult",
    "WorkerState",
    "WorkerTask",
    "crash_outcome",
]


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a worker needs to build its executor (picklable)."""

    policy: ServicePolicy = field(default_factory=ServicePolicy)
    cache_dir: str | None = None
    cache_ttl: float | None = None
    strict_cache: bool = False
    profile: bool = False
    pool_size: int = 4


@dataclass(frozen=True)
class WorkerTask:
    """One request dispatched to a worker, tagged with its input order."""

    index: int
    request: PlanRequest
    #: Faults activated around just this task (chaos tests only).
    chaos: tuple[Fault, ...] = ()


@dataclass(frozen=True)
class WorkerResult:
    """What one task sends back across the process boundary."""

    index: int
    outcome: ExecutionOutcome | None = None
    #: An input error the parent must re-raise (serial semantics).
    error: ReproError | None = None
    #: Per-backend ``(successes, failures)`` delta for this task.
    breaker_deltas: Mapping[str, tuple[int, int]] = field(
        default_factory=dict
    )
    fingerprint: str = ""
    pool_hit: bool = False
    #: ``"exact"`` (same catalog root), ``"delta"`` (warm context
    #: upgraded across a small catalog delta), or ``"miss"``; empty for
    #: error results.
    pool_event: str = ""
    #: Planner-stats delta of this task on its (possibly warm) context.
    stats: PlannerStats | None = None


def crash_outcome(
    request: PlanRequest, error: ServiceError
) -> ExecutionOutcome:
    """A ``failed`` outcome for a request its worker could not finish.

    Used for a worker that died or hung mid-plan
    (:class:`~repro.errors.WorkerCrashError`) and for in-flight requests
    aborted by a drain deadline
    (:class:`~repro.errors.ShuttingDownError`).
    """
    return ExecutionOutcome(
        status="failed",
        request_id=request.id,
        attempts=0,
        backend_used=None,
        degraded=False,
        cache="off",
        rewritings=(),
        plan_status=None,
        breakers={},
        failures=(
            BackendFailure(
                backend="worker",
                error=type(error).__name__,
                message=str(error),
                skipped=True,
            ),
        ),
        error=error,
    )


class WorkerState:
    """One worker's executor plus its warm planner-context pool."""

    def __init__(self, config: WorkerConfig) -> None:
        self.config = config
        self.pool = PlannerContextPool(config.pool_size)
        cache: PlanCache | None = None
        if config.cache_dir is not None:
            cache = PlanCache(
                config.cache_dir,
                ttl_seconds=config.cache_ttl,
                strict=config.strict_cache,
            )
        self._active_context: PlannerContext | None = None
        self.executor = ResilientExecutor(
            config.policy,
            cache=cache,
            profile=config.profile,
            context_factory=self._current_context,
        )

    def _current_context(self) -> PlannerContext:
        """The pooled context for the in-flight task (fresh otherwise)."""
        if self._active_context is not None:
            return self._active_context
        return PlannerContext()

    def run(self, task: WorkerTask) -> WorkerResult:
        """Serve one task, activating its chaos faults if any."""
        if task.chaos:
            with inject(*task.chaos):
                return self._run(task)
        return self._run(task)

    def _run(self, task: WorkerTask) -> WorkerResult:
        request = task.request
        try:
            fire("worker_dispatch")
            context, pool_event = self.pool.acquire_catalog(
                request.views, {"chain": list(self.executor.chain)}
            )
            fingerprint = request.views.content_root()
            self._active_context = context
            before = context.snapshot()
            totals_before = self.executor.breaker_totals()
            outcome = self.executor.execute(request)
            deltas = {
                name: (
                    successes - totals_before[name][0],
                    failures - totals_before[name][1],
                )
                for name, (successes, failures) in (
                    self.executor.breaker_totals().items()
                )
            }
            return WorkerResult(
                index=task.index,
                outcome=outcome,
                breaker_deltas=deltas,
                fingerprint=fingerprint,
                pool_hit=pool_event in ("exact", "delta"),
                pool_event=pool_event,
                stats=context.snapshot().since(before),
            )
        except ReproError as exc:
            # The request itself is bad — identical on every backend and
            # every worker.  Ship it back for the parent to re-raise so
            # the batch aborts with the same taxonomy exit code as the
            # serial path.
            return WorkerResult(index=task.index, error=exc)
        except Exception as exc:
            return WorkerResult(
                index=task.index,
                outcome=crash_outcome(
                    request,
                    WorkerCrashError(
                        f"worker failed while planning request "
                        f"{request.id!r}: {type(exc).__name__}: {exc}",
                        request_id=request.id,
                    ),
                ),
            )
        finally:
            self._active_context = None
