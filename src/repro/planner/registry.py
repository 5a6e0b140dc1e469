"""The rewriter-backend registry and the unified ``plan()`` entry point.

Every rewriting algorithm in the package — CoreCover and CoreCover*
(Sections 4/5), the naive Theorem 3.1 search, and the Bucket, MiniCon and
inverse-rules baselines — is registered as a :class:`RewriterBackend` and
runs through one call path::

    from repro.planner import plan

    result = plan(query, views, backend="corecover")
    result.rewritings          # the equivalent rewritings found
    result.details             # backend-specific result object
    result.stats               # PlannerStats: cache hits, hom searches, stages

    chosen = plan(query, views, backend="corecover-star",
                  cost_model="m2", database=view_db).chosen

Cost models are resolved by name from :mod:`repro.cost.registry`.  The
legacy entry points (``core_cover``, ``bucket_algorithm``, ``minicon``,
``naive_gmr_search``) are thin shims over this function, so both spellings
stay in lockstep.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..datalog.query import ConjunctiveQuery
from ..errors import BudgetExceededError, ReproError
from ..views.view import View, ViewCatalog
from .context import PlannerContext, PlannerStats
from .limits import AnytimeRewriting, PlanOutcome, PlanStatus, ResourceBudget

__all__ = [
    "PlanResult",
    "RewriterBackend",
    "UnknownBackendError",
    "available_backends",
    "get_backend",
    "plan",
    "register_backend",
]


class UnknownBackendError(ReproError, LookupError):
    """Raised when a backend name does not resolve."""


@dataclass(frozen=True)
class RewriterBackend:
    """A named rewriting algorithm.

    ``run`` receives ``(query, catalog, context=..., **options)`` and
    returns ``(rewritings, details)``: the tuple of equivalent rewritings
    and the algorithm's native result object (e.g. ``CoreCoverResult``,
    ``MiniConResult``).
    """

    name: str
    description: str
    run: Callable[..., tuple[tuple[ConjunctiveQuery, ...], object]]
    #: False for backends (inverse rules) that emit a maximally-contained
    #: program instead of equivalent rewritings.
    produces_rewritings: bool = True


@dataclass(frozen=True)
class PlanResult:
    """Everything one ``plan()`` call produced."""

    backend: str
    query: ConjunctiveQuery
    views: ViewCatalog
    rewritings: tuple[ConjunctiveQuery, ...]
    #: The backend's native result (CoreCoverResult, BucketResult, ...).
    details: object
    context: PlannerContext
    #: Instrumentation for this call only (deltas when the context is shared).
    stats: PlannerStats
    cost_model: str | None = None
    #: The cost model's winning plan, when a cost model was requested.
    chosen: object | None = None
    #: Anytime envelope: status, best-so-far rewritings, certification.
    outcome: PlanOutcome | None = None
    #: The preflight :class:`~repro.analysis.AnalysisReport`
    #: (``preflight=True`` only).
    analysis: object | None = None

    @property
    def has_rewriting(self) -> bool:
        """Whether any equivalent rewriting was found."""
        return bool(self.rewritings)

    @property
    def diagnostics(self) -> tuple:
        """The preflight diagnostics (empty without ``preflight=True``)."""
        return self.outcome.diagnostics if self.outcome is not None else ()

    def phase_profile(self, *, parse_seconds: float = 0.0):
        """This call's stage timings folded into the canonical phases.

        Returns a :class:`~repro.profiling.phases.PhaseProfile`;
        *parse_seconds* supplies the pre-planning parse phase.
        """
        from ..profiling.phases import profile_from_stages

        return profile_from_stages(
            self.stats.stages, parse_seconds=parse_seconds
        )


_BACKENDS: dict[str, RewriterBackend] = {}


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_backend(
    backend: RewriterBackend, *, replace: bool = False
) -> RewriterBackend:
    """Register *backend* under its (normalized) name."""
    key = _normalize(backend.name)
    if not replace and key in _BACKENDS:
        raise ValueError(f"backend {key!r} is already registered")
    _BACKENDS[key] = backend
    return backend


def available_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> RewriterBackend:
    """Resolve a backend by name.

    Raises :class:`UnknownBackendError` listing the registered backends
    when the lookup fails.
    """
    key = _normalize(name)
    backend = _BACKENDS.get(key)
    if backend is None:
        registered = ", ".join(available_backends()) or "(none)"
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: {registered}"
        )
    return backend


def plan(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    *,
    backend: str = "corecover",
    cost_model: str | None = None,
    context: PlannerContext | None = None,
    database=None,
    statistics=None,
    cost_options: dict | None = None,
    budget: ResourceBudget | None = None,
    strict_budget: bool = False,
    preflight: bool = False,
    **options,
) -> PlanResult:
    """Rewrite *query* using *views* with one backend, optionally costed.

    ``options`` are forwarded to the backend (e.g. ``max_rewritings`` for
    ``corecover-star``, ``require_equivalent`` for ``minicon``).
    ``cost_options`` are forwarded to the cost model's selector (e.g.
    ``annotator`` for ``m3``).  Passing a shared ``context`` reuses its
    caches; ``result.stats`` always reports this call's deltas.

    With ``preflight=True`` the :mod:`repro.analysis` lint engine runs
    first on the same context (sharing its memoized containment work with
    the backend).  Error-severity diagnostics short-circuit the call: the
    returned outcome has status ``REJECTED``, carries the diagnostics,
    and the backend never runs.  On a clean preflight the diagnostics
    (warnings/infos) ride along on ``result.outcome.diagnostics`` and the
    full report on ``result.analysis``.

    With a ``budget`` (or a budgeted context), the call is **anytime**:
    budget exhaustion does not raise — ``result.outcome`` carries status
    ``BUDGET_EXHAUSTED`` plus the best-so-far rewritings, each flagged
    with whether its equivalence proof completed (*certified*).  Pass
    ``strict_budget=True`` (or ``budget.strict``) to get the
    :class:`~repro.errors.BudgetExceededError` raise instead.  Input
    errors (:class:`~repro.errors.ReproError` subclasses such as parse or
    arity failures) always propagate; they are not degradation.
    """
    catalog = views if isinstance(views, ViewCatalog) else ViewCatalog(views)
    ctx = context if context is not None else PlannerContext()
    before = ctx.snapshot()
    resolved = get_backend(backend)

    report = None
    if preflight:
        # Imported lazily: repro.analysis itself imports this registry.
        from ..analysis import PlannerConfig, analyze

        preflight_started = time.perf_counter()
        with ctx.stage("preflight"):
            report = analyze(
                query,
                catalog,
                config=PlannerConfig(
                    backend=resolved.name,
                    cost_model=cost_model,
                    has_database=database is not None,
                    has_statistics=statistics is not None,
                ),
                context=ctx,
            )
        if not report.ok:
            outcome = PlanOutcome(
                status=PlanStatus.REJECTED,
                rewritings=(),
                elapsed_seconds=time.perf_counter() - preflight_started,
                diagnostics=report.diagnostics,
            )
            return PlanResult(
                backend=resolved.name,
                query=query,
                views=catalog,
                rewritings=(),
                details=None,
                context=ctx,
                stats=ctx.snapshot().since(before),
                outcome=outcome,
                analysis=report,
            )

    active_budget = budget
    if active_budget is None and ctx.meter is not None:
        active_budget = ctx.meter.budget
    strict = strict_budget or (
        active_budget is not None and active_budget.strict
    )

    started = time.perf_counter()
    status = PlanStatus.COMPLETE
    exhausted_resource: str | None = None
    error: BaseException | None = None
    rewritings: tuple[ConjunctiveQuery, ...] = ()
    details: object = None
    with ctx.collecting() as partials:
        with ctx.budgeted(budget) as meter:
            try:
                with ctx.stage(f"rewrite:{resolved.name}"):
                    rewritings, details = resolved.run(
                        query, catalog, context=ctx, **options
                    )
            except BudgetExceededError as exc:
                if strict:
                    raise
                status = PlanStatus.BUDGET_EXHAUSTED
                exhausted_resource = exc.resource or (
                    meter.exhausted_resource if meter is not None else None
                )
            except ReproError:
                raise  # input errors are never degradation
            except Exception as exc:
                if active_budget is None or strict:
                    raise
                # Degraded mode: an unexpected failure (e.g. an injected
                # fault) under a budget still yields the best-so-far.
                status = PlanStatus.FAILED
                error = exc
    elapsed = time.perf_counter() - started

    if status is PlanStatus.COMPLETE:
        anytime = tuple(
            AnytimeRewriting(rewriting, certified=True)
            for rewriting in rewritings
        )
    else:
        anytime = tuple(partials)
        rewritings = tuple(r.query for r in anytime if r.certified)
    outcome = PlanOutcome(
        status=status,
        rewritings=anytime,
        exhausted_resource=exhausted_resource,
        error=error,
        elapsed_seconds=elapsed,
        diagnostics=report.diagnostics if report is not None else (),
    )

    chosen = None
    model_name: str | None = None
    if cost_model is not None and status is PlanStatus.COMPLETE:
        from ..cost.registry import get_cost_model

        model = get_cost_model(cost_model)
        model_name = model.name
        with ctx.stage(f"cost:{model.name}"):
            chosen = model.select(
                rewritings,
                query=query,
                views=catalog,
                database=database,
                statistics=statistics,
                **(cost_options or {}),
            )

    return PlanResult(
        backend=resolved.name,
        query=query,
        views=catalog,
        rewritings=tuple(rewritings),
        details=details,
        context=ctx,
        stats=ctx.snapshot().since(before),
        cost_model=model_name,
        chosen=chosen,
        outcome=outcome,
        analysis=report,
    )


# Register the built-in backends on first import of the registry.
from . import backends as _backends  # noqa: E402,F401  (registration side effect)
