"""The structured exception taxonomy shared by every layer.

Everything the package raises *by design* derives from :class:`ReproError`,
so callers embedding the planner (the CLI, the mediator, a serving tier)
can distinguish

* **input errors** — the query or view text is malformed
  (:class:`ParseError` and its refinements
  :class:`UnsafeQueryError`, :class:`ArityMismatchError`,
  :class:`DuplicateViewError`), a referenced view does not exist
  (:class:`UnknownViewError`), or the query falls outside the supported
  fragment (:class:`UnsupportedQueryError`); from
* **resource errors** — a :class:`repro.planner.limits.ResourceBudget`
  was exhausted (:class:`BudgetExceededError`), which in non-strict mode
  the planner converts into an anytime
  :class:`~repro.planner.limits.PlanOutcome` instead of raising; from
* **service errors** — the :mod:`repro.service` resilient executor ran
  out of options: every backend in the failover chain failed
  (:class:`RetryExhaustedError`), every breaker was open
  (:class:`CircuitOpenError`), a parallel worker died mid-request
  (:class:`WorkerCrashError`), or the on-disk plan cache is unusable
  (:class:`CacheCorruptionError`); all derive from
  :class:`ServiceError`.  The :mod:`repro.serve` daemon adds two
  admission-control refinements: the request was load-shed at intake
  (:class:`OverloadError`, with a ``Retry-After``-style hint) or the
  daemon is draining and no longer admits work
  (:class:`ShuttingDownError`); and one durability refinement: a
  catalog recovered from the write-ahead journal failed content-root
  verification and is quarantined (:class:`CatalogCorruptionError`).

Backwards compatibility: the refined classes keep subclassing the
built-in exceptions historically raised at the same sites
(``ValueError`` for parse/validation problems, ``KeyError`` for missing
views, ``LookupError`` for registry misses), so pre-existing ``except``
clauses keep working.

Each class carries a distinct ``exit_code`` (sysexits-style, ≥ 64) which
the CLI maps to its process exit status alongside a one-line structured
error on stderr; see :func:`structured_error`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

__all__ = [
    "AnalysisError",
    "ArityMismatchError",
    "BudgetExceededError",
    "CacheCorruptionError",
    "CatalogCorruptionError",
    "CircuitOpenError",
    "DuplicateViewError",
    "MalformedQueryError",
    "OverloadError",
    "ParseError",
    "ReproError",
    "RetryExhaustedError",
    "ServiceError",
    "ShuttingDownError",
    "SourceSpan",
    "UnknownViewError",
    "UnsafeQueryError",
    "UnsupportedQueryError",
    "WorkerCrashError",
    "structured_error",
]


@dataclass(frozen=True)
class SourceSpan:
    """A half-open ``[start, end)`` character range in some source text.

    ``line``/``column`` are 1-based and locate ``start``.  Spans are
    attached to parse-level errors (``error.span``) and to the atoms and
    rules recorded in a :class:`repro.datalog.parser.SourceMap`, which is
    what lets the :mod:`repro.analysis` lint engine point a diagnostic at
    the exact source range that caused it.
    """

    start: int
    end: int
    line: int = 1
    column: int = 1

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(f"invalid span [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        """Number of characters covered."""
        return self.end - self.start

    def shifted(self, *, offset: int = 0, lines: int = 0) -> "SourceSpan":
        """This span translated by *offset* characters and *lines* lines."""
        return SourceSpan(
            self.start + offset, self.end + offset, self.line + lines, self.column
        )

    def to_json(self) -> dict:
        """A JSON-ready rendering (used by ``structured_error`` and SARIF)."""
        return {
            "start": self.start,
            "end": self.end,
            "line": self.line,
            "column": self.column,
        }

    def __str__(self) -> str:
        return f"offset {self.start} (line {self.line}, column {self.column})"


class ReproError(Exception):
    """Base class of every error the package raises by design.

    Errors raised while processing *source text* (parsing, linting) carry
    an optional :class:`SourceSpan` in ``span`` locating the problem.
    """

    #: CLI process exit status for this error family.
    exit_code = 70  # EX_SOFTWARE: unclassified internal error

    def __init__(self, *args: object, span: SourceSpan | None = None) -> None:
        super().__init__(*args)
        self.span = span


class ParseError(ReproError, ValueError):
    """The input text is not valid datalog (syntax or structure).

    Messages include the source position (offset, line, column) where
    the tokenizer/parser can pinpoint one.
    """

    exit_code = 65  # EX_DATAERR


#: Historical name for structural query problems; kept as a
#: :class:`ParseError` refinement so old ``except MalformedQueryError``
#: clauses keep catching exactly what they used to.
class MalformedQueryError(ParseError):
    """A query violates a structural requirement (e.g. safety)."""


class UnsafeQueryError(MalformedQueryError):
    """A head variable does not occur in the body (Section 2.1 safety)."""

    exit_code = 66


class ArityMismatchError(ParseError):
    """One predicate is used with inconsistent arities."""

    exit_code = 67


class DuplicateViewError(ParseError):
    """Two views in one catalog share a name."""

    exit_code = 71


class UnknownViewError(ReproError, KeyError):
    """A referenced view is not registered in the catalog."""

    exit_code = 68

    def __str__(self) -> str:  # KeyError would render repr(args[0])
        return self.args[0] if self.args else ""


class UnsupportedQueryError(ReproError, ValueError):
    """The query/views fall outside the algorithm's supported fragment."""

    exit_code = 72


class AnalysisError(ReproError):
    """Static analysis found (or was asked to fail on) lint diagnostics.

    Raised by ``repro lint`` when diagnostics at or above the configured
    ``--fail-on`` severity are present, and by ``plan(preflight=True)``
    callers that ask for strict preflight.  ``diagnostics`` carries the
    offending :class:`repro.analysis.Diagnostic` records.
    """

    exit_code = 73

    def __init__(
        self,
        message: str,
        *,
        diagnostics: tuple = (),
        span: SourceSpan | None = None,
    ) -> None:
        super().__init__(message, span=span)
        self.diagnostics = tuple(diagnostics)


class BudgetExceededError(ReproError):
    """A resource budget was exhausted (strict mode, or mid-pipeline).

    ``resource`` names the exhausted dimension (``"deadline"``,
    ``"hom_searches"``, ``"view_tuples"``, ``"rewritings"``, or
    ``"fault-injection"`` when raised by the chaos harness).  In
    non-strict mode :func:`repro.planner.plan` catches this and returns a
    ``BUDGET_EXHAUSTED`` :class:`~repro.planner.limits.PlanOutcome`
    carrying the best-so-far rewritings instead.
    """

    exit_code = 69

    def __init__(self, message: str, *, resource: str | None = None) -> None:
        super().__init__(message)
        self.resource = resource


class ServiceError(ReproError):
    """Base class of the resilient-executor error family.

    Raised by :mod:`repro.service` when supervised execution — retries,
    circuit breakers, failover, the plan cache — cannot produce a
    certified answer.  The refinements carry the exit codes the
    ``repro batch`` subcommand maps to its process status.
    """

    exit_code = 70


class RetryExhaustedError(ServiceError):
    """Every backend in the failover chain was tried and failed.

    ``attempts`` counts planning attempts across the whole chain;
    ``failures`` maps backend name to the final exception it produced
    (or the reason it was skipped).
    """

    exit_code = 74

    def __init__(
        self,
        message: str,
        *,
        attempts: int = 0,
        failures: dict[str, BaseException] | None = None,
    ) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.failures = dict(failures or {})


class CircuitOpenError(ServiceError):
    """A backend was skipped because its circuit breaker is open.

    Raised to the caller only when *every* backend in the chain was
    circuit-open (otherwise failover absorbs it); ``retry_after``
    estimates seconds until the earliest breaker half-opens.
    """

    exit_code = 75

    def __init__(
        self,
        message: str,
        *,
        backend: str | None = None,
        retry_after: float | None = None,
    ) -> None:
        super().__init__(message)
        self.backend = backend
        self.retry_after = retry_after


class WorkerCrashError(ServiceError):
    """A parallel worker died or stalled while holding one request.

    Raised into the ``failed`` outcome line of exactly the request the
    dead worker was serving — sibling requests in the same batch are
    unaffected, because the supervised pool replaces the worker and
    detects a lost task by the worker's death, its task timeout, or its
    stale heartbeat.
    ``request_id`` echoes the lost request when known.
    """

    exit_code = 77

    def __init__(self, message: str, *, request_id: str | None = None) -> None:
        super().__init__(message)
        self.request_id = request_id


class CacheCorruptionError(ServiceError):
    """A plan-cache entry or the cache store itself is unusable.

    In the default (lenient) mode the cache converts entry-level
    corruption — torn writes, bit flips, truncation, checksum
    mismatches — into a *miss* and only counts it; this error reaches
    the caller when the cache root itself is unusable (e.g. the path is
    a file) or when strict mode asks corruption to be fatal.
    """

    exit_code = 76

    def __init__(self, message: str, *, path: str | None = None) -> None:
        super().__init__(message)
        self.path = path


class OverloadError(ServiceError):
    """The serving tier shed this request at admission (backpressure).

    Raised by the :mod:`repro.serve` admission controller when the
    bounded intake queue is full or a per-tenant token bucket is empty —
    *before* any planning work is spent.  ``retry_after`` is the
    ``Retry-After``-style hint (seconds) rendered into the structured
    error; ``reason`` names the shedding trigger (``"queue_full"`` or
    ``"rate_limited"``); ``queue_depth`` is the intake depth observed at
    shed time when known.
    """

    exit_code = 78

    def __init__(
        self,
        message: str,
        *,
        retry_after: float | None = None,
        reason: str | None = None,
        queue_depth: int | None = None,
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.reason = reason
        self.queue_depth = queue_depth


class CatalogCorruptionError(ServiceError):
    """A durably stored catalog failed integrity verification on recovery.

    Raised by the :mod:`repro.serve` catalog registry when a catalog
    rebuilt from the write-ahead journal / snapshot does not re-derive
    the ``catalog_content_root`` recorded at commit time (or cannot be
    rebuilt at all): the catalog is **quarantined** — requests naming it
    get this error instead of plans computed from wrong view
    definitions.  Re-registering the catalog over the wire clears the
    quarantine.  ``catalog`` names the quarantined catalog;
    ``expected_root``/``actual_root`` carry the mismatched fingerprints
    when root verification is what failed.
    """

    exit_code = 80

    def __init__(
        self,
        message: str,
        *,
        catalog: str | None = None,
        expected_root: str | None = None,
        actual_root: str | None = None,
        diagnostics: tuple = (),
    ) -> None:
        super().__init__(message)
        self.catalog = catalog
        self.expected_root = expected_root
        self.actual_root = actual_root
        self.diagnostics = tuple(diagnostics)


class ShuttingDownError(ServiceError):
    """The daemon is draining and no longer admits new requests.

    Raised at admission once a graceful drain (SIGTERM or a ``drain``
    control message) has begun: in-flight requests finish within the
    drain deadline, but new work must go elsewhere.  ``retry_after``
    hints how long the drain may take when known — after that a
    replacement instance is expected to be serving.
    """

    exit_code = 79

    def __init__(
        self, message: str, *, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after


def structured_error(error: BaseException) -> str:
    """A one-line JSON rendering of *error* for machine-readable stderr."""
    exit_code = getattr(error, "exit_code", 70)
    payload = {
        "error": type(error).__name__,
        "exit_code": exit_code,
        "message": str(error),
    }
    span = getattr(error, "span", None)
    if isinstance(span, SourceSpan):
        payload["span"] = span.to_json()
    # The Retry-After-style backpressure hint (OverloadError,
    # CircuitOpenError, ShuttingDownError) rides along so clients can
    # back off without parsing the message text.
    retry_after = getattr(error, "retry_after", None)
    if retry_after is not None:
        payload["retry_after"] = round(float(retry_after), 3)
    # AnalysisError rejections carry their offending diagnostics, so a
    # serve client (or CI log scraper) sees *which* findings failed the
    # gate, not just how many.
    diagnostics = getattr(error, "diagnostics", None)
    if diagnostics:
        payload["diagnostics"] = [
            item.to_json() if hasattr(item, "to_json") else item
            for item in diagnostics
        ]
    return json.dumps(payload, default=str)
