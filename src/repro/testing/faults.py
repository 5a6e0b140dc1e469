"""Deterministic fault injection for chaos-testing the planner.

The pipeline's long-running stages call :func:`fire` at **named injection
points**; outside a :func:`inject` block this is a near-free no-op (one
module-global ``None`` check), so production runs pay nothing.  Inside a
block, the active :class:`FaultPlan` counts every firing and triggers the
registered faults deterministically by call count — no randomness, so a
failing chaos test replays exactly.

Injection points
================

=================  ==========================================================
point              fired from
=================  ==========================================================
``hom_search``     :func:`repro.containment.homomorphism.find_homomorphisms`,
                   once per backtracking search started
``cache_lookup``   :meth:`repro.containment.memo.ContainmentCache._memoized`,
                   once per memoized containment/minimization operation
``enumeration``    :func:`repro.core.view_tuples.view_tuples` (per view
                   tuple) and the :mod:`repro.core.set_cover` branch
                   search (per node)
``service_retry``  :meth:`repro.service.ResilientExecutor.execute`, once
                   per planning attempt (before the backend runs)
``cache_read``     :meth:`repro.service.PlanCache.read`, once per plan
                   cache lookup (before touching disk)
``cache_write``    :meth:`repro.service.PlanCache.write`, once per plan
                   cache store (before the temp-file write)
``worker_dispatch``  :mod:`repro.parallel` worker task entry, once per
                     dispatched request
``catalog_delta``  :meth:`repro.views.view.ViewCatalog._commit`, once per
                   add/remove/replace delta, before the copy-on-write
                   successor state is installed
``serve_admission``  :meth:`repro.serve.admission.AdmissionController.admit`,
                     once per admission decision (after the shedding
                     checks pass, before the request is enqueued)
``serve_drain``    the :mod:`repro.serve` drain protocol and
                   :meth:`repro.parallel.supervisor.SupervisedWorkerPool.
                   shutdown`, once per drain phase transition
``worker_heartbeat``  :meth:`repro.parallel.supervisor.SupervisedWorkerPool.
                      heartbeat_sweep`, parent-side, once per monitor
                      tick over the worker slots
``journal_append``  :meth:`repro.serve.journal.CatalogJournal.append`,
                    once per record, before the framed bytes hit the file
``journal_fsync``   :meth:`repro.serve.journal.CatalogJournal.append`,
                    once per commit, after the write but before fsync
``snapshot_write``  :meth:`repro.serve.snapshot.SnapshotStore.write`,
                    once per snapshot, before the temp-file write
=================  ==========================================================

The registry is data: :func:`describe_injection_points` returns
``(name, description)`` pairs, which is what ``repro faults list``
prints — so chaos tests and docs cannot silently drift from the set of
points the production code actually fires.

Fault types
===========

* :class:`StallFault` — sleeps, simulating a homomorphism search that
  stalls; used to check the deadline still bounds the planner's return.
* :class:`RaiseFault` — raises an arbitrary exception, simulating a
  cache-layer failure; ``plan()`` under a budget must degrade this to a
  ``FAILED`` outcome rather than crash the worker.
* :class:`CancelFault` — raises
  :class:`~repro.errors.BudgetExceededError` mid-enumeration, simulating
  cancellation at an arbitrary point; ``plan()`` must return the
  certified best-so-far rewritings.
* :class:`ExitFault` — SIGKILLs the current process, simulating a
  crashed parallel worker; the engine must fail only the request the
  dead worker held.

Example::

    with inject(StallFault("hom_search", seconds=0.1)) as plan_:
        result = plan(query, views, budget=ResourceBudget(deadline_seconds=0.05))
    assert plan_.observed["hom_search"] >= 1
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import BudgetExceededError

__all__ = [
    "CancelFault",
    "ExitFault",
    "Fault",
    "FaultPlan",
    "RaiseFault",
    "StallFault",
    "describe_injection_points",
    "fault_from_spec",
    "fire",
    "inject",
    "injection_points",
]

#: Injection point -> one-line description of where it fires, in
#: firing-frequency order.  This dict is the single source of truth;
#: ``repro faults list`` renders it verbatim.
_POINT_DESCRIPTIONS: dict[str, str] = {
    "hom_search": (
        "containment homomorphism backtracking, once per search started"
    ),
    "cache_lookup": (
        "memoized containment/minimization operations in ContainmentCache"
    ),
    "enumeration": (
        "view-tuple enumeration (per tuple) and set-cover branching (per node)"
    ),
    "service_retry": (
        "resilient executor, once per planning attempt before the backend runs"
    ),
    "cache_read": "plan-cache lookup, before touching disk",
    "cache_write": "plan-cache store, before the temp-file write",
    "worker_dispatch": (
        "supervised worker pool, once per task dispatch (worker-side)"
    ),
    "catalog_delta": (
        "view-catalog mutation commit, once per add/remove/replace delta "
        "(before the copy-on-write state is installed)"
    ),
    "serve_admission": (
        "serve-daemon admission controller, once per admission decision "
        "(after shedding checks, before the request is enqueued)"
    ),
    "serve_drain": (
        "serve-daemon graceful drain, once per drain phase transition "
        "(stop-admitting, in-flight settled, pool shut down)"
    ),
    "worker_heartbeat": (
        "worker supervisor heartbeat sweep (parent-side), once per "
        "monitor tick over the worker slots"
    ),
    "journal_append": (
        "catalog write-ahead journal, once per record, before the "
        "framed bytes are written"
    ),
    "journal_fsync": (
        "catalog write-ahead journal, once per commit, after the write "
        "but before fsync makes it durable"
    ),
    "snapshot_write": (
        "catalog snapshot store, once per snapshot, before the "
        "temp-file write begins"
    ),
}

#: The canonical injection-point names, in firing-frequency order.
INJECTION_POINTS = tuple(_POINT_DESCRIPTIONS)


def injection_points() -> tuple[str, ...]:
    """The named injection points the production code fires."""
    return INJECTION_POINTS


def describe_injection_points() -> tuple[tuple[str, str], ...]:
    """``(point, description)`` pairs for every registered point."""
    return tuple(_POINT_DESCRIPTIONS.items())


@dataclass
class Fault:
    """Base class: a deterministic trigger at one injection point.

    The fault triggers on the ``after``-th firing of its point (1-based)
    and on every subsequent firing until it has triggered ``times``
    times (``None`` = forever).
    """

    point: str
    after: int = 1
    times: int | None = 1

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; "
                f"known points: {', '.join(INJECTION_POINTS)}"
            )
        if self.after < 1:
            raise ValueError("after must be >= 1 (1-based call count)")

    def trigger(self) -> None:  # pragma: no cover - overridden
        """The fault's effect; subclasses override."""

    def should_trigger(self, call_count: int, fired_count: int) -> bool:
        """Whether to trigger on the *call_count*-th firing of the point."""
        if call_count < self.after:
            return False
        return self.times is None or fired_count < self.times


@dataclass
class StallFault(Fault):
    """Simulate a stalled search: sleep for ``seconds`` when triggered."""

    seconds: float = 0.1
    sleep: Callable[[float], None] = time.sleep

    def trigger(self) -> None:
        self.sleep(self.seconds)


@dataclass
class RaiseFault(Fault):
    """Raise ``make_exception()`` when triggered (a cache-layer crash)."""

    make_exception: Callable[[], BaseException] = RuntimeError

    def trigger(self) -> None:
        raise self.make_exception()


@dataclass
class CancelFault(Fault):
    """Raise :class:`BudgetExceededError` — a mid-enumeration cancel."""

    def trigger(self) -> None:
        raise BudgetExceededError(
            f"fault injection cancelled at point {self.point!r}",
            resource="fault-injection",
        )


@dataclass
class ExitFault(Fault):
    """Hard-kill the current process — a crashed parallel worker.

    ``os.kill`` with ``SIGKILL`` bypasses every exception handler, so
    the parent's only signal is the worker's death; the supervised
    pool must turn it into a :class:`~repro.errors.WorkerCrashError`
    for that request alone.
    """

    signum: int = signal.SIGKILL

    def trigger(self) -> None:
        os.kill(os.getpid(), self.signum)


class FaultPlan:
    """The active set of faults, plus per-point firing observability.

    ``observed`` counts every :func:`fire` call per point (whether or not
    a fault triggered), so chaos tests can assert that all injection
    points were actually exercised.  ``triggered`` lists the faults that
    fired, in order.
    """

    def __init__(self, faults: tuple[Fault, ...]) -> None:
        self.faults = faults
        self.observed: dict[str, int] = {point: 0 for point in INJECTION_POINTS}
        self.triggered: list[Fault] = []
        self._fired_counts: dict[int, int] = {id(f): 0 for f in faults}

    def fire(self, point: str) -> None:
        """One firing of *point*: count it, trigger any due faults."""
        count = self.observed.get(point, 0) + 1
        self.observed[point] = count
        for fault in self.faults:
            if fault.point != point:
                continue
            fired = self._fired_counts[id(fault)]
            if fault.should_trigger(count, fired):
                self._fired_counts[id(fault)] = fired + 1
                self.triggered.append(fault)
                fault.trigger()

    def exercised_points(self) -> tuple[str, ...]:
        """The points that fired at least once, in canonical order."""
        return tuple(p for p in INJECTION_POINTS if self.observed.get(p))


def fault_from_spec(spec: str) -> Fault:
    """Parse a CLI chaos spec ``kind:point[:key=value...]`` into a fault.

    Kinds: ``kill`` (:class:`ExitFault`), ``stall`` (:class:`StallFault`,
    ``seconds=``), ``raise`` (:class:`RaiseFault`), ``cancel``
    (:class:`CancelFault`).  Common keys: ``after=N`` (1-based firing
    that triggers first), ``times=N`` or ``times=inf`` (trigger count).
    Examples::

        kill:worker_dispatch:after=10
        stall:serve_admission:seconds=0.2:times=3
        raise:cache_read:times=inf
    """
    parts = [part.strip() for part in spec.split(":")]
    if len(parts) < 2 or not parts[0] or not parts[1]:
        raise ValueError(
            f"chaos spec {spec!r} must look like kind:point[:key=value...]"
        )
    kind, point = parts[0], parts[1]
    options: dict[str, str] = {}
    for part in parts[2:]:
        if "=" not in part:
            raise ValueError(
                f"chaos spec {spec!r}: option {part!r} is not key=value"
            )
        key, _, value = part.partition("=")
        options[key.strip()] = value.strip()
    after = int(options.pop("after", "1"))
    times_raw = options.pop("times", "1")
    times = None if times_raw in ("inf", "none", "forever") else int(times_raw)
    if kind == "kill":
        fault: Fault = ExitFault(point, after=after, times=times)
    elif kind == "stall":
        seconds = float(options.pop("seconds", "0.1"))
        fault = StallFault(point, after=after, times=times, seconds=seconds)
    elif kind == "raise":
        fault = RaiseFault(point, after=after, times=times)
    elif kind == "cancel":
        fault = CancelFault(point, after=after, times=times)
    else:
        raise ValueError(
            f"chaos spec {spec!r}: unknown kind {kind!r} "
            "(expected kill/stall/raise/cancel)"
        )
    if options:
        raise ValueError(
            f"chaos spec {spec!r}: unknown options {sorted(options)}"
        )
    return fault


#: The active plan; module-global (not a contextvar) so the hot-path
#: check in :func:`fire` is a single load+is-None test.
_ACTIVE: FaultPlan | None = None


def fire(point: str) -> None:
    """Production-side hook: a near-free no-op unless faults are active."""
    if _ACTIVE is not None:
        _ACTIVE.fire(point)


@contextmanager
def inject(*faults: Fault) -> Iterator[FaultPlan]:
    """Activate *faults* for the block; yields the :class:`FaultPlan`.

    With no faults the block only *observes* firings, which is how the
    chaos suite asserts every injection point is exercised.  Nesting is
    rejected — deterministic counts require one active plan.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("fault injection is already active; no nesting")
    plan = FaultPlan(tuple(faults))
    _ACTIVE = plan
    try:
        yield plan
    finally:
        _ACTIVE = None
