"""The shared planning substrate threaded through every rewriting stage.

A :class:`PlannerContext` bundles

* one :class:`~repro.datalog.interning.InternTable` (cheap structural
  keys for atoms and queries),
* one :class:`~repro.containment.memo.ContainmentCache` (memoized
  minimization, canonical databases, containment, plus the
  homomorphism-search counter),
* planner-level caches: tuple-cores keyed by
  ``(query, view definition, view-tuple atom)`` and view-tuple rows keyed
  by ``(query, view definition)`` — the two places the CoreCover stages
  re-derive identical results when a catalog contains structurally
  duplicate views (Section 5.2's motivation), and
* instrumentation: per-cache hit/miss counters, per-stage wall times, and
  search counts, snapshotted into an immutable :class:`PlannerStats`.

Every algorithm accepts an optional ``context``; passing one shares the
caches across calls (e.g. across the 40 queries of a Figure 6 sweep
point), omitting it gives each call a private context.  Construct with
``caching=False`` to keep the counters but disable all memoization — the
property tests use this to check cached and uncached runs agree.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from ..containment.memo import CacheCounter, ContainmentCache
from ..datalog.atoms import Atom
from ..datalog.interning import InternTable
from ..datalog.query import ConjunctiveQuery
from ..datalog.substitution import Substitution
from ..datalog.terms import Term
from .limits import AnytimeRewriting, BudgetMeter, ResourceBudget

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..containment.canonical import CanonicalDatabase
    from ..core.tuple_core import TupleCore
    from ..core.view_tuples import ViewTuple
    from ..views.view import View

__all__ = ["PlannerContext", "PlannerStats"]

#: Head predicate used when interning view definitions name-independently.
_VIEWDEF_MARKER = "__viewdef__"


@dataclass(frozen=True)
class PlannerStats:
    """An immutable snapshot of a context's instrumentation.

    ``since`` subtracts an earlier snapshot, yielding per-run numbers even
    when one context is shared across many runs.
    """

    caching_enabled: bool
    hom_searches: int
    core_searches: int
    cache_hits: int
    cache_misses: int
    #: ``(cache name, hits, misses)`` per cache, sorted by name.
    caches: tuple[tuple[str, int, int], ...]
    #: ``(stage name, seconds)`` per stage, in first-seen order.
    stages: tuple[tuple[str, float], ...]
    #: Work units expanded by homomorphism searches (see
    #: :meth:`ContainmentCache.record_nodes`).
    hom_nodes: int = 0
    #: Always 0 (the acyclic fast path was removed); kept only because
    #: ``perfbench/bench_inproc.py`` still reads it.
    fast_path_searches: int = 0

    @property
    def cache_lookups(self) -> int:
        """Total cache lookups."""
        return self.cache_hits + self.cache_misses

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when unused)."""
        total = self.cache_lookups
        return self.cache_hits / total if total else 0.0

    def since(self, earlier: "PlannerStats") -> "PlannerStats":
        """This snapshot minus *earlier* (counters and stage times)."""
        earlier_caches = {name: (h, m) for name, h, m in earlier.caches}
        caches = tuple(
            (name, hits - earlier_caches.get(name, (0, 0))[0],
             misses - earlier_caches.get(name, (0, 0))[1])
            for name, hits, misses in self.caches
        )
        earlier_stages = dict(earlier.stages)
        stages = tuple(
            (name, seconds - earlier_stages.get(name, 0.0))
            for name, seconds in self.stages
        )
        return PlannerStats(
            caching_enabled=self.caching_enabled,
            hom_searches=self.hom_searches - earlier.hom_searches,
            core_searches=self.core_searches - earlier.core_searches,
            cache_hits=self.cache_hits - earlier.cache_hits,
            cache_misses=self.cache_misses - earlier.cache_misses,
            caches=caches,
            stages=stages,
            hom_nodes=self.hom_nodes - earlier.hom_nodes,
        )


class PlannerContext:
    """Interning + memoization + instrumentation for one planning session."""

    def __init__(
        self,
        *,
        caching: bool = True,
        interner: InternTable | None = None,
        budget: ResourceBudget | None = None,
    ) -> None:
        self.interner = interner if interner is not None else InternTable()
        self.caching = caching
        self.containment = ContainmentCache(self.interner, caching=caching)
        #: Number of tuple-core backtracking searches actually performed.
        self.core_searches = 0
        #: Accumulated wall time per pipeline stage.
        self.stage_seconds: dict[str, float] = {}
        self.counters: dict[str, CacheCounter] = self.containment.counters
        self.counters["tuple_core"] = CacheCounter()
        self.counters["view_rows"] = CacheCounter()
        self._tuple_cores: dict[tuple, tuple[frozenset[int], Substitution]] = {}
        self._view_rows: dict[tuple, tuple[tuple[Term, ...], ...]] = {}
        self._view_def_keys: dict[int, tuple] = {}
        self._keepalive: list[object] = []
        #: Live budget meter; ``None`` means unbudgeted.  A budget given
        #: here anchors its deadline at construction; ``plan(budget=...)``
        #: instead installs a per-call meter via :meth:`budgeted`.
        self.meter: BudgetMeter | None = (
            budget.start() if budget is not None else None
        )
        self.containment.meter = self.meter
        #: Anytime-rewriting collector; active only inside a ``plan()``
        #: call (see :meth:`collecting`).
        self._partials: list[AnytimeRewriting] | None = None

    # -- resource budgets -------------------------------------------------------
    def checkpoint(self) -> None:
        """Cooperative cancellation point: raise if the budget ran out."""
        meter = self.meter
        if meter is not None:
            meter.checkpoint()

    def charge_view_tuple(self) -> None:
        """Charge one enumerated view tuple against the budget."""
        meter = self.meter
        if meter is not None:
            meter.charge_view_tuple()

    @contextmanager
    def budgeted(self, budget: ResourceBudget | None) -> Iterator[BudgetMeter | None]:
        """Install a fresh meter for *budget* for the duration of the block.

        With ``budget=None`` the context's own meter (if any) stays in
        charge.  The deadline is anchored when the block is entered, so a
        shared context can serve many deadline-bounded calls.
        """
        if budget is None:
            yield self.meter
            return
        meter = budget.start()
        previous = self.meter
        self.meter = meter
        self.containment.meter = meter
        try:
            yield meter
        finally:
            self.meter = previous
            self.containment.meter = previous

    @contextmanager
    def collecting(self) -> Iterator[list[AnytimeRewriting]]:
        """Collect anytime rewritings recorded during the block."""
        previous = self._partials
        collected: list[AnytimeRewriting] = []
        self._partials = collected
        try:
            yield collected
        finally:
            self._partials = previous

    def record_rewriting(
        self, rewriting: ConjunctiveQuery, *, certified: bool
    ) -> None:
        """Record a best-so-far rewriting the moment a backend finds it.

        ``certified`` must be ``True`` only once the rewriting's
        equivalence proof has fully completed — the anytime invariant the
        chaos tests assert.  Recording charges ``max_rewritings``; the
        raise happens *before* the over-budget rewriting is appended, so
        the collected list never exceeds the cap.
        """
        meter = self.meter
        if meter is not None:
            meter.charge_rewriting()
        if self._partials is not None:
            self._partials.append(AnytimeRewriting(rewriting, certified))

    # -- delegated containment operations -------------------------------------
    def minimize(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """Memoized query minimization."""
        return self.containment.minimize(query)

    def canonical_database(self, query: ConjunctiveQuery) -> "CanonicalDatabase":
        """Memoized canonical (frozen) database."""
        return self.containment.canonical_database(query)

    def is_contained_in(
        self, inner: ConjunctiveQuery, outer: ConjunctiveQuery
    ) -> bool:
        """Memoized Chandra-Merlin containment test."""
        return self.containment.is_contained_in(inner, outer)

    def is_equivalent_to(
        self, left: ConjunctiveQuery, right: ConjunctiveQuery
    ) -> bool:
        """Memoized equivalence (two cached containment tests)."""
        return self.containment.is_equivalent_to(left, right)

    def mapping_exists(
        self, outer: ConjunctiveQuery, inner: ConjunctiveQuery
    ) -> bool:
        """Memoized containment-mapping existence (no comparison check)."""
        return self.containment.mapping_exists(outer, inner)

    def observing(self):
        """Attribute homomorphism searches in the block to this context."""
        return self.containment.observing()

    @property
    def hom_searches(self) -> int:
        """Homomorphism searches performed under this context."""
        return self.containment.hom_searches

    @property
    def hom_nodes(self) -> int:
        """Search work units expanded under this context."""
        return self.containment.hom_nodes

    # -- view-definition interning ---------------------------------------------
    def view_definition_key(self, view: "View") -> tuple:
        """A name-independent structural key for a view's definition.

        Views are compared by head arguments plus body, so equivalent
        catalog entries with different names (V1 and V5 of the
        car-loc-part example) share cached tuple-cores and view rows.
        """
        cached = self._view_def_keys.get(id(view))
        if cached is not None:
            return cached
        definition = view.definition
        key = (
            self.interner.atom_key(Atom(_VIEWDEF_MARKER, definition.head.args)),
            self.interner.atoms_key(definition.body),
        )
        self._view_def_keys[id(view)] = key
        self._keepalive.append(view)
        return key

    def retire_views(self, views: "Iterable[View]") -> int:
        """Evict memoized work for view definitions leaving the catalog.

        Called on a catalog delta for the *removed* views.  Every planner
        cache is keyed on structural content, so entries can never go
        stale — retiring is memory hygiene only, releasing tuple-cores,
        view rows, and containment results that the shrunk catalog can no
        longer ask for.  A definition still present under another view
        name is simply recomputed on its next use.  Returns the number of
        entries dropped.
        """
        def_keys = {self.view_definition_key(view) for view in views}
        if not def_keys:
            return 0
        dropped = 0
        for cache in (self._tuple_cores, self._view_rows):
            for key in [k for k in cache if k[1] in def_keys]:
                del cache[key]
                dropped += 1
        query_keys = {
            self.interner.query_key(view.definition) for view in views
        }
        dropped += self.containment.evict_query_keys(query_keys)
        for view in views:
            self._view_def_keys.pop(id(view), None)
        return dropped

    # -- tuple-core cache -------------------------------------------------------
    def tuple_core(
        self, query: ConjunctiveQuery, view_tuple: "ViewTuple"
    ) -> "TupleCore":
        """Memoized tuple-core computation (Definition 4.1).

        The core depends only on the query, the view's definition, and the
        view tuple's atom arguments — never on the view's *name* — so the
        cache key drops the name and structurally duplicate views hit.
        """
        from ..core.tuple_core import TupleCore, tuple_core as compute

        checkpoint = self.meter.checkpoint if self.meter is not None else None
        counter = self.counters["tuple_core"]
        if not self.caching:
            counter.misses += 1
            self.core_searches += 1
            return compute(query, view_tuple, checkpoint=checkpoint)
        key = (
            self.interner.query_key(query),
            self.view_definition_key(view_tuple.view),
            self.interner.atom_key(
                Atom(_VIEWDEF_MARKER, view_tuple.atom.args)
            ),
        )
        cached = self._tuple_cores.get(key)
        if cached is not None:
            counter.hits += 1
            covered, mapping = cached
            return TupleCore(view_tuple, covered, mapping)
        counter.misses += 1
        self.core_searches += 1
        core = compute(query, view_tuple, checkpoint=checkpoint)
        self._tuple_cores[key] = (core.covered, core.mapping)
        return core

    # -- view-evaluation cache ---------------------------------------------------
    def view_tuple_args(
        self,
        query: ConjunctiveQuery,
        view: "View",
        compute: Callable[[], tuple[tuple[Term, ...], ...]],
    ) -> tuple[tuple[Term, ...], ...]:
        """Memoized thawed answer rows of *view* over *query*'s canonical DB.

        ``compute`` must return the sorted tuple of argument tuples; the
        cache key is (query, view definition), so equally-defined views
        evaluated against the same canonical database share one
        evaluation.
        """
        counter = self.counters["view_rows"]
        if not self.caching:
            counter.misses += 1
            return compute()
        key = (
            self.interner.query_key(query),
            self.view_definition_key(view),
        )
        cached = self._view_rows.get(key)
        if cached is not None:
            counter.hits += 1
            return cached
        counter.misses += 1
        rows = compute()
        self._view_rows[key] = rows
        return rows

    # -- stage timing --------------------------------------------------------------
    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Accumulate wall time of the block under *name*."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.stage_seconds[name] = (
                self.stage_seconds.get(name, 0.0) + elapsed
            )

    # -- aggregate counters -----------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Hits summed over every cache."""
        return sum(counter.hits for counter in self.counters.values())

    @property
    def cache_misses(self) -> int:
        """Misses summed over every cache."""
        return sum(counter.misses for counter in self.counters.values())

    @property
    def cache_hit_rate(self) -> float:
        """Overall fraction of cache lookups served from cache."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def snapshot(self) -> PlannerStats:
        """An immutable snapshot of all counters and stage times."""
        return PlannerStats(
            caching_enabled=self.caching,
            hom_searches=self.hom_searches,
            core_searches=self.core_searches,
            cache_hits=self.cache_hits,
            cache_misses=self.cache_misses,
            caches=tuple(
                (name, counter.hits, counter.misses)
                for name, counter in sorted(self.counters.items())
            ),
            stages=tuple(self.stage_seconds.items()),
            hom_nodes=self.hom_nodes,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlannerContext(caching={self.caching}, "
            f"hom_searches={self.hom_searches}, "
            f"hits={self.cache_hits}, misses={self.cache_misses})"
        )
