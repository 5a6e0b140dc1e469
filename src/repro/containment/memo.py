"""Memoized containment operations (the planner's caching layer).

Every stage of the rewriting pipeline — view-equivalence grouping, view
tuples, tuple-cores, the M2/M3 optimizer's rewriting checks — bottoms out
in the same Chandra-Merlin homomorphism search.  A
:class:`ContainmentCache` memoizes the *results* of those searches keyed
on interned structural keys (:mod:`repro.datalog.interning`), so repeated
questions about structurally identical queries are answered without
re-running the backtracking search.

The cache also doubles as the pipeline's instrumentation point: it counts
actual homomorphism searches (via
:func:`repro.containment.homomorphism.observe_searches`) and per-cache
hit/miss rates, which :class:`repro.planner.context.PlannerContext`
surfaces through ``CoreCoverStats``, the CLI, and the benchmarks.

Soundness: keys are purely structural, so two queries only share a key
when they are equal atom-for-atom — a cached answer is always the answer
the underlying function would have computed.  Renamed-but-equivalent
queries get distinct keys (a miss, never a wrong hit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from ..datalog.interning import InternTable
from ..datalog.query import ConjunctiveQuery
from ..testing.faults import fire
from .canonical import CanonicalDatabase, canonical_database
from .containment import containment_mapping, is_contained_in
from .homomorphism import cancellation_scope, observe_searches
from .minimize import minimize

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner.limits import BudgetMeter

__all__ = ["CacheCounter", "ContainmentCache"]

T = TypeVar("T")


@dataclass
class CacheCounter:
    """Hit/miss counters for one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class ContainmentCache:
    """Memoizes minimization, canonical databases, and containment tests.

    With ``caching=False`` every operation recomputes (counters still
    track searches), which is how the property tests compare cached and
    cache-disabled runs for identical results.
    """

    def __init__(
        self, interner: InternTable | None = None, *, caching: bool = True
    ) -> None:
        self.interner = interner if interner is not None else InternTable()
        self.caching = caching
        #: Number of homomorphism searches actually performed.
        self.hom_searches = 0
        #: Work units (backtracking entries + candidate unifications)
        #: expanded by those searches.
        self.hom_nodes = 0
        #: Active resource-budget meter, set by the PlannerContext.  Each
        #: recorded search is charged against it, and its ``checkpoint``
        #: is installed as the backtracking cancellation hook.
        self.meter: "BudgetMeter | None" = None
        self.counters: dict[str, CacheCounter] = {
            "minimize": CacheCounter(),
            "canonical": CacheCounter(),
            "containment": CacheCounter(),
            "mapping": CacheCounter(),
        }
        self._minimize: dict[int, ConjunctiveQuery] = {}
        self._canonical: dict[int, CanonicalDatabase] = {}
        self._containment: dict[tuple[int, int], bool] = {}
        self._mapping: dict[tuple[int, int], bool] = {}

    # -- search accounting ---------------------------------------------------
    def record_search(self) -> None:
        """Observer callback: one homomorphism search was started.

        With a budget meter attached the search is also charged against
        ``max_hom_searches`` (and the deadline re-checked), which is the
        cooperative-cancellation point for search-heavy stages.
        """
        self.hom_searches += 1
        if self.meter is not None:
            self.meter.charge_hom_search()

    def record_nodes(self, nodes: int) -> None:
        """Observer callback: a finished search expanded *nodes* work units."""
        self.hom_nodes += nodes

    def observing(self):
        """Context manager attributing homomorphism searches to this cache."""
        return observe_searches(self)

    # -- generic memoization -------------------------------------------------
    def _memoized(
        self,
        counter_name: str,
        cache: dict,
        key,
        compute: Callable[[], T],
    ) -> T:
        fire("cache_lookup")
        counter = self.counters[counter_name]
        if self.caching and key in cache:
            counter.hits += 1
            return cache[key]
        counter.misses += 1
        with self.observing():
            if self.meter is not None:
                # Budget exhaustion raises out of compute() before the
                # store below, so the cache never holds a partial result.
                with cancellation_scope(self.meter.checkpoint):
                    value = compute()
            else:
                value = compute()
        if self.caching:
            cache[key] = value
        return value

    # -- memoized operations ---------------------------------------------------
    def minimize(self, query: ConjunctiveQuery) -> ConjunctiveQuery:
        """Memoized :func:`repro.containment.minimize.minimize`."""
        key = self.interner.query_key(query)
        return self._memoized(
            "minimize", self._minimize, key, lambda: minimize(query)
        )

    def canonical_database(self, query: ConjunctiveQuery) -> CanonicalDatabase:
        """Memoized :func:`repro.containment.canonical.canonical_database`."""
        key = self.interner.query_key(query)
        return self._memoized(
            "canonical", self._canonical, key, lambda: canonical_database(query)
        )

    def is_contained_in(
        self, inner: ConjunctiveQuery, outer: ConjunctiveQuery
    ) -> bool:
        """Memoized ``inner ⊑ outer`` (comparison atoms still rejected)."""
        key = (self.interner.query_key(inner), self.interner.query_key(outer))
        return self._memoized(
            "containment",
            self._containment,
            key,
            lambda: is_contained_in(inner, outer),
        )

    def is_equivalent_to(
        self, left: ConjunctiveQuery, right: ConjunctiveQuery
    ) -> bool:
        """Equivalence via two (independently cached) containment tests."""
        return self.is_contained_in(left, right) and self.is_contained_in(
            right, left
        )

    def mapping_exists(
        self, outer: ConjunctiveQuery, inner: ConjunctiveQuery
    ) -> bool:
        """Memoized "some containment mapping from *outer* to *inner* exists".

        Unlike :meth:`is_contained_in` this never rejects comparison
        atoms, matching the raw :func:`containment_mapping` behaviour the
        naive search and Lemma 3.2 transformation rely on.
        """
        key = (self.interner.query_key(outer), self.interner.query_key(inner))
        return self._memoized(
            "mapping",
            self._mapping,
            key,
            lambda: containment_mapping(outer, inner) is not None,
        )

    # -- eviction --------------------------------------------------------------
    def evict_query_keys(self, keys: set) -> int:
        """Drop every cached entry involving one of the interned *keys*.

        Pure memory hygiene for incremental catalog deltas: because keys
        are structural, stale hits are impossible and eviction is never
        required for correctness — it only releases memoized work for
        view definitions that left the catalog.  Returns the number of
        entries dropped.
        """
        dropped = 0
        for cache in (self._minimize, self._canonical):
            for key in [k for k in cache if k in keys]:
                del cache[key]
                dropped += 1
        for cache in (self._containment, self._mapping):
            for pair in [p for p in cache if p[0] in keys or p[1] in keys]:
                del cache[pair]
                dropped += 1
        return dropped

    # -- aggregate counters ----------------------------------------------------
    @property
    def cache_hits(self) -> int:
        """Hits summed over all caches."""
        return sum(counter.hits for counter in self.counters.values())

    @property
    def cache_misses(self) -> int:
        """Misses summed over all caches."""
        return sum(counter.misses for counter in self.counters.values())
