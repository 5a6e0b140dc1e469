"""The CoreCover and CoreCover* algorithms (Sections 4 and 5).

``CoreCover`` (Figure 4) finds all globally-minimal rewritings (GMRs) of a
query — optimal under cost model M1:

1. minimize the query;
2. compute the view tuples ``T(Q, V)`` over the canonical database;
3. compute each view tuple's tuple-core;
4. cover the query subgoals with the minimum number of tuple-cores; each
   cover yields a GMR (Theorem 4.1 / Corollary 4.1).

``CoreCover*`` (Section 5.1) differs only in the last step: it enumerates
*all* irredundant covers, yielding all minimal rewritings using view
tuples — the search space guaranteed to contain an M2-optimal rewriting
(Theorem 5.1).  Empty-core view tuples are reported as candidate
*filtering subgoals* for the optimizer (rewriting P3 of the car-loc-part
example).

Both entry points accept ``group_views``/``group_tuples`` switches so the
Section 5.2 concise representation can be ablated, reproducing the
scalability argument of Section 7.

All stages run on a :class:`~repro.planner.context.PlannerContext`:
minimization, canonical databases, view evaluation, and tuple-cores are
memoized on interned structural keys, and the context's counters
(homomorphism searches, cache hits/misses) are reported through
:class:`CoreCoverStats`.  ``core_cover`` and ``core_cover_star`` are thin
shims over the :mod:`repro.planner.registry`; the implementation lives in
:func:`core_cover_impl`, which the ``corecover`` / ``corecover-star``
backends call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..datalog.query import ConjunctiveQuery
from ..errors import UnsupportedQueryError
from ..planner.context import PlannerContext
from ..profiling.phases import profile_from_stages
from ..views.view import View, ViewCatalog
from .equivalence import (
    core_representatives,
    group_cores_by_coverage,
    group_equivalent_views,
)
from .set_cover import irredundant_covers, minimum_covers
from .tuple_core import TupleCore, tuple_cores
from .view_tuples import ViewTuple, view_tuples


@dataclass(frozen=True)
class CoreCoverStats:
    """Instrumentation matching the quantities plotted in Figures 6-9.

    The planner-level fields (``hom_searches`` onward) report this run's
    deltas on the :class:`PlannerContext`: how many homomorphism and
    tuple-core searches actually ran, and how often the memoization layer
    answered instead.
    """

    total_views: int
    view_classes: int
    total_view_tuples: int
    view_tuple_classes: int
    #: Coverage classes not strictly contained in another class — the
    #: small family the paper's "bounded by the number of query subgoals"
    #: argument refers to (Section 5.2, advantage (2)).
    maximal_tuple_classes: int
    nonempty_cores: int
    elapsed_seconds: float
    minimize_seconds: float
    grouping_seconds: float
    view_tuple_seconds: float
    core_seconds: float
    cover_seconds: float
    #: Views surviving the predicate-signature prune — the only ones the
    #: grouping and view-tuple stages ever enumerated.  Equals
    #: ``total_views`` when pruning is disabled (``prune_views=False``);
    #: ``-1`` for stats built before pruning existed.
    touched_views: int = -1
    #: Whether the run's PlannerContext had memoization enabled.
    caching_enabled: bool = True
    #: Homomorphism searches actually performed during this run.
    hom_searches: int = 0
    #: Tuple-core backtracking searches actually performed.
    core_searches: int = 0
    #: Cache hits/misses summed over all planner caches, for this run.
    cache_hits: int = 0
    cache_misses: int = 0
    #: ``(canonical phase, seconds)`` in taxonomy order (see
    #: :mod:`repro.profiling.phases`); empty for stats built elsewhere.
    phase_seconds: tuple[tuple[str, float], ...] = ()
    #: Homomorphism-search work units expanded during this run.
    hom_nodes: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of cache lookups served from cache (0.0 when unused)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def touched_views_ratio(self) -> float:
        """Fraction of the catalog the planner actually enumerated.

        1.0 for an empty catalog or for stats predating the prune — the
        conservative reading ("everything was touched").
        """
        if self.touched_views < 0 or not self.total_views:
            return 1.0
        return self.touched_views / self.total_views


@dataclass(frozen=True)
class CoreCoverResult:
    """Everything CoreCover computed on the way to its rewritings."""

    query: ConjunctiveQuery
    minimized_query: ConjunctiveQuery
    view_tuples: tuple[ViewTuple, ...]
    cores: tuple[TupleCore, ...]
    rewritings: tuple[ConjunctiveQuery, ...]
    filter_candidates: tuple[ViewTuple, ...]
    stats: CoreCoverStats

    @property
    def has_rewriting(self) -> bool:
        """Whether the query has any equivalent rewriting using the views."""
        return bool(self.rewritings)

    def minimum_subgoals(self) -> int | None:
        """Number of subgoals of a GMR, or ``None`` without rewritings."""
        if not self.rewritings:
            return None
        return min(len(rewriting.body) for rewriting in self.rewritings)


def core_cover(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    group_views: bool = True,
    group_tuples: bool = True,
    *,
    prune_views: bool = True,
    context: PlannerContext | None = None,
) -> CoreCoverResult:
    """All globally-minimal rewritings of *query* using *views* (M1-optimal).

    Thin shim over ``plan(query, views, backend="corecover")``.
    """
    from ..planner.registry import plan

    return plan(
        query,
        views,
        backend="corecover",
        context=context,
        group_views=group_views,
        group_tuples=group_tuples,
        prune_views=prune_views,
    ).details


def core_cover_star(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    group_views: bool = True,
    group_tuples: bool = True,
    max_rewritings: int | None = None,
    *,
    prune_views: bool = True,
    context: PlannerContext | None = None,
) -> CoreCoverResult:
    """All minimal rewritings using view tuples (the M2 search space).

    Thin shim over ``plan(query, views, backend="corecover-star")``.
    """
    from ..planner.registry import plan

    return plan(
        query,
        views,
        backend="corecover-star",
        context=context,
        group_views=group_views,
        group_tuples=group_tuples,
        max_rewritings=max_rewritings,
        prune_views=prune_views,
    ).details


def core_cover_impl(
    query: ConjunctiveQuery,
    views: ViewCatalog | Sequence[View],
    *,
    all_minimal: bool = False,
    group_views: bool = True,
    group_tuples: bool = True,
    prune_views: bool = True,
    max_rewritings: int | None = None,
    context: PlannerContext | None = None,
) -> CoreCoverResult:
    """The CoreCover pipeline (registry backend entry point)."""
    ctx = context if context is not None else PlannerContext()
    before = ctx.snapshot()
    started = time.perf_counter()
    view_list = list(views)
    _reject_comparisons(query, view_list)

    # Step (1): minimize the query.
    t0 = time.perf_counter()
    with ctx.stage("minimize"):
        minimized = ctx.minimize(query)
    minimize_seconds = time.perf_counter() - t0

    # Predicate-signature pruning: a view sharing no (predicate, arity)
    # pair with the minimized query has no answer over its canonical
    # database — no view tuple, no core, no place in any rewriting
    # (Section 3.3) — so neither the grouping hom searches nor the
    # view-tuple evaluation need ever touch it.  A ViewCatalog answers
    # from its index; a bare sequence falls back to a signature scan.
    t0 = time.perf_counter()
    with ctx.stage("grouping"):
        if not prune_views:
            touched = view_list
        elif isinstance(views, ViewCatalog):
            touched = list(views.relevant_views(minimized))
        else:
            pairs = frozenset(
                (atom.predicate, atom.arity)
                for atom in minimized.body
                if not atom.is_comparison
            )
            touched = [
                view
                for view in view_list
                if not view.predicate_signature()
                or view.predicate_signature() & pairs
            ]

        # Section 5.2: group the surviving views into equivalence
        # classes, keep representatives.
        if group_views:
            classes = group_equivalent_views(touched, context=ctx)
            representatives = [members[0] for members in classes]
            view_classes = len(classes)
        else:
            representatives = touched
            view_classes = len(touched)
    grouping_seconds = time.perf_counter() - t0

    # Step (2): view tuples over the canonical database.  The canonical-DB
    # construction is timed as its own stage so phase profiles can show
    # freezing separately from the (usually dominant) tuple enumeration;
    # ``view_tuple_seconds`` keeps covering both, as it always has.
    t0 = time.perf_counter()
    with ctx.stage("canonical_db"):
        canonical = ctx.canonical_database(minimized)
    with ctx.stage("view_tuples"):
        tuples = view_tuples(minimized, representatives, canonical, context=ctx)
    view_tuple_seconds = time.perf_counter() - t0

    # Step (3): tuple-cores.
    t0 = time.perf_counter()
    with ctx.stage("tuple_cores"):
        cores = tuple_cores(minimized, tuples, context=ctx)
    core_seconds = time.perf_counter() - t0

    # Section 5.2 again: group view tuples by coverage.
    if group_tuples:
        working_cores = core_representatives(cores)
    else:
        working_cores = list(cores)
    coverage_sets = set(group_cores_by_coverage(cores))
    tuple_class_count = len(coverage_sets)
    maximal_tuple_classes = sum(
        1
        for covered in coverage_sets
        if covered
        and not any(covered < other for other in coverage_sets)
    )

    nonempty = [core for core in working_cores if not core.is_empty]
    empty = [core.view_tuple for core in cores if core.is_empty]

    # Step (4): cover the query subgoals.
    t0 = time.perf_counter()
    with ctx.stage("cover"):
        ctx.checkpoint()
        universe = frozenset(range(len(minimized.body)))
        cover_inputs = [core.covered for core in nonempty]
        checkpoint = ctx.meter.checkpoint if ctx.meter is not None else None
        if all_minimal:
            # Irredundant covers are additive, so each one can be recorded
            # as a certified best-so-far rewriting the moment it is found
            # (view-tuple rewritings are equivalent by Theorem 5.1).
            def found(cover: tuple[int, ...]) -> None:
                ctx.record_rewriting(
                    _build_rewriting(minimized, [nonempty[i] for i in cover]),
                    certified=True,
                )

            covers = irredundant_covers(
                universe,
                cover_inputs,
                max_rewritings,
                checkpoint=checkpoint,
                on_cover=found,
            )
            rewritings = tuple(
                _build_rewriting(minimized, [nonempty[i] for i in cover])
                for cover in covers
            )
        else:
            # Minimum covers may be *retracted* mid-search (a smaller cover
            # clears the result set), so they are only recorded once the
            # enumeration has completed.
            covers = minimum_covers(
                universe, cover_inputs, checkpoint=checkpoint
            )
            rewritings = tuple(
                _build_rewriting(minimized, [nonempty[i] for i in cover])
                for cover in covers
            )
            for rewriting in rewritings:
                ctx.record_rewriting(rewriting, certified=True)
    cover_seconds = time.perf_counter() - t0

    delta = ctx.snapshot().since(before)
    stats = CoreCoverStats(
        total_views=len(view_list),
        view_classes=view_classes,
        touched_views=len(touched),
        total_view_tuples=len(tuples),
        view_tuple_classes=tuple_class_count,
        maximal_tuple_classes=maximal_tuple_classes,
        nonempty_cores=len(nonempty),
        elapsed_seconds=time.perf_counter() - started,
        minimize_seconds=minimize_seconds,
        grouping_seconds=grouping_seconds,
        view_tuple_seconds=view_tuple_seconds,
        core_seconds=core_seconds,
        cover_seconds=cover_seconds,
        caching_enabled=delta.caching_enabled,
        hom_searches=delta.hom_searches,
        core_searches=delta.core_searches,
        cache_hits=delta.cache_hits,
        cache_misses=delta.cache_misses,
        phase_seconds=profile_from_stages(delta.stages).phases,
        hom_nodes=delta.hom_nodes,
    )
    return CoreCoverResult(
        query=query,
        minimized_query=minimized,
        view_tuples=tuple(tuples),
        cores=tuple(cores),
        rewritings=rewritings,
        filter_candidates=tuple(empty),
        stats=stats,
    )


def _reject_comparisons(
    query: ConjunctiveQuery, view_list: Sequence[View]
) -> None:
    """CoreCover handles pure conjunctive queries (Section 2.1).

    Built-in comparison predicates make rewritings unions of CQs
    (Section 8); raising here beats silently reporting "no rewriting".
    """
    offenders = [str(atom) for atom in query.body if atom.is_comparison]
    for view in view_list:
        offenders.extend(
            f"{view.name}: {atom}"
            for atom in view.definition.body
            if atom.is_comparison
        )
    if offenders:
        raise UnsupportedQueryError(
            "CoreCover supports pure conjunctive queries/views; found "
            f"comparison atoms: {', '.join(offenders)}. See "
            "repro.extensions for the Section 8 built-in-predicate support."
        )


def _build_rewriting(
    minimized: ConjunctiveQuery, chosen: Sequence[TupleCore]
) -> ConjunctiveQuery:
    """Combine the chosen view tuples into a rewriting (Theorem 4.1)."""
    body = tuple(core.view_tuple.atom for core in chosen)
    return ConjunctiveQuery(minimized.head, body)


def add_filter_subgoal(
    rewriting: ConjunctiveQuery, filter_tuple: ViewTuple
) -> ConjunctiveQuery:
    """Append an (empty-core) view tuple as a filtering subgoal.

    Under M2 this can lower the plan cost when the filter relation is
    selective (rewriting P3 vs. P2 in the car-loc-part example); the
    result is still an equivalent rewriting because the filter's expansion
    maps into the query.
    """
    return rewriting.with_body(rewriting.body + (filter_tuple.atom,))
