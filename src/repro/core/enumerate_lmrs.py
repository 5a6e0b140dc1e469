"""Enumerating locally-minimal rewritings inside the view-tuple space.

Theorem 3.1 defines the GMR search space as the LMRs that use only view
tuples.  CoreCover jumps straight to the covers; this module walks the
space itself, which is what the Figure 1/2 structure analysis needs:
compute the LMRs, then feed them to :func:`repro.core.lattice.build_lmr_lattice`
to obtain the containment partial order, the CMRs, and the GMRs of a
concrete query.
"""

from __future__ import annotations

from itertools import combinations
from typing import TYPE_CHECKING, Iterator

from ..containment.containment import containment_mapping
from ..containment.minimize import minimize
from ..datalog.query import ConjunctiveQuery
from ..views.expansion import expand
from ..views.view import ViewCatalog
from .lattice import LmrLattice, build_lmr_lattice
from .view_tuples import view_tuples

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..planner.context import PlannerContext


def enumerate_view_tuple_lmrs(
    query: ConjunctiveQuery,
    views: ViewCatalog,
    max_size: int | None = None,
    limit: int | None = 100,
    *,
    context: "PlannerContext | None" = None,
) -> Iterator[ConjunctiveQuery]:
    """Yield the LMRs of *query* whose subgoals are view tuples.

    A candidate is a subset of ``T(Q, V)``; it is kept when it is an
    equivalent rewriting and no proper subset of it is (subset
    minimality, i.e. local minimality within the space).  Candidates are
    enumerated smallest-first, so supersets of found LMRs are skipped
    cheaply.  ``max_size`` defaults to the number of query subgoals (the
    [16] bound); ``limit`` caps the yield for adversarial view sets.
    """
    minimize_fn = context.minimize if context is not None else minimize
    minimized = minimize_fn(query)
    tuples = view_tuples(minimized, views, context=context)
    bound = max_size or len(minimized.body)
    found: list[frozenset[int]] = []
    yielded = 0

    for size in range(1, min(bound, len(tuples)) + 1):
        for indices in combinations(range(len(tuples)), size):
            if context is not None:
                context.checkpoint()  # cooperative cancellation per combo
            index_set = frozenset(indices)
            if any(previous <= index_set for previous in found):
                continue
            candidate = ConjunctiveQuery(
                minimized.head, tuple(tuples[i].atom for i in indices)
            )
            if not candidate.is_safe():
                continue
            expansion = expand(candidate, views)
            if containment_mapping(minimized, expansion) is None:
                continue  # not a rewriting (the other direction is free)
            found.append(index_set)
            yielded += 1
            yield candidate
            if limit is not None and yielded >= limit:
                return


def view_tuple_lattice(
    query: ConjunctiveQuery,
    views: ViewCatalog,
    limit: int | None = 100,
) -> LmrLattice:
    """The Figure 2 lattice of a query's view-tuple LMRs."""
    lmrs = list(enumerate_view_tuple_lmrs(query, views, limit=limit))
    return build_lmr_lattice(lmrs)
