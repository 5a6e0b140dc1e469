"""Hypergraph structure of conjunctive queries: GYO reduction.

A conjunctive query's *body hypergraph* has the body variables as
vertices and the relational atoms' variable sets as hyperedges.  The
query is **alpha-acyclic** exactly when the GYO (Graham /
Yu-Ozsoyoglu) reduction empties that hypergraph.  The C106
catalog-audit rule (:mod:`repro.analysis.catalog`) uses it to classify
every view's acyclicity up front.

The reduction repeats two moves until neither applies:

1. delete an *ear vertex* — a variable occurring in exactly one
   hyperedge; and
2. delete a hyperedge contained in another hyperedge (empty edges and
   duplicates included).

Comparison atoms are not hyperedges: they constrain but do not join, so
only relational atoms shape the hypergraph — the same convention as the
catalog's predicate-signature index.
"""

from __future__ import annotations

from collections import Counter

from .query import ConjunctiveQuery
from .terms import Variable

__all__ = ["gyo_reduce", "is_acyclic"]


def gyo_reduce(query: ConjunctiveQuery) -> tuple[frozenset[Variable], ...]:
    """The hyperedges the GYO reduction could **not** eliminate.

    An empty result means *query* is alpha-acyclic; a non-empty result
    is the irreducible cyclic core (every remaining edge participates in
    a cycle witness).  The reduction runs to a fixpoint of the two GYO
    moves, so the result is independent of elimination order (the GYO
    reduction is Church-Rosser).
    """
    edges: list[frozenset[Variable]] = [
        frozenset(atom.variable_set())
        for atom in query.body
        if not atom.is_comparison
    ]
    changed = True
    while changed and edges:
        changed = False
        # Move 1: drop vertices living in exactly one hyperedge.
        occurrences = Counter(v for edge in edges for v in set(edge))
        lonely = {v for v, count in occurrences.items() if count == 1}
        if lonely:
            trimmed = [edge - lonely for edge in edges]
            if trimmed != edges:
                edges = trimmed
                changed = True
        # Move 2: drop any edge contained in another (duplicates count).
        survivors: list[frozenset[Variable]] = []
        for i, edge in enumerate(edges):
            absorbed = any(
                (edge < other) or (edge == other and i > j)
                for j, other in enumerate(edges)
                if i != j
            )
            if not edge or absorbed:
                changed = True
                continue
            survivors.append(edge)
        edges = survivors
    return tuple(edges)


def is_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether *query*'s body hypergraph is alpha-acyclic (GYO-reducible).

    Queries with fewer than two relational atoms are trivially acyclic.
    """
    return not gyo_reduce(query)
