"""Equivalence classes of views and view tuples (Section 5.2).

The paper's concise representation partitions

* the **views** into classes of queries equivalent *as queries* (view V1
  and V5 of the car-loc-part example), so CoreCover only processes one
  representative per class; and
* the **view tuples** into classes with identical tuple-cores (same set
  of covered query subgoals), so the cover search is bounded by the number
  of query subgoals, independent of the number of views.

View classes need no pairwise equivalence test.  By Chandra-Merlin, two
minimized conjunctive queries are equivalent iff they are isomorphic, so
a canonical form of each view's core (:func:`canonical_key`) is an exact
hash key; grouping is one dict pass over the views' memoized keys
(:meth:`repro.views.view.View.equivalence_key`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..datalog.query import ConjunctiveQuery
from ..datalog.terms import Constant
from ..planner.context import PlannerContext
from ..views.view import View
from .tuple_core import TupleCore

#: Soft cap on the key intern pool — beyond it keys are returned
#: uninterned rather than growing the pool without bound in a long-lived
#: worker (the policy of the term pools in ``repro.datalog.terms``).
_KEY_POOL_CAP = 1_000_000

#: Equal keys share one object: catalogs repeat definitions (and, far
#: more often, signatures), and one private key per view costs memory.
_KEY_POOL: dict[tuple, tuple] = {}


def _interned(key: tuple) -> tuple:
    shared = _KEY_POOL.get(key)
    if shared is None:
        shared = key
        if len(_KEY_POOL) < _KEY_POOL_CAP:
            _KEY_POOL[key] = key
    return shared


def canonical_key(core: ConjunctiveQuery) -> tuple:
    """The equivalence key of a minimized, comparison-free query.

    The key is ``(core.signature(), canonical body)``, the body rendered
    as the ``repr`` of its sorted, relabelled atoms.  Head arguments
    (distinct variables, as in every view) are numbered by position and
    constants stand for themselves; the existential variables are
    labelled canonically, so two cores get equal keys exactly when they
    are isomorphic with the head fixed — by Chandra-Merlin, exactly when
    they are equivalent.

    The labelling is colour refinement with individualization: every
    existential variable starts with one colour, a round recolours each
    by the multiset of (atom, position) it occurs at under the current
    colours, and rounds repeat until the partition stops splitting.  A
    colour class left with several variables branches once per member,
    which gets a colour of its own; the key takes the least body
    encoding over the branches' discrete colourings.  Refinement is an
    isomorphism invariant, so isomorphic cores branch identically, and
    it settles most structure before any branching, so a 10-atom view
    over one predicate keys in milliseconds where permuting tied atoms
    would not.
    """
    head = core.head
    fixed = {arg: (0, position) for position, arg in enumerate(head.args)}
    existentials: dict = {}
    #: Per existential variable: the (atom index, position) it occurs at.
    occurrences: list[list[tuple[int, int]]] = []
    constants: list[tuple[str, int, str]] = []
    atoms: list[tuple[str, tuple]] = []
    for atom_index, atom in enumerate(core.body):
        predicate = atom.predicate
        codes: list = []
        for position, arg in enumerate(atom.args):
            code = fixed.get(arg)
            if code is None:
                if isinstance(arg, Constant):
                    value = repr(arg.value)
                    code = (1, value)
                    constants.append((predicate, position, value))
                else:
                    # An int code is a slot for the variable's colour.
                    code = existentials.setdefault(arg, len(existentials))
                    if code == len(occurrences):
                        occurrences.append([])
                    occurrences[code].append((atom_index, position))
            codes.append(code)
        atoms.append((predicate, tuple(codes)))
    # ``core.signature()``, from the pass above.
    signature = (
        head.predicate,
        len(head.args),
        tuple(sorted((predicate, len(codes)) for predicate, codes in atoms)),
        tuple(sorted(constants)),
        len(existentials),
    )
    body = _least_encoding(atoms, occurrences, [0] * len(existentials))
    return _interned((_interned(signature), repr(body)))


def _encode(atoms: list[tuple[str, tuple]], colour: list[int]) -> list[tuple]:
    """The atoms with each existential slot replaced by its colour."""
    return [
        (
            predicate,
            tuple((2, colour[c]) if isinstance(c, int) else c for c in codes),
        )
        for predicate, codes in atoms
    ]


def _refine(
    atoms: list[tuple[str, tuple]],
    occurrences: list[list[tuple[int, int]]],
    colour: list[int],
) -> list[int]:
    """Split colour classes by occurrence until the partition is stable.

    Colours are dense ranks; a new colour sorts by the old one first, so
    refinement only ever splits classes and keeps their order.
    """
    classes = len(set(colour))
    while classes < len(colour):
        encoded = _encode(atoms, colour)
        signatures = [
            (colour[v], tuple(sorted((encoded[a], p) for a, p in places)))
            for v, places in enumerate(occurrences)
        ]
        ranks = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        if len(ranks) == classes:
            break
        colour = [ranks[sig] for sig in signatures]
        classes = len(ranks)
    return colour


def _least_encoding(
    atoms: list[tuple[str, tuple]],
    occurrences: list[list[tuple[int, int]]],
    colour: list[int],
) -> tuple:
    """The least sorted body encoding over the individualization tree."""
    colour = _refine(atoms, occurrences, colour)
    sizes: dict[int, int] = {}
    for c in colour:
        sizes[c] = sizes.get(c, 0) + 1
    tied = [c for c, size in sizes.items() if size > 1]
    if not tied:
        return tuple(sorted(_encode(atoms, colour)))
    cell = min(tied)
    best = None
    for chosen in range(len(colour)):
        if colour[chosen] != cell:
            continue
        # ``chosen`` keeps the cell's colour; its cellmates and every
        # later colour move up by one, so colours stay dense.
        branch = [
            c + 1 if c > cell or (c == cell and v != chosen) else c
            for v, c in enumerate(colour)
        ]
        candidate = _least_encoding(atoms, occurrences, branch)
        if best is None or candidate < best:
            best = candidate
    return best


def group_equivalent_views(
    views: Iterable[View], context: PlannerContext | None = None
) -> list[list[View]]:
    """Partition views into classes equivalent as queries.

    Two views are compared by their definitions with the head predicate
    neutralized (V1 and V5 have different names but the same definition),
    through their memoized :meth:`~repro.views.view.View.equivalence_key`.

    Classes come out by first appearance of the minimized definition's
    :meth:`~repro.datalog.query.ConjunctiveQuery.signature` (the key's
    first component), then by first appearance within that signature —
    the order of a signature-bucketed pairwise grouping.  Representatives
    (each class's first member) drive the rewriting texts, so the order
    is part of the output.
    """
    ctx = context if context is not None else PlannerContext()
    buckets: dict[tuple, dict[tuple, list[View]]] = {}
    for view in views:
        key = view.equivalence_key(ctx)
        buckets.setdefault(key[0], {}).setdefault(key, []).append(view)
    return [members for bucket in buckets.values() for members in bucket.values()]


def view_representatives(
    views: Iterable[View], context: PlannerContext | None = None
) -> list[View]:
    """One representative view per equivalence class, in stable order."""
    return [members[0] for members in group_equivalent_views(views, context)]


def group_cores_by_coverage(
    cores: Sequence[TupleCore],
) -> dict[frozenset[int], list[TupleCore]]:
    """Partition tuple-cores by the set of query subgoals they cover.

    All view tuples in one class are interchangeable in a cover, which is
    the paper's advantage (4): the optimizer may later swap a view tuple
    for a classmate (e.g. a smaller materialized relation) and still have
    a rewriting.
    """
    groups: dict[frozenset[int], list[TupleCore]] = {}
    for core in cores:
        groups.setdefault(core.covered, []).append(core)
    return groups


def core_representatives(cores: Sequence[TupleCore]) -> list[TupleCore]:
    """One representative tuple-core per coverage class (nonempty first)."""
    groups = group_cores_by_coverage(cores)
    ordered = sorted(
        groups.items(), key=lambda item: (-len(item[0]), sorted(item[0]))
    )
    return [members[0] for _, members in ordered]
