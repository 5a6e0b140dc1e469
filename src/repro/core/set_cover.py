"""Exact set-cover enumeration used by CoreCover and CoreCover*.

Step (4) of CoreCover (Figure 4) reduces finding GMRs to the classic
set-covering problem [8]: cover the minimal query's subgoals with the
fewest tuple-cores.  CoreCover* additionally needs every *irredundant*
cover (no member removable), which characterizes the minimal rewritings
using view tuples (Theorem 5.1).

Both enumerations branch on the lowest-numbered uncovered element, which
visits every relevant cover at least once; duplicates are removed through
a result set.  Dominated-set pruning is deliberately **not** applied: a
set strictly contained in another can still participate in a minimum
cover (e.g. universe ``{1,2,3}``, sets ``A={1}``, ``B={1,2}``,
``D={2,3}`` — both ``{B,D}`` and ``{A,D}`` are minimum).
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..testing.faults import fire


def minimum_covers(
    universe: frozenset[int],
    sets: Sequence[frozenset[int]],
    *,
    checkpoint: Callable[[], None] | None = None,
) -> list[tuple[int, ...]]:
    """All covers of *universe* with the minimum number of sets.

    Returns sorted index tuples into *sets*; empty list when no cover
    exists.  The empty universe is covered by the empty cover.
    ``checkpoint`` is called on every branch node (cooperative
    cancellation under a resource budget).
    """
    if not universe:
        return [()]
    element_to_sets = _element_index(universe, sets)
    if any(not options for options in element_to_sets.values()):
        return []

    best_size = len(universe) + 1  # a cover never needs more sets than elements
    results: set[tuple[int, ...]] = set()

    def branch(uncovered: frozenset[int], chosen: tuple[int, ...]) -> None:
        nonlocal best_size
        fire("enumeration")
        if checkpoint is not None:
            checkpoint()
        if not uncovered:
            cover = tuple(sorted(chosen))
            if len(cover) < best_size:
                best_size = len(cover)
                results.clear()
            if len(cover) == best_size:
                results.add(cover)
            return
        if len(chosen) + 1 > best_size:
            return
        pivot = min(uncovered)
        for index in element_to_sets[pivot]:
            if index in chosen:
                continue
            branch(uncovered - sets[index], chosen + (index,))

    branch(universe, ())
    return sorted(results)


def irredundant_covers(
    universe: frozenset[int],
    sets: Sequence[frozenset[int]],
    max_covers: int | None = None,
    *,
    checkpoint: Callable[[], None] | None = None,
    on_cover: Callable[[tuple[int, ...]], None] | None = None,
) -> list[tuple[int, ...]]:
    """All irredundant covers of *universe* (no member can be dropped).

    These are the covers in which every set contributes at least one
    element not covered by the others.  ``max_covers`` caps the search
    for pathological inputs (e.g. many identical views — Section 5.2
    motivates representatives precisely to avoid the ``2^n - 1`` blowup).
    ``checkpoint`` is called on every branch node; ``on_cover`` fires once
    for each *new* irredundant cover as it is discovered, which is what
    lets the anytime planner keep best-so-far results when the search is
    cancelled mid-enumeration (irredundant covers are additive — a found
    cover is never retracted later).
    """
    if not universe:
        return [()]
    element_to_sets = _element_index(universe, sets)
    if any(not options for options in element_to_sets.values()):
        return []

    results: set[tuple[int, ...]] = set()

    def is_irredundant(chosen: Sequence[int]) -> bool:
        for candidate in chosen:
            others: set[int] = set()
            for index in chosen:
                if index != candidate:
                    others.update(sets[index])
            if universe <= others:
                return False
        return True

    def branch(uncovered: frozenset[int], chosen: tuple[int, ...]) -> None:
        if max_covers is not None and len(results) >= max_covers:
            return
        fire("enumeration")
        if checkpoint is not None:
            checkpoint()
        if not uncovered:
            cover = tuple(sorted(chosen))
            if is_irredundant(cover) and cover not in results:
                results.add(cover)
                if on_cover is not None:
                    on_cover(cover)
            return
        if len(chosen) >= len(universe):
            return  # an irredundant cover has at most |universe| sets
        pivot = min(uncovered)
        for index in element_to_sets[pivot]:
            if index in chosen:
                continue
            branch(uncovered - sets[index], chosen + (index,))

    branch(universe, ())
    return sorted(results)


def greedy_cover(
    universe: frozenset[int], sets: Sequence[frozenset[int]]
) -> tuple[int, ...] | None:
    """The classic ln(n)-approximate greedy cover, or ``None`` if impossible.

    Exposed for the scalability ablation: CoreCover itself uses the exact
    enumerations above.
    """
    uncovered = set(universe)
    chosen: list[int] = []
    while uncovered:
        best_index = max(
            range(len(sets)),
            key=lambda i: (len(uncovered & sets[i]), -i),
            default=None,
        )
        if best_index is None or not uncovered & sets[best_index]:
            return None
        chosen.append(best_index)
        uncovered -= sets[best_index]
    return tuple(sorted(chosen))


def _element_index(
    universe: frozenset[int], sets: Sequence[frozenset[int]]
) -> dict[int, list[int]]:
    index = {element: [] for element in universe}
    for position, members in enumerate(sets):
        for element in members & universe:
            index[element].append(position)
    return index
