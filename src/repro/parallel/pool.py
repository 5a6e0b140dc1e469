"""Warm :class:`PlannerContext` pools keyed by content fingerprint.

A planner context is expensive to warm up: its containment cache and
interner only pay off once the same view definitions have been planned
against a few times.  A parallel worker therefore keeps a small LRU pool
of contexts keyed by catalog fingerprint, so that consecutive requests
against the same catalog reuse the warm memoization state, while
requests against a different catalog get (and keep) their own.

The key is :func:`catalog_fingerprint`, a structured
:class:`CatalogFingerprint` carrying the catalog's Merkle-style content
root *and* the per-view content hashes (the same hashes
:meth:`repro.views.view.ViewCatalog.view_hashes` maintains
incrementally).  Because the per-view hashes ride along, the pool can
see that a request's catalog differs from a pooled entry's by only a
small delta — one view added, one replaced — and **upgrade** the warm
context instead of cold-starting: planner memos are keyed on structural
content, so a context warmed on catalog version *n* is sound for
version *n+1* as-is (see
:meth:`~repro.planner.context.PlannerContext.retire_views` for the
memory-hygiene half).

The pool is deliberately tiny (default 4 entries): a worker in a batch
run sees at most a handful of distinct catalogs, and each warm context
holds the memoized containment work for its whole catalog.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from ..planner.context import PlannerContext
from ..views.view import (
    View,
    ViewCatalog,
    catalog_content_root,
    view_content_hash,
)

__all__ = [
    "CatalogFingerprint",
    "PlannerContextPool",
    "catalog_fingerprint",
]


def _config_hash(config: Mapping | None) -> str:
    """Hash of the planner configuration (canonical JSON, order-free)."""
    return hashlib.sha256(
        json.dumps(dict(config or {}), sort_keys=True, default=str).encode(
            "utf-8"
        )
    ).hexdigest()


@dataclass(frozen=True)
class CatalogFingerprint:
    """A structured, versioned fingerprint of (catalog, configuration).

    ``root`` is the catalog's order-independent content root (sha256 over
    the sorted per-view hashes); ``view_hashes`` the sorted
    ``(name, content-hash)`` pairs it was computed from; ``config_hash``
    a hash of the planner configuration.  Two fingerprints with equal
    ``key`` describe byte-identical planning inputs; two with equal
    ``config_hash`` but different roots describe the same configuration
    against different catalog versions — and :meth:`delta` measures how
    different.
    """

    root: str
    view_hashes: tuple[tuple[str, str], ...]
    config_hash: str

    @property
    def key(self) -> str:
        """The exact-match pool key."""
        return f"{self.root}:{self.config_hash}"

    def delta(self, other: "CatalogFingerprint") -> int:
        """Number of per-view changes between the two catalogs.

        The size of the symmetric difference of the ``(name, hash)``
        pair sets: an added or removed view counts 1, a replaced
        (same-name, new-definition) view counts 2.
        """
        return len(set(self.view_hashes) ^ set(other.view_hashes))

    def names_only_in(self, other: "CatalogFingerprint") -> frozenset[str]:
        """View names *other* has that ``self`` does not (by content)."""
        mine = set(self.view_hashes)
        return frozenset(
            name for name, digest in other.view_hashes
            if (name, digest) not in mine
        )


def catalog_fingerprint(
    views: ViewCatalog | Iterable[View],
    config: Mapping | None = None,
) -> CatalogFingerprint:
    """The structured fingerprint of *views* under *config*.

    For a :class:`ViewCatalog` the per-view hashes and content root are
    read off the catalog's incrementally-maintained state (O(1) after
    any delta); a bare view sequence is hashed from scratch.
    """
    if isinstance(views, ViewCatalog):
        hashes = views.view_hashes()
        root = views.content_root()
    else:
        hashes = {view.name: view_content_hash(view) for view in views}
        root = catalog_content_root(hashes)
    return CatalogFingerprint(
        root=root,
        view_hashes=tuple(sorted(hashes.items())),
        config_hash=_config_hash(config),
    )


@dataclass
class _PoolEntry:
    """One pooled context plus what it was warmed on."""

    context: PlannerContext
    fingerprint: CatalogFingerprint
    #: Name -> ``View`` snapshot of the catalog the context was last
    #: used against — kept so a delta upgrade can hand the exact removed
    #: ``View`` objects to :meth:`PlannerContext.retire_views`.  A
    #: snapshot (not the catalog reference) because catalogs mutate in
    #: place.
    views: "dict[str, View]"


class PlannerContextPool:
    """An LRU pool of warm planner contexts, keyed by fingerprint.

    ``acquire_catalog`` is the way in: an exact content root match is a
    *hit*; a pooled entry for the same configuration whose catalog
    differs by at most ``max_delta_views`` per-view changes is a *delta
    hit* — the warm context is upgraded in place (re-keyed, removed
    views retired) instead of cold-starting.
    """

    def __init__(
        self,
        max_entries: int = 4,
        *,
        factory: Callable[[], PlannerContext] = PlannerContext,
        max_delta_views: int = 4,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.max_delta_views = max_delta_views
        self._factory = factory
        self._entries: "OrderedDict[str, _PoolEntry]" = OrderedDict()
        self.hits = 0
        self.delta_hits = 0
        self.misses = 0
        self.evictions = 0

    def counters(self) -> dict[str, int]:
        """The pool's counters as a plain dict (for profiles/JSON)."""
        return {
            "hits": self.hits,
            "delta_hits": self.delta_hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def acquire_catalog(
        self,
        catalog: ViewCatalog,
        config: Mapping | None = None,
        factory: Callable[[], PlannerContext] | None = None,
    ) -> tuple[PlannerContext, str]:
        """A warm context for *catalog* under *config*; returns the event.

        The event is ``"exact"`` (same content root and configuration),
        ``"delta"`` (a same-configuration entry within
        ``max_delta_views`` per-view changes was upgraded in place), or
        ``"miss"`` (fresh context).  Delta upgrades are sound without
        any invalidation because every planner memo is keyed on
        structural content; removed views are retired from the upgraded
        context purely to release memory.
        """
        fingerprint = catalog_fingerprint(catalog, config)
        snapshot = {view.name: view for view in catalog}
        entry = self._entries.get(fingerprint.key)
        if entry is not None:
            self._entries.move_to_end(fingerprint.key)
            entry.fingerprint = fingerprint
            entry.views = snapshot
            self.hits += 1
            return entry.context, "exact"
        upgraded = self._nearest(fingerprint)
        if upgraded is not None:
            key, entry = upgraded
            del self._entries[key]
            gone = fingerprint.names_only_in(entry.fingerprint)
            retired = [
                view
                for name in gone
                if (view := entry.views.get(name)) is not None
            ]
            if retired:
                entry.context.retire_views(retired)
            entry.fingerprint = fingerprint
            entry.views = snapshot
            self._store(fingerprint.key, entry)
            self.delta_hits += 1
            return entry.context, "delta"
        self.misses += 1
        context = (factory or self._factory)()
        self._store(
            fingerprint.key,
            _PoolEntry(context, fingerprint=fingerprint, views=snapshot),
        )
        return context, "miss"

    def _nearest(
        self, fingerprint: CatalogFingerprint
    ) -> tuple[str, _PoolEntry] | None:
        """The closest same-configuration entry within the delta budget."""
        best: tuple[int, str, _PoolEntry] | None = None
        for key, entry in self._entries.items():
            pooled = entry.fingerprint
            if pooled.config_hash != fingerprint.config_hash:
                continue
            delta = fingerprint.delta(pooled)
            if delta > self.max_delta_views:
                continue
            if best is None or delta < best[0]:
                best = (delta, key, entry)
        if best is None:
            return None
        return best[1], best[2]

    def _store(self, key: str, entry: _PoolEntry) -> None:
        self._entries[key] = entry
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: object) -> bool:
        return (
            isinstance(fingerprint, CatalogFingerprint)
            and fingerprint.key in self._entries
        )
