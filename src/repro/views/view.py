"""View definitions and indexed, versioned view catalogs.

A view is a safe conjunctive query over the base relations (Section 2.1).
As is standard (and as in every example of the paper), view heads must
list distinct variables — the view relation's schema — with no constants
or repeated variables; this keeps view expansion a pure substitution.

The catalog is no longer an opaque list.  It maintains, under one
monotone **version** number:

* a **predicate-signature index** — views keyed by the ``(predicate,
  arity)`` pairs of their relational body atoms — so view-tuple
  computation and the hom-search setup can enumerate only the views
  sharing at least one body predicate with the query
  (:meth:`ViewCatalog.relevant_views`); a view that shares none
  provably contributes no view tuple over the query's canonical
  database (Section 3.3), so the pruning is exact, not heuristic;
* **per-view content hashes** and a Merkle-style **catalog root** over
  them, which is what the warm-context pool and the plan cache key on
  (two catalogs agree on the root exactly when they agree view by
  view); and
* a **delta API** — :meth:`ViewCatalog.add_view` /
  :meth:`ViewCatalog.remove_view` return a :class:`CatalogDelta`
  recording what changed between two consecutive versions, so callers
  (warm pools, plan caches, planner contexts) can invalidate per view
  instead of discarding everything.

Mutations are **copy-on-write**: the successor index and view map are
built off to the side and committed with plain attribute assignments
only after the ``catalog_delta`` fault-injection point has passed.  A
fault (or any exception) mid-delta therefore leaves the catalog on its
old, fully consistent version — no torn index, no half-registered view.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from ..datalog.query import ConjunctiveQuery, MalformedQueryError
from ..datalog.parser import parse_query
from ..datalog.terms import Variable, is_variable
from ..errors import DuplicateViewError, UnknownViewError
from ..testing.faults import fire

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..planner.context import PlannerContext


@dataclass(frozen=True)
class View:
    """A named materialized view with a conjunctive definition."""

    definition: ConjunctiveQuery

    def __post_init__(self) -> None:
        self.definition.check_safe()
        head_args = self.definition.head.args
        if not all(is_variable(arg) for arg in head_args):
            raise MalformedQueryError(
                f"view {self.name}: head arguments must be variables"
            )
        if len(set(head_args)) != len(head_args):
            raise MalformedQueryError(
                f"view {self.name}: head variables must be distinct"
            )

    @property
    def name(self) -> str:
        """The view's relation name (head predicate)."""
        return self.definition.name

    @property
    def arity(self) -> int:
        """The view relation's arity."""
        return self.definition.arity

    @property
    def head_variables(self) -> tuple[Variable, ...]:
        """The view's distinguished variables in schema order."""
        return tuple(self.definition.head.args)  # all variables by validation

    def existential_variables(self) -> frozenset[Variable]:
        """The view's nondistinguished variables."""
        return self.definition.existential_variables()

    def predicate_signature(self) -> frozenset[tuple[str, int]]:
        """The ``(predicate, arity)`` pairs of the relational body atoms.

        Comparison atoms are not base relations and are excluded; a view
        whose body is comparisons only has an empty signature and is
        treated as relevant to every query (never index-pruned).

        Memoized: the definition is immutable and the signature sits on
        the catalog index's hottest path (every lookup, every audit unit
        key), so it is computed once per :class:`View` instance.
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = frozenset(
                (atom.predicate, atom.arity)
                for atom in self.definition.body
                if not atom.is_comparison
            )
            object.__setattr__(self, "_signature", cached)
        return cached

    def equivalence_key(self, context: "PlannerContext | None" = None) -> tuple:
        """The key of the view's class under equivalence as a query.

        Two comparison-free views get equal keys exactly when their
        definitions, head predicate aside, are equivalent (Section 5.2);
        see :meth:`repro.planner.context.PlannerContext.equivalence_key`.

        Memoized like :meth:`predicate_signature`, but computed on first
        use rather than at parse or catalog construction: a plan touches
        only the views sharing a predicate with its query.  A view is
        never mutated, and a catalog delta keeps every untouched
        :class:`View` object, so the key outlives each ``plan()`` call.
        ``PlannerContext(caching=False)`` neither reads nor writes the
        memo, so the uncached ablation stays uncached.
        """
        memoize = context is None or context.caching
        if memoize:
            cached = self.__dict__.get("_equivalence_key")
            if cached is not None:
                return cached
        if context is None:
            from ..planner.context import PlannerContext  # import cycle guard

            context = PlannerContext()
        key = context.equivalence_key(self.definition)
        if memoize:
            object.__setattr__(self, "_equivalence_key", key)
        return key

    def __str__(self) -> str:
        return str(self.definition)


def view_content_hash(view: View) -> str:
    """The per-view content hash: SHA-256 over ``name := definition``.

    This is the unit of the catalog's Merkle-style root — a view delta
    changes exactly the hashes of the views it touched.
    """
    return hashlib.sha256(
        f"{view.name} := {view.definition}".encode("utf-8")
    ).hexdigest()


@dataclass(frozen=True)
class CatalogDelta:
    """What one catalog mutation changed, between two consistent versions.

    ``added``/``removed`` carry the actual :class:`View` objects, so
    consumers (e.g. :meth:`repro.planner.context.PlannerContext.
    retire_views`) can compute structural keys for the views that left
    the catalog without keeping their own shadow copies.
    """

    added: tuple[View, ...]
    removed: tuple[View, ...]
    old_version: int
    new_version: int
    old_root: str
    new_root: str

    @property
    def touched(self) -> int:
        """How many views this delta touched."""
        return len(self.added) + len(self.removed)

    def __str__(self) -> str:
        names = [f"+{view.name}" for view in self.added]
        names += [f"-{view.name}" for view in self.removed]
        return (
            f"CatalogDelta(v{self.old_version}->v{self.new_version}, "
            f"{', '.join(names) or 'empty'})"
        )


class ViewCatalog:
    """A set of views indexed by name, predicate signature, and content.

    The catalog is what a rewriting is interpreted against: any body
    predicate of a rewriting that names a catalog view is unfolded by
    :func:`repro.views.expansion.expand`.

    Iteration order is registration order, as it always was; the index
    and hashes are bookkeeping on the side and never change what a
    planning run computes — only how much of the catalog it touches.
    """

    def __init__(self, views: Iterable[View | ConjunctiveQuery | str] = ()) -> None:
        self._views: dict[str, View] = {}
        #: ``(predicate, arity)`` -> view names, in registration order.
        self._index: dict[tuple[str, int], tuple[str, ...]] = {}
        #: View name -> registration sequence (orders index hits).
        self._order: dict[str, int] = {}
        #: Next registration sequence number (never reused).
        self._sequence = 0
        #: Monotone catalog version: +1 per successful mutation.
        self._version = 0
        #: Per-view content hashes (name -> sha256 hex).
        self._hashes: dict[str, str] = {}
        #: Cached Merkle root; ``None`` = recompute on next access.
        self._root: str | None = None
        #: Cached names of comparison-only views (empty predicate
        #: signature); ``None`` = rebuild on next index lookup.  These
        #: views join every lookup result, and recomputing them by
        #: scanning the whole catalog made ``views_for_predicates``
        #: O(|V|) per call — quadratic across a whole-catalog audit.
        self._blind: tuple[str, ...] | None = None
        for view in views:
            self.add(view)

    # -- versioning and content hashes ---------------------------------------
    @property
    def version(self) -> int:
        """Monotone version counter, bumped by every successful mutation."""
        return self._version

    def view_hashes(self) -> Mapping[str, str]:
        """Per-view content hashes (name -> sha256), registration order."""
        return dict(self._hashes)

    def content_root(self) -> str:
        """Merkle-style root over the per-view content hashes.

        The root is the SHA-256 of the sorted per-view hashes, so it is
        independent of registration order and changes exactly when some
        view's rendered definition (or the set of views) changes.
        """
        if self._root is None:
            self._root = catalog_content_root(self._hashes)
        return self._root

    # -- mutation (copy-on-write deltas) --------------------------------------
    def add(self, view: View | ConjunctiveQuery | str) -> View:
        """Register a view given as a :class:`View`, a CQ, or datalog text.

        Raises :class:`~repro.errors.DuplicateViewError` (a
        ``ValueError``) when the name is already taken.
        """
        return self.add_view(view).added[0]

    def add_view(self, view: View | ConjunctiveQuery | str) -> CatalogDelta:
        """Register a view and return the :class:`CatalogDelta`.

        The successor state is built copy-on-write and committed only
        after the ``catalog_delta`` injection point; a fault mid-delta
        leaves the catalog on the old consistent version.
        """
        view = as_view(view)
        if view.name in self._views:
            raise DuplicateViewError(f"duplicate view name {view.name!r}")
        old_root = self.content_root()
        # Build the successor state off to the side (copy-on-write).
        new_views = dict(self._views)
        new_views[view.name] = view
        new_index = dict(self._index)
        for pair in sorted(view.predicate_signature()):
            new_index[pair] = new_index.get(pair, ()) + (view.name,)
        new_order = dict(self._order)
        new_order[view.name] = self._sequence
        new_hashes = dict(self._hashes)
        new_hashes[view.name] = view_content_hash(view)
        delta = CatalogDelta(
            added=(view,),
            removed=(),
            old_version=self._version,
            new_version=self._version + 1,
            old_root=old_root,
            new_root=catalog_content_root(new_hashes),
        )
        self._commit(delta, new_views, new_index, new_order, new_hashes)
        return delta

    def remove_view(self, name: str) -> CatalogDelta:
        """Remove the view registered under *name*; return the delta.

        Raises :class:`~repro.errors.UnknownViewError` when absent.
        Copy-on-write like :meth:`add_view`: a fault mid-delta leaves
        the view registered and the index untouched.
        """
        view = self.get(name)
        old_root = self.content_root()
        new_views = dict(self._views)
        del new_views[name]
        new_index = dict(self._index)
        for pair in sorted(view.predicate_signature()):
            remaining = tuple(n for n in new_index.get(pair, ()) if n != name)
            if remaining:
                new_index[pair] = remaining
            else:
                new_index.pop(pair, None)
        new_order = dict(self._order)
        del new_order[name]
        new_hashes = dict(self._hashes)
        del new_hashes[name]
        delta = CatalogDelta(
            added=(),
            removed=(view,),
            old_version=self._version,
            new_version=self._version + 1,
            old_root=old_root,
            new_root=catalog_content_root(new_hashes),
        )
        self._commit(delta, new_views, new_index, new_order, new_hashes)
        return delta

    def replace_view(self, view: View | ConjunctiveQuery | str) -> CatalogDelta:
        """Swap in a new definition for an existing name; return the delta.

        Equivalent to remove + add under **one** version bump, so pool
        and cache consumers see a single-view delta rather than two.
        """
        view = as_view(view)
        old = self.get(view.name)
        old_root = self.content_root()
        new_views = dict(self._views)
        new_views[view.name] = view
        new_index = dict(self._index)
        stale = old.predicate_signature() - view.predicate_signature()
        fresh = view.predicate_signature() - old.predicate_signature()
        for pair in sorted(stale):
            remaining = tuple(
                n for n in new_index.get(pair, ()) if n != view.name
            )
            if remaining:
                new_index[pair] = remaining
            else:
                new_index.pop(pair, None)
        for pair in sorted(fresh):
            new_index[pair] = new_index.get(pair, ()) + (view.name,)
        new_order = dict(self._order)  # keeps the original sequence slot
        new_hashes = dict(self._hashes)
        new_hashes[view.name] = view_content_hash(view)
        delta = CatalogDelta(
            added=(view,),
            removed=(old,),
            old_version=self._version,
            new_version=self._version + 1,
            old_root=old_root,
            new_root=catalog_content_root(new_hashes),
        )
        self._commit(delta, new_views, new_index, new_order, new_hashes)
        return delta

    def _commit(
        self,
        delta: CatalogDelta,
        views: dict[str, View],
        index: dict[tuple[str, int], tuple[str, ...]],
        order: dict[str, int],
        hashes: dict[str, str],
    ) -> None:
        """Atomically install a fully-built successor state.

        ``fire`` sits *before* the assignments: a chaos fault raised at
        the ``catalog_delta`` point aborts the mutation with every
        attribute still describing the old version.  The assignments
        themselves are plain rebinds of already-built objects, so there
        is no observable intermediate state.
        """
        fire("catalog_delta")
        self._views = views
        self._index = index
        self._order = order
        self._hashes = hashes
        self._sequence += 1
        self._version = delta.new_version
        self._root = delta.new_root
        self._blind = None

    # -- lookup ----------------------------------------------------------------
    def get(self, name: str) -> View:
        """The view registered under *name*.

        Raises :class:`~repro.errors.UnknownViewError` (a ``KeyError``)
        listing the registered names when absent.
        """
        try:
            return self._views[name]
        except KeyError:
            registered = ", ".join(self._views) or "(none)"
            raise UnknownViewError(
                f"unknown view {name!r}; registered views: {registered}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def names(self) -> tuple[str, ...]:
        """All view names in registration order."""
        return tuple(self._views)

    def definitions(self) -> tuple[ConjunctiveQuery, ...]:
        """All view definitions in registration order."""
        return tuple(view.definition for view in self._views.values())

    # -- the predicate-signature index -----------------------------------------
    def indexed_predicates(self) -> frozenset[tuple[str, int]]:
        """Every ``(predicate, arity)`` pair some view's body mentions."""
        return frozenset(self._index)

    def views_for_predicates(
        self, pairs: Iterable[tuple[str, int]]
    ) -> tuple[View, ...]:
        """The views whose body mentions at least one of *pairs*.

        Results come back in registration order.  Views with an empty
        predicate signature (comparison-only bodies) are **always**
        included: the index cannot prove them irrelevant.
        """
        hits: set[str] = set()
        for pair in pairs:
            hits.update(self._index.get(pair, ()))
        if self._blind is None:
            self._blind = tuple(
                name
                for name, view in self._views.items()
                if not view.predicate_signature()
            )
        hits.update(self._blind)
        return tuple(
            self._views[name]
            for name in sorted(hits, key=self._order.__getitem__)
        )

    def relevant_views(self, query: ConjunctiveQuery) -> tuple[View, ...]:
        """The views sharing at least one body predicate with *query*.

        This is the Section 3.3 pruning set: a view sharing no
        ``(predicate, arity)`` pair with the query has no answer over
        the query's canonical database, hence an empty view-tuple set,
        hence no place in any contained rewriting.  A query with no
        relational atoms keeps the whole catalog (nothing provable).
        """
        pairs = frozenset(
            (atom.predicate, atom.arity)
            for atom in query.body
            if not atom.is_comparison
        )
        if not pairs:
            return tuple(self._views.values())
        return self.views_for_predicates(pairs)

    def relevant_names(self, query: ConjunctiveQuery) -> tuple[str, ...]:
        """Names of :meth:`relevant_views`, registration order."""
        return tuple(view.name for view in self.relevant_views(query))

    def index_neighbors(self, name: str) -> tuple[View, ...]:
        """The views sharing a ``(predicate, arity)`` pair with *name*.

        Registration order, excluding the view itself.  This is the
        catalog-audit unit's visibility set: the pairwise rules (C101/
        C102/C104) only ever compare a view against its index neighbors,
        because containment between views sharing no base predicate is
        impossible (a homomorphism has no atom to map onto) — the same
        exactness argument as :meth:`relevant_views`.  Comparison-only
        views (empty signature) appear in every view's neighbor set, per
        :meth:`views_for_predicates`.
        """
        view = self.get(name)
        return tuple(
            neighbor
            for neighbor in self.views_for_predicates(
                view.predicate_signature()
            )
            if neighbor.name != name
        )

    def names_sharing_predicates(
        self, predicates: Iterable[str]
    ) -> frozenset[str]:
        """Names of views whose body mentions any of the predicate *names*.

        Arity-insensitive (any ``(name, arity)`` index key counts) and,
        unlike :meth:`views_for_predicates`, **excludes** views with an
        empty predicate signature — this answers "shares a base
        predicate with", the static-analysis question (R006), not the
        pruning question.
        """
        wanted = set(predicates)
        hits: set[str] = set()
        for (predicate, _arity), names in self._index.items():
            if predicate in wanted:
                hits.update(names)
        return frozenset(hits)


def catalog_content_root(hashes: Mapping[str, str]) -> str:
    """The Merkle-style root of a per-view hash map (see ``content_root``)."""
    digest = hashlib.sha256()
    for view_hash in sorted(hashes.values()):
        digest.update(view_hash.encode("ascii"))
    digest.update(str(len(hashes)).encode("ascii"))
    return digest.hexdigest()


def as_view(view: View | ConjunctiveQuery | str) -> View:
    """Coerce datalog text or a conjunctive query into a :class:`View`."""
    if isinstance(view, View):
        return view
    if isinstance(view, str):
        view = parse_query(view)
    return View(view)
