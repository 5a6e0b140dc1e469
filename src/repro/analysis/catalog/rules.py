"""Whole-catalog audit rules: C101-C106.

Query-independent catalog hygiene, per Chirkova & Genesereth's framing
("which views earn their keep"): subsumed, equivalent, shadowed, and
unsatisfiable views silently inflate ``T(Q, V)`` enumeration and the
cover search for *every* query, and none of them is visible to the
per-query lint rules (``R0xx``/``R1xx``).

The pairwise rules only ever compare a view against its predicate-index
neighbors (:meth:`~repro.views.view.ViewCatalog.index_neighbors`):
containment between views sharing no base predicate is impossible, so
the pruning is exact — the same argument that makes the planner's
predicate-index slice exact.  Containment itself goes through the shared
:class:`~repro.planner.context.PlannerContext` memos, so consecutive
incremental audits (and a subsequent ``plan()`` on the same context) pay
for each homomorphism search once.

Views whose bodies contain comparison atoms fall outside the
Chandra-Merlin fragment; the semantic pair rules skip them, exactly as
R101/R102 do.
"""

from __future__ import annotations

from typing import Iterator

from ...datalog.terms import Variable
from ...views.view import View
from ..diagnostics import Diagnostic, Severity
from ..registry import AnalysisRule, register_rule
from ..semantic import _has_comparisons, _marker_definition
from ..structural import contradiction_witnesses
from ...datalog.hypergraph import gyo_reduce
from .inputs import CatalogAuditInput

__all__ = [
    "RULE_CYCLIC_VIEW",
    "RULE_EQUIVALENT_VIEWS",
    "RULE_SHADOWED_VIEW",
    "RULE_SUBSUMED_VIEW",
    "RULE_UNREACHABLE_PREDICATE",
    "RULE_UNSATISFIABLE_VIEW",
]


# -- C101: subsumed view ------------------------------------------------------


def _check_subsumed_view(inputs: CatalogAuditInput) -> Iterator[Diagnostic]:
    view = inputs.view
    assert view is not None
    if _has_comparisons(view.definition):
        return
    context = inputs.context
    marker = _marker_definition(view)
    signature = view.predicate_signature()
    for neighbor in inputs.neighbors:
        if neighbor.arity != view.arity:
            continue
        if _has_comparisons(neighbor.definition):
            continue
        # Necessary condition for view ⊑ neighbor: the containment
        # homomorphism maps every neighbor body atom onto some view
        # body atom, so the neighbor's predicates must be a subset.
        if not neighbor.predicate_signature() <= signature:
            continue
        other = _marker_definition(neighbor)
        if not context.is_contained_in(marker, other):
            continue
        if context.is_contained_in(other, marker):
            continue  # equivalent: C102/C104 territory, not subsumption
        yield RULE_SUBSUMED_VIEW.diagnostic(
            f"view {view.name!r} is strictly contained in view "
            f"{neighbor.name!r}: every answer it contributes is already "
            f"available from {neighbor.name!r}, which also covers strictly "
            "more queries",
            span=inputs.span_of(view.definition),
            subject=f"view:{view.name}",
            fingerprint=inputs.fingerprint(
                "C101",
                inputs.view_hash(view.name),
                inputs.view_hash(neighbor.name),
            ),
        )


RULE_SUBSUMED_VIEW = register_rule(
    AnalysisRule(
        code="C101",
        name="subsumed-view",
        description=(
            "A catalog view is strictly contained in another view of the "
            "same arity."
        ),
        severity=Severity.INFO,
        family="semantic",
        check=_check_subsumed_view,
        scope="view",
    )
)


# -- C102: equivalent view pair ----------------------------------------------


def _renaming_key(view: View) -> tuple:
    """A canonical key equal exactly for definitions that differ only by
    variable names: variables are numbered by first occurrence (head
    first, then body, left to right) before rendering."""
    mapping: dict[Variable, int] = {}

    def term_key(term: object) -> tuple:
        if isinstance(term, Variable):
            return ("var", mapping.setdefault(term, len(mapping)))
        return ("const", str(term))

    definition = view.definition
    head = tuple(term_key(term) for term in definition.head.args)
    body = tuple(
        (atom.predicate, *(term_key(term) for term in atom.args))
        for atom in definition.body
    )
    return (head, body)


def _equivalent_neighbors(
    inputs: CatalogAuditInput, *, duplicates: bool
) -> Iterator:
    """Neighbors containment-equivalent to the audited view.

    ``duplicates`` splits the C102/C104 territories: a neighbor whose
    definition is identical up to variable renaming (:func:`_renaming_key`)
    is a plain duplicate and shadows the view (C104, no containment test
    needed); a neighbor that reaches equivalence only through the
    Chandra-Merlin tests — textually different bodies, e.g. one carrying
    a redundant atom — is the subtler C102 finding.

    Equal predicate signatures are a *necessary* condition for CQ
    equivalence (both containment homomorphisms preserve predicates), so
    the signature prefilter is exact, never just heuristic.
    """
    view = inputs.view
    assert view is not None
    if _has_comparisons(view.definition):
        return
    context = inputs.context
    marker = _marker_definition(view)
    key = _renaming_key(view)
    signature = view.predicate_signature()
    for neighbor in inputs.neighbors:
        if neighbor.arity != view.arity:
            continue
        if _has_comparisons(neighbor.definition):
            continue
        if neighbor.predicate_signature() != signature:
            continue
        is_duplicate = _renaming_key(neighbor) == key
        if is_duplicate != duplicates:
            continue
        if is_duplicate or context.is_equivalent_to(
            marker, _marker_definition(neighbor)
        ):
            yield neighbor


def _pair_fingerprint(
    inputs: CatalogAuditInput, code: str, a: str, b: str
) -> str:
    """An order-free pair fingerprint: stable when the pair swaps roles."""
    return inputs.fingerprint(
        code, *sorted((inputs.view_hash(a), inputs.view_hash(b)))
    )


def _check_equivalent_views(
    inputs: CatalogAuditInput,
) -> Iterator[Diagnostic]:
    view = inputs.view
    assert view is not None
    for neighbor in _equivalent_neighbors(inputs, duplicates=False):
        if not inputs.is_older(neighbor):
            continue  # the pair is reported once, on the later view
        yield RULE_EQUIVALENT_VIEWS.diagnostic(
            f"view {view.name!r} is containment-equivalent to the earlier "
            f"view {neighbor.name!r} despite a different definition; "
            "one of the two adds no rewriting power",
            span=inputs.span_of(view.definition),
            subject=f"view:{view.name}",
            fingerprint=_pair_fingerprint(
                inputs, "C102", view.name, neighbor.name
            ),
        )


RULE_EQUIVALENT_VIEWS = register_rule(
    AnalysisRule(
        code="C102",
        name="equivalent-view-pair",
        description=(
            "Two textually different catalog views are containment-"
            "equivalent; one is redundant."
        ),
        severity=Severity.WARNING,
        family="semantic",
        check=_check_equivalent_views,
        scope="view",
    )
)


# -- C103: unsatisfiable view -------------------------------------------------


def _check_unsatisfiable_view(
    inputs: CatalogAuditInput,
) -> Iterator[Diagnostic]:
    view = inputs.view
    assert view is not None
    for atom, other, reason in contradiction_witnesses(view.definition):
        yield RULE_UNSATISFIABLE_VIEW.diagnostic(
            f"view {view.name!r} is unsatisfiable ({reason}): it is empty "
            "on every database and can never cover a subgoal",
            span=inputs.span_of(atom)
            or (inputs.span_of(other) if other is not None else None)
            or inputs.span_of(view.definition),
            subject=f"view:{view.name}",
            fingerprint=inputs.fingerprint(
                "C103", inputs.view_hash(view.name)
            ),
        )


RULE_UNSATISFIABLE_VIEW = register_rule(
    AnalysisRule(
        code="C103",
        name="unsatisfiable-view",
        description=(
            "A view's body forces a provable constant contradiction; the "
            "view is empty on every database."
        ),
        severity=Severity.ERROR,
        family="structural",
        check=_check_unsatisfiable_view,
        scope="view",
    )
)


# -- C104: shadowed view ------------------------------------------------------


def _check_shadowed_view(inputs: CatalogAuditInput) -> Iterator[Diagnostic]:
    view = inputs.view
    assert view is not None
    newest = None
    for neighbor in _equivalent_neighbors(inputs, duplicates=True):
        if inputs.is_older(neighbor):
            continue  # only *newer* duplicates shadow this view
        newest = neighbor  # neighbors come in registration order
    if newest is None:
        return
    yield RULE_SHADOWED_VIEW.diagnostic(
        f"view {view.name!r} is shadowed: the newer view {newest.name!r} "
        "has an identical definition (up to variable renaming); keep "
        "the newest definition only",
        span=inputs.span_of(view.definition),
        subject=f"view:{view.name}",
        fix=f"drop {view.name}; keep {newest.name} ({newest})",
        # Fingerprint the duplicate *class*, not the (shadowed, newest)
        # pair: with three or more duplicates the pair assignment depends
        # on registration order, while the class itself does not — one
        # baseline entry pins "this duplicate class is accepted".
        fingerprint=inputs.fingerprint("C104", repr(_renaming_key(view))),
    )


RULE_SHADOWED_VIEW = register_rule(
    AnalysisRule(
        code="C104",
        name="shadowed-view",
        description=(
            "A newer view has an identical definition up to variable "
            "renaming; the older view is shadowed."
        ),
        severity=Severity.WARNING,
        family="semantic",
        check=_check_shadowed_view,
        scope="view",
    )
)


# -- C105: unreachable predicate (coverage report) ---------------------------


def _check_unreachable_predicate(
    inputs: CatalogAuditInput,
) -> Iterator[Diagnostic]:
    catalog = inputs.catalog
    indexed = catalog.indexed_predicates()
    for predicate, arity in sorted(indexed):
        exported = False
        for view in catalog.views_for_predicates([(predicate, arity)]):
            if (predicate, arity) not in view.predicate_signature():
                continue  # comparison-only views ride along in the index
            head = set(view.head_variables)
            for atom in view.definition.body:
                if atom.is_comparison or atom.predicate != predicate:
                    continue
                if head.intersection(atom.variable_set()):
                    exported = True
                    break
            if exported:
                break
        if not exported:
            yield RULE_UNREACHABLE_PREDICATE.diagnostic(
                f"base predicate {predicate}/{arity} appears in view bodies "
                "but no view exports any of its join variables; query "
                "subgoals over it can only ever be covered through "
                "existentials",
                subject="catalog",
                fingerprint=inputs.fingerprint(
                    "C105", f"{predicate}/{arity}"
                ),
            )
    for predicate, arity in sorted((inputs.schema or {}).items()):
        if (predicate, int(arity)) not in indexed:
            yield RULE_UNREACHABLE_PREDICATE.diagnostic(
                f"declared base relation {predicate}/{arity} is mentioned "
                "by no view; queries over it cannot be rewritten from this "
                "catalog",
                subject="catalog",
                fingerprint=inputs.fingerprint(
                    "C105", "schema", f"{predicate}/{arity}"
                ),
            )


RULE_UNREACHABLE_PREDICATE = register_rule(
    AnalysisRule(
        code="C105",
        name="unreachable-predicate",
        description=(
            "A base predicate no view usefully exports: the catalog "
            "cannot (or can only opaquely) answer queries over it."
        ),
        severity=Severity.INFO,
        family="structural",
        check=_check_unreachable_predicate,
        scope="catalog",
    )
)


# -- C106: acyclicity classification ------------------------------------------


def _check_cyclic_view(inputs: CatalogAuditInput) -> Iterator[Diagnostic]:
    view = inputs.view
    assert view is not None
    residue = gyo_reduce(view.definition)
    if not residue:
        return  # acyclic views are the quiet common case
    yield RULE_CYCLIC_VIEW.diagnostic(
        f"view {view.name!r} is cyclic: GYO reduction leaves "
        f"{len(residue)} hyperedge(s)",
        span=inputs.span_of(view.definition),
        subject=f"view:{view.name}",
        fingerprint=inputs.fingerprint("C106", inputs.view_hash(view.name)),
    )


RULE_CYCLIC_VIEW = register_rule(
    AnalysisRule(
        code="C106",
        name="cyclic-view",
        description=(
            "A view's body hypergraph is not alpha-acyclic (GYO "
            "reduction leaves a cyclic core)."
        ),
        severity=Severity.INFO,
        family="structural",
        check=_check_cyclic_view,
        scope="view",
    )
)
