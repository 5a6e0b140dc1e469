"""Tests for equivalence classes of views and view tuples (Section 5.2)."""

import time

import pytest

from repro.containment import is_equivalent_to, minimize
from repro.core import (
    core_representatives,
    group_cores_by_coverage,
    group_equivalent_views,
    tuple_cores,
    view_representatives,
    view_tuples,
)
from repro.datalog import parse_query
from repro.errors import UnsupportedQueryError
from repro.experiments.paper_examples import car_loc_part
from repro.planner import PlannerContext
from repro.views import ViewCatalog, as_view


class TestViewGrouping:
    def test_identical_definitions_grouped(self):
        clp = car_loc_part()
        classes = group_equivalent_views(list(clp.views))
        sizes = sorted(len(members) for members in classes)
        assert sizes == [1, 1, 1, 2]  # v1 and v5 together
        merged = next(c for c in classes if len(c) == 2)
        assert {v.name for v in merged} == {"v1", "v5"}

    def test_equivalence_modulo_renaming(self):
        views = [
            as_view("v1(A, B) :- e(A, C), f(C, B)"),
            as_view("v2(X, Y) :- e(X, W), f(W, Y)"),
        ]
        assert len(group_equivalent_views(views)) == 1

    def test_equivalence_modulo_redundancy(self):
        views = [
            as_view("v1(A) :- e(A, B)"),
            as_view("v2(A) :- e(A, B), e(A, C)"),
        ]
        assert len(group_equivalent_views(views)) == 1

    def test_different_views_not_grouped(self):
        views = [
            as_view("v1(A) :- e(A, B)"),
            as_view("v2(A) :- e(B, A)"),
        ]
        assert len(group_equivalent_views(views)) == 2

    def test_head_argument_order_matters(self):
        views = [
            as_view("v1(A, B) :- e(A, B)"),
            as_view("v2(B, A) :- e(A, B)"),
        ]
        assert len(group_equivalent_views(views)) == 2

    def test_representatives_one_per_class(self):
        clp = car_loc_part()
        reps = view_representatives(list(clp.views))
        assert len(reps) == 4


def _minimize_lookups(context):
    return context.counters["minimize"].lookups


class TestEquivalenceKey:
    def test_memoized_on_the_view(self):
        view = as_view("v(A) :- e(A, B), e(A, C)")
        first = view.equivalence_key(PlannerContext())
        context = PlannerContext()
        assert view.equivalence_key(context) is first
        assert _minimize_lookups(context) == 0

    def test_uncached_context_neither_reads_nor_writes_the_memo(self):
        view = as_view("v(A) :- e(A, B)")
        context = PlannerContext(caching=False)
        view.equivalence_key(context)
        assert "_equivalence_key" not in view.__dict__
        view.equivalence_key(PlannerContext())
        view.equivalence_key(context)
        assert _minimize_lookups(context) == 2

    def test_miss_is_answered_from_the_context_core(self):
        # A worker gets a fresh catalog copy per task: the copy's memo
        # is empty, but a warm context's minimized core carries the key.
        view = as_view("v(A, B) :- e(A, C), f(C, B)")
        context = PlannerContext()
        key = view.equivalence_key(context)
        copy = as_view(str(view))
        assert "_equivalence_key" not in copy.__dict__
        assert copy.equivalence_key(context) is key
        assert context.counters["minimize"].hits == 1

    def test_equal_keys_share_one_object(self):
        left = as_view("v1(A) :- e(A, B), f(B, c)")
        right = as_view("v2(X) :- f(Y, c), e(X, Y)")
        assert left.equivalence_key() is right.equivalence_key()

    def test_first_component_is_the_core_signature(self):
        view = as_view("v(A) :- e(A, B), e(A, C)")
        signature = minimize(
            parse_query("__view_cmp__(A) :- e(A, B), e(A, C)")
        ).signature()
        assert view.equivalence_key()[0] == signature

    def test_comparison_views_have_no_key(self):
        view = as_view("v(A) :- e(A, B), A < B")
        with pytest.raises(UnsupportedQueryError):
            view.equivalence_key()

    @pytest.mark.parametrize(
        "left, right",
        [
            # every variable has one in- and one out-edge, so colour
            # refinement alone cannot tell these non-isomorphic cores apart
            ((7,), (4, 3)),
            # both fold to a directed 3-cycle
            ((6,), (3, 3)),
            # isomorphic
            ((4, 3), (3, 4)),
        ],
    )
    def test_keys_of_cycle_unions_match_equivalence(self, left, right):
        def cycles(*lengths):
            atoms = [
                f"r(C{c}_{i}, C{c}_{(i + 1) % n})"
                for c, n in enumerate(lengths)
                for i in range(n)
            ]
            return as_view("v() :- " + ", ".join(atoms))

        left, right = cycles(*left), cycles(*right)
        equivalent = is_equivalent_to(
            parse_query(f"q() :- {', '.join(map(str, left.definition.body))}"),
            parse_query(f"q() :- {', '.join(map(str, right.definition.body))}"),
        )
        assert (left.equivalence_key() == right.equivalence_key()) == equivalent

    @pytest.mark.parametrize(
        "text",
        [
            # a 10-atom path hanging off one head variable
            "v(X0) :- " + ", ".join(f"r(X{i}, X{i + 1})" for i in range(10)),
            # a directed 10-cycle, fully symmetric without a head variable
            "v() :- " + ", ".join(f"r(X{i}, X{(i + 1) % 10})" for i in range(10)),
            # ... and with one
            "v(X0) :- " + ", ".join(f"r(X{i}, X{(i + 1) % 10})" for i in range(10)),
            # two 5-cycles sharing one variable (the core is one of them)
            "v() :- "
            + ", ".join(f"r(X{i}, X{(i + 1) % 5})" for i in range(5))
            + ", "
            + ", ".join(
                f"r(Y{i}, Y{(i + 1) % 5})".replace("Y0", "X0") for i in range(5)
            ),
        ],
    )
    def test_ten_atom_one_predicate_view_keys_quickly(self, text):
        view = as_view(text)
        assert len(view.definition.body) == 10
        started = time.perf_counter()
        view.equivalence_key(PlannerContext())
        assert time.perf_counter() - started < 1.0


class TestCoreGrouping:
    def test_group_by_coverage(self):
        clp = car_loc_part()
        minimized = minimize(clp.query)
        tuples = view_tuples(minimized, clp.views)
        cores = tuple_cores(minimized, tuples)
        groups = group_cores_by_coverage(cores)
        # Coverage sets: {0,1} (v1, v5), {2} (v2), {} (v3), {0,1,2} (v4).
        assert len(groups) == 4
        assert len(groups[frozenset({0, 1})]) == 2

    def test_representatives_ordered_largest_first(self):
        clp = car_loc_part()
        minimized = minimize(clp.query)
        tuples = view_tuples(minimized, clp.views)
        cores = tuple_cores(minimized, tuples)
        reps = core_representatives(cores)
        sizes = [len(core.covered) for core in reps]
        assert sizes == sorted(sizes, reverse=True)
        assert len(reps) == 4
