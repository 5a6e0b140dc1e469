"""Differential tests: key-based view grouping against the pairwise reference.

``group_equivalent_views`` groups views by a canonical key of each
view's minimized definition.  The reference below is the pairwise
algorithm it replaced: minimize every definition, bucket by
``signature()``, and test each view with ``is_equivalent_to`` against the
representatives of its bucket in order.  The two must return identical
class lists in identical order (representatives drive the rewriting
texts), over star, chain, cycle and random catalogs salted with
variable-renamed copies, redundant-atom copies and views with a
nondistinguished variable.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.containment import is_equivalent_to, minimize
from repro.core import group_equivalent_views
from repro.datalog import Atom, ConjunctiveQuery, Variable
from repro.planner import PlannerContext
from repro.views import View, as_view
from repro.workload import WorkloadConfig, generate_workload


def _neutral(view):
    return ConjunctiveQuery(
        Atom("__cmp__", view.definition.head.args), view.definition.body
    )


def pairwise_reference(views):
    """The signature-bucket, pairwise ``is_equivalent_to`` grouping."""
    buckets = {}
    for view in views:
        definition = minimize(_neutral(view))
        buckets.setdefault(definition.signature(), []).append((view, definition))
    classes = []
    for bucket in buckets.values():
        representatives = []
        for view, definition in bucket:
            for kept, members in representatives:
                if is_equivalent_to(definition, kept):
                    members.append(view)
                    break
            else:
                representatives.append((definition, [view]))
        classes.extend(members for _, members in representatives)
    return classes


def names(classes):
    return [[view.name for view in members] for members in classes]


# -- catalog construction ------------------------------------------------------


def _renamed(definition, rng):
    """A variable-renamed copy with the body shuffled."""
    variables = sorted(definition.variables(), key=lambda v: v.name)
    fresh = [Variable(f"R{i}") for i in range(len(variables))]
    rng.shuffle(fresh)
    mapping = dict(zip(variables, fresh))

    def rename(atom):
        return Atom(atom.predicate, tuple(mapping.get(a, a) for a in atom.args))

    body = [rename(atom) for atom in definition.body]
    rng.shuffle(body)
    return ConjunctiveQuery(rename(definition.head), tuple(body))


def _with_redundant_atom(definition, rng):
    """A copy with one more atom that folds back onto an existing one.

    The extra atom copies a body atom with its existential variables
    replaced by fresh ones, so mapping those back is a homomorphism.
    """
    head = set(definition.head.args)
    source = rng.choice(definition.body)
    extra = Atom(
        source.predicate,
        tuple(
            Variable(f"Z{i}") if isinstance(a, Variable) and a not in head else a
            for i, a in enumerate(source.args)
        ),
    )
    body = list(definition.body)
    body.insert(rng.randrange(len(body) + 1), extra)
    return ConjunctiveQuery(definition.head, tuple(body))


def _dropping_head_variable(definition, rng):
    """A copy with one head variable made nondistinguished."""
    args = list(definition.head.args)
    if not args:
        return definition
    del args[rng.randrange(len(args))]
    head = Atom(definition.head.predicate, tuple(args))
    return ConjunctiveQuery(head, definition.body)


_COPIES = (_renamed, _with_redundant_atom, _dropping_head_variable)


def _cycle_definitions(rng, count):
    """Unions of one or two directed cycles, each over one predicate.

    Every variable of such a body has one in- and one out-edge, so colour
    refinement alone cannot tell, say, a 7-cycle from a 4- plus a 3-cycle.
    """
    definitions = []
    for _ in range(count):
        body, xs = [], []
        for c in range(rng.randint(1, 2)):
            length = rng.randint(1, 5)
            cycle = [Variable(f"X{c}_{i}") for i in range(length)]
            predicate = rng.choice(("r", "s"))
            body += [
                Atom(predicate, (cycle[i], cycle[(i + 1) % length]))
                for i in range(length)
            ]
            xs += cycle
        head = tuple(v for v in xs if rng.random() < 0.3)
        definitions.append(ConjunctiveQuery(Atom("v", head), tuple(body)))
    return definitions


def _random_definitions(rng, count):
    definitions = []
    for _ in range(count):
        xs = [Variable(f"X{i}") for i in range(rng.randint(1, 4))]
        body = tuple(
            Atom(rng.choice(("r", "s")), (rng.choice(xs), rng.choice(xs)))
            for _ in range(rng.randint(1, 4))
        )
        used = sorted({v for atom in body for v in atom.args}, key=lambda v: v.name)
        head = tuple(v for v in used if rng.random() < 0.6)
        definitions.append(ConjunctiveQuery(Atom("v", head), body))
    return definitions


def _workload_definitions(shape, seed, nondistinguished):
    workload = generate_workload(
        WorkloadConfig(
            shape=shape,
            num_relations=6 if shape == "star" else 8,
            query_subgoals=4,
            num_views=12,
            nondistinguished=nondistinguished,
            seed=seed,
            require_rewritable=False,
        )
    )
    return [view.definition for view in workload.views]


def build_catalog(shape, seed, copies, nondistinguished):
    """Base definitions of *shape* plus *copies* equivalent-or-not copies."""
    rng = random.Random(seed)
    if shape == "cycle":
        definitions = _cycle_definitions(rng, 8)
    elif shape == "random":
        definitions = _random_definitions(rng, 10)
    else:
        definitions = _workload_definitions(shape, seed, nondistinguished)
    for _ in range(copies):
        make_copy = rng.choice(_COPIES)
        definitions.append(make_copy(rng.choice(definitions), rng))
    rng.shuffle(definitions)
    # Fresh View objects, named by position: no key is memoized yet.
    return [
        View(ConjunctiveQuery(Atom(f"v{i}", d.head.args), d.body))
        for i, d in enumerate(definitions)
    ]


catalog_args = st.tuples(
    st.sampled_from(("star", "chain", "cycle", "random")),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=12),
    st.sampled_from((0, 1)),
)


class TestGroupingMatchesPairwiseReference:
    @settings(max_examples=60, deadline=None)
    @given(catalog_args)
    def test_identical_classes_in_identical_order(self, args):
        views = build_catalog(*args)
        assert names(group_equivalent_views(views)) == names(
            pairwise_reference(views)
        )

    @settings(max_examples=25, deadline=None)
    @given(catalog_args)
    def test_uncached_context_agrees(self, args):
        views = build_catalog(*args)
        uncached = group_equivalent_views(views, PlannerContext(caching=False))
        assert names(uncached) == names(pairwise_reference(views))

    @settings(max_examples=40, deadline=None)
    @given(catalog_args, st.data())
    def test_keys_equal_iff_equivalent(self, args, data):
        views = build_catalog(*args)
        left = data.draw(st.sampled_from(views))
        right = data.draw(st.sampled_from(views))
        equivalent = is_equivalent_to(_neutral(left), _neutral(right))
        assert (left.equivalence_key() == right.equivalence_key()) == equivalent

    def test_every_pair_of_a_mixed_catalog(self):
        views = build_catalog("random", 7, 12, 0) + build_catalog("cycle", 3, 8, 0)
        for left in views:
            for right in views:
                equivalent = is_equivalent_to(_neutral(left), _neutral(right))
                same_key = left.equivalence_key() == right.equivalence_key()
                assert same_key == equivalent, (str(left), str(right))

    def test_renamed_and_redundant_copies_share_a_class(self):
        views = [
            as_view("v1(A, B) :- e(A, C), f(C, B)"),
            as_view("v2(X, Y) :- f(W, Y), e(X, W)"),
            as_view("v3(A, B) :- e(A, C), e(A, D), f(C, B)"),
            as_view("v4(A) :- e(A, C), f(C, B)"),
        ]
        assert names(group_equivalent_views(views)) == [["v1", "v2", "v3"], ["v4"]]
        assert names(group_equivalent_views(views)) == names(pairwise_reference(views))
