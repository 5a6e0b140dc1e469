"""Tests for the homomorphism search engine."""

from repro.containment import find_homomorphism, find_homomorphisms, unify_atom
from repro.containment.homomorphism import observe_searches
from repro.datalog import Atom, Constant, Substitution, Variable


X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
a, b = Constant("a"), Constant("b")


class TestUnifyAtom:
    def test_basic(self):
        sub = unify_atom(Atom("e", (X, Y)), Atom("e", (Z, a)), Substitution())
        assert sub is not None
        assert sub[X] == Z and sub[Y] == a

    def test_predicate_mismatch(self):
        assert unify_atom(Atom("e", (X,)), Atom("f", (X,)), Substitution()) is None

    def test_arity_mismatch(self):
        assert unify_atom(Atom("e", (X,)), Atom("e", (X, Y)), Substitution()) is None

    def test_constant_match(self):
        sub = unify_atom(Atom("e", (a,)), Atom("e", (a,)), Substitution())
        assert sub == Substitution()

    def test_constant_mismatch(self):
        assert unify_atom(Atom("e", (a,)), Atom("e", (b,)), Substitution()) is None

    def test_constant_vs_variable_target(self):
        # A source constant must map to itself, never to a target variable.
        assert unify_atom(Atom("e", (a,)), Atom("e", (X,)), Substitution()) is None

    def test_repeated_variable_consistency(self):
        assert unify_atom(Atom("e", (X, X)), Atom("e", (a, b)), Substitution()) is None
        sub = unify_atom(Atom("e", (X, X)), Atom("e", (a, a)), Substitution())
        assert sub is not None and sub[X] == a

    def test_respects_seed(self):
        seed = Substitution({X: a})
        assert unify_atom(Atom("e", (X,)), Atom("e", (b,)), seed) is None


class TestFindHomomorphisms:
    def test_finds_all(self):
        source = [Atom("e", (X, Y))]
        target = [Atom("e", (a, b)), Atom("e", (b, a))]
        homs = list(find_homomorphisms(source, target))
        assert len(homs) == 2

    def test_multiple_source_atoms_share_bindings(self):
        source = [Atom("e", (X, Y)), Atom("f", (Y, Z))]
        target = [Atom("e", (a, b)), Atom("f", (b, a)), Atom("f", (a, b))]
        homs = list(find_homomorphisms(source, target))
        assert len(homs) == 1
        assert homs[0][Y] == b and homs[0][Z] == a

    def test_no_homomorphism(self):
        assert (
            find_homomorphism([Atom("e", (X, X))], [Atom("e", (a, b))]) is None
        )

    def test_two_source_atoms_may_share_one_target(self):
        source = [Atom("e", (X, Y)), Atom("e", (Y, X))]
        target = [Atom("e", (a, a))]
        hom = find_homomorphism(source, target)
        assert hom is not None
        assert hom[X] == a and hom[Y] == a

    def test_seeded_search(self):
        source = [Atom("e", (X, Y))]
        target = [Atom("e", (a, b)), Atom("e", (b, a))]
        homs = list(find_homomorphisms(source, target, Substitution({X: b})))
        assert len(homs) == 1
        assert homs[0][Y] == a

    def test_injective_mode_rejects_merging(self):
        source = [Atom("e", (X, Y)), Atom("e", (Y, X))]
        target = [Atom("e", (a, a))]
        assert find_homomorphism(source, target, injective=True) is None

    def test_injective_mode_accepts_bijection(self):
        source = [Atom("e", (X, Y))]
        target = [Atom("e", (Z, W))]
        hom = find_homomorphism(source, target, injective=True)
        assert hom is not None

    def test_injective_rejects_variable_to_source_constant(self):
        # X -> a collides with the source constant a (which maps to itself).
        source = [Atom("e", (X, a))]
        target = [Atom("e", (a, a))]
        assert find_homomorphism(source, target, injective=True) is None
        assert find_homomorphism(source, target) is not None

    def test_empty_source_yields_seed(self):
        homs = list(find_homomorphisms([], [Atom("e", (a,))]))
        assert homs == [Substitution()]


class _CountingObserver:
    def __init__(self):
        self.searches = 0
        self.nodes = 0

    def record_search(self):
        self.searches += 1

    def record_nodes(self, nodes):
        self.nodes += nodes


class _MinimalObserver:
    """An observer implementing only the required protocol method."""

    def __init__(self):
        self.searches = 0

    def record_search(self):
        self.searches += 1


class TestObserverAccounting:
    def test_minimal_observer_keeps_working(self):
        observer = _MinimalObserver()
        source = [Atom("e", (X, Y)), Atom("e", (Y, Z))]
        target = [Atom("e", (a, b)), Atom("e", (b, a))]
        with observe_searches(observer):
            assert len(list(find_homomorphisms(source, target))) == 2
        assert observer.searches == 1

    def test_nodes_flush_on_early_close(self):
        observer = _CountingObserver()
        source = [Atom("e", (X, Y)), Atom("e", (Y, Z))]
        target = [Atom("e", (a, b)), Atom("e", (b, a)), Atom("e", (b, b))]
        with observe_searches(observer):
            iterator = find_homomorphisms(source, target)
            next(iterator)
            iterator.close()
        assert observer.searches == 1
        assert observer.nodes > 0
