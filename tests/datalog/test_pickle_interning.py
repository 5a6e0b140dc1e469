"""Pickle-safe interning for terms, atoms, and substitutions.

The worker pool ships queries, catalogs, and outcomes across a
process boundary.  ``__reduce__`` on :class:`Variable`, :class:`Constant`
and :class:`Atom` routes unpickling through module-level intern pools,
so two copies of one object that cross a pickle round trip collapse back
to a *single* object in the receiving process and identity-keyed fast
paths (the :class:`InternTable`, shared-substitution checks) stay hot.
"""

import copy
import pickle

import pytest

from repro.datalog.atoms import clear_interned_atoms, make_atom
from repro.datalog.parser import parse_query
from repro.datalog.substitution import Substitution
from repro.datalog.terms import (
    Constant,
    Variable,
    clear_interned_terms,
    interned_constant,
    interned_variable,
)
from repro.datalog.interning import InternTable


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test sees empty intern pools (they are process-global)."""
    clear_interned_terms()
    clear_interned_atoms()
    yield
    clear_interned_terms()
    clear_interned_atoms()


class TestTermRoundTrip:
    def test_two_unpickles_of_one_variable_are_identical(self):
        x = Variable("X")
        a = pickle.loads(pickle.dumps(x))
        b = pickle.loads(pickle.dumps(x))
        assert a == x
        assert a is b

    def test_two_unpickles_of_one_constant_are_identical(self):
        c = Constant(42)
        a = pickle.loads(pickle.dumps(c))
        b = pickle.loads(pickle.dumps(c))
        assert a == c
        assert a is b

    def test_interned_constructors_are_get_or_create(self):
        assert interned_variable("X") is interned_variable("X")
        assert interned_constant("paris") is interned_constant("paris")
        assert interned_variable("X") != interned_variable("Y")

    def test_unhashable_constant_falls_back_to_fresh_object(self):
        # Unhashable constant values are legal but cannot be pooled.
        assert interned_constant([1, 2]).value == [1, 2]
        assert interned_constant([1, 2]) is not interned_constant([1, 2])


class TestAtomRoundTrip:
    def test_atom_unpickles_to_one_canonical_object(self):
        atom = make_atom("edge", (Variable("X"), Constant(1)))
        a = pickle.loads(pickle.dumps(atom))
        b = pickle.loads(pickle.dumps(atom))
        assert a == atom
        assert a is b
        # Its terms were re-interned too.
        assert a.args[0] is interned_variable("X")

    def test_deepcopy_returns_the_interned_object(self):
        # __reduce__ also drives copy; for immutable atoms sharing is
        # exactly what we want.
        atom = pickle.loads(pickle.dumps(make_atom("r", (Variable("X"),))))
        assert copy.deepcopy(atom) is atom


class TestQueryRoundTrip:
    def test_query_round_trips_equal_with_shared_structure(self):
        q = parse_query("q(X, Z) :- car(X, Y), loc(Y, Z)")
        q2 = pickle.loads(pickle.dumps(q))
        q3 = pickle.loads(pickle.dumps(q))
        assert str(q2) == str(q)
        assert q2 == q
        assert q2.head is q3.head

    def test_intern_table_identity_fast_path_after_round_trip(self):
        """The InternTable's id()-keyed fast path must hold for atoms
        that crossed a process boundary: two unpickles are one object,
        so they share one structural key."""
        table = InternTable()
        atom = make_atom("edge", (Variable("X"), Variable("Y")))
        a = pickle.loads(pickle.dumps(atom))
        b = pickle.loads(pickle.dumps(atom))
        assert a is b
        assert table.atom_key(a) == table.atom_key(b)


class TestSubstitutionRoundTrip:
    def test_substitution_round_trips_with_interned_keys(self):
        x, y = Variable("X"), Variable("Y")
        sub = Substitution({x: Constant(1), y: Variable("Z")})
        sub2 = pickle.loads(pickle.dumps(sub))
        assert sub2.as_dict() == sub.as_dict()
        (kx, ky) = sorted(sub2.as_dict(), key=lambda v: v.name)
        assert kx is pickle.loads(pickle.dumps(x))
        assert ky is pickle.loads(pickle.dumps(y))
