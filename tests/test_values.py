"""The value classes: equality, hashing, repr, immutability, copying and pickling.

Witnesses reach CLI stdout through repr, and fold states are hashed, so each
class is pinned as a whole: equal fields give equal values and hashes, another
class never compares equal, and a frozen value refuses assignment and deletion,
also after a copy or a pickle round trip.
"""

import copy
import pickle

import pytest

import maxplus as mp
from maxplus.functionals import LinearMapSample
from maxplus.order import CompletionResult, FiniteIS, dm_completion
from maxplus.report import CheckEntry, CheckReport
from maxplus.semialgebra import AlgebraElement
from maxplus.semimodules import SpanBasis


def check_value(a, same, other, fields, text, frozen=True):
    """a and same are equal values of one class, other a different one; fields names a's fields."""
    assert a == same and not a != same and a is not same
    assert a != other and not a == other
    values = tuple(getattr(a, f) for f in fields)
    assert a != values and a.__eq__(values) is NotImplemented
    assert repr(a) == text
    if frozen:
        assert hash(a) == hash(same) == hash(values)
    else:
        assert type(a).__hash__ is None
        with pytest.raises(TypeError):
            hash(a)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is type(a) and b == a and repr(b) == text
        if frozen:
            for name in fields:
                with pytest.raises(AttributeError):
                    setattr(b, name, None)
                with pytest.raises(AttributeError):
                    delattr(b, name)
            # a frozen slots dataclass raises TypeError here: its generated
            # __setattr__ names the class that slots=True replaced
            with pytest.raises((AttributeError, TypeError)):
                b.extra = 1
            assert b == a


def test_extended_scalar():
    check_value(mp.finite("7/3"), mp.parse_scalar("7/3"), mp.finite(2), ("kind", "q"),
                "ExtendedScalar('7/3')")
    check_value(mp.TOP, mp.ExtendedScalar(1), mp.BOTTOM, ("kind", "q"),
                "ExtendedScalar('+inf')")
    assert mp.finite(3) != 3 and mp.ExtendedScalar(0, 3) == mp.finite(3)


def test_fin_vector():
    x = mp.vector([1, mp.BOTTOM, "1/2"], ["a", "b", "c"])
    check_value(x, mp.FinVector(list(x.coords), ["a", "b", "c"]), mp.vector([1, mp.BOTTOM, "1/2"]),
                ("coords", "labels"), "FinVector(1 -inf 1/2)")
    assert mp.FinVector(x.coords).labels is None


def test_span_basis():
    g = mp.vector([0, 1])
    check_value(SpanBasis.of([g, mp.zero_vector(2)]), SpanBasis((mp.vector([0, 1]),)),
                SpanBasis(()), ("generators",), "SpanBasis(generators=(FinVector(0 1),))")


def test_functional_rep():
    check_value(mp.FunctionalRep(mp.vector([1])), mp.FunctionalRep(mp.vector([1])),
                mp.FunctionalRep(mp.vector([2])), ("representer",),
                "FunctionalRep(representer=FinVector(1))")


def test_linear_map_sample():
    pairs = ((mp.vector([0]), mp.vector([1, mp.TOP])),)
    check_value(LinearMapSample.of(pairs), LinearMapSample(pairs),
                LinearMapSample(((mp.vector([1]), mp.vector([1, mp.TOP])),)), ("pairs",),
                "LinearMapSample(pairs=((FinVector(0), FinVector(1 +inf)),))")


def test_algebra_element():
    check_value(mp.element([0, "1/2"], ["a", "b"]),
                AlgebraElement(mp.vector([0, "1/2"], ["a", "b"])),
                mp.element([0, "1/2"], ["a", "c"]), ("vec",),
                "AlgebraElement(vec=FinVector(0 1/2))")


def test_finite_is():
    s = FiniteIS.from_pairs(["a"], [])
    check_value(s, FiniteIS(("a",), frozenset({(0, 0)})), FiniteIS.from_pairs(["b"], []),
                ("elements", "relation"),
                "FiniteIS(elements=('a',), relation=frozenset({(0, 0)}))")
    for b in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert b.top_index() == 0 and b.is_complete_lattice()


def test_completion_result():
    a = dm_completion(FiniteIS.antichain(["a"]))
    same = CompletionResult(FiniteIS(("a",), frozenset({(0, 0)})), {"a": "a"})
    other = CompletionResult(a.completed, {})
    text = ("CompletionResult(completed=FiniteIS(elements=('a',), relation=frozenset({(0, 0)})), "
            "embedding={'a': 'a'})")
    assert a == same and a != other and a.__eq__((a.completed, a.embedding)) is NotImplemented
    assert repr(a) == text
    with pytest.raises(TypeError):  # a frozen value, but its embedding is a dict
        hash(a)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and repr(b) == text
        for name in ("completed", "embedding", "extra"):
            with pytest.raises(AttributeError):
                setattr(b, name, None)
        with pytest.raises(AttributeError):
            del b.embedding


def test_check_entry():
    e = CheckEntry("x", False)
    check_value(e, CheckEntry("x", False, None), CheckEntry("x", False, ()),
                ("name", "passed", "witness"), "CheckEntry(name='x', passed=False, witness=None)",
                frozen=False)
    e.witness = (1,)
    assert e.line() == "x: FAIL witness=(1,)"


def test_check_report():
    r = CheckReport()
    r.record("a", True)
    same = CheckReport([CheckEntry("a", True)])
    check_value(r, same, CheckReport(), ("entries",),
                "CheckReport(entries=[CheckEntry(name='a', passed=True, witness=None)])",
                frozen=False)
    # each report starts with its own list
    CheckReport().record("b", False)
    assert CheckReport().entries == [] and CheckReport().all_passed
