"""Pass/fail reports with witnesses, shared by all the law checkers, and the
record base classes every value class of the package is written on."""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

# Subset laws close over the fold states of n items, of which there can be 2**n;
# past this bound each law checker refuses its items before any law runs, not
# after minutes.  At the bound check_semiring_axioms, whose pair and triple laws
# cost n**3, takes about 0.03 s on one core.
MAX_SUBSET_ITEMS = 14


class Record:
    """A record over the names in its class's __slots__: field equality and repr.

    The value classes are written on it in place of @dataclass, whose
    decoration runs at every import of the package.  As with a dataclass, a
    record equals only a record of its own class, a mutable one is unhashable,
    and repr names each field.  A "__dict__" slot is not a field.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """An immutable record, hashed as the tuple of its fields.

    Assignment and deletion raise AttributeError, so __init__ sets each field
    with object.__setattr__.  copy, deepcopy and pickle rebuild a value by
    calling the class on its fields, which a raising __setattr__ would
    otherwise break.
    """

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class CheckEntry(Record):
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name: str, passed: bool, witness: object = None):
        self.name = name
        self.passed = passed
        self.witness = witness

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.passed or self.witness is None:
            return f"{self.name}: {status}"
        return f"{self.name}: {status} witness={self.witness!r}"


class CheckReport(Record):
    __slots__ = ("entries",)

    def __init__(self, entries: Optional[List[CheckEntry]] = None):
        self.entries = [] if entries is None else entries

    def record(self, name: str, passed: bool, witness: object = None) -> None:
        self.entries.append(CheckEntry(name, passed, witness))

    def record_first(self, name: str, failures: Iterable) -> None:
        """Record a check that fails iff the lazy iterable of failing cases yields an item.

        The first case yielded is the witness; the iterable is not read past it.
        A witness may be falsy (the empty subset is ``()``), so only the
        absence of an item counts as a pass.
        """
        for witness in failures:
            self.record(name, False, witness)
            return
        self.record(name, True)

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> List[CheckEntry]:
        return [e for e in self.entries if not e.passed]

    def entry(self, name: str) -> Optional[CheckEntry]:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def lines(self) -> List[str]:
        return [e.line() for e in self.entries]


def refuse_past_subset_bound(items: Sequence) -> None:
    """Raise ValueError naming the bound if items has more than MAX_SUBSET_ITEMS members."""
    if len(items) > MAX_SUBSET_ITEMS:
        raise ValueError(f"{len(items)} items give 2**{len(items)} subsets; subset laws "
                         f"are checked on at most {MAX_SUBSET_ITEMS} items")


def fold_failures(items: Sequence, h: Callable, op: Callable, unit: object,
                  op_h: Callable, unit_h: object) -> Iterator[Tuple]:
    """Yield the least subsets S of items with h(fold S) != fold_h(h(s) for s in S).

    Subsets are tuples of items, least first in itertools.combinations order.
    At most two are yielded: () if the empty subset fails, then the least
    failing nonempty subset, if there is one.  Folds run left to right from
    unit under op and from unit_h under op_h.

    A law reads S only through its state (fold S, fold_h S), so the states are
    closed over the items in index order, each kept with the least nonempty
    index tuple that reaches it: h runs once per item and once per distinct
    state, not once per subset.  Hence h, op and op_h must be functions of
    their arguments' values, and folds must be hashable.  A failing nonempty
    subset is yielded only after the closure is complete.  Callers bound items
    with refuse_past_subset_bound first.
    """
    if h(unit) != unit_h:
        yield ()
    # (fold, fold_h) -> (size, index tuple) of the least nonempty subset reaching it
    least = {}
    for i, x in enumerate(items):
        image = h(x)
        for (acc, acc_h), (size, t) in [((unit, unit_h), (0, ())), *least.items()]:
            state, key = (op(acc, x), op_h(acc_h, image)), (size + 1, t + (i,))
            # a smaller subset can reach a state first found by a larger one, as
            # (2,) may reach the state of (0, 1), so the kept key is compared
            if least.setdefault(state, key) > key:
                least[state] = key
    failing = [key for (fold, fold_h), key in least.items() if h(fold) != fold_h]
    if failing:
        yield tuple(items[i] for i in min(failing)[1])
