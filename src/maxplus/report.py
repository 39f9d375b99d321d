"""Pass/fail reports with witnesses, shared by all the law checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

# Subset laws close over the fold states of n items, of which there can be 2**n;
# past this bound each law checker refuses its items before any law runs, not
# after minutes.  At the bound check_semiring_axioms, whose pair and triple laws
# cost n**3, takes about 0.03 s on one core.
MAX_SUBSET_ITEMS = 14


@dataclass
class CheckEntry:
    name: str
    passed: bool
    witness: object = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        if self.passed or self.witness is None:
            return f"{self.name}: {status}"
        return f"{self.name}: {status} witness={self.witness!r}"


@dataclass
class CheckReport:
    entries: List[CheckEntry] = field(default_factory=list)

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
