"""Pass/fail reports with witnesses, shared by all the law checkers."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

# Subset laws fold all 2**n subsets of n items; past this bound each law checker
# refuses its items before any law runs, not after minutes.  At the bound
# check_semiring_axioms, which enumerates 2n times, takes about 1.3 s on one core.
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
    """Yield each subset S of items, as a tuple in itertools.combinations order from
    the empty one, with h(fold S) != fold_h(h(s) for s in S).  Folds run left to
    right from unit under op and from unit_h under op_h, each from its prefix's
    fold, one size level kept at a time: h runs once per item and once per subset.
    Callers bound items with refuse_past_subset_bound first.
    """
    if h(unit) != unit_h:
        yield ()
    images = [h(x) for x in items]
    level = {(): (unit, unit_h)}
    for r in range(1, len(items) + 1):
        prev, level = level, {}
        for idx in itertools.combinations(range(len(items)), r):
            acc, acc_h = prev[idx[:-1]]
            fold, fold_h = level[idx] = op(acc, items[idx[-1]]), op_h(acc_h, images[idx[-1]])
            if h(fold) != fold_h:
                yield tuple(items[i] for i in idx)
