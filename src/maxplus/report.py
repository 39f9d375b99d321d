"""Pass/fail reports with witnesses, shared by all the law checkers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional


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
