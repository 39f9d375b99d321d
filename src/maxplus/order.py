"""Finite posets as idempotent semigroups, and completion by cuts.

A finite idempotent semigroup is an upper semilattice; we present it as a
partial order.  Antichains and other join-free posets are accepted as inputs
to the completion routines (the completion is what restores the joins), but
``has_all_joins`` reports whether the input is a genuine semilattice.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .report import Frozen

# The completion's output is bounded, not its input: every cut is one element
# of the result.  Chains are the slowest shape per cut (every cut is large); a
# 256-chain completes in ~0.07 s on one Xeon core, a 1000-chain in ~2 s.
COMPLETION_MAX_CUTS = 256


class PosetError(ValueError):
    pass


def _members(bits: int) -> List[int]:
    """The indices of the set bits of bits, ascending."""
    return [i for i, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"]


class FiniteIS(Frozen):
    """A finite partial order (element labels and a leq relation), validated when built."""

    __slots__ = ("elements", "relation", "__dict__")  # the __dict__ holds _up and its inverse

    def __init__(self, elements: Tuple[str, ...], relation: FrozenSet[Tuple[int, int]]):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "relation", relation)
        self.validate()

    @classmethod
    def from_pairs(cls, elements: Sequence[str],
                   pairs: Iterable[Tuple[str, str]]) -> "FiniteIS":
        """Build from (lower, upper) label pairs, taking the reflexive-transitive closure."""
        elements = tuple(elements)
        index = {lab: i for i, lab in enumerate(elements)}
        up = [1 << i for i in range(len(elements))]
        for a, b in pairs:
            if a not in index or b not in index:
                raise PosetError(f"unknown element in relation {a!r} < {b!r}")
            up[index[a]] |= 1 << index[b]
        # Warshall: after step k, up[i] holds every j reachable through 0..k.
        for k, above in enumerate(up):
            for i, u in enumerate(up):
                if u >> k & 1:
                    up[i] = u | above
        return cls(elements, frozenset((i, j) for i, u in enumerate(up) for j in _members(u)))

    @classmethod
    def chain(cls, labels: Sequence[str]) -> "FiniteIS":
        return cls.from_pairs(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])

    @classmethod
    def antichain(cls, labels: Sequence[str]) -> "FiniteIS":
        return cls.from_pairs(labels, [])

    def validate(self) -> None:
        """Refuse repeated labels, out-of-range pairs, and any relation not a partial order."""
        if len(set(self.elements)) != len(self.elements):
            dup = next(e for k, e in enumerate(self.elements) if e in self.elements[:k])
            raise PosetError(f"duplicate element label {dup!r}")
        indices = range(len(self.elements))
        up = [0] * len(self.elements)  # bit j of up[i] is set when i <= j
        for i, j in self.relation:
            if i not in indices or j not in indices:
                raise PosetError("relation pair outside the element indices")
            up[i] |= 1 << j
        if any(not u >> i & 1 for i, u in enumerate(up)):
            raise PosetError("not a partial order: relation is not reflexive")
        if any(i != j and up[j] >> i & 1 for i, j in self.relation):
            raise PosetError("not a partial order: relation is not antisymmetric")
        if any(up[j] & ~up[i] for i, j in self.relation):
            raise PosetError("not a partial order: relation is not transitive")
        object.__setattr__(self, "_up", tuple(up))  # the order view every query reads

    # --- basic order queries ---

    def index(self, label: str) -> int:
        try:
            return self.elements.index(label)
        except ValueError:
            raise PosetError(f"unknown element {label!r}") from None

    def _check_index(self, i: int) -> int:
        """i itself when it indexes an element; IndexError names any other, a negative one too."""
        if 0 <= i < len(self._up):
            return i
        raise IndexError(f"element index {i!r} is outside range({len(self._up)})")

    def leq(self, i: int, j: int) -> bool:
        return bool(self._up[self._check_index(i)] >> self._check_index(j) & 1)

    def _bounds(self, subset: Iterable[int]) -> int:  # the upper bounds, as a bit-set
        up, n = self._up, len(self._up)
        bits = (1 << n) - 1
        for i in subset:
            bits &= up[i if 0 <= i < n else self._check_index(i)]
        return bits

    def upper_bounds(self, subset: Iterable[int]) -> FrozenSet[int]:
        return frozenset(_members(self._bounds(subset)))

    @cached_property
    def _element_of_up(self) -> Dict[int, int]:
        """Each principal up-set mapped to its element; antisymmetry makes them distinct."""
        return {up: i for i, up in enumerate(self._up)}

    def join_index(self, subset: Iterable[int]) -> Optional[int]:
        """Index of the least upper bound of a subset, or None if it does not exist.

        u is the join of S exactly when the upper bounds of S are the up-set of u.
        """
        return self._element_of_up.get(self._bounds(subset))

    def has_all_joins(self) -> bool:
        return all(a & b in self._element_of_up for a, b in combinations(self._up, 2))

    def down_set(self, j: int) -> FrozenSet[int]:
        j = self._check_index(j)
        return frozenset(i for i, up in enumerate(self._up) if up >> j & 1)

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


class CompletionResult(Frozen):
    __slots__ = ("completed", "embedding")

    def __init__(self, completed: FiniteIS, embedding: Dict[str, str]):
        object.__setattr__(self, "completed", completed)
        object.__setattr__(self, "embedding", embedding)


def _enumerate_cuts(s: FiniteIS) -> List[FrozenSet[int]]:
    """Every cut, sorted by (size, members).

    The cuts are exactly the intersections of principal down-sets, the empty
    intersection being the full set, so closing {full set} under intersection
    with each down-set in turn finds them all in O(n * cuts) intersections.
    """
    downs = [0] * len(s.elements)  # bit i of downs[j] is set when i <= j
    for i, j in s.relation:
        downs[j] |= 1 << i
    cuts = {(1 << len(downs)) - 1}
    for down in downs:
        cuts |= {cut & down for cut in cuts}
        if len(cuts) > COMPLETION_MAX_CUTS:
            raise PosetError(f"completion limited to {COMPLETION_MAX_CUTS} cuts, "
                             f"got at least {len(cuts)}")
    return [frozenset(c) for c in sorted(map(_members, cuts), key=lambda c: (len(c), c))]


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

    labels: List[str] = []
    synth = 0
    for cut in cuts:
        if (j := s.join_index(cut)) is not None:  # a cut with a join j is the down-set of j
            labels.append(s.elements[j])
        elif not cut:
            labels.append("_bot")
        elif len(cut) == n:
            labels.append("_top")
        else:
            labels.append(f"_cut{synth}")
            synth += 1

    bits = [sum(1 << i for i in cut) for cut in cuts]
    relation = frozenset((i, j) for i, a in enumerate(bits)
                         for j, b in enumerate(bits) if a & ~b == 0)
    completed = FiniteIS(tuple(labels), relation)
    if not completed.is_complete_lattice():
        raise RuntimeError("cut completion is not a complete lattice")
    # distinct elements have distinct down-sets, so each keeps its own label
    return CompletionResult(completed, {e: e for e in s.elements})


# Bounded completion: for a finite input every subset is bounded once the
# missing joins are adjoined, so it coincides with the normal completion.
b_completion = dm_completion
