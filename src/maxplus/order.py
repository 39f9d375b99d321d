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
# 256-chain completes in ~0.03 s on one Xeon core, a 1000-chain in ~0.8 s.
COMPLETION_MAX_CUTS = 256


class PosetError(ValueError):
    pass


def _members(bits: int) -> List[int]:
    """The indices of the set bits of bits, ascending."""
    return [i for i, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"]


def _refuse_repeated(elements: Tuple[str, ...]) -> None:
    if len(set(elements)) != len(elements):
        dup = next(e for k, e in enumerate(elements) if e in elements[:k])
        raise PosetError(f"duplicate element label {dup!r}")


class FiniteIS(Frozen):
    """A finite partial order (element labels and a leq relation), validated when built."""

    __slots__ = ("elements", "__dict__")  # __dict__: _up, _down, _element_of_up, relation
    _fields = ("elements", "relation")

    def __init__(self, elements: Tuple[str, ...], relation: FrozenSet[Tuple[int, int]]):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "relation", relation)  # shadows the derived relation
        self.validate()

    @classmethod
    def _of_up_sets(cls, elements: Tuple[str, ...], up: List[int]) -> "FiniteIS":
        """Trusted closed up-sets; two elements each below the other would share one."""
        _refuse_repeated(elements)
        s = object.__new__(cls)
        object.__setattr__(s, "elements", elements)
        object.__setattr__(s, "_up", tuple(up))
        if len(s._element_of_up) != len(up):
            raise PosetError("not a partial order: relation is not antisymmetric")
        return s

    @classmethod
    def from_pairs(cls, elements: Sequence[str],
                   pairs: Iterable[Tuple[str, str]]) -> "FiniteIS":
        """Build from (lower, upper) label pairs, taking the reflexive-transitive closure."""
        elements = tuple(elements)
        index = {lab: i for i, lab in enumerate(elements)}
        above, below = [[] for _ in elements], [[] for _ in elements]
        for a, b in pairs:
            if a not in index or b not in index:
                raise PosetError(f"unknown element in relation {a!r} < {b!r}")
            if a != b:
                above[index[a]].append(index[b])
                below[index[b]].append(index[a])
        # One OR per pair, each element closed once all above it are; those on or
        # below a cycle keep the up-set 0, so a cycle is not antisymmetric.
        waiting, up = list(map(len, above)), [0] * len(elements)
        ready = [i for i, w in enumerate(waiting) if not w]
        for j in ready:  # grows as elements are closed
            up[j] = 1 << j
            for k in above[j]:
                up[j] |= up[k]
            for i in below[j]:
                waiting[i] -= 1
                if not waiting[i]:
                    ready.append(i)
        return cls._of_up_sets(elements, up)

    @classmethod
    def chain(cls, labels: Sequence[str]) -> "FiniteIS":
        return cls.from_pairs(labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)])

    @classmethod
    def antichain(cls, labels: Sequence[str]) -> "FiniteIS":
        return cls.from_pairs(labels, [])

    @cached_property
    def relation(self) -> FrozenSet[Tuple[int, int]]:
        """Derived from the int up-sets every query reads, when first read and not given."""
        return frozenset((i, j) for i, u in enumerate(self._up) for j in _members(u))

    def validate(self) -> None:
        """Refuse repeated labels, out-of-range pairs, and any relation not a partial order."""
        _refuse_repeated(self.elements)
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
        object.__setattr__(self, "_up", tuple(up))

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

    @cached_property
    def _down(self) -> Tuple[int, ...]:
        """The principal down-sets as bit-sets: bit i of _down[j] is set when i <= j."""
        down = [1 << j for j in range(len(self._up))]
        for i, u in enumerate(self._up):
            for j in _members(u ^ 1 << i):  # the strict up-set: an antichain reads no bits
                down[j] |= 1 << i
        return tuple(down)

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


def _enumerate_cuts(s: FiniteIS) -> List[int]:
    """Every cut as a bit-set, sorted by (size, members).

    The cuts are exactly the intersections of principal down-sets, the empty
    intersection being the full set, so closing {full set} under intersection
    with each down-set in turn finds them all in O(n * cuts) intersections.
    """
    cuts = {(1 << len(s._up)) - 1}
    for down in s._down:
        cuts |= {cut & down for cut in cuts}
        if len(cuts) > COMPLETION_MAX_CUTS:
            raise PosetError(f"completion limited to {COMPLETION_MAX_CUTS} cuts, "
                             f"got at least {len(cuts)}")
    return sorted(cuts, key=lambda c: (len(m := _members(c)), m))


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
    # a cut has a join exactly when it is the principal down-set of that join
    element_of_down = {down: j for j, down in enumerate(s._down)}

    labels: List[str] = []
    synth = 0
    for cut in cuts:
        if (j := element_of_down.get(cut)) is not None:
            labels.append(s.elements[j])
        elif not cut:
            labels.append("_bot")
        elif cut == (1 << n) - 1:
            labels.append("_top")
        else:
            labels.append(f"_cut{synth}")
            synth += 1

    # the cuts ordered by inclusion: bit l of up[k] is set when cut k is inside cut l
    up = [sum(1 << l for l, b in enumerate(cuts) if a & ~b == 0) for a in cuts]
    completed = FiniteIS._of_up_sets(tuple(labels), up)
    if not completed.is_complete_lattice():
        raise RuntimeError("cut completion is not a complete lattice")
    # distinct elements have distinct down-sets, so each keeps its own label
    return CompletionResult(completed, {e: e for e in s.elements})


# Bounded completion: for a finite input every subset is bounded once the
# missing joins are adjoined, so it coincides with the normal completion.
b_completion = dm_completion
