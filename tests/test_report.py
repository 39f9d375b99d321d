"""The shared subset-law enumerator: fold_failures against a brute-force scan."""

from functools import reduce
from itertools import combinations

from hypothesis import example, given
from hypothesis import strategies as st

from maxplus.report import fold_failures
from _oracles import fold_failures_oracle

# Commutative, non-commutative and non-associative integer operations.
OPS = {"max": max, "min": min, "add": lambda a, b: a + b, "left": lambda a, b: a,
       "skew": lambda a, b: 2 * a - b}
MAPS = {"id": lambda x: x, "double": lambda x: 2 * x, "abs": abs, "clip": lambda x: min(x, 1)}


@given(items=st.lists(st.integers(-3, 3), max_size=6),
       maps=st.lists(st.tuples(st.sampled_from(sorted(MAPS)), st.integers(-3, 3)),
                     min_size=1, max_size=3),
       op=st.sampled_from(sorted(OPS)), op_h=st.sampled_from(sorted(OPS)),
       unit=st.integers(-3, 3))
# the singleton of item 2 reaches the failing state first found by items 0 and 1
@example(items=[-2, 2, 0], maps=[("abs", 2)], op="add", op_h="max", unit=0)
# map 0 fails only on the whole 3-subset and map 1 on the empty one: map 0 comes first
@example(items=[1, 1, 1], maps=[("clip", -1), ("id", 0)], op="add", op_h="add", unit=-1)
def test_fold_failures_yields_the_least_failing_subsets_of_the_scan(items, maps, op, op_h, unit):
    # units range over values that are not neutral for max or add, so the
    # empty subset fails as often as not; each map has its own
    calls = [[] for _ in maps]

    def counted(j):
        return lambda x: calls[j].append(x) or MAPS[maps[j][0]](x)

    expected = []
    for j, (h, unit_h) in enumerate(maps):
        failing = fold_failures_oracle(items, MAPS[h], OPS[op], unit, OPS[op_h], unit_h)
        expected += [(j, s) for s in failing[:1] if s == ()]
        expected += [(j, s) for s in failing if s][:1]
    family = [(counted(j), unit_h) for j, (_, unit_h) in enumerate(maps)]
    assert list(fold_failures(items, family, OPS[op], unit, OPS[op_h])) == expected

    states = {(reduce(OPS[op], s, unit),
               tuple(reduce(OPS[op_h], map(MAPS[h], s), unit_h) for h, unit_h in maps))
              for r in range(1, len(items) + 1) for s in combinations(items, r)}
    assert all(len(c) <= len(items) + len(states) + 1 for c in calls)


def test_fold_failures_maps_each_item_once_and_each_state_once():
    calls = []

    def h(x):
        calls.append(x)
        return x

    # under max the folds of the 2**14 subsets of a chain take only 14 values
    assert list(fold_failures(range(14), [(h, -1)], max, 0, max)) == [(0, ())]
    assert len(calls) <= 2 * 14 + 1
