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
       h=st.sampled_from(sorted(MAPS)), op=st.sampled_from(sorted(OPS)),
       op_h=st.sampled_from(sorted(OPS)),
       units=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
# the singleton of item 2 reaches the failing state first found by items 0 and 1
@example(items=[-2, 2, 0], h="abs", op="add", op_h="max", units=(0, 2))
def test_fold_failures_yields_the_least_failing_subsets_of_the_scan(items, h, op, op_h, units):
    # units range over values that are not neutral for max or add, so the
    # empty subset fails as often as not
    calls = []

    def counted(x):
        calls.append(x)
        return MAPS[h](x)

    args = (items, MAPS[h], OPS[op], units[0], OPS[op_h], units[1])
    failing = fold_failures_oracle(*args)
    expected = failing[:1] if failing[:1] == [()] else []
    expected += [s for s in failing if s][:1]
    assert list(fold_failures(items, counted, *args[2:])) == expected

    states = {(reduce(OPS[op], s, units[0]), reduce(OPS[op_h], map(MAPS[h], s), units[1]))
              for r in range(1, len(items) + 1) for s in combinations(items, r)}
    assert len(calls) <= len(items) + len(states) + 1


def test_fold_failures_maps_each_item_once_and_each_state_once():
    calls = []

    def h(x):
        calls.append(x)
        return x

    # under max the folds of the 2**14 subsets of a chain take only 14 values
    assert list(fold_failures(range(14), h, max, 0, max, -1)) == [()]
    assert len(calls) <= 2 * 14 + 1
