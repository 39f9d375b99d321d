"""The shared subset-law enumerator: fold_failures against a brute-force scan."""

from hypothesis import given
from hypothesis import strategies as st

from maxplus.report import fold_failures
from _oracles import fold_failures_oracle

# Commutative, non-commutative and non-associative integer operations.
OPS = {"max": max, "add": lambda a, b: a + b, "left": lambda a, b: a,
       "skew": lambda a, b: 2 * a - b}
MAPS = {"id": lambda x: x, "double": lambda x: 2 * x, "abs": abs, "clip": lambda x: min(x, 1)}


@given(items=st.lists(st.integers(-3, 3), max_size=6),
       h=st.sampled_from(sorted(MAPS)), op=st.sampled_from(sorted(OPS)),
       op_h=st.sampled_from(sorted(OPS)),
       units=st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
def test_fold_failures_matches_subset_scan(items, h, op, op_h, units):
    # units range over values that are not neutral for max or add, so the
    # empty subset fails as often as not
    args = (items, MAPS[h], OPS[op], units[0], OPS[op_h], units[1])
    assert list(fold_failures(*args)) == fold_failures_oracle(*args)


def test_fold_failures_maps_each_item_once_and_each_subset_once():
    calls = []

    def h(x):
        calls.append(x)
        return x

    assert list(fold_failures(range(5), h, max, 0, max, -1)) == [()]
    assert len(calls) == 5 + 2 ** 5

