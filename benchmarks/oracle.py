"""Independent reference arithmetic for checking benchmark outputs.

Nothing here calls into ``maxplus``: scalars are ``(kind, value)`` tuples with
kind -1 for -inf, 0 for a finite rational and 1 for +inf, so Python's tuple
order is the extended order.  Generated inputs are text tokens (``"-inf"``,
``"+inf"``, ``"7"``, ``"-3/11"``); :func:`ext` turns a token into a tuple.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, List, Sequence, Tuple

Ext = Tuple[int, Fraction]

BOT: Ext = (-1, Fraction(0))
TOP: Ext = (1, Fraction(0))


def ext(token: str) -> Ext:
    if token == "-inf":
        return BOT
    if token == "+inf":
        return TOP
    return (0, Fraction(token))


def token(a: Ext) -> str:
    if a[0] < 0:
        return "-inf"
    if a[0] > 0:
        return "+inf"
    return str(a[1])


def vec(tokens: Sequence[str]) -> List[Ext]:
    return [ext(t) for t in tokens]


def of_scalar(s) -> Ext:
    """Read a library scalar through its public predicates only."""
    if s.is_bottom():
        return BOT
    if s.is_top():
        return TOP
    return (0, Fraction(s.q))


def of_vector(v) -> List[Ext]:
    return [of_scalar(c) for c in v.coords]


def mul(a: Ext, b: Ext) -> Ext:
    """Max-plus product: -inf absorbs everything, then +inf absorbs the rest."""
    if a[0] < 0 or b[0] < 0:
        return BOT
    if a[0] > 0 or b[0] > 0:
        return TOP
    return (0, a[1] + b[1])


def conj(a: Ext) -> Ext:
    if a[0] < 0:
        return TOP
    if a[0] > 0:
        return BOT
    return (0, -a[1])


def sup(xs: Iterable[Ext]) -> Ext:
    return max(xs, default=BOT)


def inf(xs: Iterable[Ext]) -> Ext:
    return min(xs, default=TOP)


def star(x: Sequence[Ext], y: Sequence[Ext]) -> Ext:
    """The residuation functional of x at y, as the sup of y_i * conj(x_i)."""
    return sup(mul(b, conj(a)) for a, b in zip(x, y))


def full_scan(x: Sequence[Ext], y: Sequence[Ext]) -> bool:
    """True when no coordinate forces +inf, so evaluation visits every coordinate."""
    return all(b[0] < 0 or (a[0] != -1 and not (a[0] == 0 and b[0] == 1))
               for a, b in zip(x, y))


def vmax(vs: Sequence[Sequence[Ext]]) -> List[Ext]:
    return [max(col) for col in zip(*vs)]


def vmin(vs: Sequence[Sequence[Ext]]) -> List[Ext]:
    return [min(col) for col in zip(*vs)]


def scale(k: Ext, v: Sequence[Ext]) -> List[Ext]:
    return [mul(k, c) for c in v]


def leq(x: Sequence[Ext], y: Sequence[Ext]) -> bool:
    return all(a <= b for a, b in zip(x, y))


# --- finite orders as bitmasks ---------------------------------------------

def closure_masks(n: int, pairs: Iterable[Tuple[int, int]]) -> List[int]:
    """up[i] has bit j set iff i <= j in the reflexive-transitive closure."""
    up = [1 << i for i in range(n)]
    for i, j in pairs:
        up[i] |= 1 << j
    for k in range(n):
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def count_cuts(n: int, up: Sequence[int]) -> int:
    """Number of subsets A with lower(upper(A)) == A: the normal completion's size."""
    down = [sum(1 << i for i in range(n) if up[i] >> j & 1) for j in range(n)]
    full = (1 << n) - 1
    count = 0
    for mask in range(1 << n):
        ub = full
        for i in range(n):
            if mask >> i & 1:
                ub &= up[i]
        lb = full
        for j in range(n):
            if ub >> j & 1:
                lb &= down[j]
        count += lb == mask
    return count


def sup_closure(vs: Iterable[Tuple[Ext, ...]]) -> set:
    closed = set(vs)
    frontier = list(closed)
    while frontier:
        new = []
        for a in frontier:
            for b in list(closed):
                s = tuple(max(p, q) for p, q in zip(a, b))
                if s not in closed:
                    closed.add(s)
                    new.append(s)
        frontier = new
    return closed


# --- violations that a law checker must report ------------------------------

def graph_violates(table: dict, inputs: Sequence[Sequence[Ext]],
                   outputs: Sequence[Sequence[Ext]]) -> bool:
    """True when the sup of these pairs is absent from the sample ``table``
    (input tuple -> output list) or disagrees with its sampled output."""
    want = table.get(tuple(vmax(inputs)))
    return want is None or list(want) != vmax(outputs)


def off_sample(x: Sequence[Ext], keep: set):
    """The residuation functional of x on the vectors in keep, and -inf elsewhere."""
    return lambda v: star(x, v) if tuple(v) in keep else BOT


def sup_violates(g, dim: int, subset: Sequence[Sequence[Ext]]) -> bool:
    top = vmax(subset) if subset else [BOT] * dim
    return g(top) != sup(g(v) for v in subset)


def homogeneity_violates(g, k: Ext, v: Sequence[Ext]) -> bool:
    return g(scale(k, v)) != mul(k, g(v))


def a_linear_verdicts(g, tests: Sequence[Sequence[Ext]], scalars: Sequence[Ext]) -> tuple:
    """Whether g preserves the sups of every subset of tests, and whether it
    is homogeneous for every scalar except +inf."""
    dim = len(tests[0])
    sups = not any(sup_violates(g, dim, s) for r in range(len(tests) + 1)
                   for s in combinations(tests, r))
    homogeneous = not any(homogeneity_violates(g, k, v) for k in scalars if k != TOP
                          for v in tests)
    return sups, homogeneous
