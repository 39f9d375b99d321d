"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the closed forms under test: the coordinatewise
kernels are checked against the semiring rules written out per coordinate,
evaluation by scanning a coefficient grid, the one-pass residual loops by
composing the scalar residuals, the span kernel by composing s_mul, span
combinations by folding v_add over v_scale, membership by enumerating integer
coefficient combinations, scalar products by exhaustive max over the point
set, and the order and graph-closure checks and the subset-law folds by
scanning every subset, and scalar literals by Fraction's own string parser.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations, product

import maxplus as mp


def grid_scalars(lo=-20, hi=20):
    return [mp.BOTTOM] + [mp.finite(k) for k in range(lo, hi + 1)] + [mp.TOP]


def literal_oracle(token):
    """The value of a scalar literal as Fraction's string parser reads it, int when
    integral; None for a token Fraction refuses or that holds a non-ASCII
    character, an underscore or whitespace, which Fraction reads and the
    scalar grammar does not."""
    if not token.isascii() or "_" in token or any(c.isspace() for c in token):
        return None
    try:
        q = Fraction(token)
    except (ValueError, ZeroDivisionError):
        return None
    return q.numerator if q.denominator == 1 else q


def order_key(a):
    """A scalar's place in the extended order: -inf, then the rationals by value, then +inf."""
    return (0, 0) if a.is_bottom() else (2, 0) if a.is_top() else (1, a.q)


def add_oracle(a, b):
    """Scalar (+): the larger of the two in the extended order."""
    return max(a, b, key=order_key)


def mul_oracle(a, b):
    """Scalar (x): the sum of the raw values; -inf absorbs everything, +inf absorbs the nonzero."""
    if a.is_bottom() or b.is_bottom():
        return mp.BOTTOM
    if a.is_top() or b.is_top():
        return mp.TOP
    return mp.finite(a.q + b.q)


def v_add_oracle(x, y):
    """v_add of two vectors sharing dimension and labels, coordinate by coordinate;
    the labels are those of whichever vector is labeled."""
    return mp.FinVector(tuple(add_oracle(a, b) for a, b in zip(x.coords, y.coords)),
                        x.labels if x.labels is not None else y.labels)


def v_scale_oracle(k, x):
    """v_scale: k times each coordinate, x's labels kept."""
    return mp.FinVector(tuple(mul_oracle(k, c) for c in x.coords), x.labels)


def alg_mul_oracle(a, b):
    """alg_mul of two elements on one labeled set: the pointwise product."""
    return mp.AlgebraElement(mp.FinVector(
        tuple(mul_oracle(u, v) for u, v in zip(a.vec.coords, b.vec.coords)), a.labels))


def v_leq_oracle(x, y):
    """v_leq: every coordinate of x is at most y's in the extended order."""
    return all(order_key(a) <= order_key(b) for a, b in zip(x.coords, y.coords))


def star_oracle(x, y, lo=-20, hi=20):
    """Infimum over a scan grid of the k with y <= k*x.

    Exact whenever the true infimum is -inf, +inf, or a finite value inside
    the grid; callers keep coordinates in [-10, 10] so differences stay inside.
    """
    valid = [k for k in grid_scalars(lo, hi) if mp.v_leq(y, mp.v_scale(k, x))]
    return mp.big_inf(valid)


def sup_div_oracle(ys, xs):
    """star_eval's residual composed generically: big_sup of s_div over the nonzero targets."""
    return mp.big_sup(mp.s_div(y, x) for y, x in zip(ys, xs) if not y.is_bottom())


def inf_div_dual_oracle(ys, gs):
    """The projection coefficient composed generically: big_inf of s_div_dual."""
    return mp.big_inf(mp.s_div_dual(y, g) for y, g in zip(ys, gs))


def sup_of_products_oracle(ks, rows):
    """The span kernel composed generically: big_sup of s_mul, one column at a time."""
    return tuple(mp.big_sup(mp.s_mul(k, c) for k, c in zip(ks, column))
                 for column in zip(*rows))


def span_sup_oracle(ks, generators, dim):
    """sup_g k_g * g folded pairwise by v_add over v_scale, refusals and labels included.

    The fold checks labels only through the binary rule, so it stays independent
    of the family rule that span_sup, v_sup and v_inf share.
    """
    scaled = [mp.v_scale(k, g) for k, g in zip(ks, generators)]
    return reduce(mp.v_add, scaled) if scaled else mp.zero_vector(dim)


def greatest_scaling(w, y, lo=-10, hi=10):
    """Greatest grid k with k*w <= y (the projection coefficient oracle)."""
    valid = [k for k in grid_scalars(lo, hi) if mp.v_leq(mp.v_scale(k, w), y)]
    return mp.big_sup(valid)


def span_member_oracle(y, generators, lo=-6, hi=6):
    """Is y an integer-grid combination of the generators (or the empty sup)?"""
    if y.is_zero():
        return True
    coeffs = grid_scalars(lo, hi)
    for combo in product(coeffs, repeat=len(generators)):
        if span_sup_oracle(combo, generators, y.dim).coords == y.coords:
            return True
    return False


def scalar_product_oracle(a, b):
    """Exhaustive max of the pointwise sums, computed with raw Fractions."""
    best = None
    for u, v in zip(a.vec.coords, b.vec.coords):
        if u.is_bottom() or v.is_bottom():
            continue
        if u.is_top() or v.is_top():
            return mp.TOP
        s = u.q + v.q
        if best is None or s > best:
            best = s
    return mp.BOTTOM if best is None else mp.finite(best)


def _upper_bounds(s, subset):
    return {j for j in range(len(s.elements)) if all(s.leq(i, j) for i in subset)}


def _lower_bounds(s, subset):
    return {j for j in range(len(s.elements)) if all(s.leq(j, i) for i in subset)}


def _subsets(n):
    for mask in range(1 << n):
        yield {i for i in range(n) if mask >> i & 1}


def cuts_oracle(s):
    """The subsets X of a finite poset with L(U(X)) = X, sorted by (size, members)."""
    cuts = [frozenset(x) for x in _subsets(len(s.elements))
            if _lower_bounds(s, _upper_bounds(s, x)) == x]
    return sorted(cuts, key=lambda c: (len(c), sorted(c)))


def join_oracle(s, subset):
    """The upper bound of a subset below every other upper bound, or None."""
    ub = _upper_bounds(s, subset)
    return next((u for u in sorted(ub) if all(s.leq(u, v) for v in ub)), None)


def order_queries_oracle(s):
    """Every order query of FiniteIS, answered by scanning leq, keyed by query name."""
    n = len(s.elements)
    return {"upper_bounds": [_upper_bounds(s, x) for x in _subsets(n)],
            "join_index": [join_oracle(s, x) for x in _subsets(n)],
            "down_set": [_lower_bounds(s, {j}) for j in range(n)],
            "bottom_index": join_oracle(s, set()),
            "top_index": join_oracle(s, set(range(n))) if n else None,
            "has_all_joins": all(join_oracle(s, {i, j}) is not None
                                 for i in range(n) for j in range(n))}


def complete_lattice_oracle(s):
    """Does every subset, the empty one included, have a join and a meet?"""
    for x in _subsets(len(s.elements)):
        ub, lb = _upper_bounds(s, x), _lower_bounds(s, x)
        if not any(all(s.leq(u, v) for v in ub) for u in ub):
            return False
        if not any(all(s.leq(v, u) for v in lb) for u in lb):
            return False
    return True


def closure_oracle(n, pairs):
    """Reflexive-transitive closure of index pairs, composing to a fixpoint."""
    rel = {(i, i) for i in range(n)} | set(pairs)
    while True:
        extra = {(i, l) for i, j in rel for k, l in rel if j == k} - rel
        if not extra:
            return frozenset(rel)
        rel |= extra


def graph_violation_oracle(pairs):
    """The first nonempty subset of a sampled graph, by size then position,
    whose pair of suprema is absent or disagrees, with its reason; else None."""
    table = {p[0].coords: p[1].coords for p in pairs}
    for r in range(1, len(pairs) + 1):
        for subset in combinations(pairs, r):
            sup_in = mp.v_sup([p[0] for p in subset])
            sup_out = mp.v_sup([p[1] for p in subset])
            expected = table.get(sup_in.coords)
            if expected is None:
                return subset, "supremum pair absent from the sample"
            if expected != sup_out.coords:
                return subset, "supremum of outputs disagrees with the sampled output"
    return None


def fold_failures_oracle(items, h, op, unit, op_h, unit_h):
    """Every subset S, by size then position, with h(fold S) != fold of h over S,
    each fold recomputed from the unit over the whole subset."""
    return [s for r in range(len(items) + 1) for s in combinations(items, r)
            if h(reduce(op, s, unit)) != reduce(op_h, [h(x) for x in s], unit_h)]
