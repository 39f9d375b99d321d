"""Finite-dimensional semimodules over the extended max-plus scalars.

A vector is a function on a finite coordinate set (optionally labeled); all
module operations are coordinatewise and exact.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import Iterable, Optional, Sequence, Tuple

from .report import CheckReport, Frozen, fold_failures, refuse_past_subset_bound
from .scalars import (BOTTOM, ONE, TOP, ExtendedScalar, _scalar_text, big_inf, big_sup,
                      finite, s_add, s_mul, sup_div)


class DimensionMismatchError(ValueError):
    pass


class FinVector(Frozen):
    """A vector of ExtendedScalar coordinates, optionally labeled.

    The constructor refuses any other coordinate with TypeError (vector()
    converts numbers and literals), a label count other than the dimension
    and a repeated label.  The kernels build through _from_scalars.
    """

    __slots__ = ("coords", "labels")

    def __init__(self, coords: Iterable[ExtendedScalar],
                 labels: Optional[Sequence[str]] = None):
        if type(coords) is not tuple:
            coords = tuple(coords)
        if not all(map(isinstance, coords, repeat(ExtendedScalar))):
            raise TypeError("vector coordinates are ExtendedScalar values; "
                            "vector() converts numbers and literals")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(coords):
                raise DimensionMismatchError("label count does not match dimension")
            if len(set(labels)) != len(labels):
                raise DimensionMismatchError("duplicate coordinate labels")
        _set_coords(self, coords)
        _set_labels(self, labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coords, self.labels) == (other.coords, other.labels)

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coords != other.coords or self.labels != other.labels

    def __hash__(self) -> int:
        return hash((self.coords, self.labels))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def is_zero(self) -> bool:
        return all(map(ExtendedScalar.is_bottom, self.coords))

    def is_all_top(self) -> bool:
        return all(map(ExtendedScalar.is_top, self.coords))

    def __repr__(self) -> str:
        return "FinVector(" + " ".join(map(_scalar_text, self.coords)) + ")"


# as for ExtendedScalar: the cheapest way past Frozen.__setattr__, for the
# constructor and for _from_scalars, which builds every kernel's result
_set_coords = FinVector.coords.__set__
_set_labels = FinVector.labels.__set__


def _from_scalars(coords: Tuple[ExtendedScalar, ...],
                  labels: Optional[Tuple[str, ...]] = None) -> FinVector:
    """A FinVector past the constructor's checks, for a tuple of scalars under
    labels already checked: the kernels' path, one per result vector."""
    v = object.__new__(FinVector)
    _set_coords(v, coords)
    _set_labels(v, labels)
    return v


def vector(values: Iterable, labels: Optional[Sequence[str]] = None) -> FinVector:
    """Build a vector from scalars, ints, Fractions, or mixed."""
    coords = tuple(v if isinstance(v, ExtendedScalar) else finite(v) for v in values)
    return FinVector(coords, labels)


def zero_vector(dim: int, labels: Optional[Sequence[str]] = None) -> FinVector:
    return FinVector((BOTTOM,) * dim, labels)


def top_vector(dim: int, labels: Optional[Sequence[str]] = None) -> FinVector:
    return FinVector((TOP,) * dim, labels)


def unit_vector(i: int, dim: int) -> FinVector:
    if not 0 <= i < dim:
        raise IndexError(f"unit vector {i} of dimension {dim}")
    return _from_scalars((BOTTOM,) * i + (ONE,) + (BOTTOM,) * (dim - i - 1))


def _join_labels(*xs: FinVector) -> Optional[Tuple[str, ...]]:
    """The one rule for coordinate labels across a family of vectors.

    Each vector, in order, must match the first labeled vector before it (the
    first vector, if none is labeled yet) in dimension and labels; that
    labeling is returned.  An empty family has no dimension and is refused.
    v_add and star_eval alone skip the call, when both operands share one
    labeling object and one dimension (CHANGES.md's fast-path ledger says why);
    the subset-law checkers join each family they are given once, at their top.
    """
    if not xs:
        raise DimensionMismatchError("an empty family of vectors has no dimension")
    first = xs[0]
    dim = len(first.coords)
    for y in xs:
        if len(y.coords) != dim:
            raise DimensionMismatchError(f"dimension mismatch: {dim} vs {len(y.coords)}")
        if first.labels is None:
            first = y
        elif y.labels is not None and first.labels != y.labels:
            raise DimensionMismatchError("coordinate labels disagree")
    return first.labels


def v_add(x: FinVector, y: FinVector) -> FinVector:
    labels = x.labels
    if labels is not y.labels or len(x.coords) != len(y.coords):
        labels = _join_labels(x, y)
    v = object.__new__(FinVector)  # _from_scalars' body, one call fewer per result
    _set_coords(v, tuple(map(s_add, x.coords, y.coords)))
    _set_labels(v, labels)
    return v


def v_scale(k: ExtendedScalar, x: FinVector) -> FinVector:
    return _from_scalars(tuple(map(s_mul, repeat(k), x.coords)), x.labels)


def v_leq(x: FinVector, y: FinVector) -> bool:
    _join_labels(x, y)
    return all(map(ExtendedScalar.__le__, x.coords, y.coords))


def v_sup(xs: Iterable[FinVector]) -> FinVector:
    xs = list(xs)
    labels = _join_labels(*xs)
    return _from_scalars(tuple(map(big_sup, zip(*[x.coords for x in xs]))), labels)


def v_inf(xs: Iterable[FinVector]) -> FinVector:
    xs = list(xs)
    labels = _join_labels(*xs)
    return _from_scalars(tuple(map(big_inf, zip(*[x.coords for x in xs]))), labels)


def span_sup(values: Sequence[ExtendedScalar], generators: Sequence[FinVector],
             dim: int) -> FinVector:
    """sup_g s_conj(values[g]) * generators[g]: the span combination at functional values.

    The generators share one labeling by _join_labels.  A +inf value scales its
    generator by -inf, so that generator is dropped; coordinate i is then
    scalars.sup_div(column i, values), as s_div(g_i, v) = s_mul(g_i, s_conj(v)).
    The empty span gives the zero vector of dimension dim.
    """
    if not generators:
        return zero_vector(dim)
    labels = _join_labels(*generators)
    kept = [(g.coords, v) for g, v in zip(generators, values) if not v.is_top()]
    if not kept:
        return _from_scalars((BOTTOM,) * len(generators[0].coords), labels)
    rows, values = zip(*kept)
    return _from_scalars(tuple(map(sup_div, zip(*rows), repeat(values))), labels)


class SpanBasis(Frozen):
    """Generators of a finitely generated subsemimodule; zero generators are dropped."""

    __slots__ = ("generators",)

    def __init__(self, generators: Tuple[FinVector, ...]):
        object.__setattr__(self, "generators", generators)

    @classmethod
    def of(cls, generators: Iterable[FinVector]) -> "SpanBasis":
        gens = [g for g in generators if not g.is_zero()]
        if gens:
            _join_labels(*gens)
        return cls(tuple(gens))

    @property
    def count(self) -> int:
        return len(self.generators)


def project_onto_span(y: FinVector, w: SpanBasis) -> Tuple[FinVector, bool]:
    """Residuated projection of y onto the span of w.

    Each generator g is scaled by its greatest admissible coefficient, the
    conjugate of y's functional value star_eval(y, g) = sup_div(g, y); so the
    projection is span_sup at those values, and is always below y.  ``member``
    reports whether y itself is in the span.
    """
    values = []
    for g in w.generators:
        _join_labels(g, y)
        values.append(sup_div(g.coords, y.coords))
    projection = _from_scalars(span_sup(values, w.generators, y.dim).coords, y.labels)
    return projection, projection.coords == y.coords


def check_b_space_axioms(samples: Sequence[FinVector],
                         scalars: Sequence[ExtendedScalar]) -> CheckReport:
    """Check the b-space meet law and both generalized distributive laws.

    The meet law (inf Q) * x = inf (Q * x) is checked over every nonempty
    subset Q of the scalars and every sample vector except the all-top one,
    which the law explicitly exempts.  Each law closes its subsets once with
    report.fold_failures for its whole outer loop, the scalings by each vector
    (or each scalar), so a scaling runs once per distinct fold state, not once
    per subset; while a law holds, a state is fixed by its fold, so the
    scalar-subset laws meet at most n states.  The witness is the first
    failing vector's (or scalar's) least failing subset; as the laws hold on
    every valid input, that order shows only in the witness of a broken
    operation.  More than report.MAX_SUBSET_ITEMS scalars or samples, and
    samples whose dimensions or labels _join_labels refuses, are refused
    before any law runs.
    """
    samples = list(samples)
    scalars = list(scalars)
    if not samples:
        raise ValueError("need at least one sample vector")
    for items in (scalars, samples):
        refuse_past_subset_bound(items)
    _join_labels(*samples)
    zero = zero_vector(samples[0].dim)
    report = CheckReport()

    nontop = [x for x in samples if not x.is_all_top()]
    report.record_first("meet-law", ((list(q), nontop[j]) for j, q in fold_failures(
        scalars, [(lambda k, x=x: v_scale(k, x), top_vector(x.dim, x.labels)) for x in nontop],
        min, TOP, lambda a, b: v_inf([a, b])) if q))
    # each sample keeps its own zero: an unlabeled one may join a labeled family
    report.record_first("generalized-distributive-scalars", ((list(q), samples[j]) for j, q in
        fold_failures(scalars, [(lambda k, x=x: v_scale(k, x), zero_vector(x.dim, x.labels))
                                for x in samples], s_add, BOTTOM, v_add)))
    report.record_first("generalized-distributive-vectors", ((scalars[j], list(xs)) for j, xs in
        fold_failures(samples, [(partial(v_scale, k), zero) for k in scalars],
                      v_add, zero, v_add)))

    return report
