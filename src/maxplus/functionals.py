"""Dual functionals by residuation: evaluation, representer recovery, extension,
separation, pointwise suprema, and sup-preservation checkers.

Every functional here is extensional: it is the residuation functional of a
representer vector, so functional equality is representer equality.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence, Tuple, Union

from .report import CheckReport, Frozen, fold_failures, refuse_past_subset_bound
from .scalars import BOTTOM, ONE, ExtendedScalar, format_scalar, s_add, s_conj, s_mul, sup_div
from .semimodules import (DimensionMismatchError, FinVector, _from_scalars, _join_labels,
                          span_sup, v_add, v_inf, v_scale, zero_vector)


class ZeroFunctionalError(ValueError):
    pass


class EqualPointsError(ValueError):
    pass


class InconsistentValuesError(ValueError):
    def __init__(self, message: str, witness: int):
        super().__init__(message)
        self.witness = witness


def star_eval(x: FinVector, y: FinVector) -> ExtendedScalar:
    """Evaluate the residuation functional of x at y: the least k with y <= k*x.

    Closed form: the sup over coordinates of the residuals s_div(y_i, x_i),
    read in one pass by scalars.sup_div.  A -inf target imposes no
    constraint, so it is skipped before any arithmetic; evaluation on a unit
    vector then computes one residual, but still reads all d pairs.
    """
    if x.labels is not y.labels or len(x.coords) != len(y.coords):
        _join_labels(x, y)
    return sup_div(y.coords, x.coords)


class FunctionalRep(Frozen):
    """An a-linear functional given by its representer; calling it evaluates by residuation."""

    __slots__ = ("representer",)

    def __init__(self, representer: FinVector):
        object.__setattr__(self, "representer", representer)

    @property
    def dim(self) -> int:
        return self.representer.dim

    def __call__(self, y: FinVector) -> ExtendedScalar:
        return star_eval(self.representer, y)


Oracle = Callable[[FinVector], ExtendedScalar]


def _require_scalars(values: list) -> None:
    """Refuse oracle values that are not ExtendedScalar, naming the first one's type."""
    if not all(map(isinstance, values, itertools.repeat(ExtendedScalar))):
        bad = next(v for v in values if not isinstance(v, ExtendedScalar))
        raise TypeError(f"the oracle returned {type(bad).__name__}, not an ExtendedScalar")


def recover_representer(f: Union[Oracle, FunctionalRep], probe_dim: int) -> FinVector:
    """Recover the representer of a nonzero a-linear functional from evaluations.

    Probing on the unit vectors inverts the evaluation formula coordinatewise,
    one oracle call per unit vector.  The recovery needs no re-check against
    those probes: star_eval(x, e_i) reads coordinate i alone, so it is
    s_conj(s_conj(v_i)), which is v_i for -inf, finite and +inf alike.  An
    oracle value that is not an ExtendedScalar raises TypeError.  Each probe is
    a fresh vector equal to unit_vector(i, probe_dim), built from one row.
    """
    row = [BOTTOM] * probe_dim
    values = []
    for i in range(probe_dim):
        row[i] = ONE
        values.append(f(_from_scalars(tuple(row))))
        row[i] = BOTTOM
    _require_scalars(values)
    if all(v.is_bottom() for v in values):
        raise ZeroFunctionalError("zero functional has no representer")
    return _from_scalars(tuple(map(s_conj, values)))


def extend_functional(w, values: Sequence[ExtendedScalar],
                      ambient_dim: int) -> FunctionalRep:
    """Extend a functional prescribed on span generators to the whole space.

    The candidate representer is span_sup at the prescribed values, the
    supremum of the generators scaled by their conjugates: the least
    representer compatible with the prescription.  If even this candidate
    fails to restrict to the prescribed values, no a-linear functional does,
    and the offending generator index is reported.
    """
    generators = list(w.generators)
    values = list(values)
    if len(values) != len(generators):
        raise ValueError("one prescribed value per generator is required")
    x = span_sup(values, generators, ambient_dim)
    if x.dim != ambient_dim:
        raise DimensionMismatchError("generators do not live in the ambient dimension")
    for i, (g, v) in enumerate(zip(generators, values)):
        if star_eval(x, g) != v:
            raise InconsistentValuesError(
                f"values do not define an a-linear functional on the span "
                f"(generator {i} evaluates to {format_scalar(star_eval(x, g))}, "
                f"prescribed {format_scalar(v)})",
                witness=i)
    return FunctionalRep(x)


def separate_points(x: FinVector, y: FinVector) -> FunctionalRep:
    """A functional taking different values on two distinct points.

    The residuation functional of x works unless its values at x and y agree,
    in which case the one of y must separate: if both failed, the two mutual
    domination inequalities would force x = y.
    """
    _join_labels(x, y)
    if x.coords == y.coords:
        raise EqualPointsError("points are equal; no separating functional exists")
    fx = FunctionalRep(x)
    if fx(x) != fx(y):
        return fx
    return FunctionalRep(y)


def pointwise_sup(fs: Sequence[FunctionalRep]) -> FunctionalRep:
    """Pointwise supremum of functionals: the meet of their representers.

    Evaluation is order-reversing in the representer, so the infimum of the
    representers evaluates to the supremum of the individual evaluations.
    """
    fs = list(fs)
    if not fs:
        raise ValueError("pointwise supremum needs at least one functional")
    return FunctionalRep(v_inf([f.representer for f in fs]))


VectorMap = Callable[[FinVector], Union[FinVector, ExtendedScalar]]


def check_a_linear(map_fn: VectorMap,
                   test_vectors: Sequence[FinVector],
                   scalars: Sequence[ExtendedScalar] = ()) -> CheckReport:
    """Check sup-preservation over every subset of the test vectors, plus homogeneity.

    Subsets are folded by report.fold_failures, so map_fn runs twice on the
    zero vector and on each test vector, and once per distinct pair (join of a
    subset, join of its images), not once per subset.  Scalar homogeneity
    k * p(x) = p(k * x) is checked for the supplied scalars except +inf (the
    evaluation functionals are not +inf-homogeneous, matching the scalar-side
    caveat in the degenerate conventions).  More than report.MAX_SUBSET_ITEMS
    test vectors, or test vectors whose dimensions or labels _join_labels
    refuses, are refused before map_fn is called.  A map_fn whose value on
    the zero vector is neither an ExtendedScalar nor a FinVector raises
    TypeError.
    """
    test_vectors = list(test_vectors)
    if not test_vectors:
        raise ValueError("need at least one test vector")
    refuse_past_subset_bound(test_vectors)
    _join_labels(*test_vectors)
    dim = test_vectors[0].dim
    report = CheckReport()
    zero_out = map_fn(zero_vector(dim))  # fixes the output algebra; -inf times it is the zero
    if not isinstance(zero_out, (ExtendedScalar, FinVector)):
        raise TypeError(f"the map returned {type(zero_out).__name__}, "
                        "not an ExtendedScalar or a FinVector")
    out_add, out_scale = ((s_add, s_mul) if isinstance(zero_out, ExtendedScalar)
                          else (v_add, v_scale))
    report.record_first("sup-preservation", (q for _, q in fold_failures(
        test_vectors, [(map_fn, out_scale(BOTTOM, zero_out))], v_add, zero_vector(dim), out_add)))
    images = [map_fn(v) for v in test_vectors]
    report.record_first("homogeneity", (
        (k, v) for k in scalars if not k.is_top() for v, image in zip(test_vectors, images)
        if map_fn(v_scale(k, v)) != out_scale(k, image)))

    return report


class LinearMapSample(Frozen):
    """A sampled graph of a map: finitely many (input, output) pairs with distinct inputs."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Tuple[Tuple[FinVector, FinVector], ...]):
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def of(cls, pairs: Iterable[Tuple[FinVector, FinVector]]) -> "LinearMapSample":
        pairs = tuple(pairs)
        inputs = [p[0].coords for p in pairs]
        if len(set(inputs)) != len(inputs):
            raise ValueError("sample inputs must be pairwise distinct")
        return cls(pairs)


def graph_sup_closed(g: LinearMapSample) -> CheckReport:
    """Check that a sampled graph is closed under suprema of its nonempty subsets.

    A singleton is its own supremum, and closure under binary suprema gives
    closure under every finite one, so only pairs are examined; the first
    violating pair is also the smallest violating subset.  The inputs, and the
    outputs, are each joined by _join_labels before any pair is examined, so a
    sample mixing dimensions or labelings is refused, never judged.
    """
    pairs = list(g.pairs)
    if not pairs:
        raise ValueError("empty graph sample")
    _join_labels(*(p[0] for p in pairs))
    _join_labels(*(p[1] for p in pairs))
    table = {p[0].coords: p[1].coords for p in pairs}

    def violations():  # the families are joined, so each pair's sups join coordinate tuples
        for subset in itertools.combinations(pairs, 2):
            (x, fx), (y, fy) = subset
            expected = table.get(tuple(map(s_add, x.coords, y.coords)))
            if expected is None:
                yield subset, "supremum pair absent from the sample"
            elif expected != tuple(map(s_add, fx.coords, fy.coords)):
                yield subset, "supremum of outputs disagrees with the sampled output"

    report = CheckReport()
    report.record_first("graph-sup-closed", violations())
    return report
