"""Pluggable semiring descriptors and the semiring axiom suite.

The carriers the paper's algebra rests on: the Boolean and max-plus
semifields, and the extended carrier {-inf} + Q + {+inf}, which is a- and
b-complete.  The package loads this module on first use of one of its names
(see ``maxplus.__getattr__``), so a process that never checks axioms never
imports dataclasses.
"""

from __future__ import annotations

import itertools
# SemiringDescriptor stays a dataclass: callers derive faulty semirings from
# the shipped ones with dataclasses.replace (the tests, the benchmark's fault
# workload, compare_trees.py's faults).
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .report import CheckReport, fold_failures, refuse_past_subset_bound
from .scalars import BOTTOM, ONE, s_add, s_inv, s_mul


@dataclass(frozen=True)
class SemiringDescriptor:
    """A concrete idempotent semiring: carrier (or marker), operations, and constants.

    ``elements`` is the full finite carrier, or None for the extended-real
    carrier (sampled rather than enumerated).  ``inverse`` is present exactly
    when the nonzero elements are invertible (semifield).
    """

    name: str
    elements: Optional[tuple]
    add: Callable
    mul: Callable
    zero: object
    one: object
    inverse: Optional[Callable] = None

    def __post_init__(self):
        if self.zero == self.one:
            raise ValueError("semiring zero and one must differ")

    def is_semifield(self) -> bool:
        return self.inverse is not None


def boolean_semifield() -> SemiringDescriptor:
    """The two-element semifield {0, 1} with or/and; b-complete and a-complete."""
    return SemiringDescriptor(
        name="boolean",
        elements=(False, True),
        add=lambda a, b: a or b,
        mul=lambda a, b: a and b,
        zero=False,
        one=True,
        inverse=lambda a: a,
    )


def extended_maxplus() -> SemiringDescriptor:
    """The extended carrier: a- and b-complete, not a semifield (+inf has no inverse)."""
    return SemiringDescriptor(
        name="extended-maxplus",
        elements=None,
        add=s_add,
        mul=s_mul,
        zero=BOTTOM,
        one=ONE,
        inverse=None,
    )


def maxplus_semifield() -> SemiringDescriptor:
    """Max-plus over {-inf} + Q: a b-complete semifield, not a-complete (no +inf)."""
    return SemiringDescriptor(
        name="maxplus",
        elements=None,
        add=s_add,
        mul=s_mul,
        zero=BOTTOM,
        one=ONE,
        inverse=s_inv,
    )


def check_semiring_axioms(d: SemiringDescriptor,
                          sample: Optional[Sequence] = None) -> CheckReport:
    """Check every semiring axiom on a sample (the full carrier when finite).

    Failures are recorded with a witness tuple, not raised.  The generalized
    laws close over fold states with report.fold_failures, so mul runs per k
    once per distinct state, not per subset; while a law holds, a state is
    fixed by its fold, and a totally ordered sample has at most n.  More than
    report.MAX_SUBSET_ITEMS sample values are refused before any law runs.
    """
    if sample is None:
        if d.elements is None:
            raise ValueError(f"semiring {d.name!r} has no finite carrier; a sample is required")
        sample = d.elements
    sample = list(sample)
    refuse_past_subset_bound(sample)
    report = CheckReport()

    pairs = list(itertools.product(sample, repeat=2))
    triples = list(itertools.product(sample, repeat=3))
    check = report.record_first

    check("add-idempotent", ((a,) for a in sample if d.add(a, a) != a))
    check("add-commutative", ((a, b) for a, b in pairs if d.add(a, b) != d.add(b, a)))
    check("add-associative", ((a, b, c) for a, b, c in triples
                              if d.add(a, d.add(b, c)) != d.add(d.add(a, b), c)))
    check("mul-associative", ((a, b, c) for a, b, c in triples
                              if d.mul(a, d.mul(b, c)) != d.mul(d.mul(a, b), c)))
    check("mul-identity", ((a,) for a in sample
                           if d.mul(d.one, a) != a or d.mul(a, d.one) != a))
    check("zero-neutral", ((a,) for a in sample if d.add(a, d.zero) != a))
    check("zero-absorbing", ((a,) for a in sample
                             if d.mul(a, d.zero) != d.zero or d.mul(d.zero, a) != d.zero))
    check("distributive-left", ((k, a, b) for k, a, b in triples
                                if d.mul(k, d.add(a, b)) != d.add(d.mul(k, a), d.mul(k, b))))
    check("distributive-right", ((k, a, b) for k, a, b in triples
                                 if d.mul(d.add(a, b), k) != d.add(d.mul(a, k), d.mul(b, k))))

    # Generalized distributivity over every subset of the sample, empty set included.
    check("generalized-distributive-left", ((k, list(xs)) for k in sample for xs in
          fold_failures(sample, lambda x: d.mul(k, x), d.add, d.zero, d.add, d.zero)))
    check("generalized-distributive-right", ((k, list(xs)) for k in sample for xs in
          fold_failures(sample, lambda x: d.mul(x, k), d.add, d.zero, d.add, d.zero)))

    if d.inverse is not None:
        check("inverse", ((a,) for a in sample
                          if a != d.zero and d.mul(a, d.inverse(a)) != d.one))

    return report
