"""The semialgebra of bounded functions on a finite labeled set.

Elements are max-plus vectors indexed by labels, with pointwise multiplication
adjoined; the canonical scalar product and the idempotent integral both reduce
to a finite max.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence, Tuple

from .functionals import ZeroFunctionalError, _require_scalars, star_eval
from .report import CheckReport, Frozen
from .scalars import (BOTTOM, ONE, ExtendedScalar, big_sup, NotInvertibleError, s_inv,
                      s_mul)
from .semimodules import FinVector, _from_scalars, _join_labels, vector


class OutsideProperSpaceWarning(UserWarning):
    """The recovered element has a -inf value, so it is not a bounded function proper."""


class NotRepresentableError(ValueError):
    pass


class AlgebraElement(Frozen):
    """A function on the labeled finite set X, or the adjoined all-bottom zero."""

    __slots__ = ("vec",)

    def __init__(self, vec: FinVector):
        if vec.labels is None:
            raise ValueError("algebra elements need labeled coordinates")
        object.__setattr__(self, "vec", vec)

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.vec.labels

    def is_zero(self) -> bool:
        return self.vec.is_zero()

    def is_proper(self) -> bool:
        """True when every value is finite (a bounded function, hence invertible)."""
        return all(map(ExtendedScalar.is_finite, self.vec.coords))


def element(values: Sequence, labels: Sequence[str]) -> AlgebraElement:
    return AlgebraElement(vector(values, labels))


def unit_element(labels: Sequence[str]) -> AlgebraElement:
    """The multiplicative identity: the constant-one (all zeros) function."""
    return AlgebraElement(FinVector((ONE,) * len(labels), labels))


def zero_element(labels: Sequence[str]) -> AlgebraElement:
    return AlgebraElement(FinVector((BOTTOM,) * len(labels), labels))


def point_mass(labels: Sequence[str], t: str) -> AlgebraElement:
    """The function equal to one at t and zero elsewhere."""
    labels = tuple(labels)
    if t not in labels:
        raise ValueError(f"unknown point {t!r}")
    return AlgebraElement(FinVector(tuple(ONE if lab == t else BOTTOM for lab in labels),
                                    labels))


def alg_mul(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Pointwise multiplication (pointwise addition of values)."""
    labels = _join_labels(a.vec, b.vec)
    return AlgebraElement(_from_scalars(tuple(map(s_mul, a.vec.coords, b.vec.coords)), labels))


def alg_inverse(a: AlgebraElement) -> AlgebraElement:
    """Pointwise inverse; defined exactly for the proper (all-finite) elements."""
    if not a.is_proper():
        raise NotInvertibleError("only elements with all finite values are invertible")
    return AlgebraElement(_from_scalars(tuple(map(s_inv, a.vec.coords)), a.labels))


def one_star(a: AlgebraElement) -> ExtendedScalar:
    """Evaluation of the identity's dual functional: the sup of the values."""
    return big_sup(a.vec.coords)


def scalar_product(a: AlgebraElement, b: AlgebraElement) -> ExtendedScalar:
    """Canonical scalar product: sup over X of the pointwise product."""
    return one_star(alg_mul(a, b))


def idempotent_integral(phi: AlgebraElement, weight: AlgebraElement) -> ExtendedScalar:
    """Idempotent integral of phi against a weight; the unit weight gives sup phi."""
    return scalar_product(phi, weight)


def check_prop4(x: AlgebraElement, y: AlgebraElement) -> CheckReport:
    """Compare the dual evaluation of x at y with the identity's dual at y * x^-1."""
    if not x.is_proper():
        raise NotInvertibleError("the identity requires an invertible element")
    lhs = star_eval(x.vec, y.vec)
    rhs = one_star(alg_mul(y, alg_inverse(x)))
    report = CheckReport()
    report.record("dual-eval-vs-product-form", lhs == rhs, (lhs, rhs))
    return report


Oracle = Callable[[AlgebraElement], ExtendedScalar]


def riesz_representer(f: Oracle, labels: Sequence[str]) -> AlgebraElement:
    """Recover x with f = <., x> by probing the point masses.

    The scalar product against a point mass reads off one value of the hidden
    element.  A +inf probe value means no element of the algebra represents f;
    a -inf value is allowed but flagged, since the result then falls outside
    the bounded functions proper.  A probe value that is not an ExtendedScalar
    raises TypeError.
    """
    labels = tuple(labels)
    values = [f(point_mass(labels, t)) for t in labels]
    _require_scalars(values)
    if all(v.is_bottom() for v in values):
        raise ZeroFunctionalError("zero functional has no representer")
    if any(v.is_top() for v in values):
        raise NotRepresentableError("functional not representable within the algebra")
    if any(v.is_bottom() for v in values):
        warnings.warn("representer has a -inf value, outside the bounded functions proper",
                      OutsideProperSpaceWarning)
    return AlgebraElement(FinVector(tuple(values), labels))
