"""Scalar arithmetic of the extended max-plus semiring.

The scalar carrier is {-inf} + Q + {+inf} with idempotent addition max and
multiplication +.  All finite values are exact rationals, so associativity and
distributivity are equalities, not float approximations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .report import Frozen

_BOT = -1
_FIN = 0
_TOP = 1


class NotInvertibleError(ValueError):
    pass


class ExtendedScalar(Frozen):
    """An element of the extended max-plus carrier: -inf, a rational, or +inf.

    A finite value is stored as an int when it is integral and as a Fraction
    otherwise; the two compare and hash alike, so the choice never shows.
    """

    __slots__ = ("kind", "q")

    def __init__(self, kind: int, q: Union[int, Fraction, None] = None):
        _set_kind(self, kind)
        _set_q(self, q)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.q) == (other.kind, other.q)

    def __hash__(self) -> int:
        return hash((self.kind, self.q))

    def is_bottom(self) -> bool:
        return self.kind == _BOT

    def is_top(self) -> bool:
        return self.kind == _TOP

    def is_finite(self) -> bool:
        return self.kind == _FIN

    def __lt__(self, other: "ExtendedScalar") -> bool:
        if self.kind != other.kind:
            return self.kind < other.kind
        if self.kind == _FIN:
            return self.q < other.q
        return False

    def __le__(self, other: "ExtendedScalar") -> bool:
        return not other < self

    def __gt__(self, other: "ExtendedScalar") -> bool:
        return other < self

    def __ge__(self, other: "ExtendedScalar") -> bool:
        return not self < other

    def __repr__(self) -> str:
        return f"ExtendedScalar({_scalar_text(self)!r})"


# The slot descriptors' setters: the cheapest way past Frozen.__setattr__, and
# the kernels build one scalar per coordinate.
_set_kind = ExtendedScalar.kind.__set__
_set_q = ExtendedScalar.q.__set__

BOTTOM = ExtendedScalar(_BOT)
TOP = ExtendedScalar(_TOP)


# Python will not print an int of more than 4300 digits (its default
# int_max_str_digits), so a literal whose value would need more is refused.
MAX_LITERAL_DIGITS = 4300

# The literal grammar finite's docstring states.  Groups: sign, whole, denominator,
# fraction, exponent; the lookahead puts a digit on one side of the point.
_LITERAL = re.compile(r"([-+]?)(?=\.?[0-9])([0-9]*)"
                      r"(?:/([0-9]+)|(?:\.([0-9]*))?(?:[eE]([-+]?[0-9]+))?)")


def finite(value) -> ExtendedScalar:
    """Wrap an int (not a bool), a Fraction or a str literal as a finite scalar.

    A str must match the literal grammar in full: an optional sign, then either
    ``p/q`` or ``digits[.digits][(e|E)[sign]digits]``, where digits are ASCII
    0-9 and a point needs a digit on at least one side (``.5``, ``5.``).  So
    ``3``, ``-2.5``, ``7/3`` and ``1e-3`` are literals, while whitespace
    anywhere (``" 3"``, ``"3 / 4"``), underscores (``1_000``) and non-ASCII
    digits are not, and raise ValueError naming the token.  A literal needing
    more than MAX_LITERAL_DIGITS digits is refused from its digit counts,
    before any power of ten is built.  Any other type, float included, raises
    TypeError.  Integral values are stored as int.
    """
    kind = type(value)
    if kind is int:
        return ExtendedScalar(_FIN, value)
    if kind is str:
        m = _LITERAL.fullmatch(value)
        if m is None:
            raise ValueError(f"not a scalar literal: {value!r}")
        sign, whole, den, frac, exp = m.groups()
        if den is not None:
            value = Fraction(int(sign + whole), int(den))  # int() bounds p and q
        else:
            frac = frac or ""
            # an integer, decimal or exponent: value = n * 10**shift, and a negative
            # shift gives a denominator of 1 - shift digits
            shift = int(exp or 0) - len(frac)
            if max(len(whole) + len(frac) + max(shift, 0), 1 - shift) > MAX_LITERAL_DIGITS:
                raise ValueError("literal has too many digits")
            if shift >= 0:
                return ExtendedScalar(_FIN, int(sign + whole + frac) * 10 ** shift)
            value = Fraction(int(sign + whole + frac), 10 ** -shift)
    elif kind is not Fraction:
        raise TypeError(f"a finite scalar is an int, a Fraction or a str, not {kind.__name__}")
    return ExtendedScalar(_FIN, value.numerator if value.denominator == 1 else value)


ZERO = BOTTOM          # the semiring zero, -inf
ONE = finite(0)        # the semiring one, 0


def leq(a: ExtendedScalar, b: ExtendedScalar) -> bool:
    """Standard order: a <= b iff a (+) b = b."""
    return a <= b


def s_add(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Idempotent addition: max in the extended order."""
    return a if b < a else b


def s_mul(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Multiplication is rational addition; -inf absorbs everything, +inf absorbs nonzero."""
    if a.kind == _BOT or b.kind == _BOT:
        return BOTTOM
    if a.kind == _TOP or b.kind == _TOP:
        return TOP
    q = a.q + b.q
    return ExtendedScalar(_FIN, q) if type(q) is int else finite(q)


def s_conj(a: ExtendedScalar) -> ExtendedScalar:
    """The conjugate -a: negates a finite value and swaps -inf and +inf.

    It is an order-reversing involution, and both residuals are s_mul against it.
    """
    if a.kind == _FIN:
        return ExtendedScalar(_FIN, -a.q)
    return TOP if a.kind == _BOT else BOTTOM


def s_inv(a: ExtendedScalar) -> ExtendedScalar:
    """Multiplicative inverse; only finite values are invertible."""
    if a.kind != _FIN:
        raise NotInvertibleError(f"{format_scalar(a)} is not invertible")
    return s_conj(a)


def s_div(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Least k with a <= k*b: the residual that evaluates dual functionals."""
    return s_mul(a, s_conj(b))


def s_div_dual(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Greatest k with k*b <= a: the residual that projects onto spans.

    It equals s_div except at (-inf, -inf) and (+inf, +inf), where every k
    satisfies the inequality and the greatest one is +inf.
    """
    return s_conj(s_mul(s_conj(a), b))


def sup_div(ys: Sequence[ExtendedScalar], xs: Sequence[ExtendedScalar]) -> ExtendedScalar:
    """big_sup(s_div(y, x) for y, x in zip(ys, xs) if not y.is_bottom()), in one pass.

    The one loop over scalar pairs.  A finite pair adds its raw difference to a
    running max; a pair holding an infinity goes through s_div, and +inf stops
    the read as in big_sup.  As s_div(g, v) = s_mul(g, s_conj(v)), it reads a
    span_sup column as well as star_eval.  Its conjugate s_conj(sup_div(gs, ys))
    is big_inf(s_div_dual(y, g)), the greatest k with k*g <= y.
    """
    best = None
    for y, x in zip(ys, xs):
        if y is BOTTOM:  # nearly every -inf target is this object: skip it before reading kinds
            continue
        if y.kind == _FIN and x.kind == _FIN:
            d = y.q - x.q
        else:
            r = s_div(y, x)
            if r.kind == _TOP:
                return r
            continue  # the other residual of an infinite pair is -inf, the empty sup
        if best is None or d > best:
            best = d
    if best is None:
        return BOTTOM
    # as in s_mul, an int skips finite's call: span_sup makes one sup_div call per column
    return ExtendedScalar(_FIN, best) if type(best) is int else finite(best)


def big_sup(xs: Iterable[ExtendedScalar]) -> ExtendedScalar:
    """Supremum; the empty supremum is -inf (the zero).  Stops reading at +inf."""
    best = BOTTOM
    for x in xs:
        if best < x:
            if x.kind == _TOP:
                return x
            best = x
    return best


def big_inf(xs: Iterable[ExtendedScalar]) -> ExtendedScalar:
    """Infimum; the empty infimum is +inf.  Stops reading at -inf."""
    best = TOP
    for x in xs:
        if x < best:
            if x.kind == _BOT:
                return x
            best = x
    return best


def parse_scalar(token: str) -> ExtendedScalar:
    """Parse the scalar text syntax: -inf, +inf, or a literal in finite's grammar.

    A token outside the grammar, one whose value would need more than
    MAX_LITERAL_DIGITS digits, or a zero denominator raises ValueError
    "bad scalar token".
    """
    if token == "-inf":
        return BOTTOM
    if token == "+inf":
        return TOP
    try:
        return finite(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad scalar token {token!r}") from exc


def format_scalar(a: ExtendedScalar) -> str:
    """Print in the syntax parse_scalar reads back; a longer value than it reads is refused."""
    if a.kind == _BOT:
        return "-inf"
    if a.kind == _TOP:
        return "+inf"
    try:
        return str(a.q)
    except ValueError as exc:
        raise ValueError(f"result needs more than {MAX_LITERAL_DIGITS} digits "
                         "and cannot be printed") from exc


def _scalar_text(a: ExtendedScalar) -> str:
    """format_scalar for repr, which must not raise: a placeholder when that refuses."""
    try:
        return format_scalar(a)
    except ValueError:
        return f"<more than {MAX_LITERAL_DIGITS} digits>"

