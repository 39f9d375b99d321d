"""Scalar arithmetic of the extended max-plus semiring.

The scalar carrier is {-inf} + Q + {+inf} with idempotent addition max and
multiplication +.  All finite values are exact rationals, so associativity and
distributivity are equalities, not float approximations.
"""

from __future__ import annotations

import re
from typing import Iterable, Sequence, Union

from .report import Frozen

_BOT = -1
_FIN = 0
_TOP = 1

# fractions.Fraction once _load_fraction has run: no integral scalar needs it.
# finite's type check loads it too, so a Fraction the caller built is taken.
Fraction = None


def _load_fraction():
    global Fraction
    from fractions import Fraction  # it and decimal cost ~3-5 ms of start-up; load on first need
    return Fraction


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
        return self.kind == other.kind and self.q == other.q

    def __ne__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind != other.kind or self.q != other.q

    def __hash__(self) -> int:
        return hash((self.kind, self.q))

    def is_bottom(self) -> bool:
        return self.kind == _BOT

    def is_top(self) -> bool:
        return self.kind == _TOP

    def is_finite(self) -> bool:
        return self.kind == _FIN

    # The order: -inf, the rationals by value, +inf.  a > b runs b < a, a >= b runs b <= a;
    # s_add, big_sup, big_inf and sup_div restate the order (CHANGES.md's fast-path ledger).
    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.kind == _FIN and other.kind == _FIN:
            return self.q < other.q
        return self.kind < other.kind

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.kind == _FIN and other.kind == _FIN:
            return self.q <= other.q
        return self.kind <= other.kind

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
    more than MAX_LITERAL_DIGITS digits, or a p/q with more in p or in q, is
    refused from its digit counts, before any power of ten or int is built.
    Any other type, float included, raises TypeError.  Integral values are
    stored as int.
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
            if len(whole) > MAX_LITERAL_DIGITS or len(den) > MAX_LITERAL_DIGITS:
                raise ValueError("literal has too many digits")
            n, d = int(whole), int(den)
        else:
            frac = frac or ""
            # an integer, decimal or exponent: value = n * 10**shift, and a negative
            # shift gives a denominator of 1 - shift digits
            shift = int(exp or 0) - len(frac)
            if max(len(whole) + len(frac) + max(shift, 0), 1 - shift) > MAX_LITERAL_DIGITS:
                raise ValueError("literal has too many digits")
            n, d = int(whole + frac), 1
            if shift >= 0:
                n *= 10 ** shift
            else:
                d = 10 ** -shift
        if sign == "-":
            n = -n
        # p/0 raises ZeroDivisionError here; an integral value is stored as an int
        if n % d:
            return ExtendedScalar(_FIN, (Fraction or _load_fraction())(n, d))
        return ExtendedScalar(_FIN, n // d)
    elif kind is not (Fraction or _load_fraction()):
        raise TypeError(f"a finite scalar is an int, a Fraction or a str, not {kind.__name__}")
    return ExtendedScalar(_FIN, value.numerator if value.denominator == 1 else value)


ZERO = BOTTOM          # the semiring zero, -inf
ONE = finite(0)        # the semiring one, 0


def leq(a: ExtendedScalar, b: ExtendedScalar) -> bool:
    """Standard order: a <= b iff a (+) b = b."""
    return a <= b


def s_add(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Idempotent addition: max in the extended order, b on a tie."""
    if a.kind == _FIN and b.kind == _FIN:
        return a if b.q < a.q else b
    return a if b.kind < a.kind else b


def s_mul(a: ExtendedScalar, b: ExtendedScalar) -> ExtendedScalar:
    """Multiplication is rational addition; -inf absorbs everything, +inf absorbs nonzero."""
    if a.kind == _BOT or b.kind == _BOT:
        return BOTTOM
    if a.kind == _TOP or b.kind == _TOP:
        return TOP
    q = a.q + b.q
    if type(q) is not int:
        return finite(q)
    r = object.__new__(ExtendedScalar)  # past __init__, as _parse_tokens builds
    _set_kind(r, _FIN)
    _set_q(r, q)
    return r


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

    The one loop over scalar pairs.  A pair of int values keeps a running int
    max of its differences.  A finite pair with a Fraction on either side is
    compared over integers: with y = a/b and x = c/d from as_integer_ratio(),
    y - x is the unreduced n/m = (a*d - c*b)/(b*d), and it beats the running
    rational max num/den when n*den > num*m.  So the loop builds no Fraction:
    the two maxima meet once, after it, and one Fraction is built only when
    the rational max is the greater and is not integral.  A pair holding an
    infinity goes through s_div, and +inf stops the read as in big_sup.  As
    s_div(g, v) = s_mul(g, s_conj(v)), it reads a span_sup column as well as
    star_eval.  Its conjugate s_conj(sup_div(gs, ys)) is
    big_inf(s_div_dual(y, g)), the greatest k with k*g <= y.
    """
    best = None      # the max over int pairs
    num = den = 0    # the max over the other finite pairs, once den > 0
    integer = int    # locals read faster than the builtin and the global in the per-pair tests
    bottom = BOTTOM
    for y, x in zip(ys, xs):
        if y is bottom:  # nearly every -inf target is this object: skip it before reading kinds
            continue
        a = y.q
        c = x.q
        # an infinity's q is None, never an int; from 3.11 on __class__ reads faster than type()
        if a.__class__ is integer and c.__class__ is integer:
            n = a - c
            if best is None or n > best:
                best = n
        elif y.kind == _FIN and x.kind == _FIN:
            (a, b), (c, d) = a.as_integer_ratio(), c.as_integer_ratio()
            n, m = a * d - c * b, b * d
            if not den or n * den > num * m:
                num, den = n, m
        else:
            r = s_div(y, x)
            if r.kind == _TOP:
                return r
            # the other residual of an infinite pair is -inf, the empty sup
    if den and (best is None or num > best * den):
        best, rest = divmod(num, den)
        if rest:
            return ExtendedScalar(_FIN, (Fraction or _load_fraction())(num, den))
    return BOTTOM if best is None else ExtendedScalar(_FIN, best)


def big_sup(xs: Iterable[ExtendedScalar]) -> ExtendedScalar:
    """Supremum; the empty supremum is -inf (the zero).  Stops reading at +inf.

    The first greatest element is returned, and BOTTOM itself when no element
    is finite or +inf.
    """
    best = BOTTOM  # until a finite element replaces it; +inf returns at once
    for x in xs:
        if x.kind == _FIN:
            if best is BOTTOM or best.q < x.q:
                best = x
        elif x.kind == _TOP:
            return x
    return best


def big_inf(xs: Iterable[ExtendedScalar]) -> ExtendedScalar:
    """Infimum; the empty infimum is +inf.  Stops reading at -inf.

    The first least element is returned, and TOP itself when no element is
    finite or -inf.
    """
    best = TOP  # until a finite element replaces it; -inf returns at once
    for x in xs:
        if x.kind == _FIN:
            if best is TOP or x.q < best.q:
                best = x
        elif x.kind == _BOT:
            return x
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


_INFINITIES = {"-inf": BOTTOM, "+inf": TOP}


def _parse_tokens(tokens: Iterable[str]) -> tuple:
    """tuple(map(parse_scalar, tokens)) in one loop: the vector line reader's.

    -inf and +inf are one dict lookup.  A token of ASCII [-+]?[0-9]+(/[0-9]+)?
    with a nonzero denominator, no longer than MAX_LITERAL_DIGITS, is read with
    int() and built past __init__ as finite would build it.  int() alone would
    also take whitespace, "_", non-ASCII digits and a sign after the "/", hence
    the guard.  Any other token goes through parse_scalar, so the grammar, its
    refusals and their messages stay in finite.  A bad token raises ValueError.
    """
    coords = []
    append = coords.append
    infinity = _INFINITIES.get
    new = object.__new__
    for t in tokens:
        a = infinity(t)
        if a is None:
            p, slash, q = t.partition("/")
            # p[:1] in "-+" also holds for an empty p, whose empty digits then fail
            if ((p[1:] if p[:1] in "-+" else p).isdecimal() and (not slash or q.isdecimal())
                    and t.isascii() and len(t) <= MAX_LITERAL_DIGITS):
                n = int(p)
                if slash:
                    d = int(q)
                    if not d:
                        parse_scalar(t)  # raises: a zero denominator is finite's refusal
                    n = (Fraction or _load_fraction())(n, d) if n % d else n // d
                a = new(ExtendedScalar)
                _set_kind(a, _FIN)
                _set_q(a, n)
            else:
                a = parse_scalar(t)
        append(a)
    return tuple(coords)


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

