import dataclasses
import re
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import maxplus as mp
from maxplus import formats
from maxplus.report import MAX_SUBSET_ITEMS
from maxplus.scalars import MAX_LITERAL_DIGITS, sup_div
from maxplus.semimodules import span_sup
from _oracles import (add_oracle, greatest_scaling, inf_div_dual_oracle, literal_oracle,
                      order_key, star_oracle, sup_div_oracle, sup_of_products_oracle,
                      v_leq_oracle)

finites = st.fractions(min_value=-50, max_value=50, max_denominator=12).map(mp.finite)
scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP), finites)
# -inf and +inf are drawn both as the module's objects and rebuilt from their kind.
conj_scalars = st.one_of(scalars, st.sampled_from([mp.BOTTOM.kind, mp.TOP.kind]).map(
    mp.ExtendedScalar))


# conj_scalars, and an integral value stored as a Fraction, which equals its int
ne_scalars = st.one_of(conj_scalars,
                       st.integers(-3, 3).map(lambda n: mp.ExtendedScalar(0, Fraction(n))))


@given(ne_scalars, ne_scalars)
def test_ne_is_the_negation_of_eq(a, b):
    assert (a != b) is (not a == b)
    assert (a != a) is False


def test_add_is_max():
    assert mp.s_add(mp.finite(3), mp.finite(5)) == mp.finite(5)


def test_zero_is_neutral():
    assert mp.s_add(mp.BOTTOM, mp.finite(7)) == mp.finite(7)


def test_top_absorbs_addition():
    assert mp.s_add(mp.finite(2), mp.TOP) == mp.TOP


def test_mul_is_plus():
    assert mp.s_mul(mp.finite(3), mp.finite(5)) == mp.finite(8)


def test_bottom_absorbs_top():
    assert mp.s_mul(mp.BOTTOM, mp.TOP) == mp.BOTTOM


def test_top_absorbs_nonzero():
    assert mp.s_mul(mp.finite(4), mp.TOP) == mp.TOP
    assert mp.s_mul(mp.TOP, mp.TOP) == mp.TOP


def test_inverse():
    assert mp.s_inv(mp.finite(5)) == mp.finite(-5)
    assert mp.s_inv(mp.ONE) == mp.ONE
    with pytest.raises(mp.NotInvertibleError):
        mp.s_inv(mp.BOTTOM)
    with pytest.raises(mp.NotInvertibleError):
        mp.s_inv(mp.TOP)


def test_big_sup_big_inf():
    assert mp.big_sup([]) == mp.BOTTOM
    assert mp.big_inf([]) == mp.TOP
    xs = [mp.finite(1), mp.finite(4), mp.finite(2)]
    assert mp.big_sup(xs) == mp.finite(4)
    assert mp.big_inf([mp.finite(1), mp.finite(4)]) == mp.finite(1)


def _read_until(*xs):
    """A generator of xs that fails the test if it is read past them."""
    yield from xs
    raise AssertionError(f"read past {xs[-1]!r}")


def test_big_sup_stops_reading_at_top():
    assert mp.big_sup(_read_until(mp.finite(1), mp.TOP)) == mp.TOP


def test_big_inf_stops_reading_at_bottom():
    assert mp.big_inf(_read_until(mp.finite(1), mp.BOTTOM)) == mp.BOTTOM


# The order kernels' inputs: conj_scalars, small ints and small Fractions, so that
# equal values held by distinct objects are frequent, and -inf and +inf as the
# module's objects or rebuilt from their kind.
infinities = st.sampled_from([mp.BOTTOM, mp.TOP, mp.ExtendedScalar(mp.BOTTOM.kind),
                              mp.ExtendedScalar(mp.TOP.kind)])
order_scalars = st.one_of(conj_scalars, infinities,
                          st.integers(min_value=-2, max_value=2).map(mp.finite),
                          st.fractions(min_value=-2, max_value=2, max_denominator=3).map(mp.finite))


@given(st.lists(st.tuples(order_scalars, order_scalars), max_size=6))
def test_order_kernels_match_the_order_key(pairs):
    for a, b in pairs:
        ka, kb = order_key(a), order_key(b)
        assert (a < b, a <= b, a > b, a >= b, a == b, a != b, mp.leq(a, b)) == (
            ka < kb, ka <= kb, ka > kb, ka >= kb, ka == kb, ka != kb, ka <= kb)
        total = mp.s_add(a, b)
        assert total == add_oracle(a, b)
        assert total is (a if kb < ka else b)  # b on a tie
    xs, ys = [p[0] for p in pairs], [p[1] for p in pairs]
    for items in (xs, ys, xs + ys):
        # the first greatest (least) item, or BOTTOM (TOP) itself when none is finite or +inf (-inf)
        top = max(items, key=order_key, default=mp.BOTTOM)
        bottom = min(items, key=order_key, default=mp.TOP)
        assert mp.big_sup(items) is (mp.BOTTOM if top.is_bottom() else top)
        assert mp.big_inf(items) is (mp.TOP if bottom.is_top() else bottom)
    lows = [min(p, key=order_key) for p in pairs]
    highs = [max(p, key=order_key) for p in pairs]
    for x, y in ((xs, ys), (ys, xs), (lows, highs), (highs, lows)):
        x, y = mp.FinVector(tuple(x)), mp.FinVector(tuple(y))
        assert mp.v_leq(x, y) == v_leq_oracle(x, y)


def test_ordering_a_scalar_against_another_type_raises():
    one = mp.finite(1)
    for compare in (lambda: 3 < one, lambda: one > 3, lambda: one <= 3, lambda: one < 3):
        with pytest.raises(TypeError):
            compare()
    for order in (lambda: mp.s_add(one, 2), lambda: mp.leq(one, None)):
        with pytest.raises((TypeError, AttributeError)):
            order()


def test_exact_rationals():
    a = mp.finite(Fraction(1, 3))
    b = mp.finite(Fraction(1, 6))
    assert mp.s_mul(a, b) == mp.finite(Fraction(1, 2))


@given(scalars, scalars)
def test_add_commutative(a, b):
    assert mp.s_add(a, b) == mp.s_add(b, a)


@given(scalars, scalars, scalars)
def test_add_associative(a, b, c):
    assert mp.s_add(a, mp.s_add(b, c)) == mp.s_add(mp.s_add(a, b), c)


@given(scalars, scalars, scalars)
def test_mul_distributes(k, a, b):
    lhs = mp.s_mul(k, mp.s_add(a, b))
    rhs = mp.s_add(mp.s_mul(k, a), mp.s_mul(k, b))
    assert lhs == rhs


@given(scalars, scalars)
def test_standard_order_matches_comparison(a, b):
    assert mp.leq(a, b) == (mp.s_add(a, b) == b)


@given(conj_scalars, conj_scalars)
def test_inverse_reverses_order(a, b):
    # s_inv is s_conj on finite values (checked below); s_conj extends it to -inf and +inf
    assert same_scalar(mp.s_conj(mp.s_conj(a)), a)
    assert mp.leq(a, b) == mp.leq(mp.s_conj(b), mp.s_conj(a))


@given(st.lists(scalars, max_size=5), scalars)
def test_generalized_distributivity(q, k):
    lhs = mp.s_mul(k, mp.big_sup(q))
    rhs = mp.big_sup(mp.s_mul(k, x) for x in q)
    assert lhs == rhs


def test_boolean_semifield_axioms():
    report = mp.check_semiring_axioms(mp.boolean_semifield())
    assert report.all_passed


def test_extended_maxplus_axioms_on_sample():
    sample = [mp.BOTTOM, mp.finite(-1), mp.finite(0), mp.finite(2), mp.TOP]
    report = mp.check_semiring_axioms(mp.extended_maxplus(), sample)
    assert report.all_passed


def test_semiring_axioms_refuse_more_values_than_the_subset_bound():
    calls = []
    d = dataclasses.replace(mp.maxplus_semifield(),
                            add=lambda a, b: calls.append(a) or mp.s_add(a, b),
                            mul=lambda a, b: calls.append(a) or mp.s_mul(a, b))
    sample = [mp.finite(k) for k in range(MAX_SUBSET_ITEMS + 1)]
    assert mp.check_semiring_axioms(d, sample[:2]).all_passed
    assert calls
    calls.clear()
    with pytest.raises(ValueError, match=f"at most {MAX_SUBSET_ITEMS} items"):
        mp.check_semiring_axioms(d, sample)
    assert calls == []  # no law runs before the refusal


def test_generalized_laws_fold_states_not_subsets_at_the_bound():
    calls = []
    d = dataclasses.replace(mp.extended_maxplus(),
                            mul=lambda a, b: calls.append(a) or mp.s_mul(a, b))
    n = MAX_SUBSET_ITEMS
    sample = [mp.BOTTOM, mp.TOP] + [mp.finite(k) for k in range(n - 2)]
    assert mp.check_semiring_axioms(d, sample).all_passed
    # the pair and triple laws make 10 n^3 + 4 n calls; each generalized law maps
    # the empty fold, each value and each of the n folds of a chain once per k,
    # where folding every subset made n + 2**n calls per k
    assert len(calls) - (10 * n ** 3 + 4 * n) <= 2 * n * (2 * n + 1)


def test_broken_descriptor_reports_witness():
    # idempotent addition, but min disagrees with the max-order zero
    broken = mp.SemiringDescriptor(
        name="broken-min",
        elements=None,
        add=lambda a, b: a if a <= b else b,
        mul=mp.s_mul,
        zero=mp.BOTTOM,
        one=mp.ONE,
    )
    sample = [mp.BOTTOM, mp.finite(-1), mp.finite(0), mp.finite(2)]
    report = mp.check_semiring_axioms(broken, sample)
    assert report.entry("add-idempotent").passed
    neutral = report.entry("zero-neutral")
    assert not neutral.passed
    assert neutral.witness is not None
    assert not report.all_passed


def test_extended_carrier_is_not_a_semifield():
    # an a-complete semiring beyond {zero, one} cannot invert everything: +inf is stuck
    assert not mp.extended_maxplus().is_semifield()
    assert mp.boolean_semifield().is_semifield()
    with pytest.raises(mp.NotInvertibleError):
        mp.s_inv(mp.TOP)


def test_zero_must_differ_from_one():
    with pytest.raises(ValueError):
        mp.SemiringDescriptor(name="bad", elements=(0,), add=max, mul=min,
                              zero=0, one=0)


def test_scalar_text_round_trip():
    for token in ["-inf", "+inf", "3", "-2", "7/3", "0"]:
        assert mp.format_scalar(mp.parse_scalar(token)) == token
    assert mp.parse_scalar("-2.5") == mp.finite(Fraction(-5, 2))
    assert mp.format_scalar(mp.parse_scalar("-2.5")) == "-5/2"
    with pytest.raises(ValueError):
        mp.parse_scalar("oops")


# Tokens over the grammar's characters, a few it refuses (_, d, space, an Arabic-Indic
# three) included.  An exponent of four digits or more is left out: Fraction would
# build the power the digit bound refuses, and that bound has its own tests.
literal_tokens = st.text(st.sampled_from(list("0123456789+-./eE_d ") + ["\u0663"]),
                         max_size=8).filter(lambda t: not re.search(r"[eE][-+]?[0-9]{4}", t))


@given(literal_tokens)
@example("5.")
@example(".5")
@example("-.5e-3")
@example("+6/2")
@example("1E+2")
@example("3 / 4")
@example("1_000")
@example("\u0663")
def test_parse_scalar_accepts_exactly_the_grammar(token):
    want = literal_oracle(token)
    if want is None:
        with pytest.raises(ValueError, match=f"^bad scalar token {re.escape(repr(token))}$"):
            mp.parse_scalar(token)
    else:
        got = mp.parse_scalar(token).q
        assert got == want and type(got) is type(want)


# -inf and +inf a quarter of the time each, and non-integral rationals as often as ints.
literal_scalars = st.one_of(
    st.just(mp.BOTTOM), st.just(mp.TOP), st.integers().map(mp.finite),
    st.fractions().filter(lambda q: q.denominator != 1).map(mp.finite))


@given(literal_scalars)
def test_format_then_parse_is_the_identity(a):
    back = mp.parse_scalar(mp.format_scalar(a))
    assert back == a and type(back.q) is type(a.q)


def _line_by_parse_scalar(line):
    """The line reader as tuple(map(parse_scalar, tokens)): the scalars, or the message
    and column of the first bad token."""
    try:
        return tuple(map(mp.parse_scalar, line.split()))
    except ValueError:
        for m in re.finditer(r"\S+", line):
            try:
                mp.parse_scalar(m.group())
            except ValueError as exc:
                return str(exc), m.start() + 1


# Lines of literal tokens, with -inf and +inf a quarter of the time each.
line_tokens = st.lists(st.one_of(st.just("-inf"), st.just("+inf"), literal_tokens,
                                 literal_tokens), min_size=1, max_size=8)


@given(line_tokens)
@example(["1/0"])
@example(["1/+2"])
@example(["1/2/3"])
@example(["+-1"])
@example(["-0/7"])
@example(["6/3"])
@example(["007"])
@example(["1_0"])
@example(["\u0663"])
@example(["-inf", "+6/2", "-0", "007", "7/3", "-2.5", ".5", "1e-3", "+inf"])
@example(["1/2", "-inf", "2/-3", "0"])
def test_line_reader_reads_as_parse_scalar_does(tokens):
    line = " ".join(tokens)
    if not line.split():
        return  # an empty line has its own refusal
    want = _line_by_parse_scalar(line)
    if type(want[0]) is str:
        with pytest.raises(formats.ParseError) as err:
            formats.parse_vector_line(line)
        assert str(err.value) == f"line 1, column {want[1]}: {want[0]}"
    else:
        got = formats.parse_vector_line(line).coords
        assert got == want
        assert [type(a.q) for a in got] == [type(a.q) for a in want]


def test_finite_names_a_str_outside_the_grammar():
    for token in (" 3", "3 ", "3 / 4", "1_000", "\u0663", "", ".", "1.5/2", "e5", "--1", "inf"):
        with pytest.raises(ValueError, match=f"^not a scalar literal: {re.escape(repr(token))}$"):
            mp.finite(token)
        with pytest.raises(ValueError, match=f"^bad scalar token {re.escape(repr(token))}$"):
            mp.parse_scalar(token)


def test_parse_scalar_bounds_literal_digits():
    with pytest.raises(ValueError, match="bad scalar token '1e5000'"):
        mp.parse_scalar("1e5000")
    with pytest.raises(ValueError, match="bad scalar token"):
        mp.parse_scalar("1e-4300")     # a 4301-digit denominator
    big = mp.parse_scalar("1e4000")
    assert mp.format_scalar(big) == "1" + "0" * 4000
    assert mp.parse_scalar(mp.format_scalar(big)) == big


def test_parse_scalar_refuses_huge_exponent_without_expanding_it():
    with pytest.raises(ValueError, match="bad scalar token '1e999999999'"):
        mp.parse_scalar("1e999999999")


def test_finite_bounds_literal_digits_as_parse_scalar_does():
    for token in ("1e5000", "1e-4300", "1e999999999", "1" * 4301):
        with pytest.raises(ValueError, match="literal has too many digits"):
            mp.finite(token)
        with pytest.raises(ValueError, match="literal has too many digits"):
            mp.vector([0, token])
    assert mp.finite("1e4000") == mp.parse_scalar("1e4000") == mp.finite(10 ** 4000)


def test_ratio_literal_digits_are_bounded_by_max_literal_digits():
    # With the interpreter's own bound on int() lifted, only MAX_LITERAL_DIGITS refuses.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        at, past = "1" * MAX_LITERAL_DIGITS, "1" * (MAX_LITERAL_DIGITS + 1)
        for token in (past + "/3", "3/" + past, "-" + past + "/3", past, "-" + past):
            with pytest.raises(ValueError, match="^literal has too many digits$"):
                mp.finite(token)
            with pytest.raises(ValueError, match=f"^bad scalar token {re.escape(repr(token))}$"):
                mp.parse_scalar(token)
            with pytest.raises(formats.ParseError, match="^line 1, column 3: bad scalar token"):
                formats.parse_vector_line("0 " + token)
        for token in (at + "/3", "-" + at + "/3", "3/" + at, "-" + at):
            assert formats.parse_vector_line("0 " + token).coords[1] == mp.parse_scalar(token)
    finally:
        sys.set_int_max_str_digits(limit)


def test_finite_refuses_every_type_but_int_fraction_and_str():
    for value in (0.5, float("inf"), True, False, Decimal("0.1"), None):
        with pytest.raises(TypeError, match="an int, a Fraction or a str"):
            mp.finite(value)
    with pytest.raises(TypeError):
        mp.vector([0.5, 1])
    assert mp.finite(Fraction(3, 1)).q == 3 and mp.finite("-5/10").q == Fraction(-1, 2)


# --- residuals ---------------------------------------------------------------

_TABLE_SAMPLE = ["-inf", "-1", "0", "2", "+inf"]
# S_DIV[i][j] = s_div(sample[i], sample[j]): least k with a <= k*b.
_S_DIV = [
    ["-inf", "-inf", "-inf", "-inf", "-inf"],
    ["+inf", "0", "-1", "-3", "-inf"],
    ["+inf", "1", "0", "-2", "-inf"],
    ["+inf", "3", "2", "0", "-inf"],
    ["+inf", "+inf", "+inf", "+inf", "-inf"],
]


def test_residual_pair_table():
    sample = [mp.parse_scalar(t) for t in _TABLE_SAMPLE]
    for i, a in enumerate(sample):
        for j, b in enumerate(sample):
            want = mp.parse_scalar(_S_DIV[i][j])
            assert mp.s_div(a, b) == want, (a, b)
            # The pair differs only where both are -inf or both are +inf.
            want_dual = mp.TOP if i == j and not a.is_finite() else want
            assert mp.s_div_dual(a, b) == want_dual, (a, b)


# Finite values stay in [-5, 5] so every finite residual lies inside the oracles'
# grids; one_of draws -inf and +inf a third of the time each.
grid_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP),
                         st.integers(min_value=-5, max_value=5).map(mp.finite))


@given(grid_scalars, grid_scalars)
def test_residual_pair_matches_grid_oracles(a, b):
    least = star_oracle(mp.vector([b]), mp.vector([a]))
    # Every finite k works against a +inf divisor; that set has infimum -inf,
    # which the grid can only show as its lowest point.
    if least == mp.finite(-20):
        least = mp.BOTTOM
    assert mp.s_div(a, b) == least
    assert mp.s_div_dual(a, b) == greatest_scaling(mp.vector([b]), mp.vector([a]))


def test_integral_values_are_stored_as_int():
    six_halves = mp.finite(Fraction(6, 2))
    assert six_halves == mp.finite(3) == mp.parse_scalar("6/2") == mp.parse_scalar("3.0")
    assert hash(six_halves) == hash(mp.finite(3)) == hash(mp.finite(Fraction(3)))
    assert type(six_halves.q) is int and type(mp.parse_scalar("-6/2").q) is int
    assert mp.format_scalar(six_halves) == mp.format_scalar(mp.finite(3)) == "3"
    assert mp.finite(Fraction(1, 2)).q == Fraction(1, 2)
    # Mixed int and Fraction storage compares and adds exactly.
    assert mp.s_mul(mp.finite(Fraction(1, 2)), mp.finite(Fraction(1, 2))) == mp.finite(1)
    # An integral result of Fraction arithmetic is stored as int too.
    half, minus_half = mp.finite(Fraction(1, 2)), mp.finite(Fraction(-1, 2))
    for result in (mp.s_mul(half, half), mp.s_div(half, half), mp.s_div(half, minus_half),
                   sup_div([half], [minus_half]),
                   mp.s_conj(sup_div([half, mp.ONE], [half, mp.TOP])),
                   span_sup([minus_half, mp.TOP], [mp.vector([half]), mp.vector([mp.TOP])],
                            1).coords[0]):
        assert type(result.q) is int, result
    assert mp.finite(1) < mp.finite(Fraction(3, 2)) <= mp.finite(Fraction(3, 2))


def test_repr_never_raises():
    huge = mp.finite(10 ** 4400)
    assert repr(huge) == "ExtendedScalar('<more than 4300 digits>')"
    assert repr(mp.FinVector((mp.finite(1), huge))) == "FinVector(1 <more than 4300 digits>)"
    assert repr(mp.finite(-7)) == "ExtendedScalar('-7')"
    assert repr(mp.vector([mp.BOTTOM, "1/2", mp.TOP])) == "FinVector(-inf 1/2 +inf)"
    with pytest.raises(ValueError, match="cannot be printed"):
        mp.format_scalar(huge)


# One-pass residual loops against their generic compositions.  -inf and +inf
# are drawn half of the time; finite values are halves and integers, so many
# pairs of Fractions differ by an integer.
loop_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP),
                         st.fractions(min_value=-6, max_value=6, max_denominator=2).map(mp.finite),
                         st.integers(min_value=-6, max_value=6).map(mp.finite))
coordinate_pairs = st.lists(st.tuples(loop_scalars, loop_scalars), max_size=8)


def same_scalar(a, b):
    return a == b and type(a.q) is type(b.q)


@given(coordinate_pairs)
def test_sup_div_matches_its_composition(pairs):
    ys, xs = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    assert same_scalar(sup_div(ys, xs), sup_div_oracle(ys, xs))
    anew = tuple(mp.ExtendedScalar(y.kind, y.q) for y in ys)  # no -inf is the BOTTOM object
    assert same_scalar(sup_div(anew, xs), sup_div_oracle(ys, xs))


@given(coordinate_pairs)
def test_inf_div_dual_matches_its_composition(pairs):
    # the projection coefficient is the conjugate of sup_div with the sequences swapped
    ys, gs = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    assert same_scalar(mp.s_conj(sup_div(gs, ys)), inf_div_dual_oracle(ys, gs))


# Rationals with denominators up to 10**7, as the rational-io benchmark draws them,
# next to ints and both infinities; a pair (f + k, f) has an integral difference
# between two non-integral values.
wide_rationals = st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=10 ** 7)
wide_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP),
                         st.integers(min_value=-10 ** 9, max_value=10 ** 9).map(mp.finite),
                         wide_rationals.map(mp.finite))
rational_pairs = st.lists(st.one_of(
    st.tuples(wide_scalars, wide_scalars),
    st.builds(lambda f, k: (mp.finite(f + k), mp.finite(f)), wide_rationals,
              st.integers(min_value=-3, max_value=3))), min_size=1, max_size=12)


@given(rational_pairs)
def test_rational_residuals_match_their_composition(pairs):
    ys, xs = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    want = sup_div_oracle(ys, xs)
    assert same_scalar(sup_div(ys, xs), want)
    assert same_scalar(mp.star_eval(mp.FinVector(xs), mp.FinVector(ys)), want)
    # the projection coefficient of generator xs at target ys
    assert same_scalar(mp.s_conj(sup_div(xs, ys)), inf_div_dual_oracle(ys, xs))


def test_ratio_literals_are_read_over_integers():
    assert same_scalar(mp.finite("6/3"), mp.finite(2))
    assert same_scalar(mp.finite("-0/7"), mp.ONE)
    with pytest.raises(ZeroDivisionError):
        mp.finite("1/0")
    with pytest.raises(ValueError, match="^bad scalar token '1/0'$"):
        mp.parse_scalar("1/0")


def test_conjugate_fixes_one_and_swaps_the_infinities():
    assert same_scalar(mp.s_conj(mp.ONE), mp.ONE)
    for a, b in ((mp.BOTTOM, mp.TOP), (mp.ExtendedScalar(mp.BOTTOM.kind), mp.TOP),
                 (mp.TOP, mp.BOTTOM), (mp.ExtendedScalar(mp.TOP.kind), mp.BOTTOM)):
        assert mp.s_conj(a) == b


@given(finites)
def test_inverse_is_the_conjugate_on_finite_values(a):
    assert same_scalar(mp.s_inv(a), mp.s_conj(a))


# Up to five rows of one drawn length, each with its coefficient.
scaled_rows = st.integers(min_value=0, max_value=6).flatmap(lambda d: st.lists(
    st.tuples(loop_scalars, st.lists(loop_scalars, min_size=d, max_size=d)), max_size=5))


@given(scaled_rows)
def test_span_columns_match_their_composition(pairs):
    # span_sup takes the values whose conjugates are the coefficients
    ks, rows = [p[0] for p in pairs], [p[1] for p in pairs]
    values, generators = [mp.s_conj(k) for k in ks], [mp.FinVector(tuple(r)) for r in rows]
    got = span_sup(values, generators, len(rows[0]) if rows else 0).coords
    want = sup_of_products_oracle(ks, rows)
    assert len(got) == len(want) and all(map(same_scalar, got, want))
