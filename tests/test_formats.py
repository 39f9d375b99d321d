from fractions import Fraction

import pytest

import maxplus as mp
from maxplus import formats
from maxplus.selftest import all_small_posets


def test_parse_vector_line():
    v = formats.parse_vector_line("1 -inf 7/3")
    assert v == mp.FinVector((mp.finite(1), mp.BOTTOM, mp.finite(Fraction(7, 3))))


def test_vector_round_trip():
    text = "# labels: a b c\n1 -inf 7/3\n-2.5 +inf 0\n"
    vectors = formats.parse_vectors(text)
    assert vectors[0].labels == ("a", "b", "c")
    assert formats.parse_vectors(formats.format_vectors(vectors)) == vectors


def test_parse_error_reports_position():
    cases = [
        ("1 oops 3\n", 1, 3, "oops"),
        # several bad tokens on one line: the first is reported
        ("0  1_000 oops \u0663 1/0\n", 1, 4, "1_000"),
        ("-inf +inf\t1e5000  2/0\n", 1, 11, "1e5000"),
        # the last of 64 tokens
        (" ".join(["1/2"] * 63 + ["7/0"]) + "\n", 1, 253, "7/0"),
        # the second vector line of a file, after a header, a comment and a blank line
        ("# labels: a b c\n1 2 3\n# note\n\n4 5 .\n", 5, 5, "."),
    ]
    for text, line, column, token in cases:
        with pytest.raises(formats.ParseError) as err:
            formats.parse_vectors(text)
        assert (err.value.line, err.value.column) == (line, column)
        assert str(err.value) == f"line {line}, column {column}: bad scalar token {token!r}"


@pytest.mark.parametrize("indent", ["  ", "\t"])
def test_parse_error_column_counts_the_indent(indent):
    line = indent + "1 oops\n"
    column = len(indent) + 3
    for parse, text, lineno in ((formats.parse_vectors, line, 1),
                                (formats.parse_functional,
                                 "# functional-representer dim=2\n" + line, 2)):
        with pytest.raises(formats.ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column) == (lineno, column)


def test_labels_must_match_dimension():
    with pytest.raises(formats.ParseError):
        formats.parse_vectors("# labels: a b\n1 2 3\n")


def test_function_file_requires_labels():
    with pytest.raises(formats.ParseError):
        formats.parse_functions("0 0\n")
    fns = formats.parse_functions("# labels: a b\n0 0\n")
    assert fns[0] == mp.unit_element(("a", "b"))


def test_functional_round_trip():
    f = mp.FunctionalRep(mp.vector([1, mp.BOTTOM, mp.TOP]))
    text = formats.format_functional(f)
    assert text.startswith("# functional-representer dim=3\n")
    assert formats.parse_functional(text) == f


def test_functional_header_required():
    with pytest.raises(formats.ParseError):
        formats.parse_functional("1 2 3\n")
    with pytest.raises(formats.ParseError):
        formats.parse_functional("# functional-representer dim=2\n1 2 3\n")


def test_poset_round_trip():
    text = "elements: a b c\na < c\nb < c\n"
    s = formats.parse_poset(text)
    assert mp.standard_order(s, "a", "c")
    assert not mp.standard_order(s, "a", "b")
    assert formats.parse_poset(formats.format_poset(s)).relation == s.relation
    for s in all_small_posets(4):
        back = formats.parse_poset(formats.format_poset(s))
        assert (back.elements, back.relation) == (s.elements, s.relation)


def test_poset_prints_cover_relations_only():
    s = formats.parse_poset("elements: a b c\na < b\nb < c\n")
    printed = formats.format_poset(s)
    assert "a < c" not in printed
    assert "a < b" in printed and "b < c" in printed


def test_poset_parse_errors():
    with pytest.raises(formats.ParseError):
        formats.parse_poset("a < b\n")
    with pytest.raises(formats.ParseError):
        formats.parse_poset("elements: a b\na b\n")
    with pytest.raises(formats.ParseError):
        formats.parse_poset("elements: a b\na < zz\n")
    with pytest.raises(formats.ParseError, match="line 1: element label '#a' starts with '#'"):
        formats.parse_poset("elements: b #a\n")


def test_poset_past_the_cut_bound_is_refused_on_its_header():
    # every element is a cut of its own, so no completion accepts more
    labels = [f"e{i}" for i in range(mp.order.COMPLETION_MAX_CUTS)]
    assert len(formats.parse_poset("elements: " + " ".join(labels) + "\n").elements) == 256
    with pytest.raises(formats.ParseError, match=r"^line 2: completion limited to 256 cuts "
                                                 r"\(order.COMPLETION_MAX_CUTS\), got 257 elements$"):
        formats.parse_poset("# a comment\nelements: " + " ".join(labels) + " extra\nextra < e0\n")
