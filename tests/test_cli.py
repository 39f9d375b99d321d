import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import maxplus as mp
from maxplus import formats
from maxplus.cli import main
from maxplus.report import MAX_SUBSET_ITEMS


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def files(tmp_path):
    def write(name, content):
        p = tmp_path / name
        p.write_text(content)
        return str(p)
    return write


def test_eval_star(files, capsys):
    x = files("x.vec", "0 -1 2\n")
    y = files("y.vec", "1 1 1\n")
    code, out, _ = run_cli(["eval-star", "--x", x, "--y", y], capsys)
    assert code == 0
    assert out.strip() == "2"


def test_recover_round_trips(files, capsys):
    fn = files("f.fn", "# functional-representer dim=3\n1 -2 0\n")
    code, out, _ = run_cli(["recover", "--functional", fn], capsys)
    assert code == 0
    assert out == "# functional-representer dim=3\n1 -2 0\n"


def test_extend(files, capsys):
    gens = files("w.vec", "0 0\n")
    code, out, _ = run_cli(["extend", "--generators", gens, "--values", "0",
                            "--dim", "2"], capsys)
    assert code == 0
    assert "0 0" in out


def test_extend_inconsistent_exits_1(files, capsys):
    gens = files("w.vec", "0 0\n1 1\n")
    code, _, err = run_cli(["extend", "--generators", gens,
                            "--values", "0", "0", "--dim", "2"], capsys)
    assert code == 1
    assert "violation" in err
    gens = files("g.vec", "0 1 2\n-inf 0 +inf\n")
    code, _, err = run_cli(["extend", "--generators", gens,
                            "--values", "0", "-1/2", "--dim", "3"], capsys)
    assert code == 1
    assert "generator 1 evaluates to -1, prescribed -1/2" in err


def test_negative_scalar_tokens_are_values(files, capsys):
    gens = files("w.vec", "0 -inf\n-inf 0\n")
    for values, rep in ((["0", "-inf"], "0 +inf"), (["0", "-1/2"], "0 1/2"),
                        (["-inf", "-1/2"], "+inf 1/2")):
        code, out, err = run_cli(["extend", "--generators", gens, "--values", *values,
                                  "--dim", "2"], capsys)
        assert (code, err) == (0, ""), values
        assert out.splitlines()[1] == rep
    code, out, _ = run_cli(["check-axioms", "--semiring", "maxplus",
                            "--sample", "-inf", "-1/2", "0", "-.5", "+inf"], capsys)
    assert code == 0 and out.count("PASS") == 11


def test_eval_star_refuses_disagreeing_labels(files, capsys):
    x = files("x.vec", "# labels: a b\n1 2\n")
    y = files("y.vec", "# labels: b a\n3 4\n")
    code, out, err = run_cli(["eval-star", "--x", x, "--y", y], capsys)
    assert (code, out) == (2, "")
    assert "coordinate labels disagree" in err


def test_function_verbs_refuse_disagreeing_labels(files, capsys):
    ab = files("ab.fun", "# labels: a b\n1 2\n")
    ba = files("ba.fun", "# labels: b a\n3 4\n")
    abc = files("abc.fun", "# labels: a b c\n1 2 3\n")
    for other, message in ((ba, "coordinate labels disagree"),
                           (abc, "dimension mismatch: 2 vs 3")):
        for argv in (["scalar-product", "--f1", ab, "--f2", other],
                     ["integrate", "--phi", ab, "--weight", other],
                     ["prop4", "--x", ab, "--y", other]):
            code, out, err = run_cli(argv, capsys)
            assert (code, out) == (2, ""), argv
            assert message in err, argv


@pytest.mark.parametrize("argv", [["selftest", "--samples", "-5"], ["selftest", "--dim", "0"],
                                  ["check-alinear", "--functional", "f.fn", "--samples", "0"]])
def test_counts_must_be_positive(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: maxplus")
    assert "must be a positive integer" in err


def test_unprintable_result_exits_2(files, capsys):
    x = files("x.vec", "-9" + "0" * 4299 + "\n")
    y = files("y.vec", "9" + "0" * 4299 + "\n")
    code, out, err = run_cli(["eval-star", "--x", x, "--y", y], capsys)
    assert (code, out) == (2, "")
    assert "result needs more than 4300 digits and cannot be printed" in err
    assert "set_int_max_str_digits" not in err


def test_internal_fault_exits_3(files, capsys, monkeypatch):
    monkeypatch.setattr(mp.FiniteIS, "is_complete_lattice", lambda self: False)
    poset = files("anti.pos", "elements: a b\n")
    code, out, err = run_cli(["dm-complete", "--poset", poset], capsys)
    assert (code, out) == (3, "")
    assert err.splitlines()[-1] == ("internal error: RuntimeError: "
                                    "cut completion is not a complete lattice")


def test_zero_functional_is_a_usage_error(files, capsys):
    fn = files("z.fn", "# functional-representer dim=2\n+inf +inf\n")
    code, out, err = run_cli(["recover", "--functional", fn], capsys)
    assert (code, out) == (2, "")
    assert "zero functional has no representer" in err


def test_overlong_literal_is_a_parse_error(files, capsys):
    x = files("x.vec", "0\n")
    y = files("y.vec", "1e5000\n")
    code, out, err = run_cli(["eval-star", "--x", x, "--y", y], capsys)
    assert (code, out) == (2, "")
    assert "line 1, column 1: bad scalar token '1e5000'" in err


# Input files of the wrong shape: argv and the exact stderr, with {0}, {1} the files.
EVAL_STAR = ["eval-star", "--x", "{0}", "--y", "{1}"]
SHAPE_REFUSALS = [
    (EVAL_STAR, ("0 0\n1 1\n", "0 0\n"), "{0}: expected exactly one vector, found 2"),
    (["scalar-product", "--f1", "{0}", "--f2", "{1}"],
     ("# labels: a b\n0 0\n1 1\n", "# labels: a b\n0 0\n"),
     "{0}: expected exactly one function, found 2"),
    (["check-graph", "--inputs", "{0}", "--outputs", "{1}"], ("0\n1\n", "0\n"),
     "2 inputs but 1 outputs"),
    (EVAL_STAR, ("# labels:\n0\n", "0\n"), "line 1: labels header names no coordinates"),
    (EVAL_STAR, ("# labels: a a\n0 0\n", "0 0\n"), "line 1: duplicate coordinate labels"),
    (EVAL_STAR, ("0 0\n# labels: a b\n", "0 0\n"),
     "line 2: labels header must precede the vectors"),
    (["recover", "--functional", "{0}"], ("# functional-representer dim=2\n0 0\n1 1\n",),
     "line 1: functional files contain exactly one representer line"),
]


@pytest.mark.parametrize("argv, texts, message", SHAPE_REFUSALS)
def test_misshapen_input_file_exits_2(files, capsys, argv, texts, message):
    paths = [files(f"in{i}", text) for i, text in enumerate(texts)]
    code, out, err = run_cli([arg.format(*paths) for arg in argv], capsys)
    assert (code, out, err) == (2, "", "error: " + message.format(*paths) + "\n")


def test_separate(files, capsys):
    x = files("x.vec", "0 0\n")
    y = files("y.vec", "1 0\n")
    code, out, _ = run_cli(["separate", "--x", x, "--y", y], capsys)
    assert code == 0
    assert "f(x) = 0" in out
    assert "f(y) = 1" in out


def test_separate_refuses_disagreeing_labels(files, capsys):
    x = files("ab.vec", "# labels: a b\n1 2\n")
    y = files("ba.vec", "# labels: b a\n1 2\n")
    code, out, err = run_cli(["separate", "--x", x, "--y", y], capsys)
    assert (code, out) == (2, "")
    assert "coordinate labels disagree" in err


def test_extend_counts_zero_generators(files, capsys):
    gens = files("g.vec", "0 1\n-inf -inf\n")
    code, out, _ = run_cli(["extend", "--generators", gens, "--values", "0", "-inf",
                            "--dim", "2"], capsys)
    assert (code, out) == (0, "# functional-representer dim=2\n0 1\n")
    code, out, err = run_cli(["extend", "--generators", gens, "--values", "0", "5",
                              "--dim", "2"], capsys)
    assert (code, out) == (1, "")
    assert "generator 1 evaluates to -inf, prescribed 5" in err
    code, out, err = run_cli(["extend", "--generators", gens, "--values", "5",
                              "--dim", "2"], capsys)
    assert (code, out) == (2, "")
    assert "2 generators but 1 values" in err


def test_completion_refuses_reserved_labels(files, capsys):
    poset = files("top.pos", "elements: _top a\n")
    code, out, err = run_cli(["dm-complete", "--poset", poset], capsys)
    assert (code, out) == (2, "")
    assert err == "error: duplicate element label '_top'\n"


def test_sup_functionals(files, capsys):
    f1 = files("f1.fn", "# functional-representer dim=2\n0 5\n")
    f2 = files("f2.fn", "# functional-representer dim=2\n5 0\n")
    code, out, _ = run_cli(["sup-functionals", "--functionals", f1, f2], capsys)
    assert code == 0
    assert out.splitlines()[1] == "0 0"


def test_scalar_product_and_integrate(files, capsys):
    f1 = files("f1.fun", "# labels: a b\n1 2\n")
    f2 = files("f2.fun", "# labels: a b\n3 -1\n")
    code, out, _ = run_cli(["scalar-product", "--f1", f1, "--f2", f2], capsys)
    assert code == 0 and out.strip() == "4"
    code, out, _ = run_cli(["integrate", "--phi", f1], capsys)
    assert code == 0 and out.strip() == "2"
    code, out, _ = run_cli(["integrate", "--phi", f1, "--weight", f2], capsys)
    assert code == 0 and out.strip() == "4"


def test_prop4(files, capsys):
    x = files("x.fun", "# labels: a b\n0 1\n")
    y = files("y.fun", "# labels: a b\n2 2\n")
    code, out, _ = run_cli(["prop4", "--x", x, "--y", y], capsys)
    assert code == 0
    assert "PASS" in out


def test_dm_complete(files, capsys):
    poset = files("anti.pos", "elements: a b\n")
    code, out, _ = run_cli(["dm-complete", "--poset", poset], capsys)
    assert code == 0
    assert out.splitlines()[0] == "elements: _bot a b _top"
    assert "# embed a -> a" in out
    code2, out2, _ = run_cli(["b-complete", "--poset", poset], capsys)
    assert code2 == 0
    assert out2.splitlines()[0] == "elements: _bot a b _top"


def test_dm_complete_bounds_cuts_not_elements(files, capsys):
    labels = [f"e{i}" for i in range(13)]
    poset = files("anti13.pos", formats.format_poset(mp.FiniteIS.antichain(labels)))
    code, out, _ = run_cli(["dm-complete", "--poset", poset], capsys)
    assert code == 0
    assert out.splitlines()[0].split()[1:] == ["_bot", *labels, "_top"]
    a, b = [f"a{i}" for i in range(9)], [f"b{j}" for j in range(9)]
    crown = mp.FiniteIS.from_pairs(a + b, [(a[i], b[j]) for i in range(9)
                                           for j in range(9) if i != j])
    code, out, err = run_cli(["dm-complete", "--poset",
                              files("crown9.pos", formats.format_poset(crown))], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: completion limited to 256 cuts")


def test_dm_complete_refuses_an_oversized_poset_before_its_closure(files, capsys):
    # the closure of a 1000-chain alone takes seconds; the header refuses it at once
    for n in (257, 1000):
        labels = [f"c{i}" for i in range(n)]
        poset = files(f"chain{n}.pos", "elements: " + " ".join(labels) + "\n"
                      + "".join(f"{a} < {b}\n" for a, b in zip(labels, labels[1:])))
        start = time.perf_counter()
        code, out, err = run_cli(["dm-complete", "--poset", poset], capsys)
        assert time.perf_counter() - start < 0.1
        assert (code, out) == (2, "")
        assert err == (f"error: line 1: completion limited to 256 cuts "
                       f"(order.COMPLETION_MAX_CUTS), got {n} elements\n")


def test_check_axioms(capsys):
    code, out, _ = run_cli(["check-axioms", "--semiring", "boolean"], capsys)
    assert code == 0
    assert all("PASS" in line for line in out.strip().splitlines())
    code, out, _ = run_cli(["check-axioms", "--semiring", "maxplus"], capsys)
    assert code == 0


def test_check_axioms_subset_bound(capsys):
    sample = ["-inf", "+inf"] + [str(v) for v in range(MAX_SUBSET_ITEMS - 2)]
    code, out, _ = run_cli(["check-axioms", "--semiring", "maxplus", "--sample", *sample],
                           capsys)
    assert code == 0 and out.count("PASS") == 11
    code, out, err = run_cli(["check-axioms", "--semiring", "maxplus",
                              "--sample", *sample, "99"], capsys)
    assert (code, out) == (2, "")
    assert f"on at most {MAX_SUBSET_ITEMS} items" in err


def test_check_alinear(files, capsys):
    fn = files("f.fn", "# functional-representer dim=3\n1 -2 +inf\n")
    code, out, _ = run_cli(["check-alinear", "--functional", fn, "--seed", "7"],
                           capsys)
    assert code == 0
    assert "sup-preservation: PASS" in out


def test_check_graph_pass_and_fail(files, capsys):
    ins = files("in.vec", "0 -inf\n-inf 0\n0 0\n")
    outs = files("out.vec", "0\n0\n0\n")
    code, out, _ = run_cli(["check-graph", "--inputs", ins, "--outputs", outs],
                           capsys)
    assert code == 0
    bad_ins = files("badin.vec", "0 -inf\n-inf 0\n")
    bad_outs = files("badout.vec", "0\n0\n")
    code, out, _ = run_cli(["check-graph", "--inputs", bad_ins,
                            "--outputs", bad_outs], capsys)
    assert code == 1
    assert "FAIL" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["eval-star", "--x", "/nope.vec", "--y", "/nope.vec"],
                           capsys)
    assert code == 2
    assert "error" in err


def test_parse_error_exits_2(files, capsys):
    x = files("x.vec", "1 oops 3\n")
    code, _, err = run_cli(["eval-star", "--x", x, "--y", x], capsys)
    assert code == 2
    assert "line 1" in err


def test_unknown_verb_exits_2():
    result = subprocess.run([sys.executable, "-m", "maxplus.cli", "frobnicate"],
                            capture_output=True, text=True)
    assert result.returncode == 2


@pytest.mark.parametrize("verb", ["check-alinear", "selftest"])
def test_only_the_sampling_verbs_load_selftest(files, verb):
    x = files("x.vec", "1 -2 +inf\n")
    fn = files("f.fn", "# functional-representer dim=3\n1 -2 +inf\n")
    argv = {"check-alinear": ["check-alinear", "--functional", fn],
            "selftest": ["selftest", "--dim", "2", "--samples", "2"]}[verb]
    code = ("import sys\n"
            "import maxplus.cli\n"
            "assert 'maxplus.selftest' not in sys.modules\n"
            f"assert maxplus.cli.main(['eval-star', '--x', {x!r}, '--y', {x!r}]) == 0\n"
            "assert 'maxplus.selftest' not in sys.modules\n"
            f"assert maxplus.cli.main({argv!r}) == 0\n"
            "assert 'maxplus.selftest' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(mp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == "0" and "PASS" in result.stdout


def test_selftest_scoreboard(capsys):
    code, out, _ = run_cli(["selftest", "--seed", "42", "--samples", "20",
                            "--dim", "3"], capsys)
    assert code == 0
    assert out.strip().splitlines()[-1] == "overall: PASS"


def test_selftest_deterministic(capsys):
    args = ["selftest", "--seed", "42", "--samples", "30"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


# --- fuzzing every verb: no input is an internal error -----------------------

SCALAR_TOKENS = ("-inf", "+inf", "0", "3", "-1", "1/2", "-3/4", "2.5", "-.5", "1e2", "6/2",
                 "-0")
SOUP_TOKENS = SCALAR_TOKENS + ("#", "<", "a", "_top", "inf", "nan", "1/0", "1e5000", "0x1",
                               "elements:", "# labels:", "dim=2", "--x", "\u00e9")
NAMES = ("a", "b", "c", "_top", "_cut1")
# Counts stay at most 4, so no drawn argument asks for a long enumeration.
ARG_TOKENS = SCALAR_TOKENS + ("--values", "--dim", "--seed", "--samples", "--sample",
                              "--semiring", "maxplus", "boolean", "1", "2", "4", "-2", "x")

NONE = st.just([])
# verb -> its file options with the format each reads, and its other arguments for
# files of dim coordinates and count lines
VERBS = {
    "eval-star": ((("--x", "vec"), ("--y", "vec")), lambda dim, count: NONE),
    "recover": ((("--functional", "fn"),), lambda dim, count: NONE),
    "extend": ((("--generators", "vecs"),), lambda dim, count: st.lists(
        st.sampled_from(SCALAR_TOKENS), min_size=count, max_size=count).map(
        lambda values: ["--values", *values, "--dim", str(dim)])),
    "separate": ((("--x", "vec"), ("--y", "vec")), lambda dim, count: NONE),
    "sup-functionals": ((("--functionals", "fn"), ("", "fn")), lambda dim, count: NONE),
    "scalar-product": ((("--f1", "fun"), ("--f2", "fun")), lambda dim, count: NONE),
    "integrate": ((("--phi", "fun"), ("--weight", "fun")), lambda dim, count: NONE),
    "prop4": ((("--x", "fun"), ("--y", "fun")), lambda dim, count: NONE),
    "dm-complete": ((("--poset", "pos"),), lambda dim, count: NONE),
    "b-complete": ((("--poset", "pos"),), lambda dim, count: NONE),
    "check-axioms": ((), lambda dim, count: st.builds(
        lambda ring, sample: ["--semiring", ring, "--sample", *sample],
        st.sampled_from(["maxplus", "boolean"]),
        st.lists(st.sampled_from(SCALAR_TOKENS), max_size=5))),
    "check-alinear": ((("--functional", "fn"),), lambda dim, count: st.just(["--samples", "3"])),
    "check-graph": ((("--inputs", "vecs"), ("--outputs", "vecs")), lambda dim, count: NONE),
    "selftest": ((), lambda dim, count: st.just(["--dim", "2", "--samples", "2"])),
}


@st.composite
def near_valid_file(draw, kind, dim, count):
    """A file of one format over dim coordinates, with one token changed a third of the
    time; one file in six is token soup instead."""
    if draw(st.integers(0, 5)) == 0:
        return "".join(" ".join(draw(st.lists(st.sampled_from(SOUP_TOKENS), max_size=4))) + "\n"
                       for _ in range(draw(st.integers(0, 3))))
    def line():
        return " ".join(draw(st.lists(st.sampled_from(SCALAR_TOKENS), min_size=dim,
                                      max_size=dim)))
    labels = "# labels: " + " ".join(NAMES[:dim]) + "\n"
    if kind in ("vec", "vecs"):
        head = labels if draw(st.booleans()) else ""
        text = head + "".join(line() + "\n" for _ in range(count if kind == "vecs" else 1))
    elif kind == "fun":
        text = labels + line() + "\n"
    elif kind == "fn":
        text = f"# functional-representer dim={dim}\n{line()}\n"
    else:
        names = draw(st.lists(st.sampled_from(NAMES), max_size=4, unique=True))
        covers = draw(st.lists(st.tuples(st.sampled_from(names), st.sampled_from(names)),
                               max_size=3)) if names else []
        text = "elements: " + " ".join(names) + "\n" + "".join(
            f"{u} < {v}\n" for u, v in covers)
    parts = re.split(r"(\s+)", text)
    spot = draw(st.integers(0, 3 * len(parts)))
    if spot < len(parts):  # replace or delete one piece, whitespace included
        parts[spot] = draw(st.sampled_from(SOUP_TOKENS + ("", "\n")))
    return "".join(parts)


def _main_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _assert_reads_back(verb, out):
    lines = out.splitlines()
    if verb in ("eval-star", "scalar-product", "integrate"):
        assert out == mp.format_scalar(mp.parse_scalar(out.strip())) + "\n"
    elif verb in ("recover", "extend", "sup-functionals"):
        assert out == formats.format_functional(formats.parse_functional(out))
    elif verb == "separate":
        formats.parse_functional("\n".join(lines[:2]))
        assert [line[:7] for line in lines[2:]] == ["f(x) = ", "f(y) = "]
        for line in lines[2:]:
            mp.parse_scalar(line[7:])
    elif verb in ("dm-complete", "b-complete"):
        body = "".join(line + "\n" for line in lines if not line.startswith("# embed "))
        poset = formats.parse_poset(body)
        assert formats.format_poset(poset) == body
        for line in lines[body.count("\n"):]:
            assert re.fullmatch(r"# embed \S+ -> (\S+)", line).group(1) in poset.elements
    else:  # check verbs and selftest: exit 0 means every line passed
        assert lines and all(re.fullmatch(r"[\w-]+: PASS( \(.*\))?", line) for line in lines)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(VERBS)), st.integers(1, 3), st.integers(1, 3),
       st.lists(st.sampled_from(ARG_TOKENS), max_size=2), st.data())
def test_fuzzed_cli_never_fails_internally(verb, dim, count, extra, data):
    files, rest = VERBS[verb]
    argv = [verb]
    with tempfile.TemporaryDirectory() as d:
        for i, (option, kind) in enumerate(files):
            path = os.path.join(d, f"in{i}")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data.draw(near_valid_file(kind, dim, count)))
            argv += [option, path] if option else [path]
        argv += data.draw(rest(dim, count)) + extra[:data.draw(st.integers(0, 3)) // 2]
        code, out, err = _main_in_process(argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 0:
        _assert_reads_back(verb, out)
