"""What a fresh process pays for at start-up, and the lazily loaded package names."""

import dataclasses
import os
import subprocess
import sys

import pytest

import maxplus as mp
import maxplus.semirings

SEMIRING_NAMES = ("SemiringDescriptor", "boolean_semifield", "check_semiring_axioms",
                  "extended_maxplus", "maxplus_semifield")
# The names the package exported when its __init__ imported every core module.
EXPORTS = [
    "AlgebraElement", "BOTTOM", "CheckEntry", "CheckReport", "CompletionResult",
    "DimensionMismatchError", "EqualPointsError", "ExtendedScalar", "FinVector", "FiniteIS",
    "FunctionalRep", "InconsistentValuesError", "LinearMapSample", "NotInvertibleError",
    "NotRepresentableError", "ONE", "OutsideProperSpaceWarning", "PosetError", "SpanBasis",
    "TOP", "ZERO", "ZeroFunctionalError", "alg_inverse", "alg_mul", "b_completion", "big_inf",
    "big_sup", "check_a_linear", "check_b_space_axioms", "check_prop4", "dm_completion",
    "element", "extend_functional", "finite", "format_scalar", "functionals",
    "graph_sup_closed", "idempotent_integral", "leq", "one_star", "order", "parse_scalar",
    "point_mass", "pointwise_sup", "project_onto_span", "recover_representer", "report",
    "riesz_representer", "s_add", "s_conj", "s_div", "s_div_dual", "s_inv", "s_mul",
    "scalar_product", "scalars", "semialgebra", "semimodules", "separate_points",
    "standard_order", "star_eval", "top_vector", "unit_element", "unit_vector", "v_add",
    "v_inf", "v_leq", "v_scale", "v_sup", "vector", "zero_element", "zero_vector",
    *SEMIRING_NAMES]


def run_fresh(args, cwd):
    """Run a fresh interpreter on args without site (-S), whose .pth files may import anything."""
    src = os.path.dirname(os.path.dirname(mp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    result = subprocess.run([sys.executable, "-S", *args],
                            capture_output=True, text=True, env=env, cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result


def imported_modules(args, cwd):
    """Names of the modules a fresh interpreter imports to run args, read from -X importtime."""
    result = run_fresh(["-X", "importtime", *args], cwd)
    return {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
            if line.startswith("import time:")}


FILES = {"x.vec": "1 -2 +inf\n", "h.vec": "1/2 0 2\n", "a.fn": "# labels: a b\n0 1\n",
         "p.poset": "elements: a b c\na < b\n",
         "f.fn": "# functional-representer dim=3\n1 -2 +inf\n"}
FUNCTION_VERB = {"scalars", "report", "semimodules", "functionals", "formats"}
ALL = FUNCTION_VERB | {"semialgebra", "order", "semirings", "selftest"}


@pytest.mark.parametrize("args, maxplus_modules, loads_fractions", [
    (["-c", "import maxplus"], set(), False),
    (["eval-star", "--x", "x.vec", "--y", "x.vec"], FUNCTION_VERB, False),
    (["eval-star", "--x", "h.vec", "--y", "x.vec"], FUNCTION_VERB, True),
    (["scalar-product", "--f1", "a.fn", "--f2", "a.fn"], FUNCTION_VERB | {"semialgebra"}, False),
    (["dm-complete", "--poset", "p.poset"],
     {"scalars", "report", "semimodules", "order", "formats"}, False),
    (["check-axioms", "--semiring", "boolean"],
     {"scalars", "report", "semimodules", "formats", "semirings"}, False),
    (["check-alinear", "--functional", "f.fn"], ALL, False),
], ids=["import", "eval-star", "eval-star-nonint", "scalar-product", "dm-complete",
        "check-axioms", "check-alinear"])
def test_only_the_axiom_checks_load_dataclasses(tmp_path, args, maxplus_modules,
                                                 loads_fractions):
    """Each verb loads only the modules it runs, and fractions only for a non-integer."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    if args[0] != "-c":
        args = ["-m", "maxplus.cli", *args]
    modules = imported_modules(args, tmp_path)
    assert "maxplus" in modules
    assert {m.split(".", 1)[1] for m in modules if m.startswith("maxplus.")} == maxplus_modules
    assert ("fractions" in modules) is loads_fractions
    loads_dataclasses = "semirings" in maxplus_modules
    assert ("dataclasses" in modules) is loads_dataclasses
    if not loads_dataclasses:
        assert "inspect" not in modules


def test_semiring_names_are_exported_from_semirings():
    assert mp.SemiringDescriptor is maxplus.semirings.SemiringDescriptor
    namespace = {}
    exec("from maxplus import *", namespace)
    assert all(namespace[name] is getattr(maxplus.semirings, name) for name in SEMIRING_NAMES)
    d = dataclasses.replace(mp.boolean_semifield(), add=lambda a, b: a and b)
    assert not mp.check_semiring_axioms(d).all_passed
    with pytest.raises(AttributeError, match="^module 'maxplus' has no attribute 'no_such_name'$"):
        mp.no_such_name


def test_first_use_binds_the_names_and_removes_the_hook(tmp_path):
    # CPython specializes maxplus.<name> loads only on a module without __getattr__.
    code = ("import sys\n"
            "import maxplus as mp\n"
            "try:\n"
            "    mp.no_such_name\n"
            "except AttributeError as exc:\n"
            "    message = str(exc)\n"
            "assert message == \"module 'maxplus' has no attribute 'no_such_name'\"\n"
            "assert 'maxplus.semirings' not in sys.modules and '__getattr__' in vars(mp)\n"
            "mp.extended_maxplus\n"
            f"assert all(name in vars(mp) for name in {SEMIRING_NAMES!r})\n"
            "assert '__getattr__' not in vars(mp)\n")
    run_fresh(["-c", code], tmp_path)


def test_all_is_the_names_the_package_exported():
    assert mp.__all__ == EXPORTS
    namespace = {}
    exec("from maxplus import *", namespace)
    assert all(namespace[name] is getattr(mp, name) for name in EXPORTS)


def test_a_submodule_name_loads_that_module_and_any_other_name_the_core(tmp_path):
    code = ("import sys\n"
            "import maxplus as mp\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.startswith('maxplus.'))\n"
            "assert loaded() == []\n"
            "assert mp.order.FiniteIS.chain(['a', 'b']).elements == ('a', 'b')\n"
            "assert loaded() == ['maxplus.order', 'maxplus.report']\n"
            "assert 'dm_completion' not in vars(mp)\n"
            "assert mp.BOTTOM is mp.scalars.BOTTOM\n"
            "assert loaded() == ['maxplus.functionals', 'maxplus.order', 'maxplus.report',\n"
            "                    'maxplus.scalars', 'maxplus.semialgebra', 'maxplus.semimodules']\n"
            f"assert all(name in vars(mp) for name in {EXPORTS!r} if name not in {SEMIRING_NAMES!r})\n"
            "assert '__getattr__' in vars(mp)\n")
    run_fresh(["-c", code], tmp_path)


# Run in a fresh interpreter: the test modules import fractions themselves.
@pytest.mark.parametrize("code", [
    # integral values never load fractions; a Fraction the caller built is still taken
    "from maxplus.scalars import finite, parse_scalar\n"
    "assert [parse_scalar(t).q for t in ('3', '-2.5e1', '1E3')] == [3, -25, 1000]\n"
    "assert 'fractions' not in sys.modules\n"
    "from fractions import Fraction\n"
    "two = finite(Fraction(6, 3))\n"
    "assert type(two.q) is int and two.q == 2\n"
    "assert finite(Fraction(1, 2)).q == Fraction(1, 2)\n",
    # a float is refused as before, with no Fraction yet in the process
    "from maxplus.scalars import finite\n"
    "assert 'fractions' not in sys.modules\n"
    "try:\n"
    "    finite(1.5)\n"
    "except TypeError as exc:\n"
    "    message = str(exc)\n"
    "assert message == 'a finite scalar is an int, a Fraction or a str, not float'\n",
    # a non-integer literal loads it
    "from maxplus.scalars import format_scalar, parse_scalar\n"
    "assert 'fractions' not in sys.modules\n"
    "assert format_scalar(parse_scalar('1/2')) == '1/2'\n"
    "assert type(parse_scalar('-0.25').q).__name__ == 'Fraction'\n"
    "assert 'fractions' in sys.modules\n",
], ids=["integral-and-caller-fraction", "float-refused", "nonint-literal"])
def test_fractions_loads_on_first_need(tmp_path, code):
    run_fresh(["-c", "import sys\n" + code], tmp_path)
