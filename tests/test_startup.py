"""What a fresh process pays for at start-up, and the lazily loaded semiring names."""

import dataclasses
import os
import subprocess
import sys

import pytest

import maxplus as mp
import maxplus.semirings

SEMIRING_NAMES = ("SemiringDescriptor", "boolean_semifield", "check_semiring_axioms",
                  "extended_maxplus", "maxplus_semifield")


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


@pytest.mark.parametrize("args, loads_dataclasses", [
    (["-c", "import maxplus"], False),
    (["-m", "maxplus.cli", "eval-star", "--x", "x.vec", "--y", "x.vec"], False),
    (["-m", "maxplus.cli", "check-axioms", "--semiring", "boolean"], True),
], ids=["import", "eval-star", "check-axioms"])
def test_only_the_axiom_checks_load_dataclasses(tmp_path, args, loads_dataclasses):
    (tmp_path / "x.vec").write_text("1 -2 +inf\n")
    modules = imported_modules(args, tmp_path)
    assert "maxplus" in modules
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
