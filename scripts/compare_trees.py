"""Compare the selftest scoreboard and the CLI of two source trees, byte for byte.

Usage::

    git archive <rev> src | tar -x -C /tmp/base    # the tree to compare against
    python3 scripts/compare_trees.py /tmp/base/src src

Three comparisons, each run in fresh interpreters with PYTHONPATH set to one tree:

1. ``run_selftest(seed, dim, samples)`` on every seed x dim x samples of the grid below.
2. The same run under injected faults: library names are replaced on
   ``maxplus.selftest``, ``maxplus.semialgebra``, ``maxplus.semimodules`` and
   ``maxplus.order`` identically in both trees, and rebound in every other
   ``maxplus`` module that held the replaced object, so a fault reaches a
   call site whatever its import style.  Every suite must print at least one
   FAIL line somewhere, so each failure path is compared too.
3. ``python -m maxplus.cli`` on a fixed command set: stdout, stderr and exit
   code.

Faults and commands named in INTENDED must differ; any other difference is
reported.

Exit status 0 when everything matches as stated, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile

SEEDS = (0, 1, 7, 42, 99, 12345)
DIMS = (1, 2, 5, 8)
SAMPLES = (1, 3, 20, 200)
FAULT_CONFIGS = ((42, 5, 200), (1, 2, 20), (7, 8, 3))

SUITES = ("semiring-axioms", "b-space-axioms", "dm-completion", "theorem-1-round-trip",
          "theorem-1-a-linearity", "theorem-2-extension", "theorem-2-separation",
          "proposition-2", "proposition-3", "proposition-4", "theorem-3")

# Faults and commands whose output is meant to change against the tree compared to,
# each listed with the reason; empty when the two trees must agree everywhere.
INTENDED = set()

# Each fault is Python source run in the child before the selftest; it may
# refer to the modules st (selftest), sa (semialgebra), sm (semimodules), od (order).
# Every maxplus module that bound a name the fault replaces gets the replacement too.
FAULTS = {
    "boolean-add-is-and": "import dataclasses; _b = st.boolean_semifield; "
                          "st.boolean_semifield = lambda: dataclasses.replace(_b(), add=lambda a, b: a and b)",
    "scale-by-top-is-zero": "_vs = sm.v_scale; "
                            "sm.v_scale = lambda k, x: _vs(sm.BOTTOM if k.is_top() else k, x)",
    "completion-ignores-order": "_dm = od.dm_completion; "
                                "od.dm_completion = lambda s: _dm(od.FiniteIS.antichain(list(s.elements)))",
    "completion-reversed": "_dm = od.dm_completion\n"
                           "def _rev(s):\n"
                           "    r = _dm(s)\n"
                           "    flip = frozenset((j, i) for i, j in r.completed.relation)\n"
                           "    return od.CompletionResult(od.FiniteIS(r.completed.elements, flip), "
                           "r.embedding)\n"
                           "od.dm_completion = _rev",
    "recover-reversed": "_r = st.recover_representer; "
                        "st.recover_representer = lambda f, d: sm.FinVector(_r(f, d).coords[::-1])",
    "star-eval-shifted": "_s = st.star_eval; "
                         "st.star_eval = lambda x, y: _s(x, y) if len(x.coords) < 3 else _s(y, x)",
    "alinear-map-doubled": "_c = st.check_a_linear; from maxplus.scalars import s_mul; "
                           "st.check_a_linear = lambda f, t, s: _c(lambda v: s_mul(f(v), f(v)), t, s)",
    "extend-accepts-anything": "_e = st.extend_functional\n"
                               "def _ext(b, v, d):\n"
                               "    try:\n"
                               "        return _e(b, v, d)\n"
                               "    except st.InconsistentValuesError:\n"
                               "        return st.FunctionalRep(sm.top_vector(d))\n"
                               "st.extend_functional = _ext",
    "extend-constant": "st.extend_functional = lambda b, v, d: st.FunctionalRep(sm.vector([0] * d))",
    "separate-constant": "st.separate_points = lambda x, y: st.FunctionalRep(sm.vector([0] * x.dim))",
    "sup-is-first": "st.pointwise_sup = lambda fs: fs[0]",
    "closure-adds-nothing": "sm.v_add = lambda a, b: a",
    "graph-check-always-passes": "from maxplus.report import CheckReport; "
                                 "st.graph_sup_closed = lambda g: CheckReport()",
    "prop4-inverse-is-identity": "sa.alg_inverse = lambda a: a",
    "riesz-shifted": "_rz = sa.riesz_representer; from maxplus.scalars import s_mul, finite; "
                     "sa.riesz_representer = lambda f, labels: sa.AlgebraElement(sm.FinVector("
                     "tuple(s_mul(c, finite(1)) for c in _rz(f, labels).vec.coords), tuple(labels)))",
    "scalar-product-skewed": "_sp = sa.scalar_product; _calls = [0]\n"
                             "def _skew(a, b):\n"
                             "    _calls[0] += 1\n"
                             "    return _sp(a, b) if _calls[0] % 7 else _sp(b, b)\n"
                             "sa.scalar_product = _skew",
}

_CHILD = """
import json, sys
import maxplus.selftest as st, maxplus.semialgebra as sa, maxplus.semimodules as sm
import maxplus.order as od
mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "maxplus"]
before = {m: dict(vars(m)) for m in mods}
exec(sys.argv[1])
# Collect every replacement before rebinding any, so one rebinding cannot be read as another.
swaps = [(before[m][k], v) for m in mods for k, v in vars(m).items()
         if k in before[m] and v is not before[m][k]]
for old, new in swaps:
    for m in mods:
        for k, v in list(vars(m).items()):
            if v is old:
                setattr(m, k, new)
out = []
for seed, dim, samples in json.loads(sys.argv[2]):
    try:
        out.append(list(st.run_selftest(seed, dim, samples)))
    except Exception as exc:
        out.append(f"raised {type(exc).__name__}: {exc}")
print(json.dumps(out))
"""


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=os.path.abspath(src), PYTHONHASHSEED="0")


def _selftest(src: str, patch: str, configs) -> list:
    proc = subprocess.run([sys.executable, "-c", _CHILD, patch, json.dumps(configs)],
                          env=_env(src), capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def compare_selftest(old: str, new: str) -> bool:
    ok = True
    grid = [(s, d, n) for s in SEEDS for d in DIMS for n in SAMPLES]
    a, b = _selftest(old, "", grid), _selftest(new, "", grid)
    bad = [cfg for cfg, x, y in zip(grid, a, b) if x != y]
    print(f"selftest grid: {len(grid) - len(bad)}/{len(grid)} configurations identical")
    ok &= not bad
    failing = set()
    for name, patch in FAULTS.items():
        a, b = _selftest(old, patch, FAULT_CONFIGS), _selftest(new, patch, FAULT_CONFIGS)
        for result in b:
            if isinstance(result, list):
                failing.update(line.split(":")[0] for line in result[0] if ": FAIL (" in line)
        same = a == b
        if name in INTENDED:
            ok &= not same
            print(f"fault {name}: " + ("EXPECTED A DIFFERENCE, found none" if same
                                       else f"intended difference; new: {b[0]}"))
            continue
        ok &= same
        print(f"fault {name}: {'identical' if same else 'DIFFERS'}")
        if not same:
            for x, y in zip(a, b):
                if x != y:
                    print(f"  old: {x}\n  new: {y}")
    missing = [s for s in SUITES if s not in failing]
    print(f"suites with a FAIL line under some fault: {len(SUITES) - len(missing)}/{len(SUITES)}"
          + (f"; missing {missing}" if missing else ""))
    return ok and not missing


# --- CLI ----------------------------------------------------------------------

_FAULT_MAIN = ("import sys, maxplus.order as od; od.FiniteIS.is_complete_lattice = "
               "lambda self: False; from maxplus.cli import main; sys.exit(main(sys.argv[1:]))")


def _write_inputs(d: str, new_src: str) -> list:
    """Write the input files into d; return (name, argv, injected) triples."""
    sys.path.insert(0, os.path.abspath(new_src))
    from maxplus import formats, order, selftest
    from maxplus.report import MAX_SUBSET_ITEMS

    def w(name, text):
        with open(os.path.join(d, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return os.path.join(d, name)

    cmds = []

    def add(name, *argv, injected=False):
        cmds.append((name, list(argv), injected))

    x, y = w("x.vec", "0 -1 2\n"), w("y.vec", "1 1 1\n")
    add("eval-star", "eval-star", "--x", x, "--y", y)
    add("eval-star-labels", "eval-star", "--x", w("xa.vec", "# labels: a b\n1 2\n"),
        "--y", w("yb.vec", "# labels: b a\n3 4\n"))
    add("eval-star-1e5000", "eval-star", "--x", x, "--y", w("big.vec", "1e5000\n"))
    add("eval-star-unprintable", "eval-star", "--x", w("n.vec", "-9" + "0" * 4299 + "\n"),
        "--y", w("p.vec", "9" + "0" * 4299 + "\n"))
    add("eval-star-missing", "eval-star", "--x", os.path.join(d, "nope.vec"), "--y", x)
    add("eval-star-parse-error", "eval-star", "--x", w("bad.vec", "1 oops 3\n"), "--y", x)
    add("eval-star-arabic-digit", "eval-star", "--x", x, "--y", w("arabic.vec", "1 \u0663 2\n"))
    f = w("f.fn", "# functional-representer dim=3\n1 -2 +inf\n")
    add("recover", "recover", "--functional", f)
    add("recover-zero", "recover", "--functional",
        w("z.fn", "# functional-representer dim=2\n+inf +inf\n"))
    gens = w("g.vec", "0 1 2\n-inf 0 +inf\n")
    add("extend", "extend", "--generators", gens, "--values", "0", "1", "--dim", "3")
    add("extend-values-underscore", "extend", "--generators", gens, "--values", "1_000", "1",
        "--dim", "3")
    add("extend-inconsistent", "extend", "--generators", gens, "--values", "0", "-1/2",
        "--dim", "3")
    add("extend-mixed-dims", "extend", "--generators", w("mixed.vec", "0 1\n0\n"),
        "--values", "0", "0", "--dim", "2")
    zero_gen = w("zg.vec", "0 1\n-inf -inf\n")
    for name, values in (("", ("0", "-inf")), ("-nonzero-value", ("0", "5")),
                         ("-too-few-values", ("5",))):
        add(f"extend-zero-generator{name}", "extend", "--generators", zero_gen,
            "--values", *values, "--dim", "2")
    add("separate", "separate", "--x", x, "--y", y)
    ab_vec = w("ab.vec", "# labels: a b\n1 2\n")
    add("separate-labels", "separate", "--x", ab_vec, "--y", w("ba.vec", "# labels: b a\n1 2\n"))
    add("separate-labels-coords", "separate", "--x", ab_vec,
        "--y", w("ba2.vec", "# labels: b a\n2 1\n"))
    add("sup-functionals", "sup-functionals", "--functionals", f,
        w("f2.fn", "# functional-representer dim=3\n0 5 -1/2\n"))
    ab, ba = w("ab.fun", "# labels: a b\n1 2\n"), w("ba.fun", "# labels: b a\n3 -1\n")
    abc = w("abc.fun", "# labels: a b c\n1 2 3\n")
    ab2 = w("ab2.fun", "# labels: a b\n3 -1\n")
    for verb, fa, fb in (("scalar-product", "--f1", "--f2"), ("integrate", "--phi", "--weight"),
                         ("prop4", "--x", "--y")):
        add(verb, verb, fa, ab, fb, ab2)
        add(f"{verb}-labels", verb, fa, ab, fb, ba)
        add(f"{verb}-dims", verb, fa, ab, fb, abc)
    add("integrate-unit", "integrate", "--phi", ab)
    small = [order.FiniteIS.antichain([f"e{i}" for i in range(12)]),
             order.FiniteIS.chain([f"c{i}" for i in range(12)])] + selftest.all_small_posets(4)
    posets = [(str(i), s) for i, s in enumerate(small)]
    posets.append(("antichain-13", order.FiniteIS.antichain([f"e{i}" for i in range(13)])))
    for k in (8, 9):   # the 2k-element crown a_i < b_j (i != j) has 2^k cuts
        a, b = [f"a{i}" for i in range(k)], [f"b{j}" for j in range(k)]
        posets.append((f"crown-{k}", order.FiniteIS.from_pairs(
            a + b, [(a[i], b[j]) for i in range(k) for j in range(k) if i != j])))
    for name, s in posets:
        p = w(f"p{name}.pos", formats.format_poset(s))
        add(f"dm-complete-{name}", "dm-complete", "--poset", p)
        add(f"b-complete-{name}", "b-complete", "--poset", p)
    chain = [f"c{i}" for i in range(257)]
    add("dm-complete-chain-257", "dm-complete", "--poset", w("chain257.pos", "elements: "
        + " ".join(chain) + "\n" + "".join(f"{a} < {b}\n" for a, b in zip(chain, chain[1:]))))
    reserved = w("reserved.pos", "elements: _top a\n")
    add("dm-complete-reserved-label", "dm-complete", "--poset", reserved)
    add("b-complete-reserved-label", "b-complete", "--poset", reserved)
    add("dm-complete-internal-fault", "dm-complete", "--poset", os.path.join(d, "p2.pos"),
        injected=True)
    add("check-axioms-boolean", "check-axioms", "--semiring", "boolean")
    add("check-axioms-maxplus", "check-axioms", "--semiring", "maxplus")
    add("check-axioms-sample", "check-axioms", "--semiring", "maxplus",
        "--sample", "-inf", "-1/2", "0", "3", "+inf")
    add("check-axioms-sample-space", "check-axioms", "--semiring", "maxplus",
        "--sample", "-inf", " 3", "+inf")
    for seed, samples in ((0, None), (7, "6"), (3, "1")):
        argv = ["check-alinear", "--functional", f, "--seed", str(seed)]
        add(f"check-alinear-{seed}", *argv, *(["--samples", samples] if samples else []))
    for name, n in (("at", MAX_SUBSET_ITEMS), ("past", MAX_SUBSET_ITEMS + 1)):
        add(f"check-axioms-{name}-bound", "check-axioms", "--semiring", "maxplus",
            "--sample", "-inf", "+inf", *(str(v) for v in range(n - 2)))
        add(f"check-alinear-{name}-bound", "check-alinear", "--functional", f,
            "--samples", str(n))
    add("check-alinear-samples-zero", "check-alinear", "--functional", f, "--samples", "0")
    add("check-alinear-samples-negative", "check-alinear", "--functional", f,
        "--samples", "-1")
    for n in (12, 20):
        ins = w(f"in{n}.vec", "".join(f"{i} {i}\n" for i in range(n)))
        add(f"check-graph-pass-{n}", "check-graph", "--inputs", ins,
            "--outputs", w(f"out{n}.vec", "".join(f"{i}\n" for i in range(n))))
        add(f"check-graph-disagree-{n}", "check-graph", "--inputs", ins, "--outputs",
            w(f"dis{n}.vec", "".join(f"{-5 if i == n // 2 else i}\n" for i in range(n))))
        add(f"check-graph-absent-{n}", "check-graph",
            "--inputs", w(f"anti{n}.vec", "".join(f"{i} {-i}\n" for i in range(n))),
            "--outputs", w(f"zero{n}.vec", "0\n" * n))
    add("selftest", "selftest")
    add("selftest-7", "selftest", "--seed", "7", "--dim", "6", "--samples", "300")
    add("selftest-small", "selftest", "--seed", "3", "--dim", "1", "--samples", "1")
    add("selftest-samples-negative", "selftest", "--samples", "-5")
    add("selftest-dim-zero", "selftest", "--dim", "0")
    add("unknown-verb", "frobnicate")
    return cmds


def _run_cli(src: str, argv: list, injected: bool) -> tuple:
    head = ["-c", _FAULT_MAIN] if injected else ["-m", "maxplus.cli"]
    proc = subprocess.run([sys.executable, *head, *argv], env=_env(src),
                          capture_output=True, text=True)
    # a traceback names the tree it ran from, and its line numbers move with any
    # edit above them; the frames' functions, source lines and the message are compared
    err = proc.stderr.replace(os.path.abspath(src), "<src>")
    return proc.returncode, proc.stdout, re.sub(r'(File "<src>/[^"]*", line )\d+', r"\1N", err)


def compare_cli(old: str, new: str) -> bool:
    ok = True
    with tempfile.TemporaryDirectory() as d:
        cmds = _write_inputs(d, new)
        differing = set()
        for name, argv, injected in cmds:
            a, b = _run_cli(old, argv, injected), _run_cli(new, argv, injected)
            if a != b:
                differing.add(name)
                if name in INTENDED:
                    print(f"intended {name}: exit {a[0]} -> {b[0]}; "
                          f"stderr {a[2].strip().splitlines()[-1:]} -> "
                          f"{b[2].strip().splitlines()[-1:]}")
                else:
                    print(f"UNINTENDED {name}:\n  old: {a}\n  new: {b}")
                    ok = False
        for name in sorted(INTENDED.intersection(c[0] for c in cmds) - differing):
            print(f"EXPECTED A DIFFERENCE in {name}, found none")
            ok = False
        print(f"cli: {len(cmds) - len(differing)}/{len(cmds)} commands identical, "
              f"{len(differing & INTENDED)} intended differences")
    return ok


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = sys.argv[1:]
    ok = compare_selftest(old, new)
    ok = compare_cli(old, new) and ok
    print("overall:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
