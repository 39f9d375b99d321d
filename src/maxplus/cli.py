"""Command-line front end.

Exit codes: 0 for values and passing checks, 1 for a property violation,
2 for usage, file, or parse errors, 3 for an internal error (a fault in this
program, reported as "internal error: <type>: <message>" after its traceback).

Each verb imports the modules it runs, so a process loads only those, and main builds
only the argument parser of the verb it runs.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional

from . import formats
from .report import MAX_SUBSET_ITEMS
from .scalars import format_scalar, parse_scalar

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


# -inf and negative literals such as -1/2 or -.5; argparse alone knows only -N and -N.M.
_NEGATIVE_SCALAR = re.compile(r"-(inf|\.?\d.*)")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads negative scalar tokens as values, never as options."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_SCALAR.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _one_vector(path: str):
    vectors = formats.parse_vectors(_read(path))
    if len(vectors) != 1:
        raise UsageError(f"{path}: expected exactly one vector, found {len(vectors)}")
    return vectors[0]


def _one_function(path: str):
    fns = formats.parse_functions(_read(path))
    if len(fns) != 1:
        raise UsageError(f"{path}: expected exactly one function, found {len(fns)}")
    return fns[0]


def _print_report(report) -> int:
    for line in report.lines():
        print(line)
    return EXIT_OK if report.all_passed else EXIT_VIOLATION


def cmd_eval_star(args) -> int:
    from .functionals import FunctionalRep  # each verb loads its own modules
    x = _one_vector(args.x)
    y = _one_vector(args.y)
    print(format_scalar(FunctionalRep(x)(y)))
    return EXIT_OK


def cmd_recover(args) -> int:
    from .functionals import FunctionalRep, recover_representer  # as in cmd_eval_star
    f = formats.parse_functional(_read(args.functional))
    recovered = recover_representer(f, f.dim)
    sys.stdout.write(formats.format_functional(FunctionalRep(recovered)))
    return EXIT_OK


def cmd_extend(args) -> int:
    from .functionals import InconsistentValuesError, extend_functional  # as in cmd_eval_star
    from .semimodules import SpanBasis  # formats has loaded it
    generators = formats.parse_vectors(_read(args.generators))
    values = [parse_scalar(tok) for tok in args.values]
    # Count every line, all -inf ones too: extend_functional checks their values.
    if len(values) != len(generators):
        raise UsageError(f"{len(generators)} generators but {len(values)} values")
    try:
        f = extend_functional(SpanBasis(tuple(generators)), values, args.dim)
    except InconsistentValuesError as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    sys.stdout.write(formats.format_functional(f))
    return EXIT_OK


def cmd_separate(args) -> int:
    from .functionals import separate_points  # as in cmd_eval_star
    x = _one_vector(args.x)
    y = _one_vector(args.y)
    f = separate_points(x, y)
    sys.stdout.write(formats.format_functional(f))
    print(f"f(x) = {format_scalar(f(x))}")
    print(f"f(y) = {format_scalar(f(y))}")
    return EXIT_OK


def cmd_sup_functionals(args) -> int:
    from .functionals import pointwise_sup  # as in cmd_eval_star
    fs = [formats.parse_functional(_read(p)) for p in args.functionals]
    sys.stdout.write(formats.format_functional(pointwise_sup(fs)))
    return EXIT_OK


def cmd_scalar_product(args) -> int:
    from . import semialgebra  # as in cmd_eval_star
    f1 = _one_function(args.f1)
    f2 = _one_function(args.f2)
    print(format_scalar(semialgebra.scalar_product(f1, f2)))
    return EXIT_OK


def cmd_integrate(args) -> int:
    from . import semialgebra  # as in cmd_eval_star
    phi = _one_function(args.phi)
    if args.weight is not None:
        weight = _one_function(args.weight)
    else:
        weight = semialgebra.unit_element(phi.labels)
    print(format_scalar(semialgebra.idempotent_integral(phi, weight)))
    return EXIT_OK


def cmd_prop4(args) -> int:
    from . import semialgebra  # as in cmd_eval_star
    x = _one_function(args.x)
    y = _one_function(args.y)
    return _print_report(semialgebra.check_prop4(x, y))


def cmd_complete(args) -> int:
    from . import order  # as in cmd_eval_star
    s = formats.parse_poset(_read(args.poset))
    # b-complete too: order.b_completion is dm_completion
    result = order.dm_completion(s)
    sys.stdout.write(formats.format_poset(result.completed))
    for src in s.elements:
        print(f"# embed {src} -> {result.embedding[src]}")
    return EXIT_OK


def cmd_check_axioms(args) -> int:
    from . import semirings  # it imports dataclasses, which no other verb but selftest needs
    if args.semiring == "boolean":
        report = semirings.check_semiring_axioms(semirings.boolean_semifield())
    else:
        sample = [parse_scalar(tok) for tok in args.sample]
        if not sample:
            raise UsageError("the extended max-plus carrier needs --sample values")
        report = semirings.check_semiring_axioms(semirings.extended_maxplus(), sample)
    return _print_report(report)


def cmd_check_alinear(args) -> int:
    import random  # only this verb and selftest draw samples; keep both out of start-up
    from . import selftest  # its random_vector and random_scalar; see cmd_selftest
    from .functionals import check_a_linear  # as in cmd_eval_star
    f = formats.parse_functional(_read(args.functional))
    rng = random.Random(args.seed)
    tests = [selftest.random_vector(rng, f.dim) for _ in range(args.samples)]
    scalars = [selftest.random_scalar(rng) for _ in range(10)]
    return _print_report(check_a_linear(f, tests, scalars))


def cmd_check_graph(args) -> int:
    from .functionals import LinearMapSample, graph_sup_closed  # as in cmd_eval_star
    inputs = formats.parse_vectors(_read(args.inputs))
    outputs = formats.parse_vectors(_read(args.outputs))
    if len(inputs) != len(outputs):
        raise UsageError(f"{len(inputs)} inputs but {len(outputs)} outputs")
    sample = LinearMapSample.of(list(zip(inputs, outputs)))
    return _print_report(graph_sup_closed(sample))


def cmd_selftest(args) -> int:
    from . import selftest  # the largest module to compile, and only two verbs use it
    lines, ok = selftest.run_selftest(args.seed, dim=args.dim, samples=args.samples)
    for line in lines:
        print(line)
    print("overall: " + ("PASS" if ok else "FAIL"))
    return EXIT_OK if ok else EXIT_VIOLATION


_REQUIRED = {"required": True}

# verb -> (help, command, ((flag, add_argument keywords), ...)): the one list of verbs.
VERBS = {
    "eval-star": ("evaluate the dual functional of x at y", cmd_eval_star,
                  (("--x", _REQUIRED), ("--y", _REQUIRED))),
    "recover": ("recover a representer from a functional oracle", cmd_recover,
                (("--functional", _REQUIRED),)),
    "extend": ("extend a functional prescribed on span generators", cmd_extend,
               (("--generators", _REQUIRED), ("--values", {"required": True, "nargs": "+"}),
                ("--dim", {"required": True, "type": positive_int}))),
    "separate": ("separating functional for two distinct points", cmd_separate,
                 (("--x", _REQUIRED), ("--y", _REQUIRED))),
    "sup-functionals": ("pointwise supremum of functionals", cmd_sup_functionals,
                        (("--functionals", {"required": True, "nargs": "+"}),)),
    "scalar-product": ("canonical scalar product of two functions", cmd_scalar_product,
                       (("--f1", _REQUIRED), ("--f2", _REQUIRED))),
    "integrate": ("idempotent integral of a function", cmd_integrate,
                  (("--phi", _REQUIRED), ("--weight", {}))),
    "prop4": ("check the dual-evaluation product identity", cmd_prop4,
              (("--x", _REQUIRED), ("--y", _REQUIRED))),
    "dm-complete": ("normal completion by cuts", cmd_complete, (("--poset", _REQUIRED),)),
    "b-complete": ("bounded completion", cmd_complete, (("--poset", _REQUIRED),)),
    "check-axioms": ("semiring axiom suite", cmd_check_axioms,
                     (("--semiring", {"choices": ["boolean", "maxplus"], "required": True}),
                      ("--sample", {"nargs": "*",
                                    "default": ("-inf", "-1", "0", "2", "+inf")}))),
    "check-alinear": ("sup-preservation check for a functional", cmd_check_alinear,
                      (("--functional", _REQUIRED), ("--seed", {"type": int, "default": 0}),
                       ("--samples", {"type": positive_int, "default": 6, "metavar": "SAMPLES",
                                      "choices": range(1, MAX_SUBSET_ITEMS + 1)}))),
    "check-graph": ("sup-closure check for a sampled graph", cmd_check_graph,
                    (("--inputs", _REQUIRED), ("--outputs", _REQUIRED))),
    "selftest": ("run every theorem suite and print a scoreboard", cmd_selftest,
                 (("--seed", {"type": int, "default": 42}),
                  ("--dim", {"type": positive_int, "default": 5}),
                  ("--samples", {"type": positive_int, "default": 200}))),
}


def build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every verb, or of verb alone when it names one."""
    parser = _Parser(
        prog="maxplus",
        description="Exact max-plus linear algebra: functionals, completions, law checks.")
    if verb in VERBS:
        # The usage line still names every verb, as "unrecognized arguments" prints it.
        # Only here: with a metavar, "arguments are required" would name it, not "verb".
        sub = parser.add_subparsers(dest="verb", required=True,
                                    metavar="{" + ",".join(VERBS) + "}")
        verbs = (verb,)
    else:
        sub = parser.add_subparsers(dest="verb", required=True)
        verbs = VERBS
    for name in verbs:
        help_text, run, options = VERBS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(run=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only a leading verb is built alone; help, an option or "--" first builds them all.
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.run(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        import traceback  # only a fault in this program gets here; keep it out of start-up
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
