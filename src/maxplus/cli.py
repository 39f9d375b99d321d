"""Command-line front end.

Exit codes: 0 for values and passing checks, 1 for a property violation,
2 for usage, file, or parse errors, 3 for an internal error (a fault in this
program, reported as "internal error: <type>: <message>" after its traceback).

Each verb imports the modules it runs, so a process loads only those.
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import List, Optional

from . import formats
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
    except OSError as exc:
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="maxplus",
        description="Exact max-plus linear algebra: functionals, completions, law checks.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("eval-star", help="evaluate the dual functional of x at y")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(run=cmd_eval_star)

    p = sub.add_parser("recover", help="recover a representer from a functional oracle")
    p.add_argument("--functional", required=True)
    p.set_defaults(run=cmd_recover)

    p = sub.add_parser("extend", help="extend a functional prescribed on span generators")
    p.add_argument("--generators", required=True)
    p.add_argument("--values", required=True, nargs="+")
    p.add_argument("--dim", required=True, type=positive_int)
    p.set_defaults(run=cmd_extend)

    p = sub.add_parser("separate", help="separating functional for two distinct points")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(run=cmd_separate)

    p = sub.add_parser("sup-functionals", help="pointwise supremum of functionals")
    p.add_argument("--functionals", required=True, nargs="+")
    p.set_defaults(run=cmd_sup_functionals)

    p = sub.add_parser("scalar-product", help="canonical scalar product of two functions")
    p.add_argument("--f1", required=True)
    p.add_argument("--f2", required=True)
    p.set_defaults(run=cmd_scalar_product)

    p = sub.add_parser("integrate", help="idempotent integral of a function")
    p.add_argument("--phi", required=True)
    p.add_argument("--weight")
    p.set_defaults(run=cmd_integrate)

    p = sub.add_parser("prop4", help="check the dual-evaluation product identity")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.set_defaults(run=cmd_prop4)

    p = sub.add_parser("dm-complete", help="normal completion by cuts")
    p.add_argument("--poset", required=True)
    p.set_defaults(run=cmd_complete)

    p = sub.add_parser("b-complete", help="bounded completion")
    p.add_argument("--poset", required=True)
    p.set_defaults(run=cmd_complete)

    p = sub.add_parser("check-axioms", help="semiring axiom suite")
    p.add_argument("--semiring", choices=["boolean", "maxplus"], required=True)
    p.add_argument("--sample", nargs="*", default=["-inf", "-1", "0", "2", "+inf"])
    p.set_defaults(run=cmd_check_axioms)

    p = sub.add_parser("check-alinear", help="sup-preservation check for a functional")
    p.add_argument("--functional", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=positive_int, default=6)
    p.set_defaults(run=cmd_check_alinear)

    p = sub.add_parser("check-graph", help="sup-closure check for a sampled graph")
    p.add_argument("--inputs", required=True)
    p.add_argument("--outputs", required=True)
    p.set_defaults(run=cmd_check_graph)

    p = sub.add_parser("selftest", help="run every theorem suite and print a scoreboard")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--dim", type=positive_int, default=5)
    p.add_argument("--samples", type=positive_int, default=200)
    p.set_defaults(run=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
