"""Layered benchmark for maxplus.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload dense-residuation --seed 1 --seconds 20 --trace 0

One process runs the workload with one client in a closed loop, checks every
output, prints each metric by name with its unit, and ends with one JSON line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds, reports the per-layer metrics from the spans and
writes the spans to ``benchmarks/out/``.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

IMPORT_REPEATS = 5      # fresh interpreters timed per start-up metric
IMPORT_BEFORE = 3       # fresh imports timed for set-up before the loop
IMPORT_EVERY_S = 1.0    # and one more after each further second of the loop
BUILD_REPEATS = 5       # library set-ups timed per run
SPAWN_REFERENCE_S = 0.07  # a bare interpreter's start on the baseline host

CLI_VERBS = ("eval-star", "extend", "recover", "sup-functionals", "scalar-product",
             "dm-complete", "check-graph", "selftest")

END_TO_END = (("ops_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_tail_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# metric -> (span name, unit, scale) for the mean time per library call
PER_CALL = {
    "scalars.s_add.ns_per_call": ("scalars.s_add", "ns", 1e9),
    "scalars.s_mul.ns_per_call": ("scalars.s_mul", "ns", 1e9),
    "scalars.big_sup.us_per_call": ("scalars.big_sup", "us", 1e6),
    "scalars.parse_scalar.us_per_call": ("scalars.parse_scalar", "us", 1e6),
    "scalars.format_scalar.us_per_call": ("scalars.format_scalar", "us", 1e6),
    "semimodules.v_add.us_per_call": ("semimodules.v_add", "us", 1e6),
    "semimodules.v_scale.us_per_call": ("semimodules.v_scale", "us", 1e6),
    "semimodules.v_inf.us_per_call": ("semimodules.v_inf", "us", 1e6),
    "semimodules.project_onto_span.us_per_call": ("semimodules.project_onto_span", "us", 1e6),
    "functionals.star_eval.us_per_call": ("functionals.star_eval", "us", 1e6),
    "functionals.recover_representer.ms_per_call": ("functionals.recover_representer", "ms", 1e3),
    "functionals.extend_functional.us_per_call": ("functionals.extend_functional", "us", 1e6),
    "functionals.pointwise_sup.us_per_call": ("functionals.pointwise_sup", "us", 1e6),
    "functionals.check_a_linear.ms_per_call": ("functionals.check_a_linear", "ms", 1e3),
    "functionals.graph_sup_closed.ms_per_call": ("functionals.graph_sup_closed", "ms", 1e3),
    "semialgebra.scalar_product.us_per_call": ("semialgebra.scalar_product", "us", 1e6),
    "semialgebra.check_prop4.us_per_call": ("semialgebra.check_prop4", "us", 1e6),
    "order.from_pairs.ms_per_call": ("order.from_pairs", "ms", 1e3),
    "order.dm_completion.ms_per_call": ("order.dm_completion", "ms", 1e3),
    "order.b_completion.ms_per_call": ("order.b_completion", "ms", 1e3),
}

# ratios computed from the inputs and outputs rather than timed
COMPUTED = (("scalars.nonint_share", "share"),
            ("semimodules.project_onto_span.member_ratio", "share"),
            ("functionals.star_eval.full_scan_ratio", "share"),
            ("functionals.graph_sup_closed.subsets_per_call", "count"),
            ("order.dm_completion.cuts_per_subset", "share"))


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units: Dict[str, str] = {}
    for layer in harness.LAYERS:
        units.update({f"{layer}.busy_s": "s", f"{layer}.calls": "count",
                      f"{layer}.share": "share"})
    units.update({m: unit for m, (_, unit, _) in PER_CALL.items()})
    units.update({"semimodules.coords_per_s": "1/s", "formats.parse.MB_per_s": "MB/s",
                  "formats.format.MB_per_s": "MB/s", "cli.interpreter_start_ms": "ms",
                  "cli.import_ms": "ms"})
    units.update({f"cli.{verb}.p50_ms": "ms" for verb in CLI_VERBS})
    units.update(dict(COMPUTED))
    return units


@dataclass
class Context:
    """What the workloads need from the environment of this run."""

    python: str
    child_env: Dict[str, str]
    scratch: Path


def spawn_seconds(ctx: Context, code: str) -> float:
    # The child's stdout is a pipe so that the wait ends when the pipe
    # closes: waiting on the process itself with a timeout polls it at
    # intervals of up to 50 ms, which rounds a spawn's time up to the next poll.
    start = perf_counter()
    subprocess.run([ctx.python, "-c", code], env=ctx.child_env, check=True,
                   stdout=subprocess.PIPE, timeout=60)
    return perf_counter() - start


def spawn_probe(ctx: Context) -> harness.HostProbe:
    """Starting a bare interpreter: the part of every CLI operation that is not maxplus."""
    return harness.HostProbe(lambda: spawn_seconds(ctx, "pass"), SPAWN_REFERENCE_S)


def median_spawn(ctx: Context, code: str) -> float:
    return statistics.median(spawn_seconds(ctx, code) for _ in range(IMPORT_REPEATS))


class ImportTimer:
    """Times fresh interpreters importing maxplus, spread through the run.

    A busy neighbour on a shared host slows a whole spawn by tens of
    milliseconds, for stretches of seconds to minutes.  So each import is
    paired with a bare interpreter started just before it, the spawn probe,
    and its time is divided by that probe's factor.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.times: List[float] = []
        self.last = perf_counter()

    def spawn(self) -> None:
        factor = spawn_seconds(self.ctx, "pass") / SPAWN_REFERENCE_S
        self.times.append(spawn_seconds(self.ctx, "import maxplus") / factor)
        self.last = perf_counter()

    def idle(self) -> None:
        if perf_counter() - self.last >= IMPORT_EVERY_S:
            self.spawn()


def layer_metrics(stats: dict, wall: float, computed: dict, cli_start: dict) -> dict:
    busy, calls, total = stats["busy"], stats["layer_calls"], stats["total"]
    ncalls, sizes, durations = stats["ncalls"], stats["sizes"], stats["durations"]
    m: Dict[str, float] = {}
    for layer in harness.LAYERS:
        m[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.share"] = busy.get(layer, 0.0) / wall
    for metric, (span, _, scale) in PER_CALL.items():
        n = ncalls.get(span, 0)
        m[metric] = total[span] / n * scale if n else 0.0
    coords = sum(v for k, v in sizes.items() if k.startswith("semimodules."))
    m["semimodules.coords_per_s"] = coords / busy["semimodules"] if coords else 0.0
    for kind in ("parse", "format"):
        names = [k for k in total if k.startswith(f"formats.{kind}")]
        nbytes = sum(sizes[k] for k in names)
        seconds = sum(total[k] for k in names)
        m[f"formats.{kind}.MB_per_s"] = nbytes / seconds / 1e6 if seconds else 0.0
    m["cli.interpreter_start_ms"] = cli_start.get("interpreter_start", 0.0) * 1e3
    m["cli.import_ms"] = cli_start.get("import", 0.0) * 1e3
    for verb in CLI_VERBS:
        d = durations.get(f"cli.{verb}")
        m[f"cli.{verb}.p50_ms"] = statistics.median(d) * 1e3 if d else 0.0
    for name, _ in COMPUTED:
        m[name] = computed.get(name, 0.0)
    return m


def write_spans(path: Path, spans: List[tuple]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for idx, (name, op, parent, start, end, calls, size) in enumerate(spans):
            fh.write(json.dumps({"id": idx, "name": name, "op": op, "parent": parent,
                                 "start": start, "end": end, "calls": calls,
                                 "size": size}) + "\n")


def main(argv: Optional[List[str]] = None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-residuation", "rational-io", "subset-enumeration", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "maxplus" / "__init__.py").is_file():
        print(f"error: no maxplus sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import maxplus
    if Path(maxplus.__file__).resolve().parent != SRC / "maxplus":
        print(f"error: imported maxplus from {maxplus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    ctx = Context(sys.executable, child_env, OUT / f"cli-{os.getpid()}")
    wl = WORKLOADS[args.workload](args.seed, ctx, tiny)
    digest = hashlib.sha256(json.dumps(wl.raw, sort_keys=True, separators=(",", ":"))
                            .encode()).hexdigest()
    ctx.scratch.mkdir(parents=True, exist_ok=True)
    try:
        # set-up: a fresh interpreter importing maxplus, then the library set-up
        imports = ImportTimer(ctx)
        for _ in range(IMPORT_BEFORE):
            imports.spawn()
        builds = []
        for _ in range(BUILD_REPEATS):
            start = perf_counter()
            built = wl.build()
            builds.append(perf_counter() - start)

        tracer = harness.Tracer() if args.trace else None
        plain = wl.make_ops(built, None)
        traced = wl.make_ops(built, tracer) if tracer else None
        host_probe = spawn_probe(ctx) if wl.children else harness.IN_PROCESS_PROBE
        untraced, traced_phase, checker = harness.measure(plain, traced, tracer, args.seconds,
                                                          imports.idle, host_probe)
        import_s, build_s = statistics.median(imports.times), min(builds)
        setup_s = import_s + build_s
        computed = wl.computed(checker.first)
        cli_start = {}
        if args.trace and wl.children:
            cli_start["interpreter_start"] = median_spawn(ctx, "pass")
            cli_start["import"] = median_spawn(ctx, "import maxplus.cli") - \
                cli_start["interpreter_start"]
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if wl.children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    factor = untraced.host_factor()
    lat = sorted(untraced.typical(factor))
    tail_p, tail_v = harness.tail(lat)
    ops_per_s = untraced.ops_per_s(factor)
    fail_ratio = checker.failed / checker.attempted

    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  "
          f"seconds: {args.seconds:g}")
    print(f"inputs: sha256={digest} {json.dumps(wl.properties, sort_keys=True)}")
    print(f"load: one client, closed loop, {len(plain)} operations per round, "
          f"{len(untraced.walls)} untraced rounds"
          + (f", {len(traced_phase.walls)} traced rounds" if traced_phase else ""))
    reference_ms = host_probe.reference_s * 1e3
    print(f"host: {'spawn' if wl.children else 'in-process'} probe mean "
          f"{factor * reference_ms:.4f} ms over {len(untraced.probes)} probes, "
          f"{factor:.4f} x the reference {reference_ms:g} ms; latencies below are divided "
          f"by that factor (unadjusted: ops_per_s {ops_per_s / factor:.6g}, "
          f"latency_p50_ms {harness.percentile(lat, 50) * factor * 1e3:.6g})")
    e2e = {
        "ops_per_s": (ops_per_s, "1/s",
                      f"{len(plain)} operations / sum of their typical latencies over "
                      f"{len(untraced.walls)} rounds"),
        "latency_p50_ms": (harness.percentile(lat, 50) * 1e3, "ms",
                           f"median of {len(lat)} operations' typical latencies"),
        "latency_tail_ms": (tail_v * 1e3, "ms",
                            f"p{tail_p:.4g} of {len(lat)} operations' typical latencies, "
                            f"{len(lat) - math.ceil(len(lat) * tail_p / 100)} beyond"),
        "fail_ratio": (fail_ratio, "ratio",
                       f"{checker.failed} failed of {checker.attempted} attempted"),
        "setup_s": (setup_s, "s", f"median adjusted fresh import {import_s:.4f} s of "
                    f"{len(imports.times)} + fastest library set-up "
                    f"{build_s:.4f} s of {BUILD_REPEATS}"),
        "peak_rss_mb": (peak_rss_mb, "MB",
                        "largest child process" if wl.children else "this process"),
    }
    for name, (value, unit, note) in e2e.items():
        print(f"{name:<16} {value:.6g} {unit}  ({note})")
    for name, value in computed.items():
        print(f"{name} = {value:.6g}  (computed from inputs and outputs)")

    if args.trace:
        stats = harness.span_stats(tracer.spans)
        wall = sum(traced_phase.walls)
        metrics = layer_metrics(stats, wall, computed, cli_start)
        units = per_layer_units()
        traced_ops = traced_phase.ops_per_s(traced_phase.host_factor())
        print(f"tracing overhead: traced ops_per_s {traced_ops:.6g} vs "
              f"untraced {ops_per_s:.6g} (ratio {traced_ops / ops_per_s:.4f})")
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_path, tracer.spans)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        for name, value in metrics.items():
            print(f"{name:<45} {value:.6g} {units[name]}")
        result = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    else:
        result = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END}

    # The host figures go on their own line: the result line's keys are fixed.
    print("host " + json.dumps({
        "host_factor": factor,
        "ops_per_s_unadjusted": ops_per_s / factor,
        "latency_p50_ms_unadjusted": harness.percentile(lat, 50) * factor * 1e3}))
    print(json.dumps({"correct": checker.failed == 0, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
