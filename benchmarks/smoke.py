"""Smoke test of the benchmark at tiny sizes; it is not part of the tier-1 suite.

    python3 benchmarks/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, at tiny
sizes and for a fraction of a second, and checks three things: every metric
is printed by name with its unit, fail_ratio is 0, and the traced run wrote
spans for every layer the workload calls (and none for a layer it does not).
Exits with 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

LAYERS_CALLED = {
    "dense-residuation": {"scalars", "semimodules", "functionals", "semialgebra"},
    "rational-io": {"scalars", "semimodules", "functionals", "formats"},
    "subset-enumeration": {"scalars", "semimodules", "functionals", "order"},
    "cli": {"scalars", "formats", "cli"},
}
SEED = 3


def run_tiny(workload: str, trace: int) -> tuple:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                         "--trace", str(trace)], tiny=True)
    lines = buf.getvalue().splitlines()
    return code, lines, json.loads(lines[-1])


def printed(lines, name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2:3] == [unit] for line in lines)


def check_workload(spec: dict, name: str) -> list:
    problems = []
    code, lines, result = run_tiny(name, 0)
    if code != 0 or not result["correct"] or result["failed"]:
        problems.append(f"{name}: exit {code}, {result['failed']} failed operations")
    for m in spec["end_to_end"] + [{"name": "fail_ratio", "unit": "ratio"}]:
        if not printed(lines, m["name"], m["unit"]):
            problems.append(f"{name}: {m['name']} not printed with unit {m['unit']}")
    for m in spec["end_to_end"]:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{name}: {m['name']} missing from the result line")
    fail = next((line for line in lines if line.startswith("fail_ratio ")), "fail_ratio ?")
    if fail.split()[1] != "0":
        problems.append(f"{name}: {fail}")

    code, lines, result = run_tiny(name, 1)
    if code != 0 or not result["correct"]:
        problems.append(f"{name}: traced run exit {code}, correct={result['correct']}")
    for m in spec["per_layer"]:
        if not printed(lines, m["name"], m["unit"]):
            problems.append(f"{name}: {m['name']} not printed with unit {m['unit']}")
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"{name}: {m['name']} missing from the traced result line")
    if not any(line.startswith("tracing overhead:") for line in lines):
        problems.append(f"{name}: tracing overhead not printed")
    spans = run.OUT / f"spans-{name}-seed{SEED}.jsonl"
    with open(spans, encoding="utf-8") as fh:
        layers = {json.loads(line)["name"].split(".", 1)[0] for line in fh}
    if layers != LAYERS_CALLED[name]:
        problems.append(f"{name}: spans cover {sorted(layers)}, "
                        f"expected {sorted(LAYERS_CALLED[name])}")
    for layer in LAYERS_CALLED[name]:
        if not result["metrics"][f"{layer}.calls"]["value"]:
            problems.append(f"{name}: {layer}.calls is 0")
    return problems


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        problems += check_workload(spec, w["name"])
        print(f"{w['name']}: checked", flush=True)
    for p in problems:
        print(f"problem: {p}")
    print("smoke: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
