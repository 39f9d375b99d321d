"""Record repeated benchmark runs, and compare two recordings.

    python3 benchmarks/record.py record --out benchmarks/out/new.json
    python3 benchmarks/record.py compare benchmarks/baseline.json benchmarks/out/new.json

``record`` runs ``benchmarks/run.py`` once per seed on every workload of
BENCHMARK.json (ten seeds from ``--first-seed`` on), plus one traced run per
workload, and stores each end-to-end metric's values, median, quartiles and
spread (the distance between the quartiles as a share of the median) with the
Python version, git commit and ``nproc``.  It stores the host figures each
run prints (the probe's host factor and the unadjusted ``ops_per_s`` and
``latency_p50_ms``) the same way.  ``compare`` prints each metric's ratio of medians, new over
old, one row per workload, and marks a ratio that is worse than the metric's
bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The run's result line and its host figures."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    host = lines[-2]
    if not host.startswith("host "):
        raise SystemExit(f"{' '.join(argv)} printed no host line")
    return json.loads(lines[-1]), json.loads(host[len("host "):])


def git(*args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def summarize(values: List[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def record(args) -> None:
    spec = load_spec()
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"python": platform.python_version(), "git_sha": git("rev-parse", "HEAD"),
              "src_tree": git("rev-parse", "HEAD:src"), "nproc": os.cpu_count(),
              "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs, hosts = zip(*(run_once(name, seed, seconds, 0) for seed in seeds))
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for metric, bound in bounds.items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] < bound / 3 else "  (spread >= bound/3)"
            print(f"{name:<20} {metric:<16} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f} bound {bound}{flag}", flush=True)
        entry["host"] = {key: summarize([h[key] for h in hosts]) for key in hosts[0]}
        entry["per_layer"] = run_once(name, seeds[0], seconds, 1)[0]["metrics"]
        result["workloads"][name] = entry
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")


def compare(args) -> None:
    spec = load_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    with open(args.old, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    metrics = list(better)
    print(f"ratio new/old of medians; old {old.get('git_sha', '?')[:12]}, "
          f"new {new.get('git_sha', '?')[:12]}; * = worse than the bound")
    print(f"{'workload':<20}" + "".join(f"{m:>18}" for m in metrics))
    for name, entry in new["workloads"].items():
        base = old["workloads"].get(name)
        if base is None:
            print(f"{name:<20} (not in the old file)")
            continue
        cells = []
        for m in metrics:
            ratio = entry["end_to_end"][m]["median"] / base["end_to_end"][m]["median"]
            worse = ratio < 1 - bounds[m] if better[m] == "higher" else ratio > 1 + bounds[m]
            cells.append(f"{ratio:.4f}{'*' if worse else ' '}")
        print(f"{name:<20}" + "".join(f"{c:>18}" for c in cells))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run every workload on several seeds")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(run=record)
    p = sub.add_parser("compare", help="ratio of medians between two recordings")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(run=compare)
    args = parser.parse_args(argv)
    args.run(args)


if __name__ == "__main__":
    main()
