"""Closed-loop driver, in-memory tracing and per-layer aggregation.

A workload is a fixed list of operations (one round).  One client runs whole
rounds, one operation at a time, until the measured time is used up.  Only the
call itself is inside an operation's timed window: resolving arguments,
``prep`` and ``post`` work, and output checks sit outside it.
"""

from __future__ import annotations

import gc
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

LAYERS = ("scalars", "semimodules", "functionals", "semialgebra", "order",
          "formats", "cli")


class Raised:
    """Output of an operation that raised; equal to nothing."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self) -> str:
        return f"Raised({self.exc!r})"


@dataclass
class Op:
    """One call into a public entry point of ``maxplus``, or one CLI process.

    ``check(out)`` is the independent output check.  ``calls`` counts library
    calls when the benchmark folds one function over many scalars.  ``size``
    is the bytes a formats call reads (-1: the bytes it writes) or the
    coordinates a semimodules call touches.  With ``span=False`` the traced
    run records no span around the whole operation, because ``fn`` records
    one per library call itself.
    """

    name: str
    fn: Callable
    args: tuple
    check: Callable[[Any], bool]
    calls: int = 1
    size: int = 0
    prep: Optional[Callable[[], None]] = None
    post: Optional[Callable[[Any], Any]] = None
    span: bool = True


class Tracer:
    """Spans kept in memory as (name, op, parent, start, end, calls, size) tuples."""

    def __init__(self):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self.op = -1

    def call(self, name: str, fn: Callable, args: Sequence, calls: int = 1,
             size: int = 0):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        out = None
        start = perf_counter()
        try:
            out = fn(*args)
            return out
        finally:
            end = perf_counter()
            self._stack.pop()
            if size < 0:
                size = len(out) if out is not None else 0
            self.spans[idx] = (name, self.op, parent, start, end, calls, size)

    def wrap(self, name: str, fn: Callable) -> Callable:
        return lambda *args: self.call(name, fn, args)


def invoke(tracer: Optional[Tracer], name: str, fn: Callable, *args, calls: int = 1,
           size: int = 0):
    """Call fn, inside a span when tracing."""
    if tracer is None:
        return fn(*args)
    return tracer.call(name, fn, args, calls, size)


@dataclass(frozen=True)
class _Probe:
    kind: int
    q: Fraction


def probe() -> _Probe:
    """A fixed pure-Python kernel, independent of maxplus, that times the host.

    It does what the library does most (build small frozen dataclasses, add
    and compare Fractions, build tuples), so a busy sibling core slows it by
    about as much as it slows the operations.
    """
    acc, best = _Probe(0, Fraction(0)), None
    for i in range(120):
        a = _Probe(0, Fraction(i, 7))
        acc = _Probe(0, acc.q + a.q) if acc.kind == a.kind else acc
        if best is None or a.q > best:
            best = a.q
        _ = (a, acc, i)
    return acc


@dataclass(frozen=True)
class HostProbe:
    """A fixed piece of work, independent of maxplus, timed between operations.

    ``reference_s`` is its mean time on the host where the baseline was
    recorded; adjusted times there read as measured.
    """

    fn: Callable[[], Any]
    reference_s: float


IN_PROCESS_PROBE = HostProbe(probe, 0.0008)
PROBE_EVERY_S = 0.05


@dataclass
class Phase:
    """The rounds run with one op list, traced or not.

    ``rounds[r][i]`` is the latency of operation i in round r.  ``probes``
    holds the host probe's times taken between operations, at most every
    PROBE_EVERY_S, outside every timed window and the round's wall time.
    """

    ops: List[Op]
    tracer: Optional[Tracer] = None
    host_probe: HostProbe = IN_PROCESS_PROBE
    walls: List[float] = field(default_factory=list)
    rounds: List[List[float]] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    last_probe: float = 0.0

    def host_factor(self) -> float:
        """How much slower the host ran than at the reference: probe mean / reference."""
        return statistics.fmean(self.probes) / self.host_probe.reference_s

    def typical(self, factor: float) -> List[float]:
        """Each operation's mean latency over the rounds, divided by the host factor."""
        return [statistics.fmean(col) / factor for col in zip(*self.rounds)]

    def ops_per_s(self, factor: float) -> float:
        """Closed-loop throughput of one round: operations / sum of typical latencies."""
        typical = self.typical(factor)
        return len(typical) / sum(typical)


def time_probe(phase: Phase) -> float:
    t0 = perf_counter()
    phase.host_probe.fn()
    phase.last_probe = perf_counter()
    phase.probes.append(phase.last_probe - t0)
    return phase.probes[-1]


def run_round(phase: Phase, seq0: int, idle: Optional[Callable[[], None]] = None) -> list:
    ops, tracer = phase.ops, phase.tracer
    outs: list = [None] * len(ops)
    lat: List[float] = [0.0] * len(ops)
    phase.rounds.append(lat)
    idle_s = 0.0
    start = perf_counter()
    for i, op in enumerate(ops):
        if idle is not None:
            t0 = perf_counter()
            idle()
            idle_s += perf_counter() - t0
        if perf_counter() - phase.last_probe >= PROBE_EVERY_S:
            idle_s += time_probe(phase)
        if tracer is not None:
            tracer.op = seq0 + i
        if op.prep is not None:
            op.prep()
        t0 = perf_counter()
        try:
            if tracer is None or not op.span:
                out = op.fn(*op.args)
            else:
                out = tracer.call(op.name, op.fn, op.args, op.calls, op.size)
        except Exception as exc:  # counted as a failed operation, not fatal
            out = Raised(exc)
        lat[i] = perf_counter() - t0
        if op.post is not None and not isinstance(out, Raised):
            out = op.post(out)
        outs[i] = out
    phase.walls.append(perf_counter() - start - idle_s)
    return outs


class Checker:
    """Checks round 0 independently; later rounds must reproduce round 0 exactly."""

    def __init__(self, ops: List[Op]):
        self.ops = ops
        self.first: Optional[list] = None
        self.first_ok: List[bool] = []
        self.attempted = 0
        self.failed = 0
        self.reported = False

    def _independent(self, op: Op, out) -> bool:
        if isinstance(out, Raised):
            self._report(op, repr(out))
            return False
        try:
            ok = bool(op.check(out))
        except Exception:  # a check that cannot run on this output fails it
            self._report(op, traceback.format_exc())
            return False
        if not ok:
            self._report(op, f"output {out!r}")
        return ok

    def _report(self, op: Op, detail: str) -> None:
        if not self.reported:
            self.reported = True
            print(f"check failed: {op.name}{op.args!r:.200}: {detail:.2000}",
                  file=sys.stderr)

    def round(self, outs: list) -> None:
        if self.first is None:
            self.first = outs
            self.first_ok = [self._independent(op, out) for op, out in zip(self.ops, outs)]
            oks = self.first_ok
        else:
            oks = [ok and out == ref for ok, out, ref in zip(self.first_ok, outs, self.first)]
            for op, ok, was in zip(self.ops, oks, self.first_ok):
                if was and not ok:
                    self._report(op, "output differs from round 0")
        self.attempted += len(outs)
        self.failed += oks.count(False)


def measure(plain: List[Op], traced: Optional[List[Op]], tracer: Optional[Tracer],
            seconds: float, idle: Optional[Callable[[], None]] = None,
            host_probe: HostProbe = IN_PROCESS_PROBE) -> tuple:
    """Run rounds until ``seconds`` of rounds have elapsed.

    With a traced op list the rounds alternate untraced and traced, and each
    kind runs at least once.  ``idle`` is called before every operation,
    outside its timed window, and its time is not counted in the round's wall
    time; nor is the time of ``host_probe``, which times the host between
    operations, or of the garbage collections between rounds.  Returns the
    untraced phase, the traced phase (or None) and the checker.
    """
    checker = Checker(plain)
    phases = [Phase(plain, host_probe=host_probe)]
    if traced is not None:
        phases.append(Phase(traced, tracer, host_probe))
    elapsed = 0.0
    seq = 0
    k = 0
    # The cyclic collector runs between rounds, untimed, and never inside
    # one: a collection inside a round lands on the same few operations in
    # every round, which ones depending on the seed (README.md, "Garbage
    # collection").  The heap kept for the whole run, the inputs and round
    # 0's outputs, is frozen after round 0 so that those collections stay short.
    gc.disable()
    try:
        while elapsed < seconds or k < len(phases):
            phase = phases[k % len(phases)]
            outs = run_round(phase, seq, idle)
            elapsed += phase.walls[-1]
            seq += len(outs)
            k += 1
            checker.round(outs)
            gc.collect()
            if k == 1:
                gc.freeze()
    finally:
        gc.unfreeze()
        gc.enable()
    return phases[0], (phases[1] if traced is not None else None), checker


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    rank = max(1, -(-p * n // 100))
    return sorted_values[int(rank) - 1]


def tail(sorted_values: Sequence[float]) -> tuple:
    """The highest percentile with at least ten values beyond it, and its value.

    With nearest rank that is the eleventh-largest value; the percentile
    moves smoothly with the number of values.
    """
    n = len(sorted_values)
    p = max(0.0, 100 * (n - 10) / n)
    return p, percentile(sorted_values, p)


def span_stats(spans: Sequence[tuple]) -> dict:
    """Per-layer self time and calls, and per-span-name totals.

    A span's self time is its duration minus the time its child spans cover.
    """
    child = [0.0] * len(spans)
    for name, op, parent, start, end, calls, size in spans:
        if parent >= 0:
            child[parent] += end - start
    busy: Dict[str, float] = defaultdict(float)
    layer_calls: Dict[str, int] = defaultdict(int)
    total: Dict[str, float] = defaultdict(float)
    ncalls: Dict[str, int] = defaultdict(int)
    sizes: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    for idx, (name, op, parent, start, end, calls, size) in enumerate(spans):
        layer = name.split(".", 1)[0]
        busy[layer] += end - start - child[idx]
        layer_calls[layer] += calls
        total[name] += end - start
        ncalls[name] += calls
        sizes[name] += size
        durations[name].append(end - start)
    return {"busy": busy, "layer_calls": layer_calls, "total": total,
            "ncalls": ncalls, "sizes": sizes, "durations": durations}
