"""The four workloads: seeded inputs, library set-up, one round of operations,
and each operation's independent output check.

Inputs are text tokens drawn from ``random.Random(seed)`` only, so one seed
gives byte-identical inputs.  Sizes and the mix of operations are fixed per
workload; the seed changes values, labels and order, never how much work a
round holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Any, Callable, Dict, List, Optional, Sequence

import maxplus as mp
from maxplus import cli, formats

import oracle as orc
from harness import Op, Raised, Tracer, invoke


@dataclass
class Workload:
    raw: dict                                    # generated inputs, as text tokens
    properties: dict                             # input properties the code depends on
    build: Callable[[], Any]                     # library set-up, timed as set-up
    make_ops: Callable[[Any, Optional[Tracer]], List[Op]]
    computed: Callable[[list], Dict[str, float]]   # ratios from inputs and round-0 outputs
    children: bool = False                       # the load runs in child processes


class Lib:
    """Turns generated tokens into library objects (memoised per token)."""

    def __init__(self):
        self.memo: Dict[str, mp.ExtendedScalar] = {}

    def scalar(self, tok: str) -> mp.ExtendedScalar:
        s = self.memo.get(tok)
        if s is None:
            s = mp.BOTTOM if tok == "-inf" else mp.TOP if tok == "+inf" else mp.finite(tok)
            self.memo[tok] = s
        return s

    def vector(self, toks: Sequence[str], labels=None) -> mp.FinVector:
        return mp.FinVector(tuple(self.scalar(t) for t in toks), labels)


# --- token generators --------------------------------------------------------

def ints(rng: random.Random, d: int, lo: int = -1000, hi: int = 1000) -> List[str]:
    return [str(rng.randint(lo, hi)) for _ in range(d)]


def plant(rng: random.Random, v: List[str], count: int, tok: str) -> List[str]:
    for i in rng.sample(range(len(v)), count):
        v[i] = tok
    return v


def selftest_scalar(rng: random.Random, finite: Callable[[], str]) -> str:
    """-inf with probability 1/8 and +inf with 1/16, as the selftest draws them."""
    r = rng.random()
    if r < 1 / 8:
        return "-inf"
    if r < 3 / 16:
        return "+inf"
    return finite()


def small_int(rng: random.Random) -> Callable[[], str]:
    return lambda: str(rng.randint(-10, 10))


def rational(rng: random.Random) -> Callable[[], str]:
    """A non-integer rational in lowest terms with a 7-digit denominator."""
    def draw() -> str:
        while True:
            q = Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randrange(10 ** 6, 10 ** 7))
            if q.denominator != 1:
                return str(q)
    return draw


def selftest_vector(rng, d, finite, nonzero=False, not_all_top=False) -> List[str]:
    while True:
        v = [selftest_scalar(rng, finite) for _ in range(d)]
        if nonzero and all(t == "-inf" for t in v):
            continue
        if not_all_top and all(t == "+inf" for t in v):
            continue
        return v


def render(vectors: Sequence[Sequence[str]]) -> str:
    return "".join(" ".join(v) + "\n" for v in vectors)


def shares(vectors) -> dict:
    toks = [t for v in vectors for t in v]
    fin = [t for t in toks if t not in ("-inf", "+inf")]
    n = max(1, len(toks))
    return {"coordinates": len(toks),
            "bottom_share": round(toks.count("-inf") / n, 6),
            "top_share": round(toks.count("+inf") / n, 6),
            "nonint_share": round(sum("/" in t for t in fin) / max(1, len(fin)), 6)}


def share_true(flags: Sequence[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def _nonint(raw_vectors) -> float:
    return shares(raw_vectors)["nonint_share"]


# --- dense-residuation --------------------------------------------------------

# (operation, count at the small dim, count at the large dim) in one round.
DENSE_MIX = (
    ("s_add", 2, 1), ("s_mul", 2, 1), ("big_sup", 2, 1), ("big_inf", 2, 1),
    ("v_add", 2, 1), ("v_scale", 2, 1), ("v_sup", 2, 1), ("v_inf", 2, 1),
    ("project_onto_span", 2, 1),
    ("star_eval", 32, 4), ("recover_representer", 1, 1),
    ("extend_functional", 2, 1), ("pointwise_sup", 2, 1),
    ("scalar_product", 2, 1), ("check_prop4", 2, 1),
)
GENERATORS = 8


def _dense_instance(rng: random.Random, op: str, d: int, k: int) -> dict:
    def target(top: int = d // 64):
        return plant(rng, plant(rng, ints(rng, d), d // 16, "-inf"), top, "+inf")

    def representer():
        return plant(rng, ints(rng, d), d // 64, "+inf")

    def generator():
        return plant(rng, ints(rng, d), d // 16, "-inf")

    inst: Dict[str, Any] = {"op": op, "d": d}
    if op in ("s_add", "s_mul", "big_sup", "big_inf"):
        inst["x"] = target()
    elif op == "v_add":
        inst["x"], inst["y"] = target(), target()
    elif op == "v_scale":
        inst["k"], inst["y"] = str(rng.randint(-50, 50)), target()
    elif op in ("v_sup", "v_inf"):
        inst["ws"] = [target() for _ in range(GENERATORS)]
    elif op == "project_onto_span":
        ws = [generator() for _ in range(GENERATORS)]
        inst["ws"] = ws
        inst["member"] = k % 2 == 0
        if inst["member"]:
            ks = [orc.ext(str(rng.randint(-50, 50))) for _ in ws]
            y = orc.vmax([orc.scale(c, orc.vec(w)) for c, w in zip(ks, ws)])
            inst["y"] = [orc.token(c) for c in y]
        else:
            inst["y"] = target()
    elif op == "star_eval":
        # one target in eight holds a +inf, which ends the scan early
        inst["x"], inst["y"] = representer(), target(top=1 if k % 8 == 7 else 0)
    elif op == "recover_representer":
        inst["x"] = representer()
    elif op == "extend_functional":
        ws = [generator() for _ in range(GENERATORS)]
        hidden = orc.vec(representer())
        inst["ws"] = ws
        inst["values"] = [orc.token(orc.star(hidden, orc.vec(w))) for w in ws]
    elif op == "pointwise_sup":
        inst["ws"] = [representer() for _ in range(4)]
    elif op == "scalar_product":
        inst["x"], inst["y"] = representer(), target()
    elif op == "check_prop4":
        inst["x"], inst["y"] = ints(rng, d), target()
    return inst


def _dense_build(instances: List[dict]) -> List[dict]:
    lib = Lib()
    built = []
    for inst in instances:
        b: Dict[str, Any] = {}
        for key in ("x", "y"):
            if key in inst:
                b[key] = lib.vector(inst[key])
        if "ws" in inst:
            b["ws"] = [lib.vector(w) for w in inst["ws"]]
        if "k" in inst:
            b["k"] = lib.scalar(inst["k"])
        if "values" in inst:
            b["values"] = [lib.scalar(t) for t in inst["values"]]
        op = inst["op"]
        if op in ("project_onto_span", "extend_functional"):
            b["basis"] = mp.SpanBasis.of(b["ws"])
        elif op == "recover_representer":
            b["f"] = mp.FunctionalRep(b["x"])
        elif op == "pointwise_sup":
            b["fs"] = [mp.FunctionalRep(w) for w in b["ws"]]
        elif op in ("scalar_product", "check_prop4"):
            labels = tuple(f"t{i}" for i in range(inst["d"]))
            b["a"] = mp.AlgebraElement(mp.FinVector(b["x"].coords, labels))
            b["b"] = mp.AlgebraElement(mp.FinVector(b["y"].coords, labels))
        built.append(b)
    return built


def fold_add(xs):
    acc = mp.BOTTOM
    for x in xs:
        acc = mp.s_add(acc, x)
    return acc


def fold_mul(xs):
    acc = mp.ONE
    for x in xs:
        acc = mp.s_mul(acc, x)
    return acc


def _dense_op(inst: dict, b: dict, tracer: Optional[Tracer]) -> Op:
    op, d = inst["op"], inst["d"]
    x = orc.vec(inst["x"]) if "x" in inst else None
    y = orc.vec(inst["y"]) if "y" in inst else None
    ws = [orc.vec(w) for w in inst.get("ws", ())]
    scalar_is = lambda want: (lambda out: orc.of_scalar(out) == want)
    vector_is = lambda want: (lambda out: orc.of_vector(out) == want)
    if op == "s_add":
        return Op("scalars.s_add", fold_add, (b["x"].coords,), scalar_is(orc.sup(x)), calls=d)
    if op == "s_mul":
        return Op("scalars.s_mul", fold_mul, (b["x"].coords,),
                  scalar_is(reduce(orc.mul, x, (0, Fraction(0)))), calls=d)
    if op == "big_sup":
        return Op("scalars.big_sup", mp.big_sup, (b["x"].coords,), scalar_is(orc.sup(x)))
    if op == "big_inf":
        return Op("scalars.big_inf", mp.big_inf, (b["x"].coords,), scalar_is(orc.inf(x)))
    if op == "v_add":
        return Op("semimodules.v_add", mp.v_add, (b["x"], b["y"]),
                  vector_is(orc.vmax([x, y])), size=2 * d)
    if op == "v_scale":
        return Op("semimodules.v_scale", mp.v_scale, (b["k"], b["y"]),
                  vector_is(orc.scale(orc.ext(inst["k"]), y)), size=d)
    if op == "v_sup":
        return Op("semimodules.v_sup", mp.v_sup, (b["ws"],), vector_is(orc.vmax(ws)),
                  size=len(ws) * d)
    if op == "v_inf":
        return Op("semimodules.v_inf", mp.v_inf, (b["ws"],), vector_is(orc.vmin(ws)),
                  size=len(ws) * d)
    if op == "project_onto_span":
        return Op("semimodules.project_onto_span", mp.project_onto_span, (b["y"], b["basis"]),
                  _projection_check(y, inst["member"]), size=(len(ws) + 1) * d)
    if op == "star_eval":
        return Op("functionals.star_eval", mp.star_eval, (b["x"], b["y"]),
                  scalar_is(orc.star(x, y)))
    if op == "recover_representer":
        f = b["f"] if tracer is None else tracer.wrap("functionals.FunctionalRep", b["f"])
        return Op("functionals.recover_representer", mp.recover_representer, (f, d),
                  vector_is(x))
    if op == "extend_functional":
        return Op("functionals.extend_functional", mp.extend_functional,
                  (b["basis"], b["values"], d), _extension_check(ws, inst["values"]))
    if op == "pointwise_sup":
        return Op("functionals.pointwise_sup", mp.pointwise_sup, (b["fs"],),
                  lambda out: orc.of_vector(out.representer) == orc.vmin(ws))
    if op == "scalar_product":
        return Op("semialgebra.scalar_product", mp.scalar_product, (b["a"], b["b"]),
                  scalar_is(orc.sup(orc.mul(p, q) for p, q in zip(x, y))))
    if op == "check_prop4":
        want = orc.star(x, y)
        return Op("semialgebra.check_prop4", mp.check_prop4, (b["a"], b["b"]),
                  lambda out: out.all_passed
                  and orc.of_scalar(out.entries[0].witness[0]) == want)
    raise ValueError(f"unknown dense operation {op!r}")


def _projection_check(y, member: Optional[bool]):
    def check(out):
        proj, is_member = out
        p = orc.of_vector(proj)
        if member and not is_member:
            return False
        return orc.leq(p, y) and is_member == (p == y)
    return check


def _extension_check(ws, values):
    want = [orc.ext(t) for t in values]

    def check(out):
        rep = orc.of_vector(out.representer)
        return [orc.star(rep, w) for w in ws] == want
    return check


def dense_residuation(seed: int, ctx, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    dims = (6, 12) if tiny else (64, 512)
    instances = [_dense_instance(rng, op, d, k)
                 for op, *counts in DENSE_MIX
                 for d, count in zip(dims, counts)
                 for k in range(count)]
    rng.shuffle(instances)
    vectors = [v for inst in instances for key in ("x", "y") if key in inst
               for v in [inst[key]]] + [w for inst in instances for w in inst.get("ws", ())]
    stars = [i for i, inst in enumerate(instances) if inst["op"] == "star_eval"]
    projections = [i for i, inst in enumerate(instances)
                   if inst["op"] == "project_onto_span"]
    properties = {"dims": list(dims), "operations": len(instances),
                  "mix": {op: list(c) for op, *c in DENSE_MIX}, "generators": GENERATORS,
                  **shares(vectors)}

    def computed(outs):
        full = [orc.full_scan(orc.vec(instances[i]["x"]), orc.vec(instances[i]["y"]))
                for i in stars]
        return {"functionals.star_eval.full_scan_ratio": share_true(full),
                "semimodules.project_onto_span.member_ratio":
                    share_true([outs[i][1] for i in projections]),
                "scalars.nonint_share": _nonint(vectors)}

    return Workload(
        raw={"instances": instances}, properties=properties,
        build=lambda: _dense_build(instances),
        make_ops=lambda built, tracer: [_dense_op(inst, b, tracer)
                                        for inst, b in zip(instances, built)],
        computed=computed)


# --- rational-io ----------------------------------------------------------------

TARGETS = 2
RATIONAL_GENERATORS = 3
# Jobs per round by dim.  The counts put the median job and the eleventh
# slowest job in the middle of a run of jobs of one dim (16 and 32), so that
# the seed cannot move them onto a neighbouring dim.
RATIONAL_JOBS = {6: 6, 8: 6, 12: 6, 16: 8, 24: 4, 32: 8, 48: 3, 64: 3}


def parse_scalars(tokens):
    return [mp.parse_scalar(t) for t in tokens]


def format_scalars(*values):
    return " ".join(mp.format_scalar(v) for v in values)


def planted_vector(rng: random.Random, d: int, finite: Callable[[], str]) -> List[str]:
    """Exactly the selftest's expected shares of -inf (1/8) and +inf (1/16), rounded."""
    v = [finite() for _ in range(d)]
    bottoms, tops = int(d / 8 + 0.5), int(d / 16 + 0.5)
    for k, i in enumerate(rng.sample(range(d), bottoms + tops)):
        v[i] = "-inf" if k < bottoms else "+inf"
    return v


def _rational_job(rng: random.Random, d: int) -> dict:
    # Planted rather than drawn infinities keep jobs of one dim alike in cost.
    draw = rational(rng)
    x = planted_vector(rng, d, draw)
    gens = [planted_vector(rng, d, draw) for _ in range(RATIONAL_GENERATORS)]
    targets = [planted_vector(rng, d, draw) for _ in range(TARGETS)]
    xv = orc.vec(x)
    values = [orc.token(orc.star(xv, orc.vec(g))) for g in gens]
    return {"d": d, "x": x, "gens": gens, "targets": targets, "values": values,
            "gens_text": render(gens), "targets_text": render(targets),
            "fn_text": f"# functional-representer dim={d}\n" + render([x])}


def run_job(tracer: Optional[Tracer], job: dict) -> tuple:
    """Parse a job's text, compute with it and print the results."""
    d, gens_text, targets_text = job["d"], job["gens_text"], job["targets_text"]
    gens = invoke(tracer, "formats.parse_vectors", formats.parse_vectors, gens_text,
                  size=len(gens_text))
    ys = invoke(tracer, "formats.parse_vectors", formats.parse_vectors, targets_text,
                size=len(targets_text))
    f = invoke(tracer, "formats.parse_functional", formats.parse_functional, job["fn_text"],
               size=len(job["fn_text"]))
    values = invoke(tracer, "scalars.parse_scalar", parse_scalars, job["values"],
                    calls=len(job["values"]))
    basis = invoke(tracer, "semimodules.SpanBasis.of", mp.SpanBasis.of, gens,
                   size=len(gens) * d)
    stars = [invoke(tracer, "functionals.star_eval", mp.star_eval, f.representer, y)
             for y in ys]
    projections = [invoke(tracer, "semimodules.project_onto_span", mp.project_onto_span,
                          y, basis, size=(len(gens) + 1) * d) for y in ys]
    g = invoke(tracer, "functionals.extend_functional", mp.extend_functional, basis, values, d)
    return (gens, ys, f, values, basis, stars, projections, g,
            invoke(tracer, "scalars.format_scalar", format_scalars, *stars, calls=len(stars)),
            invoke(tracer, "formats.format_vectors", formats.format_vectors,
                   [p for p, _ in projections], size=-1),
            invoke(tracer, "formats.format_functional", formats.format_functional, g, size=-1))


def _job_check(job: dict):
    x = orc.vec(job["x"])
    gens = [orc.vec(g) for g in job["gens"]]
    ys = [orc.vec(t) for t in job["targets"]]
    want_stars = [orc.star(x, y) for y in ys]
    restricts = _extension_check(gens, job["values"])

    def check(out) -> bool:
        (p_gens, p_ys, f, values, basis, stars, projections, g,
         stars_text, projections_text, g_text) = out
        return ([orc.of_vector(v) for v in p_gens] == gens
                and [orc.of_vector(v) for v in p_ys] == ys
                and orc.of_vector(f.representer) == x
                and [orc.of_scalar(s) for s in values] == [orc.ext(t) for t in job["values"]]
                and [orc.of_vector(v) for v in basis.generators] == gens
                and [orc.of_scalar(s) for s in stars] == want_stars
                and all(_projection_check(y, None)(p) for y, p in zip(ys, projections))
                and restricts(g)
                and stars_text.split() == [orc.token(s) for s in want_stars]
                and formats.parse_vectors(projections_text) == [p for p, _ in projections]
                and formats.parse_functional(g_text) == g)
    return check


def rational_io(seed: int, ctx, tiny: bool = False) -> Workload:
    rng = random.Random(seed)
    dims = [d for d, count in ({3: 6, 4: 6} if tiny else RATIONAL_JOBS).items()
            for _ in range(count)]
    rng.shuffle(dims)
    jobs = [_rational_job(rng, d) for d in dims]
    vectors = [v for job in jobs for v in [job["x"], *job["gens"], *job["targets"]]]
    properties = {"dims": dims, "jobs": len(jobs), "generators": RATIONAL_GENERATORS,
                  "targets_per_job": TARGETS,
                  "text_bytes": sum(len(j["gens_text"]) + len(j["targets_text"])
                                    + len(j["fn_text"]) for j in jobs),
                  **shares(vectors)}

    def make_ops(built, tracer):
        return [Op(f"rational-io.job{i}.d{job['d']}", run_job, (tracer, job), _job_check(job),
                   span=False) for i, job in enumerate(jobs)]

    def computed(outs):
        full = [orc.full_scan(orc.vec(job["x"]), orc.vec(t))
                for job in jobs for t in job["targets"]]
        return {"functionals.star_eval.full_scan_ratio": share_true(full),
                "semimodules.project_onto_span.member_ratio":
                    share_true([member for out in outs for _, member in out[6]]),
                "scalars.nonint_share": _nonint(vectors)}

    # Parsing is the workload's first step, so set-up builds nothing.
    return Workload(raw={"jobs": jobs}, properties=properties, build=lambda: None,
                    make_ops=make_ops, computed=computed)


# --- subset-enumeration ---------------------------------------------------------

def random_poset(rng: random.Random, shape: str, n: int) -> dict:
    labels = [f"p{i}" for i in range(n)]
    rng.shuffle(labels)
    if shape != "random":
        pairs = [] if shape == "antichain" else [[labels[i], labels[i + 1]]
                                                 for i in range(n - 1)]
        return {"shape": shape, "n": n, "elements": labels, "pairs": pairs}
    # n - 1 relations along a hidden linear extension, redrawn until the
    # completion has n + 2 cuts, so that every seed does the same work
    candidates = [(a, b) for a in range(n) for b in range(a + 1, n)]
    while True:
        order = rng.sample(labels, n)
        pairs = [[order[a], order[b]] for a, b in sorted(rng.sample(candidates, n - 1))]
        p = {"shape": shape, "n": n, "elements": labels, "pairs": pairs}
        if orc.count_cuts(n, poset_masks(p)) == n + 2:
            return p


def poset_masks(p: dict) -> List[int]:
    index = {lab: i for i, lab in enumerate(p["elements"])}
    return orc.closure_masks(p["n"], [(index[a], index[b]) for a, b in p["pairs"]])


def graph_input(rng: random.Random, dim: int) -> tuple:
    return tuple(orc.BOT if rng.random() < 1 / 8 else (0, Fraction(rng.randint(-10, 10)))
                 for _ in range(dim))


def sup_closed_sample(rng: random.Random, n: int, dim: int) -> List[tuple]:
    """Exactly n distinct vectors closed under binary (hence all finite) sups."""
    closed: set = set()
    for _ in range(4 * n):
        grown = orc.sup_closure(closed | {graph_input(rng, dim)})
        if len(grown) <= n:
            closed = grown
        if len(closed) == n:
            break
    while len(closed) < n:
        # a new element above everything keeps the set sup-closed
        top = orc.vmax(list(closed)) if closed else [orc.BOT] * dim
        closed.add(tuple((0, c[1] + 1) if c[0] == 0 else (0, Fraction(0)) for c in top))
    return sorted(closed)


def _graph(rng: random.Random, brk: random.Random, n: int, dim: int = 3) -> dict:
    """A sup-closed sampled graph of a functional, and a broken copy of it.

    The broken copy, drawn from ``brk`` so that the valid inputs do not
    depend on it, holds one more pair of the same functional whose input
    makes the sample not sup-closed; a checker must reject it.
    """
    x = orc.vec(selftest_vector(rng, dim, small_int(rng), not_all_top=True))
    inputs = sup_closed_sample(rng, n, dim)
    rng.shuffle(inputs)
    while True:
        extra = graph_input(brk, dim)
        grown = set(inputs) | {extra}
        if extra not in inputs and len(orc.sup_closure(grown)) > len(grown):
            break
    broken = list(inputs)
    broken.insert(brk.randrange(n + 1), extra)
    pairs = lambda vs: {"inputs": [[orc.token(c) for c in v] for v in vs],
                        "outputs": [[orc.token(orc.star(x, v))] for v in vs]}
    return {"n": n, "x": [orc.token(c) for c in x], **pairs(inputs), "broken": pairs(broken)}


def graph_rejected(report, g: dict) -> bool:
    """The report of the broken sample fails, with a subset that truly violates."""
    entry = report.entry("graph-sup-closed")
    if report.all_passed or entry is None or entry.passed:
        return False
    table = {tuple(orc.vec(i)): orc.vec(o)
             for i, o in zip(g["broken"]["inputs"], g["broken"]["outputs"])}
    subset = entry.witness[0]
    return orc.graph_violates(table, [orc.of_vector(p[0]) for p in subset],
                              [orc.of_vector(p[1]) for p in subset])


def off_sample(f: mp.FunctionalRep, tests: Sequence[mp.FinVector]) -> Callable:
    """f on the test vectors and -inf elsewhere: not linear, as the matching
    ``oracle.off_sample`` shows."""
    keep = {t.coords for t in tests}
    return lambda v: f(v) if v.coords in keep else mp.BOTTOM


def a_linear_judged(report, a: dict) -> bool:
    """Each law's verdict on the broken map is the oracle's, and each failure's
    witness truly violates its law."""
    tests = [orc.vec(t) for t in a["tests"]]
    g = orc.off_sample(orc.vec(a["x"]), {tuple(t) for t in tests})
    sups, homogeneous = orc.a_linear_verdicts(g, tests, [orc.ext(k) for k in a["scalars"]])
    got_sup, got_hom = report.entry("sup-preservation"), report.entry("homogeneity")
    if (got_sup.passed, got_hom.passed) != (sups, homogeneous):
        return False
    if not sups and not orc.sup_violates(g, len(tests[0]),
                                         [orc.of_vector(v) for v in got_sup.witness]):
        return False
    if not homogeneous:
        k, v = got_hom.witness
        return orc.homogeneity_violates(g, orc.of_scalar(k), orc.of_vector(v))
    return True


def _alinear(rng: random.Random, k: int, dim: int = 4) -> dict:
    draw = small_int(rng)
    return {"k": k, "x": selftest_vector(rng, dim, draw, not_all_top=True),
            "tests": [selftest_vector(rng, dim, draw) for _ in range(k)],
            "scalars": [selftest_scalar(rng, draw) for _ in range(10)]}


def _bspace(rng: random.Random, k: int, dim: int = 3) -> dict:
    draw = small_int(rng)
    return {"k": k, "samples": [selftest_vector(rng, dim, draw) for _ in range(k)]
            + [["+inf"] * dim],
            "scalars": ["-inf", "+inf"] + [str(v) for v in rng.sample(range(-3, 4), 3)]}


def _semiring(rng: random.Random, name: str) -> dict:
    ints_ = [str(v) for v in rng.sample(range(-10, 11), 4)]
    sample = {"boolean": None, "extended-maxplus": ["-inf", "+inf"] + ints_,
              "maxplus": ["-inf"] + ints_}[name]
    return {"semiring": name, "sample": sample}


SEMIRINGS = {"boolean": mp.boolean_semifield, "extended-maxplus": mp.extended_maxplus,
             "maxplus": mp.maxplus_semifield}


SMALL_GRAPHS = 23
MIDDLE_GRAPHS = 3


def subset_enumeration(seed: int, ctx, tiny: bool = False) -> Workload:
    rng, brk = random.Random(seed), random.Random(f"broken-{seed}")
    sizes = (4, 5, 6) if tiny else (8, 10, 12)
    posets = [random_poset(rng, shape, n) for shape in ("antichain", "chain", "random")
              for n in sizes]
    alinear = [_alinear(rng, k) for k in ((3, 4) if tiny else (8, 9, 10))]
    # Extra graph checks of the small and middle sizes put the median and the
    # eleventh slowest operation inside a block of alike operations.
    graphs = [_graph(rng, brk, n) for n in sizes] + [
        _graph(rng, brk, n)
        for n, count in ((sizes[0], SMALL_GRAPHS), (sizes[1], MIDDLE_GRAPHS))
        for _ in range(count)]
    bspace = [_bspace(rng, k) for k in ((2, 3) if tiny else (5, 6))]
    semirings = [_semiring(rng, name) for name in SEMIRINGS]
    plan = ([("from_pairs", i) for i in range(len(posets))]
            + [("dm_completion", i) for i in range(len(posets))]
            + [("b_completion", i) for i, p in enumerate(posets) if p["n"] == sizes[0]]
            + [("check_a_linear", i) for i in range(len(alinear))]
            + [("graph_sup_closed", i) for i in range(len(graphs))]
            + [("check_b_space_axioms", i) for i in range(len(bspace))]
            + [("check_semiring_axioms", i) for i in range(len(semirings))])
    rng.shuffle(plan)
    masks = [poset_masks(p) for p in posets]
    cuts = [orc.count_cuts(p["n"], m) for p, m in zip(posets, masks)]
    vectors = ([a["x"] for a in alinear] + [t for a in alinear for t in a["tests"]]
               + [v for g in graphs for v in g["inputs"]]
               + [v for s in bspace for v in s["samples"]])
    properties = {
        "posets": [[p["shape"], p["n"], len(p["pairs"])] for p in posets],
        "graph_pairs": [g["n"] for g in graphs],
        "a_linear_test_vectors": [a["k"] for a in alinear],
        "b_space_samples": [s["k"] for s in bspace],
        "semirings": [s["semiring"] for s in semirings],
        "operations": len(plan), **shares(vectors)}

    def build():
        lib = Lib()
        return {
            "posets": [mp.FiniteIS.from_pairs(p["elements"], [tuple(q) for q in p["pairs"]])
                       for p in posets],
            "alinear": [(mp.FunctionalRep(lib.vector(a["x"])),
                         [lib.vector(t) for t in a["tests"]],
                         [lib.scalar(s) for s in a["scalars"]]) for a in alinear],
            "graphs": [mp.LinearMapSample.of(
                (lib.vector(i), lib.vector(o)) for i, o in zip(g["inputs"], g["outputs"]))
                for g in graphs],
            "bspace": [([lib.vector(v) for v in s["samples"]],
                        [lib.scalar(t) for t in s["scalars"]]) for s in bspace],
            "semirings": [(SEMIRINGS[s["semiring"]](),
                           None if s["sample"] is None else [lib.scalar(t) for t in s["sample"]])
                          for s in semirings],
        }

    def completion_check(i: int):
        p, want = posets[i], cuts[i]
        known = {"antichain": p["n"] + 2, "chain": p["n"]}.get(p["shape"], want)

        def check(out):
            return (len(out.completed.elements) == want == known
                    and set(out.embedding) == set(p["elements"]))
        return check

    def from_pairs_check(i: int):
        p, up = posets[i], masks[i]
        want = {(a, b) for a in range(p["n"]) for b in range(p["n"]) if up[a] >> b & 1}
        return lambda out: out.elements == tuple(p["elements"]) and out.relation == want

    passes = lambda out: out.all_passed

    # The checkers below pass on valid inputs whether or not they enumerate
    # anything, so their round-0 check also runs each one on a broken copy
    # of its input, which it must reject.  check_b_space_axioms has no such
    # copy: its laws hold for every valid vector and scalar.
    def graph_check(i: int):
        g = graphs[i]

        def check(out):
            lib = Lib()
            broken = mp.LinearMapSample.of(
                (lib.vector(v), lib.vector(o))
                for v, o in zip(g["broken"]["inputs"], g["broken"]["outputs"]))
            return out.all_passed and graph_rejected(mp.graph_sup_closed(broken), g)
        return check

    def a_linear_check(i: int, f, tests, scalars):
        def check(out):
            return out.all_passed and a_linear_judged(
                mp.check_a_linear(off_sample(f, tests), tests, scalars), alinear[i])
        return check

    def semiring_check(d, sample):
        def check(out):
            # addition that keeps its left argument is not commutative
            report = mp.check_semiring_axioms(dataclasses.replace(d, add=lambda a, b: a),
                                              sample)
            entry = report.entry("add-commutative")
            return (out.all_passed and not entry.passed
                    and entry.witness[0] != entry.witness[1])
        return check

    def make_ops(built, tracer):
        ops = []
        for kind, i in plan:
            if kind == "from_pairs":
                p = posets[i]
                ops.append(Op("order.from_pairs", mp.FiniteIS.from_pairs,
                              (p["elements"], [tuple(q) for q in p["pairs"]]),
                              from_pairs_check(i)))
            elif kind in ("dm_completion", "b_completion"):
                ops.append(Op(f"order.{kind}", getattr(mp, kind), (built["posets"][i],),
                              completion_check(i)))
            elif kind == "check_a_linear":
                f, tests, scalars = built["alinear"][i]
                check = a_linear_check(i, f, tests, scalars)
                if tracer is not None:
                    f = tracer.wrap("functionals.FunctionalRep", f)
                ops.append(Op("functionals.check_a_linear", mp.check_a_linear,
                              (f, tests, scalars), check))
            elif kind == "graph_sup_closed":
                ops.append(Op("functionals.graph_sup_closed", mp.graph_sup_closed,
                              (built["graphs"][i],), graph_check(i)))
            elif kind == "check_b_space_axioms":
                ops.append(Op("semimodules.check_b_space_axioms", mp.check_b_space_axioms,
                              built["bspace"][i], passes))
            else:
                d, sample = built["semirings"][i]
                ops.append(Op("scalars.check_semiring_axioms", mp.check_semiring_axioms,
                              (d, sample), semiring_check(d, sample)))
        return ops

    def computed(outs):
        dm = [(out, posets[i]["n"]) for out, (kind, i) in zip(outs, plan)
              if kind == "dm_completion"]
        found = sum(len(out.completed.elements) for out, _ in dm if not isinstance(out, Raised))
        return {"order.dm_completion.cuts_per_subset": found / sum(2 ** n for _, n in dm),
                "functionals.graph_sup_closed.subsets_per_call":
                    sum(2 ** g["n"] - 1 for g in graphs) / len(graphs),
                "scalars.nonint_share": _nonint(vectors)}

    return Workload(raw={"posets": posets, "alinear": alinear, "graphs": graphs,
                         "bspace": bspace, "semirings": semirings, "plan": plan},
                    properties=properties, build=build, make_ops=make_ops,
                    computed=computed)


# --- cli ------------------------------------------------------------------------

CLI_VERBS = ("eval-star", "extend", "recover", "sup-functionals", "scalar-product",
             "dm-complete", "check-graph")


def _cli_instance(rng: random.Random, brk: random.Random, verb: str, k: int,
                  tiny: bool) -> dict:
    draw = small_int(rng)
    inst: Dict[str, Any] = {"verb": verb}
    if verb == "eval-star":
        inst["x"] = selftest_vector(rng, 16, draw, not_all_top=True)
        inst["y"] = selftest_vector(rng, 16, draw)
    elif verb == "extend":
        hidden = selftest_vector(rng, 8, draw, not_all_top=True)
        inst["gens"] = [selftest_vector(rng, 8, draw, nonzero=True) for _ in range(3)]
        inst["values"] = [orc.token(orc.star(orc.vec(hidden), orc.vec(g))) for g in inst["gens"]]
    elif verb == "recover":
        inst["x"] = selftest_vector(rng, 8, draw, not_all_top=True)
    elif verb == "sup-functionals":
        inst["fs"] = [selftest_vector(rng, 8, draw) for _ in range(3)]
    elif verb == "scalar-product":
        inst["x"] = selftest_vector(rng, 16, draw)
        inst["y"] = selftest_vector(rng, 16, draw)
    elif verb == "dm-complete":
        shape, n = (("antichain", 5), ("chain", 5), ("random", 6), ("random", 6))[k % 4]
        inst["poset"] = random_poset(rng, shape, n)
    elif verb == "check-graph":
        inst["graph"] = _graph(rng, brk, 8)
    elif verb == "selftest":
        inst["seed"] = rng.randrange(10 ** 6)
        inst["samples"] = 10 if tiny else 200
    return inst


def in_process(argv: List[str]) -> tuple:
    """Exit code and stdout of the same command run inside this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class CliOp:
    """Files, argv, output parsing and checks for one CLI process."""

    def __init__(self, inst: dict, b: dict, ctx, index: int, tracer: Optional[Tracer]):
        self.inst, self.b, self.ctx, self.tracer = inst, b, ctx, tracer
        self.files: Dict[str, tuple] = {}     # path -> (formats function, argument)
        verb = inst["verb"]
        path = lambda name: str(ctx.scratch / f"op{index}-{name}")
        args: List[str] = [verb]
        if verb in ("eval-star", "scalar-product"):
            fmt = formats.format_vectors if verb == "eval-star" else formats.format_functions
            names = ("--x", "--y") if verb == "eval-star" else ("--f1", "--f2")
            for flag, key in zip(names, ("x", "y")):
                self.files[path(key)] = (fmt, [b[key]])
                args += [flag, path(key)]
        elif verb == "extend":
            self.files[path("gens.vec")] = (formats.format_vectors, b["gens"])
            args += ["--generators", path("gens.vec"), "--values", *inst["values"],
                     "--dim", str(len(inst["gens"][0]))]
        elif verb == "recover":
            self.files[path("f.fn")] = (formats.format_functional, b["f"])
            args += ["--functional", path("f.fn")]
        elif verb == "sup-functionals":
            args.append("--functionals")
            for j, f in enumerate(b["fs"]):
                self.files[path(f"f{j}.fn")] = (formats.format_functional, f)
                args.append(path(f"f{j}.fn"))
        elif verb == "dm-complete":
            self.files[path("p.pos")] = (formats.format_poset, b["poset"])
            args += ["--poset", path("p.pos")]
        elif verb == "check-graph":
            self.files[path("in.vec")] = (formats.format_vectors, b["inputs"])
            self.files[path("out.vec")] = (formats.format_vectors, b["outputs"])
            args += ["--inputs", path("in.vec"), "--outputs", path("out.vec")]
            self.broken = [verb, "--inputs", path("bad-in.vec"),
                           "--outputs", path("bad-out.vec")]
        else:
            args += ["--seed", str(inst["seed"]), "--samples", str(inst["samples"])]
        self.args = args

    def op(self) -> Op:
        argv = [self.ctx.python, "-m", "maxplus.cli", *self.args]
        return Op(f"cli.{self.inst['verb']}", self.spawn, (argv,), self.check,
                  prep=self.write_files, post=self.parse_output)

    def spawn(self, argv):
        done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=self.ctx.child_env, timeout=120)
        return done.returncode, done.stdout.decode("utf-8")

    def write_files(self) -> None:
        for p, (fmt, arg) in self.files.items():
            text = invoke(self.tracer, f"formats.{fmt.__name__}", fmt, arg, size=-1)
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(text)

    def parse_output(self, out):
        code, stdout = out
        verb, t = self.inst["verb"], self.tracer
        parsed: Any = None
        if code == 0:
            if verb in ("eval-star", "scalar-product"):
                parsed = invoke(t, "scalars.parse_scalar", mp.parse_scalar, stdout.strip())
            elif verb in ("extend", "recover", "sup-functionals"):
                parsed = invoke(t, "formats.parse_functional", formats.parse_functional,
                                stdout, size=len(stdout))
            elif verb == "dm-complete":
                parsed = invoke(t, "formats.parse_poset", formats.parse_poset,
                                stdout, size=len(stdout))
        return code, stdout, parsed

    def check(self, out) -> bool:
        code, stdout, parsed = out
        if (code, stdout) != in_process(self.args) or code != 0:
            return False
        inst, verb = self.inst, self.inst["verb"]
        if verb == "eval-star":
            return orc.of_scalar(parsed) == orc.star(orc.vec(inst["x"]), orc.vec(inst["y"]))
        if verb == "scalar-product":
            return orc.of_scalar(parsed) == orc.sup(
                orc.mul(p, q) for p, q in zip(orc.vec(inst["x"]), orc.vec(inst["y"])))
        if verb == "extend":
            rep = orc.of_vector(parsed.representer)
            return [orc.star(rep, orc.vec(g)) for g in inst["gens"]] == \
                [orc.ext(t) for t in inst["values"]]
        if verb == "recover":
            return orc.of_vector(parsed.representer) == orc.vec(inst["x"])
        if verb == "sup-functionals":
            return orc.of_vector(parsed.representer) == orc.vmin([orc.vec(f) for f in inst["fs"]])
        if verb == "dm-complete":
            p = inst["poset"]
            return len(parsed.elements) == orc.count_cuts(p["n"], poset_masks(p))
        if verb == "check-graph":
            return stdout == "graph-sup-closed: PASS\n" and self.rejects_broken()
        return stdout.endswith("overall: PASS\n")


    def rejects_broken(self) -> bool:
        """The same command on the broken copy of the sample exits 1 and reports FAIL."""
        g = self.inst["graph"]["broken"]
        for flag, key in (("--inputs", "inputs"), ("--outputs", "outputs")):
            with open(self.broken[self.broken.index(flag) + 1], "w", encoding="utf-8") as fh:
                fh.write(render(g[key]))
        code, stdout = self.spawn([self.ctx.python, "-m", "maxplus.cli", *self.broken])
        return code == 1 and stdout.startswith("graph-sup-closed: FAIL")


def _cli_build(instances: List[dict]) -> List[dict]:
    lib = Lib()
    built = []
    for inst in instances:
        verb, b = inst["verb"], {}
        if verb == "eval-star":
            b = {"x": lib.vector(inst["x"]), "y": lib.vector(inst["y"])}
        elif verb == "scalar-product":
            labels = tuple(f"t{i}" for i in range(len(inst["x"])))
            b = {key: mp.AlgebraElement(lib.vector(inst[key], labels)) for key in ("x", "y")}
        elif verb == "extend":
            b = {"gens": [lib.vector(g) for g in inst["gens"]]}
        elif verb == "recover":
            b = {"f": mp.FunctionalRep(lib.vector(inst["x"]))}
        elif verb == "sup-functionals":
            b = {"fs": [mp.FunctionalRep(lib.vector(f)) for f in inst["fs"]]}
        elif verb == "dm-complete":
            p = inst["poset"]
            b = {"poset": mp.FiniteIS.from_pairs(p["elements"], [tuple(q) for q in p["pairs"]])}
        elif verb == "check-graph":
            g = inst["graph"]
            b = {"inputs": [lib.vector(v) for v in g["inputs"]],
                 "outputs": [lib.vector(v) for v in g["outputs"]]}
        built.append(b)
    return built


CLI_PER_VERB = 4


def cli_processes(seed: int, ctx, tiny: bool = False) -> Workload:
    rng, brk = random.Random(seed), random.Random(f"broken-{seed}")
    per_verb = 1 if tiny else CLI_PER_VERB
    instances = [_cli_instance(rng, brk, verb, k, tiny) for verb in CLI_VERBS
                 for k in range(per_verb)]
    instances.append(_cli_instance(rng, brk, "selftest", 0, tiny))
    rng.shuffle(instances)
    vectors = [v for inst in instances for key in ("x", "y") if key in inst
               for v in [inst[key]]] + [v for inst in instances
                                        for v in inst.get("gens", []) + inst.get("fs", [])]
    properties = {
        "operations": len(instances), "per_verb": per_verb, "selftest_share":
            round(1 / len(instances), 6),
        "posets": [[i["poset"]["shape"], i["poset"]["n"]] for i in instances if "poset" in i],
        "graph_pairs": [i["graph"]["n"] for i in instances if "graph" in i],
        "dims": sorted({len(v) for v in vectors}), **shares(vectors)}

    def make_ops(built, tracer):
        return [CliOp(inst, b, ctx, i, tracer).op()
                for i, (inst, b) in enumerate(zip(instances, built))]

    return Workload(raw={"instances": instances}, properties=properties,
                    build=lambda: _cli_build(instances), make_ops=make_ops,
                    computed=lambda outs: {"scalars.nonint_share": _nonint(vectors)},
                    children=True)


WORKLOADS = {
    "dense-residuation": dense_residuation,
    "rational-io": rational_io,
    "subset-enumeration": subset_enumeration,
    "cli": cli_processes,
}
