"""Randomized and exhaustive suites checking every theorem at desk scale.

Each suite is a plain function returning ``(passed, detail)``; ``run_selftest``
names the suites and formats them into a deterministic scoreboard of lines
``name: PASS|FAIL (detail)``.  All randomness flows through one seeded
generator, with integer coordinates in [-10, 10] plus -inf with probability
1/8 and +inf with probability 1/16, so the degenerate conventions get
exercised routinely.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from . import order, semialgebra, semimodules
from .functionals import (FunctionalRep, InconsistentValuesError,
                          LinearMapSample, check_a_linear, extend_functional,
                          graph_sup_closed, pointwise_sup, recover_representer,
                          separate_points, star_eval)
from .report import CheckReport
from .scalars import BOTTOM, ONE, TOP, ExtendedScalar, big_sup, finite
from .semimodules import (FinVector, SpanBasis, check_b_space_axioms, v_inf,
                          vector)
from .semirings import boolean_semifield, check_semiring_axioms, extended_maxplus

# Fixed suite sizes: only the seed, the dimension and the sample count vary.
_PROBES = 20            # probe vectors per recovered functional (Theorems 1 and 3)
_SUP_PROBES = 50        # probe vectors per pointwise supremum (Proposition 2)
_ALINEAR_VECTORS = 6    # test vectors per a-linearity check; every subset is tried
_ALINEAR_SCALARS = 20   # homogeneity scalars per a-linearity check, -inf and 0 included
_MAX_POINTS = 8         # largest point set of the semialgebra suites
_POSET_MAX_N = 4        # the completion suite covers every poset up to this size

# The finite values drawn, -10 .. 10: choice of these 21 draws the stream
# randint(-10, 10) would (one _randbelow(21) each) without a finite() per draw.
_SMALL = tuple(finite(k) for k in range(-10, 11))


def random_scalar(rng: random.Random) -> ExtendedScalar:
    r = rng.random()
    if r < 1 / 8:
        return BOTTOM
    if r < 1 / 8 + 1 / 16:
        return TOP
    return rng.choice(_SMALL)


def random_vector(rng: random.Random, dim: int) -> FinVector:
    return FinVector(tuple(random_scalar(rng) for _ in range(dim)))


def random_nonzero_vector(rng: random.Random, dim: int) -> FinVector:
    while True:
        v = random_vector(rng, dim)
        if not v.is_zero():
            return v


def random_representer(rng: random.Random, dim: int) -> FinVector:
    """A representer of a nonzero functional: any vector except the all-top one."""
    while True:
        v = random_vector(rng, dim)
        if not v.is_all_top():
            return v


def random_finite_vector(rng: random.Random, dim: int) -> FinVector:
    return FinVector(tuple(rng.choice(_SMALL) for _ in range(dim)))


def _random_element(rng: random.Random, n: int, proper: bool) -> semialgebra.AlgebraElement:
    """A function on the points x0 .. x{n-1}; all values are finite when proper."""
    vec = random_finite_vector(rng, n) if proper else random_vector(rng, n)
    return semialgebra.AlgebraElement(FinVector(vec.coords, tuple(f"x{i}" for i in range(n))))


def _first_failure(report: CheckReport) -> str:
    return report.failures()[0].line()


# --- suites -----------------------------------------------------------------

def suite_semiring_axioms() -> Tuple[bool, str]:
    boolean = check_semiring_axioms(boolean_semifield())
    sample = [BOTTOM, finite(-1), finite(0), finite(2), TOP]
    extended = check_semiring_axioms(extended_maxplus(), sample)
    detail = "boolean carrier exhaustive + 5-element extended sample"
    for report in (boolean, extended):
        if not report.all_passed:
            return False, f"{detail}; first failure {_first_failure(report)}"
    return True, detail


def suite_b_space_axioms(rng: random.Random) -> Tuple[bool, str]:
    scalars = [BOTTOM, finite(0), finite(1), finite(-2), TOP]
    samples = [random_vector(rng, 3) for _ in range(5)]
    samples.append(semimodules.top_vector(3))
    report = check_b_space_axioms(samples, scalars)
    detail = "all scalar subsets x 6 vectors"
    if not report.all_passed:
        return False, f"{detail}; first failure {_first_failure(report)}"
    return True, detail


def suite_theorem1_roundtrip(rng: random.Random, instances: int,
                             max_dim: int) -> Tuple[bool, str]:
    for trial in range(instances):
        dim = rng.randint(1, max_dim)
        x = random_representer(rng, dim)
        recovered = recover_representer(FunctionalRep(x), dim)
        if recovered.coords != x.coords:
            return False, f"instance {trial}: recovered {recovered!r} from {x!r}"
        for _ in range(_PROBES):
            p = random_vector(rng, dim)
            if star_eval(recovered, p) != star_eval(x, p):
                return False, f"instance {trial}: probe {p!r} disagrees"
    return True, f"{instances} representers, {_PROBES} probes each, exact"


def suite_theorem1_alinearity(rng: random.Random, instances: int) -> Tuple[bool, str]:
    for trial in range(instances):
        dim = rng.randint(1, 4)
        x = random_representer(rng, dim)
        tests = [random_vector(rng, dim) for _ in range(_ALINEAR_VECTORS)]
        scalars = [BOTTOM, ONE] + [random_scalar(rng) for _ in range(_ALINEAR_SCALARS - 2)]
        report = check_a_linear(FunctionalRep(x), tests, scalars)
        if not report.all_passed:
            return False, f"instance {trial}: {_first_failure(report)}"
    return True, (f"{instances} functionals, all {2 ** _ALINEAR_VECTORS} subsets "
                  "+ homogeneity")


def suite_theorem2_extension(rng: random.Random, instances: int,
                             max_dim: int) -> Tuple[bool, str]:
    for trial in range(instances):
        dim = rng.randint(2, max_dim)
        hidden = random_representer(rng, dim)
        gens = [random_nonzero_vector(rng, dim) for _ in range(rng.randint(1, 4))]
        basis = SpanBasis.of(gens)
        values = [star_eval(hidden, g) for g in basis.generators]
        f = extend_functional(basis, values, dim)
        for g, v in zip(basis.generators, values):
            if f(g) != v:
                return False, f"instance {trial}: restriction mismatch on {g!r}"
    # a dependent prescription that no a-linear functional satisfies
    bad_basis = SpanBasis.of([vector([0, 0]), vector([1, 1])])
    try:
        extend_functional(bad_basis, [finite(0), finite(0)], 2)
    except InconsistentValuesError:
        return True, (f"{instances} consistent instances restrict exactly; "
                      "inconsistent instance rejected")
    return False, "inconsistent prescription was not rejected"


def suite_theorem2_separation(rng: random.Random, pairs: int) -> Tuple[bool, str]:
    fallback_hits = 0
    for trial in range(pairs):
        dim = rng.randint(1, 5)
        x = random_vector(rng, dim)
        y = random_vector(rng, dim)
        if x.coords == y.coords:
            continue
        f = separate_points(x, y)
        if f(x) == f(y):
            return False, f"instance {trial}: {x!r} and {y!r} not separated"
        if f.representer.coords == y.coords and f.representer.coords != x.coords:
            fallback_hits += 1
    return True, f"{pairs} random pairs separated; fallback used {fallback_hits} times"


def suite_proposition2(rng: random.Random, instances: int) -> Tuple[bool, str]:
    for trial in range(instances):
        dim = rng.randint(1, 5)
        family = [FunctionalRep(random_vector(rng, dim))
                  for _ in range(rng.randint(1, 5))]
        p = pointwise_sup(family)
        if p.representer.coords != v_inf([f.representer for f in family]).coords:
            return False, f"instance {trial}: representer is not the meet"
        for _ in range(_SUP_PROBES):
            probe = random_vector(rng, dim)
            if p(probe) != big_sup(f(probe) for f in family):
                return False, f"instance {trial}: probe {probe!r} disagrees"
    return True, f"{instances} families, {_SUP_PROBES} probes each, exact"


def _sup_closure(vectors: Sequence[FinVector]) -> List[FinVector]:
    """Close under binary sups, in order of discovery; n vectors close to at most 2^n - 1."""
    seen = {v.coords: v for v in vectors}
    size = 0
    while size != len(seen):
        size = len(seen)
        for a in list(seen.values()):
            for b in list(seen.values()):
                s = semimodules.v_add(a, b)
                seen.setdefault(s.coords, s)
    return list(seen.values())


def suite_proposition3(rng: random.Random, instances: int) -> Tuple[bool, str]:
    for trial in range(instances):
        dim = rng.randint(1, 4)
        x = random_representer(rng, dim)
        closed = _sup_closure([random_vector(rng, dim) for _ in range(3)])
        f = FunctionalRep(x)
        pairs = [(v, FinVector((f(v),))) for v in closed]
        report = graph_sup_closed(LinearMapSample.of(pairs))
        if not report.all_passed:
            return False, f"instance {trial}: {_first_failure(report)}"
    bad = LinearMapSample.of([
        (vector([0, BOTTOM]), vector([0])),
        (vector([BOTTOM, 0]), vector([0])),
    ])
    if graph_sup_closed(bad).all_passed:
        return False, "non-sup-closed sample was not reported"
    return True, f"{instances} sampled graphs closed; broken sample reported"


def suite_proposition4(rng: random.Random, instances: int) -> Tuple[bool, str]:
    for trial in range(instances):
        n = rng.randint(1, _MAX_POINTS)
        x = _random_element(rng, n, proper=True)
        y = _random_element(rng, n, proper=False)
        report = semialgebra.check_prop4(x, y)
        if not report.all_passed:
            return False, f"instance {trial}: {_first_failure(report)}"
    return True, f"{instances} invertible elements, exact equality"


def suite_theorem3(rng: random.Random, instances: int) -> Tuple[bool, str]:
    for trial in range(instances):
        n = rng.randint(1, _MAX_POINTS)
        hidden = _random_element(rng, n, proper=True)
        f = lambda y: semialgebra.scalar_product(y, hidden)
        recovered = semialgebra.riesz_representer(f, hidden.labels)
        if recovered.vec.coords != hidden.vec.coords:
            return False, f"instance {trial}: recovered {recovered!r}"
        for _ in range(_PROBES):
            probe = _random_element(rng, n, proper=False)
            if f(probe) != semialgebra.scalar_product(probe, recovered):
                return False, f"instance {trial}: probe disagrees"
    return True, f"{instances} hidden elements recovered exactly"


def all_small_posets(max_n: int) -> List[order.FiniteIS]:
    """Every poset on up to max_n elements, one per isomorphism class at least.

    Enumerates order relations compatible with the index order; since every
    finite poset has a linear extension, this hits every isomorphism type.
    """
    posets = []
    for n in range(max_n + 1):
        above = [(i, j) for i in range(n) for j in range(i + 1, n)]
        labels = tuple(chr(ord("a") + i) for i in range(n))
        for mask in range(1 << len(above)):
            rel = {(i, i) for i in range(n)}
            rel.update(p for k, p in enumerate(above) if mask >> k & 1)
            try:
                posets.append(order.FiniteIS(labels, frozenset(rel)))
            except order.PosetError:  # reflexive and antisymmetric, so not transitive
                continue
    return posets


def suite_dm_completion() -> Tuple[bool, str]:
    anti = order.FiniteIS.antichain(["a", "b"])
    result = order.dm_completion(anti)
    if len(result.completed.elements) != 4:
        return False, f"2-antichain completed to {len(result.completed.elements)} elements"
    checked = 0
    for s in all_small_posets(_POSET_MAX_N):
        first = order.dm_completion(s)
        second = order.dm_completion(first.completed)
        # idempotence: the second completion is a bijective order embedding
        if len(second.completed.elements) != len(first.completed.elements):
            return False, f"completion not idempotent on {s.elements}"
        n = len(s.elements)
        emb = {lab: first.completed.index(first.embedding[lab]) for lab in s.elements}
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            j = s.join_index(subset)
            if j is None:
                continue
            image = [emb[s.elements[i]] for i in subset]
            jj = first.completed.join_index(image)
            if jj != emb[s.elements[j]]:
                return False, f"join of {subset} not preserved on {s.elements}"
        checked += 1
    return True, (f"antichain gives 4 elements; idempotence and join "
                  f"preservation on {checked} posets (n <= {_POSET_MAX_N})")


def run_selftest(seed: int, dim: int, samples: int) -> Tuple[List[str], bool]:
    """Run every suite with one seeded generator; returns scoreboard lines and overall status.

    A suite that raises fails with "raised <type>: <message>" as its detail, and
    the suites after it still run.
    """
    rng = random.Random(seed)
    # The suites run in this order, which fixes the draws from rng.
    suites = (
        ("semiring-axioms", suite_semiring_axioms, ()),
        ("b-space-axioms", suite_b_space_axioms, (rng,)),
        ("dm-completion", suite_dm_completion, ()),
        ("theorem-1-round-trip", suite_theorem1_roundtrip, (rng, samples, dim)),
        ("theorem-1-a-linearity", suite_theorem1_alinearity, (rng, max(1, samples // 10))),
        ("theorem-2-extension", suite_theorem2_extension, (rng, samples, max(2, dim))),
        ("theorem-2-separation", suite_theorem2_separation, (rng, samples)),
        ("proposition-2", suite_proposition2, (rng, max(1, samples // 4))),
        ("proposition-3", suite_proposition3, (rng, max(1, samples // 10))),
        ("proposition-4", suite_proposition4, (rng, samples)),
        ("theorem-3", suite_theorem3, (rng, max(1, samples // 2))),
    )
    lines, ok = [], True
    for name, suite, args in suites:
        try:
            passed, detail = suite(*args)
        except Exception as exc:  # a fault in one suite must not hide the others' lines
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        lines.append(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
        ok = ok and bool(passed)
    return lines, ok
