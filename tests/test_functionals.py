import random
import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from maxplus.functionals import LinearMapSample
from maxplus.report import MAX_SUBSET_ITEMS
from _oracles import graph_violation_oracle, span_sup_oracle, star_oracle, sup_div_oracle

rng = random.Random(2024)


def rand_vec(dim, allow_top=False):
    coords = []
    for _ in range(dim):
        r = rng.random()
        if r < 0.15:
            coords.append(mp.BOTTOM)
        elif allow_top and r < 0.22:
            coords.append(mp.TOP)
        else:
            coords.append(mp.finite(rng.randint(-10, 10)))
    return mp.FinVector(tuple(coords))


# --- star evaluation ---------------------------------------------------------

def test_star_eval_basic():
    x = mp.vector([0, -1, 2])
    y = mp.vector([1, 1, 1])
    assert star_oracle(x, y) == mp.finite(2)
    assert mp.star_eval(x, y) == mp.finite(2)


def test_star_eval_zero_target():
    assert mp.star_eval(mp.vector([0, 0]), mp.zero_vector(2)) == mp.BOTTOM


def test_star_eval_unreachable():
    x = mp.vector([mp.BOTTOM, 0])
    y = mp.vector([1, 0])
    assert star_oracle(x, y) == mp.TOP
    assert mp.star_eval(x, y) == mp.TOP


def test_star_eval_against_scan_oracle():
    # random vectors without +inf representer coordinates, where the grid scan is exact
    for _ in range(300):
        dim = rng.randint(1, 4)
        x = rand_vec(dim)
        y = rand_vec(dim, allow_top=True)
        assert mp.star_eval(x, y) == star_oracle(x, y)


def test_star_eval_top_representer_coordinate():
    # a +inf coordinate of the representer satisfies every nonzero scaling,
    # so it contributes the empty constraint
    x = mp.vector([mp.TOP, 0])
    assert mp.star_eval(x, mp.vector([5, mp.BOTTOM])) == mp.BOTTOM
    assert mp.star_eval(x, mp.vector([5, 1])) == mp.finite(1)


# Coordinates in [-10, 10] keep the grid scan exact; the representer has no +inf
# coordinate, whose residual against a finite target is an infimum the grid
# cannot reach.  -inf is drawn a third of the time in x and in y, +inf another
# third in y.
star_ints = st.integers(min_value=-10, max_value=10).map(mp.finite)
star_x = st.one_of(st.just(mp.BOTTOM), star_ints, star_ints)
star_y = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP), star_ints)


@st.composite
def labeled_pair(draw, x_coords, y_coords):
    """Two vectors of one dimension; either, both or neither carries the same labels."""
    dim = draw(st.integers(min_value=0, max_value=5))
    labels = tuple("abcde"[:dim])
    x = draw(st.lists(x_coords, min_size=dim, max_size=dim))
    y = draw(st.lists(y_coords, min_size=dim, max_size=dim))
    x_labeled, y_labeled = draw(st.booleans()), draw(st.booleans())
    return (mp.FinVector(tuple(x), labels if x_labeled else None),
            mp.FinVector(tuple(y), labels if y_labeled else None))


@given(labeled_pair(star_x, star_y))
def test_star_eval_matches_scan_and_composition(pair):
    x, y = pair
    value = mp.star_eval(x, y)
    assert value == star_oracle(x, y)
    want = sup_div_oracle(y.coords, x.coords)
    assert value == want and type(value.q) is type(want.q)


def test_star_eval_order_reversing_in_representer():
    for _ in range(100):
        dim = rng.randint(1, 4)
        x = rand_vec(dim, allow_top=True)
        bigger = mp.v_add(x, rand_vec(dim, allow_top=True))
        y = rand_vec(dim, allow_top=True)
        assert mp.leq(mp.star_eval(bigger, y), mp.star_eval(x, y))


# --- representer recovery ----------------------------------------------------

def test_recover_round_trip():
    hidden = mp.vector([1, -2, 0])
    recovered = mp.recover_representer(mp.FunctionalRep(hidden), 3)
    assert recovered.coords == hidden.coords
    for _ in range(100):
        p = rand_vec(3, allow_top=True)
        assert mp.star_eval(recovered, p) == mp.star_eval(hidden, p)


def test_recover_sup_of_coordinates_functional():
    # the sup-of-values functional is represented by the all-one vector
    recovered = mp.recover_representer(lambda v: mp.big_sup(v.coords), 4)
    assert recovered == mp.vector([0, 0, 0, 0])


def test_recover_bottom_probe_gives_top_coordinate():
    hidden = mp.FinVector((mp.TOP, mp.finite(1)))
    recovered = mp.recover_representer(mp.FunctionalRep(hidden), 2)
    assert recovered.coords == hidden.coords


def test_recover_zero_functional_errors():
    with pytest.raises(mp.ZeroFunctionalError):
        mp.recover_representer(lambda v: mp.BOTTOM, 3)


def test_recover_refuses_an_oracle_value_that_is_not_a_scalar():
    # e_0 gets a scalar, e_1 an int: the error names the int, not an attribute
    oracle = lambda v: mp.ONE if v.coords[0] == mp.ONE else 0
    with pytest.raises(TypeError, match="oracle returned int, not an ExtendedScalar"):
        mp.recover_representer(oracle, 2)


def test_recovery_identity_holds_for_every_kind():
    # star_eval(x, e_i) reads coordinate i alone, as s_div(ONE, x_i), and recovery
    # returns its conjugate; this is why recovery needs no re-check.
    for text in ("-inf", "-1/2", "0", "3", str(10 ** 50), "+inf"):
        v = mp.parse_scalar(text)
        assert mp.s_conj(mp.s_div(mp.ONE, v)) == v


def test_recover_plain_oracles():
    weights = (mp.finite(2), mp.BOTTOM, mp.TOP, mp.finite(Fraction(-1, 2)))
    probes = []

    def weighted(v):
        probes.append(v.coords)
        return mp.big_sup(mp.s_mul(w, c) for w, c in zip(weights, v.coords))

    assert mp.recover_representer(weighted, 4) == mp.vector([-2, mp.TOP, mp.BOTTOM, "1/2"])
    assert probes == [mp.unit_vector(i, 4).coords for i in range(4)]
    assert (mp.recover_representer(lambda v: mp.finite(Fraction(3, 2)), 3)
            == mp.vector(["-3/2"] * 3))


def test_recover_random_round_trips():
    for _ in range(200):
        dim = rng.randint(1, 6)
        hidden = rand_vec(dim, allow_top=True)
        if hidden.is_all_top():
            continue
        recovered = mp.recover_representer(mp.FunctionalRep(hidden), dim)
        assert recovered.coords == hidden.coords


# --- extension ---------------------------------------------------------------

def test_extend_single_generator():
    basis = mp.SpanBasis.of([mp.vector([0, 0])])
    f = mp.extend_functional(basis, [mp.ONE], 2)
    assert f(mp.vector([3, 1])) == star_oracle(f.representer, mp.vector([3, 1]))
    assert f(mp.vector([3, 1])) == mp.finite(3)


def test_extend_generator_with_bottom_coordinate():
    basis = mp.SpanBasis.of([mp.vector([0, mp.BOTTOM])])
    f = mp.extend_functional(basis, [mp.finite(2)], 2)
    assert f(mp.vector([0, mp.BOTTOM])) == mp.finite(2)
    assert f.representer.coords[0] == mp.finite(-2)


def test_extend_inconsistent_values_rejected():
    # the second generator is a scaling of the first, forcing its value
    basis = mp.SpanBasis.of([mp.vector([0, 0]), mp.vector([1, 1])])
    with pytest.raises(mp.InconsistentValuesError) as err:
        mp.extend_functional(basis, [mp.finite(0), mp.finite(0)], 2)
    assert err.value.witness in (0, 1)


def test_extend_restricts_exactly_on_random_consistent_instances():
    for _ in range(200):
        dim = rng.randint(2, 6)
        hidden = rand_vec(dim, allow_top=True)
        if hidden.is_all_top():
            continue
        gens = []
        while len(gens) < rng.randint(1, 4):
            g = rand_vec(dim, allow_top=True)
            if not g.is_zero():
                gens.append(g)
        basis = mp.SpanBasis.of(gens)
        values = [mp.star_eval(hidden, g) for g in basis.generators]
        f = mp.extend_functional(basis, values, dim)
        for g, v in zip(basis.generators, values):
            assert f(g) == v


# The refusals and labels of the generator fold, pinned before the span kernel replaced it.
def test_extension_refuses_generators_whose_labels_disagree():
    ab, ba = mp.vector([0, 1], labels=["a", "b"]), mp.vector([2, 3], labels=["b", "a"])
    with pytest.raises(mp.DimensionMismatchError, match="coordinate labels disagree"):
        mp.extend_functional(mp.SpanBasis.of([ab, ba]), [mp.ONE, mp.ONE], 2)


def test_extension_refuses_generators_of_mixed_dimensions():
    basis = mp.SpanBasis((mp.vector([0, 1]), mp.vector([0])))
    with pytest.raises(mp.DimensionMismatchError, match="dimension mismatch: 2 vs 1"):
        mp.extend_functional(basis, [mp.ONE, mp.ONE], 2)


def test_empty_span_extends_to_the_ambient_zero():
    f = mp.extend_functional(mp.SpanBasis(()), [], 3)
    assert f.representer == mp.zero_vector(3) and f.representer.labels is None


def test_extension_carries_the_first_labeled_generators_labels():
    plain, ab = mp.vector([0, 0]), mp.vector([1, 2], labels=["a", "b"])
    f = mp.extend_functional(mp.SpanBasis((plain, ab)), [mp.ONE, mp.finite(2)], 2)
    assert f.representer == mp.vector([0, 0], labels=["a", "b"])


def test_functional_constructions_refuse_missing_inputs():
    with pytest.raises(ValueError, match="one prescribed value per generator is required"):
        mp.extend_functional(mp.SpanBasis.of([mp.vector([0, 1])]), [], 2)
    with pytest.raises(ValueError, match="pointwise supremum needs at least one functional"):
        mp.pointwise_sup([])
    with pytest.raises(ValueError, match="need at least one test vector"):
        mp.check_a_linear(mp.FunctionalRep(mp.vector([0])), [])
    with pytest.raises(ValueError, match="empty graph sample"):
        mp.graph_sup_closed(LinearMapSample(()))


def extension_by_composition(generators, values, dim):
    """extend_functional with the candidate composed as a v_add fold of v_scale."""
    x = span_sup_oracle([mp.s_div(mp.ONE, v) for v in values], generators, dim)
    if x.dim != dim:
        raise mp.DimensionMismatchError("generators do not live in the ambient dimension")
    bad = next((i for i, (g, v) in enumerate(zip(generators, values))
                if mp.star_eval(x, g) != v), None)
    return x if bad is None else bad


# -inf and +inf are drawn half of the time; labelings are none, one or its
# reverse; a vector is one coordinate short an eighth of the time.
extension_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP),
                              st.integers(-6, 6).map(mp.finite),
                              st.fractions(-6, 6, max_denominator=2).map(mp.finite))
extension_vectors = st.tuples(st.lists(extension_scalars, min_size=3, max_size=3),
                              st.integers(0, 7),
                              st.sampled_from([None, None, ("a", "b", "c"), ("c", "b", "a")])
                              ).map(lambda t: mp.FinVector(tuple(t[0][:2 + (t[1] > 0)]),
                                                           t[2] if t[1] else None))


@given(st.lists(extension_vectors, max_size=4), extension_vectors, st.booleans(),
       st.lists(extension_scalars, min_size=4, max_size=4))
def test_extension_matches_its_composition(generators, hidden, consistent, drawn):
    if consistent and hidden.dim == 3 and not hidden.is_all_top():
        values = [mp.star_eval(mp.FinVector(hidden.coords), mp.FinVector(g.coords))
                  if g.dim == 3 else mp.ONE for g in generators]
    else:
        values = drawn[:len(generators)]
    try:
        want = extension_by_composition(generators, values, 3)
    except ValueError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            mp.extend_functional(mp.SpanBasis(tuple(generators)), values, 3)
        return
    if isinstance(want, int):
        with pytest.raises(mp.InconsistentValuesError) as err:
            mp.extend_functional(mp.SpanBasis(tuple(generators)), values, 3)
        assert err.value.witness == want
        return
    got = mp.extend_functional(mp.SpanBasis(tuple(generators)), values, 3).representer
    assert got == want  # FinVector equality compares the labels too
    assert [type(c.q) for c in got.coords] == [type(c.q) for c in want.coords]


# --- separation --------------------------------------------------------------

def test_separate_direct_branch():
    x = mp.vector([0, 0])
    y = mp.vector([1, 0])
    f = mp.separate_points(x, y)
    assert f.representer == x
    assert f(x) == mp.finite(0)
    assert f(y) == mp.finite(1)


def test_separate_fallback_branch():
    x = mp.vector([1, 0])
    y = mp.vector([0, 0])
    f = mp.separate_points(x, y)
    # the dual of x values both points at one, so the dual of y must act
    assert mp.star_eval(x, x) == mp.star_eval(x, y) == mp.finite(0)
    assert f.representer == y
    assert f(x) == mp.finite(1)
    assert f(y) == mp.finite(0)


def test_separate_zero_vector():
    x = mp.zero_vector(2)
    y = mp.vector([0, mp.BOTTOM])
    f = mp.separate_points(x, y)
    assert f(x) != f(y)
    assert f(x) == mp.BOTTOM


def test_separate_equal_points_error():
    with pytest.raises(mp.EqualPointsError):
        mp.separate_points(mp.vector([1, 2]), mp.vector([1, 2]))


def test_separation_totality():
    for _ in range(500):
        dim = rng.randint(1, 5)
        x = rand_vec(dim, allow_top=True)
        y = rand_vec(dim, allow_top=True)
        if x.coords == y.coords:
            continue
        f = mp.separate_points(x, y)
        assert f(x) != f(y)


# --- pointwise suprema -------------------------------------------------------

def test_pointwise_sup_pair():
    f1 = mp.FunctionalRep(mp.vector([0, 5]))
    f2 = mp.FunctionalRep(mp.vector([5, 0]))
    p = mp.pointwise_sup([f1, f2])
    assert p.representer == mp.vector([0, 0])
    probe = mp.vector([1, 1])
    assert p(probe) == mp.big_sup([f1(probe), f2(probe)]) == mp.finite(1)


def test_pointwise_sup_singleton_and_idempotent():
    f = mp.FunctionalRep(mp.vector([2, -1]))
    assert mp.pointwise_sup([f]).representer == f.representer
    assert mp.pointwise_sup([f, f]).representer == f.representer


def test_pointwise_sup_agrees_on_probes():
    for _ in range(100):
        dim = rng.randint(1, 4)
        family = [mp.FunctionalRep(rand_vec(dim, allow_top=True))
                  for _ in range(rng.randint(1, 5))]
        p = mp.pointwise_sup(family)
        for _ in range(20):
            probe = rand_vec(dim, allow_top=True)
            assert p(probe) == mp.big_sup(f(probe) for f in family)


# --- a-linearity and graphs --------------------------------------------------

def test_star_functional_is_a_linear():
    x = rand_vec(3, allow_top=True)
    tests = [rand_vec(3, allow_top=True) for _ in range(6)]
    scalars = [mp.BOTTOM, mp.ONE, mp.finite(3), mp.finite(-7)]
    report = mp.check_a_linear(mp.FunctionalRep(x), tests, scalars)
    assert report.all_passed


def test_scaling_map_is_a_linear():
    tests = [rand_vec(2) for _ in range(5)]
    report = mp.check_a_linear(lambda v: mp.v_scale(mp.finite(3), v), tests,
                               [mp.finite(1), mp.BOTTOM])
    assert report.all_passed


def test_negation_map_fails_with_witness():
    def negate(v):
        out = []
        for c in v.coords:
            if c.is_bottom():
                out.append(mp.TOP)
            elif c.is_top():
                out.append(mp.BOTTOM)
            else:
                out.append(mp.finite(-c.q))
        return mp.FinVector(tuple(out))

    tests = [mp.vector([0, 1]), mp.vector([1, 0]), mp.vector([2, 2])]
    report = mp.check_a_linear(negate, tests, [])
    entry = report.entry("sup-preservation")
    assert not entry.passed
    assert entry.witness is not None
    # The empty subset already fails (negation sends the zero to +inf), and its
    # witness is the falsy () rather than a missing one.
    assert entry.witness == ()


def test_labeling_map_is_a_linear():
    # the images' empty supremum carries the labels of the image of zero
    relabel = lambda v: mp.FinVector(v.coords, ("a", "b"))
    report = mp.check_a_linear(relabel, [mp.vector([0, 1]), mp.vector([2, -1])], [mp.ONE])
    assert report.lines() == ["sup-preservation: PASS", "homogeneity: PASS"]


def test_sup_preservation_joins_through_functionals_v_add(monkeypatch):
    # a supremum that keeps its left operand must show up as a sup-preservation failure
    f = mp.FunctionalRep(mp.vector([0, 0]))
    assert mp.check_a_linear(f, [mp.vector([0, 1]), mp.vector([2, -1])]).all_passed
    monkeypatch.setattr(mp.functionals, "v_add", lambda a, b: a)
    report = mp.check_a_linear(f, [mp.vector([0, 1]), mp.vector([2, -1])])
    assert not report.entry("sup-preservation").passed


def test_homogeneity_skips_top_and_no_other_scalar():
    # each map fails homogeneity at one infinite scalar only
    xs = [mp.vector([0, 1]), mp.vector([2, -1])]
    # +inf is skipped: this map sends every vector with a +inf coordinate to the zero
    drop_top = lambda v: mp.zero_vector(v.dim) if any(c.is_top() for c in v.coords) else v
    assert mp.check_a_linear(drop_top, xs, [mp.TOP]).all_passed
    # -inf is checked: adding a constant sends -inf * x to the constant, not to the zero
    shift = lambda v: mp.v_add(v, mp.vector([0, 0]))
    assert mp.check_a_linear(shift, xs, [mp.BOTTOM]).entry("homogeneity").witness == (
        mp.BOTTOM, xs[0])


def test_map_changing_output_dimension_is_refused():
    grow = lambda v: mp.zero_vector(1) if v.is_zero() else v
    with pytest.raises(mp.DimensionMismatchError):
        mp.check_a_linear(grow, [mp.vector([0, 1])])


def test_a_linearity_refuses_a_map_whose_values_are_neither_scalars_nor_vectors():
    with pytest.raises(TypeError, match="map returned int, not an ExtendedScalar or a FinVector"):
        mp.check_a_linear(lambda v: 0, [mp.vector([0, 1])])


def test_a_linearity_refuses_a_family_of_mixed_dimensions_or_labels():
    # the map would fail sup-preservation on the empty subset: the refusal comes first
    for tests, message in (
            ([mp.vector([1, 2]), mp.vector([1, 2, 3])], "dimension mismatch: 2 vs 3"),
            ([mp.vector([1, 2], ["a", "b"]), mp.vector([1, 2], ["b", "a"])],
             "coordinate labels disagree")):
        with pytest.raises(mp.DimensionMismatchError, match=f"^{message}$"):
            mp.check_a_linear(lambda x: mp.ONE, tests)


def test_a_linearity_subset_bound():
    tests = [mp.vector([i]) for i in range(MAX_SUBSET_ITEMS)]
    f = mp.FunctionalRep(mp.vector([0]))
    calls = []
    counted = lambda v: calls.append(v) or f(v)
    assert mp.check_a_linear(counted, tests).all_passed
    calls.clear()
    with pytest.raises(ValueError, match=f"at most {MAX_SUBSET_ITEMS} items"):
        mp.check_a_linear(counted, tests + [mp.vector([-1])])
    assert calls == []  # refused before the map is called


def test_graph_sup_closed_on_functional_sample():
    x = mp.vector([1, -1])
    f = mp.FunctionalRep(x)
    base = [mp.vector([0, 0]), mp.vector([2, -3]), mp.vector([-1, 4])]
    closed = {v.coords: v for v in base}
    for a in base:
        for b in base:
            s = mp.v_add(a, b)
            closed[s.coords] = s
    pairs = [(v, mp.FinVector((f(v),))) for v in closed.values()]
    assert mp.graph_sup_closed(LinearMapSample.of(pairs)).all_passed


def test_graph_missing_sup_pair_reported():
    pairs = [
        (mp.vector([0, mp.BOTTOM]), mp.vector([0])),
        (mp.vector([mp.BOTTOM, 0]), mp.vector([0])),
    ]
    report = mp.graph_sup_closed(LinearMapSample.of(pairs))
    entry = report.entry("graph-sup-closed")
    assert not entry.passed
    assert entry.witness is not None


def test_graph_refuses_mixed_dimensions_before_judging_a_pair():
    # the first pair violates closure, and a third input or output has another dimension
    line = [mp.vector([0, mp.BOTTOM]), mp.vector([mp.BOTTOM, 0])]
    for inputs, outputs in (
            (line + [mp.vector([1, 2, 3])], [mp.vector([0])] * 3),
            (line + [mp.vector([5, 5])], [mp.vector([0])] * 2 + [mp.vector([1, 2])])):
        with pytest.raises(mp.DimensionMismatchError, match="^dimension mismatch: "):
            mp.graph_sup_closed(LinearMapSample.of(zip(inputs, outputs)))


def test_graph_singleton_closed():
    pairs = [(mp.vector([1, 2]), mp.vector([3]))]
    assert mp.graph_sup_closed(LinearMapSample.of(pairs)).all_passed


def oracle_lines(pairs):
    witness = graph_violation_oracle(pairs)
    if witness is None:
        return ["graph-sup-closed: PASS"]
    return [f"graph-sup-closed: FAIL witness={witness!r}"]


# -inf is drawn about half the time; +inf and the finite values share the rest.
graph_scalars = st.one_of(st.just(mp.BOTTOM), st.one_of(
    st.just(mp.TOP), st.integers(min_value=-1, max_value=1).map(mp.finite)))
graph_vectors = st.lists(graph_scalars, min_size=2, max_size=2).map(
    lambda c: mp.FinVector(tuple(c)))


@given(st.lists(graph_vectors, min_size=1, max_size=8, unique_by=lambda v: v.coords),
       st.booleans(), st.data())
def test_graph_check_matches_subset_oracle(inputs, functional, data):
    if functional:
        # the graph of an a-linear functional passes whenever it is sup-closed
        f = mp.FunctionalRep(data.draw(graph_vectors))
        outputs = [mp.FinVector((f(v),)) for v in inputs]
    else:
        outputs = data.draw(st.lists(graph_vectors, min_size=len(inputs),
                                     max_size=len(inputs)))
    pairs = list(zip(inputs, outputs))
    assert mp.graph_sup_closed(LinearMapSample.of(pairs)).lines() == oracle_lines(pairs)


def relabeled(vectors, labels, modes):
    """Each vector with labels: the shared tuple, an equal copy of it, or None."""
    pick = {"shared": lambda: labels, "copy": lambda: tuple(list(labels)), "none": lambda: None}
    return [mp.FinVector(v.coords, pick[mode]()) for v, mode in zip(vectors, modes)]


@given(st.lists(graph_vectors, min_size=1, max_size=8, unique_by=lambda v: v.coords),
       st.data())
def test_graph_check_matches_subset_oracle_on_labeled_samples(inputs, data):
    # the check joins labels once per family and then adds bare coordinate tuples
    modes = st.lists(st.sampled_from(["shared", "copy", "none"]),
                     min_size=len(inputs), max_size=len(inputs))
    outputs = data.draw(st.lists(graph_vectors, min_size=len(inputs), max_size=len(inputs)))
    pairs = list(zip(relabeled(inputs, ("a", "b"), data.draw(modes)),
                     relabeled(outputs, ("u", "v"), data.draw(modes))))
    assert mp.graph_sup_closed(LinearMapSample.of(pairs)).lines() == oracle_lines(pairs)


def test_graph_check_has_no_pair_cap():
    chain = [(mp.vector([k, 2 * k]), mp.vector([k])) for k in range(20)]
    assert mp.graph_sup_closed(LinearMapSample.of(chain)).all_passed
    broken = chain[:18] + [(mp.vector([30, mp.BOTTOM]), mp.vector([0])),
                           (mp.vector([mp.BOTTOM, 30]), mp.vector([0]))]
    report = mp.graph_sup_closed(LinearMapSample.of(broken))
    assert not report.all_passed
    assert report.lines() == oracle_lines(broken)


def test_graph_duplicate_inputs_rejected():
    with pytest.raises(ValueError):
        LinearMapSample.of([(mp.vector([1]), mp.vector([1])),
                            (mp.vector([1]), mp.vector([2]))])
