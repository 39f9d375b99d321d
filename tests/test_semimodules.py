import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from maxplus.report import MAX_SUBSET_ITEMS
from maxplus.semimodules import _join_labels, span_sup
from _oracles import (fold_failures_oracle, greatest_scaling, inf_div_dual_oracle,
                      span_member_oracle, span_sup_oracle, v_add_oracle, v_leq_oracle,
                      v_scale_oracle)

finites = st.integers(min_value=-10, max_value=10).map(mp.finite)
scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP), finites)


def vectors(dim):
    return st.tuples(*[scalars] * dim).map(lambda t: mp.FinVector(t))


def test_v_add_coordinatewise():
    x = mp.vector([1, mp.BOTTOM])
    y = mp.vector([0, 3])
    assert mp.v_add(x, y) == mp.vector([1, 3])


def test_one_scales_identically():
    x = mp.vector([2, 5])
    assert mp.v_scale(mp.ONE, x) == x


def test_zero_scalar_annihilates():
    assert mp.v_scale(mp.BOTTOM, mp.vector([2, 5])) == mp.zero_vector(2)


def test_dimension_mismatch():
    with pytest.raises(mp.DimensionMismatchError):
        mp.v_add(mp.vector([1]), mp.vector([1, 2]))


def test_v_sup_v_inf():
    with pytest.raises(mp.DimensionMismatchError, match="empty family"):
        mp.v_sup([])
    xs = [mp.vector([1, 0]), mp.vector([0, 2])]
    assert mp.v_sup(xs) == mp.vector([1, 2])
    assert mp.v_inf(xs) == mp.vector([0, 0])
    with pytest.raises(mp.DimensionMismatchError, match="empty family"):
        mp.v_inf([])


@given(vectors(3), vectors(3), vectors(3))
def test_v_add_laws(x, y, z):
    assert mp.v_add(x, y) == mp.v_add(y, x)
    assert mp.v_add(x, x) == x
    assert mp.v_add(x, mp.v_add(y, z)) == mp.v_add(mp.v_add(x, y), z)


@given(scalars, scalars, vectors(3))
def test_scale_compatibility(a, b, x):
    assert mp.v_scale(a, mp.v_scale(b, x)) == mp.v_scale(mp.s_mul(a, b), x)


@given(scalars, vectors(3), vectors(3))
def test_scale_distributes(k, x, y):
    lhs = mp.v_scale(k, mp.v_add(x, y))
    rhs = mp.v_add(mp.v_scale(k, x), mp.v_scale(k, y))
    assert lhs == rhs


def test_span_basis_strips_zero_generators():
    basis = mp.SpanBasis.of([mp.zero_vector(2), mp.vector([0, 0])])
    assert basis.count == 1


def test_projection_member():
    y = mp.vector([3, 3])
    basis = mp.SpanBasis.of([mp.vector([0, 0])])
    projection, member = mp.project_onto_span(y, basis)
    k = greatest_scaling(basis.generators[0], y)
    assert projection == mp.v_scale(k, basis.generators[0]) == y
    assert member


def test_projection_non_member():
    y = mp.vector([3, 1])
    basis = mp.SpanBasis.of([mp.vector([0, 0])])
    projection, member = mp.project_onto_span(y, basis)
    assert greatest_scaling(basis.generators[0], y) == mp.finite(1)
    assert projection == mp.vector([1, 1])
    assert not member


def test_projection_of_zero():
    basis = mp.SpanBasis.of([mp.vector([2, -1])])
    projection, member = mp.project_onto_span(mp.zero_vector(2), basis)
    assert projection == mp.zero_vector(2)
    assert member


def test_projection_with_bottom_and_top_generator_coords():
    # a -inf generator coordinate never constrains the coefficient;
    # a +inf one pins it to -inf unless the target is +inf too
    basis = mp.SpanBasis.of([mp.vector([0, mp.BOTTOM])])
    projection, member = mp.project_onto_span(mp.vector([2, 5]), basis)
    assert projection == mp.vector([2, mp.BOTTOM])
    assert not member

    basis = mp.SpanBasis.of([mp.vector([mp.TOP, 0])])
    projection, member = mp.project_onto_span(mp.vector([1, 1]), basis)
    assert projection == mp.zero_vector(2)
    assert not member


# -inf and +inf are drawn half of the time; halves make Fraction coefficients.
projection_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP), finites,
                               st.fractions(-6, 6, max_denominator=2).map(mp.finite))


@given(st.lists(st.tuples(projection_scalars, projection_scalars), max_size=6),
       st.booleans(), st.booleans())
def test_projection_coefficient_matches_its_composition(pairs, g_labeled, y_labeled):
    labels = tuple(f"c{i}" for i in range(len(pairs)))
    g = mp.FinVector(tuple(p[0] for p in pairs), labels if g_labeled else None)
    y = mp.FinVector(tuple(p[1] for p in pairs), labels if y_labeled else None)
    projection, member = mp.project_onto_span(y, mp.SpanBasis.of([g]))
    want = mp.v_scale(inf_div_dual_oracle(y.coords, g.coords), g).coords
    if g.is_zero():
        want = mp.zero_vector(y.dim).coords
    assert projection.coords == want and projection.labels == y.labels
    assert [type(c.q) for c in projection.coords] == [type(c.q) for c in want]
    assert member == (want == y.coords)


def test_projection_refuses_generators_whose_labels_disagree():
    # each generator agrees with the unlabeled target, but not with the other
    ab, ba = mp.vector([0, 1], labels=["a", "b"]), mp.vector([2, 3], labels=["b", "a"])
    with pytest.raises(mp.DimensionMismatchError, match="coordinate labels disagree"):
        mp.project_onto_span(mp.vector([0, 0]), mp.SpanBasis.of([ab, ba]))
    assert mp.project_onto_span(ab, mp.SpanBasis(())) == (mp.zero_vector(2, ["a", "b"]), False)


def projection_by_composition(y, generators):
    """project_onto_span as a v_add fold of v_scale, each generator checked against y first."""
    for g in generators:
        _join_labels(g, y)
    ks = [inf_div_dual_oracle(y.coords, g.coords) for g in generators]
    projection = mp.FinVector(span_sup_oracle(ks, generators, y.dim).coords, y.labels)
    return projection, projection.coords == y.coords


def outcome(fn, *args):
    """fn's result, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def q_types(v):
    return [type(c.q) for c in v.coords]


# Labelings are drawn per vector (none, one, or its reverse), and a vector is
# one coordinate longer an eighth of the time, so every refusal is reached.
labelings = st.sampled_from([None, None, ("a", "b", "c"), ("c", "b", "a")])
span_vectors = st.tuples(st.lists(projection_scalars, min_size=3, max_size=3),
                         st.integers(0, 7), labelings).map(
    lambda t: mp.FinVector(tuple(t[0] + t[0][:1] * (t[1] == 0)),
                           None if t[2] is None or t[1] == 0 else t[2]))


@given(span_vectors, st.lists(span_vectors, min_size=1, max_size=4))
def test_projection_matches_its_composition(y, generators):
    basis = mp.SpanBasis(tuple(generators))
    got = outcome(mp.project_onto_span, y, basis)
    want = outcome(projection_by_composition, y, basis.generators)
    assert got == want  # FinVector equality compares the labels too
    if isinstance(want[0], mp.FinVector):
        assert q_types(got[0]) == q_types(want[0])


def test_span_drops_generators_whose_value_is_top():
    # a +inf value scales its generator by -inf; when all are dropped, the labeled zero
    ab = mp.vector([0, 1], labels=["a", "b"])
    assert span_sup([mp.TOP, mp.TOP], [mp.vector([2, mp.TOP]), ab], 5) == mp.zero_vector(
        2, ["a", "b"])
    assert span_sup([mp.TOP, mp.ONE], [mp.vector([9, mp.TOP]), ab], 2) == ab


def test_span_joins_labels_before_dropping_generators():
    tops = [mp.TOP, mp.TOP]
    with pytest.raises(mp.DimensionMismatchError, match="dimension mismatch: 2 vs 3"):
        span_sup(tops, [mp.vector([0, 1]), mp.vector([0, 1, 2])], 3)
    with pytest.raises(mp.DimensionMismatchError, match="coordinate labels disagree"):
        span_sup(tops, [mp.vector([0, 1], ["a", "b"]), mp.vector([0, 1], ["b", "a"])], 2)


# Generators finite at coordinate 0, and any scalar at coordinates 1 and 2.
finite_first = st.tuples(st.one_of(finites, st.fractions(-6, 6, max_denominator=2).map(
    mp.finite)), projection_scalars, projection_scalars).map(mp.FinVector)


@given(st.lists(finite_first, min_size=1, max_size=4),
       st.tuples(projection_scalars, projection_scalars), labelings)
def test_projection_of_a_target_at_bottom_where_every_generator_is_finite(
        generators, rest, labels):
    # every generator's value is +inf there, so span_sup drops them all
    y = mp.FinVector((mp.BOTTOM,) + rest, labels)
    got = mp.project_onto_span(y, mp.SpanBasis(tuple(generators)))
    assert got == projection_by_composition(y, generators)
    assert got == (mp.zero_vector(3, labels), y.is_zero())


def test_coordinates_are_stored_as_a_tuple():
    listed = mp.FinVector([mp.ONE, mp.TOP])
    assert type(listed.coords) is tuple
    assert listed == mp.vector([0, mp.TOP]) and hash(listed) == hash(mp.vector([0, mp.TOP]))


def test_vector_construction_refusals():
    with pytest.raises(mp.DimensionMismatchError, match="label count does not match dimension"):
        mp.FinVector((mp.ONE,), ("a", "b"))
    for coords in ((0, 1), [mp.ONE, 1], (mp.ONE, "0"), (mp.ONE, None)):
        with pytest.raises(TypeError, match=r"vector\(\) converts numbers and literals"):
            mp.FinVector(coords)
    assert mp.vector((0, 1)) == mp.FinVector((mp.ONE, mp.finite(1)))
    for i in (-1, 3):
        with pytest.raises(IndexError, match=f"unit vector {i} of dimension 3"):
            mp.unit_vector(i, 3)
    with pytest.raises(ValueError, match="need at least one sample vector"):
        mp.check_b_space_axioms([], [mp.ONE])


def test_projection_is_a_closure_dual():
    rng = random.Random(7)
    basis = mp.SpanBasis.of([mp.vector([rng.randint(-5, 5) for _ in range(3)])
                             for _ in range(2)])
    for _ in range(50):
        y = mp.vector([rng.randint(-8, 8) for _ in range(3)])
        p, _ = mp.project_onto_span(y, basis)
        assert mp.v_leq(p, y)
        p2, member2 = mp.project_onto_span(p, basis)
        assert p2 == p
        assert member2
        # monotone: projecting something above y lands above p
        z = mp.v_add(y, mp.vector([rng.randint(-8, 8) for _ in range(3)]))
        pz, _ = mp.project_onto_span(z, basis)
        assert mp.v_leq(p, pz)


def test_membership_against_brute_force():
    rng = random.Random(11)
    gens = [mp.vector([rng.randint(-3, 3) for _ in range(2)]) for _ in range(2)]
    basis = mp.SpanBasis.of(gens)
    for _ in range(40):
        y = mp.vector([rng.randint(-4, 4) for _ in range(2)])
        _, member = mp.project_onto_span(y, basis)
        assert member == span_member_oracle(y, list(basis.generators))


def test_b_space_axioms_pass():
    rng = random.Random(3)
    scalars_sample = [mp.finite(0), mp.finite(1), mp.finite(-2)]
    samples = [mp.vector([rng.randint(-9, 9) for _ in range(3)]) for _ in range(5)]
    assert mp.check_b_space_axioms(samples, scalars_sample).all_passed


def test_b_space_axioms_with_bottom_scalar():
    rng = random.Random(4)
    scalars_sample = [mp.BOTTOM, mp.finite(0), mp.finite(2)]
    samples = [mp.vector([rng.randint(-9, 9) for _ in range(3)]) for _ in range(5)]
    assert mp.check_b_space_axioms(samples, scalars_sample).all_passed


def test_b_space_axioms_skip_all_top_vector():
    rng = random.Random(5)
    samples = [mp.vector([rng.randint(-9, 9) for _ in range(2)]) for _ in range(4)]
    samples.append(mp.top_vector(2))
    scalars_sample = [mp.BOTTOM, mp.finite(0), mp.finite(1), mp.TOP]
    assert mp.check_b_space_axioms(samples, scalars_sample).all_passed


def test_b_space_axioms_pass_on_labeled_vectors():
    # the empty scalar subset's supremum scales a labeled vector to a labeled zero
    samples = [mp.vector([0, 1], labels=["a", "b"]), mp.top_vector(2, ["a", "b"])]
    report = mp.check_b_space_axioms(samples, [mp.finite(0), mp.TOP])
    assert report.lines() == ["meet-law: PASS", "generalized-distributive-scalars: PASS",
                              "generalized-distributive-vectors: PASS"]


def test_b_space_axioms_give_each_sample_its_own_zero():
    # an unlabeled sample joins a labeled family, so the two samples' zeros differ
    samples = [mp.vector([2, -1]), mp.vector([0, 1], labels=["a", "b"])]
    report = mp.check_b_space_axioms(samples, [mp.finite(0), mp.finite(1), mp.TOP])
    assert report.lines() == ["meet-law: PASS", "generalized-distributive-scalars: PASS",
                              "generalized-distributive-vectors: PASS"]


def test_distributive_scalars_report_the_first_failing_sample(monkeypatch):
    # The first sample fails only on the pair {0, 1}, the second only on the
    # empty subset: the witness is the first sample's, though its subset is larger.
    x, y = mp.vector([2, -1]), mp.vector([0, 1], labels=["a", "b"])
    scale = mp.semimodules.v_scale

    def broken(k, v):
        if v == x and k == mp.finite(1):
            return scale(mp.finite(-5), v)
        return v if v == y and k.is_bottom() else scale(k, v)

    monkeypatch.setattr(mp.semimodules, "v_scale", broken)
    ks = [mp.finite(0), mp.finite(1)]
    failing = {v: fold_failures_oracle(ks, lambda k, v=v: broken(k, v), mp.s_add, mp.BOTTOM,
                                       mp.v_add, mp.zero_vector(v.dim, v.labels))
               for v in (x, y)}
    assert [f[0] for f in failing.values()] == [tuple(ks), ()]
    witness = next((list(f[0]), v) for v, f in failing.items() if f)
    entry = mp.check_b_space_axioms([x, y], ks).entry("generalized-distributive-scalars")
    assert (entry.passed, entry.witness) == (False, witness)


def test_distributive_scalars_checks_the_empty_subset(monkeypatch):
    # (sup of no scalars) * x must be the zero; a scaling that lets -inf keep x fails it
    scale = mp.semimodules.v_scale
    monkeypatch.setattr(mp.semimodules, "v_scale",
                        lambda k, x: x if k.is_bottom() else scale(k, x))
    x = mp.vector([0, 1], labels=["a", "b"])
    report = mp.check_b_space_axioms([x], [mp.finite(0)])
    assert report.entry("generalized-distributive-scalars").witness == ([], x)


def test_meet_law_exempts_the_all_top_vector_and_no_other(monkeypatch):
    # Scaling is broken on the vector under test: k * x is the all-top vector for
    # k = 0 and the zero for any other k, so the subset {0, 1} fails the meet law there.
    scale = mp.semimodules.v_scale
    for x, exempt in ((mp.top_vector(2), True), (mp.zero_vector(2), False)):
        monkeypatch.setattr(mp.semimodules, "v_scale", lambda k, v, x=x: (
            (mp.top_vector(2) if k == mp.finite(0) else mp.zero_vector(2)) if v == x
            else scale(k, v)))
        entry = mp.check_b_space_axioms([x], [mp.finite(0), mp.finite(1)]).entry("meet-law")
        assert (entry.passed, entry.witness) == (
            (True, None) if exempt else (False, ([mp.finite(0), mp.finite(1)], x)))


def test_b_space_axioms_refuse_more_samples_than_the_subset_bound(monkeypatch):
    calls = []
    scale = mp.semimodules.v_scale
    monkeypatch.setattr(mp.semimodules, "v_scale", lambda k, x: calls.append(k) or scale(k, x))
    samples = [mp.vector([i]) for i in range(MAX_SUBSET_ITEMS + 1)]
    assert mp.check_b_space_axioms(samples[:-1], [mp.finite(0)]).all_passed
    assert calls
    # Past the bound, in samples or in scalars, nothing is scaled before the refusal.
    for vectors, ks in ((samples, [mp.finite(0)]),
                        (samples[:1], [mp.finite(k) for k in range(MAX_SUBSET_ITEMS + 1)])):
        calls.clear()
        with pytest.raises(ValueError, match=f"15 items give 2\\*\\*15 subsets; subset laws "
                                             f"are checked on at most {MAX_SUBSET_ITEMS} items"):
            mp.check_b_space_axioms(vectors, ks)
        assert calls == []


def test_b_space_axioms_refuse_a_mixed_family_before_any_law(monkeypatch):
    calls = []
    scale = mp.semimodules.v_scale
    monkeypatch.setattr(mp.semimodules, "v_scale", lambda k, x: calls.append(k) or scale(k, x))
    for samples, message in (
            ([mp.vector([0, 1]), mp.vector([0, 1, 2])], "dimension mismatch: 2 vs 3"),
            ([mp.vector([0, 1], ["a", "b"]), mp.vector([0, 1], ["b", "a"])],
             "coordinate labels disagree")):
        with pytest.raises(mp.DimensionMismatchError, match=f"^{message}$"):
            mp.check_b_space_axioms(samples, [mp.finite(0)])
    assert calls == []


def test_labels_flow_through_operations():
    x = mp.vector([1, 2], labels=["a", "b"])
    y = mp.vector([0, 3], labels=["a", "b"])
    assert mp.v_add(x, y).labels == ("a", "b")
    with pytest.raises(mp.DimensionMismatchError):
        mp.v_add(x, mp.vector([0, 3], labels=["a", "c"]))


def test_one_label_rule_for_every_binary_kernel():
    ab = mp.vector([1, 2], labels=["a", "b"])
    ba = mp.vector([3, 4], labels=["b", "a"])
    abc = mp.vector([0, 0, 0], labels=["a", "b", "c"])
    plain = mp.vector([0, 0])
    vector_kernels = (mp.v_add, mp.star_eval, mp.v_leq,
                      lambda x, y: mp.project_onto_span(y, mp.SpanBasis.of([x])))
    on_elements = [lambda x, y, k=k: k(mp.AlgebraElement(x), mp.AlgebraElement(y))
                   for k in (mp.alg_mul, mp.scalar_product)]  # elements are always labeled
    for kernel in vector_kernels:
        kernel(ab, plain)
        kernel(plain, ab)
    for kernel in (*vector_kernels, *on_elements):
        with pytest.raises(mp.DimensionMismatchError, match="labels disagree"):
            kernel(ab, ba)
        # the first vector's dimension is named first, either way round
        with pytest.raises(mp.DimensionMismatchError, match="^dimension mismatch: 2 vs 3$"):
            kernel(ab, abc)
        with pytest.raises(mp.DimensionMismatchError, match="^dimension mismatch: 3 vs 2$"):
            kernel(abc, ab)


def test_v_inf_checks_every_labeling():
    cd = mp.vector([5, 6], labels=["c", "d"])
    with pytest.raises(mp.DimensionMismatchError, match="labels disagree"):
        mp.v_inf([mp.vector([0, 0]), mp.vector([1, 2], labels=["a", "b"]), cd])
    assert mp.v_inf([mp.vector([0, 9]), cd]).labels == ("c", "d")


# Dims 2 and 3 with labels none, a b c or c b a (cut to the dim), so families
# reach every refusal: a dimension mismatch either way round, and two labelings.
family_vectors = st.tuples(st.lists(scalars, min_size=3, max_size=3), st.booleans(),
                           st.sampled_from([None, ("a", "b", "c"), ("c", "b", "a")])).map(
    lambda t: mp.FinVector(tuple(t[0][:2 + t[1]]), t[2] and t[2][:2 + t[1]]))


@given(st.lists(family_vectors, min_size=1, max_size=5))
def test_every_vector_family_joins_by_the_binary_rule(xs):
    want = outcome(reduce, mp.v_add, xs)
    assert outcome(mp.v_sup, xs) == want  # FinVector equality compares the labels too
    assert outcome(span_sup, [mp.ONE] * len(xs), xs, 3) == want
    inf = outcome(mp.v_inf, xs)
    assert (inf.labels == want.labels) if isinstance(want, mp.FinVector) else (inf == want)
    nonzero = [x for x in xs if not x.is_zero()]
    refusal = outcome(reduce, mp.v_add, nonzero) if nonzero else None
    assert outcome(mp.SpanBasis.of, xs) == (
        refusal if isinstance(refusal, tuple) else mp.SpanBasis(tuple(nonzero)))


def test_labels_are_stored_as_a_tuple_and_never_repeat():
    assert mp.FinVector((mp.ONE,), ["a"]) == mp.vector([0], ["a"])
    assert hash(mp.FinVector((mp.ONE,), ["a"])) == hash(mp.vector([0], ("a",)))
    for build in (lambda: mp.FinVector((mp.ONE, mp.ONE), ["a", "a"]),
                  lambda: mp.vector([0, 1], ("a", "a")), lambda: mp.zero_vector(2, ["b", "b"])):
        with pytest.raises(mp.DimensionMismatchError, match="duplicate coordinate labels"):
            build()


# The coordinatewise kernels against the semiring rules written out per
# coordinate, on ints and Fractions, with half the draws at -inf or +inf.
oracle_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP), finites,
                           st.fractions(-10, 10, max_denominator=7).map(mp.finite))


@st.composite
def joinable_pairs(draw):
    """Two vectors of one dimension, each unlabeled or under the one labeling."""
    dim = draw(st.integers(min_value=1, max_value=6))
    labeling = tuple(draw(st.sampled_from(["abcdef", "fedcba"]))[:dim])
    return tuple(mp.FinVector(draw(st.lists(oracle_scalars, min_size=dim, max_size=dim)),
                              draw(st.sampled_from([None, labeling]))) for _ in range(2))


@given(joinable_pairs())
def test_v_add_matches_its_oracle(xy):
    x, y = xy
    got = mp.v_add(x, y)
    assert got == v_add_oracle(x, y)  # FinVector equality compares the labels too
    assert got == mp.v_add(y, x)


@given(oracle_scalars, joinable_pairs())
def test_v_scale_matches_its_oracle(k, xy):
    for x in xy:
        assert mp.v_scale(k, x) == v_scale_oracle(k, x)


@given(joinable_pairs())
def test_v_leq_matches_its_oracle(xy):
    x, y = xy
    assert mp.v_leq(x, y) == v_leq_oracle(x, y)
    assert mp.v_leq(x, mp.v_add(x, y))


def refusal(fn, *args):
    """None when fn returns, else the type and message of the ValueError it raised."""
    try:
        fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return None


@st.composite
def kernel_pairs(draw, labeled, kind):
    """Vectors of dims 2-3.  The first is unlabeled or labeled a b c; the second carries
    the first's own labeling object, an equal copy of it, None, or c b a (each labeling
    cut to its vector's dimension), so both sides of the kernels' identity test, and
    every refusal of _join_labels, are reached."""
    dx, dy = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    tx = ("a", "b", "c")[:dx] if labeled else None
    if labeled and kind in ("own", "copy"):
        dy = dx
    ty = {"own": tx, "copy": tx and tuple(list(tx)), "none": None,
          "other": ("c", "b", "a")[:dy]}[kind]
    return tuple(mp.FinVector(draw(st.lists(scalars, min_size=d, max_size=d)), t)
                 for d, t in ((dx, tx), (dy, ty)))


@pytest.mark.parametrize("labeled", [False, True])
@pytest.mark.parametrize("kind", ["own", "copy", "none", "other"])
@given(st.data())
def test_binary_kernels_join_labels_as_the_rule_does(labeled, kind, data):
    x, y = data.draw(kernel_pairs(labeled, kind))
    want = refusal(_join_labels, x, y)
    kernels = [mp.v_add, mp.v_leq, mp.star_eval,
               lambda x, y: mp.project_onto_span(y, mp.SpanBasis((x,)))]
    both = x.labels is not None and y.labels is not None
    if both:  # an algebra element is always labeled
        kernels.append(lambda x, y: mp.alg_mul(mp.AlgebraElement(x), mp.AlgebraElement(y)))
    for kernel in kernels:
        assert refusal(kernel, x, y) == want
    if want is None:
        labels = _join_labels(x, y)
        assert mp.v_add(x, y).labels == labels
        assert mp.project_onto_span(y, mp.SpanBasis((x,)))[0].labels == y.labels
        if both:
            assert mp.alg_mul(mp.AlgebraElement(x), mp.AlgebraElement(y)).labels == labels


@given(family_vectors, family_vectors)
def test_vector_ne_is_the_negation_of_eq(x, y):
    for a, b in ((x, y), (x, mp.FinVector(list(x.coords), x.labels)), (x, mp.FinVector(x.coords))):
        assert (a != b) is (not a == b)
    assert x != (x.coords, x.labels) and x.__ne__(x.coords) is NotImplemented
