import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import maxplus as mp
from maxplus import semialgebra as sa
from _oracles import alg_mul_oracle, scalar_product_oracle, star_oracle

rng = random.Random(99)

X = ("a", "b")


def fn(values, labels=X):
    return sa.element(values, labels)


def rand_fn(labels, proper=False):
    coords = []
    for _ in labels:
        r = rng.random()
        if not proper and r < 0.15:
            coords.append(mp.BOTTOM)
        else:
            coords.append(mp.finite(rng.randint(-10, 10)))
    return sa.AlgebraElement(mp.FinVector(tuple(coords), tuple(labels)))


def test_alg_mul_pointwise():
    assert sa.alg_mul(fn([1, 2]), fn([3, -1])) == fn([4, 1])


def test_alg_mul_identity_and_absorption():
    phi = fn([5, -3])
    assert sa.alg_mul(phi, sa.unit_element(X)) == phi
    assert sa.alg_mul(phi, sa.zero_element(X)) == sa.zero_element(X)


# ints and Fractions, with half the draws at -inf or +inf
oracle_scalars = st.one_of(st.just(mp.BOTTOM), st.just(mp.TOP),
                           st.integers(-10, 10).map(mp.finite),
                           st.fractions(-10, 10, max_denominator=7).map(mp.finite))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.tuples(oracle_scalars, oracle_scalars), min_size=n, max_size=n)))
def test_alg_mul_matches_its_oracle(pairs):
    labels = tuple(f"t{i}" for i in range(len(pairs)))
    a, b = (sa.AlgebraElement(mp.FinVector(coords, labels)) for coords in zip(*pairs))
    got = sa.alg_mul(a, b)
    assert got == alg_mul_oracle(a, b) and got.labels == labels
    assert got == sa.alg_mul(b, a)


def test_alg_mul_label_mismatch():
    with pytest.raises(mp.DimensionMismatchError):
        sa.alg_mul(fn([1, 2]), fn([1, 2], labels=("a", "c")))


def test_one_star_is_sup():
    assert sa.one_star(sa.element([1, 2, 0], ("a", "b", "c"))) == mp.finite(2)
    assert sa.one_star(sa.zero_element(X)) == mp.BOTTOM
    assert sa.one_star(sa.unit_element(X)) == mp.finite(0)


def test_one_star_matches_unit_dual():
    for _ in range(50):
        phi = rand_fn(X)
        assert sa.one_star(phi) == mp.star_eval(sa.unit_element(X).vec, phi.vec)


def test_scalar_product_examples():
    assert sa.scalar_product(fn([1, 2]), fn([3, -1])) == mp.finite(4)
    phi = rand_fn(X)
    assert sa.scalar_product(phi, sa.zero_element(X)) == mp.BOTTOM
    assert sa.scalar_product(sa.unit_element(X), phi) == sa.one_star(phi)


def test_scalar_product_commutative_and_exhaustive():
    labels = tuple(f"x{i}" for i in range(5))
    for _ in range(100):
        p1, p2 = rand_fn(labels), rand_fn(labels)
        v = sa.scalar_product(p1, p2)
        assert v == sa.scalar_product(p2, p1)
        assert v == scalar_product_oracle(p1, p2)


def test_scalar_product_bilinear():
    labels = tuple(f"x{i}" for i in range(4))
    for _ in range(100):
        y1, y2, x = rand_fn(labels), rand_fn(labels), rand_fn(labels)
        joined = sa.AlgebraElement(mp.v_add(y1.vec, y2.vec))
        lhs = sa.scalar_product(joined, x)
        assert lhs == mp.big_sup([sa.scalar_product(y1, x), sa.scalar_product(y2, x)])
        k = mp.finite(rng.randint(-5, 5))
        scaled = sa.AlgebraElement(mp.v_scale(k, y1.vec))
        assert sa.scalar_product(scaled, x) == mp.s_mul(k, sa.scalar_product(y1, x))


def test_prop4_identity():
    x = fn([0, 1])
    y = fn([2, 2])
    report = sa.check_prop4(x, y)
    assert report.all_passed
    lhs, rhs = report.entries[0].witness
    assert lhs == rhs == mp.finite(2)
    assert star_oracle(x.vec, y.vec) == mp.finite(2)


def test_prop4_with_unit():
    y = rand_fn(X)
    report = sa.check_prop4(sa.unit_element(X), y)
    assert report.all_passed
    assert report.entries[0].witness[0] == sa.one_star(y)


def test_prop4_requires_invertible():
    with pytest.raises(mp.NotInvertibleError):
        sa.check_prop4(fn([mp.BOTTOM, 0]), fn([1, 1]))


def test_prop4_randomized():
    labels = tuple(f"x{i}" for i in range(6))
    for _ in range(200):
        x = rand_fn(labels, proper=True)
        y = rand_fn(labels)
        assert sa.check_prop4(x, y).all_passed


def test_riesz_round_trip():
    hidden = sa.element([1, -2, 0], ("a", "b", "c"))
    recovered = sa.riesz_representer(lambda y: sa.scalar_product(y, hidden),
                                     ("a", "b", "c"))
    assert recovered == hidden
    for _ in range(100):
        probe = rand_fn(("a", "b", "c"))
        assert sa.scalar_product(probe, recovered) == sa.scalar_product(probe, hidden)


def test_riesz_recovers_unit_from_sup_functional():
    recovered = sa.riesz_representer(sa.one_star, X)
    assert recovered == sa.unit_element(X)


def test_riesz_zero_functional_errors():
    with pytest.raises(sa.ZeroFunctionalError):
        sa.riesz_representer(lambda y: mp.BOTTOM, X)


def test_riesz_zero_functional_is_the_package_error():
    with pytest.raises(mp.ZeroFunctionalError):
        sa.riesz_representer(lambda y: mp.BOTTOM, X)


def test_riesz_top_value_not_representable():
    with pytest.raises(sa.NotRepresentableError):
        sa.riesz_representer(lambda y: mp.TOP, X)


def test_riesz_bottom_coordinate_warns_but_represents():
    hidden = sa.element([mp.BOTTOM, mp.finite(3)], X)
    f = lambda y: sa.scalar_product(y, hidden)
    with pytest.warns(sa.OutsideProperSpaceWarning):
        recovered = sa.riesz_representer(f, X)
    assert recovered == hidden
    for _ in range(50):
        probe = rand_fn(X)
        assert sa.scalar_product(probe, recovered) == f(probe)


def test_integral_with_unit_weight_is_sup():
    phi = fn([1, 2])
    assert sa.idempotent_integral(phi, sa.unit_element(X)) == mp.finite(2)


def test_integral_against_weight():
    assert sa.idempotent_integral(fn([1, 2]), fn([3, -1])) == mp.finite(4)
    assert sa.idempotent_integral(sa.zero_element(X), fn([3, -1])) == mp.BOTTOM


def test_unlabeled_vectors_rejected():
    with pytest.raises(ValueError):
        sa.AlgebraElement(mp.vector([1, 2]))


def test_riesz_refuses_repeated_labels():
    # the hidden (1, 5) on labels a a once came back as (5, 5)
    hidden = (mp.finite(1), mp.finite(5))
    f = lambda y: mp.big_sup(mp.s_mul(a, b) for a, b in zip(y.vec.coords, hidden))
    with pytest.raises(mp.DimensionMismatchError, match="duplicate coordinate labels"):
        sa.riesz_representer(f, ["a", "a"])
