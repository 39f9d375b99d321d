import random

import pytest

import maxplus as mp
from maxplus import formats, order
from maxplus.order import FiniteIS
from maxplus.selftest import all_small_posets
from _oracles import (_subsets, closure_oracle, complete_lattice_oracle, cuts_oracle,
                      order_queries_oracle)


def chain(*labels):
    return FiniteIS.chain(list(labels))


def test_standard_order_chain():
    s = chain("a", "b", "c")
    assert mp.standard_order(s, "a", "c")
    assert not mp.standard_order(s, "c", "a")
    assert mp.standard_order(s, "b", "b")


def test_standard_order_antichain():
    s = FiniteIS.antichain(["a", "b"])
    assert not mp.standard_order(s, "a", "b")


def test_standard_order_unknown_label():
    s = chain("a", "b")
    with pytest.raises(mp.PosetError):
        mp.standard_order(s, "a", "zz")


def test_standard_order_agrees_with_joins():
    s = chain("a", "b", "c")
    for x in s.elements:
        for y in s.elements:
            i, j = s.index(x), s.index(y)
            join = s.join_index({i, j})
            assert mp.standard_order(s, x, y) == (join == j)


def test_not_a_partial_order_is_rejected():
    with pytest.raises(mp.PosetError):
        FiniteIS.from_pairs(["a", "b"], [("a", "b"), ("b", "a")])


def test_dm_completion_antichain():
    result = mp.dm_completion(FiniteIS.antichain(["a", "b"]))
    lattice = result.completed
    assert sorted(lattice.elements) == ["_bot", "_top", "a", "b"]
    assert result.embedding == {"a": "a", "b": "b"}
    assert lattice.leq(lattice.index("_bot"), lattice.index("a"))
    assert lattice.leq(lattice.index("a"), lattice.index("_top"))
    assert not lattice.leq(lattice.index("a"), lattice.index("b"))


def test_dm_completion_chain_is_identity():
    # a finite chain has a bottom, so it is already a complete lattice
    s = chain("a", "b", "c", "d", "e")
    result = mp.dm_completion(s)
    assert result.completed.elements == s.elements
    assert result.embedding == {x: x for x in s.elements}


def test_dm_completion_empty():
    result = mp.dm_completion(FiniteIS((), frozenset()))
    assert result.completed.elements == ("_bot",)


def test_dm_completion_adds_bottom_when_absent():
    # two minimal elements below a common top: joins exist, no bottom
    s = FiniteIS.from_pairs(["a", "b", "t"], [("a", "t"), ("b", "t")])
    result = mp.dm_completion(s)
    assert set(result.completed.elements) == {"_bot", "a", "b", "t"}


def test_dm_completion_size_guard():
    # past the old 12-element cap: the bound is on cuts, and an antichain has n + 2
    s = FiniteIS.antichain([f"e{i}" for i in range(13)])
    assert len(mp.dm_completion(s).completed.elements) == 15


def test_embedding_preserves_joins_small():
    for s in all_small_posets(4):
        result = mp.dm_completion(s)
        emb = {lab: result.completed.index(result.embedding[lab])
               for lab in s.elements}
        n = len(s.elements)
        for mask in range(1 << n):
            subset = [i for i in range(n) if mask >> i & 1]
            j = s.join_index(subset)
            if j is None:
                continue
            image = [emb[s.elements[i]] for i in subset]
            assert result.completed.join_index(image) == emb[s.elements[j]]


def test_completion_is_idempotent():
    for s in all_small_posets(4):
        once = mp.dm_completion(s).completed
        twice = mp.dm_completion(once)
        assert len(twice.completed.elements) == len(once.elements)
        assert set(twice.embedding.keys()) == set(once.elements)
        assert twice.completed.relation == once.relation
        # every cut of a lattice is principal, so nothing is synthesized twice
        assert twice.completed.elements == once.elements


def test_completion_refuses_a_label_it_would_synthesize():
    for labels, dup in ((["_bot", "a"], "_bot"), (["_top", "a"], "_top")):
        with pytest.raises(mp.PosetError, match=f"duplicate element label '{dup}'"):
            mp.dm_completion(FiniteIS.antichain(labels))


def test_direct_construction_refuses_what_is_not_a_partial_order():
    refl = {(0, 0), (1, 1), (2, 2)}
    for labels, relation, message in (
            (("a", "b", "a"), refl, "duplicate element label 'a'"),
            (("a", "b", "c"), refl - {(2, 2)}, "relation is not reflexive"),
            (("a", "b", "c"), refl | {(0, 1), (1, 0)}, "relation is not antisymmetric"),
            (("a", "b", "c"), refl | {(0, 1), (1, 2)}, "relation is not transitive"),
            # a 3-cycle with no pair related both ways: antisymmetric, not transitive
            (("a", "b", "c"), refl | {(0, 1), (1, 2), (2, 0)}, "relation is not transitive"),
            (("a", "b", "a"), refl | {(0, 1), (1, 0)}, "duplicate element label 'a'")):
        with pytest.raises(mp.PosetError, match=message):
            FiniteIS(labels, frozenset(relation))


def test_from_pairs_refuses_a_cycle_after_a_repeated_label():
    # the closure of a < b < c < a relates every pair both ways
    for labels, message in ((["a", "b", "c"], "relation is not antisymmetric"),
                            (["a", "b", "c", "a"], "duplicate element label 'a'")):
        with pytest.raises(mp.PosetError, match=message):
            FiniteIS.from_pairs(labels, [("a", "b"), ("b", "c"), ("c", "a")])


def test_a_self_pair_is_accepted():
    s = FiniteIS.from_pairs(["a", "b"], [("a", "a"), ("a", "b")])
    assert s.relation == frozenset({(0, 0), (1, 1), (0, 1)})


def test_direct_construction_refuses_pairs_outside_the_elements():
    # a pair past the end once raised IndexError; a negative one was read from the end
    refl = {(0, 0), (1, 1)}
    for extra in ({(0, 2)}, {(2, 0)}, {(-1, -1)}, {(0, -1), (-1, -1)}):
        with pytest.raises(mp.PosetError, match="relation pair outside the element indices"):
            FiniteIS(("a", "b"), frozenset(refl | extra))


def test_order_queries_refuse_indices_outside_the_elements():
    s = chain("a", "b")
    for bad in (-1, 2):
        message = f"^element index {bad} is outside range\\(2\\)$"
        queries = (lambda: s.leq(bad, 1), lambda: s.leq(0, bad), lambda: s.upper_bounds([bad]),
                   lambda: s.upper_bounds([0, bad]), lambda: s.join_index([bad]),
                   lambda: s.join_index({1, bad}), lambda: s.down_set(bad))
        for query in queries:
            with pytest.raises(IndexError, match=message):
                query()
    assert s.leq(0, 1) and not s.leq(1, 0) and s.down_set(1) == {0, 1}
    assert s.upper_bounds([0]) == {0, 1} and s.join_index([0, 1]) == 1


def test_completion_bottom_below_everything():
    for s in all_small_posets(3):
        lattice = mp.dm_completion(s).completed
        bot = lattice.bottom_index()
        assert bot is not None
        assert all(lattice.leq(bot, i) for i in range(len(lattice.elements)))


def test_b_completion_matches_dm_for_finite_inputs():
    for s in [FiniteIS.antichain(["a", "b"]), chain("a", "b", "c"),
              FiniteIS.from_pairs(["a", "b", "t"], [("a", "t"), ("b", "t")])]:
        dm = mp.dm_completion(s)
        b = mp.b_completion(s)
        assert set(dm.completed.elements) >= set(b.completed.elements)
        extra = set(dm.completed.elements) - set(b.completed.elements)
        top = dm.completed.top_index()
        assert extra <= {dm.completed.elements[top]}


def test_b_completion_chain_with_top():
    s = chain("a", "b", "t")
    result = mp.b_completion(s)
    assert result.completed.elements == s.elements


def test_has_all_joins():
    assert chain("a", "b").has_all_joins()
    assert not FiniteIS.antichain(["a", "b"]).has_all_joins()


def inclusion_relation(cuts):
    return frozenset((i, j) for i, a in enumerate(cuts)
                     for j, b in enumerate(cuts) if a <= b)


def test_completion_and_lattice_check_match_subset_oracles():
    for s in all_small_posets(5):
        cuts = cuts_oracle(s)
        lattice = mp.dm_completion(s).completed
        assert len(lattice.elements) == len(cuts)
        assert lattice.relation == inclusion_relation(cuts)
        assert s.is_complete_lattice() == complete_lattice_oracle(s)
        assert lattice.is_complete_lattice() and complete_lattice_oracle(lattice)


def crown(k):
    """The 2k-element crown, a_i < b_j for i != j: its completion has 2^k cuts."""
    a = [f"a{i}" for i in range(k)]
    b = [f"b{j}" for j in range(k)]
    return FiniteIS.from_pairs(a + b, [(a[i], b[j]) for i in range(k)
                                       for j in range(k) if i != j])


def test_crown_completes_to_oracle_cuts():
    # the 14-element 7-crown is past the old 12-element cap
    for k in (5, 7):
        lattice = mp.dm_completion(crown(k)).completed
        cuts = cuts_oracle(crown(k))
        assert len(cuts) == len(lattice.elements) == 2 ** k
        assert lattice.relation == inclusion_relation(cuts)


def test_completion_at_the_cut_bound():
    assert order.COMPLETION_MAX_CUTS == 256
    s = crown(8)
    cuts = order._enumerate_cuts(s)
    lattice = mp.dm_completion(s).completed
    assert len(cuts) == len(lattice.elements) == 256
    assert lattice.relation == inclusion_relation(cuts)
    labels = [f"c{i}" for i in range(256)]
    assert mp.dm_completion(FiniteIS.chain(labels)).completed.elements == tuple(labels)


def test_completion_past_the_cut_bound_is_refused_while_enumerating():
    with pytest.raises(mp.PosetError, match="completion limited to 256 cuts"):
        order._enumerate_cuts(crown(9))   # 512 cuts
    with pytest.raises(mp.PosetError, match="completion limited to 256 cuts"):
        mp.dm_completion(crown(9))


def test_completion_past_the_cut_bound_is_refused_before_validation(monkeypatch):
    s = FiniteIS.chain([f"c{i}" for i in range(257)])
    calls = []
    validate = FiniteIS.validate
    monkeypatch.setattr(FiniteIS, "validate", lambda self: calls.append(1) or validate(self))
    with pytest.raises(mp.PosetError,
                       match="completion limited to 256 cuts, got 257 elements"):
        mp.dm_completion(s)
    assert calls == []


def test_from_pairs_matches_closure_oracle_on_random_dags():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 9)
        # edges go up a random linear order, so the relation is acyclic
        rank = rng.sample(range(n), n)
        edges = [(rank[i], rank[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
        labels = [f"e{i}" for i in range(n)]
        s = FiniteIS.from_pairs(labels, [(labels[i], labels[j]) for i, j in edges])
        assert s.relation == closure_oracle(n, edges)


def queries(s):
    """The answers of FiniteIS's order queries, keyed like order_queries_oracle."""
    n = len(s.elements)
    return {"upper_bounds": [s.upper_bounds(x) for x in _subsets(n)],
            "join_index": [s.join_index(x) for x in _subsets(n)],
            "down_set": [s.down_set(j) for j in range(n)],
            "bottom_index": s.bottom_index(),
            "top_index": s.top_index(),
            "has_all_joins": s.has_all_joins()}


def test_order_queries_match_leq_scans():
    for s in all_small_posets(5):
        for t in (s, mp.dm_completion(s).completed):
            assert queries(t) == order_queries_oracle(t), t


def chain_product(m):
    """The product of two m-chains, (i, j) <= (k, l) iff i <= k and j <= l."""
    label = [[f"x{i}y{j}" for j in range(m)] for i in range(m)]
    covers = ([(label[i][j], label[i + 1][j]) for i in range(m - 1) for j in range(m)]
              + [(label[i][j], label[i][j + 1]) for i in range(m) for j in range(m - 1)])
    return FiniteIS.from_pairs([lab for row in label for lab in row], covers)


def test_hundred_element_chain_product():
    s = chain_product(10)
    assert len(s.elements) == 100 and s.is_complete_lattice()
    assert s.bottom_index() == s.index("x0y0") and s.top_index() == s.index("x9y9")
    rng = random.Random(11)
    for _ in range(200):
        (i, j), (k, l) = [(rng.randrange(10), rng.randrange(10)) for _ in range(2)]
        join = s.join_index({s.index(f"x{i}y{j}"), s.index(f"x{k}y{l}")})
        assert s.elements[join] == f"x{max(i, k)}y{max(j, l)}"
    text = formats.format_poset(s)
    assert len(text.splitlines()) == 1 + 2 * 10 * 9   # the header and the covers
    back = formats.parse_poset(text)
    assert (back.elements, back.relation) == (s.elements, s.relation)


def test_hundred_element_antichain_has_no_bottom_or_joins():
    s = FiniteIS.antichain([f"e{i}" for i in range(100)])
    assert s.bottom_index() is None and s.top_index() is None
    assert not s.has_all_joins() and not s.is_complete_lattice()
