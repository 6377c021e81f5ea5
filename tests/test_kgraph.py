"""Core path arithmetic, normal forms, enumeration, and validation."""

import pytest

from conftest import closure_class_count, raw_words_of_degree
from kfock import builders
from kfock.errors import BudgetError, CompositionError, MalformedGraphError
from kfock.kgraph import CommutationSquare, Edge, KGraph, degree_vectors, validate


def test_identity_is_unit(cycle32):
    lam = cycle32.edge_path("e1")
    ident = cycle32.identity(lam.dst)
    assert cycle32.compose(ident, lam) == lam
    assert cycle32.compose(lam, cycle32.identity(lam.src)) == lam


def test_cycle_relation_identifies_mixed_words(cycle32):
    left = cycle32.normal_form(("f2", "e1"))
    right = cycle32.normal_form(("e2", "f1"))
    assert left == right
    assert left.word == ("e2", "f1")


def test_chain_relation(chain3):
    assert chain3.normal_form(("b2", "a1")) == chain3.normal_form(("a2", "b1"))


def test_normal_form_idempotent(sv22_cyclic):
    g = sv22_cyclic
    for n in [(1, 1), (2, 1), (2, 2)]:
        for p in g.paths_of_degree(n):
            again = g.normal_form(p.word)
            assert again == p


def test_degree_additivity(cycle32):
    g = cycle32
    for p in g.paths_of_degree((1, 1)):
        for q in g.paths_of_degree((2, 0)):
            if p.src != q.dst:
                continue
            c = g.compose(p, q)
            assert c.degree == (3, 1)
            assert c.delta == p.delta + q.delta


def test_compose_rejects_mismatched_endpoints(chain3):
    a1 = chain3.edge_path("a1")  # x1 -> x2
    with pytest.raises(CompositionError):
        chain3.compose(a1, a1)


def test_missing_square_raises():
    g = KGraph(
        k=2,
        vertices=["v"],
        edges=[Edge("a", 1, "v", "v"), Edge("b", 2, "v", "v")],
        squares=[],
    )
    with pytest.raises(MalformedGraphError):
        g.normal_form(("b", "a"))


def test_cancellation_on_normal_paths(cycle32):
    g = cycle32
    lams = g.paths_of_degree((1, 1))
    mus = g.paths_of_degree((0, 2)) + g.paths_of_degree((2, 0))
    for lam in lams:
        images = {}
        for mu in mus:
            if lam.src != mu.dst:
                continue
            c = g.compose(lam, mu)
            assert images.setdefault(c, mu) == mu  # left cancellation
    for mu in mus:
        images = {}
        for lam in lams:
            if lam.src != mu.dst:
                continue
            c = g.compose(lam, mu)
            assert images.setdefault(c, lam) == lam  # right cancellation


def test_enumeration_budget():
    g = builders.bouquet(2)
    with pytest.raises(BudgetError):
        g.paths_of_degree((9,))
    assert len(g.paths_of_degree((9,), max_grading=9)) == 512


def test_enumeration_against_word_closure_oracle(chain3, cycle32, f2xf3, sv22_cyclic):
    cases = [
        (chain3, [(1, 0), (1, 1), (2, 0), (0, 2), (2, 2)]),
        (cycle32, [(1, 1), (2, 1), (2, 2), (3, 1)]),
        (f2xf3, [(1, 1), (2, 1), (1, 2)]),
        (sv22_cyclic, [(1, 1), (2, 1), (2, 2)]),
    ]
    for g, degrees in cases:
        for n in degrees:
            assert len(g.paths_of_degree(n)) == closure_class_count(g, n)


def test_f2xf3_degree_2_1_has_12_classes(f2xf3):
    # frozen from the closure oracle: 2^2 * 3 = 12 classes
    assert closure_class_count(f2xf3, (2, 1)) == 12
    assert len(f2xf3.paths_of_degree((2, 1))) == 12


def test_enumeration_deterministic(cycle32):
    a = cycle32.paths_of_degree((2, 2))
    b = builders.cycle_rank(3, 2).paths_of_degree((2, 2))
    assert [p.word for p in a] == [p.word for p in b]


def test_degree_vectors_order():
    assert list(degree_vectors(2, 2)) == [(2, 0), (1, 1), (0, 2)]
    assert list(degree_vectors(1, 3)) == [(3,)]


def test_validate_passes_on_good_graphs(sv11, chain3, cycle32, sv22_cyclic):
    for g in (sv11, chain3, cycle32, sv22_cyclic):
        rep = validate(g, max_grading=4)
        assert rep.ok, rep.failures


def test_validate_flags_non_bijective_theta():
    # both relations send the mixed pair to the same reversed pair
    edges = [Edge("a1", 1, "v", "v"), Edge("a2", 1, "v", "v"),
             Edge("b1", 2, "v", "v"), Edge("b2", 2, "v", "v")]
    squares = [
        CommutationSquare(lhs=("a1", "b1"), rhs=("b1", "a1")),
        CommutationSquare(lhs=("a1", "b2"), rhs=("b1", "a1")),
    ]
    g = KGraph(2, ["v"], edges, squares)
    rep = validate(g, 2)
    assert not rep.ok
    kinds = {f["kind"] for f in rep.failures}
    assert "square-duplicate-rhs" in kinds or "square-rhs-mismatch" in kinds
    assert "square-lhs-mismatch" in kinds  # several pairs lack squares entirely


def test_validate_flags_cardinality_mismatch():
    # one mixed pair composes in one order only
    edges = [Edge("a", 1, "u", "w"), Edge("b", 2, "v", "u")]
    g = KGraph(2, ["u", "v", "w"], edges, squares=[])
    rep = validate(g, 2)
    assert not rep.ok
    assert any(f["kind"] == "pair-cardinality" for f in rep.failures)


def test_validate_detects_three_color_inconsistency():
    # seed frozen after a search: the pairwise tables do not share a
    # consistent rewrite at degree (1,1,1)
    g = builders.single_vertex((2, 2, 2), theta=builders.random_table((2, 2, 2), 0))
    rep = validate(g, 3)
    assert not rep.ok
    conf = [f for f in rep.failures if f["kind"] == "confluence"]
    assert conf
    assert any(len(f["word"]) == 3 for f in conf)


def test_validate_stats_count_pairs_and_critical_words(chain3):
    def two_color_pairs(g):
        return sum(len(raw_words_of_degree(g, n)) for n in degree_vectors(g.k, 2) if max(n) == 1)

    rep = validate(chain3, 6)
    assert rep.ok
    assert rep.stats["pathsChecked"] == two_color_pairs(chain3) > 0
    assert rep.stats["wordsChecked"] == 0  # k = 2 has no critical words
    cyc = builders.cycle_rank(4, 3)
    rep = validate(cyc)
    assert rep.ok
    assert rep.stats["pathsChecked"] == two_color_pairs(cyc) == 24
    assert rep.stats["wordsChecked"] == 4  # one per vertex


def test_validate_counts_on_a_long_rank3_cycle():
    rep = validate(builders.cycle_rank(200, 3))
    assert rep.ok
    assert rep.stats == {"pathsChecked": 1200, "wordsChecked": 200, "squares": 600}
