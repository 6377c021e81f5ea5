"""Edge-action tables against the compose-based oracles."""

import itertools

import pytest

from conftest import (generator_paths, oracle_left_op, oracle_partial_isometry_residual,
                      oracle_range_conflicts, oracle_right_op, random_square_maps,
                      raw_words_of_degree)
from kfock import builders, fock
from kfock.errors import MalformedGraphError
from kfock.kgraph import CommutationSquare, Edge, KGraph, degree_vectors, validate


def _same(op, ref):
    return (op.matrix != ref.matrix).nnz == 0


def _table_graphs():
    graphs = [
        ("cycle 3 2", builders.cycle_rank(3, 2)),
        ("chain 4", builders.chain(4)),
        ("single-vertex 2 2 cyclic", builders.builtin_graph(["single-vertex", "2", "2", "cyclic"])),
        ("product f2 c2", builders.builtin_graph(["product", "f2", "c2"])),
        ("product f2 c2 f1", builders.builtin_graph(["product", "f2", "c2", "f1"])),
    ]
    for shape, seed in (((2, 2, 1), 1), ((1, 2, 1), 0)):
        graphs.append((f"single-vertex {shape} seed:{seed}",
                       builders.single_vertex(shape, builders.random_table(shape, seed))))
    return graphs


@pytest.mark.parametrize("name,g", _table_graphs(), ids=[n for n, _ in _table_graphs()])
def test_tables_match_compose_oracle(name, g):
    assert validate(g, 4).ok
    for trunc in (3, 4):
        space = fock.TruncatedFock(g, trunc)
        paths = generator_paths(space) + tuple(p for p in space.basis if p.delta <= 3)
        for p in paths:
            assert _same(fock.left_op(space, p), oracle_left_op(space, p)), (trunc, p)
            assert _same(fock.right_op(space, p), oracle_right_op(space, p)), (trunc, p)


@pytest.mark.parametrize("tokens", [["single-vertex", "2", "2", "cyclic"],
                                    ["product", "f2", "c2"]])
def test_word_op_is_left_op_of_normal_form(tokens):
    g = builders.builtin_graph(tokens)
    space = fock.TruncatedFock(g, 5)
    edge_ops = {e.id: oracle_left_op(space, e.id) for e in g.edges}
    words = [w for t in range(1, 5) for n in degree_vectors(g.k, t)
             for w in raw_words_of_degree(g, n)]
    unsorted = cut = 0
    for w in words:
        lam = g.normal_form(w)
        op = fock.word_op(space, w)
        assert _same(op, fock.left_op(space, lam)), w
        product = edge_ops[w[0]]
        for eid in w[1:]:
            product = product @ edge_ops[eid]
        assert _same(op, product), w
        unsorted += lam.word != w
        cut += op.nnz < sum(p.dst == lam.src for p in space.basis)
    assert unsorted > 0 and cut > 0


def _square_graph(squares, vertices=("v",), extra=()):
    edges = [Edge("a", 1, "v", "v"), Edge("b", 2, "v", "v"), *extra]
    return KGraph(2, vertices, edges, squares)


def test_missing_square_fails_loudly():
    # (b, a) composes, has colours (high, low) and no square
    space = fock.TruncatedFock(_square_graph([]), 2)
    with pytest.raises(MalformedGraphError, match=r"no square for adjacent pair \(b, a\)"):
        space.left
    with pytest.raises(MalformedGraphError):
        fock.left_op(space, "b")
    with pytest.raises(MalformedGraphError):
        fock.right_op(space, "a")
    # a square whose sorted side does not compose has no image either
    broken = _square_graph(
        [CommutationSquare(lhs=("c", "b"), rhs=("b", "a"))],
        vertices=("v", "w"), extra=[Edge("c", 1, "w", "w")])
    with pytest.raises(MalformedGraphError,
                       match=r"square \(c, b\) = \(b, a\) has broken endpoints"):
        fock.TruncatedFock(broken, 2).left


def test_a_space_without_edge_columns_needs_no_squares():
    """At N = 0 no column has a lead letter, so no pair meets a column and a
    missing square is no error."""
    assert (fock.TruncatedFock(_square_graph([]), 0).left == -1).all()


@pytest.mark.parametrize("tokens", [["2", "2", "cyclic"], ["2", "3", "cyclic"],
                                    ["1", "2", "2", "seed:1"]])
def test_one_vertex_tables_are_defined_below_the_truncation(tokens):
    """At one vertex every edge composes with every path, so each entry of
    ``left`` on the columns of grading <= N - 1 is defined: the multiplicativity
    check gathers its rows through them with no test for -1."""
    g = builders.builtin_graph(["single-vertex", *tokens])
    for trunc in range(7):
        space = fock.TruncatedFock(g, trunc)
        assert (space.left[:, :space.prefix(trunc - 1)] >= 0).all(), trunc


def test_first_square_for_a_pair_wins():
    """A second square for (b, a1) is ignored by the tables, as by ``KGraph.compose``."""
    edges = [Edge("a1", 1, "v", "v"), Edge("a2", 1, "v", "v"), Edge("b", 2, "v", "v")]
    squares = [CommutationSquare(lhs=(a, "b"), rhs=("b", a)) for a in ("a1", "a2")]
    g = KGraph(2, ["v"], edges, squares + [CommutationSquare(lhs=("a2", "b"), rhs=("b", "a1"))])
    space = fock.TruncatedFock(g, 3)
    b_a1 = g.path_from_word(("b", "a1"))
    assert g.normal_form(b_a1).word == ("a1", "b")
    for p in generator_paths(space) + space.basis[:space.dimension]:
        assert _same(fock.left_op(space, p), oracle_left_op(space, p)), p
        assert _same(fock.right_op(space, p), oracle_right_op(space, p)), p


def _collapsing_graph():
    """Two colours, every (high, low) pair has a square, but the squares are
    not a bijection, so same-degree ranges meet (also within one path)."""
    edges = [Edge(x, c, "v", "v") for x, c in
             (("a1", 1), ("a2", 1), ("b1", 2), ("b2", 2))]
    theta = {("b1", "a1"): ("a1", "b1"), ("b1", "a2"): ("a1", "b1"),
             ("b2", "a1"): ("a1", "b1"), ("b2", "a2"): ("a2", "b2")}
    squares = [CommutationSquare(lhs=lhs, rhs=rhs) for rhs, lhs in theta.items()]
    return KGraph(2, ["v"], edges, squares)


def _range_conflicts_against_scan(space):
    """The library's list is the scan's grading-1 part, and the two agree on
    the verdict wherever the edge maps are injective.  Returns whether the
    scan found conflicts only past grading 1."""
    got = fock.same_degree_range_conflicts(space)
    want = oracle_range_conflicts(space)
    assert got == [c for c in want if c[0].delta == 1]
    iso = oracle_partial_isometry_residual(space)
    assert (not got and iso == 0) == (not want and iso == 0)
    return bool(want) and not got


def test_range_conflicts_match_scan():
    from test_acceptance import _suite_graphs

    cases = _suite_graphs() + [("collapsing squares", _collapsing_graph())]
    for (name, g), trunc in itertools.product(cases, (2, 3, 4)):
        space = fock.TruncatedFock(g, trunc)
        _range_conflicts_against_scan(space)
    bad = fock.same_degree_range_conflicts(fock.TruncatedFock(_collapsing_graph(), 3))
    assert bad and bad[0][0].word == ("b1",) and bad[0][1].word == ("b2",)


def test_range_conflicts_on_random_square_maps():
    graphs = random_square_maps(200, seed=0)
    past_grading_one = 0
    for g, trunc in itertools.product(graphs, (2, 3)):
        past_grading_one += _range_conflicts_against_scan(fock.TruncatedFock(g, trunc))
    assert {g.k for g in graphs} == {2, 3} and past_grading_one > 0
