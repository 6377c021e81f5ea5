"""The exact checks compose column -> row maps, and the radical check is
certified by reach levels; the conftest oracles multiply sparse matrices.
Both must give the same residuals and reports, nonzero residuals included."""

import itertools
from collections import Counter

import numpy as np
import pytest

from conftest import (MAX_PRODUCTS, oracle_commutant_residual, oracle_multiplicativity_check,
                      oracle_partial_isometry_residual, oracle_radical_check,
                      random_k3_candidates, random_valid_kgraphs)
from kfock import builders, fock, gelfand, structure
from kfock.kgraph import CommutationSquare, KGraph
from test_acceptance import _suite_graphs
from test_edge_tables import _collapsing_graph


def _collapsed_table(shape, seed):
    """A seeded single-vertex table whose square ``i`` takes the sorted side
    of square ``j``, so two (high, low) pairs rewrite to one word."""
    g = builders.single_vertex(shape, builders.random_table(shape, seed))
    squares = list(g.squares)
    i, j = (int(x) for x in np.random.default_rng(seed).choice(len(squares), 2, replace=False))
    squares[i] = CommutationSquare(lhs=squares[j].lhs, rhs=squares[i].rhs)
    return KGraph(g.k, g.vertices, g.edges, squares)


def _cases():
    cases = _suite_graphs() + [("collapsing squares", _collapsing_graph())]
    cases += [(f"single-vertex (2,2) seed:{s} collapsed", _collapsed_table((2, 2), s))
              for s in range(4)]
    cases += [(f"k=3 candidate {i}", g) for i, g in enumerate(random_k3_candidates(7, 33))]
    return cases


def test_residuals_match_sparse_product_oracles():
    nonzero = Counter()
    for (name, g), trunc in itertools.product(_cases(), range(6)):
        space = fock.TruncatedFock(g, trunc)
        got = (fock.commutant_residual(space), fock.partial_isometry_residual(space))
        want = (oracle_commutant_residual(space), oracle_partial_isometry_residual(space))
        assert got == want, (name, trunc)
        assert all(type(r) is int for r in got)
        nonzero.update(["commutant"] * got[0] + ["isometry"] * got[1])
    assert nonzero["commutant"] >= 5 and nonzero["isometry"] >= 5, nonzero


def _radical_cases():
    cases = _cases() + [("chain 4", builders.chain(4))]
    return cases + [(f"random {i}", g) for i, g in enumerate(random_valid_kgraphs(4, 5))]


def _assert_certificate(g, rep):
    """Reach levels never rise along an edge and drop on each no-cycle edge."""
    level = rep["reachLevels"]
    assert set(level) == set(g.vertices)
    for e in g.edges:
        drop = level[e.src] - level[e.dst]
        assert drop > 0 if e.id in rep["ncEdges"] else drop >= 0, e.id


def test_radical_check_matches_sparse_product_oracle():
    searched = 0
    for (name, g), trunc in itertools.product(_radical_cases(), range(5)):
        space = fock.TruncatedFock(g, trunc)
        for params in ((2, None), (1, 2), (3, trunc)):
            got = structure.radical_check(g, space, *params)
            want = oracle_radical_check(g, space, *params)
            assert {key: got[key] for key in want} == want, (name, trunc, params)
            _assert_certificate(g, got)
            searched += got["nFoldChecked"] > 0
    assert searched > 0


PAST_THE_CAP = {
    "chain 5": (builders.chain(5), 4),
    "chain 6": (builders.chain(6), 5),
    "chain(3) x f1 x c2": (builders.direct_product([builders.from_digraph(d) for d in (
        builders.chain_digraph(3), builders.bouquet_digraph(1), builders.cycle_digraph(2))]), 3),
}


@pytest.mark.parametrize("name", PAST_THE_CAP)
def test_radical_check_answers_past_the_product_cap(name):
    """Inputs whose idealWords ** |V| passes the oracle's product cap."""
    g, trunc = PAST_THE_CAP[name]
    rep = structure.radical_check(g, fock.TruncatedFock(g, trunc))
    assert rep["ok"]
    assert rep["nFoldChecked"] == rep["idealWords"] ** len(g.vertices) > MAX_PRODUCTS
    assert rep["squareZeroFailures"] == [] and rep["nFoldFailures"] == []
    _assert_certificate(g, rep)


@pytest.mark.parametrize("tokens,trunc", [(["single-vertex", "2", "2", "cyclic"], 6),
                                          (["single-vertex", "2", "3", "seed:4"], 5)])
def test_multiplicativity_matches_sparse_product_oracle(tokens, trunc):
    g = builders.builtin_graph(tokens)
    space = fock.TruncatedFock(g, trunc)
    points = gelfand.sample_variety_points(g, 3, seed=11, max_norm=0.4)
    points.append(gelfand.as_point(g, [0.3, 0.1] + [0.05j, 0.2, 0.1][:len(g.edges) - 2]))
    for pt in points:
        assert gelfand.multiplicativity_check(space, pt) == oracle_multiplicativity_check(space, pt)
