"""The critical-word verdict of ``validate`` against the grading-bounded
search it replaced, on valid and invalid graphs of rank 2, 3 and 4, and its
square stage against the side-by-side oracle."""

import itertools

import numpy as np
import pytest
from conftest import (
    _reachable_normal_forms,
    oracle_square_structure_failures,
    oracle_validate,
    random_k3_candidates,
    random_square_maps,
    random_valid_kgraphs,
)

from kfock import builders
from kfock.errors import DomainError
from kfock.kgraph import CommutationSquare, Edge, KGraph, _square_structure_failures, validate

SHAPES = [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)]
K4_SHAPE = (1, 2, 2, 1)
BUILTINS = [
    ["cycle", "4", "3"],
    ["cycle", "3", "4"],
    ["product", "f2", "c2", "f1"],
    ["single-vertex", "2", "2", "2", "cyclic"],
    ["cycle", "3", "2"],
    ["product", "f2", "f3"],
]


def _graphs():
    tables = [(shape, seed) for shape in SHAPES for seed in range(15)]
    tables += [(K4_SHAPE, seed) for seed in range(6)]
    for shape, seed in tables:
        yield f"sv{shape}:{seed}", builders.single_vertex(shape, builders.random_table(shape, seed))
    for tokens in BUILTINS:
        yield " ".join(tokens), builders.builtin_graph(tokens)
    for t, g in enumerate(random_k3_candidates(12, seed=1)):
        yield f"k3-candidate:{t}", g
    for t, g in enumerate(random_valid_kgraphs(6, seed=5)):
        yield f"k<=2-random:{t}", g


def test_critical_words_agree_with_bounded_search():
    verdicts = {}
    for name, g in _graphs():
        rep = validate(g)
        assert rep.ok == oracle_validate(g, 5).ok, name
        verdicts[name] = (g.k, rep.ok)
        if rep.ok:
            continue
        conf = [f for f in rep.failures if f["kind"] == "confluence"]
        assert conf, name
        for f in conf:
            word = tuple(f["word"])
            colors = [g.edge(x).color for x in word]
            assert len(word) == 3 and colors[0] > colors[1] > colors[2], (name, f)
            g.path_from_word(word)  # raises unless composable
            forms = f["normalForms"]
            assert len(forms) == 2 and forms[0] != forms[1], (name, f)
            assert {tuple(w) for w in forms} == _reachable_normal_forms(g, word, {}), (name, f)
    assert len(verdicts) >= 100
    assert {k for k, _ in verdicts.values()} >= {2, 3, 4}
    for k in (3, 4):
        oks = [ok for rank, ok in verdicts.values() if rank == k]
        assert any(oks) and not all(oks), k
    assert not verdicts["single-vertex 2 2 2 cyclic"][1]


@pytest.mark.parametrize("max_grading", [0, 2, 9])
def test_grading_bound_is_only_echoed(max_grading):
    g = builders.single_vertex((2, 2, 2), theta=builders.cyclic_table((2, 2, 2)))
    rep = validate(g, max_grading=max_grading)
    assert rep.to_dict() == {**validate(g).to_dict(), "maxGrading": max_grading}
    assert validate(g, max_grading).to_dict() == rep.to_dict()
    assert not rep.ok


STAGE_A_KINDS = {"square-duplicate-lhs", "square-duplicate-rhs", "square-lhs-mismatch",
                 "square-rhs-mismatch", "pair-cardinality", "square-endpoints"}


def _random_square_graph(rng):
    """2 or 3 colours, up to three vertices and six edges at random, and for
    each colour pair random squares: each side drawn from its composable
    pairs or from all pairs of its colours, so cells need not pair off."""
    k = int(rng.integers(2, 4))
    vertices = [f"v{t}" for t in range(int(rng.integers(1, 4)))]
    edges = [Edge(f"e{t}", int(rng.integers(1, k + 1)), vertices[int(rng.integers(len(vertices)))],
                  vertices[int(rng.integers(len(vertices)))])
             for t in range(int(rng.integers(1, 7)))]
    squares = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        sides = []
        for then, first in ((i, j), (j, i)):
            pairs = [(x, y) for x in edges if x.color == then for y in edges if y.color == first]
            composable = [(x, y) for x, y in pairs if x.src == y.dst]
            side = composable if composable and rng.random() < 0.6 else pairs
            sides.append([(x.id, y.id) for x, y in side])
        lhs, rhs = sides
        if lhs and rhs:
            squares += [CommutationSquare(lhs=lhs[int(rng.integers(len(lhs)))],
                                          rhs=rhs[int(rng.integers(len(rhs)))])
                        for _ in range(int(rng.integers(len(lhs) + 2)))]
    return KGraph(k, vertices, edges, squares)


def _damaged(rng, g):
    """``g`` with one square dropped, one doubled, or two squares' reversed
    sides crossed; None when the crossing breaks the colour pattern."""
    squares = list(g.squares)
    if not squares:
        return None
    t, u = (int(x) for x in rng.integers(len(squares), size=2))
    how = int(rng.integers(3))
    if how == 0:
        del squares[t]
    elif how == 1:
        squares.append(squares[t])
    else:
        squares[t], squares[u] = (CommutationSquare(squares[t].lhs, squares[u].rhs),
                                  CommutationSquare(squares[u].lhs, squares[t].rhs))
    try:
        return KGraph(g.k, g.vertices, g.edges, squares)
    except DomainError:
        return None


def test_square_stage_agrees_with_oracle():
    rng = np.random.default_rng(1515)
    graphs = [g for _, g in _graphs()]
    graphs += random_k3_candidates(150, seed=15) + random_square_maps(150, seed=15)
    graphs += random_valid_kgraphs(150, seed=15)
    graphs += [d for d in (_damaged(rng, g) for g in list(graphs)) if d is not None]
    graphs += [_random_square_graph(rng) for _ in range(1500)]
    kinds = set()
    for g in graphs:
        failures = _square_structure_failures(g)
        assert failures == oracle_square_structure_failures(g), g
        kinds |= {f["kind"] for f in failures}
    assert len(graphs) >= 2000
    assert kinds == STAGE_A_KINDS
