"""The exact checks compose column -> row maps, and the radical check is
certified by reach levels; the conftest oracles multiply sparse matrices.
Both must give the same residuals and reports, nonzero residuals included.
Cesaro sums gather one matrix from their terms' maps; the oracle adds one
sparse matrix per term."""

import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import (MAX_PRODUCTS, oracle_basis_size, oracle_cesaro, oracle_commutant_residual,
                      oracle_multiplicativity_check, oracle_orthogonal_isometries,
                      oracle_partial_isometry_residual, oracle_radical_check,
                      random_k3_candidates, random_valid_kgraphs)
from kfock import builders, fock, gelfand, structure
from kfock.kgraph import CommutationSquare, Edge, KGraph, validate
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


def _right_maps(space):
    """The edges' right creation maps, one row per edge code."""
    return np.array([fock.image(fock.right_op(space, e.id)) for e in space.graph.edges])


def _serve_right_maps(monkeypatch, space, right, real=fock.right_op):
    """Make ``fock.right_op`` give each edge of ``space`` its row of ``right``,
    which both ``commutant_residual`` and the oracle read; every other call
    goes to the real ``right_op``, bound when this module is imported."""
    def patched(sp, what):
        lam = sp.as_path(what)
        if sp is space and len(lam.word) == 1:
            return fock.SparseOperator(sp, image=right[sp.edge_codes[lam.word[0]]])
        return real(sp, what)
    monkeypatch.setattr(fock, "right_op", patched)


def test_residuals_of_corrupted_tables_match_sparse_product_oracles(monkeypatch):
    """Seeded corruptions of one entry of ``left`` or of an edge's right
    creation map at N = 4, the least N at which every comparison's block is
    nonempty.  The entry becomes -1 or another index of grading delta(c) + 1,
    so gradings still grow along words and the oracles' interior blocks of
    rows and columns stay comparable.  The column's grading is drawn first,
    so the few columns of low grading, which every block holds, come up
    often."""
    graphs = [g for _, g in _suite_graphs()]
    rng = np.random.default_rng(0)
    nonzero = Counter()
    for trial in range(60):
        space = fock.TruncatedFock(graphs[trial % len(graphs)], 4)
        which = ("left", "right")[int(rng.integers(2))]
        table = space.left.copy() if which == "left" else _right_maps(space)
        t = rng.choice(np.unique(space.deltas[:space.prefix(space.trunc - 1)]))
        e, c = int(rng.integers(len(table))), int(rng.choice(np.flatnonzero(space.deltas == t)))
        above = np.flatnonzero(space.deltas == t + 1)
        table[e, c] = rng.choice(above) if len(above) and rng.random() < 0.5 else -1
        if which == "left":
            space.__dict__["left"] = table
        else:
            _serve_right_maps(monkeypatch, space, table)
        got = (fock.commutant_residual(space), fock.partial_isometry_residual(space))
        want = (oracle_commutant_residual(space), oracle_partial_isometry_residual(space))
        assert got == want, (trial, which, e, c)
        nonzero.update(["commutant"] * got[0] + ["isometry"] * got[1])
    assert nonzero["commutant"] >= 5 and nonzero["isometry"] >= 5, nonzero


@pytest.mark.parametrize("grading", [0, 2])
def test_commutant_sees_corruptions_only_one_comparison_can(grading, monkeypatch):
    """On cycle 3 2 at N = 4: an edge b's image of a vertex column dropped to
    -1 shows only where R_b is undefined (R_b L_a is still defined there); a
    grading-2 image moved to another range vertex shows only against the
    vertex projections, since the edge-pair block stops at grading 0."""
    space = fock.TruncatedFock(builders.cycle_rank(3, 2), 4)
    right, dst = _right_maps(space), space.ends[1]
    c = space.prefix(grading - 1)  # the first path of the grade
    b = np.flatnonzero(right[:, c] >= 0)[0]
    moved = np.flatnonzero((space.deltas == grading + 1) & (dst != dst[c]))
    right[b, c] = moved[0] if grading else -1
    _serve_right_maps(monkeypatch, space, right)
    assert fock.commutant_residual(space) == oracle_commutant_residual(space) == 1


def test_checks_read_left_and_build_each_right_generator_once(monkeypatch):
    """Neither check builds a left creation operator (they read the rows of
    ``left``), and the commutant builds each right generator's map once."""
    calls = Counter()
    for name in ("left_op", "right_op"):
        def counted(*args, _name=name, _real=getattr(fock, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(fock, name, counted)
    for _, g in _suite_graphs():
        space = fock.TruncatedFock(g, 4)
        calls.clear()
        assert (fock.commutant_residual(space), fock.partial_isometry_residual(space)) == (0, 0)
        assert (calls["left_op"], calls["right_op"]) == (0, len(g.vertices) + len(g.edges))


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


MULTIPLICATIVITY_CASES = [
    (["single-vertex", "2", "2", "cyclic"], 6),
    (["single-vertex", "2", "3", "seed:4"], 5),
    *((["single-vertex", "2", "2", "cyclic"], n) for n in (0, 1, 2)),  # below the budget
    (["single-vertex", "1", "1", "1", "id"], 5),
    (["single-vertex", "2", "2", "1", "seed:1"], 4),
]


@pytest.mark.parametrize("tokens,trunc", MULTIPLICATIVITY_CASES)
def test_multiplicativity_matches_sparse_product_oracle(tokens, trunc):
    """Whole reports agree exactly at grading budgets 0, 1, 3 and 4, on
    sampled variety points and on one point off the variety wherever the
    table has binomials (the negative control)."""
    g = builders.builtin_graph(tokens)
    space = fock.TruncatedFock(g, trunc)
    points = gelfand.sample_variety_points(g, 3, seed=11, max_norm=0.4)
    control = gelfand.as_point(g, [0.3, 0.1] + [0.05j, 0.2, 0.1][:len(g.edges) - 2])
    assert gelfand.in_variety(g, control) == (not gelfand.variety_polys(g))
    for pt, budget in itertools.product(points + [control], (0, 1, 3, 4)):
        got = gelfand.multiplicativity_check(space, pt, grading_budget=budget)
        assert got == oracle_multiplicativity_check(space, pt, grading_budget=budget), budget


def _two_vertex_graph():
    """A double loop at w, reached from u by one edge."""
    return KGraph(k=1, vertices=["u", "w"], edges=[
        Edge("l1", 1, "w", "w"), Edge("l2", 1, "w", "w"), Edge("c", 1, "u", "w")])


def _small_truncations(g, witness):
    margin = fock.orthogonal_isometries(g, fock.TruncatedFock(g, 0), witness)[2]["isometryMargin"]
    return (3,) + ((margin + 1,) if oracle_basis_size(g, margin + 1) <= 4000 else ())


def _isometry_cases():
    """(name, graph, witness, truncations): criterion 08's graphs, the
    two-vertex graph, seeded k <= 2 and valid k = 3 graphs, and the graphs of
    the residual tests.  At the witness's vertex, every colour with two
    primitive cycles gives three witnesses: its first two cycles in order
    (the library's own witness among them), the first twice, and the two
    swapped.  Graphs without given truncations take N = 3 and, where the
    basis stays small, one past the isometry margin."""
    graphs = [("bouquet 2", builders.bouquet(2), (4, 8))]
    graphs += [(f"single-vertex (2,1) {name}",
                builders.single_vertex((2, 1), theta={(1, 2): theta}), (5, 8))
               for name, theta in (("id", (0, 1)), ("swap", (1, 0)))]
    graphs.append(("two vertices", _two_vertex_graph(), (3, 9)))
    graphs += [(f"random {i}", g, ()) for i, g in enumerate(random_valid_kgraphs(40, 8))]
    graphs += [(f"valid k=3 {i}", g, ()) for i, g in enumerate(random_k3_candidates(40, 12))
               if validate(g).ok]
    graphs += [(name, g, ()) for name, g in _cases()]
    cases = []
    for name, g, truncs in graphs:
        w = structure.double_pure_cycle_property(g)
        if w is None:
            continue
        by_color = {}
        for c in structure.pure_primitive_cycles(g):
            if c.vertex == w.vertex:
                by_color.setdefault(c.color, []).append(c)
        for color, (c0, c1, *_) in ((c, cs) for c, cs in by_color.items() if len(cs) > 1):
            for label, cycles in (("", (c0, c1)), (" twice", (c0, c0)), (" swapped", (c1, c0))):
                forged = replace(w, color=color, cycles=cycles)
                cases.append((f"{name} colour {color}{label}", g, forged,
                              truncs or _small_truncations(g, forged)))
    return cases


def test_orthogonal_isometries_match_sparse_product_oracle():
    nonzero, counted = Counter(), Counter()
    for name, g, witness, truncs in _isometry_cases():
        counted[name.split()[0]] += 1
        for trunc in truncs:
            space = fock.TruncatedFock(g, trunc)
            U, V, rep = fock.orthogonal_isometries(g, space, witness=witness)
            oU, oV, want = oracle_orthogonal_isometries(g, space, witness=witness)
            assert rep == want, (name, trunc)
            assert all(type(rep[key]) is int for key in ("orthogonalityResidual", "isometryResidual"))
            assert type(rep["ok"]) is bool
            for got, oracle in ((U, oU), (V, oV)):
                assert got.matrix.dtype == oracle.matrix.dtype
                assert (got.matrix != oracle.matrix).nnz == 0, (name, trunc)
            nonzero.update(["orthogonality"] * rep["orthogonalityResidual"]
                           + ["isometry"] * rep["isometryResidual"]
                           + ["interior block"] * (rep["isometryBlockDim"] > 0))
    assert counted["random"] >= 10 and counted["valid"] >= 10, counted
    assert nonzero["orthogonality"] >= 5 and nonzero["isometry"] >= 5, nonzero
    assert nonzero["interior block"] >= 100, nonzero


@pytest.mark.parametrize("tokens", [["cycle", "3", "2"], ["single-vertex", "2", "2", "cyclic"],
                                    ["product", "f2", "c2"]])
def test_cesaro_matches_running_sum(tokens):
    g = builders.builtin_graph(tokens)
    space = fock.TruncatedFock(g, 4)
    rng = np.random.default_rng(5)
    paths = [p for p in g.all_paths_up_to(3) if p.word]
    A = None
    for i in rng.choice(len(paths), 6, replace=False):
        piece = complex(*rng.normal(size=2)) * fock.left_op(space, paths[int(i)])
        A = piece if A is None else A + piece
    A = A + 0.5 * fock.left_op(space, g.vertices[0])
    for n in (1, 2, 3, 5, 8):
        got, want = fock.cesaro(A, n).matrix, oracle_cesaro(A, n).matrix
        assert got.dtype == want.dtype == np.complex128 and got.shape == want.shape
        assert got.has_canonical_format and want.has_canonical_format
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes(), (n, part)
