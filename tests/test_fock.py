"""Exact operator checks on truncated Fock spaces."""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import (diagonal_part, grading_projection, identity_op, max_abs, oracle_basis_size,
                      oracle_write_matrix_market, random_valid_kgraphs, sort_key,
                      transpose_pairing)
from kfock import builders, fock
from kfock.errors import BudgetError, DomainError, MalformedGraphError, UnsupportedGraphError
from kfock.kgraph import CommutationSquare, Edge, KGraph, validate


@pytest.fixture(scope="module")
def cyc_fock(cycle32):
    return fock.TruncatedFock(cycle32, 6)


@pytest.fixture(scope="module")
def chain_fock(chain3):
    return fock.TruncatedFock(chain3, 4)


def test_basis_is_sorted_and_indexed(cyc_fock):
    keys = [sort_key(p) for p in cyc_fock.basis]
    assert keys == sorted(keys)
    for i, p in enumerate(cyc_fock.basis):
        assert cyc_fock.index_of(p) == i


def test_basis_count_equals_dimension():
    from test_acceptance import _suite_graphs

    k3 = [builders.single_vertex(shape, builders.random_table(shape, seed))
          for shape, seed in (((2, 2, 1), 1), ((1, 2, 1), 0))]
    for g in [g for _, g in _suite_graphs()] + k3:
        assert validate(g).ok
        for trunc in range(7):
            assert oracle_basis_size(g, trunc) == fock.TruncatedFock(g, trunc).dimension


def test_oversized_basis_is_refused_before_enumeration():
    g = builders.builtin_graph(["single-vertex", "2", "3", "cyclic"])
    assert oracle_basis_size(g, 11) == 788_970 <= fock.MAX_DIMENSION
    with pytest.raises(BudgetError):
        fock.TruncatedFock(g, 12)  # 2,375,101 paths
    assert g._paths_cache == {}


def test_oversized_edge_tables_are_refused_before_allocation():
    space = fock.TruncatedFock(builders.cycle_rank(2000, 3), 4)
    assert space.dimension == 70_000  # far under MAX_DIMENSION
    assert 6000 * 70_001 > fock.MAX_TABLE_ENTRIES  # each table would be 3.13 GiB
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            space.left
        with pytest.raises(BudgetError):
            fock.right_op(space, "e1")
        with pytest.raises(BudgetError):
            fock.right_op(space, "x1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24


def test_commutant_builds_each_right_map_from_left_without_a_second_table():
    """Each R_b is built from ``left`` when asked for, one map at a time, so
    the commutant check allocates far less than a second |E|-row table."""
    space = fock.TruncatedFock(builders.cycle_rank(200, 3), 4)
    left = space.left
    tracemalloc.start()
    try:
        assert fock.commutant_residual(space) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < left.nbytes / 4, (peak, left.nbytes)


def test_table_build_peaks_near_the_table():
    """The swap pairs are expanded one grade at a time from the squares of
    each lead letter, so the build holds the table and one grade's pairs."""
    space = fock.TruncatedFock(builders.builtin_graph(["single-vertex", "2", "2", "cyclic"]), 10)
    tracemalloc.start()
    try:
        left = space.left
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * left.nbytes, (peak, left.nbytes)


def test_missing_squares_are_named_in_edge_then_column_order():
    # (c, a1) and (b, a2) have no square: column a1 comes first, edge b comes first
    edges = [Edge(x, c, "v", "v") for x, c in (("a1", 1), ("a2", 1), ("b", 2), ("c", 2))]
    squares = [CommutationSquare(lhs=(a, x), rhs=(x, a)) for a, x in (("a1", "b"), ("a2", "c"))]
    space = fock.TruncatedFock(KGraph(2, ["v"], edges, squares), 2)
    with pytest.raises(MalformedGraphError, match=r"no square for adjacent pair \(b, a2\)"):
        space.left


def test_grading_projections_partition(cyc_fock):
    total = sum(cyc_fock.prefix(t) - cyc_fock.prefix(t - 1) for t in range(cyc_fock.trunc + 1))
    assert total == cyc_fock.dimension
    acc = None
    for t in range(cyc_fock.trunc + 1):
        e_t = grading_projection(cyc_fock, t)
        acc = e_t if acc is None else acc + e_t
    assert max_abs(acc - identity_op(cyc_fock)) == 0


def test_diagonal_part_matches_projection_sandwich(cyc_fock):
    A = fock.left_op(cyc_fock, "e1") + 2 * fock.left_op(cyc_fock, "x2")
    for m in (-1, 0, 1):
        direct = diagonal_part(A, m)
        acc = None
        for j in range(cyc_fock.trunc + 1):
            if not 0 <= j + m <= cyc_fock.trunc:
                continue
            piece = (grading_projection(cyc_fock, j) @ A
                     @ grading_projection(cyc_fock, j + m))
            acc = piece if acc is None else acc + piece
        assert acc is not None
        assert max_abs(direct - acc) == 0


def test_vertex_op_is_range_projection(chain_fock, chain3):
    x2 = fock.left_op(chain_fock, "x2")
    m = x2.matrix.toarray()
    assert np.array_equal(m, np.diag(np.diag(m)))
    diag = np.diag(m)
    for i, p in enumerate(chain_fock.basis):
        assert diag[i] == (1 if p.dst == "x2" else 0)


def test_generator_entries_are_zero_one(cyc_fock):
    for e in cyc_fock.graph.edges:
        data = fock.left_op(cyc_fock, e.id).matrix.data
        assert set(np.unique(data)) <= {1}


def test_left_op_domain_error(cyc_fock, chain3):
    with pytest.raises(DomainError):
        fock.left_op(cyc_fock, chain3.edge_path("a1"))
    with pytest.raises(DomainError):
        fock.left_op(cyc_fock, "nope")


def test_partial_isometry_exact(cyc_fock, chain_fock):
    assert fock.partial_isometry_residual(cyc_fock) == 0
    assert fock.partial_isometry_residual(chain_fock) == 0


def test_product_law_on_interior_block(cyc_fock):
    g = cyc_fock.graph
    lam = g.edge_path("e1")
    mu = g.edge_path("f3")  # f3: x3 -> x1 then e1: x1 -> x2
    prod = fock.left_op(cyc_fock, lam) @ fock.left_op(cyc_fock, mu)
    direct = fock.left_op(cyc_fock, g.compose(lam, mu))
    assert (prod - direct).max_abs_interior(2) == 0


@pytest.mark.parametrize("g", [
    builders.cycle_rank(4, 3),
    builders.builtin_graph(["product", "f2", "c2", "f1"]),
    builders.single_vertex((2, 2, 1), builders.random_table((2, 2, 1), 1)),
    builders.single_vertex((1, 2, 1), builders.random_table((1, 2, 1), 0)),
], ids=["cycle 4 3", "product f2 c2 f1", "sv(2,2,1) seed 1", "sv(1,2,1) seed 0"])
def test_exact_checks_vanish_at_rank_3(g):
    assert validate(g).ok
    space = fock.TruncatedFock(g, 3)
    assert fock.commutant_residual(space) == 0
    assert fock.partial_isometry_residual(space) == 0
    assert fock.same_degree_range_conflicts(space) == []


def test_same_degree_ranges_disjoint(cyc_fock):
    assert fock.same_degree_range_conflicts(cyc_fock) == []
    # belt and braces: explicit products for one degree
    paths = cyc_fock.graph.paths_of_degree((1, 1))
    for a in paths:
        for b in paths:
            prod = fock.left_op(cyc_fock, a).adjoint() @ fock.left_op(cyc_fock, b)
            if a == b:
                assert prod.max_abs_interior(2) == 1
            else:
                assert max_abs(prod) == 0


def test_commutant_residual_zero(cyc_fock, chain_fock):
    assert fock.commutant_residual(cyc_fock) == 0
    assert fock.commutant_residual(chain_fock) == 0


def test_commutator_actually_vanishes_on_whole_truncation(cyc_fock):
    g = cyc_fock.graph
    L = fock.left_op(cyc_fock, "e1")
    R = fock.right_op(cyc_fock, "f1")
    assert max_abs(L @ R - R @ L) == 0


def test_fourier_reads_off_word_coefficients(cyc_fock):
    g = cyc_fock.graph
    A = 1 * fock.left_op(cyc_fock, "e1") + 2 * fock.left_op(cyc_fock, "f1")
    assert fock.fourier_coefficient(A, g.edge_path("e1")) == 1
    assert fock.fourier_coefficient(A, g.edge_path("f1")) == 2
    assert fock.fourier_coefficient(A, g.edge_path("e2")) == 0
    series = fock.fourier_series(A)
    assert series == {g.edge_path("e1"): 1, g.edge_path("f1"): 2}


def test_fourier_linear(cyc_fock):
    g = cyc_fock.graph
    A = fock.left_op(cyc_fock, "e1")
    B = fock.left_op(cyc_fock, "f2")
    lam = g.edge_path("e1")
    combo = 3 * A + 2j * B
    assert fock.fourier_coefficient(combo, lam) == 3
    assert fock.fourier_coefficient(combo, g.edge_path("f2")) == 2j


def test_fourier_roundtrip_on_combinations(cyc_fock):
    g = cyc_fock.graph
    coeffs = {g.edge_path("e1"): 0.5 + 0.25j, g.normal_form(("e2", "f1")): -2.0}
    A = None
    for p, c in coeffs.items():
        piece = c * fock.left_op(cyc_fock, p)
        A = piece if A is None else A + piece
    for p, c in coeffs.items():
        assert fock.fourier_coefficient(A, p) == c


def test_cesaro_weights(cyc_fock):
    x1 = fock.left_op(cyc_fock, "x1")
    for n in (1, 2, 5):
        assert max_abs(fock.cesaro(x1, n) - x1) == 0
    e1 = fock.left_op(cyc_fock, "e1")
    for n in (1, 2, 4):
        diff = fock.cesaro(e1, n) - (1 - 1 / n) * e1
        assert max_abs(diff) <= 1e-15


def test_cesaro_interior_entries_converge(cyc_fock):
    g = cyc_fock.graph
    A = fock.left_op(cyc_fock, "e1") + 0.5 * fock.left_op(cyc_fock, g.normal_form(("e2", "f1")))
    target = A.matrix.toarray()
    entry = None
    for n in (4, 16, 64, 256):
        approx = fock.cesaro(A, n).matrix.toarray()
        err = np.abs(approx - target).max()  # all symbols have grading <= 2
        assert err <= 2.0 / n + 1e-12
        entry = err
    assert entry <= 2.0 / 256 + 1e-12


def test_diagonal_part_extracts_grades(cyc_fock):
    A = fock.left_op(cyc_fock, "e1") + fock.left_op(cyc_fock, "x1")
    d0 = diagonal_part(A, 0)
    d1 = diagonal_part(A, -1)
    assert max_abs(d0 - fock.left_op(cyc_fock, "x1")) == 0
    assert max_abs(d1 - fock.left_op(cyc_fock, "e1")) == 0
    assert diagonal_part(A, 1).nnz == 0
    assert max_abs(d0 + d1 - A) == 0


def test_isometries_from_double_cycle_f2(f2):
    space = fock.TruncatedFock(f2, 8)
    U, V, rep = fock.orthogonal_isometries(f2, space)
    assert rep["termsU"] == [["e1_1", "e1_2"]]
    assert rep["termsV"] == [["e1_1", "e1_1", "e1_2"]]
    assert rep["orthogonalityResidual"] == 0
    assert rep["isometryResidual"] == 0


def test_isometries_unsupported_on_cycles(cycle32, cyc_fock):
    with pytest.raises(UnsupportedGraphError):
        fock.orthogonal_isometries(cycle32, cyc_fock)


def test_isometries_multi_vertex():
    # two vertices, double loop at the reachable one
    from kfock.kgraph import Edge, KGraph

    g = KGraph(
        k=1,
        vertices=["u", "w"],
        edges=[Edge("l1", 1, "w", "w"), Edge("l2", 1, "w", "w"), Edge("c", 1, "u", "w")],
    )
    space = fock.TruncatedFock(g, 9)
    U, V, rep = fock.orthogonal_isometries(g, space)
    assert rep["ok"]
    assert len(rep["termsU"]) == 2
    assert rep["isometryBlockDim"] > 0
    # a truncation below the longest term leaves no interior block: the
    # identity check is vacuous and must not report success
    tiny = fock.TruncatedFock(g, 3)
    _, _, rep_tiny = fock.orthogonal_isometries(g, tiny)
    assert rep_tiny["isometryBlockDim"] == 0
    assert not rep_tiny["ok"]


def test_cycle_block_structure():
    rep = fock.verify_cycle_blocks(3, 2, 6)
    assert rep["ok"]
    assert rep["generatorBlocks"] == {
        "e1": [2, 1], "e2": [3, 2], "e3": [1, 3],
        "f1": [2, 1], "f2": [3, 2], "f3": [1, 3],
    }
    rep4 = fock.verify_cycle_blocks(4, 3, 5)
    assert rep4["ok"]
    # the closed form [i mod n + 1, i] for the colour-c edge out of x_i, keys in id
    # order; trunc 0 (no edge entry in left) and the loops of n = 1 included
    for n, k, trunc in itertools.product(range(1, 7), range(1, 4), range(6)):
        rep = fock.verify_cycle_blocks(n, k, trunc)
        want = {f"{letter}{i}": [i % n + 1, i] for letter in "efg"[:k] for i in range(1, n + 1)}
        assert rep["generatorBlocks"] == want and list(rep["generatorBlocks"]) == sorted(want)
        assert rep["ok"], (n, k, trunc)


def test_right_op_unitarily_equivalent_to_transposed_left(cycle32, chain3, sv22_cyclic):
    for g in (cycle32, chain3, sv22_cyclic):
        gt = builders.transpose(g)
        N = 5
        f_g = fock.TruncatedFock(g, N)
        f_t = fock.TruncatedFock(gt, N)
        perm = transpose_pairing(f_g, f_t)
        U = sp.csr_matrix(
            (np.ones(f_g.dimension, dtype=np.int64),
             (np.arange(f_g.dimension), perm)),
            shape=(f_g.dimension, f_t.dimension),
        )
        for e in g.edges:
            mu = g.edge_path(e.id)
            mu_t = gt.normal_form(tuple(reversed(mu.word)))
            R = fock.right_op(f_g, mu).matrix
            L = fock.left_op(f_t, mu_t).matrix
            diff = R - U @ L @ U.T
            assert diff.nnz == 0 or np.abs(diff.data).max() == 0


def test_transpose_pairing_refuses_spaces_that_do_not_pair(cycle32):
    f_g = fock.TruncatedFock(cycle32, 4)
    gt = builders.transpose(cycle32)
    with pytest.raises(DomainError):
        transpose_pairing(f_g, fock.TruncatedFock(gt, 3))  # reversals past N = 3
    with pytest.raises(DomainError):
        transpose_pairing(f_g, fock.TruncatedFock(cycle32, 4))  # edges not reversed


def test_image_needs_a_creation_operator(cyc_fock):
    op = fock.left_op(cyc_fock, "e1")
    assert fock.image(op) is op._image
    with pytest.raises(DomainError):
        fock.image(identity_op(cyc_fock))


def test_matrix_market_export(tmp_path, cyc_fock):
    op = fock.left_op(cyc_fock, "e1")
    out = tmp_path / "e1.mtx"
    fock.write_matrix_market(op, out)
    header = out.read_text().splitlines()[0]
    assert "coordinate" in header and "complex" in header and "general" in header
    back = __import__("scipy.io", fromlist=["mmread"]).mmread(str(out))
    assert (abs(back - op.matrix)).max() == 0


EXPORT_GRAPHS = ["product f2 f3", "single-vertex 2 2 seed:7", "cycle 3 2", "product f2 c2 f1",
                 "product c2 f2 c3", "single-vertex 2 2 cyclic"]  # the pinned fock graphs


def _export_spaces():
    """Each graph at N = 2 (dimension < 100) and at the first N whose
    dimension is >= 100, when its basis grows that far by N = 10."""
    graphs = [(name, builders.builtin_graph(name.split())) for name in EXPORT_GRAPHS]
    graphs += [(f"random {i}", g) for i, g in enumerate(random_valid_kgraphs(12, 19))]
    for name, g in graphs:
        yield name, fock.TruncatedFock(g, 2)
        for trunc in range(3, 11):
            space = fock.TruncatedFock(g, trunc)
            if space.dimension >= 100:
                yield name, space
                break


def test_matrix_market_export_agrees_with_scipy_writer(tmp_path, monkeypatch):
    """Where scipy writes complex general the files are equal byte for byte;
    its symmetric files (a diagonal or empty operator below dimension 100)
    read back to the same matrix.  Small chunks put chunk boundaries inside
    most files."""
    import scipy.io

    monkeypatch.setattr(fock, "EXPORT_CHUNK", 7)

    def write_both(op):
        ours, theirs = tmp_path / "ours.mtx", tmp_path / "theirs.mtx"
        fock.write_matrix_market(op, ours)
        oracle_write_matrix_market(op, theirs)
        assert ours.read_text().startswith("%%MatrixMarket matrix coordinate complex general\n")
        return ours, theirs

    seen = Counter()
    for name, space in _export_spaces():
        g = space.graph
        ops = [fock.left_op(space, v) for v in g.vertices] + [fock.left_op(space, e.id) for e in g.edges]
        ops += [fock.word_op(space, (x.id, y.id)) for x in g.edges for y in g.edges if x.src == y.dst]
        for op in ops:
            ours, theirs = write_both(op)
            if "general" in theirs.read_text().splitlines()[0]:
                assert ours.read_bytes() == theirs.read_bytes(), (name, space.dimension)
                seen["general", space.dimension >= 100] += 1
            else:
                assert (scipy.io.mmread(ours) != scipy.io.mmread(theirs)).nnz == 0, name
                seen["symmetric"] += 1
    assert all(seen[key] for key in [("general", False), ("general", True), "symmetric"]), seen

    space = fock.TruncatedFock(builders.builtin_graph(["single-vertex", "2", "2", "cyclic"]), 2)
    empty = fock.word_op(space, ("e1_1",) * 3)
    ours, theirs = write_both(empty)
    assert empty.nnz == 0 and "real symmetric" in theirs.read_text()
    assert ours.read_text() == ("%%MatrixMarket matrix coordinate complex general\n"
                                "%\n17 17 0\n")

    # weights 2/3 and (1/3)(0.1 - 0.7j): read back exactly, from either writer
    space = fock.TruncatedFock(builders.builtin_graph(["cycle", "3", "2"]), 5)
    op = fock.cesaro(fock.left_op(space, "e1") + fock.word_op(space, ("f2", "e1")) * (0.1 - 0.7j), 3)
    assert set(np.round(np.abs(op.matrix.data), 6)) == {0.666667, 0.235702}
    for path in write_both(op):
        back = scipy.io.mmread(path)
        assert back.dtype == np.complex128 and (back != op.matrix).nnz == 0


def test_basis_manifest(tmp_path, chain_fock):
    out = tmp_path / "basis.tsv"
    fock.write_basis_manifest(chain_fock, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == chain_fock.dimension + 1  # header
    first = lines[1].split("\t")
    assert first == ["0", "x1", "0,0"]
    assert any("a2 b1" in ln or "a2 a1" in ln for ln in lines)


def test_basis_manifest_is_written_a_block_at_a_time(tmp_path):
    """The manifest keeps each path's word, to extend it by a leading letter,
    but writes each degree block as soon as it is formatted: it never holds a
    list of every line and their joined text as well."""
    space = fock.TruncatedFock(builders.builtin_graph(["single-vertex", "2", "2", "cyclic"]), 10)
    out = tmp_path / "basis.tsv"
    tracemalloc.start()
    try:
        fock.write_basis_manifest(space, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert (space.dimension, size) == (20_481, 1_137_829)
    assert peak < 4 * size, (peak, size)
