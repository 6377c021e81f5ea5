"""Exact operator checks on truncated Fock spaces."""

import numpy as np
import pytest
import scipy.sparse as sp

from kfock import builders, fock
from kfock.errors import DomainError, UnsupportedGraphError
from kfock.kgraph import validate


@pytest.fixture(scope="module")
def cyc_fock(cycle32):
    return fock.TruncatedFock(cycle32, 6)


@pytest.fixture(scope="module")
def chain_fock(chain3):
    return fock.TruncatedFock(chain3, 4)


def test_basis_is_sorted_and_indexed(cyc_fock):
    keys = [p.sort_key() for p in cyc_fock.basis]
    assert keys == sorted(keys)
    for i, p in enumerate(cyc_fock.basis):
        assert cyc_fock.index_of(p) == i


def test_grading_projections_partition(cyc_fock):
    total = sum(len(cyc_fock.grade_indices(t)) for t in range(cyc_fock.trunc + 1))
    assert total == cyc_fock.dimension
    acc = None
    for t in range(cyc_fock.trunc + 1):
        e_t = fock.grading_projection(cyc_fock, t)
        acc = e_t if acc is None else acc + e_t
    assert (acc - fock.identity_op(cyc_fock)).max_abs() == 0


def test_diagonal_part_matches_projection_sandwich(cyc_fock):
    A = fock.left_op(cyc_fock, "e1") + 2 * fock.left_op(cyc_fock, "x2")
    for m in (-1, 0, 1):
        direct = fock.diagonal_part(A, m)
        acc = None
        for j in range(cyc_fock.trunc + 1):
            if not 0 <= j + m <= cyc_fock.trunc:
                continue
            piece = (fock.grading_projection(cyc_fock, j) @ A
                     @ fock.grading_projection(cyc_fock, j + m))
            acc = piece if acc is None else acc + piece
        assert acc is not None
        assert (direct - acc).max_abs() == 0


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
                assert prod.max_abs() == 0


def test_commutant_residual_zero(cyc_fock, chain_fock):
    assert fock.commutant_residual(cyc_fock) == 0
    assert fock.commutant_residual(chain_fock) == 0


def test_commutator_actually_vanishes_on_whole_truncation(cyc_fock):
    g = cyc_fock.graph
    L = fock.left_op(cyc_fock, "e1")
    R = fock.right_op(cyc_fock, "f1")
    assert (L @ R - R @ L).max_abs() == 0


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
        assert (fock.cesaro(x1, n) - x1).max_abs() == 0
    e1 = fock.left_op(cyc_fock, "e1")
    for n in (1, 2, 4):
        diff = fock.cesaro(e1, n) - (1 - 1 / n) * e1
        assert diff.max_abs() <= 1e-15


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
    d0 = fock.diagonal_part(A, 0)
    d1 = fock.diagonal_part(A, -1)
    assert (d0 - fock.left_op(cyc_fock, "x1")).max_abs() == 0
    assert (d1 - fock.left_op(cyc_fock, "e1")).max_abs() == 0
    assert fock.diagonal_part(A, 1).nnz == 0
    assert ((d0 + d1) - A).max_abs() == 0


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


def test_right_op_unitarily_equivalent_to_transposed_left(cycle32, chain3, sv22_cyclic):
    for g in (cycle32, chain3, sv22_cyclic):
        gt = builders.transpose(g)
        N = 5
        f_g = fock.TruncatedFock(g, N)
        f_t = fock.TruncatedFock(gt, N)
        perm = fock.transpose_pairing(f_g, f_t)
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


def test_matrix_market_export(tmp_path, cyc_fock):
    op = fock.left_op(cyc_fock, "e1")
    out = tmp_path / "e1.mtx"
    fock.write_matrix_market(op, out)
    header = out.read_text().splitlines()[0]
    assert "coordinate" in header and "complex" in header and "general" in header
    back = __import__("scipy.io", fromlist=["mmread"]).mmread(str(out))
    assert (abs(back - op.matrix)).max() == 0


def test_basis_manifest(tmp_path, chain_fock):
    out = tmp_path / "basis.tsv"
    fock.write_basis_manifest(chain_fock, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == chain_fock.dimension + 1  # header
    first = lines[1].split("\t")
    assert first == ["0", "x1", "0,0"]
    assert any("a2 b1" in ln or "a2 a1" in ln for ln in lines)
