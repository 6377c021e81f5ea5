"""Builder outputs: censuses, product counts, gluing errors, transpose."""

import itertools

import numpy as np
import pytest

from conftest import (_random_squares, closure_class_count, oracle_direct_product, oracle_validate,
                      relabel_edges)
from kfock import builders
from kfock.errors import ConstructionError, DomainError
from kfock.kgraph import CommutationSquare, Edge, KGraph, validate


def test_every_builder_output_validates(sv11, sv22_cyclic, cycle32, chain3, f2, f2xf3):
    for g in (sv11, sv22_cyclic, cycle32, chain3, f2, f2xf3):
        assert validate(g, max_grading=6).ok


def test_single_loop_digraph_counts():
    g = builders.from_digraph(builders.cycle_digraph(1))
    for n in range(8):
        assert len(g.paths_of_degree((n,))) == 1


def test_two_edge_chain_digraph_has_six_paths():
    g = builders.from_digraph(builders.chain_digraph(3))
    total = sum(len(g.paths_of_degree((n,))) for n in range(7))
    assert total == 6  # three vertices, two edges, one length-2 path


def test_edgeless_digraph_only_identities():
    g = builders.from_digraph(builders.Digraph(vertices=("u", "v"), edges=()))
    assert len(g.paths_of_degree((0,))) == 2
    assert len(g.paths_of_degree((3,))) == 0


def test_direct_product_counts_factor(f2xf3):
    for m, n in itertools.product(range(3), range(3)):
        assert len(f2xf3.paths_of_degree((m, n))) == 2 ** m * 3 ** n


def test_direct_product_with_edgeless_factor_adds_dead_color():
    g = builders.direct_product([
        builders.from_digraph(builders.bouquet_digraph(2)),
        builders.from_digraph(builders.Digraph(vertices=("w",), edges=())),
    ])
    assert g.k == 2
    assert len(g.paths_of_degree((2, 0))) == 4
    assert len(g.paths_of_degree((0, 1))) == 0


def test_product_of_single_loops_matches_single_vertex(sv11):
    prod = builders.direct_product([
        builders.from_digraph(builders.cycle_digraph(1)),
        builders.from_digraph(builders.cycle_digraph(1)),
    ])
    for n in itertools.product(range(4), range(4)):
        assert len(prod.paths_of_degree(n)) == len(sv11.paths_of_degree(n)) == 1


PRODUCT_ATOMS = ("f1", "f2", "f3", "c1", "c2", "c3", "c4")


def _as_built(g):
    """Everything a ``KGraph`` keeps of its input, edges in the order given."""
    return g.k, g.vertices, tuple(g._edge.values()), g.squares


def _random_factors(rng):
    """One to three random 1-graphs on one to three vertices, with up to four
    edges each: loops, parallel edges and edgeless factors all occur."""
    factors = []
    for _ in range(int(rng.integers(1, 4))):
        vertices = tuple(f"v{t}" for t in range(int(rng.integers(1, 4))))
        edges = tuple((f"e{t}", vertices[int(rng.integers(len(vertices)))],
                       vertices[int(rng.integers(len(vertices)))])
                      for t in range(int(rng.integers(0, 5))))
        factors.append(builders.from_digraph(builders.Digraph(vertices, edges)))
    return factors


def test_direct_product_agrees_with_oracle():
    cases = [[builders.from_digraph(builders._atom_digraph(t)) for t in atoms] for r in (1, 2, 3)
             for atoms in itertools.product(PRODUCT_ATOMS, repeat=r)]
    rng = np.random.default_rng(1505)
    cases += [_random_factors(rng) for _ in range(300)]
    for factors in cases:
        assert _as_built(builders.direct_product(factors)) == _as_built(
            oracle_direct_product(factors))
    assert len(cases) == 7 + 49 + 343 + 300


def _chain_factors():
    a = builders.from_digraph(builders.chain_digraph(3))
    b = relabel_edges(a, lambda eid: eid.replace("a", "b"))
    return a, b


def test_theta_product_builds_ten_path_graph():
    a, b = _chain_factors()
    g = builders.theta_product(a, b, {("a2", "b1"): ("b2", "a1")})
    assert validate(g, 6).ok
    got = {n: len(g.paths_of_degree(n)) for n in
           [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]}
    assert got == {(0, 0): 3, (1, 0): 2, (0, 1): 2, (1, 1): 1, (2, 0): 1, (0, 2): 1}
    assert sum(len(g.paths_of_degree(n, max_grading=6))
               for t in range(7)
               for n in [(i, t - i) for i in range(t + 1)]) == 10
    # matches the dedicated builder
    ch = builders.chain(3)
    assert {e.id for e in g.edges} == {e.id for e in ch.edges}
    assert set(g.squares) == set(ch.squares)


def test_theta_product_rejects_cardinality_mismatch():
    a = builders.from_digraph(builders.Digraph(
        vertices=("u", "v", "w"), edges=(("a1", "u", "v"), ("a2", "v", "w"))))
    # second factor runs the other way: mixed pairs compose in one order only
    b = builders.from_digraph(builders.Digraph(
        vertices=("u", "v", "w"), edges=(("b1", "w", "v"),)))
    with pytest.raises(ConstructionError, match="sizes"):
        builders.theta_product(a, b, {})


def test_theta_product_rejects_endpoint_mismatch():
    a, b = _chain_factors()
    with pytest.raises(ConstructionError):
        builders.theta_product(a, b, {("a2", "b1"): ("b1", "a2")})


def test_theta_product_requires_disjoint_ids():
    a = builders.from_digraph(builders.chain_digraph(3))
    with pytest.raises(ConstructionError, match="disjoint"):
        builders.theta_product(a, a, {})


def _two_cycles():
    a = builders.from_digraph(builders.cycle_digraph(2))
    return a, relabel_edges(a, lambda eid: eid.replace("e", "f"))


CHAIN_THETA = {("a2", "b1"): ("b2", "a1")}


@pytest.mark.parametrize("factors,theta,match", [
    (_chain_factors, {}, r"'missing': \[\['a2', 'b1'\]\]"),
    (_chain_factors, {**CHAIN_THETA, ("a1", "b2"): ("b1", "a2")}, r"'extra': \[\['a1', 'b2'\]\]"),
    (_chain_factors, {**CHAIN_THETA, ("a2", "b9"): ("b2", "a1")}, "unknown edge 'b9'"),
    (_two_cycles, {("e1", "f2"): ("f1", "e2"), ("e2", "f1"): ("f1", "e2")}, "duplicate-rhs"),
    (_two_cycles, {("e1", "f2"): ("f2", "e1"), ("e2", "f1"): ("f1", "e2")}, "square-endpoints"),
    (_chain_factors, {("a2", "b1"): ("a1", "b2")}, "color pattern"),
    (_chain_factors, {("a2", "b1"): ("b2", "a1", "a2")}, "2-letter words"),
], ids=["missing-pair", "not-composable", "unknown-edge", "same-image",
        "endpoints", "colour-order", "image-not-a-pair"])
def test_theta_product_rejects_each_kind_of_bad_theta(factors, theta, match):
    a, b = factors()
    with pytest.raises(ConstructionError, match=match):
        builders.theta_product(a, b, theta)


def test_theta_product_reports_cell_sizes_first():
    # the lone composable pair has no reversed partner, so the pair, the
    # image and the cell counts are all wrong; the cell sizes are reported
    a = builders.from_digraph(builders.Digraph(vertices=("u", "v"), edges=(("a1", "u", "v"),)))
    b = builders.from_digraph(builders.Digraph(vertices=("u", "v"), edges=(("b1", "u", "u"),)))
    with pytest.raises(ConstructionError, match=r"\('v', 'u'\) have sizes 1 != 0"):
        builders.theta_product(a, b, {("a1", "b1"): ("b1", "a1")})


def _graph_shape(g):
    return g.k, g.vertices, g.edges, g.squares


def _random_theta_case(rng):
    """Two random 1-graphs on at most three vertices (the second often a
    relabelled copy of the first, so cells pair off), the edges of their
    2-graph, and a random theta: a cell-by-cell bijection, a shuffle that
    ignores cells, or either with a pair dropped, an image repeated, or a
    key in the wrong colour order."""
    vertices = [f"v{i}" for i in range(int(rng.integers(1, 4)))]

    def digraph(prefix):
        return builders.from_digraph(builders.Digraph(vertices=tuple(vertices), edges=tuple(
            (f"{prefix}{t}", vertices[int(rng.integers(len(vertices)))],
             vertices[int(rng.integers(len(vertices)))])
            for t in range(int(rng.integers(1, 5))))))

    a = digraph("a")
    b = relabel_edges(a, lambda eid: "b" + eid[1:]) if rng.random() < 0.6 else digraph("b")
    edges = [Edge(e.id, 1, e.src, e.dst) for e in a.edges]
    edges += [Edge(e.id, 2, e.src, e.dst) for e in b.edges]
    squares = _random_squares(rng, 2, edges) if rng.random() < 0.6 else None
    if squares is not None:
        theta = {sq.lhs: sq.rhs for sq in squares}
    else:
        e_pairs = sorted((x.id, y.id) for x in a.edges for y in b.edges if x.src == y.dst)
        f_pairs = sorted((y.id, x.id) for y in b.edges for x in a.edges if y.src == x.dst)
        theta = dict(zip(e_pairs, (f_pairs[int(t)] for t in rng.permutation(len(f_pairs)))))
    broken = int(rng.integers(4))
    if broken == 1 and theta:
        del theta[min(theta)]
    elif broken == 2 and len(theta) > 1:
        first, *rest = sorted(theta)
        theta[rest[0]] = theta[first]
    elif broken == 3 and theta:
        key = min(theta)
        theta[key[::-1]] = theta.pop(key)
    return a, b, edges, theta


def test_theta_product_agrees_with_validate():
    rng = np.random.default_rng(20240)
    outcomes = []
    for _ in range(300):
        a, b, edges, theta = _random_theta_case(rng)
        squares = [CommutationSquare(lhs=p, rhs=q) for p, q in sorted(theta.items())]
        try:
            ref = KGraph(2, a.vertices, edges, squares)
            ok = validate(ref).ok
        except DomainError:
            ok = False
        outcomes.append(ok)
        if ok:
            assert _graph_shape(builders.theta_product(a, b, theta)) == _graph_shape(ref)
            assert oracle_validate(ref, 3).ok
        else:
            with pytest.raises(ConstructionError):
                builders.theta_product(a, b, theta)
    assert 60 <= sum(outcomes) <= 240


def test_cycle_rank_shapes(cycle32):
    assert len(cycle32.edges_of_color(1)) == 3
    assert len(cycle32.edges_of_color(2)) == 3
    assert len(cycle32.squares) == 3
    for p, q in itertools.product(range(4), range(4)):
        assert len(cycle32.paths_of_degree((p, q))) == 3


def test_cycle_rank_lattice_one_path_per_source(cycle32):
    for n in [(2, 1), (3, 2)]:
        sources = [p.src for p in cycle32.paths_of_degree(n)]
        assert sorted(sources) == ["x1", "x2", "x3"]


def test_cycle_rank_k1_matches_digraph():
    c = builders.cycle_rank(4, 1)
    d = builders.from_digraph(builders.cycle_digraph(4))
    for n in range(6):
        assert len(c.paths_of_degree((n,))) == len(d.paths_of_degree((n,)))


def test_cycle_theta_is_forced():
    """Gluing a cycle with itself admits exactly one pair bijection."""
    for n in (2, 3, 4):
        a = builders.from_digraph(builders.cycle_digraph(n))
        b = relabel_edges(a, lambda eid: eid.replace("e", "f"))
        cells = {}
        for ea in a.edges:
            for eb in b.edges:
                if ea.src == eb.dst:
                    cells.setdefault((ea.dst, eb.src), []).append((ea.id, eb.id))
        assert all(len(v) == 1 for v in cells.values())
        theta = {}
        for eb in b.edges:
            for ea in a.edges:
                if eb.src == ea.dst:
                    key = next(iter(cells[(eb.dst, ea.src)]))
                    theta[key] = (eb.id, ea.id)
        g = builders.theta_product(a, b, theta)
        assert validate(g, 4).ok
        ref = builders.cycle_rank(n, 2)
        for deg in [(1, 1), (2, 1)]:
            assert len(g.paths_of_degree(deg)) == len(ref.paths_of_degree(deg))


def test_single_vertex_edge_counts():
    g = builders.single_vertex((3, 2), theta=builders.identity_table((3, 2)))
    assert len(g.edges_of_color(1)) == 3
    assert len(g.edges_of_color(2)) == 2


def test_single_vertex_rejects_short_table():
    with pytest.raises(ConstructionError, match="permutation"):
        builders.single_vertex((2, 2), theta={(1, 2): (0, 1, 2)})
    with pytest.raises(ConstructionError, match="missing"):
        builders.single_vertex((2, 2), theta={})


def test_sv11_word_classes_collapse(sv11):
    # mixed words of one degree all collapse to a single class
    for n, m in itertools.product(range(4), range(4)):
        assert closure_class_count(sv11, (n, m)) == 1


def test_transpose_involution(chain3, cycle32):
    for g in (chain3, cycle32):
        gtt = builders.transpose(builders.transpose(g))
        assert {e for e in gtt.edges} == {e for e in g.edges}
        assert set(gtt.squares) == set(g.squares)


def test_transpose_reverses_endpoints(chain3):
    gt = builders.transpose(chain3)
    for e in chain3.edges:
        et = gt.edge(e.id)
        assert (et.src, et.dst) == (e.dst, e.src)
    assert validate(gt, 4).ok


def test_transpose_nc_matches(chain3, cycle32):
    from kfock.structure import nc_edges

    for g in (chain3, cycle32):
        assert nc_edges(builders.transpose(g)) == nc_edges(g)


def test_builtin_registry():
    g = builders.builtin_graph(["single-vertex", "2", "2", "cyclic"])
    assert g.k == 2 and len(g.edges) == 4
    assert builders.builtin_graph(["cycle", "3", "2"]).k == 2
    assert builders.builtin_graph(["product", "f2", "c3"]).k == 2
    with pytest.raises(ConstructionError):
        builders.builtin_graph(["mystery"])
