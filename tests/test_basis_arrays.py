"""The basis arrays and the lazy basis against the ``KGraph`` enumeration."""

import dataclasses

import pytest

from conftest import gradings, oracle_basis_size, oracle_left_op
from kfock import builders, fock, gelfand
from kfock.errors import DomainError
from kfock.kgraph import validate


def _array_graphs():
    from test_acceptance import _suite_graphs

    graphs = list(_suite_graphs())
    for shape, seed in (((2, 2, 1), 1), ((1, 2, 1), 0)):
        graphs.append((f"single-vertex {shape} seed:{seed}",
                       builders.single_vertex(shape, builders.random_table(shape, seed))))
    graphs.append(("chain 4", builders.chain(4)))  # no path longer than 3
    for name in ("single-vertex 1 1 1 id", "single-vertex 1 1 1 1 id"):  # one path per degree
        graphs.append((name, builders.builtin_graph(name.split())))
    return graphs


@pytest.mark.parametrize("name,g", _array_graphs(), ids=[n for n, _ in _array_graphs()])
def test_arrays_agree_with_enumeration(name, g):
    assert validate(g).ok
    vcode = {v: c for c, v in enumerate(g.vertices)}
    for trunc in range(7):
        space = fock.TruncatedFock(g, trunc)
        paths = g.all_paths_up_to(trunc)
        index = {p: i for i, p in enumerate(paths)}
        parent, lead = space.parent_links()
        src, dst = space.ends
        delta = gradings(space)
        assert len(space.basis) == space.dimension == len(paths)
        for i, p in enumerate(paths):
            if p.is_identity:
                assert (parent[i], lead[i]) == (-1, -1)
            else:
                rest = g.path_from_word(p.word[1:], base=p.src)
                assert parent[i] == index[rest]
                assert lead[i] == space.edge_codes[p.word[0]]
            assert (src[i], dst[i], delta[i]) == (vcode[p.src], vcode[p.dst], p.delta)
            assert space.basis[i] == p
            assert space.index_of(p) == i
        for n, (start, stop) in space.blocks.items():
            assert [p for p in paths if p.degree == n] == list(space.basis[start:stop])
        assert all(start < stop for start, stop in space.blocks.values())  # only degrees with paths
        assert space.basis[-1] == paths[-1]
    if name == "chain 4":
        assert space.prefix(4) == space.prefix(3)  # grade 4 is empty
        assert (2, 2) not in space.blocks


@pytest.mark.parametrize("name,trunc,dim", [("single-vertex 1 1 1 id", 20, 1771),
                                            ("single-vertex 1 1 1 1 id", 12, 1820)])
def test_degree_lattice_has_one_path_per_degree(name, trunc, dim):
    g = builders.builtin_graph(name.split())
    space = fock.TruncatedFock(g, trunc)
    assert space.dimension == oracle_basis_size(g, trunc) == dim
    assert len(space.blocks) == dim
    assert all(stop == start + 1 for start, stop in space.blocks.values())


def test_basis_build_stops_where_the_paths_stop():
    # chain 3 has no path longer than 2, while grades 0..1,000 hold 501,501 degree vectors
    space = fock.TruncatedFock(builders.chain(3), 1000)
    assert space.dimension == 10 and len(space.blocks) <= 30
    assert space.prefix(2) == space.prefix(1000) == 10  # grades 3 to 1,000 are empty
    assert fock.commutant_residual(space) == 0


def test_basis_build_tries_only_degrees_that_extend_a_path():
    # a loop times an edge: a path of each grading, in at most 3 degrees
    g = builders.direct_product([builders.from_digraph(builders.cycle_digraph(1)),
                                 builders.from_digraph(builders.chain_digraph(2))])
    assert validate(g).ok
    space = fock.TruncatedFock(g, 1000)
    assert space.dimension == 3002 and len(space.blocks) <= 3 * 1001
    assert space.index_of(space.basis[-1]) == space.dimension - 1
    assert fock.commutant_residual(space) == 0


@pytest.mark.parametrize("name,g", _array_graphs(), ids=[n for n, _ in _array_graphs()])
def test_interior_indices_are_the_grading_prefix(name, g):
    """``prefix(t)`` counts the paths of grading <= t, and they come first."""
    for trunc in range(6):
        space = fock.TruncatedFock(g, trunc)
        paths = g.all_paths_up_to(trunc)
        for t in range(-1, trunc + 2):
            n = space.prefix(t)
            assert type(n) is int and n == sum(p.delta <= t for p in paths), (trunc, t)
            assert all(p.delta <= t for p in space.basis[:n]), (trunc, t)


def test_index_of_refuses_paths_outside_the_basis(cycle32):
    space = fock.TruncatedFock(cycle32, 3)
    with pytest.raises(DomainError):  # grading 4 > N
        space.index_of(cycle32.normal_form(("e2", "f1", "e3", "f2")))
    unsorted = cycle32.path_from_word(("f2", "e1"))
    assert unsorted != cycle32.normal_form(unsorted)
    with pytest.raises(DomainError):
        space.index_of(unsorted)
    edge = cycle32.edge_path("e1")
    with pytest.raises(DomainError):
        space.index_of(dataclasses.replace(edge, dst="x3"))
    with pytest.raises(IndexError):
        space.basis[space.dimension]


def test_gelfand_checks_build_no_paths():
    g = builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))
    space = fock.TruncatedFock(g, 12)
    point = gelfand.sample_variety_points(g, 1, seed=7, max_norm=0.15)[0]
    gelfand.omega_vector(space, point)
    for e in g.edges:
        gelfand.eigen_residual(g, e.id, point, 12, fock=space)
    gelfand.multiplicativity_check(space, [point])
    assert g._paths_cache == {}
    lam = g.edges_of_color(2)[0].id  # moves past colour-1 letters by squares
    assert (fock.left_op(space, lam).matrix != oracle_left_op(space, lam).matrix).nnz == 0


def test_fock_checks_build_no_paths():
    g = builders.single_vertex((2, 3), theta=builders.cyclic_table((2, 3)))
    space = fock.TruncatedFock(g, 7)
    assert fock.commutant_residual(space) == 0
    assert fock.partial_isometry_residual(space) == 0
    assert fock.same_degree_range_conflicts(space) == []
    assert g._paths_cache == {}
