"""Cycle structure, radical checks, vertex classes, and their oracles."""

import pytest

from conftest import (
    extremal_factorization_check,
    nc_oracle,
    oracle_classify_vertices,
    oracle_double_pure_cycle,
    oracle_pure_primitive_cycles,
    oracle_shortest_access_words,
    random_k3_candidates,
    random_valid_kgraphs,
)
from kfock import builders, fock, structure
from kfock.errors import BudgetError, DomainError
from kfock.kgraph import Edge, KGraph, validate

NAMED = [
    ["chain", "3"], ["cycle", "3", "2"], ["cycle", "4", "3"], ["bouquet", "3"],
    ["single-vertex", "1", "1", "id"], ["single-vertex", "2", "2", "cyclic"],
    ["single-vertex", "2", "2", "1", "seed:1"], ["product", "f2", "c2"],
    ["product", "c2", "f2"], ["product", "f2", "c2", "f1"], ["product", "f3", "f2", "c2"],
    ["cycle", "30", "3"], ["cycle", "60", "2"], ["product", "c6", "c5"],
]


@pytest.fixture(scope="module")
def verdict_graphs():
    """Named graphs, random k <= 2 graphs and valid k = 3 candidates, each
    with its transpose."""
    graphs = [builders.builtin_graph(t) for t in NAMED]
    graphs += random_valid_kgraphs(400, seed=11)
    graphs += [g for g in random_k3_candidates(400, seed=12) if validate(g).ok]
    return graphs + [builders.transpose(g) for g in graphs]


def test_nc_edges_basic(chain3, cycle32, sv22_cyclic):
    assert structure.nc_edges(chain3) == ("a1", "a2", "b1", "b2")
    assert structure.nc_edges(cycle32) == ()
    assert structure.nc_edges(sv22_cyclic) == ()


def test_semisimple_iff_nc_empty(chain3, cycle32, sv22_cyclic):
    for g in (chain3, cycle32, sv22_cyclic):
        assert structure.is_semisimple(g) == (not structure.nc_edges(g))
    assert not structure.is_semisimple(chain3)
    assert structure.is_semisimple(cycle32)


def test_nc_matches_closed_walk_oracle_on_random_graphs():
    graphs = random_valid_kgraphs(25, seed=1234)
    for g in graphs:
        assert structure.nc_edges(g) == nc_oracle(g)


def test_random_graphs_pass_every_exact_check():
    """Integration property: the whole pipeline on seeded random graphs."""
    from conftest import closure_class_count
    from kfock.kgraph import degree_vectors

    used_isometries = 0
    for g in random_valid_kgraphs(12, seed=424242):
        for t in range(4):
            for n in degree_vectors(g.k, t):
                assert len(g.paths_of_degree(n)) == closure_class_count(g, n)
        space = fock.TruncatedFock(g, 4)
        assert fock.commutant_residual(space) == 0
        assert fock.partial_isometry_residual(space) == 0
        assert fock.same_degree_range_conflicts(space) == []
        witness = structure.double_pure_cycle_property(g)
        if witness is not None:
            sp = fock.TruncatedFock(g, 5)
            _, _, rep = fock.orthogonal_isometries(g, sp, witness=witness)
            assert rep["orthogonalityResidual"] == 0
            assert rep["isometryResidual"] == 0
            used_isometries += 1
    assert used_isometries > 0


def test_primitive_cycles_sound(cycle32, f2):
    for g in (cycle32, f2):
        for w in structure.pure_primitive_cycles(g):
            colors = {g.edge(e).color for e in w.word}
            assert colors == {w.color}
            path = g.path_from_word(w.word)
            assert path.src == w.vertex and path.dst == w.vertex
            # no proper initial segment (in applied order) closes at the base
            at = w.vertex
            for eid in list(reversed(w.word))[:-1]:
                at = g.edge(eid).dst
                assert at != w.vertex


def test_cycle_graph_has_one_primitive_cycle_per_site(cycle32):
    sites = {}
    for w in structure.pure_primitive_cycles(cycle32):
        sites.setdefault((w.vertex, w.color), []).append(w)
    assert len(sites) == 6
    assert all(len(v) == 1 for v in sites.values())
    assert structure.double_pure_cycle_property(cycle32) is None


def test_double_pure_cycle_witnesses(f2, sv11):
    w = structure.double_pure_cycle_property(f2)
    assert w is not None
    assert {c.word for c in w.cycles} == {("e1_1",), ("e1_2",)}
    assert structure.double_pure_cycle_property(sv11) is None


def test_double_pure_cycle_needs_reachability():
    from kfock.kgraph import Edge, KGraph

    # double loop at w, but an isolated vertex u cannot reach it
    g = KGraph(1, ["u", "w"],
               [Edge("l1", 1, "w", "w"), Edge("l2", 1, "w", "w")])
    assert structure.double_pure_cycle_property(g) is None
    # adding the connector restores the property
    g2 = KGraph(1, ["u", "w"],
                [Edge("l1", 1, "w", "w"), Edge("l2", 1, "w", "w"),
                 Edge("c", 1, "u", "w")])
    w = structure.double_pure_cycle_property(g2)
    assert w is not None and w.access["u"] == ("c",)


def test_double_pure_cycle_transpose_consistency(chain3, cycle32, f2, sv22_cyclic):
    for g in (chain3, cycle32, f2, sv22_cyclic):
        direct = structure.double_pure_cycle_property(g)
        double_t = structure.double_pure_cycle_property(
            builders.transpose(builders.transpose(g)))
        assert (direct is None) == (double_t is None)
        if direct is not None:
            assert direct == double_t


def test_cycle_listing_and_property_match_dfs_oracle(verdict_graphs):
    answered = with_dpc = 0
    for g in verdict_graphs:
        try:
            expected = oracle_pure_primitive_cycles(g)
        except BudgetError:
            continue
        answered += 1
        assert structure.pure_primitive_cycles(g) == expected
        dpc = structure.double_pure_cycle_property(g)
        assert dpc == oracle_double_pure_cycle(g)
        with_dpc += dpc is not None
    assert answered > 1000 and 0 < with_dpc < answered


def test_access_words_match_bellman_ford_oracle(verdict_graphs):
    targets = partial = 0
    for g in verdict_graphs:
        for v in g.vertices:
            access = structure._shortest_access_words(g, v)
            assert access == oracle_shortest_access_words(g, v)
            targets += 1
            partial += set(access) != set(g.vertices)
    assert targets > 2000 and 0 < partial < targets


def test_double_pure_cycle_past_the_cycle_budget():
    # over 10,000 first-return walks at x within the 10-edge cap
    edges = [Edge("a", 1, "x", "y"), Edge("d", 1, "z", "x")]
    edges += [Edge(f"b{i}", 1, "y", "z") for i in range(1, 5)]
    edges += [Edge(f"c{i}", 1, "z", "y") for i in range(1, 5)]
    g = KGraph(1, ["x", "y", "z"], edges)
    with pytest.raises(BudgetError):
        oracle_pure_primitive_cycles(g)
    with pytest.raises(BudgetError):
        structure.pure_primitive_cycles(g)
    w = structure.double_pure_cycle_property(g)
    assert (w.vertex, w.color) == ("x", 1)
    assert [c.word for c in w.cycles] == [("d", "b1", "a"), ("d", "b2", "a")]


def test_relational_flag_matches_budgeted_oracle(verdict_graphs):
    seen = set()
    for g in verdict_graphs:
        classes = structure.classify_vertices(g)
        assert classes == oracle_classify_vertices(g)
        seen.update(c["relational"] for c in classes.values())
    assert seen == {True, False, "unknown (budget)"}


def test_classify_vertices_chain(chain3):
    classes = structure.classify_vertices(chain3)
    # no loops anywhere: nothing is relational, x1 radiates vacuously
    assert classes["x1"] == {"radiating": True, "multiplicityOne": True,
                             "relational": False}
    assert not classes["x2"]["radiating"]


def test_classify_relational_vertex():
    from kfock.kgraph import CommutationSquare, Edge, KGraph

    # two loops at v of different colors; two leaving paths identified by a square
    edges = [
        Edge("m1", 1, "v", "v"), Edge("m2", 2, "v", "v"),
        Edge("p", 1, "v", "w"), Edge("q", 2, "v", "w"),
    ]
    squares = [
        # color-sorted pairs: (m1, m2) at v->v, (m1, q)?? not composable; list all
        CommutationSquare(lhs=("m1", "m2"), rhs=("m2", "m1")),
        CommutationSquare(lhs=("p", "m2"), rhs=("q", "m1")),
    ]
    g = KGraph(2, ["v", "w"], edges, squares)
    from kfock.kgraph import validate

    assert validate(g, 4).ok
    classes = structure.classify_vertices(g)
    assert classes["v"]["radiating"]
    assert classes["v"]["multiplicityOne"]
    assert classes["v"]["relational"] is True
    rep = structure.reflexivity_report(g)
    assert rep["reflexiveByThm54"] is False
    assert rep["thm54BlockedVertices"] == ["v"]


def test_reflexivity_verdicts(sv11, sv22_cyclic, chain3):
    rep = structure.reflexivity_report(sv22_cyclic)
    assert rep["hyperReflexiveByDPC"] and rep["distanceConstantBound"] == 3
    rep11 = structure.reflexivity_report(sv11)
    assert not rep11["hyperReflexiveByDPC"]
    assert rep11["singleVertexHinfty"]
    assert rep11["reflexiveByThm54"]
    repc = structure.reflexivity_report(chain3)
    assert repc["reflexiveByThm54"]


def test_radical_check_chain(chain3):
    space = fock.TruncatedFock(chain3, 4)
    rep = structure.radical_check(chain3, space)
    assert rep["ok"]
    assert rep["nilpotencyBound"] == 3
    assert rep["squareZeroFailures"] == []
    assert rep["nFoldFailures"] == []
    assert rep["nFoldChecked"] == rep["idealWords"] ** 3


def test_radical_vacuous_on_semisimple(cycle32):
    space = fock.TruncatedFock(cycle32, 4)
    rep = structure.radical_check(cycle32, space)
    assert rep["ok"] and rep["ncEdges"] == []


def test_radical_truncation_independent(chain3):
    for trunc in (2, 3, 4, 6):
        space = fock.TruncatedFock(chain3, trunc)
        assert structure.radical_check(chain3, space, ideal_grading=min(trunc, 4))["ok"]


def test_extremal_factorization(sv11, cycle32):
    paths = [sv11.edge_path("e1_1"), sv11.edge_path("e2_1")]
    assert extremal_factorization_check(sv11, paths)
    gamma_only = [sv11.edge_path("e1_1")]
    assert extremal_factorization_check(sv11, gamma_only)
    mixed = [p for p in cycle32.paths_of_degree((1, 0)) + cycle32.paths_of_degree((0, 1))
             if p.src == "x1"]
    assert extremal_factorization_check(cycle32, mixed)
    with pytest.raises(DomainError):
        extremal_factorization_check(
            sv11, [sv11.edge_path("e1_1"), sv11.normal_form(("e1_1", "e2_1"))])


def test_extremal_factorization_explores_nontrivial_tuples(f2):
    # every length-2 free word over two letters: the maximal element's square
    # has 16 candidate 2-tuples to rule out, and only the trivial one works
    words = f2.all_paths_up_to(2)
    grade2 = [p for p in words if p.delta == 2]
    assert len(grade2) == 4
    assert extremal_factorization_check(f2, grade2) is True


def test_structure_report_roundtrip(chain3):
    rep = structure.structure_report(chain3)
    d = rep
    assert d["semisimple"] is False
    assert d["ncEdges"] == ["a1", "a2", "b1", "b2"]
    assert d["nilpotencyBound"] == 3
    assert d["reflexivity"]["reflexiveByThm54"] is True
    assert (not d["ncEdges"]) == d["semisimple"]


@pytest.mark.parametrize("tokens", [["chain", "3"], ["product", "f3", "f2", "c2"]])
def test_structure_report_classifies_vertices_once(tokens, monkeypatch):
    g = builders.builtin_graph(tokens)
    calls = []
    classify = structure.classify_vertices

    def counted(graph):
        calls.append(graph)
        return classify(graph)

    monkeypatch.setattr(structure, "classify_vertices", counted)
    rep = structure.structure_report(g)
    assert calls == [g]
    assert rep["reflexivity"] == structure.reflexivity_report(g)
    assert len(calls) == 2


def test_structure_report_key_order(chain3):
    assert list(structure.structure_report(chain3)) == [
        "ncEdges", "semisimple", "radicalGenerators", "nilpotencyBound",
        "doublePureCycle", "vertexClasses", "reflexivity",
    ]


@pytest.mark.parametrize("tokens,witness", [
    (["cycle", "3", "2"], None),
    (["bouquet", "2"], {"vertex": "v", "color": 1, "cycles": [["e1_1"], ["e1_2"]],
                        "access": {"v": []}}),
])
def test_structure_report_double_pure_cycle(tokens, witness):
    assert structure.structure_report(builders.builtin_graph(tokens))["doublePureCycle"] == witness


def test_radical_check_enumerates_no_grading_past_the_last_path():
    # chain 3 has no path of grading 3, so a truncation of 1000 adds nothing
    g = builders.chain(3)
    rad = structure.radical_check(g, fock.TruncatedFock(g, 1000))
    assert (rad["idealWords"], rad["nFoldChecked"], rad["squareZeroChecked"]) == (7, 343, 40)
    assert len(g._paths_cache) <= 10
