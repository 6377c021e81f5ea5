"""The critical-word verdict of ``validate`` against the grading-bounded
search it replaced, on valid and invalid graphs of rank 2, 3 and 4."""

import pytest
from conftest import (
    _reachable_normal_forms,
    oracle_validate,
    random_k3_candidates,
    random_valid_kgraphs,
)

from kfock import builders
from kfock.kgraph import validate

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
