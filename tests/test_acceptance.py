"""Acceptance suite: one test per numbered criterion, printed pass lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by.  Structural identities are integer-exact (tolerance literally zero);
floating tolerances appear only in the character-space checks and are pinned
here, not configurable.
"""

import numpy as np
import pytest

from conftest import nc_oracle, random_valid_kgraphs
from kfock import builders, fock, gelfand, structure
from kfock.kgraph import degree_vectors, validate


def _pass(num, text):
    print(f"criterion {num:02d} PASS - {text}")


def _census(g, max_grading):
    out = {}
    for t in range(max_grading + 1):
        for n in degree_vectors(g.k, t):
            c = len(g.paths_of_degree(n, max_grading=max_grading))
            if c:
                out[n] = c
    return out


def _suite_graphs():
    """SV(1,1,id), three seeded-random SV(2,2), the rank-2 cycle on three
    vertices, and the doubled chain on three vertices."""
    graphs = [
        ("single-vertex (1,1) id",
         builders.single_vertex((1, 1), theta=builders.identity_table((1, 1)))),
        ("cycle 3 2", builders.cycle_rank(3, 2)),
        ("chain 3", builders.chain(3)),
    ]
    for seed in (101, 202, 303):
        graphs.append((
            f"single-vertex (2,2) seed:{seed}",
            builders.single_vertex((2, 2), theta=builders.random_table((2, 2), seed)),
        ))
    return graphs


def test_criterion_01_chain_census():
    g = builders.chain(3)
    census = _census(g, 6)
    assert census == {(0, 0): 3, (1, 0): 2, (0, 1): 2,
                      (1, 1): 1, (2, 0): 1, (0, 2): 1}
    assert sum(census.values()) == 10
    _pass(1, "doubled chain on 3 vertices: 10 paths, census (3,2,2,1,1,1)")


def test_criterion_02_single_loop_pair_counts():
    g = builders.single_vertex((1, 1), theta=builders.identity_table((1, 1)))
    for n in range(11):
        for m in range(11):
            assert len(g.paths_of_degree((n, m), max_grading=20)) == 1
    _pass(2, "single-vertex (1,1) id: exactly one path per degree, n,m <= 10")


def test_criterion_03_cycle_counts_and_structure():
    g = builders.cycle_rank(3, 2)
    for p in range(9):
        for q in range(9 - p):
            assert len(g.paths_of_degree((p, q))) == 3
    assert structure.is_semisimple(g)
    assert structure.double_pure_cycle_property(g) is None
    _pass(3, "rank-2 cycle on 3 vertices: 3 paths per degree (p+q<=8), "
             "semisimple, no double pure cycle")


def test_criterion_04_commutant_residual_zero():
    for name, g in _suite_graphs():
        assert validate(g, 4).ok
        space = fock.TruncatedFock(g, 6)
        assert fock.commutant_residual(space) == 0, name
    _pass(4, "left/right commutators exactly 0 on interior blocks (N=6 suite)")


def test_criterion_05_partial_isometries_and_orthogonality():
    for name, g in _suite_graphs():
        space = fock.TruncatedFock(g, 6)
        assert fock.partial_isometry_residual(space) == 0, name
        assert fock.same_degree_range_conflicts(space) == [], name
    _pass(5, "L_e*L_e = L_{s(e)} on {delta<=N-1}; same-degree ranges orthogonal")


def test_criterion_06_radical_nilpotency():
    g = builders.chain(3)
    space = fock.TruncatedFock(g, 4)
    rep = structure.radical_check(g, space, word_grading=2, ideal_grading=4)
    assert rep["ok"]
    assert rep["nilpotencyBound"] == 3
    assert rep["nFoldChecked"] == rep["idealWords"] ** 3
    assert rep["squareZeroFailures"] == [] and rep["nFoldFailures"] == []
    _pass(6, f"every 3-fold product of {rep['idealWords']} ideal words is 0; "
             "(A L_e)^2 = 0 for all no-cycle edges")


def test_criterion_07_nc_oracle_agreement():
    graphs = random_valid_kgraphs(50, seed=20260809)
    assert len(graphs) == 50
    for g in graphs:
        assert structure.nc_edges(g) == nc_oracle(g)
    _pass(7, "reachability no-cycle set equals closed-walk oracle on 50 graphs")


def test_criterion_08_orthogonal_isometries():
    cases = [("bouquet 2", builders.bouquet(2))]
    for name, theta in (("id", (0, 1)), ("swap", (1, 0))):
        cases.append((
            f"single-vertex (2,1) {name}",
            builders.single_vertex((2, 1), theta={(1, 2): theta}),
        ))
    for name, g in cases:
        space = fock.TruncatedFock(g, 8)
        _, _, rep = fock.orthogonal_isometries(g, space)
        assert rep["orthogonalityResidual"] == 0, name
        assert rep["isometryResidual"] == 0, name
    _pass(8, "U*V = 0 exactly and U*U = 1 on the interior block at N=8")


def test_criterion_09_cycle_block_structure():
    rep = fock.verify_cycle_blocks(3, 2, 8)
    assert rep["generatorBlocks"] == {
        "e1": [2, 1], "e2": [3, 2], "e3": [1, 3],
        "f1": [2, 1], "f2": [3, 2], "f3": [1, 3],
    }
    assert rep["generatorBlocksOk"] and rep["vertexProjectionsDiagonal"]
    assert rep["degreeCongruenceOk"]
    _pass(9, "generators sit in shift blocks (2,1),(3,2),(1,3); "
             "delta = i-j (mod 3) for all paths up to grading 8")


def test_criterion_10_omega_norm_closed_form():
    # reference computed first, straight from the product formula
    reference = (1 - 0.5 ** 2) ** -1 * (1 - 0.3 ** 2) ** -1
    g = builders.single_vertex((1, 1), theta=builders.identity_table((1, 1)))
    space = fock.TruncatedFock(g, 30)
    vec = gelfand.omega_vector(space, ((0.5,), (0.3,)))
    partial = float(np.vdot(vec, vec).real)
    assert abs(partial - reference) <= 1e-6
    _pass(10, f"|omega|^2 = {partial:.9f} vs closed form {reference:.9f} "
              "(within 1e-6 at N=30)")


def test_criterion_11_eigen_relation():
    g = builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))
    points = gelfand.sample_variety_points(g, 5, seed=77, max_norm=0.5)
    worst = 0.0
    for pt in points:
        for e in g.edges:
            worst = max(worst, gelfand.eigen_residual(g, e.id, pt, 20))
    assert worst <= 1e-12
    _pass(11, f"adjoint eigen relation residual {worst:.2e} <= 1e-12 "
              "over 5 variety points at N=20")


def test_criterion_12_character_multiplicativity():
    g = builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))
    cap = 0.15
    trunc = gelfand.character_truncation([cap ** 2] * 2, 3, 1e-9)
    space = fock.TruncatedFock(g, trunc)
    points = gelfand.sample_variety_points(g, 10, seed=5150, max_norm=cap)
    worst_mult, worst_phi = 0.0, 0.0
    for pt in points:
        rep = gelfand.multiplicativity_check(space, pt, grading_budget=3, tol=1e-9)
        assert rep["onVariety"]
        worst_mult = max(worst_mult, rep["maxResidual"])
        worst_phi = max(worst_phi, rep["phiRecoveryError"])
    assert worst_mult <= 1e-9
    assert worst_phi <= 1e-10
    # negative control: a point off the variety must break multiplicativity
    control = gelfand.multiplicativity_check(
        space, ((0.12, 0.05), (0.10, 0.04)), grading_budget=3, tol=1e-9)
    assert not control["onVariety"]
    assert control["maxResidual"] > 1e-9
    _pass(12, f"multiplicativity residual {worst_mult:.2e} <= 1e-9, "
              f"generator recovery {worst_phi:.2e} <= 1e-10 at N={trunc}; "
              f"off-variety control violates at {control['maxResidual']:.2e}")


def test_criterion_13_cyclic_theta_discs():
    g = builders.single_vertex((2, 3), theta=builders.cyclic_table((2, 3)))
    rng = np.random.default_rng(13)
    for _ in range(10):
        t = rng.uniform(0.05, 0.7) * np.exp(2j * np.pi * rng.uniform())
        u = rng.uniform(0.05, 0.55) * np.exp(2j * np.pi * rng.uniform())
        pt = ((t, t), (u, u, u))
        assert gelfand.variety_residual(g, pt) == 0.0
    for size, build in ((2, lambda t: ((t, t), (0.1, 0.1, 0.1))),
                        (3, lambda u: ((0.1, 0.1), (u, u, u)))):
        r = size ** -0.5
        assert gelfand.in_ball(g, build(r * (1 - 1e-9)))
        assert not gelfand.in_ball(g, build(r * (1 + 1e-9)))
    _pass(13, "cyclic table: equal-coordinate points are exact variety zeros; "
              "ball membership flips at 2^-1/2 and 3^-1/2")


def test_criterion_14_builtin_validation():
    builtins = [
        ["cycle", "3", "2"],
        ["chain", "3"],
        ["bouquet", "2"],
        ["single-vertex", "1", "1", "id"],
        ["single-vertex", "2", "1", "id"],
        ["single-vertex", "2", "2", "cyclic"],
        ["product", "f2", "f3"],
    ]
    for tokens in builtins:
        g = builders.builtin_graph(tokens)
        rep = validate(g, max_grading=6)
        assert rep.ok, (tokens, rep.failures[:3])
    _pass(14, f"{len(builtins)} builtin graphs: complete check, square bijection "
              "plus critical-word confluence")
