"""Variety membership, the eigenvector, and character functionals."""

import tracemalloc

import numpy as np
import pytest

from conftest import (
    generator_values,
    identity_op,
    on_operator,
    oracle_closed_form_character,
    oracle_degree_class_eigen_residual,
    oracle_multiplicativity_check,
)
from kfock import builders, fock, gelfand
from kfock.errors import BudgetError, DomainError, KFockError, UnsupportedGraphError


@pytest.fixture(scope="module")
def sv11_fock(sv11):
    return fock.TruncatedFock(sv11, 30)


@pytest.fixture(scope="module")
def sv22_fock(sv22_cyclic):
    return fock.TruncatedFock(sv22_cyclic, 8)


def test_identity_theta_has_no_polynomials(sv11):
    assert gelfand.variety_polys(sv11) == ()
    assert gelfand.in_variety(sv11, ((0.9,), (0.2,)))
    g = builders.single_vertex((2, 2), theta=builders.identity_table((2, 2)))
    assert gelfand.variety_polys(g) == ()


def test_cyclic_theta_polynomials(sv22_cyclic):
    polys = gelfand.variety_polys(sv22_cyclic)
    assert len(polys) == 4
    texts = [str(b) for b in polys]
    assert texts[0] == "z[1,1]*z[2,1] - z[1,1]*z[2,2]"
    # equal coordinates kill every binomial exactly
    pt = ((0.3, 0.3), (0.21, 0.21))
    assert gelfand.variety_residual(sv22_cyclic, pt) == 0.0
    # generic distinct nonzero coordinates violate some binomial
    assert gelfand.variety_residual(sv22_cyclic, ((0.3, 0.1), (0.2, 0.05))) > 1e-3


def test_ball_membership_flips_at_equal_coordinate_radius():
    g = builders.single_vertex((2, 3), theta=builders.cyclic_table((2, 3)))
    for size, vec_len in ((2, 2), (3, 3)):
        r = size ** -0.5
        inside = r * (1 - 1e-9)
        outside = r * (1 + 1e-9)
        mk = lambda t, other: ((t,) * 2, (other,) * 3)
        if size == 2:
            assert gelfand.in_ball(g, mk(inside, 0.1))
            assert not gelfand.in_ball(g, mk(outside, 0.1))
        else:
            assert gelfand.in_ball(g, ((0.1, 0.1), (inside,) * 3))
            assert not gelfand.in_ball(g, ((0.1, 0.1), (outside,) * 3))


def test_evaluate_path_letterwise(sv11):
    alpha = ((0.5,), (0.3,))
    p = sv11.normal_form(("e1_1", "e1_1", "e2_1"))
    assert gelfand.evaluate_word(sv11, alpha, p.word) == pytest.approx(0.075)
    ident = sv11.identity("v")
    assert gelfand.evaluate_word(sv11, alpha, ident.word) == 1


def test_evaluation_constant_on_classes_on_variety(sv22_cyclic):
    g = sv22_cyclic
    on = ((0.3, 0.3), (0.2, 0.2))
    off = ((0.3, 0.1), (0.2, 0.4))
    from conftest import raw_words_of_degree

    saw_violation = False
    for deg in [(1, 1), (2, 1)]:
        for w in raw_words_of_degree(g, deg):
            nf = g.normal_form(w)
            v_raw = gelfand.evaluate_word(g, on, w)
            v_nf = gelfand.evaluate_word(g, on, nf.word)
            assert abs(v_raw - v_nf) < 1e-15
            if abs(gelfand.evaluate_word(g, off, w)
                   - gelfand.evaluate_word(g, off, nf.word)) > 1e-6:
                saw_violation = True
    assert saw_violation  # off the variety the rule genuinely fails


def test_omega_at_zero_is_vacuum(sv11_fock, sv11):
    vec = gelfand.omega_vector(sv11_fock, ((0.0,), (0.0,)))
    assert vec[sv11_fock.index_of(sv11.identity("v"))] == 1.0
    assert np.abs(vec).sum() == 1.0


def test_omega_norm_closed_form(sv11_fock):
    rep = gelfand.omega_norm_check(sv11_fock, ((0.5,), (0.3,)))
    expected = 1.0 / ((1 - 0.25) * (1 - 0.09))
    assert rep["closedForm"] == pytest.approx(expected, abs=1e-15)
    assert abs(rep["partialNormSq"] - expected) < 1e-6
    assert rep["ok"]


def test_omega_norm_monotone_in_truncation(sv11):
    alpha = ((0.6,), (0.5,))
    vals = []
    for trunc in (4, 8, 16, 24):
        space = fock.TruncatedFock(sv11, trunc)
        vals.append(gelfand.omega_norm_check(space, alpha)["partialNormSq"])
    assert vals == sorted(vals)
    closed = gelfand.omega_norm_check(fock.TruncatedFock(sv11, 24), alpha)["closedForm"]
    assert vals[-1] <= closed + 1e-12


def test_omega_rejects_boundary(sv11_fock):
    with pytest.raises(DomainError, match="diverges"):
        gelfand.omega_vector(sv11_fock, ((1.0,), (0.2,)))


def test_every_character_check_rejects_a_nan_point(sv11, sv11_fock):
    # a NaN norm is not < 1, so no check runs on NaN and reports a residual
    point = ((complex("nanj"),), (0.2,))
    for check in (lambda: gelfand.omega_vector(sv11_fock, point),
                  lambda: gelfand.omega_norm_check(sv11_fock, point),
                  lambda: gelfand.eigen_residual(sv11, "e1_1", point, 4, fock=sv11_fock),
                  lambda: gelfand.eigen_residual(sv11, "e1_1", point, 4),
                  lambda: gelfand.multiplicativity_check(sv11_fock, point)):
        with pytest.raises(DomainError, match="diverges"):
            check()


def test_truncation_for_tail():
    n = gelfand.truncation_for_tail([0.25, 0.09], 1e-6)
    # frozen from the double-series oracle: the tail of 1/((1-.25)(1-.09))
    # after grading N drops below 1e-6 first at N = 10 (tail 4.967e-7)
    assert n == 10
    oracle_tail = sum(0.25 ** p * 0.09 ** q
                      for p in range(200) for q in range(200) if p + q > 10)
    assert oracle_tail <= 1e-6
    assert gelfand.truncation_for_tail([0.25, 0.09], 1e-3) < n


def test_eigen_relation_dense_and_grouped_agree(sv22_cyclic, sv22_fock):
    pts = gelfand.sample_variety_points(sv22_cyclic, 3, seed=99, max_norm=0.4)
    for pt in pts:
        for e in sv22_cyclic.edges:
            dense = gelfand.eigen_residual(sv22_cyclic, e.id, pt, 8, fock=sv22_fock)
            grouped = gelfand.eigen_residual(sv22_cyclic, e.id, pt, 8)
            assert dense <= 1e-15 and grouped <= 1e-15
            assert abs(dense - grouped) <= 1e-16


def test_eigen_grouped_matches_dense_at_larger_truncation(sv22_cyclic):
    # same sample stream the acceptance suite uses at N=20, cross-checked
    # against the literal sparse computation at the largest feasible N
    pts = gelfand.sample_variety_points(sv22_cyclic, 5, seed=77, max_norm=0.5)
    space = fock.TruncatedFock(sv22_cyclic, 12)
    for pt in pts:
        for e in sv22_cyclic.edges:
            dense = gelfand.eigen_residual(sv22_cyclic, e.id, pt, 12, fock=space)
            grouped = gelfand.eigen_residual(sv22_cyclic, e.id, pt, 12)
            assert abs(dense - grouped) <= 1e-16


def test_checks_given_omega_match_checks_that_build_it(sv22_cyclic, sv22_fock):
    """A caller's omega_vector gives the same values as the checks' own
    build, and a grouped eigen residual (no space) refuses one.  The
    multiplicativity check conjugates omega(alpha); its whole report is the
    oracle's, which builds omega(conj alpha), on and off the variety."""
    points = gelfand.sample_variety_points(sv22_cyclic, 3, seed=5, max_norm=0.4)
    for pt in points + [((0.3, 0.1), (0.05j, 0.2))]:  # the last is off the variety
        omega = gelfand.omega_vector(sv22_fock, pt)
        assert (gelfand.multiplicativity_check(sv22_fock, pt, grading_budget=2, omega=omega)
                == oracle_multiplicativity_check(sv22_fock, pt, grading_budget=2))
    for pt in points:
        omega = gelfand.omega_vector(sv22_fock, pt)
        assert (gelfand.omega_norm_check(sv22_fock, pt, omega=omega)
                == gelfand.omega_norm_check(sv22_fock, pt))
        for e in sv22_cyclic.edges:
            assert (gelfand.eigen_residual(sv22_cyclic, e.id, pt, 8, fock=sv22_fock, omega=omega)
                    == gelfand.eigen_residual(sv22_cyclic, e.id, pt, 8, fock=sv22_fock))
        with pytest.raises(DomainError, match="fock space"):
            gelfand.eigen_residual(sv22_cyclic, "e1_1", pt, 8, omega=omega)


def test_eigen_relation_identity_theta_everywhere_in_ball(sv11):
    space = fock.TruncatedFock(sv11, 20)
    rng = np.random.default_rng(3)
    for _ in range(3):
        pt = ((rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform()),),
              (rng.uniform(0.1, 0.8) * np.exp(2j * np.pi * rng.uniform()),))
        for e in sv11.edges:
            assert gelfand.eigen_residual(sv11, e.id, pt, 20, fock=space) <= 1e-14


def test_eigen_rejects_off_variety(sv22_cyclic, sv22_fock):
    with pytest.raises(DomainError, match="variety"):
        gelfand.eigen_residual(sv22_cyclic, "e1_1", ((0.3, 0.1), (0.2, 0.4)), 8,
                               fock=sv22_fock)


def test_eigen_refuses_a_space_over_another_graph(sv22_fock):
    ident = builders.single_vertex((2, 2), theta=builders.identity_table((2, 2)))
    with pytest.raises(DomainError, match="different graph"):
        gelfand.eigen_residual(ident, "e1_1", ((0.3, 0.1), (0.2, 0.1)), 8, fock=sv22_fock)


def test_eigen_grouped_needs_constant_coordinates(sv22_cyclic):
    ident = builders.single_vertex((2, 2), theta=builders.identity_table((2, 2)))
    with pytest.raises(UnsupportedGraphError):
        gelfand.eigen_residual(ident, "e1_1", ((0.3, 0.1), (0.2, 0.1)), 10)


# single-vertex shapes with their tables: k = 1, 2 and 3, a colour without
# loops, identity, cyclic and seeded tables
EIGEN_SHAPES = [
    ["1", "id"], ["3", "id"], ["4", "id"],
    ["1", "0", "id"], ["1", "1", "id"], ["2", "2", "cyclic"], ["2", "3", "cyclic"],
    ["3", "3", "cyclic"], ["2", "2", "seed:1"], ["3", "2", "seed:5"],
    ["1", "2", "1", "cyclic"], ["2", "1", "1", "seed:5"],
]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except KFockError as exc:  # compared by class against the other route
        return type(exc)


def test_eigen_without_a_space_matches_the_degree_class_oracle():
    # sampled points (constant on constrained colours, free elsewhere), one
    # outside the ball, every edge and an unknown one: each call raises what
    # the oracle raises, or agrees with it up to the last bits that numpy's
    # complex multiply rounds differently from Python's
    calls = 0
    for tokens in EIGEN_SHAPES:
        g = builders.builtin_graph(["single-vertex", *tokens])
        points = [pt for seed in (1, 5, 77) for max_norm in (0.3, 0.5, 0.9)
                  for pt in gelfand.sample_variety_points(g, 1, seed=seed, max_norm=max_norm)]
        points.append(tuple(np.ones(len(part)) for part in points[0]))
        for pt in points:
            for edge_id in [e.id for e in g.edges] + ["nope"]:
                for trunc in (0, 3, 8, 20):
                    want = _outcome(oracle_degree_class_eigen_residual, g, edge_id, pt, trunc)
                    got = _outcome(gelfand.eigen_residual, g, edge_id, pt, trunc)
                    if isinstance(want, type) or isinstance(got, type):
                        assert got is want, (tokens, edge_id, trunc)
                    else:
                        assert abs(got - want) <= 1e-16, (tokens, edge_id, trunc)
                    calls += 1
    assert calls >= 2000


def test_eigen_refuses_a_negative_truncation(sv22_cyclic, sv22_fock):
    pt = gelfand.sample_variety_points(sv22_cyclic, 1, seed=5, max_norm=0.5)[0]
    with pytest.raises(DomainError, match="truncation grading must be >= 0"):
        gelfand.eigen_residual(sv22_cyclic, "e1_1", pt, -1)
    with pytest.raises(DomainError, match="truncation"):
        gelfand.eigen_residual(sv22_cyclic, "e1_1", pt, -1, fock=sv22_fock)


def test_character_multiplicative_on_variety(sv22_cyclic):
    norm_cap = 0.15
    trunc = gelfand.character_truncation([norm_cap ** 2] * 2, 3, 1e-9)
    space = fock.TruncatedFock(sv22_cyclic, trunc)
    pts = gelfand.sample_variety_points(sv22_cyclic, 3, seed=11, max_norm=norm_cap)
    for pt in pts:
        rep = gelfand.multiplicativity_check(space, pt, grading_budget=3, tol=1e-9)
        assert rep["onVariety"]
        assert rep["maxResidual"] <= 1e-9
        assert rep["phiRecoveryError"] <= 1e-10


def test_character_negative_control(sv22_cyclic):
    space = fock.TruncatedFock(sv22_cyclic, 12)
    rep = gelfand.multiplicativity_check(space, ((0.12, 0.05), (0.10, 0.04)),
                                          grading_budget=3, tol=1e-9)
    assert not rep["onVariety"]
    assert rep["maxResidual"] > 1e-9


def test_multiplicativity_matrices_are_refused_before_allocation(monkeypatch, sv22_fock):
    pt = ((0.1, 0.1), (0.1, 0.1))
    entries = 49 * sv22_fock.dimension  # the words of grading <= 3 x dimension 4,097
    monkeypatch.setattr(gelfand, "MAX_CHECK_ENTRIES", entries)
    assert gelfand.multiplicativity_check(sv22_fock, pt)["wordCount"] == 49
    monkeypatch.setattr(gelfand, "MAX_CHECK_ENTRIES", entries - 1)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            gelfand.multiplicativity_check(sv22_fock, pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < entries * 16 // 8  # an eighth of one complex matrix


def test_multiplicativity_refuses_a_negative_budget(sv22_cyclic):
    space = fock.TruncatedFock(sv22_cyclic, 4)
    with pytest.raises(DomainError, match="grading budget"):
        gelfand.multiplicativity_check(space, ((0.1, 0.1), (0.1, 0.1)), grading_budget=-1)


def test_multiplicativity_forms_no_words_by_dimension_matrix(sv22_cyclic):
    """The check peaks below one complex matrix of its words x dimension
    entries: each product is gathered on the prefix where it is defined."""
    space = fock.TruncatedFock(sv22_cyclic, 10)
    tracemalloc.start()
    try:
        rep = gelfand.multiplicativity_check(space, ((0.1, 0.1), (0.1, 0.1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep["wordCount"], space.dimension) == (49, 20_481)
    assert peak < 49 * 20_481 * 16


def test_multiplicativity_peaks_near_its_largest_index_table(sv22_cyclic):
    """Each grade keeps one int64 index table and gathers one complex row
    stack from it, so the check peaks under 40 bytes per entry of its largest
    grade's table: 24 for the table and its stack, the rest for omega and nu,
    vectors of the dimension."""
    space = fock.TruncatedFock(sv22_cyclic, 10)
    space.left, space.parent_links()  # the space's own tables, built before the check
    counts = [space.prefix(a) - space.prefix(a - 1) for a in range(7)]  # grades up to 2 x 3
    largest = max(n * space.prefix(10 - a) for a, n in enumerate(counts))
    tracemalloc.start()
    try:
        gelfand.multiplicativity_check(space, ((0.1, 0.1), (0.1, 0.1)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert largest == 61_632
    assert peak < 40 * largest


@pytest.mark.parametrize("trunc", [3, 5])
@pytest.mark.parametrize("tokens", [["2", "2", "cyclic"], ["2", "3", "seed:4"],
                                    ["2", "2", "1", "seed:1"]])
def test_word_products_are_the_composite_path_operator(tokens, trunc):
    """At one vertex L_i L_j = L_{ij} on the truncated space, the identity the
    multiplicativity check reads its pair products by: for every two words of
    grading <= 3, the composed maps of L_i and L_j are the map of the joined
    word, and empty where its grading is past the truncation."""
    g = builders.builtin_graph(["single-vertex", *tokens])
    space = fock.TruncatedFock(g, trunc)
    words = [p for p in space.basis if p.delta <= 3]
    maps = [fock.image(fock.left_op(space, p)) for p in words]
    for i, img_i in zip(words, maps):
        for j, img_j in zip(words, maps):
            got = img_i[img_j]
            want = fock.image(fock.word_op(space, i.word + j.word, base=i.src))
            assert np.array_equal(got, want), (i, j)
            assert (got >= 0).any() == (i.delta + j.delta <= trunc), (i, j)


def test_character_object(sv22_cyclic, sv22_fock):
    pt = gelfand.sample_variety_points(sv22_cyclic, 1, seed=5, max_norm=0.3)[0]
    chi = gelfand.character(sv22_cyclic, pt, fock=sv22_fock)
    assert chi.is_vector_functional
    assert chi.on_word(()) == 1.0
    e = sv22_cyclic.edges[0]
    op = fock.left_op(sv22_fock, e.id)
    coords = generator_values(chi)
    assert abs(on_operator(chi, op) - coords[e.id]) < 1e-6
    # rho(identity operator) is exactly 1 for the normalized vector
    assert abs(on_operator(chi, identity_op(sv22_fock)) - 1.0) < 1e-12


@pytest.mark.parametrize("tokens", [["2", "2", "cyclic"], ["2", "3", "seed:4"], ["1", "1", "id"]])
def test_character_vector_is_the_normalised_conjugate_of_omega(tokens):
    """nu is conj omega(alpha) / |omega(alpha)|, which is omega(conj alpha)
    normalised up to the sign of zero imaginary parts."""
    g = builders.builtin_graph(["single-vertex", *tokens])
    space = fock.TruncatedFock(g, 6)
    for seed in range(5):
        for pt in gelfand.sample_variety_points(g, 2, seed=seed, max_norm=0.6):
            chi = gelfand.character(g, pt, fock=space)
            want = np.conj(gelfand.omega_vector(space, pt))
            assert np.array_equal(chi.vector, want / np.linalg.norm(want))
            conj_point = gelfand.omega_vector(space, tuple(np.conj(p) for p in pt))
            assert np.array_equal(chi.vector, conj_point / np.linalg.norm(conj_point))


@pytest.mark.parametrize("shape", [(0,), (0, 0)])
def test_character_checks_on_a_loopless_vertex(shape):
    """A single vertex without loops has one basis path at every truncation,
    so every grade past 0 is empty: omega is the vacuum, its norm is exact and
    the only word is the vertex."""
    g = builders.single_vertex(shape, builders.identity_table(shape))
    pt = gelfand.as_point(g, [])
    norms = [0.0] * len(shape)
    for trunc in range(6):
        space = fock.TruncatedFock(g, trunc)
        assert space.dimension == 1 and space.prefix(trunc) == 1
        assert gelfand.omega_vector(space, pt).tolist() == [1 + 0j]
        assert gelfand.omega_norm_check(space, pt) == {
            "trunc": trunc, "partialNormSq": 1.0, "closedForm": 1.0, "tailBound": 0.0,
            "gap": 0.0, "ok": True}
        for budget in range(4):
            assert gelfand.multiplicativity_check(space, pt, grading_budget=budget) == {
                "trunc": trunc, "gradingBudget": budget, "wordCount": 1, "maxResidual": 0.0,
                "worstPair": [["v"], ["v"]], "phiRecoveryError": 0.0, "varietyResidual": 0.0,
                "onVariety": True, "ballNorms": norms, "multiplicativeWithin": True}


def test_character_boundary_is_formal(sv22_cyclic, sv22_fock):
    t = 2 ** -0.5  # per-color norm exactly 1
    pt = ((t, t), (0.1, 0.1))
    chi = gelfand.character(sv22_cyclic, pt, fock=sv22_fock)
    assert not chi.is_vector_functional
    word = ("e1_1", "e2_1")
    assert chi.on_word(word) == pytest.approx(t * 0.1)
    with pytest.raises(DomainError, match="words only"):
        on_operator(chi, identity_op(sv22_fock))


def test_character_rejects_off_variety(sv22_cyclic, sv22_fock):
    with pytest.raises(DomainError, match="variety"):
        gelfand.character(sv22_cyclic, ((0.3, 0.1), (0.2, 0.4)), fock=sv22_fock)


def test_character_refuses_a_space_over_another_graph(sv22_fock):
    ident = builders.single_vertex((2, 2), theta=builders.identity_table((2, 2)))
    with pytest.raises(DomainError, match="different graph"):
        gelfand.character(ident, ((0.3, 0.1), (0.2, 0.1)), fock=sv22_fock)


def test_sampler_respects_constraints(sv22_cyclic, sv11):
    pts = gelfand.sample_variety_points(sv22_cyclic, 5, seed=42, max_norm=0.5)
    for pt in pts:
        assert gelfand.variety_residual(sv22_cyclic, pt) == 0.0
        assert all(r <= 0.5 + 1e-12 for r in gelfand.ball_norms(sv22_cyclic, pt))
    # identity theta: no constraints, generic coordinates appear
    free = gelfand.sample_variety_points(sv11, 3, seed=42, max_norm=0.5)
    assert all(gelfand.in_variety(sv11, pt) for pt in free)


def test_sampler_deterministic(sv22_cyclic):
    a = gelfand.sample_variety_points(sv22_cyclic, 4, seed=7)
    b = gelfand.sample_variety_points(sv22_cyclic, 4, seed=7)
    for pa, pb in zip(a, b):
        for xa, xb in zip(pa, pb):
            assert np.array_equal(xa, xb)


def test_gelfand_rejects_multivertex(chain3):
    with pytest.raises(UnsupportedGraphError):
        gelfand.variety_polys(chain3)


def _criterion_12():
    g = builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))
    trunc = gelfand.character_truncation([0.15 ** 2] * 2, 3, 1e-9)
    return g, (trunc,), gelfand.sample_variety_points(g, 10, seed=5150, max_norm=0.15)


def _random_table(shape, seed):
    def case():
        g = builders.single_vertex(shape, builders.random_table(shape, seed))
        return g, (3, 6), gelfand.sample_variety_points(g, 2, seed=seed, max_norm=0.7)
    return case


CLOSED_FORM_CASES = {"criterion 12": _criterion_12}
CLOSED_FORM_CASES.update({f"{shape} seed:{seed}": _random_table(shape, seed)
                          for shape in ((2, 2), (2, 3), (1, 1, 1)) for seed in (0, 1)})


@pytest.mark.parametrize("name", CLOSED_FORM_CASES)
def test_character_checks_match_closed_form(name):
    """The three character checks against ``oracle_closed_form_character`` on
    the variety.  Criterion 12's points (N = 12, bias below 4e-18) check that
    the residual is rounding; the random tables at N = 3 and 6 with norms up to
    0.7 have biases of 1e-4 to 1e-1, so the closed form fixes the reported digits.

    Tolerance: with u = eps / 2, a dot product of length D = dimension over
    unit vectors is off by at most D u, and nu carries at most (D + sqrt(5) N) u
    from its letterwise products (at most N complex multiplies) and its
    normalization.  Each of <L_l L_m nu, nu> and rho_l rho_m meets these errors
    twice, so a residual, rho - alpha_e and the relative error of |omega|^2 lie
    within (9 D + 14 N) u < 8 (D + N) eps to first order.  An eigen residual
    compares two products of at most N + 1 factors of modulus < 1, so it is
    below 2 sqrt(5) (N + 1) u < 4 (N + 1) eps.  The measured gaps were at most
    0.02 (D + N) eps, and 0.07 (N + 1) eps for the eigen residuals."""
    g, truncs, points = CLOSED_FORM_CASES[name]()
    eps = np.finfo(float).eps
    for trunc in truncs:
        space = fock.TruncatedFock(g, trunc)
        tol = 8 * (space.dimension + trunc) * eps
        for pt in points:
            assert gelfand.in_variety(g, pt)
            want = oracle_closed_form_character(g, pt, trunc)
            worst = max(want["bias"].values())
            rep = gelfand.multiplicativity_check(space, pt)
            assert abs(rep["maxResidual"] - worst) <= tol, (trunc, rep["maxResidual"], worst)
            assert want["bias"][tuple(map(tuple, rep["worstPair"]))] >= worst - 2 * tol
            assert abs(rep["phiRecoveryError"] - want["phiRecoveryError"]) <= tol
            norm = gelfand.omega_norm_check(space, pt)
            assert abs(norm["partialNormSq"] - want["normSq"]) <= tol * want["normSq"]
            assert norm["ok"]
            eigen = [gelfand.eigen_residual(g, e.id, pt, trunc, fock=space) for e in g.edges]
            assert max(eigen) <= 4 * (trunc + 1) * eps
