#!/usr/bin/env python3
"""Variety, eigenvectors, and characters of single-vertex graphs.

The loop coordinates of a single-vertex graph satisfy binomial relations cut
out by the permutation tables.  Interior points of the product ball on that
variety give adjoint eigenvectors with a closed-form norm and multiplicative
vector functionals; off-variety points are the negative control.
"""

from kfock import builders, fock, gelfand

# ---------------------------------------------------------------------------
# With one loop per color the relations are trivial and the whole ball works.
sv11 = builders.single_vertex((1, 1), theta=builders.identity_table((1, 1)))
space11 = fock.TruncatedFock(sv11, 30)
alpha = ((0.5,), (0.3,))
check = gelfand.omega_norm_check(space11, alpha)
print("truncated |omega|^2:", check["partialNormSq"])
print("closed form           ", check["closedForm"], "-> ok:", check["ok"])

# ---------------------------------------------------------------------------
# The cyclic table on (2,2) forces equal coordinates (up to the degenerate
# strata); its four binomials print as plain equations.
sv = builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))
for b in gelfand.variety_polys(sv):
    print(str(b), "= 0")

points = gelfand.sample_variety_points(sv, 3, seed=1, max_norm=0.4)
for pt in points:
    print("sample norms:", [round(r, 3) for r in gelfand.ball_norms(sv, pt)],
          "variety residual:", gelfand.variety_residual(sv, pt))

# ---------------------------------------------------------------------------
# Eigen relation for the adjoint generators, checked two ways: on the Fock
# space of the graph at a small truncation, and at N=20 (where that basis
# would have ~4e7 paths) on the Fock space of the degree lattice N^2, one
# path per degree, which the constant per-colour coordinates allow.
space = fock.TruncatedFock(sv, 8)
pt = points[0]
for e in sv.edges[:2]:
    dense = gelfand.eigen_residual(sv, e.id, pt, 8, fock=space)
    grouped = gelfand.eigen_residual(sv, e.id, pt, 20)
    print(f"edge {e.id}: dense residual {dense:.2e} (N=8), "
          f"grouped residual {grouped:.2e} (N=20)")

# ---------------------------------------------------------------------------
# Characters: multiplicative on the variety, visibly broken off it.
cap = 0.15
trunc = gelfand.character_truncation([cap ** 2] * 2, 3, 1e-9)
char_space = fock.TruncatedFock(sv, trunc)
print(f"\ncharacter truncation for tolerance 1e-9: N={trunc} "
      f"(dimension {char_space.dimension})")

good = gelfand.sample_variety_points(sv, 1, seed=8, max_norm=cap)[0]
bad = ((0.12, 0.05), (0.10, 0.04))
# one call checks both points: the index tables are built once for the space
rep, rep_bad = gelfand.multiplicativity_check(char_space, [good, bad], grading_budget=3)
print("on-variety:  max |rho(LL') - rho(L)rho(L')| =", rep["maxResidual"])
print("             generator recovery error =", rep["phiRecoveryError"])
print("off-variety: max residual =", rep_bad["maxResidual"],
      "worst pair:", rep_bad["worstPair"])

# ---------------------------------------------------------------------------
# Boundary points still evaluate words formally, without a vector.
t = 2 ** -0.5
chi = gelfand.character(sv, ((t, t), (0.1, 0.1)), fock=char_space)
print("\nboundary character is a vector functional:", chi.is_vector_functional)
print("formal value on the word e1_1 e2_1:", chi.on_word(("e1_1", "e2_1")))

# Disc radii: equal-coordinate points enter the ball exactly below n^(-1/2).
g23 = builders.single_vertex((2, 3), theta=builders.cyclic_table((2, 3)))
probe = lambda t: ((t, t), (0.1, 0.1, 0.1))
for eps in (-1e-9, 1e-9):
    t = (2 ** -0.5) * (1 + eps)
    print(f"|t| = 2^-1/2 * (1 {'+' if eps > 0 else '-'} 1e-9): in ball =",
          gelfand.in_ball(g23, probe(t)))
