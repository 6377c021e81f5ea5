#!/usr/bin/env python3
"""Tour of the graph constructors and the path calculus.

Builds the recurring examples, counts paths per degree, rewrites words into
their canonical color-sorted form, and runs the complete validator.
"""

from kfock import builders
from kfock.kgraph import degree_vectors, validate

# ---------------------------------------------------------------------------
# A 1-graph is just a digraph with its free path category.
chain_digraph = builders.chain_digraph(3)  # x1 -> x2 -> x3
one = builders.from_digraph(chain_digraph)
print("1-graph paths by length:",
      {n: len(one.paths_of_degree((n,))) for n in range(4)})

# ---------------------------------------------------------------------------
# Gluing two copies of that digraph along the forced pair bijection gives a
# 2-colored graph whose Fock space is 10-dimensional.
doubled = builders.chain(3)
print("\ndoubled chain census:")
for t in range(4):
    for deg in degree_vectors(2, t):
        count = len(doubled.paths_of_degree(deg))
        if count:
            print(f"  degree {deg}: {count} paths")

# The one commutation square identifies the two mixed words.
lhs = doubled.normal_form(("b2", "a1"))
rhs = doubled.normal_form(("a2", "b1"))
print("normal_form(b2 a1) == normal_form(a2 b1):", lhs == rhs,
      "->", " ".join(lhs.word))

# ---------------------------------------------------------------------------
# The rank-2 cycle on n vertices: one cyclic edge per color per vertex, with
# interchange relations.  Exactly one path of each degree leaves each vertex.
cyc = builders.cycle_rank(3, 2)
print("\nrank-2 cycle path counts:",
      {(p, q): len(cyc.paths_of_degree((p, q))) for p in range(3) for q in range(3)})
print("rewrite f2 e1 ->", " ".join(cyc.normal_form(("f2", "e1")).word))

# ---------------------------------------------------------------------------
# Direct products multiply path counts coordinatewise.
prod = builders.direct_product([
    builders.from_digraph(builders.bouquet_digraph(2)),
    builders.from_digraph(builders.bouquet_digraph(3)),
])
print("\nbouquet(2) x bouquet(3) counts:",
      {(m, n): len(prod.paths_of_degree((m, n))) for m in range(3) for n in range(3)})

# ---------------------------------------------------------------------------
# Single-vertex graphs come from permutation tables over the mixed products.
sv = builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))
print("\nsingle-vertex (2,2) cyclic:",
      {deg: len(sv.paths_of_degree(deg)) for deg in [(1, 0), (1, 1), (2, 2)]})

# ---------------------------------------------------------------------------
# The validator is complete: square bijection plus critical-word confluence.
# It counts the two-color pairs the squares pair off and the critical words
# x y z (colors strictly decreasing); rank-2 graphs have none.
for name, g in [("doubled chain", doubled), ("rank-2 cycle", cyc),
                ("product", prod), ("single-vertex", sv)]:
    rep = validate(g, max_grading=5)
    print(f"validate({name}, 5): ok={rep.ok} "
          f"paths={rep.stats['pathsChecked']} words={rep.stats['wordsChecked']}")

# An inconsistent 3-color family is caught by the confluence stage.
bad = builders.single_vertex((2, 2, 2), theta=builders.random_table((2, 2, 2), 0))
rep = validate(bad, max_grading=3)
print("\ninconsistent 3-color tables: ok =", rep.ok)
print("first failure:", rep.failures[0]["kind"], rep.failures[0]["word"])
