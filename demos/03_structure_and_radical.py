#!/usr/bin/env python3
"""Cycle structure, the nilpotent ideal, and reflexivity hypothesis reports.

Edges on no cycle generate a nilpotent ideal whose degree is bounded by the
vertex count; the doubled chain shows it, the cycle graph is semisimple, and
the vertex classification feeds the reflexivity verdicts.
"""

import json

from kfock import builders, fock, structure

chain = builders.chain(3)
cyc = builders.cycle_rank(3, 2)

# ---------------------------------------------------------------------------
# The no-cycle edge set decides semisimplicity.
print("doubled chain no-cycle edges:", structure.nc_edges(chain))
print("doubled chain semisimple:", structure.is_semisimple(chain))
print("rank-2 cycle no-cycle edges:", structure.nc_edges(cyc),
      "-> semisimple:", structure.is_semisimple(cyc))

# ---------------------------------------------------------------------------
# Nilpotency, certified by reachability levels: with 3 vertices every
# 3-fold product of ideal words vanishes, and (A L_e)^2 = 0 edgewise.
space = fock.TruncatedFock(chain, 4)
rad = structure.radical_check(chain, space)
print(f"\nideal words: {rad['idealWords']}; "
      f"3-fold products checked: {rad['nFoldChecked']}; "
      f"square-zero checks: {rad['squareZeroChecked']}; ok: {rad['ok']}")

# ---------------------------------------------------------------------------
# Primitive monochromatic cycles and the double pure cycle property.
print("\nprimitive pure cycles of the rank-2 cycle:")
for w in structure.pure_primitive_cycles(cyc):
    print(f"  base {w.vertex} color {w.color}: {' '.join(w.word)}")
print("double pure cycle on the cycle graph:",
      structure.double_pure_cycle_property(cyc))

f2 = builders.bouquet(2)
witness = structure.double_pure_cycle_property(f2)
print("double pure cycle on bouquet(2):",
      witness.cycles[0].word, witness.cycles[1].word)

# ---------------------------------------------------------------------------
# Vertex classes and the reflexivity verdicts (hypothesis reports only).
print("\nvertex classes of the doubled chain:")
for v, flags in structure.classify_vertices(chain).items():
    print(" ", v, flags)

for name, g in [("doubled chain", chain),
                ("single-vertex (1,1) id",
                 builders.single_vertex((1, 1), theta=builders.identity_table((1, 1)))),
                ("single-vertex (2,2) cyclic",
                 builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2))))]:
    rep = structure.reflexivity_report(g)
    print(f"{name}: {rep}")

# ---------------------------------------------------------------------------
# The whole report serializes to stable JSON (this is what the CLI emits).
print("\nfull structure report for the doubled chain:")
print(json.dumps(structure.structure_report(chain), indent=1))
