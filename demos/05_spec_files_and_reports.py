#!/usr/bin/env python3
"""The text format and the machine-readable reports.

Writes a graph as a spec file, reads it back, and produces the canonical
JSON reports the command line emits; everything here is also reachable via
``kfock validate | analyze | fock | gelfand | example``.
"""

import json

from kfock import builders, dsl, reports, structure
from kfock.kgraph import validate

# ---------------------------------------------------------------------------
# Any graph serializes to a line-oriented spec and parses back unchanged.
g = builders.cycle_rank(3, 2)
text = dsl.serialize(g)
print(text)

again = dsl.parse_spec(text)
assert {e for e in again.edges} == {e for e in g.edges}
assert set(again.squares) == set(g.squares)
print("round trip ok:", validate(again, 4).ok)

# ---------------------------------------------------------------------------
# Parse errors carry line positions.
broken = text.replace("relation f2 e1 = e2 f1", "relation f2 e1 = f1 e2")
try:
    dsl.parse_spec(broken)
except Exception as ex:
    print("rejected edit:", ex)

# ---------------------------------------------------------------------------
# Reports: stable field order, sorted lists, floats clamped to 12 digits,
# so identical inputs give byte-identical documents.
doc = reports.envelope("analyze", "cycle 3 2",
                       {"structure": structure.structure_report(g)})
one = json.dumps(reports.canonical(doc), indent=2)
two = json.dumps(reports.canonical(doc), indent=2)
assert one == two
print("\nreport head:")
print("\n".join(one.splitlines()[:12]))

# The same document via the command line:
#   kfock analyze cycle 3 2 --json report.json
#   kfock example chain 3 --out chain3.kg && kfock validate chain3.kg
