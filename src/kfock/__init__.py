"""kfock: higher-rank graphs and their truncated Fock-space realizations.

The package splits into combinatorics (``kgraph``, ``builders``,
``structure``), exact sparse operator checks (``fock``), single-vertex
character theory (``gelfand``), and plumbing (``dsl``, ``reports``, ``cli``).
The root holds the combinatorial names only, so importing it loads no numpy;
the numeric ones stay in their modules, e.g. ``kfock.fock.TruncatedFock``.
"""

from .builders import (
    Digraph,
    bouquet,
    chain,
    cycle_rank,
    direct_product,
    from_digraph,
    single_vertex,
    theta_product,
    transpose,
)
from .errors import (
    BudgetError,
    CompositionError,
    ConstructionError,
    DomainError,
    KFockError,
    MalformedGraphError,
    SpecSyntaxError,
    UnsupportedGraphError,
)
from .kgraph import CommutationSquare, Edge, KGraph, Path, ValidationReport, validate

__version__ = "0.1.0"

__all__ = [
    "KGraph", "Edge", "CommutationSquare", "Path", "ValidationReport", "validate",
    "Digraph", "from_digraph", "direct_product", "theta_product", "cycle_rank",
    "single_vertex", "bouquet", "chain", "transpose",
    "KFockError", "CompositionError", "MalformedGraphError", "ConstructionError",
    "BudgetError", "DomainError", "UnsupportedGraphError", "SpecSyntaxError",
    "__version__",
]
