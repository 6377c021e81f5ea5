"""Constructors for the k-graph families the library works with.

Covers 1-graphs from plain digraphs, direct products, the glued product of
two 1-graphs along a pair bijection, higher-rank cycles, single-vertex graphs
given by permutation tables, doubled chains, and the transpose.
"""

import itertools
from dataclasses import dataclass

from .errors import ConstructionError, DomainError
from .kgraph import CommutationSquare, Edge, KGraph, validate

__all__ = [
    "Digraph",
    "from_digraph",
    "direct_product",
    "theta_product",
    "cycle_rank",
    "single_vertex",
    "bouquet",
    "chain",
    "transpose",
    "identity_table",
    "cyclic_table",
    "random_table",
    "builtin_graph",
    "builtin_names",
]


@dataclass(frozen=True)
class Digraph:
    """A finite directed multigraph: vertices plus (id, src, dst) edges."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]


def from_digraph(d: Digraph) -> KGraph:
    """The 1-graph of a digraph: its free path category, no squares."""
    return KGraph(
        k=1,
        vertices=d.vertices,
        edges=[Edge(id=i, color=1, src=s, dst=t) for (i, s, t) in d.edges],
    )


def direct_product(graphs) -> KGraph:
    """Direct product of 1-graphs; color i moves only the i-th coordinate.

    A vertex is a tuple ``u`` of factor vertices, comma-joined.  The copy of
    an edge ``e`` of factor ``s`` at ``u`` (where ``u[s]`` is its source)
    moves coordinate ``s`` to its range; its id is ``<e.id>.<s+1>(<the other
    coordinates of u>)``.  The squares are the coordinate interchanges, the
    only ones compatible with unique factorization, so no bijection is taken.
    """
    graphs = list(graphs)
    if not graphs:
        raise ConstructionError("direct_product needs at least one factor")
    for g in graphs:
        if g.k != 1:
            raise ConstructionError("direct_product factors must be 1-graphs")
    k = len(graphs)

    def moved(u, s, v):
        return u[:s] + (v,) + u[s + 1:]

    def copy(e, s, u):
        return f"{e.id}.{s + 1}({','.join(u[:s] + u[s + 1:])})"

    def tuples(fixed):  # vertex tuples in product order, slot t held at fixed[t]
        return itertools.product(*((fixed[t],) if t in fixed else g.vertices
                                   for t, g in enumerate(graphs)))

    edges = [Edge(id=copy(e, s, u), color=s + 1, src=",".join(u),
                  dst=",".join(moved(u, s, e.dst)))
             for s in range(k) for e in graphs[s].edges for u in tuples({s: e.src})]
    squares = [CommutationSquare(lhs=(copy(e, i, moved(u, j, f.dst)), copy(f, j, u)),
                                 rhs=(copy(f, j, moved(u, i, e.dst)), copy(e, i, u)))
               for i, j in itertools.combinations(range(k), 2)
               for e in graphs[i].edges for f in graphs[j].edges
               for u in tuples({i: e.src, j: f.src})]
    return KGraph(k=k, vertices=[",".join(u) for u in tuples({})],
                  edges=edges, squares=squares)


def theta_product(a: KGraph, b: KGraph, theta) -> KGraph:
    """Glue two 1-graphs on a shared vertex set into a 2-graph.

    ``theta`` maps every composable mixed pair ``(alpha, beta)`` (alpha from
    ``a`` applied second) to an equivalent reversed pair ``(beta2, alpha2)``
    with the same endpoints.  Its squares are checked by :func:`validate`,
    whose square stage is the whole check for k = 2: ``theta`` must be a
    bijection from the composable mixed pairs onto the reversed ones that
    keeps endpoints, so each vertex pair has as many pairs of either kind.
    """
    if a.k != 1 or b.k != 1:
        raise ConstructionError("theta_product factors must be 1-graphs")
    if set(a.vertices) != set(b.vertices):
        raise ConstructionError("factors must share their vertex set")
    a_ids = {e.id for e in a.edges}
    b_ids = {e.id for e in b.edges}
    if a_ids & b_ids:
        raise ConstructionError(
            f"edge ids must be disjoint between factors: {sorted(a_ids & b_ids)}"
        )
    edges = [Edge(id=e.id, color=1, src=e.src, dst=e.dst) for e in a.edges]
    edges += [Edge(id=e.id, color=2, src=e.src, dst=e.dst) for e in b.edges]
    squares = [CommutationSquare(lhs=pair, rhs=img) for pair, img in sorted(dict(theta).items())]
    try:
        g = KGraph(k=2, vertices=a.vertices, edges=edges, squares=squares)
    except DomainError as ex:
        raise ConstructionError(f"theta: {ex}") from None
    failures = validate(g).failures
    for f in failures:
        if f["kind"] == "pair-cardinality":
            ne, nf = f["counts"]
            raise ConstructionError(
                f"pair sets at vertex pair {tuple(f['cell'])} have sizes {ne} != {nf}"
            )
    if failures:
        raise ConstructionError(f"theta is not a square bijection: {failures[0]}")
    return g


_COLOR_LETTERS = "efghijklm"


def _cycle_edge_id(color, i):
    if color <= len(_COLOR_LETTERS):
        return f"{_COLOR_LETTERS[color - 1]}{i}"
    return f"c{color}_{i}"


def cycle_rank(n: int, k: int) -> KGraph:
    """The rank-k cycle on n vertices: one cyclic edge per color per vertex,
    with the interchange relations between consecutive colors."""
    if n < 1 or k < 1:
        raise ConstructionError("cycle_rank needs n >= 1 and k >= 1")
    vertices = [f"x{i}" for i in range(1, n + 1)]

    def nxt(i):
        return i % n + 1

    edges = []
    for c in range(1, k + 1):
        for i in range(1, n + 1):
            edges.append(Edge(id=_cycle_edge_id(c, i), color=c,
                              src=f"x{i}", dst=f"x{nxt(i)}"))
    squares = []
    for r, s in itertools.combinations(range(1, k + 1), 2):
        for i in range(1, n + 1):
            squares.append(CommutationSquare(
                lhs=(_cycle_edge_id(r, nxt(i)), _cycle_edge_id(s, i)),
                rhs=(_cycle_edge_id(s, nxt(i)), _cycle_edge_id(r, i)),
            ))
    return KGraph(k=k, vertices=vertices, edges=edges, squares=squares)


def identity_table(n) -> dict:
    """Permutation table fixing every mixed product."""
    n = tuple(n)
    return {
        (i, j): tuple(range(n[i - 1] * n[j - 1]))
        for i, j in itertools.combinations(range(1, len(n) + 1), 2)
    }


def cyclic_table(n) -> dict:
    """Permutation table cycling all mixed products by one step."""
    n = tuple(n)
    out = {}
    for i, j in itertools.combinations(range(1, len(n) + 1), 2):
        size = n[i - 1] * n[j - 1]
        out[(i, j)] = tuple((t + 1) % size for t in range(size))
    return out


def random_table(n, seed) -> dict:
    """Seeded random permutation table."""
    import numpy as np

    rng = np.random.default_rng(seed)
    n = tuple(n)
    out = {}
    for i, j in itertools.combinations(range(1, len(n) + 1), 2):
        size = n[i - 1] * n[j - 1]
        out[(i, j)] = tuple(int(x) for x in rng.permutation(size))
    return out


def single_vertex(n, theta=None) -> KGraph:
    """One vertex ``v`` with ``n[i]`` loops of color i+1 and relations from a
    permutation table ``theta[(i, j)]`` over the mixed products enumerated
    row-major: (1,1), (1,2), ..., (1, n_j), (2, 1), ...
    """
    n = tuple(int(x) for x in n)
    k = len(n)
    if k < 1 or any(x < 0 for x in n):
        raise ConstructionError("n must be a nonempty tuple of nonnegative counts")
    theta = dict(theta or {})
    expected_pairs = set(itertools.combinations(range(1, k + 1), 2))
    if set(theta) != expected_pairs:
        missing = expected_pairs - set(theta)
        if missing:
            raise ConstructionError(f"theta missing color pairs {sorted(missing)}")
        raise ConstructionError(f"theta has unknown color pairs {sorted(set(theta) - expected_pairs)}")

    def eid(color, p):
        return f"e{color}_{p}"

    edges = [Edge(id=eid(c, p), color=c, src="v", dst="v")
             for c in range(1, k + 1) for p in range(1, n[c - 1] + 1)]
    squares = []
    for (i, j), perm in sorted(theta.items()):
        size = n[i - 1] * n[j - 1]
        perm = tuple(int(x) for x in perm)
        if len(perm) != size or sorted(perm) != list(range(size)):
            raise ConstructionError(
                f"theta[{(i, j)}] must be a permutation of {size} products"
            )
        nj = n[j - 1]
        for t, t2 in enumerate(perm):
            p, q = divmod(t, nj)
            r, s = divmod(t2, nj)
            squares.append(CommutationSquare(
                lhs=(eid(i, p + 1), eid(j, q + 1)),
                rhs=(eid(j, s + 1), eid(i, r + 1)),
            ))
    return KGraph(k=k, vertices=["v"], edges=edges, squares=squares)


def bouquet(n: int) -> KGraph:
    """Single vertex, one color, ``n`` loop edges (free words on n letters)."""
    return single_vertex((n,), theta={})


def chain(n: int) -> KGraph:
    """Doubled directed chain on ``n`` vertices: two parallel colorings of
    the path x1 -> x2 -> ... -> xn, glued by the forced interchange."""
    if n < 1:
        raise ConstructionError("chain needs n >= 1")
    vertices = [f"x{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(1, n):
        edges.append(Edge(id=f"a{i}", color=1, src=f"x{i}", dst=f"x{i+1}"))
        edges.append(Edge(id=f"b{i}", color=2, src=f"x{i}", dst=f"x{i+1}"))
    squares = [
        CommutationSquare(lhs=(f"a{i+1}", f"b{i}"), rhs=(f"b{i+1}", f"a{i}"))
        for i in range(1, n - 1)
    ]
    return KGraph(k=2, vertices=vertices, edges=edges, squares=squares)


def transpose(g: KGraph) -> KGraph:
    """Reverse every edge; squares transported so words reverse consistently."""
    edges = [Edge(id=e.id, color=e.color, src=e.dst, dst=e.src) for e in g.edges]
    squares = [CommutationSquare(lhs=(sq.rhs[1], sq.rhs[0]),
                                 rhs=(sq.lhs[1], sq.lhs[0]))
               for sq in g.squares]
    return KGraph(k=g.k, vertices=g.vertices, edges=edges, squares=squares)


# -- named example registry ---------------------------------------------------


def cycle_digraph(n: int) -> Digraph:
    return Digraph(
        vertices=tuple(f"x{i}" for i in range(1, n + 1)),
        edges=tuple((f"e{i}", f"x{i}", f"x{i % n + 1}") for i in range(1, n + 1)),
    )


def bouquet_digraph(n: int) -> Digraph:
    return Digraph(vertices=("v",), edges=tuple((f"e{i}", "v", "v") for i in range(1, n + 1)))


def chain_digraph(n: int) -> Digraph:
    return Digraph(
        vertices=tuple(f"x{i}" for i in range(1, n + 1)),
        edges=tuple((f"a{i}", f"x{i}", f"x{i+1}") for i in range(1, n)),
    )


def _atom_digraph(token: str) -> Digraph:
    kind, num = token[:1].lower(), token[1:]
    if not num.isdecimal():
        raise ConstructionError(f"bad product atom {token!r} (want f<n> or c<n>)")
    m = int(num)
    if kind == "f":
        return bouquet_digraph(m)
    if kind == "c":
        return cycle_digraph(m)
    raise ConstructionError(f"bad product atom {token!r} (want f<n> or c<n>)")


def _theta_from_token(n, token: str) -> dict:
    if token == "id":
        return identity_table(n)
    if token == "cyclic":
        return cyclic_table(n)
    if token.startswith("seed:"):
        return random_table(n, _integer(token[5:], "seed", least=0))
    raise ConstructionError(f"unknown theta spec {token!r} (want id|cyclic|seed:<int >= 0>)")


def _integer(token: str, what: str, least=None) -> int:
    """A builtin parameter as an int; one that is not an integer, or is
    below ``least``, is a ``ConstructionError``."""
    try:
        n = int(token)
    except ValueError:
        raise ConstructionError(f"bad {what} {token!r} (want an integer)") from None
    if least is not None and n < least:
        raise ConstructionError(f"bad {what} {token!r} (want an integer >= {least})")
    return n


def builtin_names():
    return ("cycle <n> <k>", "chain <n>", "bouquet <n>",
            "single-vertex <n1> ... <nk> <id|cyclic|seed:S>",
            "product <f<n>|c<n>> ...")


def builtin_graph(tokens) -> KGraph:
    """Build a named example: ``cycle n k``, ``chain n``, ``bouquet n``,
    ``single-vertex n1 .. nk theta``, or ``product atom atom ...``."""
    tokens = [str(t) for t in tokens]
    if not tokens:
        raise ConstructionError("empty graph spec")
    name, args = tokens[0], tokens[1:]
    if name == "cycle" and len(args) == 2:
        return cycle_rank(*(_integer(x, "count") for x in args))
    if name == "chain" and len(args) == 1:
        return chain(_integer(args[0], "count"))
    if name == "bouquet" and len(args) == 1:
        return bouquet(_integer(args[0], "count"))
    if name == "single-vertex" and len(args) >= 2:
        n = tuple(_integer(x, "count") for x in args[:-1])
        return single_vertex(n, theta=_theta_from_token(n, args[-1]))
    if name == "product" and args:
        return direct_product([from_digraph(_atom_digraph(t)) for t in args])
    raise ConstructionError(
        f"unknown builtin {' '.join(tokens)!r}; known: {', '.join(builtin_names())}"
    )
