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
    "relabel_edges",
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


def _product_edge_id(eid, slot, context):
    return f"{eid}.{slot}({','.join(context)})"


def direct_product(graphs) -> KGraph:
    """Direct product of 1-graphs; color i moves only the i-th coordinate.

    The squares are the coordinate-interchange identifications, which are the
    only ones compatible with unique factorization, so no bijection is taken
    as input.
    """
    graphs = list(graphs)
    if not graphs:
        raise ConstructionError("direct_product needs at least one factor")
    for g in graphs:
        if g.k != 1:
            raise ConstructionError("direct_product factors must be 1-graphs")
    k = len(graphs)
    vertex_tuples = list(itertools.product(*(g.vertices for g in graphs)))
    vname = {vt: ",".join(vt) for vt in vertex_tuples}

    edges = []
    for slot in range(k):
        others = [graphs[t].vertices for t in range(k) if t != slot]
        for e in graphs[slot].edges:
            for ctx in itertools.product(*others):
                src = list(ctx)
                src.insert(slot, e.src)
                dst = list(ctx)
                dst.insert(slot, e.dst)
                edges.append(Edge(
                    id=_product_edge_id(e.id, slot + 1, ctx),
                    color=slot + 1,
                    src=vname[tuple(src)],
                    dst=vname[tuple(dst)],
                ))

    squares = []
    for i, j in itertools.combinations(range(k), 2):
        other_slots = [t for t in range(k) if t not in (i, j)]
        others = [graphs[t].vertices for t in other_slots]
        for e in graphs[i].edges:
            for f in graphs[j].edges:
                for ctx in itertools.product(*others):
                    assign = dict(zip(other_slots, ctx))

                    def copy_id(eid, slot, val_slot, val):
                        coords = tuple(
                            val if t == val_slot else assign[t]
                            for t in range(k) if t != slot
                        )
                        return _product_edge_id(eid, slot + 1, coords)

                    a = copy_id(e.id, i, j, f.dst)
                    b = copy_id(f.id, j, i, e.src)
                    b2 = copy_id(f.id, j, i, e.dst)
                    a2 = copy_id(e.id, i, j, f.src)
                    squares.append(CommutationSquare(lhs=(a, b), rhs=(b2, a2)))

    return KGraph(k=k, vertices=[vname[vt] for vt in vertex_tuples],
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


def relabel_edges(g: KGraph, rename) -> KGraph:
    """Copy of ``g`` with edge ids renamed by a mapping or callable."""
    if not callable(rename):
        mapping = dict(rename)
        rename = lambda eid: mapping.get(eid, eid)
    new_ids = {e.id: rename(e.id) for e in g.edges}
    if len(set(new_ids.values())) != len(new_ids):
        raise ConstructionError("edge renaming must stay injective")
    edges = [Edge(id=new_ids[e.id], color=e.color, src=e.src, dst=e.dst)
             for e in g.edges]
    squares = [CommutationSquare(
        lhs=(new_ids[sq.lhs[0]], new_ids[sq.lhs[1]]),
        rhs=(new_ids[sq.rhs[0]], new_ids[sq.rhs[1]]),
    ) for sq in g.squares]
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
    if not num.isdigit():
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
        return random_table(n, int(token.split(":", 1)[1]))
    raise ConstructionError(f"unknown theta spec {token!r} (want id|cyclic|seed:<int>)")


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
        return cycle_rank(int(args[0]), int(args[1]))
    if name == "chain" and len(args) == 1:
        return chain(int(args[0]))
    if name == "bouquet" and len(args) == 1:
        return bouquet(int(args[0]))
    if name == "single-vertex" and len(args) >= 2:
        n = tuple(int(x) for x in args[:-1])
        return single_vertex(n, theta=_theta_from_token(n, args[-1]))
    if name == "product" and args:
        return direct_product([from_digraph(_atom_digraph(t)) for t in args])
    raise ConstructionError(
        f"unknown builtin {' '.join(tokens)!r}; known: {', '.join(builtin_names())}"
    )
