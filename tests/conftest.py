"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own shortcuts: class counting
closes raw words under single square applications in both directions, cycle
detection enumerates closed walks, creation operators compose paths one
basis vector at a time instead of reading the edge-action tables, and
validity is searched grading by grading (factorization counts and every
rewrite order of every raw word) instead of by critical words.  Tests
compare library output against these.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from kfock import builders
from kfock.errors import MalformedGraphError
from kfock.fock import SparseOperator
from kfock.kgraph import (
    CommutationSquare,
    Edge,
    KGraph,
    ValidationReport,
    _square_structure_failures,
    degree_vectors,
    validate,
)


# -- graphs used across the suite ---------------------------------------------


@pytest.fixture(scope="session")
def sv11():
    return builders.single_vertex((1, 1), theta=builders.identity_table((1, 1)))


@pytest.fixture(scope="session")
def sv22_cyclic():
    return builders.single_vertex((2, 2), theta=builders.cyclic_table((2, 2)))


@pytest.fixture(scope="session")
def cycle32():
    return builders.cycle_rank(3, 2)


@pytest.fixture(scope="session")
def chain3():
    return builders.chain(3)


@pytest.fixture(scope="session")
def f2():
    return builders.bouquet(2)


@pytest.fixture(scope="session")
def f2xf3():
    return builders.direct_product([
        builders.from_digraph(builders.bouquet_digraph(2)),
        builders.from_digraph(builders.bouquet_digraph(3)),
    ])


# -- oracles -------------------------------------------------------------------


def raw_words_of_degree(g: KGraph, degree):
    """Every composable raw word with the given color counts, grown by
    prepending edges (the new edge is applied after the current word)."""
    degree = tuple(degree)
    total = sum(degree)
    out = []

    def grow(word, counts):
        if len(word) == total:
            out.append(tuple(word))
            return
        for e in g.edges:
            if counts[e.color - 1] >= degree[e.color - 1]:
                continue
            if word and e.src != g.edge(word[0]).dst:
                continue
            counts[e.color - 1] += 1
            grow([e.id] + word, counts)
            counts[e.color - 1] -= 1

    grow([], [0] * g.k)
    return out


def closure_class_count(g: KGraph, degree) -> int:
    """Number of word classes of one degree under square applications.

    Degree zero is the vertex count: empty words are identities, one per
    base vertex.
    """
    if sum(degree) == 0:
        return len(g.vertices)
    words = raw_words_of_degree(g, degree)
    seen = set()
    classes = 0
    for w in words:
        if w in seen:
            continue
        classes += 1
        queue = [w]
        seen.add(w)
        while queue:
            u = queue.pop()
            for t in range(len(u) - 1):
                for table in (g._anti2norm, g._norm2anti):
                    repl = table.get((u[t], u[t + 1]))
                    if repl is not None:
                        v = u[:t] + repl + u[t + 2:]
                        if v not in seen:
                            seen.add(v)
                            queue.append(v)
    return classes


def nc_oracle(g: KGraph):
    """Edges on no closed walk, by enumerating closed walks.

    Walk length is capped at |vertices|: any cycle through an edge shortcuts
    to one with non-repeating interior vertices, which fits the cap.
    """
    on_cycle = set()
    cap = len(g.vertices)
    for start in g.vertices:
        stack = [(start, ())]
        while stack:
            v, walk = stack.pop()
            if len(walk) >= cap:
                continue
            for e in g.out_edges(v):
                if e.dst == start:
                    on_cycle.update(walk + (e.id,))
                else:
                    stack.append((e.dst, walk + (e.id,)))
    return tuple(sorted(e.id for e in g.edges if e.id not in on_cycle))


def _all_raw_words(g: KGraph, max_len: int):
    """All composable edge words of length 1..max_len."""
    layer = [(e.id,) for e in g.edges]
    for w in layer:
        yield w
    for _ in range(max_len - 1):
        nxt = []
        for w in layer:
            head_dst = g.edge(w[0]).dst
            for e in g.edges:
                if e.src == head_dst:
                    nxt.append((e.id,) + w)
        layer = nxt
        for w in layer:
            yield w


def _reachable_normal_forms(g: KGraph, word, memo):
    """Every color-sorted word reachable by choosing rewrite positions freely."""
    got = memo.get(word)
    if got is not None:
        return got
    colors = [g.edge(x).color for x in word]
    redexes = [t for t in range(len(word) - 1) if colors[t] > colors[t + 1]]
    if not redexes:
        result = frozenset([word])
    else:
        acc = set()
        for t in redexes:
            pair = (word[t], word[t + 1])
            repl = g._anti2norm.get(pair)
            if repl is None:
                raise MalformedGraphError(f"no square for adjacent pair {pair}")
            nxt = word[:t] + repl + word[t + 2:]
            acc |= _reachable_normal_forms(g, nxt, memo)
        result = frozenset(acc)
    memo[word] = result
    return result


def oracle_validate(g: KGraph, max_grading: int) -> ValidationReport:
    """Grading-bounded search for the factorization property.

    After the library's square-bijection stage, every canonical path of
    grading <= max_grading must have exactly one factorization per degree
    split, counted over all pairs of shorter paths, and every composable raw
    word of length <= max_grading must reach one color-sorted word whatever
    rewrite positions are chosen.
    """
    failures = _square_structure_failures(g)
    stats = {"pathsChecked": 0, "wordsChecked": 0, "squares": len(g.squares)}
    if not failures:
        for t in range(1, max_grading + 1):
            for n in degree_vectors(g.k, t):
                targets = g.paths_of_degree(n, max_grading=max_grading)
                stats["pathsChecked"] += len(targets)
                for m in itertools.product(*(range(x + 1) for x in n)):
                    rest = tuple(a - b for a, b in zip(n, m))
                    counts = Counter()
                    for nu in g.paths_of_degree(rest, max_grading=max_grading):
                        for mu in g.paths_of_degree(m, max_grading=max_grading):
                            if mu.src == nu.dst:
                                counts[g.compose(mu, nu)] += 1
                    for lam in targets:
                        c = counts.get(lam, 0)
                        if c != 1:
                            failures.append({
                                "kind": "factorization",
                                "path": list(lam.word) or [lam.src],
                                "split": list(m),
                                "count": c,
                            })
        memo = {}
        for word in _all_raw_words(g, max_grading):
            stats["wordsChecked"] += 1
            forms = _reachable_normal_forms(g, word, memo)
            if len(forms) != 1:
                failures.append({
                    "kind": "confluence",
                    "word": list(word),
                    "normalForms": sorted(list(f) for f in forms),
                })
    return ValidationReport(ok=not failures, max_grading=max_grading,
                            failures=failures, stats=stats)


def _composition_op(space, compose):
    rows, cols = [], []
    for col, mu in enumerate(space.basis):
        target = compose(mu)
        if target is not None and target.delta <= space.trunc:
            rows.append(space.index_of(target))
            cols.append(col)
    m = sp.csr_matrix(
        (np.ones(len(rows), dtype=np.int64), (rows, cols)),
        shape=(space.dimension, space.dimension),
    )
    return SparseOperator(space, m)


def oracle_left_op(space, what):
    """xi_mu -> xi_{lambda mu} by ``KGraph.compose`` on every basis path."""
    lam = space.as_path(what)
    g = space.graph
    return _composition_op(
        space, lambda mu: g.compose(lam, mu) if lam.src == mu.dst else None)


def oracle_right_op(space, what):
    """xi_mu -> xi_{mu lambda} by ``KGraph.compose`` on every basis path."""
    lam = space.as_path(what)
    g = space.graph
    return _composition_op(
        space, lambda mu: g.compose(mu, lam) if mu.src == lam.dst else None)


def oracle_range_conflicts(space):
    """Range-membership scan: per degree, every row of every path's oracle
    operator, remembering the first path that held it."""
    conflicts = []
    for t in range(space.trunc + 1):
        for n in degree_vectors(space.graph.k, t):
            paths = space.graph.paths_of_degree(n, max_grading=space.trunc)
            if len(paths) < 2:
                continue
            owner = {}
            for p in paths:
                for r in oracle_left_op(space, p).matrix.tocoo().row:
                    prev = owner.setdefault(int(r), p)
                    if prev != p:
                        conflicts.append((prev, p, space.basis[int(r)]))
    return conflicts


# -- seeded random k-graphs -----------------------------------------------------


def _random_squares(rng, k, edges):
    """Squares pairing the two color orders cell by cell at random, or None
    when some cell has unequal sides (the adjacency matrices do not commute)."""
    squares = []
    for i, j in itertools.combinations(range(1, k + 1), 2):
        gi = [e for e in edges if e.color == i]
        gj = [e for e in edges if e.color == j]
        e_cells, f_cells = {}, {}
        for a in gi:
            for b in gj:
                if a.src == b.dst:
                    e_cells.setdefault((a.dst, b.src), []).append((a.id, b.id))
        for b in gj:
            for a in gi:
                if b.src == a.dst:
                    f_cells.setdefault((b.dst, a.src), []).append((b.id, a.id))
        if set(e_cells) != set(f_cells):
            return None
        theta = {}
        for cell in sorted(e_cells):
            es, fs = sorted(e_cells[cell]), sorted(f_cells[cell])
            if len(es) != len(fs):
                return None
            fs = [fs[int(t)] for t in rng.permutation(len(fs))]
            theta.update(dict(zip(es, fs)))
        squares += [CommutationSquare(lhs=pair, rhs=img) for pair, img in sorted(theta.items())]
    return squares


def _random_candidate(rng):
    k = int(rng.integers(1, 3))
    nv = int(rng.integers(1, 5))
    vertices = [f"v{i}" for i in range(nv)]
    ne = int(rng.integers(1, 7))
    colors = [int(rng.integers(1, k + 1)) for _ in range(ne)]
    edges = [
        Edge(id=f"e{t}", color=c,
             src=vertices[int(rng.integers(nv))],
             dst=vertices[int(rng.integers(nv))])
        for t, c in enumerate(colors)
    ]
    squares = _random_squares(rng, k, edges)
    return None if squares is None else KGraph(k, vertices, edges, squares)


def random_valid_kgraphs(count: int, seed: int):
    """Deterministic stream of validated graphs (<=4 vertices, <=6 edges, k<=2)."""
    rng = np.random.default_rng(seed)
    found = []
    attempts = 0
    while len(found) < count:
        attempts += 1
        if attempts > 100 * count:
            raise RuntimeError("random graph generation stalled")
        g = _random_candidate(rng)
        if g is None:
            continue
        if validate(g).ok:
            found.append(g)
    return found


def random_k3_candidates(count: int, seed: int):
    """Deterministic stream of 3-colored graphs on Z_2 or Z_3 whose squares
    biject but are otherwise random, so both verdicts occur.  Each color
    joins v to v + s for one or two random shifts s, so the color adjacency
    matrices are circulant and commute and every cell pairs off."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nv = int(rng.integers(2, 4))
        vertices = [f"v{i}" for i in range(nv)]
        edges = []
        for c in (1, 2, 3):
            for s in rng.integers(nv, size=int(rng.integers(1, 3))):
                for v in range(nv):
                    edges.append(Edge(f"e{len(edges)}", c, vertices[v],
                                      vertices[(v + int(s)) % nv]))
        out.append(KGraph(3, vertices, edges, _random_squares(rng, 3, edges)))
    return out
