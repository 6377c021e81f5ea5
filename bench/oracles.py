"""Reference answers the benchmark checks kfock's outputs against.

Each oracle reads only a graph's raw data (vertices, coloured edges,
commutation squares) and shares no code with the kfock paths it checks:

* ``path_census`` counts the basis of a truncated Fock space from the colour
  adjacency matrices, |Lambda^n| = 1^T A_1^{n_1} ... A_k^{n_k} 1.
* ``is_kgraph`` decides validity by critical pairs: the squares must pair
  the composable (low, high) and (high, low) colour pairs bijectively, and
  every composable 3-letter word with strictly decreasing colours must
  rewrite to a single colour-sorted word (Newman's lemma).
* ``nc_edges`` lists the edges on no cycle, by reachability closure.
"""

import itertools

import numpy as np


def degree_vectors(k, total):
    """Every length-k vector of non-negative integers summing to ``total``."""
    for cuts in itertools.combinations(range(total + k - 1), k - 1):
        bounds = (-1,) + cuts + (total + k - 1,)
        yield tuple(bounds[i + 1] - bounds[i] - 1 for i in range(k))


def colour_matrices(graph):
    """A_c[dst, src] = number of colour-c edges src -> dst, for c = 1..k."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    mats = [np.zeros((len(index), len(index)), dtype=np.int64) for _ in range(graph.k)]
    for e in graph.edges:
        mats[e.color - 1][index[e.dst], index[e.src]] += 1
    return mats


def path_census(graph, trunc):
    """Number of paths of total degree at most ``trunc``: the dimension of
    the truncated Fock space over ``graph``."""
    mats = colour_matrices(graph)
    ones = np.ones(len(graph.vertices), dtype=np.int64)
    total = 0
    for t in range(trunc + 1):
        for n in degree_vectors(graph.k, t):
            vec = ones
            for mat, power in zip(reversed(mats), reversed(n)):
                for _ in range(power):
                    vec = mat @ vec
            total += int(vec.sum())
    return total


def _squares_biject(graph):
    colour = {e.id: e.color for e in graph.edges}
    edge = {e.id: e for e in graph.edges}
    for i, j in itertools.combinations(range(1, graph.k + 1), 2):
        low = [e for e in graph.edges if e.color == i]
        high = [e for e in graph.edges if e.color == j]
        sorted_pairs = {(a.id, b.id) for a in low for b in high if a.src == b.dst}
        reversed_pairs = {(b.id, a.id) for b in high for a in low if b.src == a.dst}
        squares = [sq for sq in graph.squares
                   if (colour[sq.lhs[0]], colour[sq.lhs[1]]) == (i, j)]
        lhs = [sq.lhs for sq in squares]
        rhs = [sq.rhs for sq in squares]
        if sorted(lhs) != sorted(sorted_pairs) or sorted(rhs) != sorted(reversed_pairs):
            return False
        for sq in squares:
            (a, b), (b2, a2) = sq.lhs, sq.rhs
            if edge[a].dst != edge[b2].dst or edge[b].src != edge[a2].src:
                return False
    return True


def _normal_forms(word, colour, rewrite):
    """Every colour-sorted word reachable from ``word`` by swapping any
    adjacent (high, low) colour pair through its square."""
    seen, stack, forms = {word}, [word], set()
    while stack:
        w = stack.pop()
        redexes = [t for t in range(len(w) - 1) if colour[w[t]] > colour[w[t + 1]]]
        if not redexes:
            forms.add(w)
        for t in redexes:
            nxt = w[:t] + rewrite[w[t:t + 2]] + w[t + 2:]
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return forms


def is_kgraph(graph):
    """Critical-pair verdict: True when the squares make ``graph`` a k-graph."""
    if not _squares_biject(graph):
        return False
    colour = {e.id: e.color for e in graph.edges}
    rewrite = {sq.rhs: sq.lhs for sq in graph.squares}
    by_colour = {c: [e for e in graph.edges if e.color == c] for c in range(1, graph.k + 1)}
    for c1, c2, c3 in itertools.combinations(range(graph.k, 0, -1), 3):
        for x in by_colour[c1]:
            for y in by_colour[c2]:
                if x.src != y.dst:
                    continue
                for z in by_colour[c3]:
                    if y.src == z.dst and len(_normal_forms((x.id, y.id, z.id), colour, rewrite)) != 1:
                        return False
    return True


def nc_edges(graph):
    """Sorted ids of the edges that lie on no cycle: e is on a cycle exactly
    when e.src can be reached from e.dst."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    reach = np.eye(len(index), dtype=bool)
    for e in graph.edges:
        reach[index[e.src], index[e.dst]] = True
    for mid in range(len(index)):
        reach |= np.outer(reach[:, mid], reach[mid, :])
    return sorted(e.id for e in graph.edges if not reach[index[e.dst], index[e.src]])
