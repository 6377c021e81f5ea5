"""Graph-level structure analysis: cycles, radical data, vertex classes.

Everything here is pure combinatorics on a validated k-graph.  Operator
consequences (which algebras are reflexive, what generates the radical) are
reported as verdicts about hypotheses, never recomputed analytically.
"""

import itertools
from collections import deque
from dataclasses import dataclass

from .errors import BudgetError
from .kgraph import KGraph

__all__ = [
    "CycleWitness",
    "DoublePureCycle",
    "reachable_from",
    "nc_edges",
    "is_semisimple",
    "pure_primitive_cycles",
    "double_pure_cycle_property",
    "classify_vertices",
    "reflexivity_report",
    "radical_check",
    "structure_report",
]

MAX_CYCLES = 10_000  # primitive cycles enumerated before giving up


@dataclass(frozen=True)
class CycleWitness:
    """A primitive monochromatic cycle: closed, one color, and the base
    vertex is not revisited before the end."""

    vertex: str
    color: int
    word: tuple[str, ...]


@dataclass(frozen=True)
class DoublePureCycle:
    """Two distinct primitive same-color cycles at one vertex, plus a
    shortest access path into that vertex from every other vertex."""

    vertex: str
    color: int
    cycles: tuple[CycleWitness, CycleWitness]
    access: dict  # vertex -> edge word (composition order) ending at `vertex`


def reachable_from(g: KGraph, start: str) -> set:
    """Vertices reachable from ``start`` along edges of any color."""
    seen = {start}
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for e in g.out_edges(v):
            if e.dst not in seen:
                seen.add(e.dst)
                queue.append(e.dst)
    return seen


def _no_cycle(g: KGraph, reach: dict) -> tuple[str, ...]:
    return tuple(sorted(e.id for e in g.edges if e.src not in reach[e.dst]))


def nc_edges(g: KGraph) -> tuple[str, ...]:
    """Edges lying on no cycle.

    An edge e lies on a cycle exactly when its end can get back to its start:
    a return path p gives the cycle p·e, and any cycle through e contains such
    a return path.  The brute-force closed-walk oracle in the test suite
    guards this reduction.
    """
    return _no_cycle(g, {v: reachable_from(g, v) for v in g.vertices})


def is_semisimple(g: KGraph) -> bool:
    """True when every edge lies on a cycle."""
    return not nc_edges(g)


def _first_return_walks(g: KGraph, v: str, color: int):
    """Closed walks at ``v`` in one colour with ``v`` only at both ends, at
    most as long as the colour has edges, as composition-order words in
    (length, word) order: a word grows from its last-applied edge through
    the id-ordered ``in_edges``.  ``ahead[r]`` holds the ends of the colour
    walks of length r that leave ``v`` and avoid it after; a letter is tried
    only when its source is in ``ahead`` of the steps left after it, so
    every branch ends in a walk."""
    cap = len(g.edges_of_color(color))
    ahead = [{v}]
    while len(ahead) < cap and ahead[-1]:
        ahead.append({e.dst for u in ahead[-1] for e in g.out_edges(u, color) if e.dst != v})
    for length in range(1, len(ahead) + 1):
        stack = [((), v)]  # word so far, the vertex where it starts
        while stack:
            word, at = stack.pop()
            if len(word) == length:
                yield word
                continue
            reach = ahead[length - len(word) - 1]
            stack.extend((word + (e.id,), e.src) for e in reversed(g.in_edges(at))
                         if e.color == color and e.src in reach)


def pure_primitive_cycles(g: KGraph) -> tuple[CycleWitness, ...]:
    """All primitive monochromatic cycles, first-return semantics: the base
    vertex may not appear strictly inside the cycle.  Length is capped at the
    number of edges of the color (every cycle that is vertex-simple inside
    fits).  Sorted by (vertex, color, length, word); a listing of more than
    ``MAX_CYCLES`` cycles raises ``BudgetError``."""
    found = tuple(itertools.islice(
        (CycleWitness(vertex=v, color=c, word=w) for v in g.vertices
         for c in range(1, g.k + 1) for w in _first_return_walks(g, v, c)), MAX_CYCLES + 1))
    if len(found) > MAX_CYCLES:
        raise BudgetError("primitive cycle enumeration exploded")
    return found


def _shortest_access_words(g: KGraph, target: str) -> dict:
    """For each vertex u, the shortest edge word of a path u -> target, ties
    broken lexicographically; missing vertices are unreachable.  A reverse
    breadth-first search: words leave the queue in (length, word) order and
    ``in_edges`` come in id order, so a vertex's first word is its least."""
    best = {target: ()}
    queue = deque([target])
    while queue:
        w = queue.popleft()
        for e in g.in_edges(w):
            if e.src not in best:
                best[e.src] = best[w] + (e.id,)  # e applied first, then the tail of the walk
                queue.append(e.src)
    return best


def double_pure_cycle_property(g: KGraph):
    """Witness for the double pure cycle property, or ``None``.

    Requires a vertex carrying two distinct primitive cycles of one color that
    every vertex can reach; this single-target form is what the isometry
    construction consumes.  Sites go in (vertex, color) order; the witnesses
    are a site's first two cycles in ``pure_primitive_cycles`` order.
    """
    for v in g.vertices:
        for color in range(1, g.k + 1):
            words = tuple(itertools.islice(_first_return_walks(g, v, color), 2))
            if len(words) < 2:
                continue
            access = _shortest_access_words(g, v)
            if set(access) == set(g.vertices):
                cycles = tuple(CycleWitness(vertex=v, color=color, word=w) for w in words)
                return DoublePureCycle(vertex=v, color=color, cycles=cycles, access=access)
    return None


def classify_vertices(g: KGraph) -> dict:
    """Per-vertex flags: radiating, multiplicity-one, relational.

    A vertex radiates when every edge into it is a loop; it has multiplicity
    one when it carries at most one loop per color.  It is relational when
    loops m != m' at v and paths l, l' leaving v (source v, first-applied
    edge not a loop) give l m = l' m'.  The leaving paths of grading <= 2
    decide this for every grading:
    1. Loops of one colour never witness: d(l) = d(l') and unique
       factorization gives l = l', then m = m'.
    2. For colours i != j, factoring l m = l' m' at degree e_i + e_j on the
       source side gives l = l'' x, l' = l'' y and a square x m = y m' at v.
    3. The first-applied edge of a canonical word is its source-side factor
       of degree e_c, c its largest colour.  For l'' x it depends only on x
       and on d, the source-side edge of l'' in its largest colour (none for
       an identity); so (d x, d y), of grading <= 2, witnesses like (l, l').
    4. A leaving path exists iff v has a non-loop out-edge, of grading 1.
    With fewer than two loops, one colour or no leaving path the flag is
    False, else True or "unknown (budget)", which means no witness at any
    grading.
    """
    leaving = [p for p in g.all_paths_up_to(2) if p.word and g.edge(p.word[-1]).dst != p.src]
    out = {}
    for v in g.vertices:
        radiating = all(e.src == v for e in g.in_edges(v))
        loops = g.loops_at(v)
        mult_one = all(len(g.loops_at(v, c)) <= 1 for c in range(1, g.k + 1))
        mine = [p for p in leaving if p.src == v]
        if len(loops) < 2 or g.k == 1 or not mine:
            relational = False
        else:
            owner = {}  # composed path -> the first loop that gave it
            relational = any(
                owner.setdefault(g.compose(lam, g.edge_path(mu.id)), mu.id) != mu.id
                for lam in mine for mu in loops) or "unknown (budget)"
        out[v] = {"radiating": radiating, "multiplicityOne": mult_one,
                  "relational": relational}
    return out


def reflexivity_report(g: KGraph) -> dict:
    """Which structural hypotheses hold; verdicts only, no operator theory.

    ``reflexiveByThm54`` is conservative: a vertex whose relational flag is
    "unknown (budget)" blocks the verdict and is listed separately, though
    ``classify_vertices`` proves such a vertex not relational.
    """
    return _reflexivity(g, classify_vertices(g))


def _reflexivity(g: KGraph, classes: dict) -> dict:
    """``reflexivity_report`` from the vertex classes of ``g``."""
    from .builders import transpose

    dpc_t = double_pure_cycle_property(transpose(g))
    blocked = sorted(
        v for v, c in classes.items()
        if c["radiating"] and c["multiplicityOne"] and c["relational"] is not False
    )
    unknown = sorted(
        v for v, c in classes.items() if c["relational"] == "unknown (budget)"
    )
    single_hinfty = g.is_single_vertex and all(
        len(g.loops_at(g.vertices[0], c)) <= 1 for c in range(1, g.k + 1)
    )
    return {
        "hyperReflexiveByDPC": dpc_t is not None,
        "distanceConstantBound": 3 if dpc_t is not None else None,
        "reflexiveByThm54": not blocked,
        "thm54BlockedVertices": blocked,
        "relationalUnknownVertices": unknown,
        "singleVertexHinfty": single_hinfty,
    }


def radical_check(g: KGraph, fock_space, word_grading: int = 2,
                  ideal_grading: int | None = None) -> dict:
    """Nilpotency of the ideal generated by no-cycle edges, by certificate.

    The certificate is ``reachLevels``: level(v) = |reachable_from(g, v)|.
    Along any edge u -> w, reach(w) is a subset of reach(u), so levels never
    rise.  Along a no-cycle edge u is not in reach(w), so the level drops
    strictly.  Source and range of a path do not depend on its
    representative, so an ideal word mu e nu (e a no-cycle edge) drops the
    level by at least one.  Hence, on every truncation:

    - (A L_e)^2 = 0 for each no-cycle edge e and word A: a nonzero square
      needs the path A e to be closed, yet it drops the level.
    - every product of |vertices| ideal words is 0: its |vertices| drops
      would need |vertices| + 1 distinct levels in 1..|vertices|.

    ``ok`` says the levels satisfy both edge conditions, and no operator is
    built.  The counts are the products the certificate covers:
    ``squareZeroChecked`` pairs each no-cycle edge with each word up to
    ``word_grading``, and ``nFoldChecked`` is ``idealWords ** |vertices|``,
    where the ideal words are the paths mu e nu of grading at most
    ``ideal_grading`` (default: the truncation of ``fock_space``).  A level
    drop along a word is an edge u -> w with reach(w) a proper subset of
    reach(u), so u is not in reach(w): one representative holds a no-cycle
    edge iff all do iff the level drops, and that is what is counted.  The
    failure lists stay empty.  An empty no-cycle set passes vacuously.
    """
    reach = {v: reachable_from(g, v) for v in g.vertices}
    nc = _no_cycle(g, reach)
    n = len(g.vertices)
    level = {v: len(reach[v]) for v in g.vertices}
    report = {
        "ncEdges": list(nc),
        "nilpotencyBound": n,
        "reachLevels": level,
        "squareZeroChecked": 0,
        "squareZeroFailures": [],
        "nFoldChecked": 0,
        "nFoldFailures": [],
        "ok": all(level[e.src] >= level[e.dst] + (e.id in nc) for e in g.edges),
    }
    if not nc:
        return report

    report["squareZeroChecked"] = len(nc) * len(g.all_paths_up_to(word_grading))
    budget = ideal_grading if ideal_grading is not None else fock_space.trunc
    ideal = sum(level[p.src] > level[p.dst] for p in g.all_paths_up_to(budget))
    report["idealWords"] = ideal
    report["nFoldChecked"] = ideal ** n
    return report


# -- aggregate report ---------------------------------------------------------


def structure_report(g: KGraph) -> dict:
    """The ``analyze`` report: no-cycle edges and the radical they generate,
    the double pure cycle witness, vertex classes and reflexivity verdicts."""
    nc = nc_edges(g)
    classes = classify_vertices(g)
    w = double_pure_cycle_property(g)
    dpc = None if w is None else {
        "vertex": w.vertex,
        "color": w.color,
        "cycles": [list(c.word) for c in w.cycles],
        "access": {v: list(word) for v, word in sorted(w.access.items())},
    }
    return {
        "ncEdges": list(nc),
        "semisimple": not nc,
        "radicalGenerators": list(nc),
        "nilpotencyBound": len(g.vertices),
        "doublePureCycle": dpc,
        "vertexClasses": {v: classes[v] for v in sorted(classes)},
        "reflexivity": _reflexivity(g, classes),
    }
