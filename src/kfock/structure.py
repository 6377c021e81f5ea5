"""Graph-level structure analysis: cycles, radical data, vertex classes.

Everything here is pure combinatorics on a validated k-graph.  Operator
consequences (which algebras are reflexive, what generates the radical) are
reported as verdicts about hypotheses, never recomputed analytically.
"""

from collections import deque
from dataclasses import dataclass

from .errors import BudgetError, CompositionError, DomainError
from .kgraph import KGraph, Path, degree_vectors

__all__ = [
    "CycleWitness",
    "DoublePureCycle",
    "StructureReport",
    "reachable_from",
    "nc_edges",
    "is_semisimple",
    "pure_primitive_cycles",
    "double_pure_cycle_property",
    "classify_vertices",
    "reflexivity_report",
    "extremal_factorization_check",
    "radical_check",
    "structure_report",
]

MAX_CYCLES = 10_000  # primitive cycles enumerated before giving up
MAX_PRODUCTS = 200_000  # n-fold ideal-word products radical_check may form


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


def nc_edges(g: KGraph) -> tuple[str, ...]:
    """Edges lying on no cycle.

    An edge e lies on a cycle exactly when its end can get back to its start:
    a return path p gives the cycle p·e, and any cycle through e contains such
    a return path.  The brute-force closed-walk oracle in the test suite
    guards this reduction.
    """
    out = []
    reach = {v: reachable_from(g, v) for v in g.vertices}
    for e in g.edges:
        if e.src not in reach[e.dst]:
            out.append(e.id)
    return tuple(sorted(out))


def is_semisimple(g: KGraph) -> bool:
    """True when every edge lies on a cycle."""
    return not nc_edges(g)


def pure_primitive_cycles(g: KGraph) -> tuple[CycleWitness, ...]:
    """All primitive monochromatic cycles, per (vertex, color), first-return
    semantics: the base vertex may not appear strictly inside the cycle.

    Length is capped at the number of edges of the color (every cycle that is
    vertex-simple inside fits, which is all that property detection needs);
    more than ``MAX_CYCLES`` cycles raise ``BudgetError``.
    """
    found = []
    for color in range(1, g.k + 1):
        cap = max(len(g.edges_of_color(color)), 1)
        for base in g.vertices:
            # DFS over walks from `base` in this color, closing only at `base`
            stack = [(base, [])]
            while stack:
                v, applied = stack.pop()
                if len(applied) >= cap:
                    continue
                for e in reversed(g.out_edges(v, color)):
                    if e.dst == base:
                        word = tuple(reversed([*applied, e.id]))
                        found.append(CycleWitness(vertex=base, color=color, word=word))
                        if len(found) > MAX_CYCLES:
                            raise BudgetError("primitive cycle enumeration exploded")
                    else:
                        stack.append((e.dst, [*applied, e.id]))
    return tuple(sorted(found, key=lambda c: (c.vertex, c.color, len(c.word), c.word)))


def _shortest_access_words(g: KGraph, target: str) -> dict:
    """For each vertex u, the shortest edge word of a path u -> target,
    ties broken lexicographically.  Missing vertices are unreachable."""
    best = {target: ()}
    for _ in range(len(g.vertices)):
        changed = False
        for e in g.edges:
            tail = best.get(e.dst)
            if tail is None:
                continue
            cand = tail + (e.id,)  # e applied first, then the tail of the walk
            cur = best.get(e.src)
            if cur is None or (len(cand), cand) < (len(cur), cur):
                best[e.src] = cand
                changed = True
        if not changed:
            break
    return best


def double_pure_cycle_property(g: KGraph):
    """Witness for the double pure cycle property, or ``None``.

    Requires a vertex carrying two distinct primitive cycles of one color that
    every vertex can reach; this single-target form is what the isometry
    construction consumes.
    """
    cycles = pure_primitive_cycles(g)
    by_site = {}
    for c in cycles:
        by_site.setdefault((c.vertex, c.color), []).append(c)
    for (v, color), wits in sorted(by_site.items()):
        if len(wits) < 2:
            continue
        access = _shortest_access_words(g, v)
        if set(access) == set(g.vertices):
            return DoublePureCycle(vertex=v, color=color,
                                   cycles=(wits[0], wits[1]), access=access)
    return None


def _paths_leaving(g: KGraph, v: str, max_grading: int):
    """Nonempty canonical paths starting at v whose first-applied edge is not
    a loop at v."""
    out = []
    for t in range(1, max_grading + 1):
        for n in degree_vectors(g.k, t):
            for p in g.paths_of_degree(n, max_grading=max_grading):
                if p.src != v:
                    continue
                first = g.edge(p.word[-1])
                if not (first.src == v and first.dst == v):
                    out.append(p)
    return out


def classify_vertices(g: KGraph) -> dict:
    """Per-vertex flags: radiating, multiplicity-one, relational.

    A vertex radiates when every edge into it is a loop; it has multiplicity
    one when it carries at most one loop per color; it is relational when two
    different loops extend to the same path along words that immediately
    leave the vertex.  The relational search is exhaustive up to grading
    |vertices| + 2; with candidates present but no witness found the flag is
    reported as "unknown (budget)" rather than False.
    """
    budget = len(g.vertices) + 2
    out = {}
    for v in g.vertices:
        radiating = all(e.src == v for e in g.in_edges(v))
        loops = g.loops_at(v)
        mult_one = all(len(g.loops_at(v, c)) <= 1 for c in range(1, g.k + 1))
        if len(loops) < 2 or g.k == 1:
            # one color means free words, and cancellation kills any witness
            relational = False
        else:
            leaving = _paths_leaving(g, v, budget)
            if not leaving:
                relational = False
            else:
                relational = "unknown (budget)"
                seen = {}
                for lam in leaving:
                    for mu in loops:
                        key = g.compose(lam, g.edge_path(mu.id))
                        prev = seen.setdefault(key, (lam, mu.id))
                        if prev[1] != mu.id:
                            relational = True
                            break
                    if relational is True:
                        break
        out[v] = {"radiating": radiating, "multiplicityOne": mult_one,
                  "relational": relational}
    return out


def reflexivity_report(g: KGraph) -> dict:
    """Which structural hypotheses hold; verdicts only, no operator theory.

    ``reflexiveByThm54`` is conservative: a vertex whose relational flag is
    unknown blocks the verdict and is listed separately.
    """
    from .builders import transpose

    classes = classify_vertices(g)
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


def extremal_factorization_check(g: KGraph, paths) -> bool:
    """Check that a lexicographically maximal element of a fixed-grading set
    only factors trivially: if its r-th power splits into r members of the
    set, every factor is the element itself.  Brute force over r <= 3.
    """
    paths = list(paths)
    if not paths:
        return True
    deltas = {p.delta for p in paths}
    if len(deltas) != 1:
        raise DomainError("all paths must share one grading value")
    gamma = max(paths, key=lambda p: p.degree)
    for r in range(1, 4):
        try:
            target = g.power(gamma, r)
        except CompositionError:
            continue  # gamma^r does not exist; nothing to factor
        # factors in applied order: first factor starts at the target's source
        stack = [(target.src, ())]
        while stack:
            at, chosen = stack.pop()
            if len(chosen) == r:
                if at != target.dst:
                    continue
                acc = None
                for p in chosen:
                    acc = p if acc is None else g.compose(p, acc)
                if acc == target and any(p != gamma for p in chosen):
                    return False
                continue
            for p in paths:
                if p.src == at:
                    stack.append((p.dst, (*chosen, p)))
    return True


def radical_check(g: KGraph, fock_space, word_grading: int = 2,
                  ideal_grading: int | None = None) -> dict:
    """Exact nilpotency evidence for the ideal generated by no-cycle edges.

    Two families of checks on the truncation, both with required residual
    exactly zero: (A L_e)^2 = 0 for every no-cycle edge e and every generator
    word A up to ``word_grading``, and every |vertices|-fold product of ideal
    words (paths with a representative containing a no-cycle edge) vanishes.
    An empty no-cycle set passes vacuously.  More than ``MAX_PRODUCTS``
    products raise ``BudgetError`` before any is formed.
    """
    from . import fock as _fock

    nc = nc_edges(g)
    n = len(g.vertices)
    report = {
        "ncEdges": list(nc),
        "nilpotencyBound": n,
        "squareZeroChecked": 0,
        "squareZeroFailures": [],
        "nFoldChecked": 0,
        "nFoldFailures": [],
    }
    if not nc:
        report["ok"] = True
        return report

    gen_words = g.all_paths_up_to(word_grading)
    for eid in nc:
        L = _fock.left_op(fock_space, eid)
        for p in gen_words:
            M = _fock.left_op(fock_space, p) @ L
            if (M @ M).max_abs() != 0:
                report["squareZeroFailures"].append(
                    {"edge": eid, "word": list(p.word) or [p.src]}
                )
            report["squareZeroChecked"] += 1

    budget = ideal_grading if ideal_grading is not None else fock_space.trunc
    # a path has a representative through e exactly when it is mu e nu
    shorter = g.all_paths_up_to(budget - 1)
    ideal_paths = sorted(
        {g.normal_form(mu.word + (eid,) + nu.word)
         for eid in nc for nu in shorter if nu.dst == g.edge(eid).src
         for mu in shorter if mu.src == g.edge(eid).dst and mu.delta + nu.delta < budget},
        key=Path.sort_key,
    )
    report["idealWords"] = len(ideal_paths)
    if len(ideal_paths) ** n > MAX_PRODUCTS:
        raise BudgetError(
            f"{len(ideal_paths)}^{n} ideal-word products exceed the cap {MAX_PRODUCTS}"
        )
    ops = [(p, _fock.left_op(fock_space, p)) for p in ideal_paths]

    def descend(prefix_words, mat, depth):
        if depth == n:
            report["nFoldChecked"] += 1
            if mat.max_abs() != 0:
                report["nFoldFailures"].append([list(w.word) for w in prefix_words])
            return
        for p, op in ops:
            nxt = mat @ op
            if nxt.nnz == 0:
                report["nFoldChecked"] += len(ops) ** (n - depth - 1)
                continue
            descend([*prefix_words, p], nxt, depth + 1)

    for p, op in ops:
        if op.nnz == 0:
            report["nFoldChecked"] += len(ops) ** (n - 1)
            continue
        descend([p], op, 1)

    report["ok"] = not report["squareZeroFailures"] and not report["nFoldFailures"]
    return report


# -- aggregate report ---------------------------------------------------------


@dataclass
class StructureReport:
    nc_edges: tuple[str, ...]
    semisimple: bool
    radical_generators: tuple[str, ...]
    nilpotency_bound: int
    double_pure_cycle: DoublePureCycle | None
    vertex_classes: dict
    reflexivity: dict

    def to_dict(self):
        dpc = None
        if self.double_pure_cycle is not None:
            w = self.double_pure_cycle
            dpc = {
                "vertex": w.vertex,
                "color": w.color,
                "cycles": [list(c.word) for c in w.cycles],
                "access": {v: list(word) for v, word in sorted(w.access.items())},
            }
        return {
            "ncEdges": list(self.nc_edges),
            "semisimple": self.semisimple,
            "radicalGenerators": list(self.radical_generators),
            "nilpotencyBound": self.nilpotency_bound,
            "doublePureCycle": dpc,
            "vertexClasses": {v: self.vertex_classes[v] for v in sorted(self.vertex_classes)},
            "reflexivity": self.reflexivity,
        }


def structure_report(g: KGraph) -> StructureReport:
    nc = nc_edges(g)
    return StructureReport(
        nc_edges=nc,
        semisimple=not nc,
        radical_generators=nc,
        nilpotency_bound=len(g.vertices),
        double_pure_cycle=double_pure_cycle_property(g),
        vertex_classes=classify_vertices(g),
        reflexivity=reflexivity_report(g),
    )
