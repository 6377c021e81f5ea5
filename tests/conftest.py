"""Shared fixtures and independent brute-force oracles.

The oracles deliberately avoid the library's own shortcuts: class counting
closes raw words under single square applications in both directions, cycle
detection enumerates closed walks, primitive cycles are listed by an
unpruned search and sorted, access words come from Bellman-Ford relaxation
instead of a breadth-first search, the relational flag searches leaving
paths up to grading |vertices| + 2, the basis is counted per range vertex
instead of built, creation operators compose paths one basis vector at a
time over the ``KGraph`` enumeration instead of reading the basis arrays and
the edge-action tables, the exact checks multiply sparse matrices instead of
composing column -> row maps, Cesaro sums add one sparse matrix per term, the
single-vertex character checks have closed forms in the norm series, the
eigen relation without a space recurses over degree classes, validity is
searched grading by grading (factorization counts and every rewrite order of
every raw word) instead of by critical words, direct products name every edge
copy slot by slot, the square stage checks its two sides one after the
other, and Matrix Market files are written by scipy from a CSR matrix.
Tests compare library output against these.
The helpers before the oracles build operators, permutations and graphs that
only tests need, from the library's public API.
"""

import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

from kfock import builders, fock, gelfand, structure
from kfock.errors import (
    BudgetError,
    CompositionError,
    DomainError,
    MalformedGraphError,
    UnsupportedGraphError,
)
from kfock.fock import SparseOperator
from kfock.kgraph import (
    CommutationSquare,
    Edge,
    KGraph,
    ValidationReport,
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


# -- helpers -------------------------------------------------------------------


def identity_op(space):
    return SparseOperator(space, sp.identity(space.dimension, dtype=np.int64, format="csr"))


def max_abs(op):
    """Largest absolute entry of an operator's matrix, 0 when it has none."""
    return np.abs(op.matrix.data).max(initial=0)


def sort_key(path):
    """The basis order: grading, then degree, then word, then source."""
    return (path.delta, path.degree, path.word, path.src)


def generator_values(chi):
    """Edge id -> a character's coordinate on that edge, in id order."""
    return dict(sorted(gelfand._coord_map(chi.graph, chi.point).items()))


def on_operator(chi, op):
    """<A nu, nu> for a character's normalized vector nu; a boundary
    character has no vector and raises ``DomainError``."""
    if chi.vector is None:
        raise DomainError("boundary characters act on words only; no vector realization")
    return complex(np.vdot(chi.vector, op.matrix @ chi.vector))


def grading_projection(space, t):
    """E_t: the diagonal projection onto the grade-t slice of the basis."""
    diag = np.zeros(space.dimension, dtype=np.int64)
    diag[space.prefix(t - 1):space.prefix(t)] = 1
    return SparseOperator(space, sp.diags(diag, format="csr", dtype=np.int64))


def diagonal_part(op, m):
    """Phi_m(A) = sum_j E_j A E_{j+m}: keep entries moving grade j+m -> j."""
    coo = op.matrix.tocoo()
    keep = (op.space.deltas[coo.col] - op.space.deltas[coo.row]) == m
    return SparseOperator(op.space, sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=coo.shape))


def transpose_pairing(space, space_t):
    """perm[i] = index in ``space_t`` of the reversed path of basis[i].

    The permutation realizes the unitary identifying the two Fock spaces
    under edge reversal: perm[i] is ``space_t.index_of`` the normal form of
    basis[i]'s word reversed, so no right creation operator is involved.
    Raises ``DomainError`` when ``space_t``'s graph is not ``space``'s
    reversed or a reversed path lies past its truncation.
    """
    g, g_t = space.graph, space_t.graph
    if ((g_t.vertices, [(e.id, e.color, e.src, e.dst) for e in g_t.edges])
            != (g.vertices, [(e.id, e.color, e.dst, e.src) for e in g.edges])):
        raise DomainError("the second space is not over the transposed graph")
    return np.array([space_t.index_of(g_t.normal_form(p.word[::-1], base=p.src))
                     for p in space.basis], dtype=np.int64)


def relabel_edges(g: KGraph, rename) -> KGraph:
    """Copy of ``g`` with each edge id ``x`` renamed ``rename(x)``."""
    edges = [Edge(id=rename(e.id), color=e.color, src=e.src, dst=e.dst) for e in g.edges]
    squares = [CommutationSquare(lhs=tuple(map(rename, sq.lhs)), rhs=tuple(map(rename, sq.rhs)))
               for sq in g.squares]
    return KGraph(k=g.k, vertices=g.vertices, edges=edges, squares=squares)


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
    norm2anti = {}  # sorted -> reversed side; the first square for a pair wins
    for sq in g.squares:
        norm2anti.setdefault(sq.lhs, sq.rhs)
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
                for table in (g._anti2norm, norm2anti):
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


def oracle_classify_vertices(g: KGraph) -> dict:
    """``structure.classify_vertices`` with the relational search exhaustive
    up to grading |vertices| + 2; with candidates present but no witness
    found the flag is reported as "unknown (budget)" rather than False."""
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


def oracle_pure_primitive_cycles(g: KGraph):
    """``structure.pure_primitive_cycles`` by a depth-first search over every
    walk of up to as many steps as the colour has edges, closing only at the
    base, then sorted; more than ``structure.MAX_CYCLES`` raise
    ``BudgetError``."""
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
                        found.append(structure.CycleWitness(vertex=base, color=color, word=word))
                        if len(found) > structure.MAX_CYCLES:
                            raise BudgetError("primitive cycle enumeration exploded")
                    else:
                        stack.append((e.dst, [*applied, e.id]))
    return tuple(sorted(found, key=lambda c: (c.vertex, c.color, len(c.word), c.word)))


def oracle_shortest_access_words(g: KGraph, target: str) -> dict:
    """``structure._shortest_access_words`` by Bellman-Ford: up to |vertices|
    relaxation passes over every edge, in (length, word) order."""
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


def oracle_double_pure_cycle(g: KGraph):
    """``structure.double_pure_cycle_property`` from the whole sorted listing
    of ``oracle_pure_primitive_cycles``, grouped by (vertex, color)."""
    by_site = {}
    for c in oracle_pure_primitive_cycles(g):
        by_site.setdefault((c.vertex, c.color), []).append(c)
    for (v, color), wits in sorted(by_site.items()):
        if len(wits) < 2:
            continue
        access = oracle_shortest_access_words(g, v)
        if set(access) == set(g.vertices):
            return structure.DoublePureCycle(vertex=v, color=color,
                                             cycles=(wits[0], wits[1]), access=access)
    return None


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


def oracle_direct_product(graphs) -> KGraph:
    """``builders.direct_product`` written slot by slot: each edge copy's
    source and range are built by inserting the moved coordinate into the
    other coordinates, and each square's four ids are named again from an
    assignment of the slots outside the two colours."""
    graphs = list(graphs)
    k = len(graphs)
    vertex_tuples = list(itertools.product(*(g.vertices for g in graphs)))
    vname = {vt: ",".join(vt) for vt in vertex_tuples}

    def edge_id(eid, slot, context):
        return f"{eid}.{slot}({','.join(context)})"

    edges = []
    for slot in range(k):
        others = [graphs[t].vertices for t in range(k) if t != slot]
        for e in graphs[slot].edges:
            for ctx in itertools.product(*others):
                src = list(ctx)
                src.insert(slot, e.src)
                dst = list(ctx)
                dst.insert(slot, e.dst)
                edges.append(Edge(id=edge_id(e.id, slot + 1, ctx), color=slot + 1,
                                  src=vname[tuple(src)], dst=vname[tuple(dst)]))

    squares = []
    for i, j in itertools.combinations(range(k), 2):
        other_slots = [t for t in range(k) if t not in (i, j)]
        others = [graphs[t].vertices for t in other_slots]
        for e in graphs[i].edges:
            for f in graphs[j].edges:
                for ctx in itertools.product(*others):
                    assign = dict(zip(other_slots, ctx))

                    def copy_id(eid, slot, val_slot, val):
                        coords = tuple(val if t == val_slot else assign[t]
                                       for t in range(k) if t != slot)
                        return edge_id(eid, slot + 1, coords)

                    a = copy_id(e.id, i, j, f.dst)
                    b = copy_id(f.id, j, i, e.src)
                    b2 = copy_id(f.id, j, i, e.dst)
                    a2 = copy_id(e.id, i, j, f.src)
                    squares.append(CommutationSquare(lhs=(a, b), rhs=(b2, a2)))

    return KGraph(k=k, vertices=[vname[vt] for vt in vertex_tuples],
                  edges=edges, squares=squares)


def oracle_square_structure_failures(g: KGraph):
    """Stage (a) of ``validate`` written out once per side: duplicates,
    mismatches against the composable pairs and cell counts for the
    color-sorted side, then the same again for the reversed side."""
    failures = []
    by_pair = {}
    for sq in g.squares:
        i = g.edge(sq.lhs[0]).color
        j = g.edge(sq.lhs[1]).color
        by_pair.setdefault((i, j), []).append(sq)
    for i, j in itertools.combinations(range(1, g.k + 1), 2):
        sqs = by_pair.get((i, j), [])
        # composable pairs, walking on from the end of the edge applied first
        lhs_expected = {(a.id, b.id) for b in g.edges_of_color(j)
                        for a in g.out_edges(b.dst, i)}
        rhs_expected = {(b.id, a.id) for a in g.edges_of_color(i)
                        for b in g.out_edges(a.dst, j)}
        lhs_seen = Counter(sq.lhs for sq in sqs)
        rhs_seen = Counter(sq.rhs for sq in sqs)
        for pair, cnt in lhs_seen.items():
            if cnt > 1:
                failures.append({"kind": "square-duplicate-lhs", "colors": [i, j],
                                 "pair": list(pair)})
        for pair, cnt in rhs_seen.items():
            if cnt > 1:
                failures.append({"kind": "square-duplicate-rhs", "colors": [i, j],
                                 "pair": list(pair)})
        missing = sorted(lhs_expected - set(lhs_seen))
        extra = sorted(set(lhs_seen) - lhs_expected)
        if missing or extra:
            failures.append({"kind": "square-lhs-mismatch", "colors": [i, j],
                             "missing": [list(p) for p in missing],
                             "extra": [list(p) for p in extra]})
        missing = sorted(rhs_expected - set(rhs_seen))
        extra = sorted(set(rhs_seen) - rhs_expected)
        if missing or extra:
            failures.append({"kind": "square-rhs-mismatch", "colors": [i, j],
                             "missing": [list(p) for p in missing],
                             "extra": [list(p) for p in extra]})
        # per vertex pair the two sides must pair off
        e_cells = Counter()
        for a, b in lhs_expected:
            e_cells[(g.edge(a).dst, g.edge(b).src)] += 1
        f_cells = Counter()
        for b, a in rhs_expected:
            f_cells[(g.edge(b).dst, g.edge(a).src)] += 1
        for cell in sorted(set(e_cells) | set(f_cells)):
            if e_cells[cell] != f_cells[cell]:
                failures.append({"kind": "pair-cardinality", "colors": [i, j],
                                 "cell": list(cell),
                                 "counts": [e_cells[cell], f_cells[cell]]})
        for sq in sqs:
            a, b = (g.edge(x) for x in sq.lhs)
            b2, a2 = (g.edge(x) for x in sq.rhs)
            bad = (a.src != b.dst or b2.src != a2.dst
                   or a.dst != b2.dst or b.src != a2.src)
            if bad:
                failures.append({"kind": "square-endpoints",
                                 "lhs": list(sq.lhs), "rhs": list(sq.rhs)})
    return failures


def oracle_validate(g: KGraph, max_grading: int) -> ValidationReport:
    """Grading-bounded search for the factorization property.

    After the square-bijection stage of ``oracle_square_structure_failures``,
    every canonical path of grading <= max_grading must have exactly one
    factorization per degree split, counted over all pairs of shorter paths,
    and every composable raw word of length <= max_grading must reach one
    color-sorted word whatever rewrite positions are chosen.
    """
    failures = oracle_square_structure_failures(g)
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


def oracle_basis_size(graph: KGraph, trunc: int) -> int:
    """Basis paths of grading <= trunc, counted without building one by the
    recursion of ``KGraph._paths``: per range vertex, cnt_n = A_c cnt_{n - e_c}
    with c the smallest colour of n.  Stops after the grade that passes
    ``fock.MAX_DIMENSION``."""
    code = {v: i for i, v in enumerate(graph.vertices)}
    grade = {(0,) * graph.k: [1] * len(code)}
    total = len(code)
    for t in range(1, trunc + 1):
        if total > fock.MAX_DIMENSION or not any(map(any, grade.values())):
            break
        prev, grade = grade, {}
        for n in degree_vectors(graph.k, t):
            c = next(i for i, x in enumerate(n) if x)
            sub, cnt = prev[n[:c] + (n[c] - 1,) + n[c + 1:]], [0] * len(code)
            for e in graph.edges_of_color(c + 1):
                cnt[code[e.dst]] += sub[code[e.src]]
            grade[n] = cnt
            total += sum(cnt)
    return total


def _composition_op(space, lam, compose):
    """The basis is the ``KGraph`` enumeration, indexed by a dict, so the
    oracle reads neither the space's arrays nor its tables.  A product with
    ``lam`` past the truncation is dropped before it is composed."""
    basis = space.graph.all_paths_up_to(space.trunc)
    index = {p: i for i, p in enumerate(basis)}
    rows, cols = [], []
    for col, mu in enumerate(basis):
        if mu.delta > space.trunc - lam.delta:
            continue
        target = compose(mu)
        if target is not None:
            rows.append(index[target])
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
        space, lam, lambda mu: g.compose(lam, mu) if lam.src == mu.dst else None)


def oracle_right_op(space, what):
    """xi_mu -> xi_{mu lambda} by ``KGraph.compose`` on every basis path."""
    lam = space.as_path(what)
    g = space.graph
    return _composition_op(
        space, lam, lambda mu: g.compose(mu, lam) if mu.src == lam.dst else None)


def oracle_range_conflicts(space):
    """Range-membership scan: per degree, every row of every path's oracle
    operator, remembering the first path that held it."""
    basis = space.graph.all_paths_up_to(space.trunc)
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
                        conflicts.append((prev, p, basis[int(r)]))
    return conflicts


def oracle_commutant_residual(space):
    """Largest interior-block entry of L_a R_b - R_b L_a over all generator
    pairs, by sparse matrix products."""
    worst = 0
    gens = space.generator_paths()
    lefts = [(p, fock.left_op(space, p)) for p in gens]
    rights = [(p, fock.right_op(space, p)) for p in gens]
    for lp, lo in lefts:
        for rp, ro in rights:
            diff = lo @ ro - ro @ lo
            worst = max(worst, diff.max_abs_interior(lp.delta + rp.delta))
    return worst


def oracle_partial_isometry_residual(space):
    """Max interior residual of L_e* L_e - L_{s(e)}, by sparse products."""
    g = space.graph
    proj = {v: fock.left_op(space, v) for v in g.vertices}
    worst = 0
    for e in g.edges:
        le = fock.left_op(space, e.id)
        diff = le.adjoint() @ le - proj[e.src]
        worst = max(worst, diff.max_abs_interior(1))
    return worst


def oracle_orthogonal_isometries(g, space, witness=None):
    """``fock.orthogonal_isometries`` by sparse sums and products: U and V
    add their terms' matrices, the residuals are the largest entries of U*V
    and of U*U - 1 on the interior block."""
    if witness is None:
        witness = structure.double_pure_cycle_property(g)
    lam1 = g.normal_form(witness.cycles[0].word)
    lam2 = g.normal_form(witness.cycles[1].word)

    def build(offset):
        terms = []
        for idx, w in enumerate(g.vertices, start=1):
            access = g.path_from_word(witness.access[w], base=w)
            terms.append(g.compose(g.power(lam1, 2 * idx - 2 + offset), g.compose(lam2, access)))
        acc = None
        for term in terms:
            piece = fock.left_op(space, term)
            acc = piece if acc is None else acc + piece
        return acc, terms

    U, terms_u = build(1)
    V, terms_v = build(2)
    margin_u = max(t.delta for t in terms_u)
    orth = max_abs(U.adjoint() @ V)
    isom = (U.adjoint() @ U - identity_op(space)).max_abs_interior(margin_u)
    block_dim = space.prefix(space.trunc - margin_u)
    report = {
        "vertex": witness.vertex,
        "color": witness.color,
        "cycles": [list(lam1.word), list(lam2.word)],
        "termsU": [list(t.word) for t in terms_u],
        "termsV": [list(t.word) for t in terms_v],
        "orthogonalityResidual": int(orth),
        "isometryResidual": int(isom),
        "isometryMargin": margin_u,
        "isometryBlockDim": block_dim,
        "ok": orth == 0 and isom == 0 and block_dim > 0,
    }
    return U, V, report


def oracle_cesaro(op, n):
    """``fock.cesaro`` as a running sum of one sparse matrix per Fourier term."""
    space = op.space
    acc = sp.csr_matrix((space.dimension, space.dimension), dtype=np.complex128)
    for path, a in fock.fourier_series(op).items():
        d = path.delta
        if d >= n or a == 0:
            continue
        acc = acc + ((1.0 - d / n) * complex(a)) * fock.left_op(space, path).matrix
    return SparseOperator(space, acc)


def oracle_write_matrix_market(op, path):
    """``fock.write_matrix_market`` through a CSR matrix and ``scipy.io.mmwrite``.
    Below dimension 100 mmwrite searches for symmetry, so a diagonal operator
    comes out ``complex symmetric`` (lower triangle only) and an empty one
    ``real symmetric``; every other file is ``complex general``."""
    import scipy.io

    scipy.io.mmwrite(str(path), op.matrix.astype(np.complex128))


MAX_PRODUCTS = 200_000  # n-fold ideal-word products oracle_radical_check may form


def oracle_radical_check(g, space, word_grading=2, ideal_grading=None):
    """``structure.radical_check`` by sparse products: (A L_e)^2 as matrices,
    and a recursive search over the n-fold products of ideal words that counts
    the products under a vanishing prefix as checked without forming them.
    More than ``MAX_PRODUCTS`` products raise ``BudgetError``."""
    nc = structure.nc_edges(g)
    n = len(g.vertices)
    report = {"ncEdges": list(nc), "nilpotencyBound": n, "squareZeroChecked": 0,
              "squareZeroFailures": [], "nFoldChecked": 0, "nFoldFailures": []}
    if not nc:
        report["ok"] = True
        return report
    gen_words = g.all_paths_up_to(word_grading)
    for eid in nc:
        L = fock.left_op(space, eid)
        for p in gen_words:
            M = fock.left_op(space, p) @ L
            if max_abs(M @ M) != 0:
                report["squareZeroFailures"].append({"edge": eid, "word": list(p.word) or [p.src]})
            report["squareZeroChecked"] += 1

    budget = ideal_grading if ideal_grading is not None else space.trunc
    shorter = g.all_paths_up_to(budget - 1)
    ideal_paths = sorted(
        {g.normal_form(mu.word + (eid,) + nu.word)
         for eid in nc for nu in shorter if nu.dst == g.edge(eid).src
         for mu in shorter if mu.src == g.edge(eid).dst and mu.delta + nu.delta < budget},
        key=sort_key,
    )
    report["idealWords"] = len(ideal_paths)
    if len(ideal_paths) ** n > MAX_PRODUCTS:
        raise BudgetError("too many ideal-word products")
    ops = [(p, fock.left_op(space, p)) for p in ideal_paths]

    def descend(prefix_words, mat, depth):
        if depth == n:
            report["nFoldChecked"] += 1
            if max_abs(mat) != 0:
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


_PATH_MATRICES = weakref.WeakKeyDictionary()  # space -> {path: (L_p as CSC, defined columns)}


def _path_matrix(space, p):
    """L_p's CSC matrix and the number of columns it is defined on, a
    prefix at one vertex; built once per space and path."""
    built = _PATH_MATRICES.setdefault(space, {})
    if p not in built:
        m = fock.left_op(space, p).matrix.tocsc()
        defined = np.flatnonzero(np.diff(m.indptr))
        assert np.array_equal(defined, np.arange(len(defined)))
        built[p] = m, len(defined)
    return built[p]


def oracle_multiplicativity_check(space, alpha, grading_budget=3, tol=1e-9):
    """``gelfand.multiplicativity_check`` with L^T nu as sparse matrix-vector
    products, and each path's map read off its matrix instead of the ``left``
    table.

    The sums are grouped as the library groups them, on purpose: the residual
    is rounding noise, so any other order would move its digits and the
    reports could not be compared exactly.  For every path p of grading <=
    2 budget, per grading a, the rows conj(L_p^T nu) on their common prefix
    form one matrix Y, and rho is Y times nu's prefix.  <L_i L_j nu, nu> is
    rho at the index that L_i's matrix gives column j (0 where it has none),
    as L_i L_j = L_{ij} at one vertex.  ``test_character_checks_match_closed_form``
    bounds the digits independently of any grouping.  The path matrices
    depend on the space alone, so each is built once per space."""
    g = space.graph
    point = gelfand.as_point(g, alpha)
    vec = gelfand.omega_vector(space, gelfand.conjugate_point(point))
    vec = vec / np.linalg.norm(vec)
    paths = [space.basis[i] for i in np.flatnonzero(space.deltas <= 2 * grading_budget)]
    words = [p for p in paths if p.delta <= grading_budget]
    maps, rows = [], []
    for p in paths:
        m, defined = _path_matrix(space, p)
        maps.append(m.indices)  # L_p xi_k = xi_{maps[k]}
        rows.append(np.conj(m.T @ vec)[:defined])  # conj(L_p^T nu) on the prefix
    grading = np.array([p.delta for p in paths])
    rho = np.zeros(len(paths) + 1, dtype=complex)  # the last entry stays 0
    for a in np.unique(grading):
        at = np.flatnonzero(grading == a)
        Y = np.array([rows[i] for i in at])
        rho[at] = Y @ vec[:Y.shape[1]]
    at = np.full((len(words), len(words)), -1)  # at[i, j]: the row of L_i's column j
    for i in range(len(words)):
        col = maps[i][:len(words)]
        at[i, :len(col)] = col
    pair = rho[at]  # pair[i, j] = <L_i L_j nu, nu>
    rho = rho[:len(words)]
    resid = np.abs(pair - np.outer(rho, rho))
    worst = float(resid.max())
    wi, wj = np.unravel_index(int(resid.argmax()), resid.shape)
    coords = gelfand._coord_map(g, point)
    phi_err = 0.0
    for i, p in enumerate(words):
        if p.delta == 1:
            phi_err = max(phi_err, abs(rho[i] - coords[p.word[0]]))
    return {
        "trunc": space.trunc,
        "gradingBudget": grading_budget,
        "wordCount": len(words),
        "maxResidual": worst,
        "worstPair": [list(words[wi].word) or [words[wi].src],
                      list(words[wj].word) or [words[wj].src]],
        "phiRecoveryError": float(phi_err),
        "varietyResidual": gelfand.variety_residual(g, point),
        "onVariety": gelfand.in_variety(g, point, tol),
        "ballNorms": list(gelfand.ball_norms(g, point)),
        "multiplicativeWithin": worst <= tol,
    }


def oracle_closed_form_character(g, alpha, trunc, grading_budget=3):
    """Closed forms for the vector functional of nu = omega(conj alpha) / |omega|
    on a single-vertex graph, read neither from the basis arrays and tables nor
    from ``omega_vector``.  Every word composes at one vertex, so the paths of
    degree m are the colour-sorted words of m_c letters of each colour c and
    sum |mu(alpha)|^2 over them is prod_c |alpha_c|^(2 m_c).  With P(t) the
    sum of that over |m| <= t (0 for t < 0), |omega|^2 = P(N) and <L_w nu, nu> = [w](alpha) P(N - |w|) / P(N), with
    [w](alpha) the letterwise value of the normal form of w; for w = lambda mu
    this is lambda(alpha) mu(alpha) on the variety.  Returns P(N), the bias
    |<L_l L_m nu, nu> - <L_l nu, nu> <L_m nu, nu>| of every pair of the words of
    grading <= budget (keyed as in the report's ``worstPair``) and the
    generator recovery error max_e |alpha_e| (1 - P(N - 1) / P(N))."""
    point = gelfand.as_point(g, alpha)
    coord = {e.id: complex(point[c - 1][i])
             for c in range(1, g.k + 1) for i, e in enumerate(g.edges_of_color(c))}
    norms_sq = [float(np.vdot(p, p).real) for p in point]
    sums = list(itertools.accumulate(
        math.fsum(math.prod(r ** x for r, x in zip(norms_sq, m)) for m in degree_vectors(g.k, t))
        for t in range(trunc + 1)))

    def P(t):
        return sums[t] if t >= 0 else 0.0

    def value(path):
        return math.prod((coord[x] for x in path.word), start=complex(1.0))

    def rho(path):
        return value(path) * P(trunc - path.delta) / P(trunc)

    words = g.all_paths_up_to(min(grading_budget, trunc))
    bias = {(tuple(a.word) or (a.src,), tuple(b.word) or (b.src,)):
            abs(rho(g.compose(a, b)) - rho(a) * rho(b)) for a in words for b in words}
    phi = max((abs(coord[p.word[0]]) * (1.0 - P(trunc - 1) / P(trunc))
               for p in words if p.delta == 1), default=0.0)
    return {"normSq": P(trunc), "bias": bias, "phiRecoveryError": phi}


def oracle_degree_class_eigen_residual(g, edge_id, alpha, trunc):
    """``gelfand.eigen_residual`` without a space, by a recursion over degree
    classes instead of a Fock space: constant per-colour coordinates c give
    every path of degree m the component prod c_i^{m_i}, so the residual is
    the largest |omega(m + e_c) - c_c omega(m)| over |m| <= trunc - 1, with c
    the colour of the edge.  Raises what the library raises before its
    computation: ``DomainError`` outside the open ball, off the variety or for
    an unknown edge, ``UnsupportedGraphError`` for coordinates that are not
    constant on a colour."""
    point = gelfand.as_point(g, alpha)
    if any(r >= 1.0 for r in gelfand.ball_norms(g, point)):
        raise DomainError("the vector series diverges")
    if gelfand.variety_residual(g, point) > gelfand.VARIETY_TOL:
        raise DomainError("point is off the variety")
    e = g.edge(edge_id)
    if any(len(part) and not np.all(part == part[0]) for part in point):
        raise UnsupportedGraphError("non-constant coordinates need an explicit fock space")
    consts = [complex(part[0]) if len(part) else complex(0.0) for part in point]
    val = {(0,) * g.k: complex(1.0)}
    for t in range(1, trunc + 1):
        for m in degree_vectors(g.k, t):
            c = next(i for i, x in enumerate(m) if x > 0)
            sub = list(m)
            sub[c] -= 1
            val[m] = consts[c] * val[tuple(sub)]
    coord = consts[e.color - 1]
    worst = 0.0
    for m, v in val.items():
        if sum(m) > trunc - 1:
            continue
        up = list(m)
        up[e.color - 1] += 1
        worst = max(worst, abs(val[tuple(up)] - coord * v))
    return worst


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


def random_square_maps(count: int, seed: int):
    """Deterministic stream of single-vertex graphs, 2-coloured with one to
    three loops per colour or 3-coloured with one or two, whose squares send
    each (high, low) pair to a random (low, high) pair: every pair has a
    square, but for some two colours the squares are not a bijection, so the
    graph is no k-graph."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        k = int(rng.integers(2, 4))
        most = 3 if k == 2 else 2
        edges = [Edge(f"e{c}_{t}", c, "v", "v")
                 for c in range(1, k + 1) for t in range(int(rng.integers(1, most + 1)))]
        squares, bijective = [], True
        for i, j in itertools.combinations(range(1, k + 1), 2):
            low = [e.id for e in edges if e.color == i]
            high = [e.id for e in edges if e.color == j]
            cells = list(itertools.product(low, high))
            images = [cells[int(t)] for t in rng.integers(len(cells), size=len(cells))]
            bijective &= len(set(images)) == len(cells)
            squares += [CommutationSquare(lhs=img, rhs=(y, x))
                        for (x, y), img in zip(cells, images)]
        if not bijective:
            out.append(KGraph(k, ["v"], edges, squares))
    return out
