"""Finite k-graphs: colored directed multigraphs with commutation squares.

A path is a word of edges written in composition order (the leftmost edge is
applied last), graded by the vector of per-color edge counts.  Two words are
identified when one can be turned into the other by commutation squares, and
every equivalence class is represented by its unique color-sorted word (all
color-1 edges leftmost, then color-2, and so on).  ``validate`` decides,
completely and for every grading, that the squares actually produce a
category with unique factorization: square bijection plus critical-word
confluence.
"""

import itertools
from collections import Counter
from dataclasses import dataclass, field

from .errors import (
    BudgetError,
    CompositionError,
    DomainError,
    MalformedGraphError,
)

__all__ = [
    "Edge",
    "CommutationSquare",
    "Path",
    "KGraph",
    "ValidationReport",
    "validate",
    "degree_vectors",
    "zero_degree",
]


@dataclass(frozen=True)
class Edge:
    """A colored edge. ``src`` is where it starts, ``dst`` where it ends."""

    id: str
    color: int
    src: str
    dst: str


@dataclass(frozen=True)
class CommutationSquare:
    """An identification of two mixed-color length-2 words.

    ``lhs`` is the color-sorted side ``(a, b)`` with color(a) < color(b) and b
    applied first; ``rhs`` is the equivalent reversed-color side ``(b2, a2)``.
    """

    lhs: tuple[str, str]
    rhs: tuple[str, str]


@dataclass(frozen=True)
class Path:
    """An edge word in composition order together with its degree vector.

    Identity paths have an empty word and ``src == dst``.  Paths produced by
    the graph's ``normal_form``/``compose``/``paths_of_degree`` are in
    canonical color-sorted order and serve as class representatives.
    """

    src: str
    dst: str
    word: tuple[str, ...]
    degree: tuple[int, ...]

    @property
    def delta(self) -> int:
        """Total grading: the number of edges in the word."""
        return sum(self.degree)

    @property
    def is_identity(self) -> bool:
        return not self.word

    def __repr__(self):
        body = " ".join(self.word) if self.word else f"({self.src})"
        return f"<{body}: {self.src}->{self.dst} d={self.degree}>"


def zero_degree(k: int) -> tuple[int, ...]:
    return (0,) * k


def degree_vectors(k: int, total: int):
    """All degree vectors of grading ``total``, in lexicographic order."""
    if k == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in degree_vectors(k - 1, total - head):
            yield (head,) + rest


def _check_degree(k, n):
    n = tuple(int(x) for x in n)
    if len(n) != k or any(x < 0 for x in n):
        raise DomainError(f"degree vector {n} invalid for a {k}-graph")
    return n


class KGraph:
    """A k-colored finite multigraph plus commutation squares.

    The constructor performs shape checks only (declared endpoints, color
    ranges, square color pattern); whether the squares define a genuine
    k-graph is decided by :func:`validate`.  Instances are immutable and all
    operations are pure; enumeration results are memoized per instance.
    """

    def __init__(self, k, vertices, edges, squares=()):
        k = int(k)
        if k < 1:
            raise DomainError("k must be a positive integer")
        vertices = tuple(vertices)
        if not vertices:
            raise DomainError("vertex set must be nonempty")
        if len(set(vertices)) != len(vertices):
            raise DomainError("duplicate vertex ids")
        self.k = k
        self.vertices = tuple(sorted(vertices))
        vertex_set = set(vertices)
        edge_map = {}
        for e in edges:
            if e.id in edge_map:
                raise DomainError(f"duplicate edge id {e.id!r}")
            if not 1 <= e.color <= k:
                raise DomainError(f"edge {e.id!r} has color {e.color} outside 1..{k}")
            if e.src not in vertex_set or e.dst not in vertex_set:
                raise DomainError(f"edge {e.id!r} references undeclared vertices")
            edge_map[e.id] = e
        self._edge = edge_map
        squares = tuple(squares)
        for sq in squares:
            if len(sq.lhs) != 2 or len(sq.rhs) != 2:
                raise DomainError(f"square {sq} does not pair two 2-letter words")
            for eid in (*sq.lhs, *sq.rhs):
                if eid not in edge_map:
                    raise DomainError(f"square references unknown edge {eid!r}")
            a, b = (edge_map[x] for x in sq.lhs)
            b2, a2 = (edge_map[x] for x in sq.rhs)
            if not (a.color < b.color and a2.color == a.color and b2.color == b.color):
                raise DomainError(f"square {sq} does not follow the (low, high) = (high, low) color pattern")
        self.squares = squares
        # rewrite tables; duplicates are tolerated here and reported by validate()
        self._anti2norm = {}
        for sq in squares:
            self._anti2norm.setdefault(sq.rhs, sq.lhs)
        self._edges = tuple(sorted(edge_map.values(), key=lambda e: e.id))
        self._of_color = {c: tuple(e for e in self._edges if e.color == c)
                          for c in range(1, k + 1)}
        self._out = {v: [] for v in self.vertices}
        self._in = {v: [] for v in self.vertices}
        for e in self._edges:
            self._out[e.src].append(e)
            self._in[e.dst].append(e)
        self._paths_cache = {}

    # -- basic accessors ----------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    def edge(self, eid: str) -> Edge:
        try:
            return self._edge[eid]
        except KeyError:
            raise DomainError(f"unknown edge {eid!r}") from None

    def has_edge(self, eid: str) -> bool:
        return eid in self._edge

    def edges_of_color(self, color: int) -> tuple[Edge, ...]:
        return self._of_color.get(color, ())

    def out_edges(self, v: str, color: int | None = None):
        es = self._out[v]
        if color is None:
            return tuple(es)
        return tuple(e for e in es if e.color == color)

    def in_edges(self, v: str):
        return tuple(self._in[v])

    def loops_at(self, v: str, color: int | None = None):
        return tuple(e for e in self.out_edges(v, color) if e.dst == v)

    @property
    def is_single_vertex(self) -> bool:
        return len(self.vertices) == 1

    def __repr__(self):
        return (f"KGraph(k={self.k}, |V|={len(self.vertices)}, "
                f"|E|={len(self._edge)}, squares={len(self.squares)})")

    # -- paths --------------------------------------------------------------

    def identity(self, v: str) -> Path:
        if v not in self._out:
            raise DomainError(f"unknown vertex {v!r}")
        return Path(src=v, dst=v, word=(), degree=zero_degree(self.k))

    def edge_path(self, eid: str) -> Path:
        e = self.edge(eid)
        deg = tuple(1 if c == e.color else 0 for c in range(1, self.k + 1))
        return Path(src=e.src, dst=e.dst, word=(e.id,), degree=deg)

    def word_degree(self, word) -> tuple[int, ...]:
        deg = [0] * self.k
        for eid in word:
            deg[self.edge(eid).color - 1] += 1
        return tuple(deg)

    def path_from_word(self, word, base=None) -> Path:
        """Raw (unnormalized) path from an edge word; checks composability."""
        word = tuple(word)
        if not word:
            if base is None:
                raise CompositionError("empty word needs a base vertex")
            return self.identity(base)
        for left, right in zip(word, word[1:]):
            if self.edge(left).src != self.edge(right).dst:
                raise CompositionError(f"edges {right!r} -> {left!r} do not compose")
        return Path(
            src=self.edge(word[-1]).src,
            dst=self.edge(word[0]).dst,
            word=word,
            degree=self.word_degree(word),
        )

    def _bubble(self, word):
        """Sort a composable word into color-block order by square swaps."""
        w = list(word)
        colors = [self.edge(x).color for x in w]
        changed = True
        while changed:
            changed = False
            for t in range(len(w) - 1):
                if colors[t] > colors[t + 1]:
                    try:
                        a, b = self._anti2norm[(w[t], w[t + 1])]
                    except KeyError:
                        raise MalformedGraphError(
                            f"no square for adjacent pair ({w[t]}, {w[t+1]})"
                        ) from None
                    w[t], w[t + 1] = a, b
                    colors[t], colors[t + 1] = colors[t + 1], colors[t]
                    changed = True
        return tuple(w)

    def normal_form(self, word, base=None) -> Path:
        """Canonical color-sorted representative of a word's class."""
        if isinstance(word, Path):
            base = word.src if word.is_identity else None
            word = word.word
        raw = self.path_from_word(word, base=base)
        if not raw.word:
            return raw
        return Path(src=raw.src, dst=raw.dst, word=self._bubble(raw.word), degree=raw.degree)

    def compose(self, left: Path, right: Path) -> Path:
        """Normalized concatenation; ``right`` is applied first."""
        if left.src != right.dst:
            raise CompositionError(
                f"cannot compose: left starts at {left.src!r}, right ends at {right.dst!r}"
            )
        if right.is_identity:
            return left
        if left.is_identity:
            return right
        word = self._bubble(left.word + right.word)
        return Path(
            src=right.src,
            dst=left.dst,
            word=word,
            degree=tuple(a + b for a, b in zip(left.degree, right.degree)),
        )

    def power(self, p: Path, r: int) -> Path:
        out = self.identity(p.src)
        for _ in range(r):
            out = self.compose(p, out)
        return out

    def paths_of_degree(self, n, max_grading: int = 8) -> tuple[Path, ...]:
        """One canonical path per equivalence class of degree ``n``.

        Generation is graded: a sorted word of positive degree is one edge of
        its minimal color prepended to a shorter sorted word, so extending by
        exactly that color enumerates each class once with no rewriting.
        Edges in id order times shorter paths in word order come out sorted.
        """
        n = _check_degree(self.k, n)
        if sum(n) > max_grading:
            raise BudgetError(
                f"grading {sum(n)} exceeds the enumeration budget {max_grading}"
            )
        return self._paths(n)

    def _paths(self, n):
        cached = self._paths_cache.get(n)
        if cached is not None:
            return cached
        if sum(n) == 0:
            out = tuple(self.identity(v) for v in self.vertices)
        else:
            color = next(i + 1 for i, x in enumerate(n) if x > 0)
            sub = list(n)
            sub[color - 1] -= 1
            shorter = self._paths(tuple(sub))
            found = []
            for e in self.edges_of_color(color):
                for p in shorter:
                    if e.src == p.dst:
                        found.append(Path(src=p.src, dst=e.dst,
                                          word=(e.id,) + p.word, degree=n))
            out = tuple(found)
        self._paths_cache[n] = out
        return out

    def all_paths_up_to(self, max_grading: int):
        """All canonical paths with grading at most ``max_grading``, sorted by
        grading, then degree, then word, then source (reversed
        ``degree_vectors`` is ascending).
        A path of grading t + 1 strips to one of grading t, so the grades
        stop at the first empty one."""
        grades = ([p for n in reversed(tuple(degree_vectors(self.k, t)))
                   for p in self.paths_of_degree(n, max_grading=max_grading)]
                  for t in range(max_grading + 1))
        return [p for grade in itertools.takewhile(bool, grades) for p in grade]


# -- validation --------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of the square-bijection and critical-word confluence check."""

    ok: bool
    max_grading: int
    failures: list[dict] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "ok": self.ok,
            "maxGrading": self.max_grading,
            "failures": self.failures,
            "stats": self.stats,
        }


def _square_structure_failures(g: KGraph):
    failures = []
    by_pair = {}
    for sq in g.squares:
        i = g.edge(sq.lhs[0]).color
        j = g.edge(sq.lhs[1]).color
        by_pair.setdefault((i, j), []).append(sq)
    for i, j in itertools.combinations(range(1, g.k + 1), 2):
        sqs = by_pair.get((i, j), [])
        # per side: its composable pairs and how often the squares use each
        sides = [(name, {(x.id, y.id) for y in g.edges_of_color(first)
                         for x in g.out_edges(y.dst, then)},
                  Counter(getattr(sq, name) for sq in sqs))
                 for name, then, first in (("lhs", i, j), ("rhs", j, i))]
        for name, _, seen in sides:
            failures += ({"kind": f"square-duplicate-{name}", "colors": [i, j],
                          "pair": list(pair)} for pair, cnt in seen.items() if cnt > 1)
        for name, pairs, seen in sides:
            missing, extra = sorted(pairs - set(seen)), sorted(set(seen) - pairs)
            if missing or extra:
                failures.append({"kind": f"square-{name}-mismatch", "colors": [i, j],
                                 "missing": [list(p) for p in missing],
                                 "extra": [list(p) for p in extra]})
        # per vertex pair the two sides must pair off
        e_cells, f_cells = (Counter((g.edge(x).dst, g.edge(y).src) for x, y in pairs)
                            for _, pairs, _ in sides)
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


def _critical_words(g: KGraph):
    """Composable words x y z with color(x) > color(y) > color(z): the only
    words where two rewrites overlap."""
    for z in g.edges:
        for y in g.out_edges(z.dst):
            if y.color > z.color:
                for x in g.out_edges(y.dst):
                    if x.color > y.color:
                        yield (x.id, y.id, z.id)


def _rewrite(g: KGraph, word, positions):
    """Swap the pair at each position in turn through its square."""
    w = list(word)
    for t in positions:
        w[t:t + 2] = g._anti2norm[(w[t], w[t + 1])]
    return tuple(w)


def validate(g: KGraph, max_grading: int = 6) -> ValidationReport:
    """Decide that ``g`` is a k-graph: complete, for every grading.

    Two stages: (a) the squares form a bijection between the color-sorted
    and reversed-color composable pairs, with matching endpoints; (b) every
    critical word x y z (composable, color(x) > color(y) > color(z)) sorts to
    the same word whether its pairs are swapped at positions 0, 1, 0 or
    1, 0, 1.  Swapping a (high, low) pair terminates and swaps that do not
    overlap commute, so by Newman's lemma (a) and (b) give every word one
    normal form, which is the factorization property at every degree.  For
    k <= 2 there are no critical words.

    ``max_grading`` changes neither the verdict nor the work; it is kept
    only to be echoed as ``maxGrading`` in the report.  Structured failures
    are collected instead of raising.
    """
    failures = _square_structure_failures(g)
    stats = {
        "pathsChecked": sum(e.color != f.color for e in g.edges for f in g.out_edges(e.dst)),
        "wordsChecked": 0,
        "squares": len(g.squares),
    }
    if not failures:
        for word in _critical_words(g):
            stats["wordsChecked"] += 1
            forms = {_rewrite(g, word, (0, 1, 0)), _rewrite(g, word, (1, 0, 1))}
            if len(forms) != 1:
                failures.append({
                    "kind": "confluence",
                    "word": list(word),
                    "normalForms": sorted(list(f) for f in forms),
                })
    return ValidationReport(ok=not failures, max_grading=max_grading,
                            failures=failures, stats=stats)
