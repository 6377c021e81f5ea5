"""Truncated Fock space over a k-graph and exact sparse operator checks.

The basis is every canonical (colour-sorted) path of grading at most N, held
as integer arrays over basis indices: ``parent(i)`` (the basis path with the
leftmost letter stripped), ``lead(i)`` (that letter, which has the smallest
colour of the word), the source and range vertex codes and the grading.  They
are built grade by grade with the recursion of ``KGraph._paths``: a path
extends by its range vertex's out-edges of colour <= its smallest colour, a
prefix of them in (colour, id) order.  A grade's size, a sum of prefixes, is
checked before it is allocated; one sort of its (path group, edge) pairs puts
it in degree order, with each degree that holds a path a contiguous run.  The
build stops at the first empty grade, so its work is bounded by the basis,
not by N.  ``basis[i]`` rebuilds a ``Path`` from the parent chain on demand.
The space holds one representation that every operator is read from: the
integer edge-action table

    left[e, i] = index of e xi_i

with -1 where the edges do not compose or the image lies beyond N.  It is
built once, lazily, grade by grade from the links, after a check that it has
at most ``MAX_TABLE_ENTRIES`` entries:

* the colour-sorted entries, where colour(e) <= colour(lead(p)), are
  ``left[lead(i), parent(i)] = i``;
* otherwise the square (e, lead(i)) -> (a, b) rewrites the front pair, and
  ``left[e, i] = left[a, left[b, parent(i)]]``, a colour-sorted entry.

The edges swapped in front of a column are the out-edges of r(f) of colour >
colour(f), f its lead letter, so the squares are looked up once per lead and
each grade's swap pairs are its columns expanded by their leads' runs.

The factorization property makes these the normal forms of the composed
words.  A creation operator of a path is the chain of gathers along its word:
a 0/1 operator with at most one entry per column that holds its column -> row
map and builds its CSR matrix only when arithmetic reads it.  A left one
gathers through rows of ``left``; a right one through each letter e's map
i -> index of xi_i e, built per generator from ``left`` when it is asked for.
The exact checks compose maps by gathers instead of multiplying matrices; they
read the rows of ``left`` and each right generator's map (``image``), one at a
time.  Gradings only grow along a word, so images beyond the truncation never
come back and identities between words of the generators hold exactly (integer
arithmetic) on the interior block {delta <= N - g}, where g bounds the grading
of the words involved: the basis prefix of ``prefix(N - g)`` paths, read as a
slice.  Floating point enters only through scalar coefficients
(Cesaro weights, user combinations).  Wherever the edge maps are injective,
distinct paths of one degree have orthogonal ranges exactly when distinct edges
of one colour do, so range orthogonality is one bincount per colour over the
rows of ``left``.
The isometries of ``orthogonal_isometries`` sum creation operators on
disjoint columns (each term starts at its own vertex), so they are maps too;
a Cesaro sum gathers its terms' entries, kept apart by unique factorization.
scipy is imported only where a CSR matrix is built (``SparseOperator.matrix``
and the arithmetic that reads it, ``cesaro``): the exact checks read column ->
row maps alone, and ``write_matrix_market`` writes a creation operator's
(row, column) pairs straight from its map, so a process that builds no matrix
never pays for loading scipy.
"""

import functools
from collections.abc import Sequence

import numpy as np

from .errors import BudgetError, DomainError, MalformedGraphError, UnsupportedGraphError
from .kgraph import KGraph, Path

__all__ = [
    "TruncatedFock",
    "SparseOperator",
    "left_op",
    "right_op",
    "word_op",
    "fourier_coefficient",
    "fourier_series",
    "cesaro",
    "image",
    "commutant_residual",
    "partial_isometry_residual",
    "same_degree_range_conflicts",
    "orthogonal_isometries",
    "verify_cycle_blocks",
    "write_matrix_market",
    "write_basis_manifest",
]

MAX_DIMENSION = 1_000_000  # largest basis TruncatedFock builds
MAX_TABLE_ENTRIES = 2 ** 25  # largest edge-action table, |E| x (dimension + 1): 256 MiB of int64


def _expand(lo, hi):
    """The ranges [lo[j], hi[j]) end to end, as (j, index) pairs."""
    counts = hi - lo
    j = np.repeat(np.arange(len(counts)), counts)
    return j, np.arange(len(j)) + np.repeat(lo - np.cumsum(counts) + counts, counts)


class _Basis(Sequence):
    """Read-only view of a space's basis paths.  Nothing is stored: item i is
    rebuilt from the parent chain of i on each access."""

    def __init__(self, space):
        self._space = space

    def __len__(self):
        return self._space.dimension

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        g = self._space.graph  # the arrays raise IndexError past either end
        parent, lead = self._space.parent_links()
        src, dst = self._space.ends
        word = []
        j = i
        while parent[j] >= 0:
            word.append(g.edges[lead[j]].id)
            j = parent[j]
        if not word:
            return g.identity(g.vertices[src[i]])
        return Path(src=g.vertices[src[i]], dst=g.vertices[dst[i]],
                    word=tuple(word), degree=g.word_degree(word))


class TruncatedFock:
    """Ordered orthonormal basis {xi_lambda : delta(lambda) <= N}.

    The basis is sorted by grading, then degree (lexicographic), then word,
    so matrices are reproducible across runs.  It is held as integer arrays
    over basis indices: ``parent_links()``, ``ends`` and ``deltas``, and in
    ``blocks`` the (start, stop) run of each degree that holds a path, in
    basis order.  ``prefix(t)`` counts the paths of grading <= t, the first
    ones of the basis.  ``basis`` rebuilds a ``Path`` on each access.
    Construction assumes the graph has been validated; a basis of more than
    ``MAX_DIMENSION`` paths raises ``BudgetError`` before the grade that
    passes the cap is allocated.  ``left`` is the edge-action table of the
    module docstring, rows in ``edge_codes`` order; each R_b is built from it.
    """

    def __init__(self, graph: KGraph, trunc: int):
        if trunc < 0:
            raise DomainError("truncation grading must be >= 0")
        self.graph = graph
        self.trunc = int(trunc)
        k, nv = graph.k, len(graph.vertices)
        color, esrc, edst = self._edge_arrays
        # the edge codes by (source, colour, id): the out-edges of vertex v of
        # colour <= c are out[bound[v k]:bound[v k + c]], for c = 0..k
        out, bound = self._runs = (np.lexsort((color, esrc)), np.append(
            0, np.bincount(esrc * k + color - 1, minlength=nv * k).cumsum()))
        src = dst = np.arange(nv)  # of the last grade, whose paths' degrees have
        rank = np.zeros(nv, dtype=np.int64)  # these ranks, vectors and smallest colours
        degree, least = np.zeros((1, k), dtype=np.int64), np.array([k])  # (k for 0)
        grades = [(np.full(nv, -1), np.full(nv, -1), src, dst)]  # parent, lead, src, dst
        degrees, firsts = [degree], [np.zeros(1, dtype=np.int64)]  # each block's degree and start
        self._grades = [(0, nv)]  # (start, stop) of each grade built
        for _ in range(self.trunc):
            start, total = self._grades[-1]
            # group the last grade by (degree, range vertex); a group extends by the
            # edges of colour <= its degree's smallest colour out of its vertex
            by = np.argsort(rank * nv + dst, kind="stable")
            cut = np.flatnonzero(np.diff(rank[by] * nv + dst[by], prepend=-1))
            r, v = rank[by[cut]], dst[by[cut]]
            g, at = _expand(bound[v * k], bound[v * k + least[r]])
            e = out[at]
            # ascending degrees put larger smallest colours first, then follow
            # the shorter path's degree; within a degree, edge then parent
            key = (k - color[e]) * len(degree) + r[g]
            order = np.lexsort((e, key))
            g, e, key = g[order], e[order], key[order]
            count = np.diff(cut, append=len(by))[g]
            size = int(count.sum())
            if not size:
                break
            if total + size > MAX_DIMENSION:
                raise BudgetError(f"a basis of truncation {trunc} has over {MAX_DIMENSION} paths")
            head = np.flatnonzero(np.diff(key, prepend=-1))
            least = color[e[head]]
            degree = degree[r[g[head]]] + np.eye(k, dtype=np.int64)[least - 1]
            first = (total + np.cumsum(count) - count)[head]
            degrees.append(degree)
            firsts.append(first)
            j, at = _expand(cut[g], cut[g] + count)
            p, e = by[at], e[j]
            rank = np.repeat(np.arange(len(head)), np.diff(first, append=total + size))
            src, dst = src[p], edst[e]
            grades.append((start + p, e, src, dst))
            self._grades.append((total, total + size))
        parent, lead, src, dst = (np.concatenate(a) for a in zip(*grades))
        self._links = (parent, lead)
        self.ends = (src, dst)
        self.deltas = np.repeat(np.arange(len(self._grades)),
                                [stop - start for start, stop in self._grades])
        # degree -> (start, stop), made once the build can no longer be refused
        first = np.concatenate(firsts).tolist()
        self.blocks = dict(zip(map(tuple, np.concatenate(degrees).tolist()),
                               zip(first, first[1:] + [len(parent)])))

    @property
    def basis(self) -> _Basis:
        return _Basis(self)  # a new view each time: a stored one would be a reference cycle

    @property
    def dimension(self) -> int:
        return len(self.deltas)

    def index_of(self, path: Path) -> int:
        """Basis index of a path: its word applied through ``left`` to the
        identity of its source, checked against the path rebuilt there."""
        code = self.edge_codes
        i = self.vertex_codes.get(path.src, -1)
        for eid in reversed(path.word):
            i = int(self.left[code[eid], i]) if i >= 0 and eid in code else -1
        if i < 0 or self.basis[i] != path:
            raise DomainError(f"{path!r} is not a basis path of this space")
        return i

    def prefix(self, t: int) -> int:
        """Number of basis paths of grading <= t (0 for t < 0).  The basis is
        sorted by grading, so they are ``basis[:prefix(t)]``."""
        return self._grades[min(t, len(self._grades) - 1)][1] if t >= 0 else 0

    def generator_paths(self):
        """Identity paths and single edges, the operator generators."""
        g = self.graph
        return tuple(g.identity(v) for v in g.vertices) + tuple(
            g.edge_path(e.id) for e in g.edges
        )

    def as_path(self, what) -> Path:
        """Coerce a Path, edge id, or vertex id into a path of this graph."""
        if isinstance(what, Path):
            for eid in what.word:
                if not self.graph.has_edge(eid):
                    raise DomainError(f"path {what!r} is foreign to this graph")
            return what
        if self.graph.has_edge(what):
            return self.graph.edge_path(what)
        if what in self.graph.vertices:
            return self.graph.identity(what)
        raise DomainError(f"{what!r} is neither a path, an edge id, nor a vertex id")

    @functools.cached_property
    def edge_codes(self) -> dict:
        """Edge id -> table row, in ``sorted(edge ids)`` order."""
        return {e.id: c for c, e in enumerate(self.graph.edges)}

    @functools.cached_property
    def vertex_codes(self) -> dict:
        """Vertex id -> code, in sorted vertex order."""
        return {v: c for c, v in enumerate(self.graph.vertices)}

    def parent_links(self):
        """Per-basis arrays (parent index, leading edge code) for recursions
        along 'strip the leftmost letter'; identities get parent -1.

        Edge codes index ``sorted(edge ids)``.
        """
        return self._links

    @functools.cached_property
    def _edge_arrays(self):
        """Per table row: colour, source and range vertex codes."""
        code = self.vertex_codes
        edges = self.graph.edges
        return (np.array([e.color for e in edges], dtype=np.int64),
                np.array([code[e.src] for e in edges], dtype=np.int64),
                np.array([code[e.dst] for e in edges], dtype=np.int64))

    @functools.cached_property
    def left(self) -> np.ndarray:
        """left[e, i]: index of e xi_i, or -1.  One extra column of -1 makes a
        gather through an undefined entry stay undefined."""
        return _left_table(self)

    def __repr__(self):
        return f"TruncatedFock({self.graph!r}, N={self.trunc}, dim={self.dimension})"


class SparseOperator:
    """A sparse matrix over a TruncatedFock basis.

    A creation operator is given by its column -> row map instead (see
    ``image``); its CSR matrix is built when first read.
    """

    def __init__(self, space: TruncatedFock, matrix=None, image=None):
        self.space = space
        self._image = image
        self._matrix = None
        if matrix is not None:
            import scipy.sparse as sp

            self._matrix = sp.csr_matrix(matrix)
            self._matrix.eliminate_zeros()

    @property
    def matrix(self):
        if self._matrix is None:
            import scipy.sparse as sp

            img = self._image[:-1]
            cols = np.flatnonzero(img >= 0)
            self._matrix = sp.csr_matrix(
                (np.ones(len(cols), dtype=np.int64), (img[cols], cols)),
                shape=(self.space.dimension, self.space.dimension),
            )
        return self._matrix

    @property
    def nnz(self) -> int:
        if self._image is not None:
            return int(np.count_nonzero(self._image >= 0))
        return self.matrix.nnz

    def _same_space(self, other):
        if self.space is not other.space:
            raise DomainError("operators live on different spaces")

    def __matmul__(self, other):
        self._same_space(other)
        return SparseOperator(self.space, self.matrix @ other.matrix)

    def __add__(self, other):
        self._same_space(other)
        return SparseOperator(self.space, self.matrix + other.matrix)

    def __sub__(self, other):
        self._same_space(other)
        return SparseOperator(self.space, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return SparseOperator(self.space, self.matrix * scalar)

    __rmul__ = __mul__

    def adjoint(self):
        return SparseOperator(self.space, self.matrix.conj().T.tocsr())

    def max_abs_interior(self, margin: int):
        """Largest entry of the compression to the block {delta <= N - margin}."""
        n = self.space.prefix(self.space.trunc - margin)
        return np.abs(self.matrix[:n, :n].data).max(initial=0)

    def __repr__(self):
        return f"SparseOperator(dim={self.space.dimension}, nnz={self.nnz})"


def _left_table(fock: TruncatedFock) -> np.ndarray:
    """The recursion of the module docstring, one grade at a time, in place:
    a swapped entry reads colour-sorted ones, which no swap overwrites.  Each
    lead f has a run of (e, a, b) triples; a grade's pairs expand its columns."""
    g = fock.graph
    edges = g.edges
    code = fock.edge_codes
    color, esrc, edst = fock._edge_arrays
    parent, lead = fock.parent_links()
    if len(edges) * (fock.dimension + 1) > MAX_TABLE_ENTRIES:
        raise BudgetError(f"an edge-action table of {len(edges)} x {fock.dimension + 1} "
                          f"entries is over {MAX_TABLE_ENTRIES}")
    left = np.full((len(edges), fock.dimension + 1), -1, dtype=np.int64)
    n0 = fock.prefix(0)  # the identities, with parent -1, come first
    left[lead[n0:], parent[n0:]] = np.arange(n0, fock.dimension)
    # squares as rows (e, f, a, b) for (e, f) -> (a, b), looked up by the sorted keys e |E| + f
    sq = np.array([[code[x] for x in s.rhs + s.lhs] for s in g.squares], np.int64).reshape(-1, 4)
    keys, first = np.unique(sq[:, 0] * len(edges) + sq[:, 1], return_index=True)  # the first wins
    keys = np.append(keys, len(edges) ** 2)  # a key past every pair's, for pairs with no square
    sides = np.append(sq[first, 2:], [[-1, -1]], axis=0)
    # the run of lead f: the out-edges e of r(f) of colour > colour(f), the end of its run in `out`
    out, bound = fock._runs
    lo, hi = bound[edst * g.k + color], bound[edst * g.k + g.k]
    runs = np.append(0, np.cumsum(hi - lo))
    f, at = _expand(lo, hi)
    es = out[at]
    pair = es * len(edges) + f
    at = np.searchsorted(keys, pair)
    a, b = sides[np.where(keys[at] == pair, at, -1)].T
    # an error names its first witness in (edge, column) order, as np.nonzero of a mask:
    col = left[np.arange(len(edges)), esrc][f]  # a pair's first column, its lead's (none at N = 0)
    if ((a < 0) & (col >= 0)).any():
        w = min(np.flatnonzero((a < 0) & (col >= 0)), key=lambda i: (es[i], col[i]))
        raise MalformedGraphError(f"no square for adjacent pair ({edges[es[w]].id}, {edges[f[w]].id})")
    for t, (start, stop) in enumerate(fock._grades[1:], start=1):
        cols, at = _expand(runs[lead[start:stop]], runs[lead[start:stop] + 1])
        cols += start  # in place: the largest grade's pairs set the build's peak
        mid = left[b[at], parent[cols]]
        got = left[a[at], mid]
        broken = (mid < 0) | ((got < 0) & (t < fock.trunc))
        if broken.any():
            w = at[min(np.flatnonzero(broken), key=lambda i: (es[at[i]], cols[i]))]
            raise MalformedGraphError(
                f"square ({edges[a[w]].id}, {edges[b[w]].id}) = "
                f"({edges[es[w]].id}, {edges[f[w]].id}) has broken endpoints")
        left[es[at], cols] = got
    return left


def _right_map(fock: TruncatedFock, left, e) -> np.ndarray:
    """Index of xi_i e for each column i, or -1: the right creation map of
    edge code ``e``, one grade at a time from ``left`` along the parent links."""
    parent, lead = fock.parent_links()
    _, esrc, edst = fock._edge_arrays
    row = np.full(left.shape[1], -1)
    row[edst[e]] = left[e, esrc[e]]  # xi_v e = e xi_{s(e)} when e ends at v; identity v has index v
    for start, stop in fock._grades[1:]:
        row[start:stop] = left[lead[start:stop], row[parent[start:stop]]]
    return row


def _creation_op(fock: TruncatedFock, lam: Path, maps, ends) -> SparseOperator:
    """The 0/1 operator taking xi_i to its image under the letter ``maps`` in
    order; an identity keeps the xi_i whose ``ends`` is its vertex."""
    if lam.is_identity:
        img = np.full(fock.dimension + 1, -1)
        kept = np.flatnonzero(ends == fock.vertex_codes[lam.src])
        img[kept] = kept
    else:
        # column `dimension` of a map is -1, so the trailing entry stays -1
        img = np.arange(fock.dimension + 1)
        for m in maps:
            img = m[img]
    img.flags.writeable = False
    return SparseOperator(fock, image=img)


def left_op(fock: TruncatedFock, what) -> SparseOperator:
    """Creation operator xi_mu -> xi_{lambda mu}; overflow images dropped.

    Vertices give the range projections, edges the generating partial
    isometries.  Entries are 0/1 integers.
    """
    lam, left = fock.as_path(what), fock.left  # read for identities too, so they raise as edges do
    return _creation_op(fock, lam, (left[fock.edge_codes[x]] for x in reversed(lam.word)),
                        fock.ends[1])


def right_op(fock: TruncatedFock, what) -> SparseOperator:
    """Right creation operator xi_mu -> xi_{mu lambda} when composable."""
    lam, left = fock.as_path(what), fock.left  # read for identities too, so they raise as edges do
    return _creation_op(fock, lam, (_right_map(fock, left, fock.edge_codes[x]) for x in lam.word),
                        fock.ends[0])


def word_op(fock: TruncatedFock, word, base=None) -> SparseOperator:
    """Creation operator of a composable raw edge word (an empty word needs
    ``base``): ``left_op`` of its normal form.  This is also the product of
    the edge operators along the word, since gradings only grow along a word
    and truncation never cuts a product short.
    """
    return left_op(fock, fock.graph.normal_form(tuple(word), base=base))


def fourier_coefficient(op: SparseOperator, path: Path):
    """<A xi_{s(path)}, xi_path>: the coefficient of the path in the symbol."""
    fock = op.space
    row = fock.index_of(path)
    col = fock.index_of(fock.graph.identity(path.src))
    return op.matrix[row, col]


def fourier_series(op: SparseOperator) -> dict:
    """All nonzero coefficients a_lambda = <A xi_{s(lambda)}, xi_lambda>."""
    fock = op.space
    out = {}
    mat = op.matrix.tocsc()
    for v in fock.graph.vertices:
        col = fock.index_of(fock.graph.identity(v))
        start, end = mat.indptr[col], mat.indptr[col + 1]
        for row, val in zip(mat.indices[start:end], mat.data[start:end]):
            path = fock.basis[row]
            if path.src == v:
                out[path] = val
    return out


def cesaro(op: SparseOperator, n: int) -> SparseOperator:
    """Weighted partial sum sum_{delta(lambda) < n} (1 - delta/n) a_lambda L_lambda,
    rebuilt from the operator's Fourier coefficients; by unique factorization
    no two terms share an entry, so their entries make one matrix."""
    if n < 1:
        raise DomainError("Cesaro order must be >= 1")
    import scipy.sparse as sp

    fock = op.space
    empty = np.zeros(0, dtype=np.int64)
    rows, cols, vals = [empty], [empty], [empty.astype(np.complex128)]
    for path, a in fourier_series(op).items():
        if path.delta < n and a != 0:
            img = image(left_op(fock, path))
            cols.append(np.flatnonzero(img >= 0))
            rows.append(img[cols[-1]])
            vals.append(np.full(len(cols[-1]), (1.0 - path.delta / n) * complex(a)))
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return SparseOperator(fock, sp.csr_matrix(coo, shape=(fock.dimension,) * 2))


# -- exact structural checks ---------------------------------------------------


def image(op: SparseOperator) -> np.ndarray:
    """The read-only column -> row map a creation operator holds: -1 for an
    empty column, plus one trailing -1 so that ``a[b]`` maps A B.  Any other
    operator raises ``DomainError``."""
    if op._image is None:
        raise DomainError("only a creation operator holds a column -> row map")
    return op._image


def commutant_residual(fock: TruncatedFock):
    """Largest interior-block entry of L_a R_b - R_b L_a over all generator
    pairs; exactly 0 on a valid graph.  Letters raise the grading by one, so
    the block {delta <= N - m}, m = |a| + |b|, is reached only from columns
    of grading <= N - 2m; the entry is 1 when the two maps differ there.
    One pass per right generator b tests every left one against R_b at once:
    L_v keeps the columns of range v, L_a is row a of ``left``, and where R_b
    is undefined so is L_a R_b, so R_b L_a must be too."""
    left, dst, N = fock.left, fock.ends[1], fock.trunc
    # the defined entries (a, c) of left on the blocks of margin 2 |b| + 2 (prefixes: views)
    entries = {m: np.nonzero(left[:, :fock.prefix(N - m)] >= 0) for m in (2, 4)}
    for b in fock.generator_paths():
        rb = image(right_op(fock, b))
        got = rb[:fock.prefix(N - 2 * b.delta)]  # the block of the pairs (L_v, R_b)
        kept = np.flatnonzero(got >= 0)
        cols = np.flatnonzero(rb[:fock.prefix(N - 2 * b.delta - 2)] >= 0)
        a, c = entries[2 * b.delta + 2]
        if ((dst[got[kept]] != dst[kept]).any() or (left[:, rb[cols]] != rb[left[:, cols]]).any()
                or ((rb[c] < 0) & (rb[left[a, c]] >= 0)).any()):
            return 1
    return 0


def partial_isometry_residual(fock: TruncatedFock):
    """Max interior residual of L_e* L_e = L_{s(e)} over all edges; exact 0
    on a valid graph.  On {delta <= N - 1}, a prefix of the basis, it is 1
    when a row of ``left`` is defined on other columns than those of range
    s(e) or repeats an image; the whole block is read in one pass."""
    block = fock.left[:, :fock.prefix(fock.trunc - 1)]  # a view, not a copy
    defined = block >= 0
    e, c = np.nonzero(defined)
    hit = np.sort(e * fock.left.shape[1] + block[e, c])  # (row, image) pairs as keys, sorted
    esrc = fock._edge_arrays[1]
    return int((defined != (esrc[:, None] == fock.ends[1][:block.shape[1]])).any()
               or (hit[1:] == hit[:-1]).any())


def same_degree_range_conflicts(fock: TruncatedFock):
    """Pairs (lambda != mu, same degree) with non-orthogonal ranges, as
    (first owner, edge, basis vector) triples, decided at the degrees e_c.

    A creation operator has at most one entry per column, so L_lambda* L_mu
    != 0 exactly when a basis vector lies in both ranges.  Two distinct
    canonical paths of one degree have the same colour sequence, so they
    share a prefix P and then differ in letters x != y of one colour.  A
    basis vector in both ranges is then L_P of a vector in the ranges of both
    L_x and L_y, since L_P is injective whenever every edge map is
    (``partial_isometry_residual`` checks that in its shared-image test).

    The defined entries of ``left`` are found once, without copying its rows;
    per colour, one bincount over that colour's entries finds the basis
    vectors hit twice.  Triples come in colour order, then edge order, then
    basis order, naming the first edge whose range held the vector.
    """
    g = fock.graph
    color = fock._edge_arrays[0]
    owners, cols = np.nonzero(fock.left >= 0)
    images = fock.left[owners, cols]
    conflicts = []
    for c in range(1, g.k + 1):
        at = np.flatnonzero(color[owners] == c)
        owner, rows = owners[at], images[at]
        twice = np.bincount(rows)[rows] > 1
        if not twice.any():
            continue
        owner, rows = owner[twice], rows[twice]
        order = np.lexsort((rows, owner))
        first = {}
        for o, r in zip(owner[order].tolist(), rows[order].tolist()):
            if first.setdefault(r, o) != o:
                conflicts.append((g.edge_path(g.edges[first[r]].id),
                                  g.edge_path(g.edges[o].id), fock.basis[r]))
    return conflicts


def orthogonal_isometries(g: KGraph, fock: TruncatedFock, witness=None):
    """Two word combinations U, V with U*V = 0 on the whole truncation and
    U*U the identity on the interior block, built from a double pure cycle.

    Vertex w_i (sorted order, 1-based) contributes cycle exponents 2i-1 to U
    and 2i to V; access paths are the witness's shortest paths.  Each term
    starts at its own vertex, so U (and V) is the merged map of its terms:
    U*V = 0 iff no basis vector is in both images, and U*U = 1 on the
    interior iff each interior column has an image of its own.
    """
    from .structure import double_pure_cycle_property

    if fock.graph is not g:
        raise DomainError("fock space was built over a different graph")
    if witness is None:
        witness = double_pure_cycle_property(g)
    if witness is None:
        raise UnsupportedGraphError(
            "graph has no double pure cycle reachable from every vertex"
        )
    lam1 = g.normal_form(witness.cycles[0].word)
    lam2 = g.normal_form(witness.cycles[1].word)

    def build(offset):
        terms = [g.compose(g.power(lam1, 2 * i - 2 + offset),
                           g.compose(lam2, g.path_from_word(witness.access[w], base=w)))
                 for i, w in enumerate(g.vertices, start=1)]
        img = np.maximum.reduce([image(left_op(fock, t)) for t in terms])
        img.flags.writeable = False
        return SparseOperator(fock, image=img), terms

    U, terms_u = build(1)
    V, terms_v = build(2)
    img_u, img_v = image(U), image(V)
    orth = int(np.isin(img_v[img_v >= 0], img_u).any())
    margin_u = max(t.delta for t in terms_u)
    interior = img_u[:fock.prefix(fock.trunc - margin_u)]
    isom = int((interior < 0).any() or np.bincount(interior).max(initial=0) > 1)
    report = {
        "vertex": witness.vertex,
        "color": witness.color,
        "cycles": [list(lam1.word), list(lam2.word)],
        "termsU": [list(t.word) for t in terms_u],
        "termsV": [list(t.word) for t in terms_v],
        "orthogonalityResidual": orth,
        "isometryResidual": isom,
        "isometryMargin": margin_u,
        "isometryBlockDim": len(interior),  # 0 means the identity check is vacuous
        "ok": orth == 0 and isom == 0 and len(interior) > 0,
    }
    return U, V, report


def verify_cycle_blocks(n: int, k: int, trunc: int) -> dict:
    """Block structure of the rank-k cycle on n vertices.

    Grouping the basis by range vertex, every color-c generator out of x_i
    occupies exactly block position (i+1, i) mod n, vertex projections are
    block diagonal, and each path from x_j to x_i has grading congruent to
    i - j mod n.  The generator out of x_i is a row of ``left``, so the
    generator blocks are read off its defined entries, all rows in one pass.
    """
    from .builders import cycle_rank

    g = cycle_rank(n, k)
    fock = TruncatedFock(g, trunc)
    num = np.array([int(v[1:]) for v in g.vertices])  # x7 -> 7, by vertex code
    block = num[fock.ends[1]]  # rows and columns alike
    i = num[fock._edge_arrays[1]]  # by edge code: the generator's source is x_i
    e, cols = np.nonzero(fock.left >= 0)
    gen_ok = bool((block[fock.left[e, cols]] == i[e] % n + 1).all() and (block[cols] == i[e]).all())

    # L_v keeps xi_i in place where xi_i ends at v: at the range of its leading
    # letter, or at its own vertex for an identity, so its block must be that vertex's
    parent, lead = fock.parent_links()
    at = np.where(parent >= 0, fock._edge_arrays[2][lead], np.arange(fock.dimension))
    proj_ok = bool((num[at] == block).all())

    congruence_ok = bool(((fock.deltas - (block - num[fock.ends[0]])) % n == 0).all())
    return {
        "n": n,
        "k": k,
        "trunc": trunc,
        "generatorBlocks": {x.id: [j % n + 1, j] for x, j in zip(g.edges, i.tolist())},  # by id
        "generatorBlocksOk": gen_ok,
        "vertexProjectionsDiagonal": proj_ok,
        "degreeCongruenceOk": congruence_ok,
        "ok": gen_ok and proj_ok and congruence_ok,
    }


# -- export --------------------------------------------------------------------


EXPORT_CHUNK = 1 << 16  # entries formatted per write, so no export holds all its text at once


def write_matrix_market(op: SparseOperator, path) -> None:
    """Coordinate-format export, always complex general, one entry per line
    in row-major order.  A creation operator's entries are the (row, column)
    pairs of its map, each written ``1 0``, so it needs no CSR matrix and no
    scipy; an operator that holds only a matrix writes each value with
    ``%.17g``, which reads back exactly."""
    n = op.space.dimension
    if op._image is not None:
        cols = np.flatnonzero(op._image[:-1] >= 0)
        rows, values, entry = op._image[cols], (), b"%d %d 1 0\n"
    else:
        coo = op.matrix.tocoo()
        rows, cols, vals = coo.row, coo.col, coo.data.astype(np.complex128)
        values, entry = (vals.real, vals.imag), b"%d %d %.17g %.17g\n"
    order = np.lexsort((cols, rows))
    # every field of a line in one array; %d prints a float row index exactly (< 2^53)
    table = np.column_stack([rows[order] + 1, cols[order] + 1, *(v[order] for v in values)])
    with open(path, "wb") as fh:  # bytes: formatting is faster, and lines end in \n everywhere
        fh.write(b"%%MatrixMarket matrix coordinate complex general\n%\n")
        fh.write(b"%d %d %d\n" % (n, n, len(table)))
        for at in range(0, len(table), EXPORT_CHUNK):
            part = table[at:at + EXPORT_CHUNK]
            fh.write(entry * len(part) % tuple(part.ravel().tolist()))


def write_basis_manifest(fock: TruncatedFock, path) -> None:
    """TSV listing: index, word (vertex id for identities), degree."""
    g = fock.graph
    parent, lead = fock.parent_links()
    eid = [e.id for e in g.edges]
    nv = len(g.vertices)  # the identities come first; then a word is its leading edge,
    words = list(g.vertices)  # followed by its parent's word unless that is an identity
    for e, p in zip(lead[nv:].tolist(), parent[nv:].tolist()):
        words.append(f"{eid[e]} {words[p]}" if p >= nv else eid[e])
    lines = ["#index\tword\tdegree\n"]
    for n, (start, stop) in fock.blocks.items():
        degree = ",".join(str(x) for x in n)
        lines.extend(f"{i}\t{words[i]}\t{degree}\n" for i in range(start, stop))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))
