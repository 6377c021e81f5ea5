"""Truncated Fock space over a k-graph and exact sparse operator checks.

The basis is every canonical (colour-sorted) path of grading at most N.  The
space holds one representation that every operator is read from: integer
edge-action tables

    left[e, i]  = index of e xi_i      right[e, i] = index of xi_i e

with -1 where the edges do not compose or the image lies beyond N.  They are
built once, lazily, grade by grade from the links ``parent(i)`` (the basis
path with the leftmost letter stripped) and ``lead(i)`` (that letter), which
has the smallest colour of the word:

* ``child[e, p]`` is the index of e xi_p when that word is already sorted;
* if colour(e) <= colour(lead(i)), ``left[e, i] = child[e, i]``;
* otherwise the square (e, lead(i)) -> (a, b) rewrites the front pair, and
  ``left[e, i] = child[a, left[b, parent(i)]]``;
* ``right[e, i] = left[lead(i), right[e, parent(i)]]``.

The factorization property makes these the normal forms of the composed
words.  A creation operator of a path is the chain of gathers along its word,
as a 0/1 matrix with at most one entry per column.  Gradings only grow along
a word, so images beyond the truncation never come back and identities
between words of the generators hold exactly (integer arithmetic) after
compressing to the interior block {delta <= N - g}, where g bounds the
grading of the words involved.  Floating point enters only through scalar
coefficients (Cesaro weights, user combinations).
"""

import functools

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import DomainError, MalformedGraphError, UnsupportedGraphError
from .kgraph import KGraph, Path, degree_vectors

__all__ = [
    "TruncatedFock",
    "SparseOperator",
    "left_op",
    "right_op",
    "word_op",
    "identity_op",
    "grading_projection",
    "fourier_coefficient",
    "fourier_series",
    "cesaro",
    "diagonal_part",
    "commutant_residual",
    "partial_isometry_residual",
    "same_degree_range_conflicts",
    "orthogonal_isometries",
    "verify_cycle_blocks",
    "transpose_pairing",
    "write_matrix_market",
    "write_basis_manifest",
]


class TruncatedFock:
    """Ordered orthonormal basis {xi_lambda : delta(lambda) <= N}.

    The basis is sorted by grading, then degree (lexicographic), then word,
    so matrices are reproducible across runs.  Construction assumes the graph
    has been validated.  ``left`` and ``right`` are the edge-action tables of
    the module docstring; their rows follow ``edge_codes``.
    """

    def __init__(self, graph: KGraph, trunc: int):
        if trunc < 0:
            raise DomainError("truncation grading must be >= 0")
        self.graph = graph
        self.trunc = int(trunc)
        self.basis = tuple(graph.all_paths_up_to(self.trunc))
        self._index = {p: i for i, p in enumerate(self.basis)}
        self.deltas = np.array([p.delta for p in self.basis], dtype=np.int64)
        self._by_grade = {
            t: np.flatnonzero(self.deltas == t) for t in range(self.trunc + 1)
        }
        self._links = None

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index_of(self, path: Path) -> int:
        try:
            return self._index[path]
        except KeyError:
            raise DomainError(f"{path!r} is not a basis path of this space") from None

    def grade_indices(self, t: int) -> np.ndarray:
        return self._by_grade.get(t, np.array([], dtype=np.int64))

    def interior_indices(self, margin: int) -> np.ndarray:
        return np.flatnonzero(self.deltas <= self.trunc - margin)

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

    @functools.cached_property
    def ends(self):
        """Per-basis (source, range) vertex codes."""
        code = self.vertex_codes
        src = np.array([code[p.src] for p in self.basis], dtype=np.int64)
        dst = np.array([code[p.dst] for p in self.basis], dtype=np.int64)
        return src, dst

    def parent_links(self):
        """Per-basis arrays (parent index, leading edge code) for recursions
        along 'strip the leftmost letter'; identities get parent -1.

        Edge codes index ``sorted(edge ids)``.
        """
        if self._links is None:
            key = {(p.word, p.src): i for i, p in enumerate(self.basis)}
            code = self.edge_codes
            parent = np.full(self.dimension, -1, dtype=np.int64)
            lead = np.full(self.dimension, -1, dtype=np.int64)
            for i, p in enumerate(self.basis):
                if p.word:
                    parent[i] = key[(p.word[1:], p.src)]
                    lead[i] = code[p.word[0]]
            self._links = (parent, lead)
        return self._links

    @functools.cached_property
    def left(self) -> np.ndarray:
        """left[e, i]: index of e xi_i, or -1.  One extra column of -1 makes a
        gather through an undefined entry stay undefined."""
        return _left_table(self)

    @functools.cached_property
    def right(self) -> np.ndarray:
        """right[e, i]: index of xi_i e, or -1; same layout as ``left``."""
        return _right_table(self)

    def __repr__(self):
        return f"TruncatedFock({self.graph!r}, N={self.trunc}, dim={self.dimension})"


class SparseOperator:
    """A sparse matrix over a TruncatedFock basis."""

    def __init__(self, space: TruncatedFock, matrix):
        self.space = space
        m = sp.csr_matrix(matrix)
        m.eliminate_zeros()
        self.matrix = m

    @property
    def nnz(self) -> int:
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

    def max_abs(self):
        if self.matrix.nnz == 0:
            return 0
        return np.abs(self.matrix.data).max()

    def max_abs_interior(self, margin: int):
        """Largest entry of the compression to the block {delta <= N - margin}."""
        idx = self.space.interior_indices(margin)
        m = self.matrix[idx][:, idx]
        if m.nnz == 0:
            return 0
        return np.abs(m.data).max()

    def __repr__(self):
        return f"SparseOperator(dim={self.space.dimension}, nnz={self.nnz})"


def _edge_arrays(fock: TruncatedFock):
    """Per table row: colour, source and range vertex codes."""
    code = fock.vertex_codes
    edges = fock.graph.edges
    return (np.array([e.color for e in edges], dtype=np.int64),
            np.array([code[e.src] for e in edges], dtype=np.int64),
            np.array([code[e.dst] for e in edges], dtype=np.int64))


def _left_table(fock: TruncatedFock) -> np.ndarray:
    """The recursion of the module docstring, one grade at a time."""
    g = fock.graph
    edges = g.edges
    code = fock.edge_codes
    color, esrc, edst = _edge_arrays(fock)
    parent, lead = fock.parent_links()
    shape = (len(edges), fock.dimension + 1)
    child = np.full(shape, -1, dtype=np.int64)
    nz = np.flatnonzero(parent >= 0)
    child[lead[nz], parent[nz]] = nz
    sq_a = np.full((len(edges), len(edges)), -1, dtype=np.int64)
    sq_b = np.full_like(sq_a, -1)
    for sq in reversed(g.squares):  # the first square for a pair wins
        (e, f), (a, b) = (code[x] for x in sq.rhs), (code[x] for x in sq.lhs)
        sq_a[e, f], sq_b[e, f] = a, b

    left = np.full(shape, -1, dtype=np.int64)
    for t in range(fock.trunc + 1):
        idx = fock.grade_indices(t)
        block = child[:, idx]
        if t > 0:
            f = lead[idx]
            swap = (color[:, None] > color[f]) & (esrc[:, None] == edst[f])
            es, js = np.nonzero(swap)
            a, b = sq_a[es, f[js]], sq_b[es, f[js]]
            if (a < 0).any():
                w = int(np.argmax(a < 0))
                raise MalformedGraphError(
                    f"no square for adjacent pair ({edges[es[w]].id}, {edges[f[js[w]]].id})")
            mid = left[b, parent[idx[js]]]
            block[es, js] = child[a, mid]
            broken = (mid < 0) | ((block[es, js] < 0) & (t < fock.trunc))
            if broken.any():
                w = int(np.argmax(broken))
                raise MalformedGraphError(
                    f"square ({edges[a[w]].id}, {edges[b[w]].id}) = "
                    f"({edges[es[w]].id}, {edges[f[js[w]]].id}) has broken endpoints")
        left[:, idx] = block
    return left


def _right_table(fock: TruncatedFock) -> np.ndarray:
    """right[e, i] = left[lead(i), right[e, parent(i)]], one grade at a time."""
    parent, lead = fock.parent_links()
    left = fock.left
    _, esrc, edst = _edge_arrays(fock)
    right = np.full_like(left, -1)
    # xi_v e is the edge path e = e xi_{s(e)} when e ends at v
    ident = fock.grade_indices(0)  # one identity per vertex, in order
    edge_path = left[np.arange(len(left)), ident[esrc]]
    right[:, ident] = np.where(edst[:, None] == np.arange(len(ident)),
                               edge_path[:, None], -1)
    for t in range(1, fock.trunc + 1):
        idx = fock.grade_indices(t)
        right[:, idx] = left[lead[idx], right[:, parent[idx]]]
    return right


def _images(table, letters, img):
    """Gather ``img`` through the table rows ``letters``, first letter first."""
    for c in letters:
        img = table[c, img]
    return img


def _creation_op(fock: TruncatedFock, lam: Path, table, ends, letters) -> SparseOperator:
    """The 0/1 operator taking xi_i to the image of i under ``letters`` in
    ``table``; an identity keeps the xi_i whose ``ends`` is its vertex."""
    if lam.is_identity:
        img = np.where(ends == fock.vertex_codes[lam.src], np.arange(fock.dimension), -1)
    else:
        code = fock.edge_codes
        img = _images(table, [code[x] for x in letters], np.arange(fock.dimension))
    cols = np.flatnonzero(img >= 0)
    m = sp.csr_matrix(
        (np.ones(len(cols), dtype=np.int64), (img[cols], cols)),
        shape=(fock.dimension, fock.dimension),
    )
    return SparseOperator(fock, m)


def left_op(fock: TruncatedFock, what) -> SparseOperator:
    """Creation operator xi_mu -> xi_{lambda mu}; overflow images dropped.

    Vertices give the range projections, edges the generating partial
    isometries.  Entries are 0/1 integers.
    """
    lam = fock.as_path(what)
    return _creation_op(fock, lam, fock.left, fock.ends[1], reversed(lam.word))


def right_op(fock: TruncatedFock, what) -> SparseOperator:
    """Right creation operator xi_mu -> xi_{mu lambda} when composable."""
    lam = fock.as_path(what)
    return _creation_op(fock, lam, fock.right, fock.ends[0], lam.word)


def identity_op(fock: TruncatedFock) -> SparseOperator:
    return SparseOperator(fock, sp.identity(fock.dimension, dtype=np.int64, format="csr"))


def grading_projection(fock: TruncatedFock, t: int) -> SparseOperator:
    """E_t: the diagonal projection onto the grade-t slice of the basis."""
    diag = np.zeros(fock.dimension, dtype=np.int64)
    diag[fock.grade_indices(t)] = 1
    return SparseOperator(fock, sp.diags(diag, format="csr", dtype=np.int64))


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


def diagonal_part(op: SparseOperator, m: int) -> SparseOperator:
    """Phi_m(A) = sum_j E_j A E_{j+m}: keep entries moving grade j+m -> j."""
    fock = op.space
    coo = op.matrix.tocoo()
    keep = (fock.deltas[coo.col] - fock.deltas[coo.row]) == m
    mat = sp.csr_matrix(
        (coo.data[keep], (coo.row[keep], coo.col[keep])),
        shape=op.matrix.shape,
    )
    return SparseOperator(fock, mat)


def cesaro(op: SparseOperator, n: int) -> SparseOperator:
    """Weighted partial sum sum_{delta(lambda) < n} (1 - delta/n) a_lambda L_lambda,
    rebuilt from the operator's Fourier coefficients."""
    if n < 1:
        raise DomainError("Cesaro order must be >= 1")
    fock = op.space
    acc = sp.csr_matrix((fock.dimension, fock.dimension), dtype=np.complex128)
    for path, a in fourier_series(op).items():
        d = path.delta
        if d >= n or a == 0:
            continue
        weight = 1.0 - d / n
        acc = acc + (weight * complex(a)) * left_op(fock, path).matrix
    return SparseOperator(fock, acc)


# -- exact structural checks ---------------------------------------------------


def commutant_residual(fock: TruncatedFock):
    """Largest interior-block entry of L_a R_b - R_b L_a over all generator
    pairs; the contract for a valid graph is exactly 0."""
    worst = 0
    gens = fock.generator_paths()
    lefts = [(p, left_op(fock, p)) for p in gens]
    rights = [(p, right_op(fock, p)) for p in gens]
    for lp, lo in lefts:
        for rp, ro in rights:
            diff = lo @ ro - ro @ lo
            worst = max(worst, diff.max_abs_interior(lp.delta + rp.delta))
    return worst


def partial_isometry_residual(fock: TruncatedFock):
    """Max interior residual of L_e* L_e = L_{s(e)} over all edges; exact 0
    on a valid graph."""
    g = fock.graph
    proj = {v: left_op(fock, v) for v in g.vertices}
    worst = 0
    for e in g.edges:
        le = left_op(fock, e.id)
        diff = le.adjoint() @ le - proj[e.src]
        worst = max(worst, diff.max_abs_interior(1))
    return worst


def same_degree_range_conflicts(fock: TruncatedFock):
    """Pairs (lambda != mu, same degree) with non-orthogonal ranges, as
    (first owner, path, basis vector) triples.

    Each creation operator has at most one entry per column, so
    L_lambda* L_mu != 0 exactly when some basis vector lies in both ranges.
    The images of all paths of one degree are gathered at once and one
    bincount finds the basis vectors hit twice.  Triples come in path order,
    then basis order, naming the first path whose range held the vector.
    """
    g = fock.graph
    parent, lead = fock.parent_links()
    src, dst = fock.ends
    conflicts = []
    for t in range(fock.trunc + 1):
        cols = fock.interior_indices(t)
        for n in degree_vectors(g.k, t):
            paths = g.paths_of_degree(n, max_grading=fock.trunc)
            if len(paths) < 2:
                continue
            at = np.array([fock.index_of(p) for p in paths], dtype=np.int64)
            img = np.where(dst[cols] == src[at][:, None], cols, -1)
            letters = []  # every path's word, leftmost letter first
            for _ in range(t):
                letters.append(lead[at][:, None])
                at = parent[at]
            img = _images(fock.left, reversed(letters), img)
            owner, col = np.nonzero(img >= 0)
            rows = img[owner, col]
            if rows.size == 0 or np.bincount(rows).max() <= 1:
                continue
            order = np.lexsort((rows, owner))
            owner, rows = owner[order], rows[order]
            first = np.full(fock.dimension, len(paths))
            np.minimum.at(first, rows, owner)
            for o, r in zip(owner, rows):
                if o != first[r]:
                    conflicts.append((paths[first[r]], paths[o], fock.basis[r]))
    return conflicts


def orthogonal_isometries(g: KGraph, fock: TruncatedFock, witness=None):
    """Two word combinations U, V with U*V = 0 on the whole truncation and
    U*U the identity on the interior block, built from a double pure cycle.

    Vertex w_i (sorted order, 1-based) contributes cycle exponents 2i-1 to U
    and 2i to V; access paths are the witness's shortest paths.
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
        terms = []
        for idx, w in enumerate(g.vertices, start=1):
            exponent = 2 * idx - 2 + offset
            access = g.path_from_word(witness.access[w], base=w)
            term = g.compose(g.power(lam1, exponent), g.compose(lam2, access))
            terms.append(term)
        acc = None
        for term in terms:
            piece = left_op(fock, term)
            acc = piece if acc is None else acc + piece
        return acc, terms

    U, terms_u = build(1)
    V, terms_v = build(2)
    margin_u = max(t.delta for t in terms_u)
    orth = (U.adjoint() @ V).max_abs()
    diff = U.adjoint() @ U - identity_op(fock)
    isom = diff.max_abs_interior(margin_u)
    block_dim = len(fock.interior_indices(margin_u))
    report = {
        "vertex": witness.vertex,
        "color": witness.color,
        "cycles": [list(lam1.word), list(lam2.word)],
        "termsU": [list(t.word) for t in terms_u],
        "termsV": [list(t.word) for t in terms_v],
        "orthogonalityResidual": int(orth),
        "isometryResidual": int(isom),
        "isometryMargin": margin_u,
        "isometryBlockDim": block_dim,  # 0 means the identity check is vacuous
        "ok": orth == 0 and isom == 0 and block_dim > 0,
    }
    return U, V, report


def verify_cycle_blocks(n: int, k: int, trunc: int) -> dict:
    """Block structure of the rank-k cycle on n vertices.

    Grouping the basis by range vertex, every color-c generator out of x_i
    occupies exactly block position (i+1, i) mod n, vertex projections are
    block diagonal, and each path from x_j to x_i has grading congruent to
    i - j mod n.
    """
    from .builders import cycle_rank

    g = cycle_rank(n, k)
    fock = TruncatedFock(g, trunc)
    vnum = {v: int(v[1:]) for v in g.vertices}  # x7 -> 7
    row_block = np.array([vnum[p.dst] for p in fock.basis])
    col_block = row_block  # same labeling; columns indexed by the same basis

    gen_blocks = {}
    gen_ok = True
    for e in g.edges:
        op = left_op(fock, e.id)
        coo = op.matrix.tocoo()
        i = vnum[e.src]
        expected = (i % n + 1, i)
        got = {(int(row_block[r]), int(col_block[c])) for r, c in zip(coo.row, coo.col)}
        gen_blocks[e.id] = list(expected)
        if got - {expected}:
            gen_ok = False

    proj_ok = True
    for v in g.vertices:
        coo = left_op(fock, g.identity(v)).matrix.tocoo()
        if np.any(coo.row != coo.col):
            proj_ok = False
        if any(int(row_block[r]) != vnum[v] for r in coo.row):
            proj_ok = False

    congruence_ok = all(
        (p.delta - (vnum[p.dst] - vnum[p.src])) % n == 0 for p in fock.basis
    )
    return {
        "n": n,
        "k": k,
        "trunc": trunc,
        "generatorBlocks": {eid: gen_blocks[eid] for eid in sorted(gen_blocks)},
        "generatorBlocksOk": gen_ok,
        "vertexProjectionsDiagonal": proj_ok,
        "degreeCongruenceOk": congruence_ok,
        "ok": gen_ok and proj_ok and congruence_ok,
    }


def transpose_pairing(fock: TruncatedFock, fock_t: TruncatedFock) -> np.ndarray:
    """perm[i] = index in ``fock_t`` of the reversed path of basis[i].

    The permutation realizes the unitary identifying the two Fock spaces
    under edge reversal.
    """
    g_t = fock_t.graph
    perm = np.empty(fock.dimension, dtype=np.int64)
    for i, p in enumerate(fock.basis):
        q = g_t.normal_form(tuple(reversed(p.word)), base=p.src if p.is_identity else None)
        perm[i] = fock_t.index_of(q)
    return perm


# -- export --------------------------------------------------------------------


def write_matrix_market(op: SparseOperator, path) -> None:
    """Coordinate-format export; entries are written as complex general."""
    scipy.io.mmwrite(str(path), op.matrix.astype(np.complex128))


def write_basis_manifest(fock: TruncatedFock, path) -> None:
    """TSV listing: index, word (vertex id for identities), degree."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("#index\tword\tdegree\n")
        for i, p in enumerate(fock.basis):
            word = " ".join(p.word) if p.word else p.src
            degree = ",".join(str(x) for x in p.degree)
            fh.write(f"{i}\t{word}\t{degree}\n")
