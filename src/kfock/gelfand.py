"""Character theory for single-vertex graphs.

Coordinates are assigned per color along the sorted loop edges.  The
commutation squares cut out a binomial variety; points of the open product
ball lying on it carry the eigenvector with components ``path(alpha)`` and
closed-form squared norm ``prod (1 - |alpha_i|^2)^-1``, and induce
multiplicative functionals through the normalized conjugate vector.

Word evaluation multiplies letter values right to left (innermost factor
first), the same association order as the graded recursion that fills the
eigenvector, so evaluations and vector components agree to the last ulp.
"""

from dataclasses import dataclass

import numpy as np

from .builders import identity_table, single_vertex
from .errors import BudgetError, DomainError, UnsupportedGraphError
from .fock import TruncatedFock
from .kgraph import KGraph

__all__ = [
    "VarietyBinomial",
    "Character",
    "as_point",
    "variety_polys",
    "variety_residual",
    "in_variety",
    "in_ball",
    "ball_norms",
    "evaluate_word",
    "omega_vector",
    "omega_norm_check",
    "truncation_for_tail",
    "character_truncation",
    "eigen_residual",
    "character",
    "multiplicativity_check",
    "sample_variety_points",
]

VARIETY_TOL = 1e-9  # largest binomial residual of a point on the variety
MAX_TAIL_GRADING = 400  # truncation_for_tail gives up beyond this grading
MAX_CHECK_ENTRIES = 2 ** 25  # largest words x dimension a multiplicativity check takes


def _require_single_vertex(g: KGraph):
    if not g.is_single_vertex:
        raise UnsupportedGraphError("character analysis needs a single-vertex graph")


def color_layout(g: KGraph):
    """Sorted loop-edge ids per color; fixes the coordinate order."""
    return {c: tuple(e.id for e in g.edges_of_color(c)) for c in range(1, g.k + 1)}


def as_point(g: KGraph, alpha):
    """Coerce per-color sequences (or one flat sequence) to coordinate arrays."""
    _require_single_vertex(g)
    layout = color_layout(g)
    sizes = [len(layout[c]) for c in range(1, g.k + 1)]
    try:
        parts = [np.atleast_1d(np.asarray(a, dtype=complex)).reshape(-1) for a in alpha]
        if [len(p) for p in parts] == sizes:
            return tuple(parts)
    except (TypeError, ValueError):
        pass
    flat = np.asarray(list(alpha), dtype=complex).reshape(-1)
    if len(flat) == sum(sizes):
        parts, at = [], 0
        for s in sizes:
            parts.append(flat[at:at + s].copy())
            at += s
        return tuple(parts)
    raise DomainError(
        f"point has wrong shape; expected per-color sizes {sizes} or {sum(sizes)} entries"
    )


def _coord_map(g: KGraph, point):
    layout = color_layout(g)
    out = {}
    for c in range(1, g.k + 1):
        for pos, eid in enumerate(layout[c]):
            out[eid] = complex(point[c - 1][pos])
    return out


@dataclass(frozen=True)
class VarietyBinomial:
    """z[i,p]*z[j,q] - z[i,r]*z[j,s], all indices 1-based."""

    i: int
    p: int
    j: int
    q: int
    r: int
    s: int

    def evaluate(self, point):
        return (point[self.i - 1][self.p - 1] * point[self.j - 1][self.q - 1]
                - point[self.i - 1][self.r - 1] * point[self.j - 1][self.s - 1])

    def __str__(self):
        return (f"z[{self.i},{self.p}]*z[{self.j},{self.q}]"
                f" - z[{self.i},{self.r}]*z[{self.j},{self.s}]")


def variety_polys(g: KGraph) -> tuple[VarietyBinomial, ...]:
    """The nonzero binomials read off the commutation squares."""
    _require_single_vertex(g)
    layout = color_layout(g)
    pos = {eid: t + 1 for c in layout for t, eid in enumerate(layout[c])}
    polys = []
    for sq in g.squares:
        a, b = (g.edge(x) for x in sq.lhs)
        b2, a2 = (g.edge(x) for x in sq.rhs)
        p, q, r, s = pos[a.id], pos[b.id], pos[a2.id], pos[b2.id]
        if (p, q) == (r, s):
            continue
        polys.append(VarietyBinomial(i=a.color, p=p, j=b.color, q=q, r=r, s=s))
    return tuple(sorted(polys, key=lambda b: (b.i, b.j, b.p, b.q)))


def variety_residual(g: KGraph, alpha) -> float:
    point = as_point(g, alpha)
    polys = variety_polys(g)
    if not polys:
        return 0.0
    return max(abs(b.evaluate(point)) for b in polys)


def in_variety(g: KGraph, alpha, tol: float = VARIETY_TOL) -> bool:
    return bool(variety_residual(g, alpha) <= tol)


def ball_norms(g: KGraph, alpha) -> tuple[float, ...]:
    point = as_point(g, alpha)
    return tuple(float(np.linalg.norm(p)) for p in point)


def in_ball(g: KGraph, alpha, open_: bool = False) -> bool:
    norms = ball_norms(g, alpha)
    if open_:
        return all(r < 1.0 for r in norms)
    return all(r <= 1.0 for r in norms)


def evaluate_word(g: KGraph, alpha, word) -> complex:
    """Letterwise substitution along any composable loop word."""
    coords = _coord_map(g, as_point(g, alpha))
    val = complex(1.0)
    for eid in reversed(tuple(word)):
        val = coords[eid] * val
    return val


# -- the eigenvector -----------------------------------------------------------


def _check_interior(g, point):
    norms = [float(np.linalg.norm(p)) for p in point]
    if not all(r < 1.0 for r in norms):  # NaN too
        raise DomainError(
            f"per-color norms {norms} must be < 1: the vector series diverges"
        )
    return norms


def omega_vector(fock, alpha) -> np.ndarray:
    """Components path(alpha) over the truncated basis, filled gradewise."""
    g = fock.graph
    point = as_point(g, alpha)
    _check_interior(g, point)
    coord = _coord_map(g, point)
    coords = np.array([coord[e.id] for e in g.edges], dtype=complex)
    parent, lead = fock.parent_links()
    vals = np.zeros(fock.dimension, dtype=complex)
    vals[:fock.prefix(0)] = 1.0
    for t in range(1, fock.trunc + 1):  # a grade past the last one built is empty
        a, b = fock.prefix(t - 1), fock.prefix(t)
        vals[a:b] = coords[lead[a:b]] * vals[parent[a:b]]
    return vals


def _truncated_norm_series(norms_sq, trunc):
    """Per-grading sums of prod r_i^{m_i} over |m| = t, t <= trunc."""
    acc = np.array([1.0])
    for r in norms_sq:
        geo = np.array([r ** t for t in range(trunc + 1)])
        acc = np.convolve(acc, geo)[: trunc + 1]
    return acc


def truncation_for_tail(norms_sq, tol: float) -> int:
    """Smallest grading bound whose neglected norm-squared tail is <= tol."""
    norms_sq = [float(r) for r in norms_sq]
    if any(r >= 1.0 for r in norms_sq):
        raise DomainError("need every per-color squared norm < 1")
    closed = float(np.prod([1.0 / (1.0 - r) for r in norms_sq]))
    layers = _truncated_norm_series(norms_sq, MAX_TAIL_GRADING)
    partial = np.cumsum(layers)
    for t in range(MAX_TAIL_GRADING + 1):
        if closed - partial[t] <= tol:
            return t
    raise DomainError(f"tail does not reach {tol} within grading {MAX_TAIL_GRADING}")


def character_truncation(norms_sq, word_budget: int, tol: float) -> int:
    """Truncation at which vector-functional values of words up to
    2*word_budget are biased by well under ``tol``."""
    return truncation_for_tail(norms_sq, tol / 8.0) + 2 * word_budget


def omega_norm_check(fock, alpha, omega=None) -> dict:
    """Compare the truncated squared norm against the closed form.

    The gap must not exceed the mathematical tail plus float slack.  A caller
    that already holds ``omega_vector(fock, alpha)`` may pass it as ``omega``.
    """
    g = fock.graph
    point = as_point(g, alpha)
    norms = _check_interior(g, point)
    norms_sq = [r * r for r in norms]
    vec = omega_vector(fock, point) if omega is None else omega
    partial = float(np.vdot(vec, vec).real)
    closed = float(np.prod([1.0 / (1.0 - r) for r in norms_sq]))
    layers = _truncated_norm_series(norms_sq, fock.trunc)
    tail = max(closed - float(layers.sum()), 0.0)
    slack = 1e-12 * closed * max(fock.dimension, 1)
    return {
        "trunc": fock.trunc,
        "partialNormSq": partial,
        "closedForm": closed,
        "tailBound": tail,
        "gap": abs(partial - closed),
        "ok": abs(partial - closed) <= tail + slack,
    }


# -- eigen relation ------------------------------------------------------------


def eigen_residual(g: KGraph, edge_id: str, alpha, trunc: int, fock=None,
                   omega=None) -> float:
    """max over delta(lambda) <= trunc-1 of |(L_e* omega)_lambda - alpha_e omega_lambda|.

    The relation is read off the edge's row of ``left`` over the interior,
    the basis prefix of grading <= N - 1, on which every entry is defined at
    one vertex.  The product alpha_e omega is taken on a copy of that prefix:
    numpy's complex multiply can round a view differently from a fresh array
    of the same values (it changed reported residuals).

    Without a space the coordinates must be constant on each colour, c_1..c_k
    (0 for a colour without loops).  Then a path of degree m has the component
    prod c_i^{m_i}, so the relation is the same on the Fock space of the
    degree lattice N^k (one loop per colour, one path per degree) at the
    point (c_i), which stays small where the basis over ``g`` would not.
    With a space, a caller that already holds ``omega_vector(fock, alpha)``
    may pass it as ``omega``.
    """
    if fock is not None and fock.graph is not g:
        raise DomainError("fock space was built over a different graph")
    point = as_point(g, alpha)
    _check_interior(g, point)
    res = variety_residual(g, point)
    if res > VARIETY_TOL:
        raise DomainError(f"point is off the variety (residual {res:.3e})")
    e = g.edge(edge_id)
    coord = _coord_map(g, point)[edge_id]

    if fock is not None:
        if fock.trunc != trunc:
            raise DomainError("fock truncation disagrees with `trunc`")
    else:
        if omega is not None:
            raise DomainError("omega needs the fock space it was built over")
        if any(np.any(part != part[:1]) for part in point):
            raise UnsupportedGraphError(
                "non-constant coordinates need an explicit fock space"
            )
        ones = (1,) * g.k
        fock = TruncatedFock(single_vertex(ones, identity_table(ones)), trunc)
        point = tuple(part[:1] if len(part) else np.zeros(1, dtype=complex) for part in point)
        edge_id = f"e{e.color}_1"
    vec = omega_vector(fock, point) if omega is None else omega
    n = fock.prefix(fock.trunc - 1)
    # (L_e* omega)_i = omega at the index of e xi_i
    adj = vec[fock.left[fock.edge_codes[edge_id], :n]]
    return float(np.abs(adj - coord * vec[:n].copy()).max(initial=0.0))


# -- characters ----------------------------------------------------------------


@dataclass
class Character:
    """A multiplicative functional presented by its coordinate point.

    Interior points also carry the normalized conjugate eigenvector, so
    arbitrary truncated operators can be evaluated; boundary points evaluate
    formally on words only.
    """

    graph: KGraph
    point: tuple
    vector: np.ndarray = None

    def on_word(self, word) -> complex:
        return evaluate_word(self.graph, self.point, word)

    @property
    def is_vector_functional(self) -> bool:
        return self.vector is not None


def character(g: KGraph, alpha, fock=None) -> Character:
    """Build the character at a point of the closed ball meeting the variety."""
    if fock is not None and fock.graph is not g:
        raise DomainError("fock space was built over a different graph")
    point = as_point(g, alpha)
    if not in_ball(g, point):
        raise DomainError("point lies outside the closed product ball")
    res = variety_residual(g, point)
    if res > VARIETY_TOL:
        raise DomainError(
            f"point is off the variety (residual {res:.3e}); no character there"
        )
    vec = None
    if fock is not None and in_ball(g, point, open_=True):
        vec = np.conj(omega_vector(fock, point))
        vec = vec / np.linalg.norm(vec)
    return Character(graph=g, point=point, vector=vec)


def multiplicativity_check(fock, alpha, grading_budget: int = 3,
                           tol: float = 1e-9, omega=None) -> dict:
    """Vector-functional multiplicativity over all word pairs up to a grading.

    Runs for any interior point, on or off the variety, so it doubles as the
    negative control: off-variety points must show a violation.  Before any
    work, a negative budget raises ``DomainError`` and one whose words x
    dimension exceeds ``MAX_CHECK_ENTRIES`` raises ``BudgetError``.  No
    matrix of that size is formed, but the bound still decides which checks
    run.  A caller that already holds ``omega_vector(fock, alpha)`` may pass
    it as ``omega``; nu is its conjugate, normalized.

    The words are the basis prefix of grading <= budget.  At one vertex every
    path composes, so L_p is defined exactly on the prefix of grading <= N - |p|,
    and L_i L_j = L_{ij} there.  So <L_i L_j nu, nu> is rho_p = <L_p nu, nu>
    at the basis path p = ij, whose index is ``left`` applied letter by letter.
    One index table per grade a holds M_a[p, q], the index of p q for p of
    grade a and q of grading <= N - a, by the module's recursion: with
    p = f p', M_a[p] is f's row of ``left`` at M_{a-1}[p'].  rho_p is conj(nu)
    at M_a[p] times nu's prefix, for every path of grading <= 2 budget, and
    the words' rows of the pair table are M_a's first columns, -1 past N.

    The residual is rounding noise: another summation order in the products,
    or a complex multiply on a view instead of a fresh array, would change its
    digits.
    """
    if grading_budget < 0:
        raise DomainError("grading budget must be >= 0")
    g = fock.graph
    point = as_point(g, alpha)
    _check_interior(g, point)
    n_words = fock.prefix(grading_budget)
    if n_words * fock.dimension > MAX_CHECK_ENTRIES:
        raise BudgetError(f"a multiplicativity matrix of {n_words} x {fock.dimension} "
                          f"entries is over {MAX_CHECK_ENTRIES}")

    vec = np.conj(omega_vector(fock, point) if omega is None else omega)
    vec = vec / np.linalg.norm(vec)

    N = fock.trunc
    parent, lead = fock.parent_links()
    nu_bar = np.conj(vec)
    top = min(2 * grading_budget, N)  # the last grade to read; a grade past the last built is empty
    M = np.arange(fock.prefix(N))[None]  # M[p, q]: index of p q; M_0, the vertex's, is the identity
    rho = []
    at = np.full((n_words, n_words), -1, dtype=np.int64)  # at[i, j]: index of i j, or -1
    for a in range(top + 1):
        lo, hi = fock.prefix(a - 1), fock.prefix(a)
        if a:  # p = f p': M[p] is f's row of ``left`` at M[p'], gathered through a flat index
            M = M[:, :fock.prefix(N - a)].take(parent[lo:hi] - fock.prefix(a - 2), axis=0)
            M += (lead[lo:hi] * fock.left.shape[1])[:, None]  # in place: no third grade-sized table
            M = fock.left.take(M)  # flat: row f of ``left`` starts at f times its width
        rho.append((nu_bar.take(M) if a else nu_bar[None]) @ vec[:M.shape[1]])
        if a <= grading_budget:  # the words' rows: columns past M's width are past N, -1
            at[lo:hi, :M.shape[1]] = M[:, :n_words]
    rho = np.append(np.concatenate(rho), 0)  # -1, i j past the truncation, reads 0
    pair = rho[at]  # pair[i, j] = <L_i L_j nu, nu>; row 0 is rho, as L_v is the identity
    rho = rho[:n_words]
    resid = np.abs(pair - np.outer(rho, rho))
    worst = float(resid.max())
    wi, wj = np.unravel_index(int(resid.argmax()), resid.shape)

    coords = _coord_map(g, point)
    lo, hi = fock.prefix(0), fock.prefix(min(grading_budget, 1))  # the one-letter words
    phi_err = max(map(abs, rho[lo:hi] - [coords[g.edges[e].id] for e in lead[lo:hi]]), default=0.0)

    return {
        "trunc": fock.trunc,
        "gradingBudget": grading_budget,
        "wordCount": n_words,
        "maxResidual": worst,
        "worstPair": [list(p.word) or [p.src] for p in (fock.basis[wi], fock.basis[wj])],
        "phiRecoveryError": float(phi_err),
        "varietyResidual": variety_residual(g, point),
        "onVariety": in_variety(g, point, tol),
        "ballNorms": list(ball_norms(g, point)),
        "multiplicativeWithin": worst <= tol,
    }


def sample_variety_points(g: KGraph, count: int, seed, max_norm: float = 0.5):
    """Seeded interior points of the variety.

    Colors touched by a nontrivial binomial get equal coordinates (any such
    point kills every mixed binomial exactly); untouched colors are sampled
    freely on a sphere of the drawn radius.
    """
    _require_single_vertex(g)
    layout = color_layout(g)
    constrained = set()
    for b in variety_polys(g):
        constrained.add(b.i)
        constrained.add(b.j)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        parts = []
        for c in range(1, g.k + 1):
            size = len(layout[c])
            if size == 0:
                parts.append(np.zeros(0, dtype=complex))
                continue
            radius = max_norm * rng.uniform(0.3, 1.0)
            if c in constrained:
                phase = np.exp(2j * np.pi * rng.uniform())
                t = radius / np.sqrt(size) * phase
                parts.append(np.full(size, t, dtype=complex))
            else:
                z = rng.normal(size=size) + 1j * rng.normal(size=size)
                parts.append(z / np.linalg.norm(z) * radius)
        points.append(tuple(parts))
    return points
