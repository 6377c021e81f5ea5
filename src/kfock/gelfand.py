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

from .errors import DomainError, UnsupportedGraphError
from .kgraph import KGraph, Path, degree_vectors

__all__ = [
    "VarietyBinomial",
    "Character",
    "as_point",
    "conjugate_point",
    "variety_polys",
    "variety_residual",
    "in_variety",
    "in_ball",
    "ball_norms",
    "evaluate_word",
    "evaluate_path",
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


def conjugate_point(point):
    return tuple(np.conj(p) for p in point)


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
    return variety_residual(g, alpha) <= tol


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


def evaluate_path(g: KGraph, alpha, path: Path) -> complex:
    """Evaluation of a canonical path (an identity evaluates to 1)."""
    return evaluate_word(g, alpha, path.word)


# -- the eigenvector -----------------------------------------------------------


def _check_interior(g, point):
    norms = [float(np.linalg.norm(p)) for p in point]
    if any(r >= 1.0 for r in norms):
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
    vals[fock.grade_indices(0)] = 1.0
    for t in range(1, fock.trunc + 1):
        idx = fock.grade_indices(t)
        vals[idx] = coords[lead[idx]] * vals[parent[idx]]
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


def omega_norm_check(fock, alpha) -> dict:
    """Compare the truncated squared norm against the closed form.

    The gap must not exceed the mathematical tail plus float slack.
    """
    g = fock.graph
    point = as_point(g, alpha)
    norms = _check_interior(g, point)
    norms_sq = [r * r for r in norms]
    vec = omega_vector(fock, point)
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


def _constant_coordinates(point):
    """Per-color constant value when every coordinate is the same float."""
    out = []
    for part in point:
        if len(part) == 0:
            out.append(complex(0.0))
        elif np.all(part == part[0]):
            out.append(complex(part[0]))
        else:
            return None
    return out


def eigen_residual(g: KGraph, edge_id: str, alpha, trunc: int, fock=None) -> float:
    """max over delta(lambda) <= trunc-1 of |(L_e* omega)_lambda - alpha_e omega_lambda|.

    With a Fock space this is the literal sparse computation.  Without one,
    constant per-color coordinates make all components of one degree class
    equal, so the maximum over the classes is the same quantity (up to
    last-ulp rounding of the scalar vs vectorized multiplies); that route
    handles truncations whose basis would be too large to hold.
    """
    point = as_point(g, alpha)
    _check_interior(g, point)
    res = variety_residual(g, point)
    if res > VARIETY_TOL:
        raise DomainError(f"point is off the variety (residual {res:.3e})")
    e = g.edge(edge_id)

    if fock is not None:
        if fock.trunc != trunc:
            raise DomainError("fock truncation disagrees with `trunc`")
        vec = omega_vector(fock, point)
        coord = _coord_map(g, point)[edge_id]
        idx = fock.interior_indices(1)
        if len(idx) == 0:
            return 0.0
        # (L_e* omega)_i = omega at the index of e xi_i, read off the table
        adj = np.append(vec, 0.0)[fock.left[fock.edge_codes[edge_id], idx]]
        return float(np.abs(adj - coord * vec[idx]).max())

    consts = _constant_coordinates(point)
    if consts is None:
        raise UnsupportedGraphError(
            "non-constant coordinates need an explicit fock space"
        )
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

    def on_path(self, path: Path) -> complex:
        return evaluate_path(self.graph, self.point, path)

    def generator_values(self) -> dict:
        coords = _coord_map(self.graph, self.point)
        return dict(sorted(coords.items()))

    @property
    def is_vector_functional(self) -> bool:
        return self.vector is not None

    def on_operator(self, op) -> complex:
        if self.vector is None:
            raise DomainError(
                "boundary characters act on words only; no vector realization"
            )
        return complex(np.vdot(self.vector, op.matrix @ self.vector))


def character(g: KGraph, alpha, fock=None) -> Character:
    """Build the character at a point of the closed ball meeting the variety."""
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
        vec = omega_vector(fock, conjugate_point(point))
        vec = vec / np.linalg.norm(vec)
    return Character(graph=g, point=point, vector=vec)


def multiplicativity_check(fock, alpha, grading_budget: int = 3,
                           tol: float = 1e-9) -> dict:
    """Vector-functional multiplicativity over all word pairs up to a grading.

    Runs for any interior point, on or off the variety, so it doubles as the
    negative control: off-variety points must show a violation.
    """
    g = fock.graph
    point = as_point(g, alpha)
    _check_interior(g, point)
    from .fock import left_op

    vec = omega_vector(fock, conjugate_point(point))
    vec = vec / np.linalg.norm(vec)

    words = [fock.basis[i] for i in np.flatnonzero(fock.deltas <= grading_budget)]
    mats = [left_op(fock, p).matrix for p in words]
    dim = fock.dimension
    U = np.empty((len(words), dim), dtype=complex)
    Y = np.empty((len(words), dim), dtype=complex)
    for i, m in enumerate(mats):
        U[i] = m @ vec
        Y[i] = m.T @ vec
    rho = np.conj(vec) @ U.T  # rho[i] = <L_i nu, nu>
    pair = np.conj(Y) @ U.T  # pair[i, j] = <L_i L_j nu, nu>
    resid = np.abs(pair - np.outer(rho, rho))
    worst = float(resid.max())
    wi, wj = np.unravel_index(int(resid.argmax()), resid.shape)

    coords = _coord_map(g, point)
    phi_err = 0.0
    for i, p in enumerate(words):
        if p.delta == 1:
            phi_err = max(phi_err, abs(rho[i] - coords[p.word[0]]))

    return {
        "trunc": fock.trunc,
        "gradingBudget": grading_budget,
        "wordCount": len(words),
        "maxResidual": worst,
        "worstPair": [list(words[wi].word) or [words[wi].src],
                      list(words[wj].word) or [words[wj].src]],
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
