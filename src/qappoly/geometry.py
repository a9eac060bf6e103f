"""Exact dimension and span computations over vertex sets.

Vertices live in the (n**4 + n**2)/2-dimensional upper-triangular coordinate
space, but only coordinates that some vertex can make nonzero (all diagonal
cells, plus off-diagonal cells with distinct rows and distinct columns) are
carried in the matrices; identically-zero coordinates never affect a rank.

Every dimension and span verdict is proven, by one route:
``modrank.lifted_kernel`` of the vertex set from equations already proven
on it.  ``hull_equations`` holds the integer affine-hull equations E,
checked exactly on every vertex.  The kernel eliminates one seeded subset
mod one prime, at the columns where the known equations' echelon form has
no pivot (every vertex satisfies them, so the rest follow), and lifts only
the kernel rows beyond the known equations, checked exactly on every
vertex of the set; the subset's rank meets the bound they give
(``modrank.RankCertificate``).  The polytope starts from E.  A valid
form's tight set starts from E and, where some vertex has positive slack,
the form's own equation made homogeneous ("proper face": dim(P) - 1 at
most, so a facet needs no extras).  The span lemmas decide
membership against E and the generators' extras, each generator set's
sampled targets in one batch.  A dimension whose lift
does not pass is still proven when its vertices are independent mod the
prime, so independent over Q ("independent points"); any other verdict
without a proof is refused as unproven.

The S_k classes, S_0 connectivity and the span lemmas read a per-n
``VertexSpace`` cache: each vertex once, as an int8 one-line image in
lexicographic order, unranked by ``inequalities.index_unrank``, so its
index is its Lehmer rank (``index_of``, by ``index_rank``; also used for
``neighbours``).  The int8 0/1 match matrix ``zt`` derived from the images
gives ``rows`` (int8 vertex rows, built only for drawn subsets and widened
by ``modrank`` only inside elimination); ``entries_on_match_rows`` reads
every sparse form on a vertex set from it, E and the extras included.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, DimensionMismatchError, InvalidPermutationError, QappolyError
from .indexing import EntryKey, Pair, flat_index, pair_from_flat, triangle_dimension
from .inequalities import (
    LinearForm,
    Qap4Params,
    entries_on_match_rows,
    index_rank,
    index_unrank,
    match_matrix,
)
from .modrank import (
    PRIME_POOL,
    ModularSpanBasis,
    ProvenEquations,
    RankCertificate,
    RankReport,
    lifted_kernel,
    rank_exact_rational,
    rank_mod_p,
)
from .perms import DEFAULT_ENUMERATION_CAP, Permutation, apply_transposition


@dataclass(frozen=True)
class MatchPattern:
    """The (i_r, j_r) pairs whose match count classifies a vertex into S_k."""

    pairs: tuple[Pair, ...]

    def __post_init__(self):
        if not self.pairs:
            # an empty pattern puts every vertex in S_0 and proves nothing
            raise QappolyError("a match pattern needs at least one pair")
        i_vals = [i for i, _ in self.pairs]
        j_vals = [j for _, j in self.pairs]
        if len(set(i_vals)) != len(i_vals) or len(set(j_vals)) != len(j_vals):
            raise QappolyError("pattern pairs need distinct i's and distinct j's")

    @property
    def m(self) -> int:
        return len(self.pairs)

    @classmethod
    def diagonal(cls, m: int) -> "MatchPattern":
        """The canonical pattern i_r = j_r = r."""
        return cls(tuple((r, r) for r in range(1, m + 1)))

    @classmethod
    def from_qap4(cls, params: Qap4Params) -> "MatchPattern":
        return cls(tuple(zip(params.i_set, params.j_set)))


# ---------------------------------------------------------------------------
# vertex space cache


@lru_cache(maxsize=4)
def _support_cells(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two flat cells (0-based) of each support coordinate: the diagonal
    cells (f, f) in flat order, then the off-diagonal pairs f1 < f2 with
    distinct rows and distinct columns, in lexicographic order."""
    cells = np.arange(n * n)
    row, col = np.divmod(cells, n)
    f1, f2 = np.triu_indices(n * n, k=1)
    keep = (row[f1] != row[f2]) & (col[f1] != col[f2])
    return np.concatenate([cells, f1[keep]]), np.concatenate([cells, f2[keep]])


@lru_cache(maxsize=4)
def _pair_columns(n: int) -> np.ndarray:
    """The support column of each pair of flat cells (0-based), in either
    order; -1 off the support, where two cells share a row or a column."""
    first, second = _support_cells(n)
    columns = np.full((n * n, n * n), -1)
    columns[first, second] = columns[second, first] = np.arange(first.size)
    columns.flags.writeable = False   # cached: shared by every caller
    return columns


@dataclass
class VertexSpace:
    """The n! vertices at size n, in lexicographic order of their images."""

    n: int
    images: np.ndarray   # (n!, n) int8 one-line images, one vertex per row
    zt: np.ndarray       # (n*n, n!) int8 match indicators, one vertex per column

    def index_of(self, images) -> np.ndarray:
        """Vertex index of each one-line image: its lexicographic rank, the
        Lehmer rank of the n-permutation image - 1 (``index_rank``)."""
        return index_rank(np.asarray(images) - 1, self.n, ordered=True)

    def neighbours(self, idx) -> np.ndarray:
        """Index of the vertex one transposition (x, y) away from each vertex
        at ``idx``: one column per (x, y), in ``combinations`` order."""
        images = self.images[idx]
        out = np.empty((len(images), self.n * (self.n - 1) // 2), dtype=np.int64)
        for column, (x, y) in enumerate(itertools.combinations(range(self.n), 2)):
            swapped = images.copy()
            swapped[:, [x, y]] = images[:, [y, x]]
            out[:, column] = self.index_of(swapped)
        return out

    def rows(self, idx) -> np.ndarray:
        """int8 rows of the vertices at ``idx`` over the support coordinates
        (``_support_cells``), each the product of its two match indicators."""
        z = self.zt[:, idx].T
        first, second = _support_cells(self.n)
        return z[:, first] * z[:, second]

    def match_counts(self, pattern: MatchPattern) -> np.ndarray:
        """S_k index of every vertex: its number of matched pattern pairs."""
        return entries_on_match_rows(self.zt, [(flat_index(self.n, i, j),) * 2 + (1,)
                                               for i, j in pattern.pairs])

    def one_line(self, row) -> str:
        """``Permutation.one_line`` of the vertex at ``row``, none built."""
        return " ".join(map(str, self.images[row].tolist()))


@lru_cache(maxsize=3)
def vertex_space(n: int) -> VertexSpace:
    if n < 1:
        raise InvalidPermutationError(f"n must be positive, got {n}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise CapExceededError(f"n={n}: the vertex table is built only for "
                               f"n <= {DEFAULT_ENUMERATION_CAP}, whatever the enumeration cap")
    images = index_unrank(np.arange(math.factorial(n)), n, n, ordered=True) + 1
    return VertexSpace(n=n, images=images, zt=match_matrix(images))


def _vertex_rows(vertices) -> tuple[VertexSpace, np.ndarray]:
    for v in vertices:
        if not isinstance(v, Permutation):
            raise QappolyError(f"expected a permutation, got {type(v).__name__}")
    images = [v.image for v in vertices]
    if len({len(image) for image in images}) > 1:
        raise DimensionMismatchError("all vertices must share the same n")
    space = vertex_space(len(images[0]))
    return space, space.index_of(images)


# ---------------------------------------------------------------------------
# affine dimension and facet verification


def affine_dim(vertices, certify: bool = False) -> RankReport:
    """Affine dimension of a vertex set, proven as every dimension is:
    ``_proven_rank`` of its distinct vertices from ``hull_equations``, then
    ``_certified`` under ``certify``.  Raises "unproven" or "certification
    mismatch" like ``verify_facet``."""
    vertices = list(vertices)
    if not vertices:
        raise QappolyError("affine_dim of an empty vertex set")
    space, idx = _vertex_rows(vertices)
    idx = np.unique(idx)
    report = _proven_rank(space, idx, hull_equations(space.n), "vertices")
    return _certified(space, idx, report) if certify else report


@lru_cache(maxsize=4)
def affine_hull_equations(n: int) -> np.ndarray:
    """Integer equations that every vertex satisfies, as int8 rows over the
    support coordinates of ``VertexSpace.rows``.

    They are the affine-hull equations of the symmetric QAP polytope (Jünger
    and Kaibel, SIAM J. Optim. 2000), made homogeneous with the diagonal
    sum, which is n on every vertex:

    * n times each row sum, and each column sum, of the diagonal cells
      equals the diagonal sum;
    * for each cell (i,j) and each row k != i, Y[ij,kl] summed over l equals
      Y[ij,ij]; likewise for each column l != j, summed over k.
    """
    cells = n * n
    columns = _support_cells(n)[0].size
    pair_column = _pair_columns(n)
    blocks = []
    for line_of in np.divmod(np.arange(cells), n):   # each cell's row, column
        sums = np.zeros((n, columns), dtype=np.int8)
        sums[:, :cells] = n * (line_of == np.arange(n)[:, None]) - 1
        members = np.argsort(line_of, kind="stable").reshape(n, n)
        cell, line = np.divmod(np.arange(cells * n), n)
        keep = line != line_of[cell]
        cell, line = cell[keep], line[keep]
        sums_over = np.zeros((cell.size, columns), dtype=np.int8)
        partner = pair_column[cell[:, None], members[line]]
        equation = np.broadcast_to(np.arange(cell.size)[:, None], partner.shape)
        in_support = partner >= 0   # a partner sharing the other line is off it
        sums_over[equation[in_support], partner[in_support]] = 1
        sums_over[np.arange(cell.size), cell] = -1
        blocks += [sums, sums_over]
    equations = np.concatenate(blocks)
    equations.flags.writeable = False   # cached: shared by every caller
    return equations


def _missed(zt: np.ndarray, n: int, equations: np.ndarray) -> np.ndarray:
    """Columns (vertices) of the match matrix ``zt`` where some equation is
    nonzero, exactly: ``entries_on_match_rows`` of its (f1, f2, c) entries."""
    first, second = (cells + 1 for cells in _support_cells(n))
    failing = np.zeros(zt.shape[1], dtype=bool)
    for equation in equations:
        columns = np.flatnonzero(equation)
        entries = zip(*(part[columns].tolist() for part in (first, second, equation)))
        failing |= entries_on_match_rows(zt, entries) != 0
    return np.flatnonzero(failing)


@dataclass(frozen=True)
class _VertexSet:
    """The vertices at the index array ``idx`` as ``lifted_kernel`` reads
    them: rows built only where asked for, and an exact equation check."""

    space: VertexSpace
    idx: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.idx.size, _support_cells(self.space.n)[0].size

    def __getitem__(self, positions) -> np.ndarray:
        return self.space.rows(self.idx[positions])

    def missed(self, equations: np.ndarray) -> np.ndarray:
        return _missed(self.space.zt[:, self.idx], self.space.n, equations)


def _require_vanishing(space: VertexSpace, equations: np.ndarray) -> None:
    """Raise unless every equation vanishes on every vertex, exactly."""
    failing = _missed(space.zt, space.n, equations)
    if failing.size:
        raise QappolyError(f"an equation does not vanish on sigma = {space.one_line(failing[0])}")


@lru_cache(maxsize=4)
def hull_equations(n: int) -> ProvenEquations:
    """``affine_hull_equations(n)`` checked on every vertex (cached per n),
    where every proven rank starts: the polytope's, each tight set's and
    each span generator set's."""
    _require_vanishing(vertex_space(n), affine_hull_equations(n))
    return ProvenEquations(affine_hull_equations(n), PRIME_POOL[0])


def _proven_rank(space: VertexSpace, idx: np.ndarray, known: ProvenEquations,
                 what: str) -> RankReport:
    """The affine rank of the vertices ``idx``, proven by their lifted
    kernel from ``known`` (the diagonal sum is n on every vertex, so it is
    their linear rank - 1), reported at the certificate's one prime.  Where
    no lift passes, distinct vertices independent mod the prime are
    independent over Q ("independent points"); else raises "unproven"."""
    points = _VertexSet(space, idx)
    lifted = lifted_kernel(points, known)
    if lifted is not None:
        _, proof = lifted
    elif rank_mod_p(space.rows(idx), known.prime) == idx.size:
        proof = RankCertificate(kind="independent points", columns=points.shape[1],
                                equation_rows=0, equation_rank=0, prime=known.prime,
                                subset_rows=idx.size)
    else:
        raise QappolyError(f"unproven: no lifted kernel of the {idx.size} {what} passes")
    return RankReport(row_count=proof.subset_rows, column_dimension=triangle_dimension(space.n),
                      ranks=[(proof.prime, proof.bound)], consensus_rank=proof.bound,
                      certificate=proof)


@lru_cache(maxsize=4)
def polytope_affine_dim(n: int) -> RankReport:
    """Affine dimension of the whole polytope at size n, proven by the
    lifted kernel of every vertex from ``hull_equations(n)`` (cached per n)."""
    space = vertex_space(n)
    return _proven_rank(space, np.arange(len(space.images)), hull_equations(n), "vertices")


def _form_equation(form: LinearForm) -> np.ndarray:
    """The form's equation lhs = rhs made homogeneous like the hull
    equations, n·lhs - rhs·(diagonal sum), as an int64 row over the support
    columns.  Entries off the support are dropped: they are 0 on every vertex."""
    n = form.n
    f1, f2, coeffs = np.array(form.entries(), dtype=np.int64).reshape(-1, 3).T
    columns = _pair_columns(n)[f1 - 1, f2 - 1]
    on = columns >= 0
    row = np.zeros(_support_cells(n)[0].size, dtype=np.int64)
    row[:n * n] = -form.rhs
    np.add.at(row, columns[on], n * coeffs[on])
    return row


def _certified(space: VertexSpace, idx: np.ndarray, report: RankReport) -> RankReport:
    """A copy of ``report``, the proven affine rank of the vertices ``idx``,
    once integer elimination with content removal of their differences
    (``rank_exact_rational``) gives the same rank; raises "certification
    mismatch" when it does not."""
    rows = space.rows(idx)
    exact = rank_exact_rational(rows - rows[0])
    if exact != report.consensus_rank:
        raise QappolyError(
            f"certification mismatch: exact integer elimination gives affine "
            f"rank {exact} for {idx.size} vertices, the proof {report.consensus_rank}")
    return replace(report, status="ok (certified over Q)")


@dataclass
class FacetReport:
    verdict: str                # "facet" or "not facet"
    n: int
    tight_count: int
    polytope_dim: int
    tight_dim: int              # -1 for an empty tight set
    polytope_rank: RankReport
    tight_rank: RankReport | None


def verify_facet(form: LinearForm, n: int, certify: bool = False) -> FacetReport:
    """Decide facet-ness: valid everywhere and the tight vertices span an
    affine subspace of dimension exactly one less than the polytope's.

    Both dimensions are proven by a lifted kernel (``_proven_rank``).  For
    the tight set it starts from the hull equations and, where some vertex
    has positive slack, the form's own equation, checked exactly on every
    tight vertex first ("proper face" when nothing more is lifted, which
    proves a facet); a form tight everywhere starts from the hull equations
    alone.  Where no lift passes, the verdict is refused as unproven.  With
    ``certify``, integer elimination with content removal of the differences
    over every vertex and over the tight set must then confirm both proven
    dimensions.
    """
    if form.n != n:
        raise DimensionMismatchError(f"form has n={form.n}, expected {n}")
    space = vertex_space(n)
    slack = form.scaled_slack_on_match_rows(space.zt)
    bad = np.nonzero(slack < 0)[0]
    if bad.size:
        raise QappolyError(
            f"form is not valid: violated by sigma = {space.one_line(bad[0])}")
    full = polytope_affine_dim(n)
    if certify:
        full = _certified(space, np.arange(len(space.images)), full)
    tight_rows = np.nonzero(slack == 0)[0]
    if tight_rows.size == 0:
        return FacetReport(verdict="not facet", n=n, tight_count=0,
                           polytope_dim=int(full.consensus_rank), tight_dim=-1,
                           polytope_rank=full, tight_rank=None)
    known = hull_equations(n)
    if slack.any():
        # a vertex of positive slack: the form's equation, which vanishes on
        # the tight set, is independent of the hull equations
        equation = _form_equation(form)
        missed = _VertexSet(space, tight_rows).missed(equation[None])
        if missed.size:
            raise QappolyError(f"the form's equation does not vanish on the tight vertex "
                               f"sigma = {space.one_line(tight_rows[missed[0]])}")
        known = known.with_equation(equation, "proper face")
    tight_report = _proven_rank(space, tight_rows, known, "tight vertices")
    if certify:
        tight_report = _certified(space, tight_rows, tight_report)
    verdict = ("facet"
               if tight_report.consensus_rank == full.consensus_rank - 1
               else "not facet")
    return FacetReport(verdict=verdict, n=n, tight_count=int(tight_rows.size),
                       polytope_dim=int(full.consensus_rank),
                       tight_dim=int(tight_report.consensus_rank),
                       polytope_rank=full, tight_rank=tight_report)


@dataclass
class EqualitySetReport:
    n: int
    m: int
    ok: bool
    tight_count: int
    sizes_by_k: dict[int, int]
    mismatches: list[str] = field(default_factory=list)


def check_equality_set(form: LinearForm, n: int) -> EqualitySetReport:
    """Exhaustively confirm: a vertex is tight for the qap4 form exactly
    when its pattern match count is 1 or 2."""
    if not isinstance(form.params, Qap4Params):
        raise QappolyError("equality-set check expects a qap4-built form")
    pattern = MatchPattern.from_qap4(form.params)
    space = vertex_space(n)
    slack = form.scaled_slack_on_match_rows(space.zt)
    k_of = space.match_counts(pattern)
    sizes = {int(k): int((k_of == k).sum()) for k in range(pattern.m + 1)}
    tight = slack == 0
    mismatch_rows = np.flatnonzero(tight != np.isin(k_of, (1, 2)))
    mismatches = [space.one_line(r) for r in mismatch_rows[:5]]
    return EqualitySetReport(n=n, m=pattern.m, ok=mismatch_rows.size == 0,
                             tight_count=int(tight.sum()), sizes_by_k=sizes,
                             mismatches=mismatches)


# ---------------------------------------------------------------------------
# signed-sum identities


@dataclass
class Identity1Report:
    is_zero: bool
    disagreement_indices: tuple[int, ...]
    term_count: int
    nonzero_entries: dict


def _signed_entry_sum(images, signs) -> dict[EntryKey, int]:
    """The nonzero entries (f1, f2), f1 <= f2, of the signed sum of the
    vertices of one-line ``images``.  A vertex's ones are the pairs a <= b
    of its n flat indices n(i-1) + sigma(i), which increase with i, so no
    matrix of the (n**4 + n**2)/2 coordinates is ever built."""
    images = np.asarray(images, dtype=np.int64)
    n = images.shape[1]
    flats = n * np.arange(n) + images
    a, b = np.triu_indices(n)
    keys, inverse = np.unique(flats[:, a] * (n * n + 1) + flats[:, b], return_inverse=True)
    total = np.bincount(inverse.ravel(), weights=np.repeat(signs, a.size)).astype(np.int64)
    hit = np.flatnonzero(total)
    f1, f2 = np.divmod(keys[hit], n * n + 1)
    return dict(zip(zip(f1.tolist(), f2.tolist()), total[hit].tolist()))


def make_identity1_family(base: Permutation, k1: int, k2: int, k3: int) -> list[Permutation]:
    """The six permutations arranging base's values at positions k1,k2,k3
    in every possible way, identical elsewhere."""
    positions = (k1, k2, k3)
    values = tuple(base(p) for p in positions)
    out = []
    for arranged in itertools.permutations(values):
        img = list(base.image)
        for pos, val in zip(positions, arranged):
            img[pos - 1] = val
        out.append(Permutation(tuple(img)))
    return out


def check_identity1(sigmas, x: int, y: int) -> Identity1Report:
    """Verify that the 12-term signed sum of vertices vanishes entrywise.

    The six input permutations must agree outside three common indices;
    their transpositions at (x, y) supply the other six terms, and each
    term is weighted by the permutation's parity.
    """
    sigmas = list(sigmas)
    if len(sigmas) != 6:
        raise QappolyError(f"identity needs exactly 6 permutations, got {len(sigmas)}")
    n = sigmas[0].n
    if any(s.n != n for s in sigmas):
        raise DimensionMismatchError("permutations have mixed sizes")
    if len({s.image for s in sigmas}) != 6:
        raise QappolyError("the six permutations must be pairwise distinct")
    disagree = tuple(i for i in range(1, n + 1)
                     if len({s(i) for s in sigmas}) > 1)
    if len(disagree) != 3:
        raise QappolyError(
            f"permutations must agree outside exactly three indices, "
            f"found disagreement at {disagree}")
    if x == y or x in disagree or y in disagree or not (1 <= x <= n and 1 <= y <= n):
        raise QappolyError(
            f"transposition indices ({x},{y}) must be distinct, in range, and "
            f"disjoint from the disagreement indices {disagree}")
    family = sigmas + [apply_transposition(s, x, y) for s in sigmas]
    nonzero = _signed_entry_sum([s.image for s in family], [s.sign() for s in family])
    return Identity1Report(is_zero=not nonzero, disagreement_indices=disagree,
                           term_count=len(family), nonzero_entries=nonzero)


@dataclass
class Identity2Report:
    nonzero_count: int          # over the full symmetric matrix
    plus_count: int
    minus_count: int
    affected_entries: tuple     # canonical ((a,b),(x,y)) index pairs
    affected_flats: tuple


def make_identity2_chain(sigma1: Permutation, i: int, j: int,
                         ip: int, jp: int) -> tuple[Permutation, ...]:
    s2 = apply_transposition(sigma1, i, j)
    s3 = apply_transposition(s2, ip, jp)
    s4 = apply_transposition(s3, i, j)
    return sigma1, s2, s3, s4


def check_identity2(s1: Permutation, s2: Permutation, s3: Permutation,
                    s4: Permutation, i: int, j: int, ip: int, jp: int) -> Identity2Report:
    """Census of (P(s1) - P(s2)) - (P(s4) - P(s3)).

    The chain must be s2 = s1 swapped at (i,j), s3 = s2 swapped at (i',j'),
    s4 = s3 swapped at (i,j), with {i',j'} disjoint from {i,j}; then the
    difference has a nonzero pattern independent of n.
    """
    n = s1.n
    if i == j or ip == jp or {ip, jp} & {i, j}:
        raise QappolyError(
            f"need distinct swap positions with {{i',j'}} disjoint from {{i,j}}; "
            f"got ({i},{j}) and ({ip},{jp})")
    if s2 != apply_transposition(s1, i, j) or \
       s3 != apply_transposition(s2, ip, jp) or \
       s4 != apply_transposition(s3, i, j):
        raise QappolyError("permutation chain does not follow the required swaps")
    nonzero = _signed_entry_sum([s1.image, s2.image, s3.image, s4.image], [1, -1, 1, -1])
    # an off-diagonal entry counts in both orientations of the full matrix
    weight = {(f1, f2): 1 if f1 == f2 else 2 for f1, f2 in nonzero}
    plus = sum(w for key, w in weight.items() if nonzero[key] > 0)
    count = sum(weight.values())
    affected = tuple(sorted(
        (pair_from_flat(n, f1), pair_from_flat(n, f2)) for f1, f2 in nonzero))
    return Identity2Report(nonzero_count=count, plus_count=plus,
                           minus_count=count - plus, affected_entries=affected,
                           affected_flats=tuple(sorted(nonzero)))


# ---------------------------------------------------------------------------
# S_0 connectivity


@dataclass
class S0ConnectivityReport:
    n: int
    pattern: MatchPattern
    size: int
    component_count: int
    connected: bool
    status: str  # "ok" or "vacuous"


def check_s0_connectivity(n: int, pattern: MatchPattern) -> S0ConnectivityReport:
    """Connectivity of the graph on S_0 whose edges join permutations one
    transposition apart (both endpoints avoiding every pattern pair), found by
    labels that fall to the least over each edge and jump until none moves."""
    space = vertex_space(n)
    members = _class_rows(space, pattern)[0]
    if not members.size:
        return S0ConnectivityReport(n=n, pattern=pattern, size=0,
                                    component_count=0, connected=False,
                                    status="vacuous")
    own = np.arange(members.size)
    position = np.full(len(space.images), -1)
    position[members] = own
    links = position[space.neighbours(members)]   # a member's S_0 neighbours,
    links = np.where(links < 0, own[:, None], links)   # itself for the others
    label, lower = None, own
    while not np.array_equal(lower, label):
        label = lower
        lower = np.minimum(label, label[links].min(axis=1))
        while not np.array_equal(lower[lower], lower):
            lower = lower[lower]
    components = int((label == own).sum())
    return S0ConnectivityReport(n=n, pattern=pattern, size=int(members.size),
                                component_count=components,
                                connected=components == 1, status="ok")


# ---------------------------------------------------------------------------
# span membership and the span lemmas


def _class_rows(space: VertexSpace, pattern: MatchPattern) -> dict[int, np.ndarray]:
    """Vertex rows of each S_k, k = 0..m, in enumeration order."""
    if any(not 1 <= v <= space.n for pair in pattern.pairs for v in pair):
        raise QappolyError(f"pattern pairs {pattern.pairs} must lie in [1, {space.n}]")
    counts = space.match_counts(pattern)
    return {k: np.flatnonzero(counts == k) for k in range(pattern.m + 1)}


@dataclass
class SpanLemmaReport:
    lemma: str
    n: int
    samples: int
    member_count: int
    all_member: bool
    seed: int
    details: dict = field(default_factory=dict)
    # one per generator set (in ascending k where there are several)
    certificates: list[RankCertificate] = field(default_factory=list)


def _sample_span_lemma(lemma: str, space: VertexSpace, generators, draw,
                       samples: int, seed: int, targets=None) -> SpanLemmaReport:
    """Count the sampled targets that lie in their generators' span.

    ``generators`` holds the vertex rows spanning the targets, or a dict of
    them per class k, cycled through sample by sample and reported as
    samples per k.  ``draw(rng, k)`` draws one target as vertex indices.
    Every draw is made first, in sample order, and then each generator
    set's targets are built in one ``targets(drawn)`` call (``space.rows``
    unless given) and decided in one ``contains`` call.  Each generator
    set's certificate makes every verdict against it exact.
    """
    per_k = isinstance(generators, dict)
    bases = {k: ModularSpanBasis(_VertexSet(space, rows), hull_equations(space.n))
             for k, rows in (generators if per_k else {None: generators}).items()}
    keys = list(bases)
    drawn = {key: [] for key in keys}
    rng = random.Random(seed)
    for s in range(samples):
        key = keys[s % len(keys)]
        drawn[key].append(draw(rng, key))
    build = targets or space.rows
    member_count = sum(int(bases[key].contains(build(drawn[key])).sum())
                       for key in keys if drawn[key])
    counts = {key: len(drawn[key]) for key in keys}
    return SpanLemmaReport(lemma=lemma, n=space.n, samples=samples,
                           member_count=member_count,
                           all_member=member_count == samples, seed=seed,
                           details={"samples_per_k": counts} if per_k else {},
                           certificates=[basis.certificate for basis in bases.values()])


def verify_skasnxt4(n: int, pattern: MatchPattern | None = None, samples: int = 200,
                    seed: int = 0) -> SpanLemmaReport:
    """Sampled check: every vertex in S_k (k >= 4) lies in the span of
    S_{k-1} .. S_{k-4}."""
    pattern = pattern or MatchPattern.diagonal(n)
    space = vertex_space(n)
    classes = _class_rows(space, pattern)
    ks = [k for k in range(4, pattern.m + 1) if classes[k].size]
    if not ks:
        raise QappolyError(f"no vertex lies in any S_k with k >= 4 for a "
                           f"pattern of {pattern.m} pairs")
    generators = {k: np.concatenate([classes[k - d] for d in (1, 2, 3, 4)])
                  for k in ks}
    return _sample_span_lemma(
        "s_k in span of the four sets below", space, generators,
        lambda rng, k: rng.choice(classes[k]), samples, seed)


def verify_s3ss0(n: int, pattern: MatchPattern | None = None, samples: int = 200,
                 seed: int = 0) -> SpanLemmaReport:
    """Sampled check: every vertex in S_3 lies in span(S_1, S_2, S_0)."""
    pattern = pattern or MatchPattern.diagonal(n)
    space = vertex_space(n)
    classes = _class_rows(space, pattern)
    if pattern.m < 3 or not classes[3].size:
        raise QappolyError(f"S_3 is empty for a pattern of {pattern.m} pairs")
    return _sample_span_lemma(
        "s_3 in span of S, S_0", space,
        np.concatenate([classes[1], classes[2], classes[0]]),
        lambda rng, _: rng.choice(classes[3]), samples, seed)


def verify_szeroins(n: int, pattern: MatchPattern | None = None, samples: int = 200,
                    seed: int = 0) -> SpanLemmaReport:
    """Sampled check: differences of S_0 neighbors (one transposition apart,
    both in S_0) lie in span(S_1, S_2); the pattern needs m >= 7."""
    pattern = pattern or MatchPattern.diagonal(n)
    space = vertex_space(n)
    classes = _class_rows(space, pattern)
    s0 = classes[0]
    links = space.neighbours(s0)
    linked = np.isin(links, s0)
    if not linked.any():
        raise QappolyError(f"no S_0 vertex has an S_0 neighbour at n={n} for a "
                           f"pattern of {pattern.m} pairs")

    def draw(rng, _):
        while True:  # redraw an S_0 vertex without an S_0 neighbour
            row = rng.randrange(s0.size)
            neighbours = links[row][linked[row]]
            if neighbours.size:
                return s0[row], rng.choice(neighbours)

    def differences(pairs):
        rows = space.rows(np.ravel(pairs))   # both ends of every pair at once
        return rows[0::2] - rows[1::2]

    return _sample_span_lemma(
        "S_0 neighbor differences in span(S)", space,
        np.concatenate([classes[k] for k in (1, 2) if k in classes]),
        draw, samples, seed, differences)
