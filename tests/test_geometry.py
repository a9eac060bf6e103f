import itertools
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from oracle_streams import classify_vertex, vertex_entries

from qappoly.errors import QappolyError
from qappoly.geometry import (
    MatchPattern,
    _signed_entry_sum,
    affine_dim,
    check_identity1,
    check_identity2,
    check_s0_connectivity,
    hull_equations,
    make_identity1_family,
    make_identity2_chain,
    vertex_space,
)
from qappoly.indexing import pair_from_flat
from qappoly.inequalities import Qap2Params, build_qap2
from qappoly.modrank import (
    PRIME_POOL,
    ModularSpanBasis,
    _echelonize_mod_p,
    rank_consensus,
    rank_exact_rational,
    rank_mod_p,
)
from qappoly.perms import Permutation, apply_transposition, enumerate_permutations


# ---------------------------------------------------------------------------
# classification


def test_classify_identity_pattern():
    pattern = MatchPattern.diagonal(7)
    assert classify_vertex(Permutation.identity(7), pattern) == 7
    derangement = Permutation((2, 3, 4, 5, 6, 7, 1))
    assert classify_vertex(derangement, pattern) == 0


def test_classification_partitions_everything():
    pattern = MatchPattern.diagonal(6)
    counts = vertex_space(6).match_counts(pattern)
    assert counts.size == 720
    # fixed-point census: C(6,k) * derangements(6-k)
    assert np.bincount(counts, minlength=7).tolist() == [265, 264, 135, 40, 15, 0, 1]


def test_vertex_shapes_exhaustive_n6_n7():
    # every vertex has n + C(n,2) stored entries and each permutation
    # matches exactly n position pairs
    from qappoly.geometry import vertex_space

    for n in (6, 7):
        space = vertex_space(n)
        rows = space.rows(range(len(space.images)))
        assert (rows.sum(axis=1) == n + n * (n - 1) // 2).all()
        assert (space.zt.sum(axis=0) == n).all()


def test_malformed_pattern_rejected():
    with pytest.raises(QappolyError, match="distinct"):
        MatchPattern(((1, 1), (1, 2)))
    with pytest.raises(QappolyError, match="at least one pair"):
        MatchPattern.diagonal(0)


# ---------------------------------------------------------------------------
# affine dimension


def test_affine_dim_trivial_cases():
    single = [Permutation.identity(4)]
    assert affine_dim(single).consensus_rank == 0
    two = [Permutation.identity(4), Permutation((2, 1, 3, 4))]
    assert affine_dim(two).consensus_rank == 1


def test_affine_dim_empty_rejected():
    with pytest.raises(QappolyError, match="empty"):
        affine_dim([])


@pytest.mark.parametrize("n,dim", [(3, 5), (4, 22), (5, 77)])
def test_affine_dim_regression_constants(n, dim):
    report = affine_dim(list(enumerate_permutations(n)))
    assert report.consensus_rank == dim == report.certificate.bound
    assert report.primes == (report.certificate.prime,)
    assert report.column_dimension == (n**4 + n**2) // 2


def test_affine_dim_certified_rationally():
    report = affine_dim(list(enumerate_permutations(4)), certify=True)
    assert report.consensus_rank == 22
    assert "certified" in report.status


def test_affine_dim_monotone_under_inclusion():
    perms = list(enumerate_permutations(4))
    rng = random.Random(1)
    subset = rng.sample(perms, 8)
    small = affine_dim(subset).consensus_rank
    assert small <= affine_dim(perms).consensus_rank


def test_affine_dim_of_seeded_subsets_equals_exact_elimination():
    # the proof against integer elimination of the differences; small
    # subsets are independent, larger ones need the lifted kernel
    kinds = Counter()
    for n in (5, 6):
        space = vertex_space(n)
        rng = np.random.default_rng(n)
        for size in rng.integers(1, min(200, len(space.images)), size=8, endpoint=True):
            idx = np.sort(rng.choice(len(space.images), size, replace=False))
            rows = space.rows(idx)
            report = affine_dim([Permutation(tuple(space.images[v].tolist())) for v in idx])
            assert report.consensus_rank == rank_exact_rational(rows - rows[0])
            kinds[report.certificate.kind] += 1
    assert kinds["independent points"] and kinds["lifted kernel"]


def test_affine_dim_without_a_lift_proves_only_independent_vertices(monkeypatch):
    from qappoly import geometry

    monkeypatch.setattr(geometry, "lifted_kernel", lambda points, known: None)
    space = vertex_space(5)
    few = [Permutation(tuple(image.tolist())) for image in space.images[:12]]
    assert rank_exact_rational(space.rows(range(12))) == 12
    report = affine_dim(few)
    assert report.certificate.kind == "independent points"
    assert report.consensus_rank == report.certificate.bound == 11
    # all 120 vertices span 77 dimensions: dependent, so nothing is proven
    with pytest.raises(QappolyError, match="unproven: .* 120 vertices"):
        affine_dim(enumerate_permutations(5))


def test_affine_dim_certification_mismatch_raises(monkeypatch):
    from qappoly import geometry

    monkeypatch.setattr(geometry, "rank_exact_rational",
                        lambda matrix: rank_exact_rational(matrix) + 1)
    with pytest.raises(QappolyError, match="certification mismatch"):
        affine_dim(list(enumerate_permutations(4)), certify=True)


def test_no_proven_rank_calls_the_vote(monkeypatch):
    # rank_consensus is a reference for tests only: with it refused in
    # every module that binds it, every proven route still runs
    import sys

    from qappoly.cli import main

    def refused(*args, **kwargs):
        raise AssertionError("rank_consensus called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "qappoly" and hasattr(module, "rank_consensus"):
            monkeypatch.setattr(module, "rank_consensus", refused)
    assert affine_dim(enumerate_permutations(5)).consensus_rank == 77
    assert main(["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
                 "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only", "--certify"]) == 0
    assert main(["verify-lemmas", "--which", "s3ss0", "--n", "6"]) == 0


# ---------------------------------------------------------------------------
# identity 1


def _random_identity1_config(rng, n):
    positions = rng.sample(range(1, n + 1), 5)
    base = Permutation(tuple(rng.sample(range(1, n + 1), n)))
    return make_identity1_family(base, *positions[:3]), positions[3], positions[4]


def test_identity1_zero_sum():
    rng = random.Random(13)
    for _ in range(60):
        family, x, y = _random_identity1_config(rng, rng.choice([6, 7, 8]))
        assert check_identity1(family, x, y).is_zero


def test_identity1_arity_check():
    family, x, y = _random_identity1_config(random.Random(0), 7)
    with pytest.raises(QappolyError, match="6 permutations"):
        check_identity1(family[:5], x, y)


def _oracle_signed_sum(sigmas, signs) -> dict:
    total = Counter()
    for sigma, sign in zip(sigmas, signs):
        for key in vertex_entries(sigma.image):
            total[key] += sign
    return {key: v for key, v in total.items() if v}


@pytest.mark.parametrize("n", [5, 8, 12, 40])
def test_identity_sums_match_the_oracle(n):
    # flipping one sign of the vanishing 12-term sum leaves -2x that vertex
    rng = random.Random(n)
    for _ in range(10):
        family, x, y = _random_identity1_config(rng, n)
        terms = family + [apply_transposition(s, x, y) for s in family]
        signs = [s.sign() for s in terms]
        assert check_identity1(family, x, y).nonzero_entries \
            == _oracle_signed_sum(terms, signs) == {}
        flipped = [-signs[0]] + signs[1:]
        planted = _oracle_signed_sum(terms, flipped)
        assert planted and _signed_entry_sum([s.image for s in terms], flipped) == planted

        i, j, ip, jp = rng.sample(range(1, n + 1), 4)
        base = Permutation(tuple(rng.sample(range(1, n + 1), n)))
        chain = make_identity2_chain(base, i, j, ip, jp)
        report = check_identity2(*chain, i, j, ip, jp)
        oracle = _oracle_signed_sum(chain, (1, -1, 1, -1))
        weight = {key: 1 if key[0] == key[1] else 2 for key in oracle}
        plus = sum(w for key, w in weight.items() if oracle[key] > 0)
        assert (report.nonzero_count, report.plus_count, report.minus_count) \
            == (sum(weight.values()), plus, sum(weight.values()) - plus)
        assert report.affected_flats == tuple(sorted(oracle))
        assert report.affected_entries == tuple(sorted(
            (pair_from_flat(n, f1), pair_from_flat(n, f2)) for f1, f2 in oracle))


def test_identity1_rejects_overlapping_transposition_indices():
    family, _, _ = _random_identity1_config(random.Random(2), 7)
    disagree = tuple(i for i in range(1, 8)
                     if len({s(i) for s in family}) > 1)
    with pytest.raises(QappolyError, match="disjoint"):
        check_identity1(family, disagree[0], disagree[1])


# ---------------------------------------------------------------------------
# identity 2


def test_identity2_census():
    rng = random.Random(21)
    for _ in range(60):
        i, j, ip, jp = rng.sample(range(1, 9), 4)
        base = Permutation(tuple(rng.sample(range(1, 9), 8)))
        chain = make_identity2_chain(base, i, j, ip, jp)
        report = check_identity2(*chain, i, j, ip, jp)
        assert report.nonzero_count == 32
        assert report.plus_count == 16 and report.minus_count == 16


def test_identity2_pattern_independent_of_n():
    i, j, ip, jp = 2, 5, 3, 7
    base8 = Permutation((4, 8, 1, 6, 2, 3, 7, 5))
    r8 = check_identity2(*make_identity2_chain(base8, i, j, ip, jp), i, j, ip, jp)
    base12 = Permutation(base8.image + tuple(range(9, 13)))
    r12 = check_identity2(*make_identity2_chain(base12, i, j, ip, jp), i, j, ip, jp)
    assert r8.affected_entries == r12.affected_entries
    assert r12.nonzero_count == 32


def test_identity2_chain_preconditions():
    base = Permutation.identity(8)
    chain = make_identity2_chain(base, 1, 2, 3, 4)
    with pytest.raises(QappolyError, match="disjoint"):
        check_identity2(*chain, 1, 2, 2, 4)
    broken = (chain[0], chain[1], chain[2], chain[1])
    with pytest.raises(QappolyError, match="chain"):
        check_identity2(*broken, 1, 2, 3, 4)


# ---------------------------------------------------------------------------
# S_0 connectivity


def test_s0_two_elements():
    report = check_s0_connectivity(2, MatchPattern(((1, 1), (2, 2))))
    assert report.size == 1 and report.connected  # only the swap remains


def test_s0_n3_single_pair_pattern():
    report = check_s0_connectivity(3, MatchPattern(((1, 1),)))
    assert report.size == 4  # permutations with sigma(1) != 1
    assert report.connected and report.status == "ok"


def test_s0_vacuous():
    report = check_s0_connectivity(1, MatchPattern(((1, 1),)))
    assert report.status == "vacuous" and report.size == 0


class PerSwapListing:
    """The neighbour listing the vertex table replaced: a dict from each
    image of the lexicographic enumeration to its index, and a Python loop
    over the swaps (x, y) of one image in ``combinations`` order."""

    def __init__(self, n):
        self.n = n
        self.perms = list(enumerate_permutations(n))
        self.index = {p.image: v for v, p in enumerate(self.perms)}

    def neighbours(self, v, s0=None) -> list[int]:
        """The vertices one transposition away from vertex v, those in the
        set ``s0`` only when it is given."""
        out = []
        for x, y in itertools.combinations(range(self.n), 2):
            swapped = list(self.perms[v].image)
            swapped[x], swapped[y] = swapped[y], swapped[x]
            w = self.index[tuple(swapped)]
            if s0 is None or w in s0:
                out.append(w)
        return out

    def component_count(self, s0: set[int]) -> int:
        parent = {v: v for v in s0}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for v in s0:
            for w in self.neighbours(v, s0):
                parent[find(v)] = find(w)
        return len({find(v) for v in s0})


@pytest.mark.parametrize("n", range(1, 9))
def test_a_vertex_index_is_the_lexicographic_rank_of_its_image(n):
    from qappoly.geometry import vertex_space

    space = vertex_space(n)
    assert space.images.dtype == space.zt.dtype == np.int8
    assert (space.index_of(space.images) == np.arange(math.factorial(n))).all()
    if n <= 6:
        assert space.images.tolist() == [list(p.image) for p in enumerate_permutations(n)]


@pytest.mark.parametrize("n", range(3, 8))
def test_neighbours_match_the_per_swap_listing(n):
    from qappoly.geometry import vertex_space

    space = vertex_space(n)
    listing = PerSwapListing(n)
    table = space.neighbours(np.arange(len(space.images)))
    assert table.shape == (len(space.images), n * (n - 1) // 2)
    assert table.tolist() == [listing.neighbours(v) for v in range(len(space.images))]


@pytest.mark.parametrize("n,pairs", [
    (3, ((1, 1), (2, 2), (3, 3))),          # two isolated 3-cycles
    (4, ((1, 1), (2, 2), (3, 3), (4, 4))),
    (4, ((1, 2), (2, 1))),
    (5, ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))),
    (5, ((1, 1), (2, 3), (4, 5))),
    (6, ((1, 2), (2, 3), (3, 1), (4, 4), (5, 6), (6, 5))),
    (6, ((1, 1), (2, 2))),
])
def test_s0_components_match_a_union_find(n, pairs):
    pattern = MatchPattern(pairs)
    listing = PerSwapListing(n)
    s0 = {v for v, p in enumerate(listing.perms) if classify_vertex(p, pattern) == 0}
    expected = listing.component_count(s0)
    report = check_s0_connectivity(n, pattern)
    assert (report.size, report.component_count) == (len(s0), expected)
    assert report.connected == (expected == 1)


def test_s0_of_the_n3_diagonal_is_two_isolated_members():
    report = check_s0_connectivity(3, MatchPattern.diagonal(3))
    assert (report.size, report.component_count, report.connected) == (2, 2, False)


def test_szeroins_draws_the_targets_of_the_per_swap_listing(monkeypatch):
    from qappoly.geometry import vertex_space, verify_szeroins
    from qappoly.modrank import ModularSpanBasis

    targets = []
    contains = ModularSpanBasis.contains

    def captured(self, vectors):
        targets.extend(vectors)
        return contains(self, vectors)

    monkeypatch.setattr(ModularSpanBasis, "contains", captured)
    assert verify_szeroins(6, samples=200, seed=3).all_member
    # the draw before the table: an S_0 member, redrawn until it has an S_0
    # neighbour, then one of those neighbours, from the same generator
    pattern = MatchPattern.diagonal(6)
    listing = PerSwapListing(6)
    members = [v for v, p in enumerate(listing.perms) if classify_vertex(p, pattern) == 0]
    s0 = set(members)
    rng = random.Random(3)
    expected = []
    while len(expected) < 200:
        v = rng.choice(members)
        neighbours = listing.neighbours(v, s0)
        if neighbours:
            pair = vertex_space(6).rows([v, rng.choice(neighbours)])
            expected.append(pair[0] - pair[1])
    assert len(targets) == 200
    assert all((got == want).all() for got, want in zip(targets, expected))


# ---------------------------------------------------------------------------
# span membership


def vertex_span(generators):
    """The span basis of the permutations' vertices, from the hull
    equations, and the space they lie in."""
    from qappoly.geometry import _VertexSet

    space = vertex_space(generators[0].n)
    idx = space.index_of([sigma.image for sigma in generators])
    return ModularSpanBasis(_VertexSet(space, idx), hull_equations(space.n)), space


def test_span_membership_of_generator():
    gens = [Permutation.identity(5), Permutation((2, 1, 3, 4, 5)),
            Permutation((1, 3, 2, 4, 5))]
    basis, space = vertex_span(gens)
    assert basis.contains(space.rows(space.index_of([gens[1].image]))).tolist() == [True]
    assert basis.certificate.kind == "lifted kernel"
    assert basis.certificate.equation_rank == basis.certificate.columns - 3


def test_span_membership_negative():
    basis, space = vertex_span([Permutation.identity(5)])
    target = Permutation((2, 1, 3, 4, 5))
    assert basis.contains(space.rows(space.index_of([target.image]))).tolist() == [False]


def test_a_span_basis_of_independent_generators_still_refuses_a_non_member(monkeypatch):
    # independence proves a rank, not a span: membership needs the lifted
    # extras, so without a lift the basis is refused rather than left to
    # admit every vector that satisfies the hull equations
    from qappoly import modrank

    gens = [Permutation.identity(5), Permutation((2, 1, 3, 4, 5)),
            Permutation((1, 3, 2, 4, 5))]
    basis, space = vertex_span(gens)
    rows = space.rows(space.index_of([sigma.image for sigma in gens] + [(2, 3, 1, 4, 5)]))
    assert rank_exact_rational(rows) == 4
    assert basis.contains(rows).tolist() == [True, True, True, False]
    monkeypatch.setattr(modrank, "_lift", lambda kernel, p, limit: None)
    with pytest.raises(QappolyError, match="unproven: .* 3 span generators"):
        vertex_span(gens)


def test_equality_set_requires_qap4():
    from qappoly.geometry import check_equality_set

    form = build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2))
    with pytest.raises(QappolyError, match="qap4"):
        check_equality_set(form, 7)


def test_szeroins_with_a_one_pair_pattern_has_no_s2_generators():
    from qappoly.geometry import verify_szeroins

    report = verify_szeroins(5, MatchPattern.diagonal(1), samples=3)
    assert report.samples == 3


def test_match_counts_with_a_non_diagonal_pattern_match_classify_vertex():
    pattern = MatchPattern(((1, 3), (2, 5), (4, 1), (6, 6)))
    expected = [classify_vertex(p, pattern) for p in enumerate_permutations(6)]
    assert vertex_space(6).match_counts(pattern).tolist() == expected
    assert set(expected) == set(range(pattern.m + 1))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_vertex_rows_follow_the_support_coordinates(n):
    # diagonal cells in flat order, then off-diagonal pairs with distinct
    # rows and columns in lexicographic order
    from qappoly.geometry import vertex_space

    cells = range(1, n * n + 1)
    coords = [(f, f) for f in cells]
    coords += [(f1, f2) for f1 in cells for f2 in cells
               if f1 < f2 and all(a != b for a, b in
                                  zip(pair_from_flat(n, f1), pair_from_flat(n, f2)))]
    space = vertex_space(n)
    rows = space.rows(range(len(space.images)))
    assert rows.dtype == "int8" and rows.shape == (len(space.images), len(coords))
    for v, perm in enumerate(enumerate_permutations(n)):
        entries = vertex_entries(perm.image)
        assert [key for key, x in zip(coords, rows[v]) if x] == sorted(
            entries, key=coords.index)


def test_szeroins_refuses_a_pattern_without_s0_neighbours():
    from qappoly.geometry import verify_szeroins

    # S_0 is the two 3-cycles, and every transposition of one fixes a point
    with pytest.raises(QappolyError, match="neighbour"):
        verify_szeroins(3, samples=2)


def test_certified_facet_reduces_the_full_vertex_set_once(monkeypatch):
    # the proven route runs as without the flag; fraction-free elimination
    # then re-checks the differences over every vertex and over the tight set
    from qappoly import geometry
    from qappoly.inequalities import Qap5Params, build_qap5
    from qappoly.modrank import rank_exact_rational

    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return rank_exact_rational(matrix)

    monkeypatch.setattr(geometry, "rank_exact_rational", counting)
    geometry.polytope_affine_dim.cache_clear()
    form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    report = geometry.verify_facet(form, 5, certify=True)
    assert (report.polytope_dim, report.tight_dim) == (77, 72)
    assert calls == [(120, 225), (102, 225)]
    assert report.polytope_rank.certificate.kind == "affine-hull equations"
    assert report.tight_rank.certificate.kind == "lifted kernel"
    assert "certified" in report.polytope_rank.status
    assert "certified" in report.tight_rank.status
    # the cached polytope report is left as the proof made it
    plain = geometry.verify_facet(form, 5)
    assert plain.polytope_rank is geometry.polytope_affine_dim(5)
    assert plain.polytope_rank.status == "ok"
    assert plain.polytope_rank.certificate == report.polytope_rank.certificate
    assert len(calls) == 2


def test_polytope_rank_is_computed_once_per_n():
    from qappoly import geometry
    from qappoly.inequalities import Qap5Params, build_qap5

    geometry.polytope_affine_dim.cache_clear()
    form = build_qap5(Qap5Params(n=4, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    geometry.verify_facet(form, 4)
    geometry.verify_facet(form, 4)
    info = geometry.polytope_affine_dim.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# ---------------------------------------------------------------------------
# proven dimensions: hull equations from above, a vertex subset from below


@pytest.mark.parametrize("n", range(1, 8))
def test_hull_equations_vanish_on_every_vertex(n):
    from qappoly.geometry import affine_hull_equations, vertex_space

    space = vertex_space(n)
    rows = space.rows(range(len(space.images)))
    for equation in affine_hull_equations(n).astype(np.int64):
        support = np.flatnonzero(equation)
        assert not (rows[:, support] @ equation[support]).any()


@pytest.mark.parametrize("n", range(3, 9))
def test_hull_equations_leave_the_closed_form_linear_dimension(n):
    from qappoly.geometry import affine_hull_equations

    equations = affine_hull_equations(n)
    rank = rank_mod_p(equations, PRIME_POOL[0])
    assert equations.shape[1] - rank == (n - 1) ** 2 * (n - 2) ** 2 // 2 + n + 1


@pytest.mark.parametrize("n", range(1, 7))
def test_proven_polytope_dim_matches_the_full_vertex_vote(n):
    from qappoly.geometry import polytope_affine_dim, vertex_space

    report = polytope_affine_dim(n)
    rows = vertex_space(n).rows(range(math.factorial(n)))
    assert report.consensus_rank == rank_consensus(rows - rows[0]).consensus_rank
    assert report.certificate is not None
    assert report.certificate.bound == report.consensus_rank
    assert report.certificate.prime in report.primes or report.row_count == 0
    if n <= 4:
        # the seeded subset would outnumber the vertices: the whole set is it
        assert report.certificate.subset_rows == len(vertex_space(n).images)


def test_a_loose_equation_bound_is_met_by_lifted_extras(monkeypatch):
    # half the hull equations leave room above the polytope's dimension: the
    # lifted kernel fills it with extras checked on every vertex, and with
    # no lift the loose bound proves nothing
    from qappoly import geometry
    from qappoly.modrank import ProvenEquations

    space = geometry.vertex_space(5)
    equations = geometry.affine_hull_equations(5)
    loose = ProvenEquations(equations[: len(equations) // 2], PRIME_POOL[0])
    full_rank = rank_mod_p(equations, PRIME_POOL[0])
    assert len(loose.echelon) < full_rank
    everything = np.arange(len(space.images))
    report = geometry._proven_rank(space, everything, loose, "vertices")
    certificate = report.certificate
    assert report.consensus_rank == certificate.bound == 77
    assert report.primes == (certificate.prime,)
    assert (certificate.kind, certificate.equation_rank) == ("lifted kernel", full_rank)
    monkeypatch.setattr(geometry, "lifted_kernel", lambda points, known: None)
    with pytest.raises(QappolyError, match="unproven: no lifted kernel of the 120 vertices"):
        geometry._proven_rank(space, everything, loose, "vertices")


def test_equations_that_fail_on_a_vertex_are_refused():
    from qappoly.geometry import _require_vanishing, affine_hull_equations, vertex_space

    wrong = affine_hull_equations(4).copy()
    wrong[0, 0] += 1
    with pytest.raises(QappolyError, match="does not vanish"):
        _require_vanishing(vertex_space(4), wrong)


def test_the_vanishing_check_names_the_first_vertex_the_dense_product_misses():
    from qappoly.geometry import _require_vanishing, affine_hull_equations, vertex_space

    n = 5
    space = vertex_space(n)
    equations = affine_hull_equations(n)
    rows = space.rows(range(len(space.images))).astype(np.int64)
    rng = random.Random(5)
    for _ in range(4):
        # one coefficient off on an off-diagonal column, which sums a product
        wrong = equations.copy()
        wrong[rng.randrange(len(wrong)), rng.randrange(n * n, wrong.shape[1])] += 1
        first = np.flatnonzero((rows @ wrong.T.astype(np.int64)).any(axis=1))[0]
        sigma = space.one_line(first)
        with pytest.raises(QappolyError, match=f"does not vanish on sigma = {re.escape(sigma)}$"):
            _require_vanishing(space, wrong)


def test_error_paths_name_a_vertex_without_the_permutation_table():
    from qappoly.geometry import (
        VertexSpace,
        _require_vanishing,
        affine_hull_equations,
        check_equality_set,
        verify_facet,
        vertex_space,
    )
    from qappoly.indexing import triangle_position
    from qappoly.inequalities import LinearForm, Qap4Params, build_qap4

    # the vertex space holds no Permutation per vertex: each error path
    # formats the one vertex it names from its image
    assert not hasattr(VertexSpace, "perms")
    wrong = affine_hull_equations(4).copy()
    wrong[0, 0] += 1   # now nonzero exactly where sigma(1) = 1
    with pytest.raises(QappolyError, match="does not vanish on sigma = 1 2 3 4$"):
        _require_vanishing(vertex_space(4), wrong)
    # Y[12, 12] <= 0 fails first where sigma(1) = 2
    form = LinearForm(n=5, positions=(triangle_position(5, 2, 2),), coeffs=(1,), rhs=0,
                      sense="<=")
    with pytest.raises(QappolyError, match="not valid: violated by sigma = 2 1 3 4 5$"):
        verify_facet(form, 5)
    # rhs 0 makes q in {0, 3} tight, so every vertex with q <= 3 mismatches
    diagonal = tuple(range(1, 8))
    loose = build_qap4(Qap4Params(n=7, i_set=diagonal, j_set=diagonal))
    loose.rhs = 0
    pattern = MatchPattern.diagonal(7)
    expected = [sigma.one_line() for sigma in enumerate_permutations(7)
                if classify_vertex(sigma, pattern) <= 3][:5]
    assert check_equality_set(loose, 7).mismatches == expected


def test_hull_equations_that_fail_on_a_vertex_refuse_every_claim(monkeypatch):
    # every dimension and span proof trusts the hull equations it is given;
    # hull_equations is where they are checked on every vertex
    from qappoly import geometry
    from qappoly.inequalities import Qap5Params, build_qap5

    form = build_qap5(Qap5Params(n=4, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    caches = (geometry.hull_equations, geometry.polytope_affine_dim)
    for cache in caches:
        cache.cache_clear()
    assert geometry.verify_facet(form, 4).tight_rank.certificate.kind == "lifted kernel"
    original = geometry.affine_hull_equations
    wrong = original(4).copy()
    wrong[0, 0] += 1   # now nonzero exactly where sigma(1) = 1
    monkeypatch.setattr(geometry, "affine_hull_equations",
                        lambda n: wrong if n == 4 else original(n))
    geometry.hull_equations.cache_clear()
    failing = "does not vanish on sigma = 1 2 3 4$"
    try:
        # the polytope's dimension stays cached: the tight set's kernel refuses
        with pytest.raises(QappolyError, match=failing):
            geometry.verify_facet(form, 4)
        with pytest.raises(QappolyError, match=failing):
            geometry.verify_skasnxt4(4, samples=1)
        geometry.polytope_affine_dim.cache_clear()
        with pytest.raises(QappolyError, match=failing):
            geometry.polytope_affine_dim(4)
    finally:
        for cache in caches:
            cache.cache_clear()


# ---------------------------------------------------------------------------
# facet verdicts at the edges


def test_an_empty_tight_set_is_not_a_facet():
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import LinearForm

    report = verify_facet(LinearForm(n=4, positions=(), coeffs=(), rhs=1, sense="<="), 4)
    assert (report.verdict, report.tight_count, report.tight_dim) == ("not facet", 0, -1)
    assert report.tight_rank is None


@pytest.fixture
def no_lift(monkeypatch):
    """Make every lifted kernel fail, so no tight dimension is proven."""
    from qappoly import geometry

    monkeypatch.setattr(geometry, "lifted_kernel", lambda points, known: None)


def test_a_form_tight_everywhere_is_not_a_facet():
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import LinearForm

    report = verify_facet(LinearForm(n=5, positions=(), coeffs=(), rhs=0, sense="<="), 5)
    assert report.verdict == "not facet"
    assert report.tight_count == 120
    assert report.tight_dim == report.polytope_dim == 77
    # the hull equations alone, with no form equation and nothing lifted
    certificate = report.tight_rank.certificate
    assert certificate.kind == "affine-hull equations" and certificate.bound == 77


def test_a_form_tight_everywhere_is_refused_without_a_lift(no_lift):
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import LinearForm

    with pytest.raises(QappolyError, match="unproven: .* 120 tight vertices"):
        verify_facet(LinearForm(n=5, positions=(), coeffs=(), rhs=0, sense="<="), 5)


def test_a_valid_only_qap5_form_keeps_its_tight_dim():
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5

    form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    report = verify_facet(form, 5)
    assert (report.verdict, report.tight_count, report.tight_dim) == ("not facet", 102, 72)
    certificate = report.tight_rank.certificate
    assert certificate.kind == "lifted kernel" and certificate.bound == 72
    assert certificate.subset_rows <= 102


def test_a_valid_only_qap5_form_is_refused_without_a_lift(no_lift):
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5

    form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    with pytest.raises(QappolyError, match="unproven: .* 102 tight vertices"):
        verify_facet(form, 5)


def test_a_wrong_form_equation_is_refused_naming_its_tight_vertex(monkeypatch):
    # one coefficient of the form's homogenised equation made wrong, on a
    # support column that exactly one tight vertex sets: the exact check on
    # every tight vertex refuses the equation and names that vertex
    from qappoly import geometry
    from qappoly.inequalities import Qap5Params, build_qap5

    form = build_qap5(Qap5Params(n=4, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    space = geometry.vertex_space(4)
    slack = form.scaled_slack_on_match_rows(space.zt)
    assert slack.any()   # so the form's equation is used
    tight = np.flatnonzero(slack == 0)
    rows = space.rows(tight)
    column = np.flatnonzero(rows.sum(axis=0, dtype=np.int64) == 1)[0]
    vertex = space.one_line(tight[np.flatnonzero(rows[:, column])[0]])
    right = geometry._form_equation

    def wrong(form):
        row = right(form)
        row[column] += 1
        return row

    monkeypatch.setattr(geometry, "_form_equation", wrong)
    with pytest.raises(QappolyError, match="the form's equation does not vanish on the "
                                           f"tight vertex sigma = {re.escape(vertex)}$"):
        geometry.verify_facet(form, 4)


def _refused_with_a_corrupted_lift(corrupt, monkeypatch):
    from qappoly import modrank
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5

    lift = modrank._lift

    def corrupted(kernel, p, limit):
        equations = lift(kernel, p, limit)
        corrupt(equations)
        return equations

    form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    plain = verify_facet(form, 5).tight_rank.certificate
    assert plain.kind == "lifted kernel" and plain.equation_rows - 210 >= 2   # E has 210 rows
    monkeypatch.setattr(modrank, "_lift", corrupted)
    with pytest.raises(QappolyError, match="unproven"):
        verify_facet(form, 5)


def test_a_flipped_lift_entry_refuses_the_tight_dim(monkeypatch):
    def flipped(equations):
        equations[0, 0] += 1   # column 0 is the cell (1,1), set on some vertex

    _refused_with_a_corrupted_lift(flipped, monkeypatch)


def test_a_repeated_lift_row_refuses_the_tight_dim(monkeypatch):
    def repeated(equations):
        equations[1] = equations[0]   # still vanishes, but one rank short

    _refused_with_a_corrupted_lift(repeated, monkeypatch)


def _planting(monkeypatch, row, rounds):
    """Append ``row`` to the extras of the first ``rounds`` lifts."""
    from qappoly import modrank

    lift = modrank._lift
    calls = []

    def planted(kernel, p, limit):
        equations = lift(kernel, p, limit)
        calls.append(None)
        return np.vstack([equations, row]) if len(calls) <= rounds else equations

    monkeypatch.setattr(modrank, "_lift", planted)
    return calls


@pytest.mark.parametrize("rounds", [1, 4])
def test_a_planted_extra_that_misses_one_tight_vertex_is_caught(rounds, monkeypatch):
    # the planted row is 1 on a support column that exactly one tight vertex
    # sets: the exact check finds that vertex, which joins the subset; a
    # plant in the first lift only is proven away by the next round, one in
    # every lift leaves no lifted kernel, and the 20 tight vertices, being
    # independent, are proven as such
    from qappoly.geometry import vertex_space, verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5
    from qappoly.modrank import KERNEL_ROUNDS

    form = build_qap5(Qap5Params(n=4, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    plain = verify_facet(form, 4).tight_rank.certificate
    space = vertex_space(4)
    tight = np.flatnonzero(form.scaled_slack_on_match_rows(space.zt) == 0)
    hits = space.rows(tight).sum(axis=0, dtype=np.int64)
    row = np.zeros(hits.size, dtype=np.int64)
    row[np.flatnonzero(hits == 1)[0]] = 1
    calls = _planting(monkeypatch, row, rounds)
    if rounds < KERNEL_ROUNDS:
        report = verify_facet(form, 4)
        assert len(calls) == 2
        certificate = report.tight_rank.certificate
        assert (report.verdict, report.tight_dim) == ("not facet", plain.bound)
        assert certificate.subset_rows == plain.subset_rows + 1
        assert certificate.equation_rows == plain.equation_rows
    else:
        report = verify_facet(form, 4)
        assert len(calls) == KERNEL_ROUNDS
        certificate = report.tight_rank.certificate
        assert certificate.kind == "independent points"
        assert (report.verdict, report.tight_dim) == ("not facet", plain.bound)
        assert certificate.bound == certificate.subset_rows - 1 == 19


def test_a_planted_extra_in_every_lift_leaves_a_dependent_tight_set_unproven(monkeypatch):
    # the 102 tight vertices span 72 dimensions: with no lifted kernel,
    # independence cannot prove them either
    from qappoly.geometry import vertex_space, verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5
    from qappoly.modrank import KERNEL_ROUNDS

    form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    space = vertex_space(5)
    tight = np.flatnonzero(form.scaled_slack_on_match_rows(space.zt) == 0)
    hits = space.rows(tight).sum(axis=0, dtype=np.int64)
    row = np.zeros(hits.size, dtype=np.int64)
    row[np.argmin(np.where(hits > 0, hits, hits.max() + 1))] = 1
    calls = _planting(monkeypatch, row, KERNEL_ROUNDS)
    with pytest.raises(QappolyError, match="unproven: .* 102 tight vertices"):
        verify_facet(form, 5)
    assert len(calls) == KERNEL_ROUNDS


def test_a_planted_extra_at_a_held_column_refuses_the_tight_dim(monkeypatch):
    # the planted row is 1 on a support column that no tight vertex sets, so
    # it vanishes on every tight vertex and the exact check passes it; but
    # that column is a pivot of E's echelon form, where a lifted kernel row
    # is always 0, so the proof is refused
    from qappoly.geometry import hull_equations, vertex_space, verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5

    form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    assert verify_facet(form, 5).tight_rank.certificate.kind == "lifted kernel"
    space = vertex_space(5)
    tight = np.flatnonzero(form.scaled_slack_on_match_rows(space.zt) == 0)
    hits = space.rows(tight).sum(axis=0, dtype=np.int64)
    held = int(np.flatnonzero(hits == 0)[0])
    assert held in hull_equations(5).pivots
    row = np.zeros(hits.size, dtype=np.int64)
    row[held] = 1
    calls = _planting(monkeypatch, row, 1)
    with pytest.raises(QappolyError, match="unproven: .* 102 tight vertices"):
        verify_facet(form, 5)
    assert len(calls) == 1


def test_the_n7_facet_is_proven_without_a_full_vertex_elimination(monkeypatch):
    from qappoly import geometry, modrank
    from qappoly.inequalities import Qap4Params, build_qap4

    shapes = []
    original = modrank._echelonize_mod_p

    def recording(matrix, p):
        shapes.append(matrix.shape)
        return original(matrix, p)

    # E's own echelon form comes first: every elimination recorded below is
    # inside lifted_kernel, at the columns where E's echelon has no pivot
    unheld = 931 - len(geometry.hull_equations(7).echelon)
    assert unheld == 458
    monkeypatch.setattr(modrank, "_echelonize_mod_p", recording)
    geometry.polytope_affine_dim.cache_clear()
    form = build_qap4(Qap4Params(n=7, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8))))
    report = geometry.verify_facet(form, 7)
    assert (report.verdict, report.polytope_dim, report.tight_dim) == ("facet", 457, 456)
    for rank, kind, dim, rows in ((report.polytope_rank, "affine-hull equations", 457, 490),
                                  (report.tight_rank, "proper face", 456, 489)):
        certificate = rank.certificate
        assert certificate.kind == kind
        assert rank.primes == (certificate.prime,)
        assert certificate.bound == dim
        assert certificate.subset_rows == rows
    assert shapes and max(rows for rows, _ in shapes) <= 1100
    assert max(cols for _, cols in shapes) <= unheld


def test_the_n7_not_facet_is_proven_by_a_lifted_kernel(monkeypatch):
    # no elimination is taller than 1,100 rows or wider than the 458 columns
    # where E's echelon form has no pivot, the certificates stay as pinned,
    # and vertex rows are built only for the subsets drawn and the vertices
    # re-added, never for the whole tight set or generator set
    from qappoly import geometry, modrank
    from qappoly.geometry import VertexSpace
    from qappoly.inequalities import Qap3Params, build_qap3

    shapes = []
    original = modrank._echelonize_mod_p

    def recording(matrix, p):
        shapes.append(matrix.shape)
        return original(matrix, p)

    asked = []
    rows = VertexSpace.rows

    def counting(self, idx):
        built = rows(self, idx)
        asked.append(len(built))
        return built

    # as in the facet test, only lifted_kernel eliminates once E is echeloned
    unheld = 931 - len(geometry.hull_equations(7).echelon)
    monkeypatch.setattr(modrank, "_echelonize_mod_p", recording)
    monkeypatch.setattr(VertexSpace, "rows", counting)
    geometry.polytope_affine_dim.cache_clear()
    form = build_qap3(Qap3Params(n=7, p1_set=(1, 2), p2_set=(3,), q_set=(1, 2, 3), beta=1))
    report = geometry.verify_facet(form, 7)
    assert (report.verdict, report.polytope_dim, report.tight_dim,
            report.tight_count) == ("not facet", 457, 454, 3600)
    certificate = report.tight_rank.certificate
    assert certificate.kind == "lifted kernel" and certificate.bound == 454
    assert (certificate.equation_rows, certificate.subset_rows) == (605, 489)
    assert shapes and max(rows for rows, _ in shapes) <= 1100
    # the polytope's subset and the tight set's, with their re-adds
    polytope = report.polytope_rank.certificate
    assert (polytope.kind, polytope.bound, polytope.subset_rows) == (
        "affine-hull equations", 457, 490)
    assert sum(asked) <= polytope.subset_rows + certificate.subset_rows
    asked.clear()
    lemma = geometry.verify_szeroins(7, samples=200, seed=1)
    assert lemma.all_member
    assert lemma.certificates[0].subset_rows == 490
    assert max(cols for _, cols in shapes) <= unheld
    # the basis's subset with its re-adds, then two rows per sampled pair
    assert sum(asked) <= lemma.certificates[0].subset_rows + 2 * 200


class VoteOracle:
    """Span membership by vote, the route the lifted kernel replaced: the
    generators' echelon basis at each default prime, the vector reduced
    against each basis, and a verdict only when every prime agrees."""

    def __init__(self, generators):
        self.bases = {}
        for p in PRIME_POOL:
            _, pivots, rows = _echelonize_mod_p(generators, p)
            self.bases[p] = (pivots, rows.copy())

    def contains(self, vector) -> bool:
        votes = set()
        for p, (pivots, rows) in self.bases.items():
            v = np.mod(vector, np.int64(p))
            for idx, c in enumerate(pivots):
                if v[c]:
                    v = (v - v[c] * rows[idx]) % p
            votes.add(not v.any())
        assert len(votes) == 1, "the primes split"
        return votes.pop()


def test_certified_span_verdicts_match_the_vote_at_n6(monkeypatch):
    # every sampled target of criterion 07, at n=6, is a member; the same
    # target with one coordinate raised is (almost always) not
    from qappoly.geometry import verify_s3ss0, verify_skasnxt4, verify_szeroins
    from qappoly.modrank import ModularSpanBasis

    verdicts = []
    init, contains = ModularSpanBasis.__init__, ModularSpanBasis.contains

    def with_oracle(self, generators, known):
        init(self, generators, known)
        self.oracle = VoteOracle(generators[np.arange(generators.shape[0])])

    def both(self, vectors):
        # each target and, beside it, the target with one coordinate raised,
        # decided in one batch; the i-th pair raises coordinate 2i mod size
        count, size = vectors.shape
        raised = vectors.astype(np.int64)
        raised[np.arange(count), (len(verdicts) + 2 * np.arange(count)) % size] += 1
        batch = np.stack([vectors.astype(np.int64), raised], axis=1).reshape(-1, size)
        certified = contains(self, batch)
        verdicts.extend((bool(got), self.oracle.contains(target))
                        for got, target in zip(certified, batch))
        return certified[0::2]

    monkeypatch.setattr(ModularSpanBasis, "__init__", with_oracle)
    monkeypatch.setattr(ModularSpanBasis, "contains", both)
    for verify, seed in ((verify_skasnxt4, 1), (verify_s3ss0, 2), (verify_szeroins, 3)):
        assert verify(6, samples=200, seed=seed).all_member
    assert len(verdicts) == 2 * 600
    assert all(certified == voted for certified, voted in verdicts)
    members = sum(certified for certified, _ in verdicts)
    assert 600 <= members < len(verdicts)


def test_the_span_lemmas_hold_no_full_size_copy_of_the_hull_equations():
    # three generator sets at n=7 (k = 4, 5, 7; S_6 is empty), each basis
    # alive to the end: when each kept its own float64 copy of E and its
    # extras (603 x 931 x 8 B = 4.5 MB apiece) and every elimination cast
    # its input whole, this peaked at 19.8 MiB; sharing E and deciding in
    # blocks takes 5.4 MiB
    import tracemalloc

    from qappoly.geometry import verify_skasnxt4

    vertex_space(7), hull_equations(7)   # cached: not part of the peak
    tracemalloc.start()
    try:
        report = verify_skasnxt4(7, samples=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.all_member and len(report.certificates) == 3
    assert peak < 8 * 2 ** 20


def _readme_form(family, n):
    """The README's example forms, qap5 at any n and qap4 and qap2 at n=7."""
    from qappoly.inequalities import Qap4Params, Qap5Params, build_qap4, build_qap5

    if family == "qap5":
        return build_qap5(Qap5Params(n=n, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    if family == "qap4":
        return build_qap4(Qap4Params(n=n, i_set=tuple(range(1, 8)), j_set=tuple(range(1, 8))))
    return build_qap2(Qap2Params(n=n, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2))


@pytest.mark.parametrize("family,n", [("qap5", 5), ("qap5", 6), ("qap5", 7),
                                      ("qap4", 7), ("qap2", 7)])
def test_the_proper_face_shares_the_hull_echelon_and_matches_an_inserted_copy(family, n):
    # the proper face keeps E and its cached echelon form by reference and
    # the form's equation and its reduced row beside them; its pivots, rank
    # and remainders equal those of the one echelon form that np.insert
    # builds in a copy
    from oracle_streams import echelon_remainder, inserted_echelon

    from qappoly.geometry import _form_equation

    form = _readme_form(family, n)
    space = vertex_space(n)
    assert form.scaled_slack_on_match_rows(space.zt).any()   # a proper face
    known = hull_equations(n)
    equation = _form_equation(form)
    face = known.with_equation(equation, "proper face")
    assert face.echelon is known.echelon and face.pivots is known.pivots
    assert np.shares_memory(face.equations, hull_equations(n).equations)
    assert len(face.added) == 1 and np.array_equal(face.added[0], equation[None])
    assert face.added[0].dtype.itemsize <= equation.dtype.itemsize
    assert face.row_count == len(known.equations) + 1
    assert len(face.beyond) == 1 and face.rank == len(known.echelon) + 1
    p = known.prime
    echelon, pivots = inserted_echelon(known.echelon, known.pivots, equation, p)
    assert sorted(face.held.tolist()) == pivots
    assert face.rank == len(echelon)
    rng = np.random.default_rng(n)
    rows = np.vstack([rng.integers(-5, 6, size=(4, equation.size)),
                      space.rows(rng.integers(len(space.images), size=3)),
                      equation])
    remainder = face.remainder(rows)
    assert np.array_equal(remainder, echelon_remainder(rows, echelon, pivots, p))
    # the equation is in the face's row space; the other rows are not
    assert remainder[:-1].any(axis=1).all() and not remainder[-1].any()


# ---------------------------------------------------------------------------
# proven tight dimensions against fixed verdicts and exact elimination


def _qap5_diagonal(n, m):
    """qap4's shape on (1,1)..(m,m) as a qap5 form with beta = 2."""
    from qappoly.inequalities import Qap5Params, build_qap5

    return build_qap5(Qap5Params(n=n, beta=2, coeffs={(i, i): 1 for i in range(1, m + 1)}))


@pytest.mark.parametrize("m,expected", [
    (4, ("not facet", 444, 2172)),
    (5, ("facet", 456, 2450)),
    (6, ("facet", 456, 2649)),
    (7, ("facet", 456, 2779)),
])
def test_the_qap4_shape_at_n7_keeps_its_verdicts(m, expected):
    from qappoly.geometry import verify_facet

    report = verify_facet(_qap5_diagonal(7, m), 7)
    assert (report.verdict, report.tight_dim, report.tight_count) == expected
    assert report.polytope_dim == 457
    assert report.tight_rank.certificate.bound == report.tight_dim


def _n6_forms():
    from qappoly.inequalities import Qap1Params, Qap3Params, build_qap1, build_qap3

    # qap3's parameter conditions need n >= 7; the form itself is valid at n=6
    qap3 = build_qap3(Qap3Params(n=6, p1_set=frozenset({1, 2}), p2_set=frozenset({3}),
                                 q_set=frozenset({1, 2, 3}), beta=1), check=False)
    return {"qap1": build_qap1(Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4)),
            "qap3": qap3, "qap5": _qap5_diagonal(6, 4)}


@pytest.mark.parametrize("family", ["qap1", "qap3", "qap5"])
def test_lifted_kernel_tight_dims_at_n6_match_fraction_free_elimination(family):
    from qappoly.geometry import vertex_space, verify_facet
    from qappoly.modrank import rank_exact_rational

    form = _n6_forms()[family]
    report = verify_facet(form, 6)
    # the qap1 facet needs nothing beyond the hull and form equations
    assert report.tight_rank.certificate.kind == (
        "proper face" if family == "qap1" else "lifted kernel")
    space = vertex_space(6)
    rows = space.rows(np.flatnonzero(form.scaled_slack_on_match_rows(space.zt) == 0))
    assert report.tight_dim == rank_exact_rational(rows - rows[0])


def _random_qap5(n, rng):
    """A qap5 form with a random 0/1 coefficient matrix and beta in 0..n."""
    from qappoly.inequalities import Qap5Params, build_qap5

    coeffs = {(i, j): 1 for i in range(1, n + 1) for j in range(1, n + 1)
              if rng.random() < 0.25}
    return build_qap5(Qap5Params(n=n, beta=rng.randint(0, n), coeffs=coeffs))


def test_seeded_qap5_verdicts_at_n5_are_confirmed_by_fraction_free_elimination():
    # twelve seeded forms (two facets, one empty tight set, nine more not
    # facets) and a form tight everywhere, each certified: fraction-free
    # elimination confirms both proven dimensions.  The tight set is counted
    # again from s, the coefficients a vertex matches: tight at beta - 1 or beta
    from qappoly.geometry import verify_facet
    from qappoly.inequalities import Qap5Params, build_qap5

    rng = random.Random(8)
    forms = [_random_qap5(5, rng) for _ in range(12)]
    forms.append(build_qap5(Qap5Params(n=5, beta=1, coeffs={})))
    kinds = Counter()
    for form in forms:
        report = verify_facet(form, 5, certify=True)
        coeffs, beta = form.params.coeff_map(), form.params.beta
        tight = sum(sum(coeffs.get(pair, 0) for pair in enumerate(sigma.image, 1))
                    in (beta - 1, beta) for sigma in enumerate_permutations(5))
        assert report.tight_count == tight
        assert report.polytope_dim == 77 and "certified" in report.polytope_rank.status
        if tight:
            assert "certified" in report.tight_rank.status
            assert report.tight_rank.certificate.bound == report.tight_dim
        else:
            assert report.tight_rank is None and report.tight_dim == -1
        kinds[report.verdict, "empty" if not tight else "all" if tight == 120 else "some"] += 1
    assert kinds == {("facet", "some"): 2, ("not facet", "some"): 9,
                     ("not facet", "empty"): 1, ("not facet", "all"): 1}


def test_tight_dims_at_n6_equal_the_voted_rank_of_the_whole_tight_set():
    # the proof draws a subset; the vote reduces every tight vertex
    from qappoly.geometry import vertex_space, verify_facet

    space = vertex_space(6)
    rng = random.Random(6)
    forms = [_random_qap5(6, rng) for _ in range(12)] + list(_n6_forms().values())
    verdicts = Counter()
    for form in forms:
        report = verify_facet(form, 6)
        tight = np.flatnonzero(form.scaled_slack_on_match_rows(space.zt) == 0)
        if tight.size:
            rows = space.rows(tight)
            assert report.tight_dim == rank_consensus(rows - rows[0]).consensus_rank
            verdicts[report.verdict] += 1
    assert verdicts["facet"] >= 1 and verdicts["not facet"] >= 3
