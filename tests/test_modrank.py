import numpy as np
import pytest

from qappoly import modrank
from qappoly.errors import QappolyError
from qappoly.geometry import vertex_space
from qappoly.modrank import (
    DEFAULT_PRIME_COUNT,
    PRIME_POOL,
    ModularSpanBasis,
    lifted_kernel,
    rank_consensus,
    rank_exact_rational,
    rank_mod_p,
)


def test_rank_disagreement_at_the_default_primes_is_inconclusive(monkeypatch):
    def split_rank(matrix, p):
        return 1 if p == PRIME_POOL[0] else 2

    monkeypatch.setattr(modrank, "rank_mod_p", split_rank)
    report = rank_consensus(np.eye(3, dtype=np.int64))
    assert report.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]
    assert report.status == "inconclusive"
    assert report.consensus_rank is None


def test_split_membership_vote_raises_at_the_default_primes(monkeypatch):
    monkeypatch.setattr(modrank, "lifted_kernel", lambda points, p: None)
    space = vertex_space(4)
    basis = ModularSpanBasis(space.rows(range(6)))
    assert basis.certificate is None
    assert basis.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]

    def split_vote(self, vector, p):
        return p == PRIME_POOL[0]

    monkeypatch.setattr(ModularSpanBasis, "contains_mod_p", split_vote)
    with pytest.raises(QappolyError, match="disagreement"):
        basis.contains(space.rows([3])[0])
    assert basis.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]
    assert sorted(basis._bases) == sorted(PRIME_POOL[:DEFAULT_PRIME_COUNT])


def test_span_basis_stores_only_its_echelon_rows(monkeypatch):
    # the 24 vertices at n=4 have rank 23 (affine dimension 22): the lifted
    # kernel proves it, and no echelon basis is kept beside it
    generators = vertex_space(4).rows(range(24))
    basis = ModularSpanBasis(generators)
    assert basis.certificate.kind == "lifted kernel"
    assert basis.kernel.rank == 23
    assert basis.certificate.bound == 22
    assert basis._bases == {}
    # on the vote path the reduced matrix has 24 rows, and the stored basis
    # must not be a view that keeps all of them alive
    monkeypatch.setattr(modrank, "lifted_kernel", lambda points, p: None)
    basis = ModularSpanBasis(generators)
    assert basis.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]
    for pivots, rows in basis._bases.values():
        assert rows.base is None
        assert rows.shape[0] == len(pivots) == 23


def test_span_basis_keeps_the_int8_generators_it_is_given():
    generators = vertex_space(4).rows(range(24))
    basis = ModularSpanBasis(generators)
    assert basis._generators is generators
    assert basis._generators.dtype == np.int8


def test_rank_consensus_reports_the_same_for_int8_and_int64():
    space = vertex_space(5)
    rows = space.rows(range(len(space.perms)))
    diffs = rows - rows[:1]
    narrow = rank_consensus(diffs)
    wide = rank_consensus(diffs.astype(np.int64))
    assert diffs.dtype == np.int8
    assert narrow == wide
    assert narrow.consensus_rank == 77


def test_bareiss_rank_agrees_with_modular_consensus():
    rng = np.random.default_rng(7)
    for _ in range(60):
        rows, cols = rng.integers(1, 10, size=2)
        matrix = rng.integers(-4, 5, size=(rows, cols))
        matrix[:, rng.integers(cols)] = 0  # a zero column
        if rows >= 3:
            matrix[-1] = 3 * matrix[0] - 2 * matrix[1]  # a dependent row
        assert rank_exact_rational(matrix) == rank_consensus(matrix).consensus_rank


# ---------------------------------------------------------------------------
# lifted kernels


@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_lifted_kernel_vanishes_on_its_points_and_has_full_row_rank(n):
    space = vertex_space(n)
    points = space.rows(range(len(space.perms)))
    kernel = lifted_kernel(points, PRIME_POOL[0])
    equations = kernel.equations
    assert not (points.astype(np.int64) @ equations.T).any()
    assert rank_mod_p(equations, PRIME_POOL[1]) == equations.shape[0]
    assert kernel.rank == rank_consensus(points).consensus_rank
    assert kernel.subset_rows <= len(points)
    certificate = kernel.certificate()
    assert (certificate.kind, certificate.equation_rows) == ("lifted kernel", len(equations))


def test_a_lifted_kernel_reconstructs_denominators():
    # the span of (3, 1, 0) and (0, 1, 3): its kernel row mod p holds 1/3
    points = np.array([[3, 1, 0], [0, 1, 3]])
    kernel = lifted_kernel(points, PRIME_POOL[0])
    assert kernel.equations.tolist() in ([[1, -3, 1]], [[-1, 3, -1]])
    assert kernel.annihilates(np.array([3, 2, 3]))
    assert not kernel.annihilates(np.array([1, 0, 0]))


def test_a_flipped_lift_entry_loses_the_certificate(monkeypatch):
    lift = modrank._lift

    def flipped(kernel, p, limit):
        equations = lift(kernel, p, limit)
        equations[0, 0] += 1
        return equations

    generators = vertex_space(4).rows(range(24))
    assert ModularSpanBasis(generators).certificate is not None
    monkeypatch.setattr(modrank, "_lift", flipped)
    assert lifted_kernel(generators, PRIME_POOL[0]) is None
    basis = ModularSpanBasis(generators)
    assert basis.certificate is None
    assert basis.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]
    member, votes = basis.contains(generators[5])
    assert member and len(votes) == DEFAULT_PRIME_COUNT


def test_large_denominators_fall_back_to_the_vote():
    # a kernel of a random 6x12 matrix with entries up to 10**4 has
    # denominators near 10**26, far beyond reconstruction at a 31-bit prime
    rng = np.random.default_rng(11)
    matrix = rng.integers(-10**4, 10**4, size=(6, 12))
    assert lifted_kernel(matrix, PRIME_POOL[0]) is None
    assert rank_consensus(matrix).consensus_rank == rank_exact_rational(matrix) == 6
    basis = ModularSpanBasis(matrix)
    assert basis.certificate is None
    member, votes = basis.contains(2 * matrix[0] - matrix[3])
    assert member and len(votes) == DEFAULT_PRIME_COUNT
    assert not basis.contains(np.eye(12, dtype=np.int64)[0])[0]


def test_an_empty_point_set_has_the_identity_kernel():
    kernel = lifted_kernel(np.zeros((0, 4), dtype=np.int8), PRIME_POOL[0])
    assert kernel.rank == 0 and kernel.subset_rows == 0
    assert not kernel.annihilates(np.array([0, 0, 1, 0]))


def test_a_lift_short_of_full_row_rank_is_no_proof(monkeypatch):
    # a repeated row still vanishes on every point, but its row count would
    # claim one dimension too few
    lift = modrank._lift

    def repeated(kernel, p, limit):
        equations = lift(kernel, p, limit)
        equations[1] = equations[0]
        return equations

    points = vertex_space(4).rows(range(24))
    monkeypatch.setattr(modrank, "_lift", repeated)
    assert lifted_kernel(points, PRIME_POOL[0]) is None
