import numpy as np
import pytest

from qappoly import modrank
from qappoly.errors import QappolyError
from qappoly.geometry import vertex_space
from qappoly.modrank import (
    DEFAULT_PRIME_COUNT,
    ESCALATED_PRIME_COUNT,
    PRIME_POOL,
    ModularSpanBasis,
    rank_consensus,
    rank_exact_rational,
)


def test_rank_disagreement_escalates_to_five_primes(monkeypatch):
    def split_rank(matrix, p):
        return 1 if p == PRIME_POOL[0] else 2

    monkeypatch.setattr(modrank, "rank_mod_p", split_rank)
    report = rank_consensus(np.eye(3, dtype=np.int64))
    assert report.primes == PRIME_POOL[:ESCALATED_PRIME_COUNT]
    assert report.status == "inconclusive"
    assert report.consensus_rank is None


def test_split_membership_vote_escalates_then_raises(monkeypatch):
    space = vertex_space(4)
    basis = ModularSpanBasis(space.rows(range(6)))
    assert basis.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]

    def split_vote(self, vector, p):
        return p == PRIME_POOL[0]

    monkeypatch.setattr(ModularSpanBasis, "contains_mod_p", split_vote)
    with pytest.raises(QappolyError, match="disagreement"):
        basis.contains(space.rows([3])[0])
    assert basis.primes == PRIME_POOL[:ESCALATED_PRIME_COUNT]
    assert sorted(basis._bases) == sorted(PRIME_POOL[:ESCALATED_PRIME_COUNT])


def test_span_basis_stores_only_its_echelon_rows():
    # the 24 vertices at n=4 have rank 23: the reduced matrix has 24 rows,
    # and the stored basis must not be a view that keeps all of them alive
    generators = vertex_space(4).rows(range(24))
    basis = ModularSpanBasis(generators)
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
