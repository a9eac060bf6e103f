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
)


@pytest.mark.parametrize("workers", [1, 2])
def test_rank_disagreement_escalates_to_five_primes(monkeypatch, workers):
    def split_rank(matrix, p):
        return 1 if p == PRIME_POOL[0] else 2

    monkeypatch.setattr(modrank, "rank_mod_p", split_rank)
    report = rank_consensus(np.eye(3, dtype=np.int64), workers=workers)
    assert report.primes == PRIME_POOL[:ESCALATED_PRIME_COUNT]
    assert report.status == "inconclusive"
    assert report.consensus_rank is None


@pytest.mark.parametrize("workers", [1, 2])
def test_split_membership_vote_escalates_then_raises(monkeypatch, workers):
    space = vertex_space(4)
    basis = ModularSpanBasis(space.vmatrix[:6].astype(np.int64), workers=workers)
    assert basis.primes == PRIME_POOL[:DEFAULT_PRIME_COUNT]

    def split_vote(self, vector, p):
        return p == PRIME_POOL[0]

    monkeypatch.setattr(ModularSpanBasis, "contains_mod_p", split_vote)
    with pytest.raises(QappolyError, match="disagreement"):
        basis.contains(space.vmatrix[3].astype(np.int64))
    assert basis.primes == PRIME_POOL[:ESCALATED_PRIME_COUNT]
    assert sorted(basis._bases) == sorted(PRIME_POOL[:ESCALATED_PRIME_COUNT])


def test_span_basis_stores_only_its_echelon_rows():
    # the 24 vertices at n=4 have rank 23: the reduced matrix has 24 rows,
    # and the stored basis must not be a view that keeps all of them alive
    generators = vertex_space(4).vmatrix.astype(np.int64)
    basis = ModularSpanBasis(generators)
    for pivots, rows in basis._bases.values():
        assert rows.base is None
        assert rows.shape[0] == len(pivots) == 23
