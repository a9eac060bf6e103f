import itertools
import math
import random

import numpy as np
import pytest
from oracle_streams import vertex_entries

from qappoly.errors import CapExceededError, InvalidPermutationError
from qappoly.indexing import pair_from_flat
from qappoly.inequalities import permutation_table
from qappoly.perms import Permutation, apply_transposition, enumerate_permutations


def test_identity_vertex_n2():
    # nonzero entries exactly {(11,11), (22,22), (11,22)}
    assert vertex_entries((1, 2)) == {(1, 1), (4, 4), (1, 4)}


def test_swap_vertex_n2():
    assert vertex_entries((2, 1)) == {(2, 2), (3, 3), (2, 3)}


def test_vertex_against_dense_outer_product():
    # dense oracle: vec(P) vec(P)^T, both orientations of each entry
    n = 7
    for sigma in (Permutation.identity(n), Permutation((3, 7, 1, 5, 2, 6, 4))):
        p = np.zeros((n, n), dtype=int)
        for i in range(1, n + 1):
            p[i - 1, sigma(i) - 1] = 1
        dense = np.zeros((n * n, n * n), dtype=int)
        for f1, f2 in vertex_entries(sigma.image):
            dense[f1 - 1, f2 - 1] = dense[f2 - 1, f1 - 1] = 1
        assert np.array_equal(dense, np.outer(p.reshape(-1), p.reshape(-1)))


def test_vertex_invariants_exhaustive_small():
    for n in (2, 3, 4, 5):
        for sigma in enumerate_permutations(n):
            entries = vertex_entries(sigma.image)
            assert len(entries) == n + n * (n - 1) // 2
            diag = sum(1 for f1, f2 in entries if f1 == f2)
            assert diag + 2 * (len(entries) - diag) == n * n
            for f1, f2 in entries:
                assert f1 <= f2
                for f in (f1, f2):
                    i, j = pair_from_flat(n, f)
                    assert sigma(i) == j


def test_invalid_permutation_rejected():
    with pytest.raises(InvalidPermutationError):
        Permutation((1, 1, 3))
    with pytest.raises(InvalidPermutationError):
        Permutation((0, 1))


def test_transposition_examples():
    sigma = apply_transposition(Permutation.identity(3), 1, 2)
    assert sigma.image == (2, 1, 3)
    assert apply_transposition(sigma, 1, 2) == Permutation.identity(3)


def test_transposition_changes_exactly_two_positions():
    rng = random.Random(0)
    for _ in range(25):
        sigma = Permutation(tuple(rng.sample(range(1, 8), 7)))
        x, y = rng.sample(range(1, 8), 2)
        tau = apply_transposition(sigma, x, y)
        diffs = [i for i in range(1, 8) if sigma(i) != tau(i)]
        assert sorted(diffs) == sorted([x, y])
        assert apply_transposition(tau, x, y) == sigma


def test_transposition_rejects_bad_indices():
    with pytest.raises(InvalidPermutationError):
        apply_transposition(Permutation.identity(3), 2, 2)
    with pytest.raises(InvalidPermutationError):
        apply_transposition(Permutation.identity(3), 1, 4)


@pytest.mark.parametrize("n,count", [(1, 1), (3, 6), (7, 5040)])
def test_enumeration_counts(n, count):
    perms = list(enumerate_permutations(n))
    assert len(perms) == count == math.factorial(n)
    assert perms == sorted(perms)  # lexicographic on the image
    assert len(set(perms)) == count


def test_enumeration_cap():
    with pytest.raises(CapExceededError, match="cap 9"):
        next(enumerate_permutations(10))
    # explicit override allows more
    assert next(enumerate_permutations(10, cap=10)) == Permutation.identity(10)


def test_sign_multiplicativity():
    rng = random.Random(7)
    for _ in range(20):
        sigma = Permutation(tuple(rng.sample(range(1, 7), 6)))
        x, y = rng.sample(range(1, 7), 2)
        assert apply_transposition(sigma, x, y).sign() == -sigma.sign()


def test_one_line_serialization():
    sigma = Permutation((3, 1, 2))
    assert sigma.one_line() == "3 1 2"


@pytest.mark.parametrize("size", range(9))
def test_permutation_tables_follow_itertools_order(size):
    for r in range(size + 1):
        table = permutation_table(size, r)
        expected = list(itertools.permutations(range(size), r))
        assert table.dtype == np.int8 and table.flags.c_contiguous
        assert table.shape == (len(expected), r)
        assert table.tolist() == [list(row) for row in expected]
