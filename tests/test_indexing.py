import pytest

from qappoly.errors import DimensionMismatchError
from qappoly.indexing import (
    canon_entry,
    flat_index,
    pair_from_flat,
    triangle_dimension,
    triangle_entries,
    triangle_position,
)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_flat_round_trip(n):
    flats = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            f = flat_index(n, i, j)
            assert pair_from_flat(n, f) == (i, j)
            flats.append(f)
    assert flats == list(range(1, n * n + 1))


def test_flat_matches_convention():
    # flat index of (i, j) is n*(i-1)+j
    assert flat_index(4, 1, 1) == 1
    assert flat_index(4, 2, 1) == 5
    assert flat_index(4, 3, 4) == 12


def test_flat_rejects_out_of_range():
    with pytest.raises(DimensionMismatchError):
        flat_index(3, 0, 1)
    with pytest.raises(DimensionMismatchError):
        flat_index(3, 1, 4)


def test_canon_entry_orders():
    assert canon_entry(5, 2) == (2, 5)
    assert canon_entry(2, 5) == (2, 5)
    assert canon_entry(3, 3) == (3, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_triangle_position_round_trip(n):
    positions = []
    for f1 in range(1, n * n + 1):
        for f2 in range(f1, n * n + 1):
            positions.append(triangle_position(n, f1, f2))
    assert positions == list(range(triangle_dimension(n)))
    assert [triangle_position(n, *entry) for entry in triangle_entries(n)] == positions


def test_triangle_dimension():
    assert triangle_dimension(7) == (7**4 + 7**2) // 2 == 1225
