import tracemalloc

import numpy as np
import pytest
from oracle_streams import bareiss_rank

from qappoly import modrank
from qappoly.errors import QappolyError
from qappoly.geometry import hull_equations, vertex_space
from qappoly.modrank import (
    PRIME_POOL,
    ModularSpanBasis,
    ProvenEquations,
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
    assert report.primes == PRIME_POOL
    assert report.status == "inconclusive"
    assert report.consensus_rank is None


class ExactPoints:
    """Integer points as ``lifted_kernel`` reads them, checked against
    equations by products of Python integers."""

    def __init__(self, points):
        self.points = np.asarray(points)
        self.shape = self.points.shape

    def __getitem__(self, positions):
        return self.points[positions]

    def missed(self, equations):
        products = self.points.astype(object) @ equations.T.astype(object)
        return np.flatnonzero(products.any(axis=1))


def nothing_known(columns):
    return ProvenEquations(np.zeros((0, columns), dtype=np.int64), PRIME_POOL[0])


def test_a_span_basis_without_a_lift_is_refused(monkeypatch):
    monkeypatch.setattr(modrank, "lifted_kernel", lambda points, known: None)
    points = ExactPoints(vertex_space(4).rows(range(6)))
    with pytest.raises(QappolyError, match="unproven: .* 6 span generators"):
        ModularSpanBasis(points, nothing_known(points.shape[1]))


def test_span_basis_keeps_only_its_lifted_kernel():
    # the 24 vertices at n=4 have rank 23 (affine dimension 22): the hull
    # equations prove it with no extra, so the certificate takes their kind;
    # the basis shares the known equations and keeps no float64 copy of them,
    # nor the generators or an echelon basis
    generators = ExactPoints(vertex_space(4).rows(range(24)))
    known = hull_equations(4)
    basis = ModularSpanBasis(generators, known)
    assert basis.certificate.kind == "affine-hull equations"
    assert basis.certificate.columns - basis.certificate.equation_rank == 23
    assert basis.certificate.bound == 22
    assert np.shares_memory(basis.equations, known.equations)
    assert basis.extras.shape == (0, known.equations.shape[1])
    arrays = [value for value in vars(basis).values() if isinstance(value, np.ndarray)]
    assert arrays and not any(array.dtype.kind == "f" for array in arrays)
    assert sum(array.nbytes for array in arrays) == known.equations.nbytes


def test_a_span_basis_from_a_proper_face_checks_the_added_row():
    # z = 0 is added to the known equations, not copied into them: the
    # basis holds both by reference and checks the added row too
    empty = nothing_known(3)
    face = empty.with_equation(np.array([0, 0, 1]), "proper face")
    assert face.equations is empty.equations and face.row_count == 1
    basis = ModularSpanBasis(ExactPoints([[1, 0, 0], [0, 1, 0]]), face)
    assert (basis.certificate.kind, basis.certificate.equation_rows) == ("proper face", 1)
    assert basis.equations is empty.equations and basis.added is face.added
    assert basis.contains(np.array([[2, 3, 0], [0, 0, 1], [1, 1, 1]])).tolist() == [
        True, False, False]


def test_rank_consensus_reports_the_same_for_int8_and_int64():
    space = vertex_space(5)
    rows = space.rows(range(len(space.images)))
    diffs = rows - rows[:1]
    narrow = rank_consensus(diffs)
    wide = rank_consensus(diffs.astype(np.int64))
    assert diffs.dtype == np.int8
    assert narrow == wide
    assert narrow.consensus_rank == 77


def test_exact_rank_agrees_with_modular_consensus():
    rng = np.random.default_rng(7)
    for _ in range(60):
        rows, cols = rng.integers(1, 10, size=2)
        matrix = rng.integers(-4, 5, size=(rows, cols))
        matrix[:, rng.integers(cols)] = 0  # a zero column
        if rows >= 3:
            matrix[-1] = 3 * matrix[0] - 2 * matrix[1]  # a dependent row
        assert rank_exact_rational(matrix) == rank_consensus(matrix).consensus_rank


def test_exact_rank_agrees_with_bareiss_on_seeded_low_rank_matrices(monkeypatch):
    # small combinations of a few random rows: entries of 3 bits stay int64,
    # of 40 bits fail the int64 guard and widen, and an object input past
    # 2**63 starts as Python integers
    dtypes = []
    cleared = modrank._cleared

    def recording(block, top):
        rows = cleared(block, top)
        dtypes.append(rows.dtype)
        return rows

    monkeypatch.setattr(modrank, "_cleared", recording)
    rng = np.random.default_rng(31)
    widened = 0
    for trial in range(120):
        rows, cols, rank = rng.integers(1, 14, size=3)
        bits = (3, 40, 64)[trial % 3]
        basis = rng.integers(-2 ** min(bits, 62), 2 ** min(bits, 62), size=(rank, cols))
        matrix = rng.integers(-3, 4, size=(rows, rank)).astype(object) @ basis.astype(object)
        if bits == 64:
            matrix = matrix * (2 ** 63 + 1)
        else:
            matrix = matrix.astype(np.int64)
        before = len(dtypes)
        assert rank_exact_rational(matrix) == bareiss_rank(matrix), trial
        widened += bits == 40 and object in dtypes[before:]
    assert {np.dtype(np.int64), np.dtype(object)} <= set(dtypes)
    assert widened >= 10


@pytest.mark.parametrize("n", [4, 5])
def test_exact_rank_agrees_with_bareiss_on_vertex_differences(n):
    from qappoly.inequalities import Qap5Params, build_qap5

    space = vertex_space(n)
    form = build_qap5(Qap5Params(n=n, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
    tight = np.flatnonzero(form.scaled_slack_on_match_rows(space.zt) == 0)
    for idx in (np.arange(len(space.images)), tight):
        rows = space.rows(idx)
        diffs = rows - rows[0]
        assert rank_exact_rational(diffs) == bareiss_rank(diffs)


# ---------------------------------------------------------------------------
# lifted kernels


@pytest.mark.parametrize("hull", [False, True])
@pytest.mark.parametrize("n", [4, 5, 6])
def test_a_lifted_kernel_vanishes_on_its_points_and_has_full_row_rank(n, hull):
    # from nothing known, the extras are the whole kernel; from the hull
    # equations, which cut out the span of all vertices, there are none and
    # the certificate takes the hull equations' kind
    space = vertex_space(n)
    points = space.rows(range(len(space.images)))
    known = hull_equations(n) if hull else nothing_known(points.shape[1])
    extras, certificate = lifted_kernel(ExactPoints(points), known)
    assert not (points.astype(np.int64) @ extras.T).any()
    rank = rank_consensus(points).consensus_rank
    assert len(extras) == (0 if hull else points.shape[1] - rank)
    assert rank_mod_p(extras, PRIME_POOL[1]) == extras.shape[0]
    assert certificate.subset_rows <= len(points)
    assert (certificate.kind, certificate.equation_rows, certificate.equation_rank) == (
        "affine-hull equations" if hull else "lifted kernel",
        len(known.equations) + len(extras), points.shape[1] - rank)
    assert certificate.bound == rank - 1


def test_a_lifted_kernel_reconstructs_denominators():
    # the span of (3, 1, 0) and (0, 1, 3): its kernel row mod p holds 1/3
    points = ExactPoints(np.array([[3, 1, 0], [0, 1, 3]]))
    extras, _ = lifted_kernel(points, nothing_known(3))
    assert extras.tolist() in ([[1, -3, 1]], [[-1, 3, -1]])
    basis = ModularSpanBasis(points, nothing_known(3))
    assert basis.contains(np.array([[3, 2, 3], [1, 0, 0]])).tolist() == [True, False]


def test_a_lift_past_its_limit_is_refused():
    p = PRIME_POOL[0]

    def residues(*fractions):
        return np.array([[a * pow(b, -1, p) % p for a, b in fractions]], dtype=np.int64)

    # the lcm of the denominators, 15, reaches the limit
    assert modrank._lift(residues((1, 3), (1, 5)), p, 10) is None
    assert modrank._lift(residues((1, 3), (1, 5)), p, 16).tolist() == [[5, 3]]
    # the lcm 6 does not, but 7/2 scales to 21
    row = residues((7, 2), (1, 3), (1, 1))
    assert modrank._lift(row, p, 20) is None
    assert modrank._lift(row, p, 22).tolist() == [[21, 2, 6]]


def test_membership_is_exact_past_float64():
    # 3 * 2**60 + 1 and 3 * 2**60 round to the same float64; the products
    # of Python integers tell them apart
    basis = ModularSpanBasis(ExactPoints(np.array([[3, 1, 0], [0, 1, 3]])), nothing_known(3))
    big = 2 ** 60
    assert basis.contains(np.array([[3 * big, 2 * big, 3 * big],
                                    [3 * big + 1, 2 * big, 3 * big]])).tolist() == [True, False]


def test_one_batch_decides_python_integer_and_float64_targets_alike():
    # 70 targets are two blocks of at most 64: the first holds small members
    # and non-members only, so it runs in float64; the second mixes small
    # ones with targets near 2**60, which fail the float64 guard, so that
    # block runs in Python integers; each verdict is exact either way
    generators = np.array([[3, 1, 0], [0, 1, 3]])
    basis = ModularSpanBasis(ExactPoints(generators), nothing_known(3))
    rng = np.random.default_rng(5)
    targets = rng.integers(-9, 10, size=(70, 2)) @ generators
    targets[rng.integers(70, size=20), 0] += 1   # off the span: w·v moves by 1
    big = 2 ** 60
    targets[66:] = [[3 * big, 2 * big, 3 * big], [3 * big + 1, 2 * big, 3 * big],
                    [0, big, 3 * big], [1, 0, 0]]
    # the span is the kernel of w = (1, -3, 1), read in Python integers
    expected = [not value for value in targets.astype(object) @ np.array([1, -3, 1], dtype=object)]
    assert any(expected[:64]) and not all(expected[:64])
    assert expected[64:66] and expected[66:] == [True, False, True, False]
    got = basis.contains(targets)
    assert got.dtype == bool and got.tolist() == expected


def test_a_flipped_lift_entry_loses_the_certificate(monkeypatch):
    lift = modrank._lift

    def flipped(kernel, p, limit):
        equations = lift(kernel, p, limit)
        equations[0, 0] += 1
        return equations

    generators = ExactPoints(vertex_space(4).rows(range(24)))
    known = nothing_known(generators.shape[1])
    assert ModularSpanBasis(generators, known).certificate is not None
    monkeypatch.setattr(modrank, "_lift", flipped)
    assert lifted_kernel(generators, known) is None
    with pytest.raises(QappolyError, match="unproven"):
        ModularSpanBasis(generators, known)


def test_large_denominators_are_refused_as_unproven():
    # a kernel of a random 6x12 matrix with entries up to 10**4 has
    # denominators near 10**26, far beyond reconstruction at a 31-bit prime
    rng = np.random.default_rng(11)
    matrix = rng.integers(-10**4, 10**4, size=(6, 12))
    assert lifted_kernel(ExactPoints(matrix), nothing_known(12)) is None
    assert rank_consensus(matrix).consensus_rank == rank_exact_rational(matrix) == 6
    with pytest.raises(QappolyError, match="unproven"):
        ModularSpanBasis(ExactPoints(matrix), nothing_known(12))


def test_an_empty_point_set_has_the_identity_kernel():
    points = ExactPoints(np.zeros((0, 4), dtype=np.int8))
    extras, certificate = lifted_kernel(points, nothing_known(4))
    assert extras.tolist() == np.eye(4, dtype=int).tolist()
    assert certificate.equation_rank == 4 and certificate.subset_rows == 0
    basis = ModularSpanBasis(points, nothing_known(4))
    assert basis.contains(np.array([[0, 0, 1, 0], [0, 0, 0, 0]])).tolist() == [False, True]
    assert basis.contains(np.zeros((0, 4), dtype=np.int8)).tolist() == []


def test_membership_takes_a_batch_of_targets_only():
    basis = ModularSpanBasis(ExactPoints(np.array([[3, 1, 0], [0, 1, 3]])), nothing_known(3))
    for shape in ((3,), (2, 4)):
        with pytest.raises(QappolyError, match="targets have shape"):
            basis.contains(np.zeros(shape, dtype=np.int64))


def test_a_lift_short_of_full_row_rank_is_no_proof(monkeypatch):
    # a repeated row still vanishes on every point, but the rank of the
    # lifted rows falls one short of the free columns
    lift = modrank._lift

    def repeated(kernel, p, limit):
        equations = lift(kernel, p, limit)
        equations[1] = equations[0]
        return equations

    points = ExactPoints(vertex_space(4).rows(range(24)))
    monkeypatch.setattr(modrank, "_lift", repeated)
    assert lifted_kernel(points, nothing_known(points.shape[1])) is None


# ---------------------------------------------------------------------------
# blocked elimination


def unblocked_echelon(matrix, p):
    """Reference oracle: the elimination before it was blocked, one gathered
    rank-1 update of the rows below per pivot, over all remaining columns."""
    m = np.ascontiguousarray(np.mod(matrix, np.int64(p)))
    rows, cols = m.shape
    r = 0
    pivots = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        below = m[r + 1:, c]
        tgt = np.nonzero(below)[0]
        if tgt.size:
            block = m[r + 1 + tgt, c:]
            block -= below[tgt, None] * m[r, c:]
            block %= p
            m[r + 1 + tgt, c:] = block
        pivots.append(c)
        r += 1
    return r, pivots, m[:r]


def unblocked_kernel(pivots, echelon, p):
    """Reference oracle: back-substitution one pivot column at a time."""
    cols = echelon.shape[1]
    free = np.setdiff1d(np.arange(cols), pivots)
    upper = echelon[:, pivots]
    solved = echelon[:, free].copy()
    starts = np.searchsorted(free, pivots)
    for i in range(len(pivots) - 1, 0, -1):
        above = np.flatnonzero(upper[:i, i])
        if above.size:
            s = starts[i]
            block = solved[above, s:]
            block -= upper[above, i, None] * solved[i, s:]
            block %= p
            solved[above, s:] = block
    kernel = np.zeros((free.size, cols), dtype=np.int64)
    kernel[np.arange(free.size), free] = 1
    kernel[:, pivots] = (p - solved.T) % p
    return kernel, free


def _object_matmul_mod_p(a, b, p):
    return (a.astype(object) @ b.astype(object)) % p


def _dense(rng, rows, cols):
    return rng.integers(-2 ** 40, 2 ** 40, size=(rows, cols))


def _zero_columns_and_duplicate_rows(rng):
    matrix = rng.integers(-5, 6, size=(100, 140))
    matrix[:, 64:128] = 0           # a panel with no pivot
    matrix[:, [0, 3, 130]] = 0
    matrix[50:60] = matrix[10:20]   # duplicate rows
    matrix[:30, :5] = 0             # the first pivots need row swaps
    return matrix


def _sparse_int8(rng):
    matrix = rng.integers(-3, 4, size=(200, 150), dtype=np.int8)
    matrix[rng.random(matrix.shape) > 0.05] = 0
    return matrix


ELIMINATION_CASES = {
    "1 column": (lambda rng: rng.integers(-3, 4, size=(7, 1)), True),
    "63 columns": (lambda rng: _dense(rng, 40, 63), False),
    "64 columns": (lambda rng: _dense(rng, 70, 64), False),
    "65 columns": (lambda rng: _dense(rng, 30, 65), False),
    "129 columns": (lambda rng: _dense(rng, 100, 129), False),
    "0 rows": (lambda rng: np.zeros((0, 70), dtype=np.int64), True),
    "1 row": (lambda rng: rng.integers(-3, 4, size=(1, 130)), True),
    "more rows than columns": (lambda rng: _dense(rng, 150, 65), False),
    "zero columns, duplicate rows": (_zero_columns_and_duplicate_rows, False),
    "sparse int8": (_sparse_int8, False),
    "low rank": (lambda rng: rng.integers(-3, 4, size=(120, 6))
                 @ rng.integers(-3, 4, size=(6, 129)), True),
    "small int8": (lambda rng: rng.integers(-2, 3, size=(12, 9), dtype=np.int8), True),
    # the first panel clears its 397 rows below at 1,034 columns, in four
    # row blocks of at most 126 rows
    "low rank, several row blocks": (lambda rng: rng.integers(-3, 4, size=(400, 3))
                                     @ rng.integers(-3, 4, size=(3, 1100)), True),
    "n=6 vertex rows": (lambda rng: vertex_space(6).rows(range(720)), False),
}


@pytest.mark.parametrize("p", PRIME_POOL)
@pytest.mark.parametrize("case", sorted(ELIMINATION_CASES))
def test_blocked_elimination_matches_the_unblocked_loop(case, p):
    build, small = ELIMINATION_CASES[case]
    matrix = build(np.random.default_rng(12))
    rank, pivots, echelon = modrank._echelonize_mod_p(matrix, p)
    expected_rank, expected_pivots, expected_echelon = unblocked_echelon(matrix, p)
    assert (rank, pivots) == (expected_rank, expected_pivots)
    assert echelon.shape == (rank, matrix.shape[1])
    assert ((echelon >= 0) & (echelon < p)).all()
    for row, c in zip(echelon, pivots):
        assert row[c] == 1 and not row[:c].any()
    # the same row swaps and updates, only landing at other times
    assert np.array_equal(echelon, expected_echelon)
    expected_kernel, free = unblocked_kernel(pivots, expected_echelon, p)
    kernel = modrank._kernel_mod_p(pivots, echelon, free, p)
    assert np.array_equal(kernel, expected_kernel)
    # any subset of the free columns gives those kernel rows
    assert np.array_equal(modrank._kernel_mod_p(pivots, echelon, free[::2], p),
                          expected_kernel[::2])
    assert not _object_matmul_mod_p(echelon, kernel.T, p).any()
    if small:
        assert rank == rank_exact_rational(matrix)


# The pool's primes and the next seven below them: the split product is
# exact for any modulus below 2**31, checked here at ten of the largest.
LARGE_PRIMES = PRIME_POOL + (2147483579, 2147483563, 2147483549, 2147483543,
                             2147483497, 2147483489, 2147483477)


@pytest.mark.parametrize("k", [1, modrank.PANEL])
@pytest.mark.parametrize("p", LARGE_PRIMES)
def test_split_residue_matmul_is_exact_at_the_largest_residues(p, k):
    # p - 1 everywhere, and odd residues, whose products are odd: a sum past
    # 2**53 would lose their last bit (a split at 17 bits does)
    a = np.full((3, k), p - 1, dtype=np.int64)
    a[1] = p - 2
    a[2] = 2 ** 16 - 1
    b = np.full((k, 5), p - 1, dtype=np.int64)
    b[:, 1] = p - 2
    b[:, 2] = 2 ** 16 - 1
    b[:, 3] = 0
    b[:, 4] = 1
    expected = _object_matmul_mod_p(a, b, p)
    assert np.array_equal(modrank._matmul_mod_p(a, b, p), expected.astype(np.int64))


def test_a_panel_of_split_products_stays_below_float64_exactness():
    bound = modrank.PANEL * (2 ** 16 - 1) * (max(PRIME_POOL) - 1)
    assert bound < 2 ** 53 == modrank.FLOAT_EXACT


def _n7_subset():
    space = vertex_space(7)
    rng = np.random.default_rng(0)
    rows = space.rows(np.sort(rng.choice(len(space.images), 490, replace=False)))
    return rows[1:] - rows[0]


def test_the_blocked_elimination_runs_one_product_per_panel(monkeypatch):
    # a product per pivot would be 457 calls; a panel of 64 columns takes
    # one per row block, and a row block holds PRODUCT_BLOCK_BYTES of
    # float64 at the width it updates, so at least 140 rows at 931 columns
    matrix = _n7_subset()
    assert matrix.shape == (489, 931)
    calls = []
    original = modrank._matmul_mod_p

    def counting(a, b, p):
        calls.append((a.shape[0], b.shape[1]))
        return original(a, b, p)

    monkeypatch.setattr(modrank, "_matmul_mod_p", counting)
    assert rank_mod_p(matrix, PRIME_POOL[0]) == 457
    fewest = modrank.PRODUCT_BLOCK_BYTES // (8 * matrix.shape[1])
    assert fewest == 140
    row_blocks = -(-matrix.shape[0] // fewest)
    assert 0 < len(calls) <= -(-matrix.shape[1] // modrank.PANEL) * row_blocks
    assert all(rows * width * 8 <= modrank.PRODUCT_BLOCK_BYTES for rows, width in calls)


def test_blocked_elimination_memory_stays_within_row_blocks():
    # beyond its int64 working copy, the elimination holds a few full-height
    # arrays one panel wide (the panel, its multipliers, a gathered rank-1
    # update) and a few row blocks of PRODUCT_BLOCK_BYTES (a product, the
    # rows it updates, a reduction's quotient).  Measured: 7.3 MiB at 3000
    # rows; casting the int8 input whole and four blocks of 1,024 rows at
    # once took 26.4 MiB, and the unblocked loop about 5.5 blocks of 1,024
    space = vertex_space(7)
    points = space.rows(np.random.default_rng(1).permutation(len(space.images))[:3000])
    rows, cols = points.shape
    tracemalloc.start()
    try:
        rank = rank_mod_p(points, PRIME_POOL[0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rank == 458
    panel_wide = rows * modrank.PANEL * 8
    assert peak - rows * cols * 8 <= 3 * panel_wide + 4 * modrank.PRODUCT_BLOCK_BYTES
