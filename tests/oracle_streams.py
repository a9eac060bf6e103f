"""Independent statements of what the program computes in batches.

The qap1-qap4 enumeration order, written as plain nested loops: the program
defines that order once, as runs of index tables
(``inequalities.family_segments``); these generators are the independent
statement of it that the tests compare against, form id by form id.

The closed-form slack counts, read per vertex from its image: the program
reads them for all vertices at once over the match matrix
(``inequalities.slack_counts``).

The exact rank over Q by Bareiss's fraction-free elimination on lists of
Python integers: the program takes it by integer elimination with content
removal (``modrank.rank_exact_rational``).

An echelon form mod p grown by one row with ``np.insert`` into a copy: the
program keeps the echelon form it grows from by reference and the reduced
row beside it (``modrank.ProvenEquations.with_equation``).

The orbit minima of a run as a mask on every column tuple of its whole
index table, and a table row's lexicographic rank counted in plain loops:
the program generates the least column tuples alone and ranks them by
arithmetic (``inequalities.Segment.orbit_minima``).

A vertex's ones as a set of canonical entry keys, built pair by pair of its
matched cells: the program reads a vertex from its image, through its
column of the match matrix (``inequalities.match_matrix``) or, for the
signed sums of the vertex identities, through all of its flat indices in
one batch (``geometry._signed_entry_sum``).

A vertex's S_k index counted from a ``Permutation``, pair by pair of the
pattern: the program counts it for every vertex at once over the match
matrix (``geometry.VertexSpace.match_counts``).

A form's identity as its family, size, sorted (position, coefficient)
pairs, rhs, sense and scale: the program names a form by its id in
enumeration order (``inequalities.family_form_at``).

The qap1 point's feasibility read from the graph: the clique number of the
neighbourhood of cell (k, l) in the n-partite expansion of the graph, found
by the exact clique search on the induced subgraph.  The program decides it
by the membership sweep (``reductions.brute_force_membership``) on the
point that ``reductions.build_point_qap1`` builds.
"""

import itertools
import math

import numpy as np

from qappoly import inequalities
from qappoly.errors import InvalidParameterError
from qappoly.graphs import Graph, max_clique_bruteforce
from qappoly.indexing import pair_from_flat
from qappoly.inequalities import Qap1Params, Qap2Params, Qap3Params, Qap4Params


def qap1_params(n: int):
    if n < 6:  # Qap1Params.validate requires n >= 6
        return
    universe = range(1, n + 1)
    for k in universe:
        for l in universe:
            rows = [i for i in universe if i != k]
            cols = [j for j in universe if j != l]
            for m in range(3, n):
                for i_set in itertools.combinations(rows, m):
                    for j_set in itertools.permutations(cols, m):
                        yield Qap1Params(n=n, i_set=i_set, j_set=j_set, k=k, l=l)


def qap2_params(n: int):
    universe = range(1, n + 1)
    for beta in range(2, n - 3):
        for p_size in range(beta + 1, n - 2):
            for q_size in range(beta + 1, n - 2):
                if p_size + q_size > n - 3 + beta:
                    continue
                for p_set in itertools.combinations(universe, p_size):
                    for q_set in itertools.combinations(universe, q_size):
                        yield Qap2Params(n=n, p_set=p_set, q_set=q_set, beta=beta)


def qap3_params(n: int):
    universe = range(1, n + 1)
    for q_size in range(3, n - 2):
        for q_set in itertools.combinations(universe, q_size):
            for p1_size in range(1, n - 3):
                for p2_size in range(1, n - 3 - p1_size + 1):
                    for p1_set in itertools.combinations(universe, p1_size):
                        rest = [v for v in universe if v not in p1_set]
                        for p2_set in itertools.combinations(rest, p2_size):
                            span = n - q_size - 4
                            if span < 0:
                                continue
                            base = p1_size - p2_size
                            for beta in range(base - span, base + span + 1):
                                params = Qap3Params(n=n, p1_set=p1_set,
                                                    p2_set=p2_set, q_set=q_set,
                                                    beta=beta)
                                try:
                                    params.validate()
                                except InvalidParameterError:
                                    continue
                                yield params


def qap4_params(n: int):
    universe = range(1, n + 1)
    for m in range(7, n + 1):
        for i_set in itertools.combinations(universe, m):
            for j_set in itertools.permutations(universe, m):
                yield Qap4Params(n=n, i_set=i_set, j_set=j_set)


ORACLE = {"qap1": qap1_params, "qap2": qap2_params, "qap3": qap3_params,
          "qap4": qap4_params}


def vertex_entries(image) -> set[tuple[int, int]]:
    """The keys (f1, f2), f1 <= f2, of the ones of the vertex of a one-line
    image: (ij, kl) is 1 exactly when sigma(i) = j and sigma(k) = l, and the
    flat index of (i, j) is n(i-1) + j."""
    n = len(image)
    entries = set()
    for i in range(1, n + 1):
        for k in range(i, n + 1):
            f1 = n * (i - 1) + image[i - 1]
            f2 = n * (k - 1) + image[k - 1]
            entries.add((min(f1, f2), max(f1, f2)))
    return entries


def slack_counts_at(family: str, params, image) -> dict[str, int]:
    """The matched-pair counts of one vertex, read off its one-line image
    (image[i - 1] == sigma(i)): the per-permutation statement of the count
    cells that ``inequalities.slack_counts`` reads over the match matrix."""
    if family in ("qap1", "qap4"):
        q = sum(image[i - 1] == j for i, j in zip(params.i_set, params.j_set))
        if family == "qap4":
            return {"q": q}
        return {"q": q, "pkl": int(image[params.k - 1] == params.l)}
    if family == "qap2":
        return {"q": sum(image[i - 1] in params.q_set for i in params.p_set)}
    if family == "qap3":
        return {"q1": sum(image[i - 1] in params.q_set for i in params.p1_set),
                "q2": sum(image[i - 1] in params.q_set for i in params.p2_set)}
    if family == "qap5":
        coeffs = params.coeff_map()
        return {"s": sum(coeffs.get((i, j), 0) for i, j in enumerate(image, start=1))}
    raise ValueError(f"unknown family {family!r}")


def bareiss_rank(matrix) -> int:
    """Exact rank over Q of an integer matrix by fraction-free elimination.

    Bareiss's scheme (Math. Comp. 1968) keeps every entry an integer minor
    of the input: after each pivot step the rows below are updated by
    (a*x - b*y) / previous pivot, a division that is always exact.
    """
    rows = [row for row in matrix.tolist() if any(row)]
    rank = 0
    previous = 1
    for c in range(matrix.shape[1]):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        a = top[c]
        for row in rows[rank + 1:]:
            # columns before c are already zero below the pivot row
            b = row[c]
            row[c:] = [(a * x - b * y) // previous for x, y in zip(row[c:], top[c:])]
        previous = a
        rank += 1
        if rank == len(rows):
            break
    return rank


def inserted_echelon(echelon, pivots, row, p):
    """The echelon form mod p of ``echelon``'s rows (at ascending ``pivots``)
    and one more integer ``row``, as one array: the row is reduced by every
    echelon row, scaled to a leading 1 and inserted at its pivot with
    ``np.insert``, a second copy of the whole echelon form.  Returns the
    grown echelon form and its pivots."""
    left = echelon_remainder(row[None], echelon, pivots, p)[0]
    if not left.any():
        return echelon.astype(np.int64), list(pivots)
    lead = int(np.flatnonzero(left)[0])
    at = int(np.searchsorted(pivots, lead))
    scaled = left * pow(int(left[lead]), -1, p) % p
    return (np.insert(echelon.astype(np.int64), at, scaled, axis=0),
            np.insert(np.asarray(pivots), at, lead).tolist())


def echelon_remainder(rows, echelon, pivots, p):
    """``rows`` mod p less the combination of the echelon rows that clears
    every pivot column, one echelon row at a time in ascending pivot order
    (products of two residues below 2**31 fit in int64)."""
    left = np.mod(np.asarray(rows, dtype=np.int64), p)
    for erow, c in zip(np.asarray(echelon, dtype=np.int64), pivots):
        left = (left - left[:, c, None] * erow) % p
    return left


def least_in_orbit(columns, classes) -> np.ndarray:
    """Whether each row of column tuples is the least of its orbit: in every
    class, the row's entries that lie in it, in slot order, are the class's
    smallest members in ascending order."""
    keep = np.ones(len(columns), dtype=bool)
    size = max(int(columns.max()), *map(max, classes)) + 1
    for members in classes:
        rank = np.full(size, -1, dtype=np.int8)   # -1 outside the class
        rank[list(members)] = np.arange(len(members))
        ranks = rank[columns]
        inside = ranks >= 0
        ordinal = np.cumsum(inside, axis=1, dtype=np.int8) - 1
        keep &= np.all(~inside | (ranks == ordinal), axis=1)
    return keep


def column_tuples(run) -> np.ndarray:
    """The column tuple of every row of the run's column table, in table
    order: the j-tuples led by l for qap1, the j-tuples for qap4, the Q-sets
    for qap2 and the one Q of a qap3 run."""
    if run.column_factor is None:
        return np.array([run.q_set])
    table = inequalities._index_table(*run.factors[run.column_factor])
    if run.family == "qap1":
        return np.hstack((np.full((len(table), 1), run.l), run.cols[table]))
    return table + 1


def masked_orbit_minima(run, classes) -> list:
    """``run.orbit_minima(classes)`` by masking the whole column table."""
    axes = [(np.arange(size), inequalities._index_table(*factor))
            for size, factor in zip(run.shape, run.factors)]
    if classes:
        keep = least_in_orbit(column_tuples(run), classes)
        if run.column_factor is None:
            if not keep[0]:   # the run's one Q is not least
                axes[0] = tuple(part[:0] for part in axes[0])
        else:
            rows = np.flatnonzero(keep)
            axes[run.column_factor] = (rows, axes[run.column_factor][1][rows])
    return axes


def lexicographic_rank(pick, size: int, ordered: bool) -> int:
    """The number of r-permutations (r-combinations unless ``ordered``) of
    range(size) that come before ``pick`` in lexicographic order: for each
    slot, those that agree with it before the slot and hold a smaller
    value there."""
    r, rank = len(pick), 0
    for slot, value in enumerate(pick):
        if ordered:
            smaller = sum(1 for v in range(value) if v not in pick[:slot])
            rank += smaller * math.perm(size - slot - 1, r - slot - 1)
        else:
            least = pick[slot - 1] + 1 if slot else 0
            rank += sum(math.comb(size - v - 1, r - slot - 1) for v in range(least, value))
    return rank


def classify_vertex(sigma, pattern) -> int:
    """Number k of pattern pairs with sigma(i_r) = j_r, i.e. the S_k index."""
    return sum(1 for i, j in pattern.pairs if sigma(i) == j)


def form_key(form) -> tuple:
    """Canonical identity of a form, for deduplication checks."""
    return (form.family, form.n, tuple(sorted(zip(form.positions, form.coeffs))),
            form.rhs, form.sense, form.scale)


def has_edge(graph: Graph, u: int, v: int) -> bool:
    return (min(u, v), max(u, v)) in graph.edges


def induced(graph: Graph, vertices) -> Graph:
    """Induced subgraph, relabelled to [1..k] following sorted order."""
    keep = sorted(vertices)
    relabel = {v: idx + 1 for idx, v in enumerate(keep)}
    edges = [(relabel[u], relabel[v]) for u, v in graph.edges
             if u in relabel and v in relabel]
    return Graph.from_edges(len(keep), edges)


def expanded_graph_qap1(graph: Graph, k: int, l: int) -> Graph:
    """The n-partite expansion with the extra edges attached to cell (k, l):
    vertices are cells (i, j) labelled by flat index, edges join cells in
    graph-adjacent partitions, and (k, l) is joined to every cell outside
    partition k."""
    n = graph.n
    nn = n * n
    edges = []
    for f1 in range(1, nn + 1):
        i1, _ = pair_from_flat(n, f1)
        for f2 in range(f1 + 1, nn + 1):
            i2, _ = pair_from_flat(n, f2)
            if i1 != i2 and has_edge(graph, i1, i2):
                edges.append((f1, f2))
    klf = (k - 1) * n + l
    for f in range(1, nn + 1):
        i, _ = pair_from_flat(n, f)
        if i != k:
            edges.append((min(klf, f), max(klf, f)))
    return Graph.from_edges(nn, edges)


def neighborhood_clique_number(graph: Graph, k: int, l: int) -> int:
    """Largest clique inside the neighborhood of cell (k, l) in the expanded
    graph; the qap1 point is feasible exactly when this is at most t."""
    expanded = expanded_graph_qap1(graph, k, l)
    klf = (k - 1) * graph.n + l
    hood = sorted(expanded.adjacency()[klf])
    size, _ = max_clique_bruteforce(induced(expanded, hood), cap=graph.n * graph.n)
    return size
