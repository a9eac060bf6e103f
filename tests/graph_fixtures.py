"""Input graphs for the tests: named graphs, seeded random graphs, every
graph of a small size up to isomorphism, and DIMACS text of a graph.

The program reads its graphs from DIMACS or edge-list files
(``graphs.parse_graph``); these build the tests' inputs.
"""

import itertools
from functools import lru_cache

import numpy as np

from qappoly.errors import CapExceededError, QappolyError
from qappoly.graphs import Graph


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def petersen() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph.from_edges(10, outer + spokes + inner)


def dimacs(graph: Graph) -> str:
    lines = [f"p edge {graph.n} {len(graph.edges)}"]
    lines += [f"e {u} {v}" for u, v in sorted(graph.edges)]
    return "\n".join(lines) + "\n"


def random_graph(n: int, edge_probability: float, rng) -> Graph:
    edges = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
             if rng.random() < edge_probability]
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=2)
def nonisomorphic_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on n labelled vertices up to isomorphism (n <= 6).

    Every edge-set bitmask is mapped to the minimum bitmask over all vertex
    relabelings; the canonical representatives are the orbit minima.
    """
    if n > 6:
        raise CapExceededError("non-isomorphic enumeration supported for n <= 6")
    if n < 1:
        raise QappolyError("n must be positive")
    edge_list = list(itertools.combinations(range(n), 2))
    e = len(edge_list)
    edge_pos = {pair: idx for idx, pair in enumerate(edge_list)}
    masks = np.arange(2 ** e, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(e)) & 1          # (2^e, e)
    weights = 1 << np.arange(e, dtype=np.int64)
    canonical = masks.copy()
    for perm in itertools.permutations(range(n)):
        remap = [edge_pos[tuple(sorted((perm[u], perm[v])))] for u, v in edge_list]
        permuted = bits[:, remap] @ weights
        np.minimum(canonical, permuted, out=canonical)
    reps = np.nonzero(canonical == masks)[0]
    graphs = []
    for mask in reps:
        edges = [(u + 1, v + 1) for idx, (u, v) in enumerate(edge_list)
                 if mask >> idx & 1]
        graphs.append(Graph.from_edges(n, edges))
    return tuple(graphs)
