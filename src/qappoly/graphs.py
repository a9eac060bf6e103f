"""Simple undirected graphs, exact maximum clique, and graph inputs.

Graphs are on vertex set [n] (1-based) with canonical edge pairs (u < v),
no self-loops.  Inputs parse from DIMACS edge format ("p edge n m" header,
"e u v" lines, "c" comments) or from plain "u v" line pairs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import CapExceededError, GraphParseError, QappolyError

DEFAULT_CLIQUE_CAP = 20


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise QappolyError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.n):
                raise QappolyError(f"edge ({u},{v}) is not canonical within [1,{self.n}]")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        canon = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n=n, edges=canon)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, itertools.combinations(range(1, n + 1), 2))

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def is_complete(self) -> bool:
        return len(self.edges) == self.n * (self.n - 1) // 2


def parse_graph(text: str) -> Graph:
    """Parse DIMACS edge format or plain 'u v' line pairs.

    Malformed lines are reported with their line number.
    """
    n = None
    edges: list[tuple[int, int]] = []
    saw_dimacs = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if saw_dimacs or n is not None or edges:
                raise GraphParseError(
                    f"line {lineno}: problem line must come first (and only once)")
            if len(parts) != 4 or parts[1] != "edge":
                raise GraphParseError(
                    f"line {lineno}: expected 'p edge <n> <m>', got {line!r}")
            try:
                n, m = int(parts[2]), int(parts[3])
            except ValueError:
                raise GraphParseError(f"line {lineno}: non-integer sizes in {line!r}")
            if n < 1 or m < 0:
                raise GraphParseError(f"line {lineno}: expected n >= 1 and m >= 0, got {line!r}")
            saw_dimacs = True
            continue
        if parts[0] == "e":
            parts = parts[1:]
            if not saw_dimacs:
                raise GraphParseError(f"line {lineno}: edge line before 'p edge' header")
        if len(parts) != 2:
            raise GraphParseError(f"line {lineno}: expected two endpoints, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"line {lineno}: non-integer endpoint in {line!r}")
        if u == v:
            raise GraphParseError(f"line {lineno}: self-loop {u}")
        if min(u, v) < 1:
            raise GraphParseError(f"line {lineno}: endpoint {min(u, v)} is below 1")
        if n is not None and max(u, v) > n:
            raise GraphParseError(f"line {lineno}: endpoint {max(u, v)} exceeds declared n={n}")
        edges.append((min(u, v), max(u, v)))
    if n is None:   # plain pairs: the largest endpoint
        n = max((v for _, v in edges), default=0)
    if n == 0:
        raise GraphParseError("no vertices found in graph input")
    return Graph.from_edges(n, edges)


def max_clique_bruteforce(graph: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> tuple[int, tuple[int, ...]]:
    """Exact maximum clique by branch and bound with a greedy-coloring bound.

    Returns (size, witness clique).  The cap guards the exact search.
    """
    if graph.n > cap:
        raise CapExceededError(f"n={graph.n} exceeds the clique search cap {cap}")
    adj = graph.adjacency()
    best: list[int] = []

    def color_order(cands: list[int]) -> list[tuple[int, int]]:
        # greedy coloring; vertices emitted color class by color class, so
        # position bounds the clique size extendable inside cands
        order: list[tuple[int, int]] = []
        remaining = list(cands)
        color = 0
        while remaining:
            color += 1
            cls: list[int] = []
            for v in remaining:
                if all(u not in adj[v] for u in cls):
                    cls.append(v)
            for v in cls:
                order.append((v, color))
            remaining = [v for v in remaining if v not in cls]
        return order

    def expand(clique: list[int], cands: list[int]):
        nonlocal best
        for v, color in reversed(color_order(cands)):
            if len(clique) + color <= len(best):
                return
            clique.append(v)
            nxt = [u for u in cands if u in adj[v]]
            if not nxt and len(clique) > len(best):
                best = clique.copy()
            elif nxt:
                expand(clique, nxt)
            clique.pop()
            cands = [u for u in cands if u != v]

    order = sorted(range(1, graph.n + 1), key=lambda v: -len(adj[v]))
    expand([], order)
    if not best:  # edgeless graph: any single vertex
        best = [1] if graph.n >= 1 else []
    return len(best), tuple(sorted(best))


def _largest_clique_between(graph: Graph, largest: int, smallest: int) -> int | None:
    """Largest clique size in [smallest, largest] by direct subset
    enumeration, largest size first, or None."""
    adj = graph.adjacency()
    for size in range(largest, smallest - 1, -1):
        for subset in itertools.combinations(range(1, graph.n + 1), size):
            if all(v in adj[u] for u, v in itertools.combinations(subset, 2)):
                return size
    return None


def cliques_of_size_at_least(graph: Graph, smallest: int) -> int | None:
    """Largest clique size >= smallest found by direct subset enumeration,
    or None.  Intended for thresholds near n where few subsets remain."""
    return _largest_clique_between(graph, graph.n, smallest)


def max_clique_capped(graph: Graph, largest: int) -> int:
    """Exact clique number when it is known to be at most ``largest``:
    direct subset enumeration from that size downward."""
    size = _largest_clique_between(graph, min(largest, graph.n), 2)
    return size if size is not None else (1 if graph.n else 0)
