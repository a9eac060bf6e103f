import pytest
from graph_fixtures import cycle, dimacs, nonisomorphic_graphs, petersen
from oracle_streams import has_edge, induced

from qappoly.errors import CapExceededError, GraphParseError, QappolyError
from qappoly.graphs import (
    Graph,
    cliques_of_size_at_least,
    max_clique_bruteforce,
    max_clique_capped,
    parse_graph,
)


def test_clique_examples():
    assert max_clique_bruteforce(Graph.complete(5))[0] == 5
    assert max_clique_bruteforce(cycle(5))[0] == 2
    assert max_clique_bruteforce(petersen())[0] == 2


def test_clique_witness_is_a_clique():
    g = Graph.from_edges(7, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6),
                             (3, 6), (4, 7)])
    size, witness = max_clique_bruteforce(g)
    assert len(witness) == size
    for idx, u in enumerate(witness):
        for v in witness[idx + 1:]:
            assert has_edge(g, u, v)


def test_clique_cap():
    with pytest.raises(CapExceededError):
        max_clique_bruteforce(Graph.complete(21))


def test_capped_and_threshold_search():
    g = Graph.from_edges(8, list(Graph.complete(5).edges) + [(6, 7)])
    assert max_clique_capped(g, 6) == 5
    assert cliques_of_size_at_least(g, 5) == 5
    assert cliques_of_size_at_least(g, 6) is None


def test_dimacs_round_trip():
    g = Graph.from_edges(4, [(1, 2), (3, 4)])
    parsed = parse_graph(dimacs(g))
    assert parsed == g


def test_parse_plain_edge_list():
    g = parse_graph("1 2\n2 3\n\n3 1\n")
    assert g.n == 3 and len(g.edges) == 3


def test_parse_dimacs_with_comments():
    text = "c a comment\np edge 5 2\ne 1 2\ne 4 5\n"
    g = parse_graph(text)
    assert g.n == 5 and g.edges == frozenset({(1, 2), (4, 5)})


@pytest.mark.parametrize("text,fragment", [
    ("p edge x 2\ne 1 2\n", "line 1"),
    ("p edge 3 1\ne 1\n", "line 2"),
    ("p edge 3 1\ne 1 1\n", "self-loop"),
    ("1 2\np edge 3 1\n", "line 2"),
    ("p edge 2 1\ne 1 5\n", "exceeds"),
    ("p edge 4 1\ne 0 3\n", "line 2: endpoint 0 is below 1"),
    ("p edge 3 2\ne 1 2\ne 1 5\n", "line 3: endpoint 5 exceeds declared n=3"),
    ("1 2\n-1 2\n", "line 2: endpoint -1 is below 1"),
    ("p edge -3 0\n", "line 1: expected n >= 1"),
    ("p edge 3 -5\ne 1 2\n", "line 1: expected n >= 1 and m >= 0"),
    ("e 1 2\np edge 3 1\n", "line 1: edge line before 'p edge' header"),
    ("p edge 3 1\ne 1 2\np edge 3 1\n", "line 3: problem line must come first"),
    ("p edge 3 1\ne 1 x\n", "line 2: non-integer endpoint"),
])
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(GraphParseError, match=fragment):
        parse_graph(text)


def test_input_without_vertices_is_refused():
    with pytest.raises(GraphParseError, match="no vertices found"):
        parse_graph("c only comments\nc here\n")


def test_self_loops_rejected():
    with pytest.raises(QappolyError, match="self-loop"):
        Graph.from_edges(3, [(2, 2)])


def test_nonisomorphic_counts():
    assert [len(nonisomorphic_graphs(n)) for n in range(1, 7)] == [1, 2, 4, 11, 34, 156]


def test_nonisomorphic_representatives_distinct():
    graphs = nonisomorphic_graphs(5)
    assert len({g.edges for g in graphs}) == 34
    edge_counts = sorted(len(g.edges) for g in graphs)
    assert edge_counts[0] == 0 and edge_counts[-1] == 10


def test_induced_subgraph():
    g = Graph.from_edges(6, [(1, 2), (2, 5), (5, 6), (3, 4)])
    sub = induced(g, [2, 5, 6])
    assert sub.n == 3 and sub.edges == frozenset({(1, 2), (2, 3)})
