"""The benchmark's workloads: seeded inputs, op lists and pinned verdicts.

Every op is one documented ``qappoly`` command line.  The op list of a run is
a deterministic function of (workload, seed, seconds).  facet-n7 has five
fixed ops; clique-oracle sizes its number of qap1 graphs so that the list
fills ``seconds`` at the nominal costs below, the seed code's op times on a
2-core Intel Xeon.  The costs only size the list, so the work of a run stays
fixed when the program gets faster or slower.

Each op carries a check that reads the verdicts of its ``--json`` report and
compares them with pinned values (facts the paper states) or with values the
benchmark computes itself (clique numbers of its own graphs).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("facet-n7", "clique-oracle")

# Nominal seed-code op costs in seconds, used only to size op lists.
QAP1_ORACLE_COST = 0.85
QAP4_N8_ORACLE_COST = 11.5

QAP2_ORACLE_GRAPHS = 6
MIN_QAP1_ORACLE_GRAPHS = 11  # more than ten ops, so op_tail_s always exists


@dataclass
class Op:
    """One CLI invocation plus the check of its report."""

    argv: list[str]
    check: Callable[[dict], list[str]]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def verdict_details(report: dict, name: str) -> dict:
    """Details of the named verdict; KeyError when the report lacks it."""
    for verdict in report.get("verdicts", []):
        if verdict["name"] == name:
            return verdict["details"]
    raise KeyError(f"no verdict named {name!r}")


def expect(details: dict, **pinned) -> list[str]:
    """Problems for every detail that differs from its pinned value."""
    return [f"{key}={details.get(key)!r}, expected {value!r}"
            for key, value in pinned.items() if details.get(key) != value]


# ---------------------------------------------------------------------------
# facet-n7


def _facet_check(verdict_name: str, **pinned):
    def check(report):
        return expect(verdict_details(report, verdict_name), **pinned)
    return check


def _lemma_check(samples: int):
    def check(report):
        details = verdict_details(report, "S_0 neighbor differences in span(S)")
        return expect(details, samples=samples, members=samples)
    return check


def _slack_check(limit: int, vertices: int):
    def check(report):
        agree = verdict_details(report, "slack formulas agree with direct evaluation")
        valid = verdict_details(report, "all enumerated forms valid on all vertices")
        return (expect(agree, forms=limit, vertices=vertices, mismatches=0)
                + expect(valid, violations=0))
    return check


def facet_ops(seed: int) -> list[Op]:
    return [
        # a facet; the first op also computes and caches the n=7 polytope rank
        Op(["verify-facet", "--family", "qap4", "--n", "7", "--m", "7"],
           _facet_check("facet", verdict="facet", polytope_dim=457, tight_dim=456)),
        Op(["verify-facet", "--family", "qap3", "--n", "7", "--P1", "1,2",
            "--P2", "3", "--Q", "1,2,3", "--beta", "1", "--expect", "valid-only"],
           _facet_check("facet-analysis", verdict="not facet",
                        polytope_dim=457, tight_dim=454)),
        Op(["verify-lemmas", "--which", "szeroins", "--n", "7", "--samples", "200",
            "--seed", str(seed)], _lemma_check(200)),
        Op(["verify-facet", "--family", "qap5", "--n", "5", "--beta", "0",
            "--coeffs", "1,1:1;2,2:-1", "--expect", "valid-only", "--certify"],
           _facet_check("facet-analysis", polytope_dim=77)),
        # the closed-form slack sweep, so that closed_form_slack stays measured
        Op(["verify-slack", "--family", "qap1", "--n", "7", "--limit", "300",
            "--seed", str(seed)], _slack_check(300, 5040)),
    ]


# ---------------------------------------------------------------------------
# clique-oracle


def clique_number(n: int, edges: set[tuple[int, int]]) -> int:
    """Clique number by trying every vertex subset, largest first."""
    for size in range(n, 1, -1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if all(pair in edges for pair in itertools.combinations(subset, 2)):
                return size
    return 1


def _base_graph(n: int, p: float, tag: str, accept) -> set[tuple[int, int]]:
    """A fixed random graph: the same for every seed of the benchmark."""
    rng = random.Random(tag)
    while True:
        edges = {(u, v) for u, v in itertools.combinations(range(1, n + 1), 2)
                 if rng.random() < p}
        if accept(edges):
            return edges


def _relabel(n: int, edges, rng: random.Random) -> set[tuple[int, int]]:
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return {tuple(sorted((image[u - 1], image[v - 1]))) for u, v in edges}


def _write_dimacs(path: Path, n: int, edges) -> None:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u} {v}" for u, v in sorted(edges)]
    path.write_text("\n".join(lines) + "\n")


def _oracle_check(clique: int):
    def check(report):
        return expect(verdict_details(report, "oracle agrees with exact solver"),
                      oracle=clique, exact=clique)
    return check


def clique_ops(seed: int, seconds: float, workdir: Path) -> list[Op]:
    """qap4 at n=8 first, then qap1 at n=6, then sparse qap2 at n=7.

    Base graphs are fixed, so every seed runs the same graph structures, and
    the seed relabels the qap4 and qap2 graphs.  The qap1 graphs are the
    same for every seed: the cost of a qap1 oracle run is set by where its
    first violated forms sit in enumeration order, which a relabeling moves
    by up to a factor of three, so the median op time would measure the draw
    of labels rather than the program.  They have cliques of three or more,
    so that each needs witness recovery (a triangle-free graph is decided in
    a few milliseconds and would split the op times into two clusters).
    """
    rng = random.Random(seed)
    qap1_count = max(MIN_QAP1_ORACLE_GRAPHS,
                     round((seconds - QAP4_N8_ORACLE_COST) / QAP1_ORACLE_COST))
    plan = [("qap4", 8, _relabel(8, _base_graph(
        8, 0.5, "qap4-n8", lambda e: clique_number(8, e) <= 6), rng))]
    plan += [("qap1", 6, _base_graph(
        6, 0.5, f"qap1-n6-{i}", lambda e: 3 <= clique_number(6, e) < 6))
        for i in range(qap1_count)]
    # sparse, so that no clique of size n-3 short-cuts the membership sweep
    plan += [("qap2", 7, _relabel(7, _base_graph(
        7, 0.25, f"qap2-n7-{i}", lambda e: clique_number(7, e) <= 3), rng))
        for i in range(QAP2_ORACLE_GRAPHS)]
    ops = []
    for index, (family, n, edges) in enumerate(plan):
        path = workdir / f"graph{index:03d}-{family}-n{n}.col"
        _write_dimacs(path, n, edges)
        ops.append(Op(["clique-oracle", "--family", family, "--graph", str(path)],
                      _oracle_check(clique_number(n, edges))))
    return ops


def build_ops(workload: str, seed: int, seconds: float, workdir: Path) -> list[Op]:
    """The op list of one run; graph inputs are written into workdir."""
    if workload == "facet-n7":
        return facet_ops(seed)
    if workload == "clique-oracle":
        return clique_ops(seed, seconds, workdir)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
