"""Exact toolkit for the polytope of quadratic assignment solutions.

Construction of vertices and the five families of valid inequalities,
facet verification by exact modular rank, clique-number extraction through
membership reductions, and two-party protocols computing slack entries in
expectation.
"""

from .errors import (
    CapExceededError,
    DimensionMismatchError,
    GraphParseError,
    InvalidParameterError,
    InvalidPermutationError,
    ProtocolInputError,
    QappolyError,
)
from .geometry import (
    MatchPattern,
    affine_dim,
    check_equality_set,
    check_identity1,
    check_identity2,
    check_s0_connectivity,
    polytope_affine_dim,
    verify_facet,
    verify_s3ss0,
    verify_skasnxt4,
    verify_szeroins,
    vertex_space,
)
from .graphs import Graph, max_clique_bruteforce, parse_graph
from .indexing import flat_index, pair_from_flat
from .inequalities import (
    LinearForm,
    Qap1Params,
    Qap2Params,
    Qap3Params,
    Qap4Params,
    Qap5Bounds,
    Qap5Params,
    YPoint,
    build_qap1,
    build_qap2,
    build_qap3,
    build_qap4,
    build_qap5,
    closed_form_slack,
    enumerate_family,
    evaluate,
)
from .perms import Permutation, apply_transposition, enumerate_permutations
from .protocols import (
    HardMatrixSpec,
    embedding_check,
    hard_matrix_entry,
    protocol_m1_composed,
    protocol_n0,
    slack_protocol,
)
from .reductions import (
    brute_force_membership,
    build_point_qap1,
    build_point_qap2,
    build_point_qap4,
    clique_via_membership_oracle,
)

__version__ = "0.1.0"
