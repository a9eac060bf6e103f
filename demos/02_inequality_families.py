"""The five inequality families and their closed-form slacks.

Families qap1-qap4 are finite at fixed n and all valid for the polytope;
qap5 generalizes them all (integer coefficients n_ij and an integer shift).
At any vertex, each family's slack reduces to a small polynomial in the
number of matched index pairs, which this demo checks against direct
evaluation.
"""

from fractions import Fraction

from qappoly import (
    Qap1Params,
    Qap2Params,
    Qap4Params,
    Qap5Params,
    build_qap1,
    build_qap2,
    build_qap4,
    build_qap5,
    closed_form_slack,
    enumerate_family,
    vertex_space,
)
from qappoly.inequalities import entries_on_match_rows, slack_table_csv

# --- qap1: m matched pairs played against one special cell (k, l)
params = Qap1Params(n=6, i_set=(1, 2, 3), j_set=(1, 2, 3), k=4, l=4)
form = build_qap1(params)
# forms are read on a batch of vertices, one per column of the match matrix;
# the identity is vertex 0, the first column
identity = vertex_space(6).zt[:, :1]
(lhs,) = entries_on_match_rows(identity, form.entries())
(scaled,) = form.scaled_slack_on_match_rows(identity)
print("qap1 at the identity vertex:")
print(f"  lhs = {lhs} <= {form.rhs}  (satisfied: {lhs <= form.rhs})")
(closed,) = closed_form_slack("qap1", params, identity)
print(f"  slack = {Fraction(int(scaled), form.scale)}, closed form gives {closed}")

# --- qap2: a P x Q block with threshold beta; rhs carries the only
# half-integer, so forms are stored cleared by 2
q2 = build_qap2(Qap2Params(n=7, p_set=(1, 2, 3), q_set=(1, 2, 3), beta=2))
print(f"\nqap2 stored denominator-cleared: scale={q2.scale}, rhs={q2.rhs}")

# --- qap4 is the qap5 member with beta=2 and 0/1 coefficients on a
# partial permutation; a form is stored as the triangle positions of its
# entries with one coefficient each, and the two agree exactly after the
# -1/2 rescaling
i_set = tuple(range(1, 8))
q4 = build_qap4(Qap4Params(n=7, i_set=i_set, j_set=i_set))
q5 = build_qap5(Qap5Params(n=7, beta=2, coeffs={(r, r): 1 for r in i_set}))
match = (dict(zip(q5.positions, q5.coeffs))
         == {p: -2 * c for p, c in zip(q4.positions, q4.coeffs)})
print(f"\nqap4: {len(q4.positions)} entries, the first at triangle positions "
      f"{q4.positions[:3]}")
print(f"qap4 coefficients == -1/2 x qap5(beta=2, indicator coefficients): {match}")

# --- family enumeration is deterministic and duplicate-free
for family, n in (("qap1", 6), ("qap2", 7), ("qap3", 7), ("qap4", 7)):
    count = sum(1 for _ in enumerate_family(n, family))
    print(f"family {family} at n={n}: {count} forms")

# --- slack tables: the external CSV format
forms = [form]
images = [(1, 2, 3, 4, 5, 6), (2, 1, 3, 4, 5, 6), (2, 3, 1, 5, 6, 4)]
print("\nslack table sample:")
print(slack_table_csv("qap1", forms, images))
