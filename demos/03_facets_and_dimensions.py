"""Exact affine dimensions and what makes an inequality facet-defining.

A dimension is proven by two bounds that meet, by one route: the lifted
kernel of the vertex set.  From above, integer equations that vanish on
every vertex (the affine-hull equations of the symmetric QAP polytope, and
for a tight set the inequality's own equation too), with any extra kernel
rows lifted to integers and checked on every vertex of the set, leave at
most columns - rank - 1 dimensions; from below, one seeded vertex subset
reaches that rank modulo one 31-bit prime, since a rank mod p never
exceeds the rank over Q.  Each proof is reported at that one prime, and
integer elimination with content removal (``--certify``) can re-check it.
A valid inequality is facet-defining when its tight vertices span an
affine subspace of dimension exactly one less than the polytope's; "not
facet" is proven the same way.

This demo works at n<=5 and prints the commands for the big ones; the n=7
facet check takes about a second.
"""

from qappoly import LinearForm, affine_dim, enumerate_permutations, polytope_affine_dim, verify_facet
from qappoly.inequalities import Qap5Params, build_qap5

for n in (3, 4, 5):
    report = polytope_affine_dim(n)
    cert = report.certificate
    print(f"polytope affine dimension at n={n}: {report.consensus_rank} "
          f"(ambient {report.column_dimension}, prime {report.certificate.prime})")
    print(f"  proof: {cert.equation_rows} equations of rank {cert.equation_rank} "
          f"on {cert.columns} support columns bound it by {cert.bound}; "
          f"{cert.subset_rows} vertices reach it mod {cert.prime}")

certified = affine_dim(list(enumerate_permutations(4)), certify=True)
print(f"\nn=4 dimension re-checked by rational elimination: "
      f"{certified.consensus_rank} [{certified.status}]")

# a generic qap5 form is valid but usually NOT facet-defining: its tight
# set is too small
form = build_qap5(Qap5Params(n=5, beta=0, coeffs={(1, 1): 1, (2, 2): -1}))
report = verify_facet(form, 5)
cert = report.tight_rank.certificate
hull = report.polytope_rank.certificate.equation_rows
print(f"\ngeneric qap5 form at n=5: verdict '{report.verdict}' "
      f"(tight dim {report.tight_dim} vs polytope dim {report.polytope_dim})")
print(f"  proof ({cert.kind}): the {hull} hull equations, the form's own and "
      f"{cert.equation_rows - hull - 1} more, lifted from the kernel of "
      f"{cert.subset_rows} tight vertices mod {cert.prime},")
print(f"  have rank {cert.equation_rank} on {cert.columns} columns and vanish on all "
      f"{report.tight_count} tight vertices, so the tight dimension is at most "
      f"{cert.bound}, which those vertices reach")

trivial = LinearForm(n=4, positions=(), coeffs=(), rhs=1, sense="<=")
report = verify_facet(trivial, 4)
print(f"the trivially valid form 0.Y <= 1: verdict '{report.verdict}' "
      f"(empty tight set)")

print("\nfull-scale runs (the qap4 facet takes about a second at n=7 and at n=8):")
print("  qappoly verify-facet --family qap4 --n 7 --m 7")
print("  qappoly verify-facet --family qap4 --n 8 --m 8")
print("  qappoly verify-facet --family qap2 --n 7 --beta 2 --P 1,2,3 --Q 1,2,3")
print("  qappoly verify-lemmas --which all --n 7 --samples 200")
