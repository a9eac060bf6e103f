"""Exact affine dimensions and what makes an inequality facet-defining.

A dimension is proven by two bounds that meet.  From above, integer
equations that vanish on every vertex (the affine-hull equations of the
symmetric QAP polytope) leave at most columns - rank(E) - 1 dimensions;
from below, a seeded vertex subset reaches that rank modulo a prime, since
a rank mod p never exceeds the rank over Q.  Ranks are still reported at
three 31-bit primes, and a fraction-free (Bareiss) integer elimination can
re-check the small cases.  A valid inequality is facet-defining when its
tight vertices span an affine subspace of dimension exactly one less than
the polytope's.  "Not facet" is proven too: the hull equations, plus the
kernel rows of a tight subset mod a prime that lie beyond them, lifted to
integer equations and checked on every tight vertex, bound the tight
dimension from above where the subset reaches it.

This demo works at n<=5 and prints the commands for the big ones; the n=7
facet check takes a few seconds.
"""

from qappoly import LinearForm, affine_dim, enumerate_permutations, polytope_affine_dim, verify_facet
from qappoly.inequalities import Qap5Params, build_qap5

for n in (3, 4, 5):
    report = polytope_affine_dim(n)
    cert = report.certificate
    print(f"polytope affine dimension at n={n}: {report.consensus_rank} "
          f"(ambient {report.column_dimension}, primes {report.primes})")
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
print(f"  proof ({cert.kind}): the {hull} hull equations and {cert.equation_rows - hull} "
      f"more, lifted from the kernel of {cert.subset_rows} tight vertices mod {cert.prime},")
print(f"  have rank {cert.equation_rank} on {cert.columns} columns and vanish on all "
      f"{report.tight_count} tight vertices, so the tight dimension is at most "
      f"{cert.bound}, which those vertices reach")

trivial = LinearForm(n=4, positions=(), coeffs=(), rhs=1, sense="<=")
report = verify_facet(trivial, 4)
print(f"the trivially valid form 0.Y <= 1: verdict '{report.verdict}' "
      f"(empty tight set)")

print("\nfull-scale runs (the qap4 facet takes seconds at n=7, under a minute at n=8):")
print("  qappoly verify-facet --family qap4 --n 7 --m 7")
print("  qappoly verify-facet --family qap4 --n 8 --m 8")
print("  qappoly verify-facet --family qap2 --n 7 --beta 2 --P 1,2,3 --Q 1,2,3")
print("  qappoly verify-lemmas --which all --n 7 --samples 200")
