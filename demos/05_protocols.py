"""Two-party protocols that compute hard-matrix entries in expectation.

N[k](a,b) = (a.b - k)(a.b - k - 1) and M[k](a,b) = (a.b - k)^2 over bit
vectors.  A cheap randomized protocol computes N[0] exactly in expectation
with 2*ceil(log2 n) bits; mixing it with the closed-form N[1] gives M[1];
and in the four slack constructions, Alice's inequality evaluated at Bob's
vertex equals N[1]/2 on the nose, which the parties double on output.
"""

from qappoly import (
    HardMatrixSpec,
    embedding_check,
    hard_matrix_entry,
    protocol_m1_composed,
    protocol_n0,
    slack_protocol,
)

a, b = "1111", "1111"
report = protocol_n0(a, b)
print(f"n0 protocol, a=b={a}:")
print(f"  exact expectation {report.expectation} "
      f"(target N[0] = {hard_matrix_entry(HardMatrixSpec('N', 0, 4), tuple(map(int,a)), tuple(map(int,b)))})")
print(f"  outcomes sum to probability {report.probability_total()}, "
      f"max bits {report.max_bits} <= bound {report.bit_bound}")

sampled = protocol_n0("1011010110", "1110011011", mode="sample",
                      samples=200_000, seed=42)
print(f"\nseeded sampling at n=10: mean {float(sampled.expectation):.3f} "
      f"+- {sampled.std_error:.3f} (seed {sampled.seed})")

comp = protocol_m1_composed("1110", "1111")
print(f"\ncomposed M[1] protocol, a.b=3: expectation {comp.expectation} "
      f"(bit bound {comp.bit_bound})")

rep = embedding_check(3, 8)
print(f"\npadding both vectors with k-1 ones embeds N[1] into N[k]: "
      f"k=3, n=8 checked over {rep.pairs_checked} pairs -> {rep.ok}")

print("\nslack protocols (slack must equal N[1]/2 exactly):")
for family, va, vb in (("qap1", "11100000", "11100100"),
                       ("qap2", "1100", "1100"),
                       ("qap3", "110100", "111001"),
                       ("qap4", "111111100", "110111010")):
    res = slack_protocol(family, va, vb)
    print(f"  {family}: mode={res.mode:13s} slack={res.slack} "
          f"target={res.target} doubled={res.doubled_output} ok={res.ok}")
