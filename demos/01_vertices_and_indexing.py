"""Vertices of the polytope and the index conventions behind them.

The polytope lives in the space of symmetric n^2 x n^2 matrices.  Each
permutation sigma of [n] gives one vertex: the rank-1 matrix whose
(ij, kl) entry is 1 exactly when sigma(i) = j and sigma(k) = l.
"""

import numpy as np

from qappoly import (
    Permutation,
    apply_transposition,
    enumerate_permutations,
    flat_index,
    vertex_space,
)
from qappoly.inequalities import match_matrix

n = 4
sigma = Permutation((2, 4, 1, 3))
print(f"permutation in one-line notation: {sigma.one_line()}")
print(f"its sign (parity): {sigma.sign():+d}")
print(f"flat index of position pair (3, 1) at n={n}: {flat_index(n, 3, 1)}")

# a vertex is read from its image: the match column z holds a 1 at the flat
# index n(i-1) + sigma(i) of each matched cell, and the vertex is z z^T
z = match_matrix([sigma.image])[:, 0].astype(int)
vertex = np.outer(z, z)
print(f"\nmatch column: ones at flat indices {(np.flatnonzero(z) + 1).tolist()}")
print(f"vertex z z^T: {np.count_nonzero(vertex)} nonzero cells (= n^2), "
      f"{np.count_nonzero(np.triu(vertex))} in the upper triangle "
      f"({n} diagonal + {n*(n-1)//2} off-diagonal)")
print("entry (1,2),(2,4):", vertex[flat_index(n, 1, 2) - 1, flat_index(n, 2, 4) - 1],
      " <- sigma(1)=2 and sigma(2)=4")
print("entry (1,2),(2,3):", vertex[flat_index(n, 1, 2) - 1, flat_index(n, 2, 3) - 1],
      " <- sigma(2) != 3")

# the exhaustive checks hold the vertex as one int8 row over the support
# coordinates, the cells some vertex can make nonzero
space = vertex_space(n)
(index,) = space.index_of([sigma.image])
(row,) = space.rows([index])
print(f"\nvertex {index} of {len(space.images)} in lexicographic order: "
      f"{row.sum()} ones in its row over {row.size} support coordinates")

# both agree with the dense outer product of the vectorization
p = np.zeros((n, n), dtype=int)
for i in range(1, n + 1):
    p[i - 1, sigma(i) - 1] = 1
dense = np.outer(p.reshape(-1), p.reshape(-1))
agree = (np.array_equal(vertex, dense)
         and row.sum() == np.count_nonzero(np.triu(dense)))
print(f"match-column vertex and row == vec(P) vec(P)^T dense oracle: {agree}")

tau = apply_transposition(sigma, 1, 3)
print(f"\nswapping positions 1 and 3: {sigma.one_line()}  ->  {tau.one_line()}")
print(f"swapping again returns the original: "
      f"{apply_transposition(tau, 1, 3) == sigma}")

count = sum(1 for _ in enumerate_permutations(5))
print(f"\nenumeration is lexicographic and complete: {count} permutations at n=5")
