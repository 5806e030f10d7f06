"""
Gram matrices, their ranks, and the hook family cross-check
============================================================

The Gram matrix of the canonical bilinear form on S^lambda, written in the
standard-polytabloid basis, has full rank over Q but can drop rank mod p.
The rank mod p is the dimension of the irreducible head D^lambda.
"""

from specht import (
    format_gram_dump,
    gram_matrix,
    gram_rank_mod_p,
    gram_rank_rational,
    partitions_of,
    specht_dimension,
)

# The smallest interesting example: S^(2,1) is 2-dimensional.
print("Gram matrix of S[2,1]:")
for row in gram_matrix((2, 1)):
    print("  ", row)

for p in (2, 3, 5):
    print(f"rank mod {p}: {gram_rank_mod_p((2, 1), p)}")
print(f"rank over Q: {gram_rank_rational((2, 1))}")
# mod 3 the form degenerates: (2,1) has an entire 3-dimensional block
# structure hiding in a 2x2 matrix.

print()

# Over Q nothing ever degenerates -- the rank is the full dimension.
for lam in partitions_of(5):
    assert gram_rank_rational(lam) == specht_dimension(lam)
print("rational rank == dimension for every partition of 5")

print()

# The hook family (n-1,1) is the one case with a classical closed answer:
# dim D = n-1, minus one more when p divides n.  The Gram rank mod p
# reproduces it.
print(" n   p  expected  rank")
for n in (6, 7, 10, 12):
    for p in (2, 3, 5):
        expected = n - 1 - (1 if n % p == 0 else 0)
        actual = gram_rank_mod_p((n - 1, 1), p)
        flag = "" if expected == actual else "  <-- mismatch!"
        print(f"{n:2d}  {p:2d}  {expected:8d}  {actual:4d}{flag}")
        assert expected == actual

print()

# The dump format round-trips through plain text, handy for diffing runs.
print(format_gram_dump((2, 1), 3))
