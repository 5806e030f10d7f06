"""Deliberately naive reference implementations used to cross-check the library.

Everything here enumerates and filters with no cleverness: partitions are
generated recursively, border strips are recognized by examining cell sets,
tableaux come from filtering permutations, polytabloids from every
product of column permutations, ranks come from textbook row
reduction (Fractions over Q, max-residue pivoting over F_p — a different
pivot rule than the library uses on purpose — and an unblocked int64
column elimination for large p), and prime divisors come from plain trial
division.  Slow is fine; independent is the point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from math import comb


# ---------------------------------------------------------------------------
# partitions and cell sets


def gen_partitions(n, max_part=None):
    """Yield all partitions of n (parts weakly decreasing), descending lex."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        yield ()
        return
    for first in range(max_part, 0, -1):
        for rest in gen_partitions(n - first, first):
            yield (first,) + rest


def cell_set(lam):
    return {(i, j) for i, row in enumerate(lam) for j in range(row)}


def diagram_cells(lam):
    """All cells of the Young diagram, 1-based (row, col), in row-major order."""
    return [(i, j) for i, part in enumerate(lam, 1) for j in range(1, part + 1)]


def dominates(lam, mu):
    """True when every partial sum of lam is >= the matching one of mu."""
    s = t = 0
    for i in range(max(len(lam), len(mu))):
        s += lam[i] if i < len(lam) else 0
        t += mu[i] if i < len(mu) else 0
        if s < t:
            return False
    return True


# ---------------------------------------------------------------------------
# border strips by brute cell-set inspection


def is_border_strip(outer, inner):
    """outer/inner nonempty, edge-connected, containing no 2x2 block."""
    big, small = cell_set(outer), cell_set(inner)
    if not small <= big:
        return False
    skew = big - small
    if not skew:
        return False
    for i, j in skew:
        if {(i + 1, j), (i, j + 1), (i + 1, j + 1)} <= skew:
            return False
    seen = set()
    stack = [min(skew)]
    while stack:
        c = stack.pop()
        if c in seen:
            continue
        seen.add(c)
        i, j = c
        for nb in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
            if nb in skew:
                stack.append(nb)
    return seen == skew


def is_edge_connected(cells):
    """True when the cells form one component under horizontal/vertical adjacency."""
    todo = set(cells)
    if not todo:
        return False
    stack = [next(iter(todo))]
    todo.discard(stack[0])
    while stack:
        r, c = stack.pop()
        for nbr in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if nbr in todo:
                todo.discard(nbr)
                stack.append(nbr)
    return not todo


def contains_2x2(cells):
    """True when some 2x2 block lies entirely inside the cells."""
    cs = set(cells)
    return any(
        (r, c + 1) in cs and (r + 1, c) in cs and (r + 1, c + 1) in cs for r, c in cs
    )


@dataclass(frozen=True)
class BorderStrip:
    """A skew shape lam/mu as a set of 1-based cells.

    ``anchor`` is the (min row, min col) over the cells: the cell whose hook
    the strip removes when peeled from the enclosing partition.
    """

    cells: frozenset
    anchor: tuple

    @property
    def size(self):
        return len(self.cells)

    @classmethod
    def between(cls, lam, mu):
        """The skew shape lam/mu; raises ValueError when mu is not inside lam
        or equals it."""
        if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
            raise ValueError(f"{mu} is not contained in {lam}")
        cells = frozenset(diagram_cells(lam)) - frozenset(diagram_cells(mu))
        if not cells:
            raise ValueError("empty strip")
        anchor = (min(r for r, _ in cells), min(c for _, c in cells))
        return cls(cells, anchor)

    def is_valid_strip(self):
        """Edge-connected with no 2x2 block."""
        return is_edge_connected(self.cells) and not contains_2x2(self.cells)


def strip_removals(lam, h):
    """All mu with |mu| = |lam| - h and lam/mu a border strip."""
    return [mu for mu in gen_partitions(sum(lam) - h) if is_border_strip(lam, mu)]


def strip_additions(mu, h):
    """All lam with |lam| = |mu| + h and lam/mu a border strip."""
    return [lam for lam in gen_partitions(sum(mu) + h) if is_border_strip(lam, mu)]


# ---------------------------------------------------------------------------
# standard tableaux by filtering permutations (keep n <= 7)


def standard_fillings(lam):
    n = sum(lam)
    found = []
    for perm in permutations(range(1, n + 1)):
        rows = []
        k = 0
        for r in lam:
            rows.append(perm[k : k + r])
            k += r
        ok = all(
            row[j] < row[j + 1] for row in rows for j in range(len(row) - 1)
        ) and all(
            rows[i][j] < rows[i + 1][j]
            for i in range(len(rows) - 1)
            for j in range(len(rows[i + 1]))
        )
        if ok:
            found.append(tuple(rows))
    return found


def is_standard(tableau):
    """Rows and columns strictly increasing, entries exactly 1..n."""
    rows = [list(r) for r in tableau]
    entries = sorted(x for r in rows for x in r)
    if entries != list(range(1, len(entries) + 1)):
        return False
    if any(len(a) < len(b) for a, b in zip(rows, rows[1:])):
        return False
    for r in rows:
        if any(a >= b for a, b in zip(r, r[1:])):
            return False
    for upper, lower in zip(rows, rows[1:]):
        if any(upper[c] >= lower[c] for c in range(len(lower))):
            return False
    return True


# ---------------------------------------------------------------------------
# polytabloids by enumerating the column group


def tabloid_of(tableau):
    """Row-equivalence class of a tableau in canonical form (rows sorted)."""
    return tuple(tuple(sorted(row)) for row in tableau)


def polytabloid(tableau):
    """{tabloid: sign} over every product of permutations of the columns'
    entries; a tabloid is its rows as sorted tuples."""
    width = max(map(len, tableau), default=0)
    columns = [[row[c] for row in tableau if len(row) > c] for c in range(width)]
    out = {}
    for perms in product(*(permutations(col) for col in columns)):
        sign = 1
        for perm in perms:
            inversions = sum(
                1 for a in range(len(perm)) for b in range(a) if perm[b] > perm[a]
            )
            sign *= (-1) ** inversions
        rows = [[] for _ in tableau]
        for perm in perms:
            for r, value in enumerate(perm):
                rows[r].append(value)
        out[tabloid_of(rows)] = sign
    return out


# ---------------------------------------------------------------------------
# ranks by textbook elimination


def rank_over_Q(matrix):
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col] != 0 and (pivot is None or abs(m[r][col]) > abs(m[pivot][col])):
                pivot = r
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def rank_mod_p(matrix, p):
    """Row reduction over F_p choosing the largest residue as pivot."""
    m = [[x % p for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, nrows):
            if m[r][col] and (pivot is None or m[r][col] > m[pivot][col]):
                pivot = r
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(x * inv) % p for x in m[rank]]
        for r in range(nrows):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def column_rank(a, p):
    """Rank by Gaussian elimination with first-nonzero pivoting, in int64.

    The int64 reference for large p: a is an int64 array of residues, changed
    in place; products of residues stay below p**2 < 2**62 for p < 2**31.
    """
    import numpy as np

    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        pr = rank + int(pivots[0])
        if pr != rank:
            a[[rank, pr]] = a[[pr, rank]]
        a[rank] = a[rank] * pow(int(a[rank, col]), p - 2, p) % p
        below = np.nonzero(a[rank + 1 :, col])[0] + rank + 1
        if below.size:
            a[below] = (a[below] - np.outer(a[below, col], a[rank])) % p
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# closed-form irreducible dimensions


def peel_hook_dimension(n, r, p):
    """dim D^(n-r, 1^r) over F_p by Peel's hook rule, for odd p and a
    p-regular hook: C(n-1, r) when p does not divide n, else C(n-2, r)."""
    assert p % 2 == 1 and 0 <= r < n
    assert r + (n - r == 1) < p, "hook is not p-regular"
    return comb(n - 1, r) if n % p else comb(n - 2, r)


# ---------------------------------------------------------------------------
# prime divisors by trial division


def trial_prime_factors(v):
    out = set()
    d = 2
    while d * d <= v:
        while v % d == 0:
            out.add(d)
            v //= d
        d += 1
    if v > 1:
        out.add(v)
    return out


def poly_value(coeffs, t):
    return sum(c * t**i for i, c in enumerate(coeffs))


def prime_pairs_by_trial_division(coeffs, count, p_min):
    """Scan t = 1, 2, ...; accept the smallest new prime factor above the
    last accepted prime, reported with the least t that works for it."""
    pairs = []
    last = p_min
    t = 0
    while len(pairs) < count:
        t += 1
        v = poly_value(coeffs, t)
        if v <= 1:
            continue
        fresh = sorted(f for f in trial_prime_factors(v) if f > last)
        if not fresh:
            continue
        p = fresh[0]
        for s in range(1, t + 1):
            w = poly_value(coeffs, s)
            if w > 0 and w % p == 0:
                pairs.append((s, p))
                break
        last = p
    return pairs


def census_by_trial_division(coeffs, limit):
    out = set()
    for t in range(1, limit + 1):
        v = poly_value(coeffs, t)
        if v > 1:
            out |= trial_prime_factors(v)
    return out
