"""Brute-force Specht module oracle.

Polytabloids span the Specht module inside the tabloid permutation module;
with tabloids orthonormal, the Gram matrix of the standard polytabloid basis
is an exact integer matrix, and its rank over F_p equals the dimension of
the irreducible head of the Specht module for p-regular shapes.

The matrix is G = E E^T, with E the signed incidence matrix of standard
polytabloids against the tabloids they reach, built once per shape from
the column stabilizer as arrays.  For a shape with m rows of length 1,
E keeps only the group elements that leave increasing entries in those
rows, |C_t|/m! of them, and the product is multiplied by m! once:
permuting those rows maps matching pairs of terms to matching pairs with
the same sign product, and as the first column of a standard tableau
increases, the kept elements are the same for every tableau.  Each
tabloid adds the k x k block of sign products of the k entries reaching
it, exact in int32 because every entry and partial sum, the m! multiple
included, is at most the column group order |C_t| <= 10**7, taken in
batches of whole tabloid classes so that memory stays bounded.  A batch
small enough (d * d * T <= _DENSE for the T tabloids it reaches) adds all
its blocks as one float64 product of its d x T part of E, exact as those
integers stay below 2**53.
Each call builds a new matrix and owns it: nothing is cached, and the rank
path reduces it mod N in place, N a prime or a product of primes ranked
together, so the matrix is the only d x d array a rank call holds (4d^2
bytes; a group of primes ranked before the last one, which happens only
past the float bound, takes an int32 residue copy).  The elimination
kernel is blocked (panels of columns, one Schur update each) on those
int32 residues in [0, N); only its panel factors L and U and one Schur
block at a time are float64, or int64 past the float bound.  A float-exact
N of at most 725 at any size, or a matrix of at most _NARROW rows and
columns over a larger float-exact N, is reduced instead in panels of _GJ
columns: each panel is copied, in int32 while _GJ (N-1)**2 + N - 1 < 2**31
(N <= 8192), else int64, and reduced by Gauss-Jordan, and the columns to
its right take one product with its pivot columns, in float32 while
_GJ (N-1)**2 < 2**24 (N <= 725), else float64, subtracted from the int32
matrix unreduced until its entries could pass 2**31.  Both kernels pivot on
units mod N only; a column with nonzero residues but no unit is deferred,
and the deferred columns' leftover block is ranked once more for the
primes at which it is not zero, together, or one by one when none drops
out.  It is exact while a residue minus a panel's worth of products
of two residues stays below 2**53 in float64 (BLAS, panels of _PANEL
columns, N <= 8388593) or below 2**63 in int64 (a larger prime, below
2**31, with panels as wide as that allows).  Every modulus fits in int32.

numpy is imported inside the functions that build or reduce arrays, so
importing this module does not load it; the first Gram or rank call does.
"""

from __future__ import annotations

from functools import cache
from math import factorial, isqrt, prod
from typing import Iterable, Iterator, Sequence

from .partitions import (
    DEFAULT_SIZE_CAP,
    Partition,
    format_partition,
    partition,
    removable_rim_hooks,
)
from .primes import NotPrime, is_prime


_MAX_COLUMN_GROUP = 10_000_000
# Most incidence entries paired at a time in Gram assembly (a batch takes
# about 130 bytes per entry).
_MAX_ENTRIES = 1 << 20
# Most entry pairs per scatter call in Gram assembly, or one tabloid's row if longer.
_PAIRS = 1 << 18
# Most d * d * T, for d tableaux reaching T tabloids, at which Gram assembly
# adds a batch as one dense product instead of scattering its pairs.  Larger
# BLAS products measured slower in total: the elimination after them ran up
# to a fifth slower (AVX-512 Xeon, one BLAS thread).
_DENSE = 1 << 18
# Columns per elimination panel.
_PANEL = 128
# Most rows and columns of a float-exact matrix that _blocked_rank hands to
# _narrow_rank when its product is float64 (N > 725; at N <= 725 every
# size goes there), and the columns per Gauss-Jordan panel there.  Totals
# of one oracle_grid pass's 129 eliminations (_ranks, leftovers included,
# all at N <= 725 or d <= 90; min of 15 interleaved runs in one process,
# AVX-512 Xeon, one BLAS thread): 119.1 ms with the blocked kernel past
# d = 300, 93.9 with _GJ = 32; _GJ = 16 98.1, 24 94.5, 40 96.2, 48 99.5.
# Past 725, blocked against panel kernel on the grid's Gram matrices (min
# of 9, ms): at 8388593, whose int64 panels reduce every product, d = 273
# 6.70 / 6.55, 286 7.21 / 7.31, 320 8.43 / 9.10, 560 23.4 / 32.1; at 5005
# the panel kernel is faster up to d = 560 (23.6 / 21.4) but not at
# d = 2079, (10,2,1,1).
_NARROW = 300
_GJ = 32
# The largest prime that _float_exact admits.
_FLOAT_PRIME = 8388593

StandardTableau = tuple[tuple[int, ...], ...]
Tabloid = tuple[tuple[int, ...], ...]


class TooLarge(RuntimeError):
    """Shape exceeds the size cap, or its column group is impractically large."""


def _check_cap(lam: Partition, size_cap: int) -> Partition:
    lam = partition(lam)
    if sum(lam) > size_cap:
        raise TooLarge(
            f"|{format_partition(lam)}| = {sum(lam)} exceeds the size cap {size_cap}"
        )
    return lam


def standard_tableaux(
    lam: Partition, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[StandardTableau, ...]:
    """All standard tableaux of the shape, as tuples of rows, sorted by
    row-reading word."""
    lam = _check_cap(lam, size_cap)
    ends = [sum(lam[: i + 1]) for i in range(len(lam))]
    return tuple(
        tuple(tuple(word[s:e]) for s, e in zip([0] + ends, ends))
        for word in _standard_tableaux(lam).tolist()
    )


# The tableaux of every shape built so far, as _standard_tableaux returns them.
_TABLEAUX: dict[Partition, np.ndarray] = {}


def _standard_tableaux(lam: Partition) -> np.ndarray:
    """The row-reading words of the standard tableaux of the shape, one row
    per tableau, in increasing order: a read-only (d, n) array of the
    narrowest unsigned type that holds n, built once and kept in _TABLEAUX.

    On a miss the shapes inside lam not yet built are queued breadth first
    from lam, so their sizes never increase along the queue, and built from
    its end: each finds its smaller shapes built, with no recursion, and a
    built shape is never walked again."""
    if lam in _TABLEAUX:
        return _TABLEAUX[lam]
    import numpy as np

    queue, corners = [lam], {lam: removable_rim_hooks(lam, 1)}
    for shape in queue:  # the queue grows as it is read
        for _, smaller in corners[shape]:
            if smaller not in _TABLEAUX and smaller not in corners:
                queue.append(smaller)
                corners[smaller] = removable_rim_hooks(smaller, 1)
    for shape in reversed(queue):
        n = sum(shape)
        dtype = np.min_scalar_type(n)
        if n == 0:
            words = np.zeros((1, 0), dtype=dtype)
        else:
            # n sits in a removable corner, the last cell of its row i; the
            # rest is a standard tableau of the smaller shape.
            blocks = [
                np.insert(_TABLEAUX[smaller].astype(dtype), sum(shape[:i]) - 1, n, axis=1)
                for (i, _), smaller in corners[shape]
            ]
            words = np.concatenate(blocks)
            words = words[np.lexsort(words.T[::-1])]  # the first letter sorts first
        words.flags.writeable = False
        _TABLEAUX[shape] = words
    return words


@cache
def _signed_perms(k: int, fixed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Every permutation of range(k) as a row that lists its `fixed` largest
    values in increasing order, and the sign of each: k!/fixed! rows, all
    k! of them for fixed <= 1."""
    import numpy as np

    # Start from 0..fixed-1 in order; every later value is inserted anywhere.
    perms = np.arange(fixed, dtype=np.uint8)[None]
    signs = np.ones(1, dtype=np.int8)
    for m in range(fixed, k):
        # Inserting m at position j, ahead of the m - j smaller values after
        # it, adds m - j inversions.  Block j of the new table holds those.
        grown = np.empty((m + 1, len(perms), m + 1), dtype=np.uint8)
        for j, block in enumerate(grown):
            block[:, :j], block[:, j], block[:, j + 1 :] = perms[:, :j], m, perms[:, j:]
        perms = grown.reshape(-1, m + 1)
        signs = np.concatenate([signs * (-1) ** (m - j) for j in range(m + 1)])
    if fixed > 1:
        # Reversing positions and values (conjugating by the longest
        # permutation) keeps each sign and puts k-fixed..k-1 in order.
        perms = k - 1 - perms[:, ::-1]
    return perms, signs


def _column_group(
    shape: tuple[int, ...], ones: int = 0
) -> tuple[tuple[tuple[int, int], ...], np.ndarray, np.ndarray]:
    """Column stabilizer of a tableau of the given row lengths, on cells.

    Returns the cells (row, col) read column by column, then one row per
    group element giving the row each cell's entry moves to, then the signs.
    Distinct group elements send a tableau to distinct tabloids.  A column
    has at most 10 cells (11! > _MAX_COLUMN_GROUP), so rows fit in uint8.

    With ones = m, the number of rows of length 1, only the elements whose
    first column keeps the order of the cells it sends to those last m rows
    are listed: |C|/m! of them, one per coset of the group S_m permuting
    those rows.  The first column of a standard tableau increases, so on
    every standard tableau these are the elements that leave increasing
    entries in the rows of length 1.  Gram assembly pairs only these and
    multiplies by m! once, and each entry stays at most |C| < 2**31.  The
    _MAX_COLUMN_GROUP check is on the full order |C| either way.
    """
    import numpy as np

    width = max(shape, default=0)
    columns = [[r for r, length in enumerate(shape) if length > c] for c in range(width)]
    order = prod(factorial(len(col)) for col in columns)
    if order > _MAX_COLUMN_GROUP:
        raise TooLarge(f"column stabilizer of shape has {order} elements")
    order //= factorial(ones)
    cells = tuple((r, c) for c, col in enumerate(columns) for r in col)
    # Group element g = (g_1, ..., g_w), one listed permutation per column,
    # sits in row sum_j g_j * prod_{k > j} (perms listed for col_k) of
    # targets, the first column varying slowest.  Each column's block is
    # filled through a broadcast view (before, perms, after, cells), so
    # targets is the only large array.
    # A partition's column holds rows 0..|col| - 1, so its perms are the rows.
    # Columns of length 1, the last ones, have only the identity: their
    # cells keep row 0 from the zero fill.
    targets = np.zeros((order, len(cells)), dtype=np.uint8)
    signs = np.ones(order, dtype=np.int8)
    before, start = 1, 0
    for c, col in enumerate(columns):
        if len(col) == 1:
            break
        perms, perm_signs = _signed_perms(len(col), 0 if c else ones)
        after = order // (before * len(perms))
        block = targets.reshape(before, len(perms), after, len(cells))
        block[..., start : start + len(col)] = perms[:, None]
        signs.reshape(before, len(perms), after)[...] *= perm_signs[:, None]
        before *= len(perms)
        start += len(col)
    return cells, targets, signs


def polytabloid(tableau: StandardTableau) -> dict[Tabloid, int]:
    """Signed sum of tabloids over the column stabilizer of the tableau.

    Distinct stabilizer elements give distinct tabloids, so the result has
    exactly one +/-1 entry per group element.
    """
    tableau = tuple(tuple(row) for row in tableau)
    cells, targets, signs = _column_group(tuple(map(len, tableau)))
    entries = [tableau[r][c] for r, c in cells]
    out: dict[Tabloid, int] = {}
    for rows_of, sign in zip(targets.tolist(), signs.tolist()):
        rows: list[list[int]] = [[] for _ in tableau]
        for value, r in zip(entries, rows_of):
            rows[r].append(value)
        out[tuple(tuple(sorted(r)) for r in rows)] = sign
    return out


def _gram_matrix_cached(lam: Partition) -> np.ndarray:
    """Int32 Gram matrix G = E E^T of the standard polytabloids, a new
    array on every call that the caller owns and may overwrite (the rank
    path reduces it in place); despite the name, nothing is cached.

    E is the signed incidence matrix: row i holds polytabloid i, one +/-1
    per tabloid it reaches.  An entry (g, i) of E, group element g acting
    on tableau i, is keyed by its tabloid: the row each entry 1..n lands
    in, as n bytes.  G_ij sums s_i s_j over the tabloids both reach, so the
    product is a scatter-add over pairs of entries sharing a tabloid
    (_add_pairs).  It is exact in int32: a partial sum counts at most
    |C_t| <= _MAX_COLUMN_GROUP < 2**31 terms of +/-1.

    Only the entries whose tabloid holds increasing entries in the rows of
    length 1, `ones` of them, are paired (see _column_group), and the sum
    is then multiplied by ones!.  Permuting those rows takes two entries
    that share a tabloid to two that still do, with the same sign product,
    so a pair and its ones! - 1 permuted copies add the same term, and
    exactly one copy leaves those rows increasing.  Whether (g, i) does
    depends on g alone, the same for every standard tableau i.  Each entry
    of the product is still at most |C_t|, so int32 holds it.

    Entries are paired in batches of at most _MAX_ENTRIES.  The class of a
    tabloid is the rows it puts the entries 1..m in; tabloids of different
    classes never pair, so a batch is a run of whole classes.  Tableaux that
    put 1..m in the same cells form a group, and on them the class of
    (g, i) depends on g alone.  m is the least number of entries for which
    no class holds more than _MAX_ENTRIES entries: m = 0 is one class, all
    the entries in one batch with nothing to plan, and at m = n a class is
    one tabloid, reached at most d times.
    """
    import numpy as np

    words = _standard_tableaux(lam)
    d, rows, ones = len(words), len(lam), lam.count(1)
    cells, targets, signs = _column_group(lam, ones)
    n = len(cells)
    gram = np.zeros((d, d), dtype=np.int32)
    if n == 0:  # the empty shape: one tableau, one tabloid
        gram[0, 0] = 1
        return gram
    # cell_of[i, v]: the index in cells of the cell holding entry v + 1 of
    # tableau i; cell (r, c) is letter sum(lam[:r]) + c of the word.
    cell_of = np.argsort(words[:, [sum(lam[:r]) + c for r, c in cells]], axis=1)
    if len(targets) * d <= _MAX_ENTRIES:  # m = 0: one class, one batch, nothing to plan
        parts, bounds = [(np.arange(d), np.arange(len(targets)), [0, len(targets)])], [0, 1]
    else:
        for m in range(1, n + 1):  # m = 0 is one class, too large to be a batch
            groups: dict[tuple[int, ...], list[int]] = {}
            for i, prefix in enumerate(cell_of[:, :m].tolist()):
                groups.setdefault(tuple(prefix), []).append(i)
            # targets[:, list(prefix)] @ powers: the class of each group element
            # on the tableaux of a group, as a base-rows number
            powers = rows ** np.arange(m)
            counts = [
                np.bincount(targets[:, list(prefix)] @ powers, minlength=rows**m)
                for prefix in groups
            ]
            sizes = sum(c * len(members) for c, members in zip(counts, groups.values()))
            if sizes.max() <= _MAX_ENTRIES:
                break
        parts = []  # per group: its tableaux, its group elements by class, class starts
        for (prefix, members), count in zip(groups.items(), counts):
            by_class = np.argsort(targets[:, list(prefix)] @ powers, kind="stable")
            starts = np.concatenate(([0], np.cumsum(count)))
            parts.append((members, by_class.astype(np.int32), starts))
        bounds, batch = [0], 0
        for c, size in enumerate(sizes.tolist()):
            if batch and batch + size > _MAX_ENTRIES:
                bounds.append(c)
                batch = 0
            batch += size
        bounds.append(len(sizes))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        labels, tableau, sign = [], [], []
        for members, order, starts in parts:
            g = order[starts[lo] : starts[hi]]
            # labels[g, i, v]: the row entry v + 1 of tableau i lands in under g
            labels.append(targets[g][:, cell_of[members]].reshape(-1, n))
            tableau.append(np.tile(members, len(g)))
            sign.append(np.repeat(signs[g], len(members)))
        _add_pairs(gram, *map(np.concatenate, (labels, tableau, sign)))
    gram *= factorial(ones)
    return gram


def _add_pairs(
    gram: np.ndarray, labels: np.ndarray, tableau: np.ndarray, sign: np.ndarray
) -> None:
    """Add s_e s_f to gram[i_e, i_f] for every pair of entries e, f with equal
    rows of labels; entry e has tableau i_e = tableau[e], sign s_e = sign[e].

    A small batch, d * d * T <= _DENSE for the T tabloids it reaches, adds
    one product E E^T of its d x T incidence block in float64, exact as
    every entry and partial sum is an integer of size at most
    |C_t| <= _MAX_COLUMN_GROUP < 2**53.  Otherwise the tabloids reached by k
    entries are the rows of a (tabloids, k) block, and each scatters the
    k x k outer product of its row.  A scatter call takes at most
    max(_PAIRS, k) pairs; k <= d, as no tableau reaches a tabloid twice."""
    import numpy as np

    # Entries sorted so that equal tabloids are adjacent (lexsort on uint8
    # keys is a radix sort), then compared as raw bytes.
    order = np.lexsort(labels.T)
    keys = labels[order].view(np.dtype((np.void, labels.shape[1]))).ravel()
    first = np.concatenate(([True], keys[1:] != keys[:-1]))  # of its tabloid
    del keys  # large batches: free before the scatter
    starts, d = np.flatnonzero(first), len(gram)
    if d * d * len(starts) <= _DENSE:
        incidence = np.zeros((d, len(starts)))
        incidence[tableau[order], np.cumsum(first) - 1] = sign[order]
        gram += (incidence @ incidence.T).astype(np.int32)
        return
    sizes = np.diff(starts, append=len(order))
    flat = gram.reshape(-1)
    for k in np.flatnonzero(np.bincount(sizes)).tolist():  # np.unique loads numpy.ma
        e = order[starts[sizes == k, None] + np.arange(k)]
        i, s = tableau[e], sign[e].astype(np.int32)
        rows = min(k, max(1, _PAIRS // k))
        step = max(1, _PAIRS // (rows * k))
        for lo in range(0, len(e), step):
            i_t, s_t = i[lo : lo + step], s[lo : lo + step]
            for r in range(0, k, rows):
                pairs = i_t[:, r : r + rows, None] * d + i_t[:, None, :]
                pair_sign = s_t[:, r : r + rows, None] * s_t[:, None, :]
                np.add.at(flat, pairs.ravel(), pair_sign.ravel())


def gram_matrix(lam: Partition, size_cap: int = DEFAULT_SIZE_CAP) -> list[list[int]]:
    """Exact integer Gram matrix of the polytabloid basis (tabloids orthonormal)."""
    lam = _check_cap(lam, size_cap)
    return _gram_matrix_cached(lam).tolist()


def _integer_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """The rows as an integer array, 2-D or empty; ValueError otherwise."""
    import numpy as np

    a = np.asarray(rows)  # ValueError for ragged rows
    if a.dtype.kind == "f":  # numpy's guess for negatives beside ints in [2**63, 2**64)
        a = np.array(rows, dtype=object)
    integers = a.dtype.kind in "biu" or all(hasattr(x, "__index__") for x in a.flat)
    if a.ndim > 2 or a.size and (a.ndim != 2 or not integers):
        raise ValueError(f"not a matrix of integers: shape {a.shape}, dtype {a.dtype}")
    return a


def modular_rank(rows: Sequence[Sequence[int]], p: int) -> int:
    """Rank over F_p of an integer matrix; ValueError if it is not one.

    The one-prime case of modular_ranks.
    """
    return modular_ranks(rows, (p,))[p]


def _float_exact(n: int) -> bool:
    """Whether a residue mod n minus _PANEL products of two stays below 2**53."""
    return _PANEL * (n - 1) ** 2 + n - 1 < 1 << 53


def _narrow_types(n: int) -> tuple[type, type]:
    """The panel and product types of _narrow_rank mod n: int32 while
    _GJ (n-1)**2 + n - 1 < 2**31 (n <= 8192), else int64; float32 while
    _GJ (n-1)**2 < 2**24 (n <= 725), else float64."""
    import numpy as np

    square = (n - 1) ** 2
    panel = np.int32 if _GJ * square + n - 1 < 1 << 31 else np.int64
    return panel, np.float32 if _GJ * square < 1 << 24 else np.float64


def _checked(primes: Iterable[int], kernel: bool = True) -> list[int]:
    """The distinct primes in order; NotPrime for one that is not prime and,
    for the elimination ``kernel``, ValueError for one past its 2**31 - 1."""
    primes = list(dict.fromkeys(primes))
    for p in primes:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if kernel and p >= 1 << 31:
            raise ValueError(f"p={p} too large for the elimination kernel")
    return primes


def modular_ranks(rows: Sequence[Sequence[int]], primes: Iterable[int]) -> dict[int, int]:
    """Rank over F_p of an integer matrix at each prime p; ValueError if it
    is not one.  The rows are left as they are: each group of primes ranks
    a new int32 array of residues.

    The primes, in increasing order, are grouped greedily while their
    product N keeps _PANEL * (N-1)**2 + N - 1 below 2**53, and each group
    is one elimination over Z/N, the product of its fields F_p, in float64
    (see _blocked_rank).  A prime that fits no group runs alone: in float64
    up to 8388593, and above that, below 2**31, in int64 with the widest
    panel up to _PANEL that keeps panel * (p-1)**2 + p - 1 below 2**63
    (9 at 10**9 + 7, 2 at 2**31 - 1).
    """
    primes = _checked(primes)
    return _ranks(_integer_matrix(rows), primes, in_place=False)


def _ranks(a: np.ndarray, primes: Sequence[int], in_place: bool) -> dict[int, int]:
    """modular_ranks of an integer array at checked primes.

    The primes are grouped (see modular_ranks), and each group is one
    elimination over Z/N, N their product, of a mod N: its pivots count at
    every prime of the group.  With in_place, a is an int32 array the
    caller gives up, and the last group reduces it in place; every other
    group takes a residue copy.  The leftover block (never for one prime)
    is ranked once more: a prime at which it is zero adds nothing, and the
    others rank it together, as a smaller group, or each alone if none
    drops out.  Either way each call works on fewer primes than its caller,
    so the recursion ends."""
    import numpy as np

    if a.size == 0:
        return dict.fromkeys(primes, 0)
    groups: list[tuple[int, ...]] = []
    for p in sorted(primes):
        if groups and _float_exact(prod(groups[-1]) * p):
            groups[-1] += (p,)
        else:
            groups.append((p,))
    ranks = {}
    for i, group in enumerate(groups):
        n = prod(group)
        if in_place and i == len(groups) - 1:
            a %= n
            residues = a
        else:
            residues = _residues(a, n)
        exact = _float_exact(n)
        panel = _PANEL if exact else min(_PANEL, ((1 << 63) - n) // (n - 1) ** 2)
        rank, leftover = _blocked_rank(residues, group, panel, np.float64 if exact else np.int64)
        ranks.update(dict.fromkeys(group, rank))
        if leftover.size:
            live = tuple(q for q in group if (leftover % q).any())
            for sub in [live] if len(live) < len(group) else [(q,) for q in live]:
                for q, r in _ranks(leftover, sub, in_place=False).items():
                    ranks[q] += r
    return {p: ranks[p] for p in primes}


def _residues(a: np.ndarray, n: int) -> np.ndarray:
    """A new int32 array of a mod n, for 0 < n < 2**31; a is left as it is."""
    import numpy as np

    # Reduce in the narrowest type that holds both the entries and n, and
    # store the residues, which fit int32, straight into the new array.
    kind = np.promote_types(a.dtype, np.min_scalar_type(n))
    out = np.empty(a.shape, dtype=np.int32)
    return np.remainder(a, n, out=out, dtype=kind, casting="unsafe")


def _blocked_rank(
    a: np.ndarray, primes: tuple[int, ...], panel: int, dtype: type
) -> tuple[int, np.ndarray]:
    """Right-looking blocked elimination over Z/n, n the product of the
    primes, of an int32 array of residues, which it overwrites: the number
    of pivots, and the leftover block of int32 residues (a view of a, or a
    new array).

    Each panel of `panel` columns is reduced column by column against the
    pivots found so far in it (left-looking), the first unit residue as
    pivot.  Pivot k, in column j and row i, gives the multipliers
    L[:, k] = col / col[i] and the row U[k, j:] = a[i, j:] - L[i, :k] U[:k, j:].
    A column whose residues are nonzero but hold no unit (n composite) is
    deferred: it is swapped with the last column not yet deferred, U's
    columns with it, so it sits right of every later pivot column and each
    later Schur update reaches it; it is never examined again.  The other
    rows get one Schur update a[rest, b:] - L[rest] U[:, b:], a block of
    _PANEL rows at a time, and the pivot rows are dropped.  A unit mod n is
    a unit mod each prime q | n, so the rank mod q is the pivot count plus
    the rank mod q of the leftover: the surviving rows on the deferred
    columns (none for a prime n).

    L, U and each Schur block are `dtype`, float64 or int64; numpy casts the
    int32 residues inside each mixed operation.  Each result is cast to
    int64 and reduced, so every stored value is a residue: before that it
    is a residue minus at most `panel` products of two, so it and every
    partial sum lie within panel * (n-1)**2 + n - 1, which modular_ranks
    keeps below 2**53 for float64 and below 2**63 for int64.

    A float64 call goes to _narrow_rank once the unit table is built when
    max(m, w) <= _NARROW or its product is float32 (n <= 725, see
    _narrow_types), so at any size for a small n: Gauss-Jordan on an int32
    copy of each panel of _GJ columns (int64 past n = 8192), then one
    float32 or float64 product for the columns to its right, subtracted
    unreduced while the int32 entries stay within 2**31.  It sets deferred
    columns aside in its own order, so its leftover may differ from this
    kernel's; the pivots plus the leftover's rank mod each prime are the
    same.
    """
    import numpy as np

    n = prod(primes)
    units = None  # for a prime n, the nonzero residues
    if len(primes) > 1:
        units = np.ones(n, dtype=bool)  # indexed by residue
        for q in primes:
            units[::q] = False
    if dtype is np.float64 and (max(a.shape) <= _NARROW or _narrow_types(n)[1] is np.float32):
        return _narrow_rank(a, n, units)
    rank, deferred = 0, 0  # deferred: the columns at the right end
    while True:  # until the panel reaches the deferred columns, or no row is left
        m, w = a.shape
        b = min(panel, w - deferred)
        lower = np.zeros((m, b), dtype=dtype)
        upper = np.zeros((b, w), dtype=dtype)
        pivots: list[int] = []
        j = 0
        while j < b:
            k = len(pivots)
            col = (a[:, j] - lower[:, :k] @ upper[:k, j]).astype(np.int64) % n
            unit = col != 0 if units is None else units[col]
            i = int(unit.argmax())
            if unit[i]:
                upper[k, j:] = (a[i, j:] - lower[i, :k] @ upper[:k, j:]).astype(np.int64) % n
                lower[:, k] = col * pow(int(col[i]), -1, n) % n
                pivots.append(i)
            elif col.any():  # defer: swap in the last column not yet deferred
                deferred += 1
                t = w - deferred
                a[:, [j, t]], upper[:k, [j, t]] = a[:, [t, j]], upper[:k, [t, j]]
                b = min(b, t)
                continue
            j += 1
        r = len(pivots)
        rank += r
        a, _ = _schur_rows(a, pivots, b, lower[:, :r], upper[:r, b:], n)
        if len(a) == 0 or a.shape[1] == deferred:
            return rank, a


def _schur_rows(
    a: np.ndarray,
    pivots: list[int],
    b: int,
    left: np.ndarray,
    right: np.ndarray,
    n: int | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a that are not pivots, on its columns from b, less
    left @ right on those rows, reduced mod n (for n None, the product is
    cast to a's type and not reduced): written over the top rows of a, one
    block of _PANEL rows at a time, and returned as a view of a, with the
    indices of the rows kept.  Without pivots nothing changes."""
    import numpy as np

    kept = np.ones(len(a), dtype=bool)
    kept[pivots] = False
    rest = np.flatnonzero(kept)
    # rest[k] >= k, so no block reads a row an earlier block wrote.
    for lo in range(0, len(rest) if pivots and b < a.shape[1] else 0, _PANEL):
        block = rest[lo : lo + _PANEL]
        if n is None:
            a[lo : lo + len(block), b:] = a[block, b:] - (left[block] @ right).astype(a.dtype)
        else:
            a[lo : lo + len(block), b:] = (a[block, b:] - left[block] @ right).astype(np.int64) % n
    return a[: len(rest), b:], rest


def _narrow_rank(a: np.ndarray, n: int, units: np.ndarray | None) -> tuple[int, np.ndarray]:
    """_blocked_rank over a float-exact n, right-looking on panels of at
    most _GJ columns of the int32 matrix, which it overwrites.

    Each panel is copied, reduced mod n, and reduced by Gauss-Jordan column
    operations: the pivot is the first unit of its column mod n, and one
    outer product of that column with the pivot row, reduced and scaled by
    the pivot's inverse, clears the row from every other panel column and
    makes the pivot entry 1.  So the pivot columns Q, reduced, have
    Q[pivots] = I, and the columns to the right of the panel are cleared on
    the pivot rows by one product, a[rest] -= Q[rest] (a[pivots] % n), a
    block of _PANEL rows at a time; the pivot rows are dropped.  A column
    with nonzero residues but no unit is set aside: the set-aside columns
    sit at the left end of a and move, after each panel, to where the
    columns right of it begin, so each later panel's product reaches them;
    reduced, they are the leftover.

    Exact by three bounds on s <= _GJ products of two residues, each at
    most (n-1)**2 (_narrow_types):
    - a panel entry is a residue minus one product per pivot of its panel,
      within _GJ (n-1)**2 + n - 1: the panel is int32 while that is below
      2**31 (n <= 8192), else int64;
    - an entry of Q[rest] (a[pivots] % n) is a sum of s products, so it and
      each partial sum are nonnegative integers of at most _GJ (n-1)**2:
      the product is float32 while that is below 2**24 (n <= 725), else
      float64, below 2**53;
    - the product is subtracted without reduction: a's entries lie in
      [-bound, n), and a panel of r pivots subtracts its product in int32
      while bound + r (n-1)**2 < 2**31, raising bound by r (n-1)**2, or
      else in float64, exact within 2**31 + _GJ (n-1)**2 < 2**53, then
      reduces the result and resets bound to n - 1.
    The panel copy, the pivot rows and the leftover are reduced before use.
    As bound never passes n - 1 + rank (n-1)**2, a matrix of rank below
    14 564 is never reduced at n = 385."""
    import numpy as np

    square = (n - 1) ** 2
    panel_type, product_type = _narrow_types(n)
    rank, aside, bound = 0, 0, n - 1  # aside: the set-aside columns, at the left end of a
    while len(a) and a.shape[1] > aside:
        b = min(_GJ, a.shape[1] - aside)
        f = a[:, aside : aside + b]
        f = (f if bound < n else f % n).astype(panel_type)
        pivots, cols, deferred = [], [], []
        for j in range(b):
            col = f[:, j] % n
            # take: faster than [] on an int32 index (numpy 2.4)
            unit = col != 0 if units is None else units.take(col)
            i = int(unit.argmax())
            if unit[i]:
                inverse = pow(int(col[i]), -1, n)
                row = f[i] % n * inverse % n
                row[j] = (1 - inverse) % n  # f[:, j] becomes col * inverse
                f -= col[:, None] * row
                pivots.append(i)
                cols.append(j)
            elif col.any():
                deferred.append(j)
        rank += len(pivots)
        # The set-aside columns, this panel's last, move right to end where
        # the columns right of the panel begin; this panel's are 0 on its
        # pivot rows.
        start = b - len(deferred)
        if aside and start:
            a[:, start : start + aside] = a[:, :aside]
        if deferred:
            a[:, start + aside : aside + b] = f[:, deferred] % n
            aside += len(deferred)
        lazy = bound + len(pivots) * square < 1 << 31
        q = (f[:, cols] % n).astype(product_type)
        right = a[pivots, start:]
        right = (right if bound < n else right % n).astype(product_type)
        a, _ = _schur_rows(a, pivots, start, q, right, None if lazy else n)
        bound = bound + len(pivots) * square if lazy else n - 1
    return rank, a[:, :aside] if bound < n else a[:, :aside] % n


def integer_rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over Q of an integer matrix; ValueError if it is not one.

    The largest rank r mod the primes from _FLOAT_PRIME down, until it is
    full or their product exceeds B(r) = ((isqrt(r + 1) + 1) * max|a_ij|)**(r + 1).
    Exact: no rank mod p exceeds the rank over Q, and if that rank were
    above r, a nonzero (r + 1) x (r + 1) minor M would have 0 < |M| < B(r)
    (Hadamard's inequality), so some prime used would not divide M, and
    mod that prime the rank would be above r.
    """
    a = _integer_matrix(rows)
    if a.size == 0:
        return 0
    entry = max(int(a.max()), -int(a.min()))
    rank, product = 0, 1
    for p in range(_FLOAT_PRIME, 2, -2):
        if is_prime(p):
            rank = max(rank, modular_rank(a, p))
            product *= p
            if rank == min(a.shape) or product > ((isqrt(rank + 1) + 1) * entry) ** (rank + 1):
                return rank
    raise ValueError("entries too large for an exact rank")


def gram_rank_mod_p(lam: Partition, p: int, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Rank of the Gram matrix over F_p.

    For p-regular shapes this is the dimension of the irreducible head of
    the Specht module in characteristic p; in general it is the rank of the
    canonical bilinear form.  The one-prime case of gram_ranks_mod_p.
    """
    return gram_ranks_mod_p(lam, (p,), size_cap)[p]


def gram_ranks_mod_p(
    lam: Partition, primes: Iterable[int], size_cap: int = DEFAULT_SIZE_CAP
) -> dict[int, int]:
    """Rank of the Gram matrix over F_p at each prime p, from one
    elimination per group of primes (see modular_ranks), which reduces the
    new matrix in place.  Checks the size cap, then each prime, before the
    matrix is built."""
    lam = _check_cap(lam, size_cap)
    primes = _checked(primes)
    return _ranks(_gram_matrix_cached(lam), primes, in_place=True)


def gram_rank_rational(lam: Partition, size_cap: int = DEFAULT_SIZE_CAP) -> int:
    """Rank of the Gram matrix over the rationals (characteristic zero),
    by integer_rank.  F_p S_n is semisimple for p > n, so the first prime,
    _FLOAT_PRIME > n, gives full rank d in one elimination; any other rank
    is a fault: RuntimeError, never that rank.
    """
    lam = _check_cap(lam, size_cap)
    gram = _gram_matrix_cached(lam)
    rank = integer_rank(gram)
    if rank != len(gram):
        lam_s = format_partition(lam)
        raise RuntimeError(f"rank of {lam_s} over Q is {rank}, not {len(gram)}")
    return rank


def format_gram_dump(lam: Partition, p: int, size_cap: int = DEFAULT_SIZE_CAP) -> str:
    """Plain-text dump of the mod-p Gram matrix: first line "d p", then d rows
    of d residues, space-separated; any prime, as it reduces Python ints."""
    return "".join(_gram_dump_lines(lam, p, size_cap))


def _gram_dump_lines(lam: Partition, p: int, size_cap: int) -> Iterator[str]:
    """The lines of format_gram_dump, each with its newline, one at a time."""
    lam = _check_cap(lam, size_cap)
    _checked((p,), kernel=False)
    gram = _gram_matrix_cached(lam)
    yield f"{len(gram)} {p}\n"
    for row in gram:  # one row of Python ints at a time, not d**2 of them
        yield " ".join([str(v % p) for v in row.tolist()]) + "\n"
