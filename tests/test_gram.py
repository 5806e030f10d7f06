"""Explicit Specht modules: tableaux, polytabloids, Gram matrices, ranks."""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import specht.gram as gram_mod
from oracles import irreducible_dim_hook_family_check, is_standard, tabloid_of
from specht import (
    NotPrime,
    TooLarge,
    format_gram_dump,
    format_partition,
    gram_matrix,
    gram_rank_mod_p,
    gram_rank_rational,
    gram_ranks_mod_p,
    integer_rank,
    modular_rank,
    modular_ranks,
    partitions_of,
    polytabloid,
    specht_dimension,
    standard_tableaux,
)
from specht.primes import is_prime


# ---------------------------------------------------------------------------
# standard tableaux


def test_standard_tableaux_of_2_1():
    assert standard_tableaux((2, 1)) == (((1, 2), (3,)), ((1, 3), (2,)))


def test_standard_tableaux_counts():
    assert len(standard_tableaux((3, 1))) == 3
    assert len(standard_tableaux((4,))) == 1
    assert standard_tableaux((4,)) == (((1, 2, 3, 4),),)


@pytest.mark.parametrize("n", range(1, 8))
def test_tableau_count_equals_dimension(n):
    for lam in partitions_of(n):
        assert len(standard_tableaux(lam)) == specht_dimension(lam)


@pytest.mark.parametrize("n", range(1, 6))
def test_tableaux_match_brute_enumeration(n):
    for lam in partitions_of(n):
        assert sorted(standard_tableaux(lam)) == sorted(oracles.standard_fillings(lam))


@pytest.mark.parametrize(
    "lam, size_cap",
    [(lam, gram_mod.DEFAULT_SIZE_CAP) for n in range(1, 10) for lam in partitions_of(n)]
    + [((300,), 300), ((299, 1), 300)],
    ids=str,
)
def test_tableaux_come_out_in_row_reading_order(lam, size_cap):
    """Standard tableaux of the shape in strictly increasing row-reading
    order, the rows of the word array; past n = 255 its entries outgrow uint8."""
    tabs = standard_tableaux(lam, size_cap)
    assert all(tuple(map(len, t)) == lam and is_standard(t) for t in tabs)
    words = [tuple(x for row in t for x in row) for t in tabs]
    assert words == sorted(set(words))
    assert len(words) == specht_dimension(lam)
    assert [tuple(w) for w in gram_mod._standard_tableaux(lam).tolist()] == words


def test_is_standard():
    assert is_standard(((1, 2), (3,)))
    assert is_standard(((1, 3), (2, 4)))
    assert not is_standard(((2, 1), (3,)))  # decreasing along the row
    assert not is_standard(((2, 3), (1, 4)))  # decreasing down a column


def test_standard_tableaux_respects_size_cap():
    with pytest.raises(TooLarge):
        standard_tableaux((10, 9, 8), size_cap=16)
    # explicit override admits bigger shapes
    assert len(standard_tableaux((17,), size_cap=17)) == 1


# ---------------------------------------------------------------------------
# polytabloids and the Gram matrix


def test_polytabloid_examples():
    assert polytabloid(((1, 2), (3,))) == {((1, 2), (3,)): 1, ((2, 3), (1,)): -1}
    assert polytabloid(((1, 3), (2,))) == {((1, 3), (2,)): 1, ((2, 3), (1,)): -1}
    assert polytabloid(((1, 2, 3),)) == {((1, 2, 3),): 1}


def test_tabloid_of_sorts_rows():
    assert tabloid_of(((3, 1), (2,))) == ((1, 3), (2,))


def test_gram_matrix_examples():
    assert gram_matrix((2, 1)) == [[2, 1], [1, 2]]
    assert gram_matrix((1, 1)) == [[2]]
    assert gram_matrix((3,)) == [[1]]
    assert gram_matrix((1,)) == [[1]]


@pytest.mark.parametrize("n", range(2, 8))
def test_gram_matrices_are_symmetric_with_positive_diagonal(n):
    for lam in partitions_of(n):
        g = gram_matrix(lam)
        for i in range(len(g)):
            assert g[i][i] > 0
            for j in range(len(g)):
                assert g[i][j] == g[j][i]


@pytest.mark.parametrize(
    "lam",
    [lam for n in range(8) for lam in partitions_of(n)]
    + [lam for lam in partitions_of(8) if lam.count(1) >= 2]  # m! factored out
    + [(5, 3), (4, 2, 2)],
    ids=format_partition,
)
def test_gram_matrix_is_the_polytabloid_pairing(lam):
    polys = [oracles.polytabloid(t) for t in standard_tableaux(lam)]
    g = gram_matrix(lam)
    assert g == _pairing_matrix(polys)
    assert all(type(x) is int for row in g for x in row)
    assert [polytabloid(t) for t in standard_tableaux(lam)] == polys


def _pairing_matrix(polys):
    """The Gram matrix of the polytabloids, tabloids orthonormal."""
    return [
        [sum(v * f.get(tabloid, 0) for tabloid, v in e.items()) for f in polys]
        for e in polys
    ]


@pytest.mark.parametrize(
    "lam", [(2, 1), (3, 2, 1), (2, 2, 1, 1), (4, 1, 1, 1), (3, 3, 1, 1)]
)
@pytest.mark.parametrize(
    "fraction, pairs",
    [
        pytest.param(
            fraction, pairs, id=f"{fraction}-pairs{pairs}" if pairs else str(fraction)
        )
        for fraction in [2, 7, 50, 10**9]
        for pairs in [None, 1, 5]
    ],
)
def test_gram_matrix_assembled_in_batches(monkeypatch, lam, fraction, pairs):
    """Bounding the entries paired at a time splits the tabloids into classes
    by the rows of their first entries; the matrix must not change.  With
    the bound below one tabloid's entries, every tabloid is its own class.

    Bounding the pairs per scatter call (_PAIRS, default when None) splits
    each tabloid's k x k block: _PAIRS = 1 takes one row a call, 5 mixes
    split tabloids with calls of whole ones.  No call may take more than
    max(_PAIRS, k) pairs, and every pair is scattered once.  Only the
    polytabloid terms with increasing entries in the rows of length 1 are
    paired (the m! copies of the rest add the same terms)."""
    expected = gram_matrix(lam)
    reach = Counter(
        tabloid
        for t in standard_tableaux(lam)
        for tabloid in oracles.polytabloid(t)
        if _ones_increase(tabloid)
    )
    entries = sum(reach.values())
    add, sizes = np.add, []

    class RecordingAdd:  # numpy.add, recording the pairs of each add.at call
        def __getattr__(self, name):
            return getattr(add, name)

        def at(self, a, indices, values):
            sizes.append(np.size(indices))
            add.at(a, indices, values)

    monkeypatch.setattr(np, "add", RecordingAdd())
    monkeypatch.setattr(gram_mod, "_MAX_ENTRIES", max(entries // fraction, 1))
    if pairs:
        monkeypatch.setattr(gram_mod, "_PAIRS", pairs)
    assert gram_matrix(lam) == expected
    assert max(sizes) <= max(gram_mod._PAIRS, max(reach.values()))
    assert sum(sizes) == sum(k * k for k in reach.values())


def _ones_increase(tabloid):
    """Whether the rows of length 1 of the tabloid hold increasing entries."""
    ones = [row[0] for row in tabloid if len(row) == 1]
    return ones == sorted(ones)


@pytest.mark.parametrize(
    "lam, order",
    [
        ((2, 2) + (1,) * 8, math.factorial(10) * 2),
        ((3,) + (1,) * 9, math.factorial(10)),
        ((2, 2, 2) + (1,) * 6, math.factorial(9) * math.factorial(3)),
        ((1,) * 10, math.factorial(10)),
    ],
    ids=lambda x: format_partition(x) if isinstance(x, tuple) else str(x),
)
def test_tall_gram_diagonal_is_the_full_column_group_order(lam, order):
    """<e_T, e_T> = |C_t| on tall shapes: a lost or doubled m! would show."""
    g = gram_mod._gram_matrix_cached(lam)
    assert g.diagonal().tolist() == [order] * len(standard_tableaux(lam))


def test_tall_shape_ranks_at_three_primes():
    lam = (3, 3) + (1,) * 6
    assert gram_ranks_mod_p(lam, (7, 11, 13)) == {7: 616, 11: 616, 13: 616}


def test_tall_assembly_never_builds_the_full_first_column_table():
    """[2,2,1^8] pairs 10!/8! first-column elements, not 10! (36 MB as uint8)."""
    import tracemalloc

    lam = (2, 2) + (1,) * 8
    standard_tableaux(lam, size_cap=12)
    tracemalloc.start()
    try:
        gram_mod._gram_matrix_cached(lam)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_polytabloid_diagonal_norm_is_column_group_order():
    """<e_T, e_T> = |column stabilizer|: distinct signed terms, all +-1."""
    import math

    for lam in [(2, 2), (3, 1), (2, 2, 1), (3, 3, 1)]:
        cols = []
        t = standard_tableaux(lam)[0]
        ncols = max(len(r) for r in t)
        order = 1
        for c in range(ncols):
            col_len = sum(1 for r in t if len(r) > c)
            order *= math.factorial(col_len)
        e = polytabloid(t)
        assert sum(v * v for v in e.values()) == order


# ---------------------------------------------------------------------------
# rank kernels


def test_modular_rank_basics():
    assert modular_rank([[1, 0], [0, 1]], 5) == 2
    assert modular_rank([[0, 0], [0, 0]], 5) == 0
    assert modular_rank([[2, 1], [1, 2]], 3) == 1
    assert modular_rank([[2, 1], [1, 2]], 5) == 2
    assert modular_rank([], 5) == 0


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64])
def test_modular_rank_reduces_narrow_integer_types(dtype):
    # 257 and 2**31 - 1 do not fit an 8-bit entry type.
    a = np.array([[1, 2], [2, 4], [0, 3]], dtype=dtype)
    for p in (2, 3, 257, 2**31 - 1):
        assert modular_rank(a, p) == oracles.rank_mod_p(a.tolist(), p)
    assert modular_rank(np.array([[1]], dtype=dtype), 257) == 1


def test_modular_rank_rejects_huge_primes():
    with pytest.raises(ValueError):
        modular_rank([[1]], 2**31 + 11)


def _matrix_of_rank(rng, m, n, r, p, zero_columns=0):
    """B C mod p for B (m x r) with r identity rows and C (r x n) in echelon
    form with nonzero pivots spread over the columns, so the rank is r."""
    pivots = np.sort(rng.choice(n, r, replace=False))
    free = np.setdiff1d(np.arange(n), pivots)
    zero = rng.choice(free, min(zero_columns, len(free)), replace=False)
    c = rng.integers(0, p, (r, n))
    c[np.arange(n) < pivots[:, None]] = 0
    c[np.arange(r), pivots] = rng.integers(1, p, r)
    c[:, zero] = 0
    b = rng.integers(0, p, (m, r))
    b[rng.choice(m, r, replace=False)] = np.eye(r, dtype=np.int64)
    if r * (p - 1) ** 2 < 2**63:
        return b @ c % p
    a = np.zeros((m, n), dtype=np.int64)
    for t in range(r):
        a = (a + np.outer(b[:, t], c[t]) % p) % p
    return a


# 8388617 and 10**9 + 7 run in int64, with panels of 128 and 9 columns.
KERNEL_PRIMES = [2, 3, 5, 7, 11, 13, 65521, 8388617, 10**9 + 7, 2**31 - 1]


def _sizes(b):
    square = [(s, s) for s in (b - 1, b, b + 1, 2 * b + 1)]
    return square + [(b - 1, 2 * b + 1), (2 * b + 1, b + 1), (b, 1), (1, b + 1)]


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_modular_rank_matches_textbook_elimination(monkeypatch, p):
    """Sizes on both sides of a narrow panel width, so the oracle stays cheap."""
    b = 8
    monkeypatch.setattr(gram_mod, "_PANEL", b)
    rng = np.random.default_rng(p)
    for m, n in _sizes(b):
        full = min(m, n)
        for r in sorted({0, 1, full // 2, full - 1, full}):
            for zero_columns in (0, 3):
                a = _matrix_of_rank(rng, m, n, r, p, zero_columns)
                assert modular_rank(a, p) == r == oracles.rank_mod_p(a.tolist(), p)


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_modular_rank_at_the_panel_width(p):
    b = gram_mod._PANEL
    rng = np.random.default_rng(p)
    for m, n in _sizes(b):
        for r in (0, min(m, n) * 2 // 3, min(m, n)):
            a = _matrix_of_rank(rng, m, n, r, p, zero_columns=5)
            assert modular_rank(a, p) == r
    assert modular_rank(np.zeros((b + 1, 2 * b + 1), dtype=np.int64), p) == 0


def _float_path_primes(b):
    """The largest prime p with b (p-1)**2 + p - 1 < 2**53, and the next one."""
    p = math.isqrt(2**53 // b) + 1
    while not (is_prime(p) and b * (p - 1) ** 2 + p - 1 < 2**53):
        p -= 1
    q = p + 1
    while not is_prime(q):
        q += 1
    return p, q


def _record_kernel(monkeypatch):
    """Wrap _blocked_rank; the returned list gets (arithmetic type, panel) per call."""
    calls = []
    blocked_rank = gram_mod._blocked_rank

    def record(a, p, panel, dtype):
        assert a.dtype == np.int32  # the residues; dtype is the arithmetic
        calls.append((dtype, panel))
        return blocked_rank(a, p, panel, dtype)

    monkeypatch.setattr(gram_mod, "_blocked_rank", record)
    return calls


def test_float_path_primes_at_the_default_panel():
    assert gram_mod._PANEL == 128
    assert _float_path_primes(128) == (8388593, 8388617)


@pytest.mark.parametrize("b", [8, 128])
def test_float_path_ends_at_the_exactness_bound(monkeypatch, b):
    monkeypatch.setattr(gram_mod, "_PANEL", b)
    last, first_beyond = _float_path_primes(b)
    a = np.full((3, 2 * b + 1), last - 1, dtype=np.int64)
    calls = _record_kernel(monkeypatch)
    assert modular_rank(a, last) == 1
    assert modular_rank(a, first_beyond) == 1
    assert calls == [(np.float64, b), (np.int64, b)]


@pytest.mark.parametrize(
    "p, width",
    [(8388617, 128), (268435399, 128), (268435459, 127), (10**9 + 7, 9), (2**31 - 1, 2)],
)
def test_int64_panel_is_the_widest_the_bound_allows(monkeypatch, p, width):
    """268435399 and 268435459 are the last prime with 128 columns and the
    first with fewer."""
    assert width * (p - 1) ** 2 + p - 1 < 2**63
    assert width == 128 or (width + 1) * (p - 1) ** 2 + p - 1 >= 2**63
    calls = _record_kernel(monkeypatch)
    assert modular_rank([[1]], p) == 1
    assert calls == [(np.int64, width)]


@pytest.mark.parametrize(
    "p, b", [(10**9 + 7, 128), (2**31 - 1, 128), (8388593, 8), (8388593, 128)]
)
def test_widest_panel_is_exact_on_the_largest_schur_values(monkeypatch, p, b):
    """[[I_w, (p-1)J], [(p-1)J, wJ]] with w = panel + 1: the first panel's
    Schur update takes w - panel (p-1)**2, a residue minus `panel` products
    of the largest size, and the Schur complement wJ - (p-1)**2 wJ is 0 mod
    p, so the rank is w."""
    monkeypatch.setattr(gram_mod, "_PANEL", b)
    calls = _record_kernel(monkeypatch)
    modular_rank([[1]], p)
    w = calls[0][1] + 1
    a = np.full((w + 3, w + 3), p - 1, dtype=np.int64)
    a[:w, :w] = np.eye(w, dtype=np.int64)
    a[w:, w:] = w
    assert modular_rank(a, p) == w


@pytest.mark.parametrize("b", [8, 128])
def test_blocked_rank_is_exact_at_the_largest_primes(monkeypatch, b):
    """Dense residues up to p - 1 on both sides of the float path's bound,
    against the int64 reference, on sizes that cross panel boundaries."""
    monkeypatch.setattr(gram_mod, "_PANEL", b)
    rng = np.random.default_rng(b)
    sizes = [(2 * b + 44, 2 * b + 44), (b + 1, 2 * b + 1), (2 * b + 1, b + 1)]
    for p in _float_path_primes(b):
        for m, n in sizes:
            low_rank = _matrix_of_rank(rng, m, n, min(m, n) // 2, p)
            for a in (rng.integers(0, p, (m, n)), np.full((m, n), p - 1), low_rank):
                assert modular_rank(a, p) == oracles.column_rank(a.copy(), p)


@pytest.mark.parametrize(
    "rows",
    [[1, 2, 3], [[[1, 2]]], 7, [[1], [2, 3]], [[1, 2], [3]]]
    + [[[1.5, 2]], [[1.0, 2.0]], [[2**70, 0.5]], [[1, None]]],
    ids=["1-D", "3-D", "scalar", "ragged-long", "ragged-short"]
    + ["float", "integral-float", "float-beside-big-int", "none"],
)
def test_rank_kernels_reject_malformed_matrices(rows):
    with pytest.raises(ValueError):
        modular_rank(rows, 5)
    with pytest.raises(ValueError):
        integer_rank(rows)


def test_rank_kernels_take_integers_beyond_64_bits():
    rows = [[2**70 + 1, 1], [1, 0]]
    assert modular_rank(rows, 5) == 2
    assert integer_rank(rows) == 2


def test_rank_kernels_take_a_negative_beside_an_entry_past_int64():
    # numpy infers float64 for these rows; the kernels still see integers.
    assert integer_rank([[-1, 2**63]]) == 1
    assert modular_rank([[-1, 2**63]], 5) == 1
    for rows in ([[1.5]], [[1.0]]):
        with pytest.raises(ValueError):
            integer_rank(rows)
        with pytest.raises(ValueError):
            modular_rank(rows, 5)


def test_integer_rank_basics():
    assert integer_rank([[2, 1], [1, 2]]) == 2
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[0]]) == 0
    assert integer_rank([]) == 0


def test_first_prime_is_the_largest_float_exact_prime():
    p = gram_mod._FLOAT_PRIME
    assert is_prime(p) and gram_mod._float_exact(p)
    following = next(q for q in range(p + 1, 2 * p) if is_prime(q))
    assert following == 8388617 and not gram_mod._float_exact(following)


def test_integer_rank_goes_past_primes_that_divide_a_minor():
    """Matrices whose rank drops mod the first prime, or the first two or three."""
    p1, p2, p3 = [q for q in range(gram_mod._FLOAT_PRIME, 8388500, -1) if is_prime(q)][:3]
    assert integer_rank([[p1, 0], [0, 1]]) == 2
    assert integer_rank([[p1 * p2, 0], [0, 0]]) == 1
    assert integer_rank([[p1, 0, 0], [0, p2, 0], [0, 0, p3]]) == 3
    assert integer_rank([[2**70, 2**71], [2**69, 2**70]]) == 1


def test_integer_rank_stops_at_the_bound_of_the_rank_found(monkeypatch):
    """40 x 40 of rank 5, entries at most 50: two primes pass
    ((isqrt(6) + 1) * 50)**6, where Hadamard's bound on a full minor,
    ((isqrt(40) + 1) * 50)**40, would take 15."""
    rng = np.random.default_rng(5)
    rows = rng.integers(-50, 51, (5, 40))
    a = rows[np.r_[0:5, rng.integers(0, 5, 35)]] * rng.choice([-1, 1], (40, 1))
    assert np.abs(a).max() <= 50 and oracles.rank_over_Q(a.tolist()) == 5
    calls = []
    rank = gram_mod.modular_rank

    def record(rows, p):
        calls.append(p)
        return rank(rows, p)

    monkeypatch.setattr(gram_mod, "modular_rank", record)
    assert integer_rank(a) == 5
    assert len(calls) == 2


def test_integer_rank_of_a_gram_matrix_is_immediate():
    g = gram_matrix((6, 3, 1))
    start = time.perf_counter()
    assert integer_rank(g) == 315
    assert time.perf_counter() - start < 1


@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    ),
    st.sampled_from([2, 3, 5, 7, 11]),
)
@settings(max_examples=80)
def test_rank_kernels_agree_with_textbook_elimination(rows, p):
    assert integer_rank(rows) == oracles.rank_over_Q(rows)
    assert modular_rank(rows, p) == oracles.rank_mod_p(rows, p)


def test_rank_is_invariant_under_simultaneous_permutation():
    g = gram_matrix((3, 2))
    idx = list(range(len(g)))
    rng = random.Random(7)
    for p in (2, 3, 5):
        base = modular_rank(g, p)
        for _ in range(5):
            rng.shuffle(idx)
            shuffled = [[g[i][j] for j in idx] for i in idx]
            assert modular_rank(shuffled, p) == base


# ---------------------------------------------------------------------------
# ranks at several primes from one elimination over Z/N, N their product

PRIME_SETS = [(2, 3), (5, 7, 11), (3, 5, 7, 11, 13), (2, 3, 5, 7, 11, 13)]
# 5 * 7 runs in float64; 8388617 and 2**31 - 1 run alone in int64.
MIXED_PRIMES = (5, 7, 8388617, 2**31 - 1)


def _reference_ranks(rows, primes):
    """One int64 reference elimination per prime."""
    a = np.array(rows, dtype=object)
    return {p: oracles.column_rank((a % p).astype(np.int64), p) for p in primes}


def _planted(rng, m, n, ranks):
    """An m x n integer matrix of rank ranks[p] mod each prime p: matrices
    of those ranks mod each p, glued by the Chinese remainder theorem."""
    big = math.prod(ranks)
    a = np.zeros((m, n), dtype=object)
    for p, r in ranks.items():
        unit = big // p * pow(big // p, -1, p)  # 1 mod p, 0 mod the others
        a += _matrix_of_rank(rng, m, n, r, p, zero_columns=3).astype(object) * unit
    return a % big


def _record_moduli(monkeypatch):
    """Wrap _blocked_rank; the returned list gets the modulus of each call."""
    moduli = []
    blocked_rank = gram_mod._blocked_rank

    def record(a, primes, panel, dtype):
        assert a.dtype == np.int32
        moduli.append(math.prod(primes))
        return blocked_rank(a, primes, panel, dtype)

    monkeypatch.setattr(gram_mod, "_blocked_rank", record)
    return moduli


@pytest.mark.parametrize("primes", PRIME_SETS, ids=str)
def test_modular_ranks_match_the_reference_on_gram_matrices(primes):
    for n in range(1, 9):
        for lam in partitions_of(n):
            g = gram_matrix(lam)
            assert modular_ranks(g, primes) == _reference_ranks(g, primes), lam


@pytest.mark.parametrize("primes", PRIME_SETS + [MIXED_PRIMES], ids=str)
@pytest.mark.parametrize("b", [4, 128])
def test_modular_ranks_on_planted_per_prime_ranks(monkeypatch, primes, b):
    monkeypatch.setattr(gram_mod, "_PANEL", b)
    rng = np.random.default_rng(sum(primes) + b)
    for m, n in [(9, 9), (8, 13), (13, 8), (21, 21)]:
        for _ in range(4):
            ranks = {p: int(rng.integers(0, min(m, n) + 1)) for p in primes}
            assert modular_ranks(_planted(rng, m, n, ranks), primes) == ranks


@pytest.mark.parametrize(
    "ranks, expected_moduli",
    [
        ({5: 20, 7: 13, 11: 20}, [385, 55]),
        ({5: 20, 7: 0, 11: 20}, [385, 55, 5, 11]),
        ({5: 0, 7: 20, 11: 0}, [385, 7]),
    ],
    ids=["deficient-mod-7", "zero-mod-7", "zero-mod-5-and-11"],
)
def test_modular_ranks_with_one_prime_apart(monkeypatch, ranks, expected_moduli):
    """The leftover is zero mod the prime apart, so the other primes rank it
    together: mod 55, or mod 7 alone; when neither 5 nor 11 then drops out,
    each ranks the new leftover on its own."""
    monkeypatch.setattr(gram_mod, "_PANEL", 8)
    moduli = _record_moduli(monkeypatch)
    a = _planted(np.random.default_rng(20), 20, 20, ranks)
    assert modular_ranks(a, tuple(ranks)) == ranks
    assert moduli == expected_moduli


@pytest.mark.parametrize("q", [5, 7, 11])
def test_leftover_is_ranked_once_by_the_other_primes(monkeypatch, q):
    """Rank 12 mod q and full rank 24 mod the other two: the joint pass
    leaves a block that is zero mod q, which the other two rank together."""
    primes = (5, 7, 11)
    moduli = _record_moduli(monkeypatch)
    ranks = {p: 12 if p == q else 24 for p in primes}
    a = _planted(np.random.default_rng(q), 30, 24, ranks)
    assert modular_ranks(a, primes) == _reference_ranks(a, primes) == ranks
    assert moduli == [385, 385 // q]


@pytest.mark.parametrize("b", [8, 128])
def test_columns_without_units_are_ranked_at_each_prime(monkeypatch, b):
    """Every nonzero entry of the first columns is a multiple of 5, 7 or 11,
    so none is a unit mod 385: the joint pass defers those columns."""
    monkeypatch.setattr(gram_mod, "_PANEL", b)
    moduli = _record_moduli(monkeypatch)
    rng = np.random.default_rng(b)
    primes = (5, 7, 11)
    for m, n in [(12, 12), (20, 9), (9, 20), (30, 30)]:
        for k in (n // 2, n):
            a = rng.integers(-50, 50, (m, n))
            a[:, :k] = rng.choice([0, 5, 7, 11], (m, k)) * rng.integers(1, 50, (m, k))
            moduli.clear()
            assert modular_ranks(a, primes) == _reference_ranks(a, primes)
            # With no unit anywhere, each prime ranks the whole matrix.
            assert moduli[0] == 385 and (k < n or moduli == [385, 5, 7, 11])


def test_modular_ranks_of_empty_and_thin_matrices():
    primes = (5, 7, 11)
    zero = dict.fromkeys(primes, 0)
    assert modular_ranks([], primes) == zero
    assert modular_ranks(np.zeros((0, 3), dtype=int), primes) == zero
    assert modular_ranks(np.zeros((3, 0), dtype=int), primes) == zero
    assert modular_ranks([[1]], primes) == dict.fromkeys(primes, 1)
    assert modular_ranks([[385, 770]], primes) == zero
    assert modular_ranks([[0, 35, 0]], primes) == {5: 0, 7: 0, 11: 1}
    assert modular_ranks([[0], [55], [0], [77]], primes) == {5: 1, 7: 1, 11: 0}
    assert modular_ranks([[5, 7, 11]], primes) == dict.fromkeys(primes, 1)
    assert modular_ranks([[5], [7], [11]], primes) == dict.fromkeys(primes, 1)


def test_modular_ranks_mix_float_and_int64_primes(monkeypatch):
    moduli = _record_moduli(monkeypatch)
    ranks = {5: 6, 7: 9, 8388617: 12, 2**31 - 1: 10}
    a = _planted(np.random.default_rng(1), 12, 14, ranks)
    assert modular_ranks(a, MIXED_PRIMES) == ranks
    assert moduli[0] == 35 and [n for n in moduli if n > 35] == [8388617, 2**31 - 1]


def _last_float_modulus():
    """The largest N with _PANEL (N-1)**2 + N - 1 < 2**53."""
    n = math.isqrt(2**53 // gram_mod._PANEL) + 1
    while gram_mod._PANEL * (n - 1) ** 2 + n - 1 >= 2**53:
        n -= 1
    return n


@pytest.mark.parametrize(
    "primes, moduli",
    [
        ((5, 7, 11), [385]),
        ((11, 7, 5, 7), [385]),
        ((2, 3, 5, 7, 11, 13), [30030]),
        ((3, 8388593), [3, 8388593]),
        ((2, 3, 8388617, 2**31 - 1), [6, 8388617, 2**31 - 1]),
        ((2, 4194301, 4194329), [8388602, 4194329]),
    ],
)
def test_primes_are_grouped_while_the_float_bound_holds(monkeypatch, primes, moduli):
    """2 * 4194301 fits under the bound and 2 * 4194329 does not."""
    assert 2 * 4194301 <= _last_float_modulus() < 2 * 4194329
    calls = _record_moduli(monkeypatch)
    ranks = modular_ranks(np.eye(3, dtype=np.int64), primes)
    assert list(ranks) == list(dict.fromkeys(primes))
    assert set(ranks.values()) == {3}
    assert calls == moduli


def test_joint_ranks_of_10_2():
    """d = 54, of full rank mod 7 only.  Deferring a column without swapping
    its U entries along with it gives 48 mod 5."""
    assert gram_ranks_mod_p((10, 2), (5, 7, 11)) == {5: 43, 7: 54, 11: 53}


RANKS_OF_10_2 = {5: 43, 7: 54, 11: 53, 8388617: 54}


# The moduli of (10,2)'s eliminations: the leftover of the joint pass is
# zero mod 5, so 7 and 11 (or 7 alone) rank it together, and 8388617 is a
# second group, past the float bound.
MODULI_OF_10_2 = {(5, 7, 11): [385, 77, 7], (5, 7, 8388617): [35, 7, 8388617]}


@pytest.mark.parametrize("kind", ["int32", "int64", "list", "read-only"])
@pytest.mark.parametrize("primes", [(5, 7, 11), (5, 7, 8388617)], ids=str)
def test_rank_calls_leave_the_matrix_unchanged(monkeypatch, kind, primes):
    """(10,2) has columns without a unit mod 385 (or 35), deferred and
    ranked after the joint pass."""
    g = gram_matrix((10, 2))
    if kind == "list":
        rows = [row[:] for row in g]
    else:
        rows = np.array(g, dtype=np.int64 if kind == "int64" else np.int32)
        rows.flags.writeable = kind != "read-only"
    moduli = _record_moduli(monkeypatch)
    assert modular_ranks(rows, primes) == {p: RANKS_OF_10_2[p] for p in primes}
    assert moduli == MODULI_OF_10_2[primes]
    for p in primes:
        assert modular_rank(rows, p) == RANKS_OF_10_2[p]
    assert (rows if kind == "list" else rows.tolist()) == g


@pytest.mark.parametrize("primes", [(5, 7, 11), (5, 7, 8388617)], ids=str)
def test_gram_ranks_share_no_matrix_between_calls(primes):
    """gram_ranks_mod_p reduces its matrix in place; the next caller still
    gets the exact Gram matrix."""
    lam = (10, 2)
    expected = _pairing_matrix([oracles.polytabloid(t) for t in standard_tableaux(lam)])
    for _ in range(2):
        assert gram_ranks_mod_p(lam, primes) == {p: RANKS_OF_10_2[p] for p in primes}
        assert gram_matrix(lam) == expected


def test_rank_call_holds_one_int32_matrix():
    """Traced peak of a joint rank call: the d x d int32 matrix (4d^2 bytes)
    plus at most 41 d _PANEL bytes.  The elimination's first panel holds
    L (d x _PANEL) and U (_PANEL x d) in float64, 16 d _PANEL bytes, and
    one Schur block of _PANEL rows at a time: the float64 difference, its
    int64 cast and the int64 residues, 24 d _PANEL bytes (the int32 rows
    and float64 product it starts from, 12 d _PANEL, are freed before the
    cast).  1 d _PANEL covers the O(d) column vectors.  Gram assembly of
    (11,2,1) peaks lower, at about 4d^2 + 18 d _PANEL.  The tableaux and
    the column group are cached across calls, so they are built first.
    A float64 copy of the matrix (8d^2, 2.5 MB here) beside those
    temporaries would exceed the bound."""
    import tracemalloc

    lam, primes = (11, 2, 1), (5, 7, 11)
    d = len(standard_tableaux(lam))
    gram_mod._column_group(lam)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert gram_ranks_mod_p(lam, primes) == {5: 560, 7: 560, 11: 482}
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert d == 560 and peak <= 4 * d * d + 41 * d * gram_mod._PANEL


def test_gram_ranks_check_the_cap_then_each_prime_before_assembly(monkeypatch):
    with pytest.raises(TooLarge):
        gram_ranks_mod_p((9, 8), (5, 4))
    monkeypatch.setattr(gram_mod, "_gram_matrix_cached", None)  # never reached
    with pytest.raises(NotPrime, match="^4 is not prime$"):
        gram_ranks_mod_p((2, 1), (5, 4, 6))
    with pytest.raises(ValueError, match="too large"):
        gram_ranks_mod_p((2, 1), (5, 2147483659))


# ---------------------------------------------------------------------------
# Gram ranks: frozen values and structural properties


def test_gram_rank_examples():
    assert gram_rank_mod_p((2, 1), 3) == 1
    assert gram_rank_mod_p((2, 1), 5) == 2
    assert gram_rank_mod_p((5, 2), 5) == 8


@pytest.mark.parametrize(
    "lam,ranks",
    [
        ((11, 2, 1), (560, 560, 482)),
        ((10, 2, 1), (363, 429, 429)),
        ((9, 2, 1), (320, 320, 267)),
        ((11, 1, 1, 1), (286, 220, 286)),
        ((11, 3), (196, 273, 260)),
    ],
)
def test_gram_ranks_at_grid_sizes(lam, ranks):
    """Matrices of 273 to 560 rows, past the panel width, at p = 5, 7, 11,
    one prime at a time and all three in one elimination."""
    assert tuple(gram_rank_mod_p(lam, p) for p in (5, 7, 11)) == ranks
    assert gram_ranks_mod_p(lam, (5, 7, 11)) == dict(zip((5, 7, 11), ranks))


def test_gram_rank_requires_prime():
    """The dump shares the check; it needs no kernel, so not the 2**31 bound."""
    for call in (gram_rank_mod_p, format_gram_dump):
        with pytest.raises(NotPrime, match="^4 is not prime$"):
            call((2, 1), 4)
    with pytest.raises(ValueError, match="too large"):
        gram_rank_mod_p((2, 1), 2147483659)
    assert format_gram_dump((2, 1), 2147483659).splitlines()[0] == "2 2147483659"


@pytest.mark.parametrize("n", range(1, 8))
def test_rational_rank_is_full(n):
    for lam in partitions_of(n):
        assert gram_rank_rational(lam) == specht_dimension(lam)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_rank_is_full_for_primes_beyond_n(p):
    for n in range(1, min(p, 7)):
        for lam in partitions_of(n):
            assert gram_rank_mod_p(lam, p) == specht_dimension(lam)


@pytest.mark.parametrize("n", range(2, 8))
def test_rank_never_exceeds_dimension(n):
    for lam in partitions_of(n):
        for p in (2, 3, 5):
            assert gram_rank_mod_p(lam, p) <= specht_dimension(lam)


def test_rational_rank_raises_on_a_failed_certificate(monkeypatch):
    # A failed certificate (rank mod p below d) must not be trusted.
    monkeypatch.setattr(gram_mod, "modular_rank", lambda rows, p: 0)
    with pytest.raises(RuntimeError, match=r"rank of \[3,2\] over Q is 0, not 5"):
        gram_rank_rational((3, 2))


def test_rational_rank_calls_the_rank_kernels_through_module_attributes(monkeypatch):
    """So a wrapper set on either attribute, as perfbench/tracing.py sets,
    sees the call."""
    calls = []
    for attr in ("integer_rank", "modular_rank"):
        original = getattr(gram_mod, attr)

        def recorder(*args, attr=attr, original=original):
            calls.append(attr)
            return original(*args)

        monkeypatch.setattr(gram_mod, attr, recorder)
    assert gram_rank_rational((3, 2)) == 5
    assert calls == ["integer_rank", "modular_rank"]


def test_gram_rank_size_cap():
    with pytest.raises(TooLarge):
        gram_rank_mod_p((9, 8), 5)  # 17 boxes > default cap 16
    with pytest.raises(TooLarge, match="column stabilizer"):
        # 20 rows of one box: the column group alone is 20! >> the limit,
        # though assembly would pair only 20!/20! = 1 element of it
        gram_rank_mod_p(tuple([1] * 20), 3, size_cap=25)


# ---------------------------------------------------------------------------
# the (n-1,1) cross-check


@pytest.mark.parametrize(
    "n,p,pair",
    [(10, 5, (8, 8)), (7, 5, (6, 6)), (4, 5, (3, 3)), (6, 2, (4, 4)), (6, 3, (4, 4))],
)
def test_hook_family_check_examples(n, p, pair):
    assert irreducible_dim_hook_family_check(n, p) == pair


def test_hook_family_check_agrees_everywhere_small():
    for n in range(3, 11):
        for p in (2, 3, 5, 7, 11, 13):
            expected, actual = irreducible_dim_hook_family_check(n, p)
            assert expected == actual, (n, p)
            assert expected == n - 1 - (1 if n % p == 0 else 0)


def test_hook_family_check_rejects_tiny_n():
    with pytest.raises(ValueError):
        irreducible_dim_hook_family_check(2, 5)


def test_gram_rank_matches_peels_hook_rule():
    """Every p-regular hook (n - r, 1^r) with n <= 12, r <= 5 at odd p."""
    records = 0
    for p in (3, 5, 7, 11):
        for n in range(2, 13):
            for r in range(min(5, n - 1) + 1):
                if r + (n - r == 1) >= p:
                    continue  # p-singular
                lam = (n - r,) + (1,) * r
                assert gram_rank_mod_p(lam, p) == oracles.peel_hook_dimension(n, r, p), (lam, p)
                records += 1
    assert records == 191


def test_gram_rank_matches_james_two_part_theorem():
    """Every p-regular two-part shape (n - m, m) with n <= 14, each shape
    ranked at all its primes in one call."""
    records = 0
    for n in range(2, 15):
        for m in range(1, n // 2 + 1):
            primes = [p for p in (2, 3, 5, 7, 11, 13) if 2 * m < n or p > 2]
            ranks = gram_ranks_mod_p((n - m, m), primes)
            for p in primes:
                assert ranks[p] == oracles.james_two_part_dimension(n, m, p), (n, m, p)
                records += 1
    assert records == 287


# ---------------------------------------------------------------------------
# dump format


def test_gram_dump_format():
    text = format_gram_dump((2, 1), 3)
    assert text.splitlines() == ["2 3", "2 1", "1 2"]
    text5 = format_gram_dump((2, 1), 5)
    assert text5.splitlines()[0] == "2 5"


@pytest.mark.parametrize("p", [5, 2**61 - 1])
def test_gram_dump_is_the_matrix_mod_p(p):
    """d = 162, with negative entries: the residues of gram_matrix, byte for byte."""
    lam = (5, 3, 1)
    g = gram_matrix(lam)
    assert len(g) == 162 and min(map(min, g)) < 0
    lines = [f"{len(g)} {p}"] + [" ".join(str(v % p) for v in row) for row in g]
    assert format_gram_dump(lam, p) == "\n".join(lines) + "\n"
