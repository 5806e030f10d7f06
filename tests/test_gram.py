"""Explicit Specht modules: tableaux, polytabloids, Gram matrices, ranks."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import specht.gram as gram_mod
from oracles import is_standard, tabloid_of
from specht import (
    NotPrime,
    TooLarge,
    format_gram_dump,
    format_partition,
    gram_matrix,
    gram_rank_mod_p,
    gram_rank_rational,
    integer_rank,
    irreducible_dim_hook_family_check,
    modular_rank,
    partitions_of,
    polytabloid,
    specht_dimension,
    standard_tableaux,
)


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


def test_tableaux_come_out_in_row_reading_order():
    tabs = standard_tableaux((3, 2))
    words = [tuple(x for row in t for x in row) for t in tabs]
    assert words == sorted(words)


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
    [lam for n in range(8) for lam in partitions_of(n)] + [(5, 3), (4, 2, 2), (3, 3, 1, 1)],
    ids=format_partition,
)
def test_gram_matrix_is_the_polytabloid_pairing(lam):
    polys = [oracles.polytabloid(t) for t in standard_tableaux(lam)]
    expected = [
        [sum(v * f.get(tabloid, 0) for tabloid, v in e.items()) for f in polys]
        for e in polys
    ]
    g = gram_matrix(lam)
    assert g == expected
    assert all(type(x) is int for row in g for x in row)
    assert [polytabloid(t) for t in standard_tableaux(lam)] == polys


@pytest.mark.parametrize(
    "lam", [(2, 1), (3, 2, 1), (2, 2, 1, 1), (4, 1, 1, 1), (3, 3, 1, 1)]
)
@pytest.mark.parametrize("fraction", [2, 7, 50, 10**9])
def test_gram_matrix_assembled_in_batches(monkeypatch, lam, fraction):
    """Bounding the entries paired at a time splits the tabloids into classes
    by the rows of their first entries; the matrix must not change.  With
    the bound below one tabloid's entries, every tabloid is its own class."""
    expected = gram_matrix(lam)
    tableaux = standard_tableaux(lam)
    entries = len(tableaux) * len(polytabloid(tableaux[0]))
    monkeypatch.setattr(gram_mod, "_MAX_ENTRIES", max(entries // fraction, 1))
    gram_mod._gram_matrix_cached.cache_clear()
    try:
        assert gram_matrix(lam) == expected
    finally:
        gram_mod._gram_matrix_cached.cache_clear()


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


KERNEL_PRIMES = [2, 3, 5, 7, 11, 13, 65521, 2**31 - 1]


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


def test_integer_rank_basics():
    assert integer_rank([[2, 1], [1, 2]]) == 2
    assert integer_rank([[1, 2], [2, 4]]) == 1
    assert integer_rank([[0]]) == 0
    assert integer_rank([]) == 0


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
# Gram ranks: frozen values and structural properties


def test_gram_rank_examples():
    assert gram_rank_mod_p((2, 1), 3) == 1
    assert gram_rank_mod_p((2, 1), 5) == 2
    assert gram_rank_mod_p((5, 2), 5) == 8


def test_gram_rank_requires_prime():
    with pytest.raises(NotPrime):
        gram_rank_mod_p((2, 1), 4)


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


def test_rational_rank_falls_back_to_exact_elimination(monkeypatch):
    # A failed certificate (rank mod p below d) must not be trusted.
    monkeypatch.setattr(gram_mod, "modular_rank", lambda rows, p: 0)
    assert gram_rank_rational((3, 2)) == 5


def test_gram_rank_size_cap():
    with pytest.raises(TooLarge):
        gram_rank_mod_p((9, 8), 5)  # 17 boxes > default cap 16
    with pytest.raises(TooLarge):
        # 20 single-box columns: the column group alone is 20! >> the limit
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


# ---------------------------------------------------------------------------
# dump format


def test_gram_dump_format():
    text = format_gram_dump((2, 1), 3)
    assert text.splitlines() == ["2 3", "2 1", "1 2"]
    text5 = format_gram_dump((2, 1), 5)
    assert text5.splitlines()[0] == "2 5"
