"""Rim-hook chains, Grothendieck-group expansions, and dimension formulas."""

import time

import pytest

import oracles
from specht import (
    IRREDUCIBLE,
    SPECHT,
    CongruencePolynomial,
    Dominance,
    FamilyIncomplete,
    GrothendieckVector,
    NotTotallyOrdered,
    SizeError,
    conjugate,
    decompose_irreducible,
    decompose_standard,
    dominance_compare,
    format_partition,
    irreducible_dimension_formula,
    irreducible_dimension_table,
    pad_partition,
    padding_threshold,
    partitions_of,
    rim_hook_chain,
    specht_dimension,
    specht_dimension_polynomial,
    tail_bounded_partitions,
)
from specht.decomposition import _chain_tails, _stable_n


def S(*parts):
    return GrothendieckVector({(SPECHT, tuple(parts)): 1})


def D(*parts):
    return GrothendieckVector({(IRREDUCIBLE, tuple(parts)): 1})


# ---------------------------------------------------------------------------
# chains


def test_chain_examples():
    assert rim_hook_chain((5, 2), 2).elements == ((6, 1), (5, 2))
    assert rim_hook_chain((5, 2), 1).elements == ((7,), (5, 2))
    assert rim_hook_chain((5, 2), 0).elements == ((5, 2),)
    assert rim_hook_chain((6, 1), 2).elements == ((6, 1),)


def test_chain_base_and_iteration():
    chain = rim_hook_chain((5, 2), 2)
    assert chain.base == (5, 2)
    assert chain.m == 2
    assert len(chain) == 2
    assert list(chain) == [(6, 1), (5, 2)]


@pytest.mark.parametrize("m", [-1, 7, 10])
def test_chain_rejects_bad_residues(m):
    with pytest.raises(SizeError):
        rim_hook_chain((5, 2), m)


def _grid(ns=range(7, 11), k=3, ms=range(0, 5)):
    for n in ns:
        for lam in tail_bounded_partitions(n, k):
            for m in ms:
                if m < n:
                    yield lam, m


def test_chains_are_strictly_decreasing_in_dominance():
    for lam, m in _grid():
        elems = rim_hook_chain(lam, m).elements
        assert elems[-1] == lam
        for a, b in zip(elems, elems[1:]):
            assert dominance_compare(a, b) == Dominance.GREATER


def test_chain_members_stay_tail_bounded():
    """Everything above lam in dominance has a first part at least lam[0]."""
    for lam, m in _grid():
        for nu in rim_hook_chain(lam, m).elements:
            assert nu[0] >= lam[0]


def test_incomparable_candidates_abort():
    """Small shapes can admit two rim-hook removals whose re-additions are
    incomparable; the machinery must refuse rather than pick an order.

    Here (3,2,1) loses a 3-hook either at (1,2) (leaving (1,1,1), re-add
    (4,1,1)) or at (2,1) (leaving (3), re-add (3,3)); (4,1,1) and (3,3) are
    incomparable."""
    with pytest.raises(NotTotallyOrdered):
        rim_hook_chain((3, 2, 1), 3)


def test_chain_of_a_long_column_is_immediate():
    """(1^300) at m = 10 collects 290 shapes: the chain is checked on its
    289 neighbours, not on all 41 905 pairs."""
    start = time.perf_counter()
    assert len(rim_hook_chain((1,) * 300, 10)) == 290
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("n", range(1, 10))
def test_chain_matches_brute_strip_reference(n):
    """The chain is lam plus every nu above lam that re-adds an (n - m)-strip
    to a remainder of lam, with both strips found by cell-set inspection."""
    for lam in partitions_of(n):
        for m in range(n):
            try:
                got = set(rim_hook_chain(lam, m).elements)
            except NotTotallyOrdered:
                continue
            h = n - m
            want = {lam} | {
                nu
                for mu in oracles.strip_removals(lam, h)
                for nu in oracles.strip_additions(mu, h)
                if nu != lam and oracles.dominates(nu, lam)
            }
            assert got == want, (lam, m)


def test_chain_prefix_property_in_the_stable_range():
    """The chain of the i-th element is exactly the first i+1 elements.

    This is checked, not assumed — decompose_standard never relies on it.
    It genuinely fails for small n (see the companion test below), and holds
    on this grid from n = 8 up.
    """
    violations = []
    for lam, m in _grid(ns=range(8, 11)):
        elems = rim_hook_chain(lam, m).elements
        for i, nu in enumerate(elems):
            if rim_hook_chain(nu, m).elements != elems[: i + 1]:
                violations.append((lam, m, nu))
    assert violations == []


def test_chain_prefix_property_fails_below_the_stable_range():
    """At n = 7, m = 4: the chain of (4,3) reaches (7) through the removal
    that leaves (4), but (5,2) only admits the removal leaving (2,2), so its
    chain is a bare singleton — not a prefix."""
    assert rim_hook_chain((4, 3), 4).elements == ((7,), (5, 2), (4, 3))
    assert rim_hook_chain((5, 2), 4).elements == ((5, 2),)


# ---------------------------------------------------------------------------
# GrothendieckVector


def test_vector_display():
    assert str(S(5, 2) - S(6, 1)) == "S[5,2] - S[6,1]"
    assert str(D(5, 2) + D(6, 1)) == "D[5,2] + D[6,1]"
    assert str(S(3) * 2) == "2*S[3]"
    assert str(S(2, 1) - S(2, 1)) == "0"


def test_vector_algebra():
    v = S(5, 2) - S(6, 1)
    assert v + S(6, 1) == S(5, 2)
    assert -v == S(6, 1) - S(5, 2)
    assert v - v == GrothendieckVector()
    assert not (v - v)
    assert (v * 0) == GrothendieckVector()
    assert v.coefficient(SPECHT, (6, 1)) == -1
    assert v.coefficient(SPECHT, (9,)) == 0


def test_vector_rejects_bad_labels_and_mixed_sizes():
    with pytest.raises(ValueError):
        GrothendieckVector({("X", (2, 1)): 1})
    with pytest.raises(ValueError):
        GrothendieckVector({(SPECHT, (2, 1)): 1, (SPECHT, (2,)): 1})


def test_vector_json_round_trip():
    v = S(5, 2) - S(6, 1) + D(7) * 3
    obj = v.to_json_obj()
    assert {"label": "S", "partition": [5, 2], "coeff": 1} in obj
    assert GrothendieckVector.from_json_obj(obj) == v


def test_vector_items_are_sorted_lex_ascending():
    v = S(7) - S(6, 1) + S(5, 2)
    assert [part for (_, part), _ in v.items()] == [(5, 2), (6, 1), (7,)]


# ---------------------------------------------------------------------------
# decompositions


def test_decompose_irreducible_examples():
    assert decompose_irreducible((5, 2), 2) == S(5, 2) - S(6, 1)
    assert decompose_irreducible((5, 2), 1) == S(5, 2) - S(7)
    assert decompose_irreducible((5, 2), 0) == S(5, 2)
    assert decompose_irreducible((6, 1), 2) == S(6, 1)


def test_decompose_irreducible_signs_alternate():
    for lam, m in _grid():
        v = decompose_irreducible(lam, m)
        elems = rim_hook_chain(lam, m).elements
        d = len(elems) - 1
        assert v.coefficient(SPECHT, lam) == 1
        for i, nu in enumerate(elems):
            assert v.coefficient(SPECHT, nu) == (-1) ** (d - i)


def test_singleton_chain_iff_single_term():
    for lam, m in _grid():
        singleton = len(rim_hook_chain(lam, m)) == 1
        assert singleton == (decompose_irreducible(lam, m) == S(*lam))


def test_decompose_standard_examples():
    family = tail_bounded_partitions(7, 2)
    assert decompose_standard((5, 2), 2, family) == D(5, 2) + D(6, 1)
    assert decompose_standard((6, 1), 2, family) == D(6, 1)
    assert decompose_standard((5, 2), 0, family) == D(5, 2)


def test_decompose_standard_family_errors():
    with pytest.raises(FamilyIncomplete):
        decompose_standard((5, 2), 2, [(5, 2)])  # chain needs (6,1)
    with pytest.raises(FamilyIncomplete):
        decompose_standard((5, 2), 2, [(6, 1), (7,)])  # lam itself missing
    with pytest.raises(ValueError):
        decompose_standard((5, 2), 2, [(5, 2), (6, 1), (3,)])  # size mixup


def test_round_trip_recovers_specht_class():
    """S -> D -> S is the identity (unitriangular inversion), n in 7..10."""
    for n in range(7, 11):
        family = tail_bounded_partitions(n, 3)
        for m in range(0, 5):
            if m >= n:
                continue
            for lam in family:
                in_d = decompose_standard(lam, m, family)
                back = GrothendieckVector()
                for (label, nu), coeff in in_d.items():
                    assert label == IRREDUCIBLE
                    back = back + decompose_irreducible(nu, m) * coeff
                assert back == S(*lam), (lam, m)


def test_round_trip_dimensions_are_consistent():
    # dim S[5,2] = 14 splits as 8 + 6 across the two chain members at m = 2
    poly = irreducible_dimension_formula((2,), 2)
    assert poly(7) == 8
    assert specht_dimension((6, 1)) == 6
    assert specht_dimension((5, 2)) == 14


# ---------------------------------------------------------------------------
# symbolic dimension formulas


@pytest.mark.parametrize(
    "m,text",
    [
        (2, "1/2*n^2 - 5/2*n + 1"),
        (1, "1/2*n^2 - 3/2*n - 1"),
        (0, "1/2*n^2 - 3/2*n"),
        (3, "1/2*n^2 - 3/2*n"),
    ],
)
def test_dimension_formula_for_two_box_tail(m, text):
    assert str(irreducible_dimension_formula((2,), m)) == text


def test_dimension_formula_trivial_cases():
    assert str(irreducible_dimension_formula((), 0)) == "1"
    assert str(irreducible_dimension_formula((), 3)) == "1"
    assert str(irreducible_dimension_formula((1,), 0)) == "n - 2"
    assert str(irreducible_dimension_formula((1,), 1)) == "n - 1"


def test_dimension_formula_positivity():
    for size in range(0, 4):
        for mu in partitions_of(size):
            for m in range(0, 5):
                poly = irreducible_dimension_formula(mu, m)
                n0 = max(4 * size, padding_threshold(mu)) + m + 2
                for n in range(n0, n0 + 7):
                    value = poly(n)
                    assert value.denominator == 1 and value > 0, (mu, m, n)


def test_dimension_formula_matches_peels_hook_rule():
    """(1^k) tails inside the window p > k, n > 4k, at odd p < 30."""
    for k in range(5):
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29):
            if p <= k:
                continue
            for m in range(p):
                poly = irreducible_dimension_formula((1,) * k, m)
                for n in range(4 * k + 1, 201):
                    if n % p == m:
                        assert poly(n) == oracles.peel_hook_dimension(n, k, p), (k, p, n)


def test_dimension_table_for_two_box_tail():
    table = irreducible_dimension_table((2,))
    assert sorted(table.cases) == [1, 2]
    assert str(table.cases[2]) == "1/2*n^2 - 5/2*n + 1"
    assert str(table.cases[1]) == "1/2*n^2 - 3/2*n - 1"
    assert str(table.default) == "1/2*n^2 - 3/2*n"
    assert table.default == specht_dimension_polynomial((2,))


def test_dimension_table_trivial_tail():
    table = irreducible_dimension_table(())
    assert table.cases == {}
    assert str(table.default) == "1"


def test_dimension_table_one_box_tail():
    table = irreducible_dimension_table((1,))
    assert sorted(table.cases) == [0]
    assert str(table.cases[0]) == "n - 2"
    assert str(table.default) == "n - 1"


def test_dimension_table_hook_tail():
    table = irreducible_dimension_table((1, 1))
    assert sorted(table.cases) == [0]
    assert str(table.cases[0]) == "1/2*n^2 - 5/2*n + 3"
    assert str(table.default) == "1/2*n^2 - 3/2*n + 1"


def test_dimension_table_three_box_tail():
    table = irreducible_dimension_table((2, 1))
    assert sorted(table.cases) == [1, 3]
    assert str(table.cases[1]) == "1/3*n^3 - 5/2*n^2 + 25/6*n + 1"
    assert str(table.cases[3]) == "1/3*n^3 - 5/2*n^2 + 25/6*n - 1"
    assert str(table.default) == "1/3*n^3 - 2*n^2 + 8/3*n"


def test_polynomial_for_falls_back_to_default():
    table = irreducible_dimension_table((2,))
    assert table.polynomial_for(2) == table.cases[2]
    assert table.polynomial_for(0) == table.default
    assert table.polynomial_for(17) == table.default


def test_residues_beyond_the_scan_window_are_generic():
    # degenerate residues lie in R(mu), here {1, 2}; spot-check far beyond it
    table = irreducible_dimension_table((2,))
    for m in (9, 23):
        assert str(irreducible_dimension_formula((2,), m)) == str(table.default)


def first_row_hook_residues(mu):
    """R(mu) = { |mu| + j - 1 - mu'_j : 1 <= j <= mu_1 }."""
    k = sum(mu)
    return {k + j - 1 - col for j, col in enumerate(conjugate(mu), 1)}


TAILS_UP_TO_8 = [mu for k in range(9) for mu in partitions_of(k)]


@pytest.mark.parametrize("mu", TAILS_UP_TO_8, ids=format_partition)
def test_table_cases_are_the_first_row_hook_residues(mu):
    table = irreducible_dimension_table(mu)
    residues = first_row_hook_residues(mu)
    assert set(table.cases) == residues
    for m in range(2 * sum(mu) + 4):
        if m not in residues:
            assert irreducible_dimension_formula(mu, m) == table.default, m


@pytest.mark.parametrize(
    "mu", [mu for mu in TAILS_UP_TO_8 if sum(mu) <= 7], ids=format_partition
)
def test_chain_tails_do_not_move_past_the_stable_bound(mu):
    """Also at the source paper's limit taken literally, n = p + m with p up
    to about 10**6, where the formula must equal the alternating Specht sum."""
    for m in range(2 * sum(mu) + 4):
        n = _stable_n(mu, m)
        tails = _chain_tails(mu, m, n)
        assert _chain_tails(mu, m, n + 1) == tails, m
        assert _chain_tails(mu, m, n + 7) == tails, m
        for p in (1009, 65537, 999983):
            assert _chain_tails(mu, m, p + m) == tails, (m, p)
            if sum(mu) <= 4:
                terms = decompose_irreducible(pad_partition(mu, p + m), m).items()
                brute = sum(c * specht_dimension(part) for (_, part), c in terms)
                assert irreducible_dimension_formula(mu, m)(p + m) == brute, (m, p)


def test_render_table():
    text = irreducible_dimension_table((2,)).render()
    assert text.splitlines() == [
        "m == 1: 1/2*n^2 - 3/2*n - 1",
        "m == 2: 1/2*n^2 - 5/2*n + 1",
        "otherwise: 1/2*n^2 - 3/2*n",
    ]


def test_congruence_polynomial_is_plain_data():
    table = CongruencePolynomial(
        cases={0: specht_dimension_polynomial((1,))},
        default=specht_dimension_polynomial(()),
    )
    assert table.polynomial_for(0)(5) == 4
    assert table.polynomial_for(1)(5) == 1


# ---------------------------------------------------------------------------
# formula vs. brute dimensions at concrete n


@pytest.mark.parametrize("mu,m,n", [((2,), 2, 7), ((2,), 2, 12), ((1,), 0, 10)])
def test_formula_values_match_alternating_hook_sums(mu, m, n):
    """Evaluate the symbolic formula and re-derive it from the chain at n."""
    lam = pad_partition(mu, n)
    elems = rim_hook_chain(lam, m).elements
    d = len(elems) - 1
    brute = sum((-1) ** (d - i) * specht_dimension(nu) for i, nu in enumerate(elems))
    assert irreducible_dimension_formula(mu, m)(n) == brute
