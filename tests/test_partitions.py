"""Partition combinatorics: parsing, dominance, hooks, rim hooks, strips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import nonempty_partitions, partitions
from oracles import BorderStrip, contains_2x2, diagram_cells, is_edge_connected
from specht import (
    Dominance,
    NotPrime,
    addable_rim_hooks,
    conjugate,
    dominance_compare,
    format_partition,
    hook_lengths,
    is_p_regular,
    parse_partition,
    partition,
    partitions_of,
    removable_rim_hooks,
    tail_bounded_partitions,
)


# ---------------------------------------------------------------------------
# construction, parsing, formatting


def test_partition_normalizes_trailing_zeros():
    assert partition([5, 2, 0, 0]) == (5, 2)
    assert partition([]) == ()


@pytest.mark.parametrize("bad", [[2, 3], [1, -1], [0, 1]])
def test_partition_rejects_non_weakly_decreasing(bad):
    with pytest.raises(ValueError):
        partition(bad)


@pytest.mark.parametrize(
    "text,parts",
    [("[5,2]", (5, 2)), ("[]", ()), ("[ 3, 1, 1 ]", (3, 1, 1)), ("7,7", (7, 7))],
)
def test_parse_partition(text, parts):
    assert parse_partition(text) == parts


@pytest.mark.parametrize("bad", ["", "[5,", "[a]", "[2,3]", "[1,0,1]"])
def test_parse_partition_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


@given(partitions())
def test_format_parse_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


def test_format_partition():
    assert format_partition((5, 2)) == "[5,2]"
    assert format_partition(()) == "[]"


# ---------------------------------------------------------------------------
# conjugate, cells, enumeration


def test_conjugate_examples():
    assert conjugate((5, 2)) == (2, 2, 1, 1, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_diagram_cells():
    # cells are 1-based (row, column) pairs, row-major
    assert diagram_cells((2, 1)) == [(1, 1), (1, 2), (2, 1)]


# p(0)..p(10); any combinatorics text lists these
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


@pytest.mark.parametrize("n", range(11))
def test_partitions_of_counts(n):
    got = list(partitions_of(n))
    assert len(got) == PARTITION_COUNTS[n]
    assert len(set(got)) == len(got)
    assert got == sorted(got, reverse=True), "descending lex order"
    assert all(sum(lam) == n for lam in got)


def test_partitions_of_matches_brute_enumeration():
    for n in range(9):
        assert set(partitions_of(n)) == set(oracles.gen_partitions(n))


def test_tail_bounded_partitions():
    assert tail_bounded_partitions(7, 2) == [(7,), (6, 1), (5, 2), (5, 1, 1)]
    # tails are exactly the partitions of j <= k, provided the first part
    # stays weakly largest
    for lam in tail_bounded_partitions(10, 3):
        assert sum(lam) == 10 and 10 - lam[0] <= 3


# ---------------------------------------------------------------------------
# dominance


def test_dominance_examples():
    assert dominance_compare((3, 1), (2, 2)) == Dominance.GREATER
    assert dominance_compare((2, 2), (3, 1)) == Dominance.LESS
    assert dominance_compare((4, 1, 1), (3, 3)) == Dominance.INCOMPARABLE
    assert dominance_compare((2, 1), (2, 1)) == Dominance.EQUAL


def test_dominance_requires_equal_sizes():
    with pytest.raises(ValueError):
        dominance_compare((3,), (2,))


@pytest.mark.parametrize("n", range(1, 9))
def test_dominance_agrees_with_partial_sum_oracle(n):
    parts = list(partitions_of(n))
    for a in parts:
        for b in parts:
            ge = oracles.dominates(a, b)
            le = oracles.dominates(b, a)
            expected = {
                (True, True): Dominance.EQUAL,
                (True, False): Dominance.GREATER,
                (False, True): Dominance.LESS,
                (False, False): Dominance.INCOMPARABLE,
            }[(ge, le)]
            assert dominance_compare(a, b) == expected


def test_dominance_is_transitive_on_small_partitions():
    parts = list(partitions_of(6))
    greater = {
        (a, b)
        for a in parts
        for b in parts
        if dominance_compare(a, b) in (Dominance.GREATER, Dominance.EQUAL)
    }
    for a, b in greater:
        for c in parts:
            if (b, c) in greater:
                assert (a, c) in greater


# ---------------------------------------------------------------------------
# hooks


def test_hook_lengths_of_5_2():
    assert hook_lengths((5, 2)) == {
        (1, 1): 6,
        (1, 2): 5,
        (1, 3): 3,
        (1, 4): 2,
        (1, 5): 1,
        (2, 1): 2,
        (2, 2): 1,
    }


@given(nonempty_partitions())
def test_hooks_of_conjugate_are_the_same_multiset(lam):
    assert sorted(hook_lengths(lam).values()) == sorted(
        hook_lengths(conjugate(lam)).values()
    )


@given(nonempty_partitions())
def test_hook_of_corner_cell_is_max(lam):
    hooks = hook_lengths(lam)
    assert hooks[(1, 1)] == max(hooks.values())
    assert hooks[(1, 1)] == lam[0] + len(lam) - 1


# ---------------------------------------------------------------------------
# rim hooks: frozen examples, duality, brute cross-check


def test_removable_rim_hooks_of_5_2():
    assert removable_rim_hooks((5, 2), 5) == [((1, 2), (1, 1))]
    assert removable_rim_hooks((5, 2), 6) == [((1, 1), (1,))]
    assert removable_rim_hooks((5, 2), 7) == []  # no hook of length 7
    assert removable_rim_hooks((5, 2), 4) == []  # degenerate length


def test_addable_rim_hooks_of_1_1():
    assert addable_rim_hooks((1, 1), 5) == [
        (6, 1),
        (5, 2),
        (3, 2, 2),
        (2, 2, 2, 1),
        (1, 1, 1, 1, 1, 1, 1),
    ]


@pytest.mark.parametrize("n", range(1, 9))
def test_removable_matches_brute_strip_enumeration(n):
    for lam in partitions_of(n):
        for h in range(1, n + 1):
            got = sorted(rem for _, rem in removable_rim_hooks(lam, h))
            assert got == sorted(oracles.strip_removals(lam, h))


@pytest.mark.parametrize("size", range(0, 5))
def test_addable_matches_brute_strip_enumeration(size):
    for mu in partitions_of(size):
        for h in range(1, 8):
            assert sorted(addable_rim_hooks(mu, h)) == sorted(
                oracles.strip_additions(mu, h)
            )


@pytest.mark.parametrize("n", range(2, 10))
def test_removable_addable_duality(n):
    """mu arises by removing an h-strip from lam iff lam arises by adding one."""
    for lam in partitions_of(n):
        for h in range(1, n + 1):
            for _, mu in removable_rim_hooks(lam, h):
                assert lam in addable_rim_hooks(mu, h)
    for mu in partitions_of(n - 1):
        for h in range(1, 6):
            for lam in addable_rim_hooks(mu, h):
                assert mu in [rem for _, rem in removable_rim_hooks(lam, h)]


def test_removable_anchors_are_cells_with_matching_hook():
    """The anchor comes from counting free beads; it must be exactly the
    cells with hook length h, in (row, col) order."""
    shapes = [lam for n in range(1, 11) for lam in partitions_of(n)] + [(6, 6, 2, 1)]
    for lam in shapes:
        hooks = hook_lengths(lam)
        for h in range(1, sum(lam) + 1):
            anchors = [anchor for anchor, _ in removable_rim_hooks(lam, h)]
            assert anchors == sorted(cell for cell, hook in hooks.items() if hook == h)


def test_removable_rim_hook_of_a_long_row_is_immediate():
    assert removable_rim_hooks((10**6,), 10**6) == [((1, 1), ())]


# ---------------------------------------------------------------------------
# strips as objects


def test_border_strip_between():
    strip = BorderStrip.between((5, 2), (1, 1))
    assert strip.size == 5
    assert strip.is_valid_strip()
    assert strip.anchor == (1, 2)
    assert strip.cells == frozenset({(1, 2), (1, 3), (1, 4), (1, 5), (2, 2)})


def test_border_strip_rejects_non_nested_shapes():
    with pytest.raises(ValueError):
        BorderStrip.between((3, 1), (2, 2))


def test_border_strip_detects_fat_skew():
    # (4,4)/(2) contains a 2x2 block
    assert not BorderStrip.between((4, 4), (2,)).is_valid_strip()
    # (4,1)/(2) is disconnected
    assert not BorderStrip.between((4, 1), (2,)).is_valid_strip()


def test_edge_connectivity_helpers():
    assert is_edge_connected([(0, 0), (0, 1), (1, 1)])
    assert not is_edge_connected([(0, 0), (1, 1)])
    assert not is_edge_connected([])  # a border strip is nonempty
    assert contains_2x2([(0, 0), (0, 1), (1, 0), (1, 1)])
    assert not contains_2x2([(0, 0), (0, 1), (1, 0)])


@given(nonempty_partitions(max_size=10), st.integers(1, 10))
@settings(max_examples=60)
def test_strips_produced_by_removal_are_valid(lam, h):
    for _, mu in removable_rim_hooks(lam, h):
        strip = BorderStrip.between(lam, mu)
        assert strip.size == h
        assert strip.is_valid_strip()


# ---------------------------------------------------------------------------
# p-regularity


def test_p_regular_examples():
    assert is_p_regular((2, 2, 1), 3)
    assert not is_p_regular((2, 2, 1), 2)
    assert not is_p_regular((1, 1, 1), 3)
    assert is_p_regular((), 2)


def test_p_regular_requires_prime():
    with pytest.raises(NotPrime):
        is_p_regular((3, 1), 4)


@given(partitions(), st.sampled_from([2, 3, 5, 7]))
def test_p_regular_matches_multiplicity_count(lam, p):
    from collections import Counter

    expected = all(c < p for c in Counter(lam).values())
    assert is_p_regular(lam, p) == expected
