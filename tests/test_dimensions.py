"""Hook-length dimensions and the closed-form dimension polynomials.

The polynomial of a tail is a product of linear factors over the first-row
residues; it is checked against the hook length quotient at at least
degree + 1 points past the padding threshold, which pins it exactly.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given

import oracles
from conftest import nonempty_partitions
from specht import (
    EmptyPartition,
    RationalPolynomial,
    conjugate,
    hook_lengths,
    pad_partition,
    padding_threshold,
    partitions_of,
    specht_dimension,
    specht_dimension_polynomial,
)


# ---------------------------------------------------------------------------
# specht_dimension


@pytest.mark.parametrize(
    "lam,dim",
    [
        ((5, 2), 14),
        ((2, 1), 2),
        ((3, 2), 5),
        ((1,), 1),
        ((6,), 1),
        ((1, 1, 1, 1), 1),
        ((4, 3, 1), 70),
        ((2, 2), 2),
        ((10**6,), 1),
        ((10**8, 1), 10**8),
        ((1,) * 200, 1),
    ],
)
def test_specht_dimension_examples(lam, dim):
    assert specht_dimension(lam) == dim


def _hook_quotient(lam):
    """n! / prod(hooks), independent of the first-row form both
    specht_dimension and the polynomials use."""
    return math.factorial(sum(lam)) // math.prod(hook_lengths(lam).values())


@pytest.mark.parametrize("n", range(1, 15))
def test_specht_dimension_is_the_hook_length_quotient(n):
    for lam in partitions_of(n):
        assert specht_dimension(lam) == _hook_quotient(lam), lam


def test_specht_dimension_rejects_empty():
    with pytest.raises(EmptyPartition):
        specht_dimension(())


@pytest.mark.parametrize("n", range(1, 9))
def test_sum_of_squared_dimensions_is_factorial(n):
    assert sum(specht_dimension(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


@given(nonempty_partitions())
def test_dimension_is_conjugation_invariant(lam):
    assert specht_dimension(lam) == specht_dimension(conjugate(lam))


@pytest.mark.parametrize("n", range(1, 7))
def test_dimension_counts_standard_fillings(n):
    """The hook-length quotient counts standard tableaux (brute filter)."""
    for lam in partitions_of(n):
        assert specht_dimension(lam) == len(oracles.standard_fillings(lam))


# ---------------------------------------------------------------------------
# RationalPolynomial


def test_polynomial_evaluation_and_arithmetic():
    p = RationalPolynomial([Fraction(0), Fraction(-3, 2), Fraction(1, 2)])  # (n^2-3n)/2
    q = RationalPolynomial([1])
    assert p(7) == 14
    assert p(0) == 0
    assert p(Fraction(1, 2)) == Fraction(-5, 8)
    assert p(Fraction(-7, 3)) == Fraction(56, 9)
    assert RationalPolynomial([])(Fraction(2, 3)) == 0
    assert (p + q)(5) == p(5) + 1
    assert (p - p)(9) == 0
    assert (-p)(4) == -p(4)
    assert (p * 2)(6) == 2 * p(6)


def test_polynomial_degree():
    assert RationalPolynomial([]).degree == -1
    assert RationalPolynomial([5]).degree == 0
    assert RationalPolynomial([0, 0, 1]).degree == 2
    # trailing zero coefficients are stripped
    assert RationalPolynomial([1, 0, 0]).degree == 0


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ([0, Fraction(-3, 2), Fraction(1, 2)], "1/2*n^2 - 3/2*n"),
        ([-1, 1], "n - 1"),
        ([1], "1"),
        ([], "0"),
        ([Fraction(1, 3), 0, 0, 1], "n^3 + 1/3"),
        ([0, -1], "-n"),
    ],
)
def test_polynomial_rendering(coeffs, text):
    assert str(RationalPolynomial(coeffs)) == text


def test_polynomial_equality_and_hash():
    a = RationalPolynomial([Fraction(1, 2), 1])
    b = RationalPolynomial([Fraction(1, 2), 1, 0])
    assert a == b and hash(a) == hash(b)
    assert a != RationalPolynomial([1, 1])


# ---------------------------------------------------------------------------
# padding and the dimension polynomial in n


def test_padding():
    assert padding_threshold(()) == 0
    assert padding_threshold((2,)) == 4
    assert padding_threshold((2, 1)) == 5
    assert pad_partition((2,), 7) == (5, 2)
    assert pad_partition((), 3) == (3,)
    with pytest.raises(ValueError):
        pad_partition((2,), 3)  # first part would drop below 2


@pytest.mark.parametrize(
    "mu,text",
    [
        ((), "1"),
        ((1,), "n - 1"),
        ((2,), "1/2*n^2 - 3/2*n"),
        ((1, 1), "1/2*n^2 - 3/2*n + 1"),
    ],
)
def test_dimension_polynomial_examples(mu, text):
    assert str(specht_dimension_polynomial(mu)) == text


def test_dimension_polynomial_degree_equals_tail_size():
    for mu in [(), (1,), (2,), (2, 1), (3, 1), (2, 2, 1)]:
        assert specht_dimension_polynomial(mu).degree == sum(mu)


@pytest.mark.parametrize("size", range(0, 11))
def test_dimension_polynomial_matches_hook_formula_pointwise(size):
    """Agreement at 12 points (at least degree + 1), for every tail of a size."""
    for mu in partitions_of(size):
        poly = specht_dimension_polynomial(mu)
        start = max(padding_threshold(mu), 1)
        for n in range(start, start + 12):
            assert poly(n) == _hook_quotient(pad_partition(mu, n)), (mu, n)


@pytest.mark.parametrize("mu", [(20,), (30,), (10, 10, 10), (5, 4, 3, 2, 1)])
def test_dimension_polynomial_of_large_tails(mu):
    """|mu| + 1 points past the threshold pin the degree-|mu| polynomial."""
    poly = specht_dimension_polynomial(mu)
    assert poly.degree == sum(mu)
    start = padding_threshold(mu)
    for n in range(start, start + sum(mu) + 1):
        assert poly(n) == _hook_quotient(pad_partition(mu, n)), (mu, n)
