"""Prime parameter pairs (t, p) with p | q(t), and the divisor-prime census."""

import json
from itertools import combinations
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from specht import (
    ParameterPair,
    SearchExhausted,
    divisor_prime_census,
    evaluate,
    integer_polynomial,
    parse_coefficients,
    prime_parameter_sequence,
)
from specht.primes import _TRIAL_LIMIT, is_prime, prime_factors


# ---------------------------------------------------------------------------
# polynomial plumbing


def test_integer_polynomial_validation():
    assert integer_polynomial([1, 0, 1]) == (1, 0, 1)
    assert integer_polynomial([-3, 1, 0]) == (-3, 1)  # trailing zeros dropped
    with pytest.raises(ValueError):
        integer_polynomial([5])  # constant
    with pytest.raises(ValueError):
        integer_polynomial([])
    with pytest.raises(ValueError):
        integer_polynomial([0, -1])  # negative leading coefficient


def test_parse_coefficients():
    assert parse_coefficients("1,0,1") == (1, 0, 1)
    assert parse_coefficients("-3, 1") == (-3, 1)
    with pytest.raises(ValueError):
        parse_coefficients("1,a")
    with pytest.raises(ValueError):
        parse_coefficients("")


def test_evaluate():
    assert evaluate((1, 0, 1), 4) == 17
    assert evaluate((-3, 1), 10) == 7
    assert evaluate((-2, 0, 1), 5) == 23


@given(st.lists(st.integers(-5, 5), min_size=2, max_size=4), st.integers(-20, 20))
def test_evaluate_agrees_with_powers(coeffs, t):
    assert evaluate(tuple(coeffs), t) == sum(c * t**i for i, c in enumerate(coeffs))


# ---------------------------------------------------------------------------
# primality plumbing (used by the sequence builder)


def test_is_prime_small():
    primes_below_50 = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes_below_50)


def test_is_prime_large():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(2**67 - 1)  # famously composite: 193707721 * 761838257287
    assert is_prime(1000000007)


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


@pytest.mark.parametrize("n,bases", [(25_326_001, (2, 3, 5)), (3_215_031_751, (2, 3, 5, 7))])
def test_is_prime_rejects_strong_pseudoprimes(n, bases):
    # 3 215 031 751 = 151 * 751 * 28351 is the least strong pseudoprime to
    # bases 2, 3, 5 and 7 at once, so from there on is_prime needs more bases.
    assert all(_strong_probable_prime(n, a) for a in bases)
    assert not is_prime(n)


def test_is_prime_agrees_with_a_sieve():
    limit = 10**5
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for i in range(2, isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, limit, i)))
    assert [n for n in range(limit) if is_prime(n)] == [n for n in range(limit) if sieve[n]]


@given(st.integers(2, 10**6))
@settings(max_examples=60)
def test_prime_factors_multiply_back(n):
    factors = prime_factors(n)
    assert factors == sorted(set(factors))
    assert all(is_prime(f) for f in factors)
    rest = n
    for f in factors:
        assert rest % f == 0
        while rest % f == 0:
            rest //= f
    assert rest == 1


def test_prime_factors_examples():
    assert prime_factors(50) == [2, 5]
    assert prime_factors(37) == [37]
    assert prime_factors(2**10) == [2]


def _primes_between(lo, hi, k):
    """The first k primes met walking from lo towards hi (either way)."""
    step = 1 if hi > lo else -1
    return [n for n in range(lo, hi, step) if oracles.trial_prime_factors(n) == {n}][:k]


# The first primes above the trial-division table, the last primes below
# 2**16 (the table's old bound), and the cases whose factors all escape it.
_PAST_TABLE = _primes_between(_TRIAL_LIMIT, 2 * _TRIAL_LIMIT, 3)
_BELOW_2_16 = _primes_between(2**16, 2**15, 3)
_BOUNDARY_CASES = (
    [p**2 for p in _PAST_TABLE + _BELOW_2_16]
    + [p**3 for p in _PAST_TABLE + _BELOW_2_16]
    + [p * q for p, q in combinations(_PAST_TABLE + _BELOW_2_16, 2)]
    + [561, 41041, 825265]  # Carmichael numbers
    + [65537 * 65539]
)


@pytest.mark.parametrize("n", _BOUNDARY_CASES)
def test_prime_factors_at_the_table_boundary(n):
    assert prime_factors(n) == sorted(oracles.trial_prime_factors(n))


@given(st.integers(1, 10**12), st.data())
@settings(max_examples=80)
def test_prime_factors_above_keeps_the_larger_ones(n, data):
    above = data.draw(st.integers(-2, n + 1))
    assert prime_factors(n, above=above) == [f for f in prime_factors(n) if f > above]


# Factor pairs (a, b) on whose product a batch gcd of Brent's rho meets the
# product itself, so the factor comes from walking the batch again.
_BACKTRACK_CASES = {
    "squares": [(p, p) for p in _PAST_TABLE],
    "nearby primes": list(zip(_PAST_TABLE, _PAST_TABLE[1:])),
    "62-bit semiprime": [(2147483423, 2147483489)],
}


@pytest.mark.parametrize("kind", list(_BACKTRACK_CASES))
def test_prime_factors_through_the_rho_backtrack(kind, monkeypatch):
    overshoots = []

    def spy(a, n):
        g = gcd(a, n)
        if g == n:
            overshoots.append(n)
        return g

    monkeypatch.setattr("specht.primes.gcd", spy)
    for a, b in _BACKTRACK_CASES[kind]:
        want = oracles.trial_prime_factors(a) | oracles.trial_prime_factors(b)
        assert prime_factors(a * b) == sorted(want)
    assert overshoots


def test_prime_factors_above_examples():
    n = 2**4 * 257 * 65521
    assert prime_factors(n, above=2) == [257, 65521]
    assert prime_factors(n, above=257) == [65521]
    assert prime_factors(n, above=65521) == []
    assert prime_factors(65537 * 65539, above=65537) == [65539]


# ---------------------------------------------------------------------------
# parameter sequences


def test_sequence_for_linear_polynomial():
    got = prime_parameter_sequence((-3, 1), 3, p_min=3)
    assert got == [ParameterPair(8, 5), ParameterPair(10, 7), ParameterPair(14, 11)]


def test_sequence_for_x_squared_plus_one():
    got = prime_parameter_sequence((1, 0, 1), 3, p_min=2)
    assert [(pair.t, pair.p) for pair in got] == [(2, 5), (4, 17), (6, 37)]


def test_sequence_for_x_squared_minus_two():
    got = prime_parameter_sequence((-2, 0, 1), 2, p_min=5)
    assert [(pair.t, pair.p) for pair in got] == [(3, 7), (5, 23)]


@pytest.mark.parametrize(
    "coeffs,count,p_min",
    [((1, 0, 1), 6, 0), ((-3, 1), 5, 3), ((1, 1, 1), 5, 1), ((-2, 0, 1), 4, 5)],
)
def test_sequence_contract(coeffs, count, p_min):
    pairs = prime_parameter_sequence(coeffs, count, p_min=p_min)
    assert len(pairs) == count
    last = p_min
    for pair in pairs:
        value = evaluate(coeffs, pair.t)
        assert value > 0 and value % pair.p == 0
        assert is_prime(pair.p)
        assert pair.p > last
        last = pair.p
        # t is the least witness for its prime
        for s in range(1, pair.t):
            w = evaluate(coeffs, s)
            assert w <= 0 or w % pair.p != 0


@pytest.mark.parametrize(
    "coeffs,count,p_min",
    [
        ((1, 0, 1), 4, 2),
        ((-3, 1), 4, 0),
        # q(1..3) <= 1 and q(1) = -9: the witness of 3 must have q(s) > 0
        ((-10, 0, 1), 8, 0),
        ((3, 0, 0, 0, 1), 12, 2),
        # p_min above q(1..9) = 2, 5, ..., 82
        ((1, 0, 1), 5, 100),
    ],
)
def test_sequence_matches_trial_division_oracle(coeffs, count, p_min):
    got = [(pair.t, pair.p) for pair in prime_parameter_sequence(coeffs, count, p_min)]
    assert got == oracles.prime_pairs_by_trial_division(coeffs, count, p_min)


@pytest.mark.parametrize(
    "coeffs,count,p_min",
    [
        ((1, 0, 1), 200, 2),
        ((3, 0, 0, 0, 1), 100, 2),
        ((-3, 1), 100, 0),
        ((1, 1, 1), 100, 0),
        # Pairs 2 and 4 are accepted after the t that reports them.
        ((-28, -8, 3), 20, 10),
    ],
)
def test_each_witness_is_the_least_by_rescan(coeffs, count, p_min):
    pairs = prime_parameter_sequence(coeffs, count, p_min=p_min)
    assert [pair.t for pair in pairs] == [
        oracles.least_witness(coeffs, pair.p) for pair in pairs
    ]


_CLI_EXPECTED = Path(__file__).resolve().parent.parent / "perfbench" / "cli_expected.json"


@pytest.mark.parametrize("coeffs,count", [((1, 0, 1), 200), ((3, 0, 0, 0, 1), 100)])
def test_sequence_matches_the_benchmark_pin(coeffs, count):
    """The benchmark's two prime-seq scans, against its pinned stdout."""
    argv = ["prime-seq", ",".join(map(str, coeffs)), str(count)]
    (pinned,) = [e for e in json.loads(_CLI_EXPECTED.read_text()) if e["argv"] == argv]
    pairs = prime_parameter_sequence(coeffs, count, p_min=2)
    assert "".join(f"({pair.t}, {pair.p})\n" for pair in pairs) == pinned["stdout"]


def test_search_ceiling():
    with pytest.raises(SearchExhausted):
        prime_parameter_sequence((-3, 1), 3, p_min=3, search_limit=5)


def test_sequence_validates_inputs():
    with pytest.raises(ValueError):
        prime_parameter_sequence((5,), 2)  # constant polynomial
    with pytest.raises(ValueError):
        prime_parameter_sequence((1, 0, 1), 0)  # empty request
    for limit in (0, -1):
        with pytest.raises(ValueError, match="search limit must be positive"):
            prime_parameter_sequence((1, 0, 1), 5, search_limit=limit)


# ---------------------------------------------------------------------------
# censuses


def test_census_examples():
    assert divisor_prime_census((0, 1), 10) == {2, 3, 5, 7}
    assert divisor_prime_census((1, 0, 1), 3) == {2, 5}
    assert divisor_prime_census((1, 0, 1), 7) == {2, 5, 13, 17, 37}


@pytest.mark.parametrize("coeffs", [(1, 0, 1), (-3, 1), (1, 1, 1)])
def test_census_matches_trial_division(coeffs):
    for limit in (1, 5, 20):
        assert divisor_prime_census(coeffs, limit) == oracles.census_by_trial_division(
            coeffs, limit
        )


def test_census_is_monotone_and_grows():
    sizes = [len(divisor_prime_census((1, 0, 1), limit)) for limit in (5, 50, 500)]
    assert sizes == sorted(sizes)
    assert sizes[-1] > 10
    prev = divisor_prime_census((1, 0, 1), 50)
    assert prev <= divisor_prime_census((1, 0, 1), 500)
