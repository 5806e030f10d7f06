"""Prime parameter sequences attached to an integer polynomial.

A nonconstant integer polynomial with positive leading coefficient has
infinitely many primes dividing its positive values; scanning those values
yields pairs (t, p) with p | q(t), p strictly increasing and t minimal for
its prime, which is how compatible (size, characteristic) parameter pairs
are produced.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .primes import prime_factors

__all__ = [
    "SearchExhausted",
    "Coefficients",
    "ParameterPair",
    "integer_polynomial",
    "parse_coefficients",
    "evaluate",
    "prime_parameter_sequence",
    "divisor_prime_census",
]


class SearchExhausted(RuntimeError):
    """Safety ceiling hit before enough parameter pairs were found."""


Coefficients = tuple[int, ...]


def integer_polynomial(coeffs: Iterable[int]) -> Coefficients:
    """Normalize integer coefficients (constant term first, index = degree).

    The polynomial must be nonconstant with positive leading coefficient.
    """
    c = tuple(int(x) for x in coeffs)
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    if len(c) < 2:
        raise ValueError("polynomial must be nonconstant")
    if c[-1] <= 0:
        raise ValueError("leading coefficient must be positive")
    return c


def parse_coefficients(text: str) -> Coefficients:
    """Parse the comma-separated wire format, e.g. "1,0,1" for x^2 + 1."""
    try:
        coeffs = [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse coefficients from {text!r}") from exc
    return integer_polynomial(coeffs)


def evaluate(coeffs: Coefficients, t: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


class ParameterPair(NamedTuple):
    t: int
    p: int


def prime_parameter_sequence(
    coeffs: Iterable[int],
    count: int,
    p_min: int = 0,
    search_limit: int = 100_000,
) -> list[ParameterPair]:
    """``count`` pairs (t, p): p prime, strictly increasing and > p_min,
    p | q(t) with q(t) > 0, and t minimal for its prime.

    Scans t upward, skipping nonpositive values; at each value it accepts the
    smallest prime factor beating every prime accepted so far, reported with
    the first t at which it was a candidate. Only prime factors above the
    last accepted prime are searched for, and that is enough for the
    witness: a prime p accepted at t exceeds every earlier ``last``, so it
    was a candidate at every earlier s with q(s) > 0 and p | q(s).
    SearchExhausted once t passes ``search_limit``.
    """
    q = integer_polynomial(coeffs)
    if count < 1:
        raise ValueError("count must be positive")
    if search_limit < 1:
        raise ValueError("search limit must be positive")
    pairs: list[ParameterPair] = []
    last = p_min
    first: dict[int, int] = {}  # candidate prime -> the first t it divided
    for t in range(1, search_limit + 1):
        v = evaluate(q, t)
        if v <= 1:
            continue
        candidates = prime_factors(v, above=last)
        if not candidates:
            continue
        for c in candidates:
            first.setdefault(c, t)
        p = candidates[0]
        pairs.append(ParameterPair(first[p], p))
        last = p
        if len(pairs) == count:
            return pairs
    raise SearchExhausted(
        f"found {len(pairs)} of {count} pairs with t <= {search_limit}"
    )


def divisor_prime_census(coeffs: Iterable[int], limit: int) -> set[int]:
    """All primes dividing q(t) for some 1 <= t <= limit (positive values only)."""
    q = integer_polynomial(coeffs)
    if limit < 1:
        raise ValueError("limit must be positive")
    out: set[int] = set()
    for t in range(1, limit + 1):
        v = evaluate(q, t)
        if v > 1:
            out.update(prime_factors(v))
    return out
