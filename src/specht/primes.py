"""Primality testing and factorization helpers.

``is_prime`` is a deterministic Miller-Rabin test for everything below
3.3e24 (in particular for all 64-bit integers; four bases suffice below
3.2e9); beyond that bound the same fixed bases make it a very strong
probable-prime test. Factorization trial-divides by the primes below 2**8,
then splits what is left with Miller-Rabin and Brent's variant of Pollard
rho (R. P. Brent, BIT 20 (1980) 176-184: one gcd per batch of steps, fixed
seeds), so it stays deterministic as well.
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt


class NotPrime(ValueError):
    """An argument that must be prime is not."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The 12 bases above decide primality for all n < 3_317_044_064_679_887_385_961_981,
# and the first four alone for all n below this bound (every kernel prime).
_FOUR_BASES_BELOW = 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed bases)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[:4] if n < _FOUR_BASES_BELOW else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Trial division stops here; rho splits the rest.  Values of a few 1e12
# factor fastest with a table this short (times in CHANGES.md).
_TRIAL_LIMIT = 1 << 8


@cache
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray([1]) * _TRIAL_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(_TRIAL_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i in range(_TRIAL_LIMIT) if sieve[i])


def prime_factors(n: int, above: int = 0) -> list[int]:
    """Sorted distinct prime divisors of a positive integer n that are
    greater than ``above`` (all of them by default; empty for 1)."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    found: set[int] = set()
    _factor_into(n, found, above)
    return sorted(found)


def _factor_into(v: int, out: set[int], above: int) -> None:
    """Add the prime divisors of v greater than ``above`` to ``out``.

    A prime divisor of v is at most v, so a cofactor v <= above is left
    unfactored.
    """
    for p in _small_primes():
        if p * p > v or v <= above:
            break
        if v % p == 0:
            if p > above:
                out.add(p)
            while v % p == 0:
                v //= p
    if v == 1 or v <= above:
        return
    if is_prime(v):
        out.add(v)
        return
    d = _pollard_rho(v)
    _factor_into(d, out, above)
    _factor_into(v // d, out, above)


# Steps of the walk whose differences share one gcd.
_RHO_BATCH = 128


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of an odd composite with no prime factor below
    2**8 (the trial-division table).

    Brent's cycle finding on x -> x^2 + c from x = 2, for c = 1, 2, ...: y
    runs r steps past the saved x, r doubling, and the differences x - y are
    multiplied mod n with one gcd per batch.  A batch whose gcd is n is
    walked again one step and one gcd at a time; a walk that still meets n
    (x = y mod every prime factor) moves on to the next c.
    """
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g
    raise RuntimeError(f"rho failed to split {n}")
