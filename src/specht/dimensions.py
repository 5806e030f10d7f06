"""Specht-module dimensions and their polynomial form in the padded family.

For a tail ``mu`` with k = |mu| and n >= k + mu_1 (the padding threshold),

    dim S^(n - k, mu) = prod(n - i : 0 <= i < k + mu_1, i not in R(mu)) / H(mu),

a polynomial in n of degree k, with H(mu) the product of mu's hook lengths
and R(mu) = { k + j - 1 - mu'_j : 1 <= j <= mu_1 } (``first_row_residues``).
By the hook length formula n!/prod(hooks): the hooks below row 1 are mu's;
cell (1, j) with j <= mu_1 has hook n - r_j, the r_j in R(mu) distinct and
below k + mu_1; the cells (1, j) with j > mu_1 have hooks n - k - mu_1, ..., 1.
All arithmetic is exact (integers and fractions, no floating point).
"""

from __future__ import annotations

from functools import cache
from math import lcm, prod
from typing import TYPE_CHECKING, Iterable, Union

if TYPE_CHECKING:
    from fractions import Fraction

from .partitions import Partition, conjugate, hook_lengths, partition


class EmptyPartition(ValueError):
    """The dimension of the empty shape is not defined here."""


def specht_dimension(lam: Partition) -> int:
    """Number of standard tableaux of the shape: the hook length formula with
    the first row's hooks written out (module docstring), cheap for any n."""
    lam = partition(lam)
    if not lam:
        raise EmptyPartition("dimension of the empty partition is undefined")
    shifts, hooks = _first_row_form(lam[1:])
    return prod(sum(lam) - i for i in shifts) // hooks


def _signed_sum(terms: Iterable[tuple[Union[Fraction, int], str]]) -> str:
    """The sum of the c*x, as ``1/2*n^2 - n + 1``: terms with c = 0 dropped,
    a magnitude 1 written only where x is empty, "0" for no terms."""
    text = ""
    for c, x in terms:
        if c:
            mag = abs(c)
            term = x if mag == 1 and x else f"{mag}*{x}" if x else str(mag)
            text += (" + " if c > 0 else " - ") + term
    return "0" if not text else text[3:] if text[1] == "+" else "-" + text[3:]


class RationalPolynomial:
    """Dense polynomial in one variable ``n`` with exact rational coefficients.

    ``coefficients[i]`` multiplies ``n**i``; trailing zeros are stripped, so
    equal polynomials compare equal. The zero polynomial has no coefficients
    and degree -1.
    """

    __slots__ = ("coefficients", "_integral")

    def __init__(self, coefficients: Iterable[Union[Fraction, int]] = ()):
        # The first polynomial binds Fraction for the methods: fractions loads
        # decimal and numbers, which integer-only specht_dimension skips.
        global Fraction
        from fractions import Fraction

        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Fraction, ...] = tuple(coeffs)
        # (D * coefficients as ints, D) for their common denominator D,
        # made by the first call.
        self._integral: tuple[tuple[int, ...], int] | None = None

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, n: Union[int, Fraction]) -> Fraction:
        """The value at n = a/b: integer Horner on a over D * b**degree."""
        if self._integral is None:
            den = lcm(*(c.denominator for c in self.coefficients))
            nums = tuple(c.numerator * (den // c.denominator) for c in self.coefficients)
            self._integral = nums, den
        nums, den = self._integral
        a, b = n.numerator, n.denominator
        total, scale = 0, 1
        for c in reversed(nums):
            total = total * a + c * scale
            scale *= b
        return Fraction(total, den * b ** max(self.degree, 0))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(-c for c in self.coefficients)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return RationalPolynomial(
            [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]
        )

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __mul__(
        self, other: Union["RationalPolynomial", Fraction, int]
    ) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial(c * other for c in self.coefficients)
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients))
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"RationalPolynomial({self.coefficients!r})"

    def __str__(self) -> str:
        """Lowest-terms rendering, descending degree: ``1/2*n^2 - 5/2*n + 1``."""
        return _signed_sum(
            (self.coefficients[deg], "" if deg == 0 else "n" if deg == 1 else f"n^{deg}")
            for deg in range(self.degree, -1, -1)
        )


def padding_threshold(mu: Partition) -> int:
    """Least n for which (n - |mu|, mu) is a partition (0 for the empty tail)."""
    mu = partition(mu)
    return sum(mu) + mu[0] if mu else 0


def pad_partition(mu: Partition, n: int) -> Partition:
    """The padded shape (n - |mu|, mu)."""
    mu = partition(mu)
    if n < max(padding_threshold(mu), 1):
        raise ValueError(f"n={n} is below the padding threshold for tail {mu}")
    return (n - sum(mu), *mu)


def first_row_residues(mu: Partition) -> tuple[int, ...]:
    """R(mu): the r_j = |mu| + j - 1 - mu'_j for j = 1, ..., mu_1, increasing.

    The first-row cell (1, j) of (n - |mu|, mu) has hook length n - r_j.
    """
    mu = partition(mu)
    k = sum(mu)
    return tuple(k + j - 1 - col for j, col in enumerate(conjugate(mu), 1))


def _first_row_form(mu: Partition) -> tuple[list[int], int]:
    """The shifts i, 0 <= i < |mu| + mu_1 with i not in R(mu), and H(mu):
    dim S^(n - |mu|, mu) = prod(n - i) / H(mu) past the threshold."""
    skip = set(first_row_residues(mu))
    shifts = [i for i in range(padding_threshold(mu)) if i not in skip]
    return shifts, prod(hook_lengths(mu).values())


@cache
def _dimension_polynomial(mu: Partition) -> RationalPolynomial:
    from fractions import Fraction

    shifts, hooks = _first_row_form(mu)
    poly = RationalPolynomial((Fraction(1, hooks),))
    for i in shifts:
        poly = poly * RationalPolynomial((-i, 1))
    return poly


def specht_dimension_polynomial(mu: Partition) -> RationalPolynomial:
    """Degree-|mu| polynomial P with P(n) = dim of (n - |mu|, mu) past the threshold.

    P(n) = prod(n - i : 0 <= i < |mu| + mu_1, i not in R(mu)) / H(mu), the
    hook length formula with the first row's hooks written out (see the
    module docstring).
    """
    return _dimension_polynomial(partition(mu))
