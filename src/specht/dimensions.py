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

from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import Iterable, Union

from .partitions import Partition, conjugate, hook_lengths, partition

__all__ = [
    "EmptyPartition",
    "RationalPolynomial",
    "specht_dimension",
    "padding_threshold",
    "pad_partition",
    "specht_dimension_polynomial",
]


class EmptyPartition(ValueError):
    """The dimension of the empty shape is not defined here."""


def specht_dimension(lam: Partition) -> int:
    """Number of standard tableaux of the shape, by the hook length formula."""
    lam = partition(lam)
    if not lam:
        raise EmptyPartition("dimension of the empty partition is undefined")
    return factorial(sum(lam)) // prod(hook_lengths(lam).values())


class RationalPolynomial:
    """Dense polynomial in one variable ``n`` with exact rational coefficients.

    ``coefficients[i]`` multiplies ``n**i``; trailing zeros are stripped, so
    equal polynomials compare equal. The zero polynomial has no coefficients
    and degree -1.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[Union[Fraction, int]] = ()):
        coeffs = [Fraction(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[Fraction, ...] = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, n: Union[int, Fraction]) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc

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
        if not self.coefficients:
            return "0"
        chunks: list[str] = []
        for deg in range(self.degree, -1, -1):
            c = self.coefficients[deg]
            if c == 0:
                continue
            mag = abs(c)
            if deg == 0:
                term = str(mag)
            else:
                var = "n" if deg == 1 else f"n^{deg}"
                term = var if mag == 1 else f"{mag}*{var}"
            if not chunks:
                chunks.append(term if c > 0 else "-" + term)
            else:
                chunks.append(("+ " if c > 0 else "- ") + term)
        return " ".join(chunks)


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


@cache
def _dimension_polynomial(mu: Partition) -> RationalPolynomial:
    skip = set(first_row_residues(mu))
    poly = RationalPolynomial((Fraction(1, prod(hook_lengths(mu).values())),))
    for i in range(padding_threshold(mu)):
        if i not in skip:
            poly = poly * RationalPolynomial((-i, 1))
    return poly


def specht_dimension_polynomial(mu: Partition) -> RationalPolynomial:
    """Degree-|mu| polynomial P with P(n) = dim of (n - |mu|, mu) past the threshold.

    P(n) = prod(n - i : 0 <= i < |mu| + mu_1, i not in R(mu)) / H(mu), the
    hook length formula with the first row's hooks written out (see the
    module docstring).
    """
    return _dimension_polynomial(partition(mu))
