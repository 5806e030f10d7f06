"""Rim-hook chains and Grothendieck-group decompositions.

For a partition of n and a residue m, the chain collects everything
reachable by removing one rim hook of size n - m and re-adding one strictly
higher in dominance order. When the chain is totally ordered it determines
an alternating Specht-class expansion of the irreducible class at its base,
and for padded shapes (n - |mu|, mu) the expansion stabilizes in n, giving
closed polynomial dimension formulas split by the residue of n modulo the
(large) characteristic.
"""

from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .dimensions import (
    RationalPolynomial,
    _signed_sum,
    first_row_residues,
    pad_partition,
    padding_threshold,
    specht_dimension_polynomial,
)
from .partitions import (
    Dominance,
    Partition,
    _strips_added,
    dominance_compare,
    format_partition,
    partition,
    removable_rim_hooks,
)


class SizeError(ValueError):
    """Residue parameter outside 0 <= m < |lambda|."""


class NotTotallyOrdered(ValueError):
    """The collected set has a dominance-incomparable pair (n too small for this tail)."""


class FamilyIncomplete(ValueError):
    """A chain member escapes the supplied family."""


SPECHT = "S"
IRREDUCIBLE = "D"

Label = str
Term = tuple[Label, Partition]


class RimHookChain:
    """Strictly dominance-decreasing partitions ending at the base the chain was built from.

    Immutable; equal and hashed by (elements, m).
    """

    __slots__ = ("elements", "m")

    def __init__(self, elements: tuple[Partition, ...], m: int):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.elements, self.m)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.elements, self.m) == (other.elements, other.m)

    def __hash__(self) -> int:
        return hash((self.elements, self.m))

    def __repr__(self) -> str:
        return f"RimHookChain(elements={self.elements!r}, m={self.m!r})"

    @property
    def base(self) -> Partition:
        return self.elements[-1]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Partition]:
        return iter(self.elements)


def rim_hook_chain(lam: Partition, m: int) -> RimHookChain:
    """The base partition plus everything reachable by removing one rim hook
    of size |lam| - m and re-adding one strictly higher in dominance order,
    sorted in decreasing dominance order.

    Raises NotTotallyOrdered when the collected set is not a chain, and
    SizeError unless 0 <= m < |lam|.
    """
    lam = partition(lam)
    n = sum(lam)
    if not 0 <= m < n:
        raise SizeError(f"residue m={m} must satisfy 0 <= m < {n}")
    found = {lam}
    h = n - m
    # nu dominating lam has at most len(lam) rows, so len(lam) beads hold it.
    for _anchor, rest in removable_rim_hooks(lam, h):
        for nu in _strips_added(rest, h, len(lam)):
            if nu != lam and dominance_compare(nu, lam) is Dominance.GREATER:
                found.add(nu)
    # Lex order refines dominance, so the set is a chain when each element
    # dominates the next, and a neighbour that does not is incomparable to
    # it; name the first incomparable pair.
    elems = sorted(found, reverse=True)
    neighbours = zip(elems, elems[1:])
    if all(dominance_compare(a, b) is Dominance.GREATER for a, b in neighbours):
        return RimHookChain(tuple(elems), m)
    a, b = next(
        (a, b)
        for i, a in enumerate(elems)
        for b in elems[i + 1 :]
        if dominance_compare(a, b) is Dominance.INCOMPARABLE
    )
    raise NotTotallyOrdered(
        f"{format_partition(a)} and {format_partition(b)} "
        f"are incomparable in the set built from {format_partition(lam)}, m={m}"
    )


class GrothendieckVector:
    """Formal integer combination of labeled classes S[mu] / D[mu] of one size.

    Terms with zero coefficient are dropped; iteration is in increasing
    lexicographic order of the partition (dominance-smallest first, matching
    how the alternating expansions read), then by label.
    """

    __slots__ = ("_terms",)

    def __init__(
        self,
        terms: Union[Mapping[Term, int], Iterable[tuple[Term, int]]] = (),
    ):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Term, int] = {}
        for (label, part), coeff in items:
            if label not in (SPECHT, IRREDUCIBLE):
                raise ValueError(f"unknown label {label!r}")
            key = (label, partition(part))
            data[key] = data.get(key, 0) + int(coeff)
        data = {k: v for k, v in data.items() if v}
        sizes = {sum(part) for _, part in data}
        if len(sizes) > 1:
            raise ValueError(f"terms mix partition sizes {sorted(sizes)}")
        self._terms = data

    @staticmethod
    def _sort_key(item: tuple[Term, int]):
        (label, part), _ = item
        return part, label

    def items(self) -> list[tuple[Term, int]]:
        return sorted(self._terms.items(), key=self._sort_key)

    def coefficient(self, label: Label, part: Partition) -> int:
        return self._terms.get((label, partition(part)), 0)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GrothendieckVector):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "GrothendieckVector":
        return GrothendieckVector({k: -v for k, v in self._terms.items()})

    def __add__(self, other: "GrothendieckVector") -> "GrothendieckVector":
        merged = dict(self._terms)
        for k, v in other._terms.items():
            merged[k] = merged.get(k, 0) + v
        return GrothendieckVector(merged)

    def __sub__(self, other: "GrothendieckVector") -> "GrothendieckVector":
        return self + (-other)

    def __mul__(self, scalar: int) -> "GrothendieckVector":
        return GrothendieckVector({k: v * scalar for k, v in self._terms.items()})

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _signed_sum(
            (coeff, f"{label}{format_partition(part)}")
            for (label, part), coeff in self.items()
        )

    def __repr__(self) -> str:
        return f"GrothendieckVector({self._terms!r})"

    def to_json_obj(self) -> list[dict]:
        return [
            {"label": label, "partition": list(part), "coeff": coeff}
            for (label, part), coeff in self.items()
        ]

    @classmethod
    def from_json_obj(cls, obj: Iterable[Mapping]) -> "GrothendieckVector":
        return cls(
            ((item["label"], tuple(item["partition"])), item["coeff"]) for item in obj
        )


def decompose_irreducible(lam: Partition, m: int) -> GrothendieckVector:
    """Alternating Specht-class expansion of the irreducible class based at ``lam``.

    With chain elements lam(0) > ... > lam(d) = lam, the class is
    sum of (-1)^(d-i) * S[lam(i)]; a singleton chain means the Specht class
    itself is irreducible.
    """
    chain = rim_hook_chain(lam, m)
    d = len(chain) - 1
    return GrothendieckVector(
        {(SPECHT, el): (-1) ** (d - i) for i, el in enumerate(chain.elements)}
    )


def decompose_standard(
    lam: Partition, m: int, family: Iterable[Partition]
) -> GrothendieckVector:
    """Expand the Specht class of ``lam`` into irreducible classes over ``family``.

    The irreducible expansions of the family members are the rows of a
    unitriangular integer matrix; the answer is ``lam``'s row of its inverse,
    solved for alone by back substitution. FamilyIncomplete when ``lam`` or
    any chain member is missing from the family.
    """
    lam = partition(lam)
    n = sum(lam)
    fam = sorted({partition(nu) for nu in family}, reverse=True)
    for nu in fam:
        if sum(nu) != n:
            raise ValueError(
                f"family member {format_partition(nu)} has size {sum(nu)}, expected {n}"
            )
    index = {nu: i for i, nu in enumerate(fam)}
    if lam not in index:
        raise FamilyIncomplete(f"{format_partition(lam)} is not in the family")
    rows: list[dict[int, int]] = []  # rows[i][j]: the S[fam[j]] term of D[fam[i]]
    for nu in fam:
        row = {}
        for (_label, part), coeff in decompose_irreducible(nu, m).items():
            if part not in index:
                raise FamilyIncomplete(
                    f"chain member {format_partition(part)} of "
                    f"{format_partition(nu)} is outside the family"
                )
            row[index[part]] = coeff
        rows.append(row)
    # Chain members dominate, so come first: the rows M are unit lower-triangular.
    # lam's row x of M^-1 solves x M = e_lam, by back substitution from lam up.
    x = [0] * index[lam] + [1]
    for i in range(index[lam], -1, -1):
        for j, coeff in rows[i].items():
            if j < i:
                x[j] -= x[i] * coeff
    return GrothendieckVector({(IRREDUCIBLE, fam[j]): c for j, c in enumerate(x)})


def _stable_n(mu: Partition, m: int) -> int:
    """An n from which on the chain tails of (n - |mu|, mu) at residue m do
    not depend on n.

    Every element above lam = (n - |mu|, mu) dominates it, so it reads
    (n - |tau|, tau) with |tau| <= |mu|.  Once n >= 2|mu| each such shape is a
    partition, and dominance between two of them compares partial sums that
    do not involve n.  Once n >= |mu| + m + 1 the hook length n - m exceeds
    every hook below row 1 (at most mu_1 + mu'_1 - 1 <= |mu|), so only
    first-row rim hooks are removed; the remainder's first row is mu_1 - 1
    or the cut-short row of lam, and whether re-adding a hook of size n - m
    yields (n - |tau|, tau) is then a condition on tau alone.
    """
    k = sum(mu)
    return max(2 * k, padding_threshold(mu), k + m + 1)


@cache
def _dimension_formula(mu: Partition, m: int) -> RationalPolynomial:
    lam = pad_partition(mu, _stable_n(mu, m))
    poly = RationalPolynomial()
    for (_label, part), coeff in decompose_irreducible(lam, m).items():
        poly = poly + specht_dimension_polynomial(part[1:]) * coeff
    return poly


def irreducible_dimension_formula(mu: Partition, m: int) -> RationalPolynomial:
    """Polynomial in n for the irreducible dimension at padded shape (n - |mu|, mu)
    when n is congruent to m modulo the (large) characteristic.

    The chain is built once, at n = max(2|mu|, |mu| + mu_1, |mu| + m + 1),
    past which its element tails do not depend on n; the polynomial is the
    alternating sum of the padded Specht dimension polynomials of the tails.
    """
    mu = partition(mu)
    if m < 0:
        raise SizeError(f"residue m={m} must be nonnegative")
    return _dimension_formula(mu, m)


class CongruencePolynomial:
    """A dimension polynomial split by the residue of n modulo the characteristic.

    ``cases[m]`` applies when n == m (mod p); ``default`` applies otherwise.
    The prime stays symbolic: the split does not depend on which (large)
    prime realizes the congruence. Every stored case differs from the
    default.
    """

    __slots__ = ("cases", "default")
    __hash__ = None  # mutable

    def __init__(self, cases: dict[int, RationalPolynomial], default: RationalPolynomial):
        self.cases = cases
        self.default = default

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cases, self.default) == (other.cases, other.default)

    def __repr__(self) -> str:
        return f"CongruencePolynomial(cases={self.cases!r}, default={self.default!r})"

    def polynomial_for(self, m: int) -> RationalPolynomial:
        return self.cases.get(m, self.default)

    def render(self) -> str:
        lines = [f"m == {m}: {poly}" for m, poly in sorted(self.cases.items())]
        lines.append(f"otherwise: {self.default}")
        return "\n".join(lines)


def irreducible_dimension_table(mu: Partition) -> CongruencePolynomial:
    """Tabulate irreducible_dimension_formula over the residues that can
    degenerate, folding those that match the generic Specht polynomial into
    the default.

    For n large the chain at residue m grows past the base only when n - m is
    the hook length of a first-row cell (1, j) with j <= mu_1 of
    (n - |mu|, mu), i.e. for m in
    R(mu) = { |mu| + j - 1 - mu'_j : 1 <= j <= mu_1 } (``first_row_residues``).
    Hooks below row 1 are too short, and removing a hook at j > mu_1 only
    cuts the first row short, which re-adding can only restore.  Every other
    residue gets the default.
    """
    mu = partition(mu)
    default = specht_dimension_polynomial(mu)
    cases: dict[int, RationalPolynomial] = {}
    for m in first_row_residues(mu):
        poly = irreducible_dimension_formula(mu, m)
        if poly != default:
            cases[m] = poly
    return CongruencePolynomial(cases=cases, default=default)
