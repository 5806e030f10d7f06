"""Partition and Young-diagram combinatorics.

Partitions are plain tuples of weakly decreasing positive integers (no
trailing zeros), so they hash, compare and serialize like values. Cells are
1-based ``(row, col)`` pairs. Everything here is a pure function; it is
safe to call from multiple threads.

Rim hooks live on an abacus: on r >= len(lam) rows, row t (0-based) holds
the bead lam_t + r - 1 - t. A border strip of size h is one bead moved by h
onto a free value, down to remove the strip and up to add it.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Iterable, Iterator

from .primes import NotPrime, is_prime

Partition = tuple[int, ...]
Cell = tuple[int, int]

# Largest |partition| the Gram oracle accepts unless told otherwise; it lives
# here, not in gram, so that the CLI's parser can name it without loading gram.
DEFAULT_SIZE_CAP = 16


class SizeMismatch(ValueError):
    """Dominance comparison of partitions of different sizes."""


class Dominance(enum.Enum):
    GREATER = "greater"
    LESS = "less"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def partition(parts: Iterable[int]) -> Partition:
    """Normalize to a canonical partition tuple, stripping trailing zeros."""
    p = tuple(int(x) for x in parts)
    while p and p[-1] == 0:
        p = p[:-1]
    if any(x <= 0 for x in p):
        raise ValueError(f"parts must be positive, got {p}")
    if any(a < b for a, b in zip(p, p[1:])):
        raise ValueError(f"parts must be weakly decreasing, got {p}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse the bracketed text form, e.g. ``"[5,2]"`` or ``"[]"``."""
    s = text.strip()
    if not s:
        raise ValueError("empty partition text; write [] for the empty partition")
    if s.startswith("[") and s.endswith("]"):
        s = s[1:-1]
    s = s.strip()
    if not s:
        return ()
    try:
        parts = [int(tok) for tok in s.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse partition from {text!r}") from exc
    return partition(parts)


def format_partition(lam: Partition) -> str:
    """Render as bracketed text, the inverse of :func:`parse_partition`."""
    return "[" + ",".join(str(x) for x in lam) + "]"


def conjugate(lam: Partition) -> Partition:
    """Transpose of the diagram (column lengths)."""
    lam = partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` in decreasing lexicographic order."""
    def rec(remaining: int, cap: int, prefix: Partition) -> Iterator[Partition]:
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    if n == 0:
        yield ()
    elif n > 0:
        yield from rec(n, n, ())


def tail_bounded_partitions(n: int, k: int) -> list[Partition]:
    """Partitions of ``n`` whose first row is at least ``n - k``, decreasing lex."""
    out: list[Partition] = []
    for j in range(min(k, n) + 1):
        first = n - j
        if first == 0:
            if not j:
                out.append(())
            continue
        for tail in partitions_of(j):
            if not tail or tail[0] <= first:
                out.append((first, *tail))
    return out


def dominance_compare(a: Partition, b: Partition) -> Dominance:
    """Compare partitions of equal size in the dominance (partial) order."""
    a, b = partition(a), partition(b)
    if sum(a) != sum(b):
        raise SizeMismatch(f"cannot compare partitions of {sum(a)} and {sum(b)}")
    if a == b:
        return Dominance.EQUAL
    ge = le = True
    ta = tb = 0
    for i in range(max(len(a), len(b))):
        ta += a[i] if i < len(a) else 0
        tb += b[i] if i < len(b) else 0
        if ta < tb:
            ge = False
        elif ta > tb:
            le = False
    if ge:
        return Dominance.GREATER
    if le:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def hook_lengths(lam: Partition) -> dict[Cell, int]:
    """Hook length (arm + leg + 1) of every cell, keyed by 1-based (row, col)."""
    lam = partition(lam)
    conj = conjugate(lam)
    return {
        (i, j): (part - j) + (conj[j - 1] - i) + 1
        for i, part in enumerate(lam, 1)
        for j in range(1, part + 1)
    }


def _moved(beads: set[int], old: int, new: int) -> Partition:
    """The partition of ``beads`` with ``old`` moved to the free value ``new``:
    distinct beads sorted downward give weakly decreasing parts >= 0."""
    moved = sorted((beads - {old}) | {new}, reverse=True)
    return tuple(part for t, v in enumerate(moved) if (part := v - (len(moved) - 1 - t)))


def removable_rim_hooks(lam: Partition, h: int) -> list[tuple[Cell, Partition]]:
    """All ways to peel a border strip of size ``h`` off the rim.

    One entry per cell with hook length exactly ``h``, ordered by (row, col)
    of that anchor; the remainder is the partition left after removal.
    Degenerate ``h`` (nonpositive, or larger than the diagram) gives ``[]``.
    """
    lam = partition(lam)
    if h <= 0:
        return []
    beads = [part + len(lam) - 1 - t for t, part in enumerate(lam)]
    taken = set(beads)
    # Row i's cells are the free values below its bead b, in increasing order,
    # so the anchor's column is one more than the free values below b - h.
    return [
        ((i, 1 + b - h - sum(c < b - h for c in beads)), _moved(taken, b, b - h))
        for i, b in enumerate(beads, 1)
        if b - h >= 0 and b - h not in taken
    ]


def _strips_added(mu: Partition, h: int, rows: int) -> list[Partition]:
    """``mu`` plus an ``h``-strip, each way that fits on ``rows`` >= len(mu) beads."""
    taken = {(mu[t] if t < len(mu) else 0) + rows - 1 - t for t in range(rows)}
    return [_moved(taken, b, b + h) for b in taken if b + h not in taken]


def addable_rim_hooks(mu: Partition, h: int) -> list[Partition]:
    """All partitions obtained from ``mu`` by adding a border strip of size ``h``,
    on len(mu) + h beads (the strip adds up to ``h`` rows), decreasing lex."""
    mu = partition(mu)
    if h <= 0:
        return []
    return sorted(_strips_added(mu, h, len(mu) + h), reverse=True)


def is_p_regular(lam: Partition, p: int) -> bool:
    """True when no part value repeats ``p`` or more times (``p`` must be prime)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return all(c < p for c in Counter(partition(lam)).values())
