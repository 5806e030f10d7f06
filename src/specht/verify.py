"""Grid verification of the polynomial dimension formulas against the Gram oracle.

Every (mu, p, n) record compares irreducible_dimension_formula(mu, n mod p)
evaluated at n with the Gram rank mod p of (n - |mu|, mu); gram_ranks_mod_p
gives it at all the primes of a (mu, n) cell in one call. Records where the
padded shape is p-singular or n <= p are out of regime: they are reported
but excluded from pass/fail. Mismatches only count against the run when the
record also lies in the window of _in_window, where the formula is expected
to hold; inside that window an error state counts as a failed comparison.
Per-record failures never abort the grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

from .decomposition import (
    NotTotallyOrdered,
    SizeError,
    irreducible_dimension_formula,
)
from .dimensions import pad_partition
from .gram import TooLarge, _checked, gram_ranks_mod_p
from .gram import gram_rank_mod_p  # noqa: F401  a tracer boundary in perfbench/tracing.py
from .partitions import DEFAULT_SIZE_CAP, Partition, format_partition, is_p_regular, partition


@dataclass
class VerificationRecord:
    mu: Partition
    p: int
    n: int
    m: int
    k: int
    hypothesis: bool  # _in_window(k, p, n)
    in_regime: bool  # padded shape valid and p-regular, and n > p
    formula_dim: int | None = None
    oracle_dim: int | None = None
    match: bool | None = None
    error: str | None = None

    def to_json_obj(self) -> dict:
        """The fields as a JSON object, keys in field order."""
        return {**asdict(self), "mu": list(self.mu)}


@dataclass
class VerificationReport:
    grid: list[VerificationRecord]
    summary: dict[str, int]

    @property
    def passed(self) -> bool:
        return self.summary["conjecture_mismatches"] == 0

    def to_json_obj(self) -> dict:
        return {
            "grid": [rec.to_json_obj() for rec in self.grid],
            "summary": dict(self.summary),
        }

    def render_text(self) -> str:
        lines = ["mu         p   n   m  formula  oracle  match  regime"]
        for r in self.grid:
            formula = "-" if r.formula_dim is None else str(r.formula_dim)
            oracle = "-" if r.oracle_dim is None else str(r.oracle_dim)
            if r.error is not None:
                status = "error"
            elif r.match is None:
                status = "-"
            else:
                status = "yes" if r.match else "NO"
            regime = "in" if r.in_regime else "out"
            if r.hypothesis:
                regime += "+hyp"
            lines.append(
                f"{format_partition(r.mu):<10} {r.p:<3} {r.n:<3} {r.m:<2} "
                f"{formula:>7}  {oracle:>6}  {status:<5}  {regime}"
            )
            if r.error is not None:
                lines.append(f"    error: {r.error}")
        lines.append("")
        lines += [f"{key}: {value}" for key, value in self.summary.items()]
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(f"verdict: {verdict}")
        return "\n".join(lines) + "\n"


def _in_window(k: int, p: int, n: int) -> bool:
    """Whether a record of tail size k lies in the window p > k, n > 4k, in
    which the formula is expected to hold."""
    return p > k and n > 4 * k


def _mu_sort_key(mu: Partition):
    return (sum(mu), tuple(-x for x in mu))


def run_verification(
    mu_list: Iterable[Partition],
    p_list: Iterable[int],
    n_values: Iterable[int],
    size_cap: int = DEFAULT_SIZE_CAP,
) -> VerificationReport:
    """Compare formula and oracle on the full (mu, p, n) grid.

    Records come out in (mu, p, n) lexicographic order (mu graded by size);
    internally the grid is walked by (mu, n) cell, and each cell's Gram
    matrix is ranked at all its primes in one call.  Every p is checked
    before the walk (NotPrime, or ValueError past the kernel's limit), since
    a cell whose shape does not pad never reaches the oracle.
    """
    mus = sorted({partition(mu) for mu in mu_list}, key=_mu_sort_key)
    ps = _checked(sorted(set(p_list)))
    ns = sorted(set(n_values))
    cells = {(mu, n): _cell_records(mu, n, ps, size_cap) for mu in mus for n in ns}
    grid = [cells[mu, n][i] for mu in mus for i in range(len(ps)) for n in ns]
    summary = {
        "records": len(grid),
        "in_regime": sum(1 for r in grid if r.in_regime),
        "out_of_regime": sum(1 for r in grid if not r.in_regime),
        "matches": sum(1 for r in grid if r.match is True),
        "mismatches": sum(1 for r in grid if r.match is False),
        "conjecture_mismatches": sum(
            1 for r in grid if r.in_regime and r.hypothesis and r.match is not True
        ),
        "errors": sum(1 for r in grid if r.error is not None),
    }
    return VerificationReport(grid=grid, summary=summary)


def _add_error(rec: VerificationRecord, prefix: str, exc: Exception) -> None:
    msg = f"{prefix}: {exc}"
    rec.error = msg if rec.error is None else f"{rec.error}; {msg}"


def _cell_records(
    mu: Partition, n: int, ps: Sequence[int], size_cap: int
) -> list[VerificationRecord]:
    """The records of one (mu, n) cell, one per prime in ps.  The oracle
    ranks the cell's Gram matrix at every prime in one call, before the
    formulas run."""
    k = sum(mu)
    ranks: dict[int, int] = {}
    shape_error = oracle_error = None
    try:
        lam = pad_partition(mu, n)
    except ValueError as exc:
        shape_error = exc
    else:
        try:
            ranks = gram_ranks_mod_p(lam, ps, size_cap)
        except (TooLarge, MemoryError) as exc:
            oracle_error = exc
    records = []
    for p in ps:
        rec = VerificationRecord(
            mu=mu,
            p=p,
            n=n,
            m=n % p,
            k=k,
            hypothesis=_in_window(k, p, n),
            in_regime=False,
        )
        records.append(rec)
        if shape_error is not None:
            _add_error(rec, "shape", shape_error)
            continue
        rec.in_regime = n > p and is_p_regular(lam, p)
        try:
            value = irreducible_dimension_formula(mu, rec.m)(n)
            if value.denominator == 1:
                rec.formula_dim = int(value)
            else:
                _add_error(rec, "formula", ValueError(f"non-integral value {value}"))
        except (NotTotallyOrdered, SizeError) as exc:
            _add_error(rec, "formula", exc)
        if oracle_error is not None:
            _add_error(rec, "oracle", oracle_error)
        rec.oracle_dim = ranks.get(p)
        if rec.formula_dim is not None and rec.oracle_dim is not None:
            rec.match = rec.formula_dim == rec.oracle_dim
    return records
