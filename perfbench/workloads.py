"""The benchmark's workloads: inputs, operations and their correctness checks.

Each workload builds a list of ``Op`` from a seed.  The seed only permutes
operations whose work does not depend on what ran before them, so every seed
does the same work per operation.  Checks run after the timed loop and
compare each result with an expectation fixed here, never with a value the
timed code produced.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple

import specht

HERE = Path(__file__).resolve().parent
CLI_EXPECTED = HERE / "cli_expected.json"


class KnownDefect(NamedTuple):
    """A defect of the library that an operation's check catches.  A failed
    check that ``shows(result)`` recognises is reported as the defect, not as
    a failed operation; any other failed check still counts as failed."""

    reason: str
    shows: Callable[[Any], bool]


@dataclass
class Op:
    label: str
    kind: str
    call: Callable[[], Any]
    # check(result, results) -> bool; ``results`` holds every result of the
    # pass, for checks that span several operations.
    check: Callable[[Any, list], bool]
    known_defect: KnownDefect | None = None


class Reference(NamedTuple):
    """Fixed work the worker times after every operation, to measure how
    fast the shared host runs at that moment (see run.calibrated).  It is
    chosen to slow down as the workload's own operations do; changing it or
    its nominal time changes what every reported time means."""

    work: Callable[[], Any]
    # Its time on the 2-vCPU VM the benchmark was tuned on: reported times
    # are seconds on a host where the work takes this long.
    nominal_s: float
    repeats: int


def _python_loop() -> int:
    d: dict = {}
    for i in range(5000):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
    return len(d)


def _interpreter_start() -> None:
    subprocess.run([sys.executable, "-c", "pass"], check=True)


# oracle_grid runs in-process Python; cli_session starts processes, which a
# slow host slows more than it slows the loop.
PYTHON_LOOP = Reference(_python_loop, nominal_s=0.001, repeats=3)
INTERPRETER_START = Reference(_interpreter_start, nominal_s=0.08, repeats=1)


@dataclass
class Workload:
    ops: list[Op]
    reference: Reference
    # resource.getrusage target for peak memory: the worker itself, or the
    # CLI processes it starts.
    rss_of_children: bool = False


# -- oracle_grid -----------------------------------------------------------

GRID_TAILS = [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]
GRID_PRIMES = (5, 7, 11)
GRID_N = range(6, 15)
GRID_MIN_WINDOW = 80
SWEEP_MAX_N = 8


def _window(report) -> list:
    return [r for r in report.grid if r.in_regime and r.hypothesis]


def _grid_cell_ok(report) -> bool:
    return (
        report.passed
        and report.summary["errors"] == 0
        and all(r.match is True for r in _window(report))
    )


def oracle_grid(rng: random.Random, tiny: bool) -> Workload:
    tails = GRID_TAILS[:2] if tiny else GRID_TAILS
    ns = range(6, 8) if tiny else GRID_N
    min_window = 1 if tiny else GRID_MIN_WINDOW
    ops: list[Op] = []
    # The grid keeps run_verification's own (mu, n) walk: the tableau and
    # formula caches make a cell's work depend on the cells before it.
    cells = [(mu, n) for mu in tails for n in ns]
    grid_idx = range(len(cells))

    def last_cell_check(report, results) -> bool:
        total = sum(len(_window(results[i])) for i in grid_idx)
        return _grid_cell_ok(report) and total >= min_window

    for i, (mu, n) in enumerate(cells):
        ops.append(
            Op(
                label=f"verify {specht.format_partition(mu)} n={n}",
                kind="verify",
                call=lambda mu=mu, n=n: specht.run_verification([mu], GRID_PRIMES, [n]),
                check=(lambda r, _res: _grid_cell_ok(r))
                if i < len(cells) - 1
                else last_cell_check,
            )
        )
    # Characteristic-zero sweep.  Within one size every shape's smaller
    # subshapes are already cached and no two shapes share a Gram matrix, so
    # shuffling inside a size leaves each operation's work unchanged.
    for n in range(1, (3 if tiny else SWEEP_MAX_N) + 1):
        level = list(specht.partitions_of(n))
        rng.shuffle(level)
        for lam in level:
            expected = specht.specht_dimension(lam)
            ops.append(
                Op(
                    label=f"rational {specht.format_partition(lam)}",
                    kind="rational",
                    call=lambda lam=lam: specht.gram_rank_rational(lam),
                    check=lambda r, _res, e=expected: r == e,
                )
            )
    return Workload(ops, PYTHON_LOOP)


# -- cli_session -----------------------------------------------------------

CLI_TINY = 3


def _dim_table_333_ok(result, _res) -> bool:
    """dim-table [3,3,3] --max-residue 1 must either reject the range (exit 2)
    or still print the degenerate rows m = 6, 7, 8."""
    code, out = result
    if code == 2:
        return True
    text = out.decode()
    return code == 0 and all(f"  m == {m}: " in text for m in (6, 7, 8))


def _dim_table_333_truncated(result) -> bool:
    """Today's output: exit 0, the heading and the ``otherwise`` row only."""
    code, out = result
    rows = out.decode().splitlines()[1:]
    return code == 0 and len(rows) == 1 and rows[0].startswith("  otherwise: ")


# argv -> (check, the defect that check catches today).
KNOWN_DEFECTS = {
    ("dim-table", "[3,3,3]", "--max-residue", "1"): (
        _dim_table_333_ok,
        KnownDefect(
            "dim-table drops the degenerate rows m = 6, 7, 8 when "
            "--max-residue excludes them",
            _dim_table_333_truncated,
        ),
    ),
}


def run_cli(argv) -> tuple[int, bytes]:
    """One ``python -m specht`` process; returns its exit code and stdout."""
    proc = subprocess.run(
        [sys.executable, "-m", "specht", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, proc.stdout


def cli_session(rng: random.Random, tiny: bool, run=run_cli) -> Workload:
    """``run(argv)`` performs one CLI call; the traced run substitutes a
    child process that records spans."""
    entries = json.loads(CLI_EXPECTED.read_text())
    if tiny:
        entries = entries[:CLI_TINY] + [e for e in entries if e.get("known_defect")]
    # Every call is its own process, so any order does the same work.
    rng.shuffle(entries)
    ops = []
    for e in entries:
        argv = e["argv"]
        defect = None
        if e.get("known_defect"):
            check, defect = KNOWN_DEFECTS[tuple(argv)]
        else:

            def check(r, _res, code=e["exit"], out=e["stdout"].encode()):
                return r == (code, out)

        ops.append(
            Op(
                label="specht " + " ".join(argv),
                kind="cli",
                call=lambda argv=argv: run(argv),
                check=check,
                known_defect=defect,
            )
        )
    return Workload(ops, INTERPRETER_START, rss_of_children=True)


BUILDERS = {
    "oracle_grid": oracle_grid,
    "cli_session": cli_session,
}
