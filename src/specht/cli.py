"""Command-line interface.

Each subcommand returns (JSON object, text), and verify also its exit
code; main writes the one --json picks, plus a newline, in one stdout write.

Exit codes: 0 success; 1 verification found an in-regime mismatch inside
the window of verify._in_window; 2 invalid input, or a --dump file that
cannot be written; 3 an internal limit was hit (size cap, search ceiling,
a matrix too large to allocate) or an internal self-check failed.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, Sequence

from . import _HOME, _attach
from .partitions import (
    DEFAULT_SIZE_CAP,
    Partition,
    format_partition,
    parse_partition,
    tail_bounded_partitions,
)

if TYPE_CHECKING:
    from .dimensions import RationalPolynomial

# Library functions resolve through the package's name table on first use,
# so a formula subcommand never loads gram or verify.  Subcommands call them
# as _cli.name, so a wrapper set on the attribute, as perfbench/tracing.py
# sets, is the function that runs.
_cli = sys.modules[__name__]
__getattr__ = _attach(globals(), _HOME)

_DEFAULT_VERIFY_MU = ("[]", "[1]", "[2]", "[1,1]", "[3]", "[2,1]", "[1,1,1]")
_DEFAULT_VERIFY_P = (5, 7, 11)


def _family_label(mu: Partition) -> str:
    k = sum(mu)
    first = f"n-{k}" if k else "n"
    return "[" + ",".join([first, *map(str, mu)]) + "]"


def _poly_json(poly: RationalPolynomial) -> dict:
    return {
        "degree": poly.degree,
        "coefficients": [str(c) for c in poly.coefficients],
        "text": str(poly),
    }


def cmd_dim_specht(args: argparse.Namespace) -> tuple[dict, str]:
    lam = parse_partition(args.partition)
    dim = _cli.specht_dimension(lam)
    obj = {"partition": list(lam), "dimension": dim}
    return obj, f"dim S{format_partition(lam)} = {dim}"


def cmd_dim_poly(args: argparse.Namespace) -> tuple[dict, str]:
    mu = parse_partition(args.tail)
    poly = _cli.specht_dimension_polynomial(mu)
    threshold = max(_cli.padding_threshold(mu), 1)
    obj = {"tail": list(mu), "threshold": threshold, **_poly_json(poly)}
    return obj, f"dim S{_family_label(mu)} = {poly}  (valid for n >= {threshold})"


def cmd_a_set(args: argparse.Namespace) -> tuple[dict, str]:
    lam = parse_partition(args.partition)
    chain = _cli.rim_hook_chain(lam, args.m)
    elements = chain.elements
    obj = {"base": list(lam), "m": args.m, "elements": [list(el) for el in elements]}
    lines = [f"A({format_partition(lam)}, m={args.m}):"]
    lines += [f"  {format_partition(el)}" for el in elements]
    return obj, "\n".join(lines)


def cmd_decompose_irr(args: argparse.Namespace) -> tuple[list, str]:
    lam = parse_partition(args.partition)
    vec = _cli.decompose_irreducible(lam, args.m)
    return vec.to_json_obj(), f"D{format_partition(lam)} = {vec}"


def cmd_decompose_std(args: argparse.Namespace) -> tuple[list, str]:
    lam = parse_partition(args.partition)
    family = tail_bounded_partitions(sum(lam), args.k)
    vec = _cli.decompose_standard(lam, args.m, family)
    return vec.to_json_obj(), f"S{format_partition(lam)} = {vec}"


def cmd_dim_table(args: argparse.Namespace) -> tuple[dict, str]:
    mu = parse_partition(args.tail)
    table = _cli.irreducible_dimension_table(mu)
    cases = [{"residue": m, **_poly_json(poly)} for m, poly in sorted(table.cases.items())]
    obj = {"tail": list(mu), "cases": cases, "default": _poly_json(table.default)}
    lines = [f"dim D{_family_label(mu)} for n == m (mod p), n large:"]
    lines += ["  " + line for line in table.render().splitlines()]
    return obj, "\n".join(lines)


def cmd_gram_rank(args: argparse.Namespace) -> tuple[dict, str]:
    lam = parse_partition(args.partition)
    rank = _cli.gram_rank_mod_p(lam, args.p, args.size_cap)
    if args.dump is not None:
        from .gram import _gram_dump_lines

        with open(args.dump, "w", encoding="ascii") as fh:
            fh.writelines(_gram_dump_lines(lam, args.p, args.size_cap))
    obj = {"partition": list(lam), "p": args.p, "rank": rank}
    return obj, f"gram rank of {format_partition(lam)} mod {args.p} = {rank}"


def cmd_verify(args: argparse.Namespace) -> tuple[dict, str, int]:
    if args.n_min > args.n_max:
        raise ValueError("--n-min must not exceed --n-max")
    mus = [parse_partition(text) for text in (args.mu or _DEFAULT_VERIFY_MU)]
    ps = args.p or list(_DEFAULT_VERIFY_P)
    report = _cli.run_verification(
        mus, ps, range(args.n_min, args.n_max + 1), size_cap=args.size_cap
    )
    text = report.render_text().removesuffix("\n")
    return report.to_json_obj(), text, 0 if report.passed else 1


def cmd_prime_seq(args: argparse.Namespace) -> tuple[dict, str]:
    coeffs = _cli.parse_coefficients(args.coefficients)
    pairs = _cli.prime_parameter_sequence(
        coeffs, args.count, p_min=args.p_min, search_limit=args.search_limit
    )
    obj = {"coefficients": list(coeffs), "pairs": [{"t": x.t, "p": x.p} for x in pairs]}
    return obj, "\n".join(f"({x.t}, {x.p})" for x in pairs)


def _size_cap(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specht",
        description="Rim-hook decompositions and dimension formulas for modular "
        "Specht modules, with a Gram-matrix oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--json", action="store_true", help="emit JSON")
        return p

    def add_size_cap(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--size-cap",
            type=_size_cap,
            default=os.environ.get("SPECHT_SIZE_CAP", DEFAULT_SIZE_CAP),
            help="largest |partition| accepted (env SPECHT_SIZE_CAP)",
        )

    p = add("dim-specht", cmd_dim_specht, "dimension of a Specht module")
    p.add_argument("partition", help="partition, e.g. [5,2]")

    p = add("dim-poly", cmd_dim_poly, "dimension polynomial of a padded family")
    p.add_argument("tail", help="tail partition, e.g. [2]")

    p = add("a-set", cmd_a_set, "rim-hook chain of a partition at residue m")
    p.add_argument("partition", help="partition, e.g. [5,2]")
    p.add_argument("m", type=int, help="residue of n modulo the characteristic")

    p = add("decompose-irr", cmd_decompose_irr, "irreducible class in Specht classes")
    p.add_argument("partition", help="partition, e.g. [5,2]")
    p.add_argument("m", type=int, help="residue of n modulo the characteristic")

    p = add("decompose-std", cmd_decompose_std, "Specht class in irreducible classes")
    p.add_argument("partition", help="partition, e.g. [5,2]")
    p.add_argument("m", type=int, help="residue of n modulo the characteristic")
    p.add_argument("k", type=int, help="family bound: all nu of n with n - nu[0] <= k")

    p = add("dim-table", cmd_dim_table, "residue-split irreducible dimension table")
    p.add_argument("tail", help="tail partition, e.g. [2]")

    p = add("gram-rank", cmd_gram_rank, "rank of the Gram matrix over F_p")
    p.add_argument("partition", help="partition, e.g. [5,2]")
    p.add_argument("p", type=int, help="prime characteristic")
    add_size_cap(p)
    p.add_argument("--dump", metavar="FILE", help="also write the mod-p matrix dump")

    p = add("verify", cmd_verify, "formula-vs-oracle verification grid")
    p.add_argument(
        "--mu",
        action="append",
        help="tail partition, repeatable (default: all tails of size <= 3)",
    )
    p.add_argument(
        "--p",
        action="append",
        type=int,
        help="prime, repeatable (default: 5 7 11)",
    )
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, required=True)
    add_size_cap(p)

    p = add("prime-seq", cmd_prime_seq, "prime parameter pairs (t, p) with p | q(t)")
    p.add_argument("coefficients", help="constant-first coefficients, e.g. 1,0,1")
    p.add_argument("count", type=int, help="number of pairs")
    p.add_argument(
        "--p-min",
        type=int,
        default=2,
        help="primes must strictly exceed this (default 2: odd primes only)",
    )
    p.add_argument(
        "--search-limit",
        type=int,
        default=100_000,
        help="give up after scanning this many values of t",
    )

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # One BLAS thread unless the caller chose otherwise: on a 2-vCPU host it
    # is no slower idle and faster beside one busy process (CHANGES.md).
    # numpy reads these when it loads, which the Gram work does after this.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = build_parser().parse_args(argv)
    try:
        obj, text, *code = args.func(args)
        if args.json:
            import json  # only here: a text call does not pay its import

            text = json.dumps(obj)
        # One write: output that fits the pipe is all in it before a reader
        # such as `head -1` can close it, so no later write meets EPIPE.
        sys.stdout.write(text + "\n")
        return code[0] if code else 0
    except (RuntimeError, MemoryError) as exc:
        # TooLarge, SearchExhausted, the Pollard rho self-check, and a
        # matrix too large to allocate.
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
