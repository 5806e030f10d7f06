"""Exact combinatorics of symmetric-group Specht modules in positive characteristic.

The package computes rim-hook chains and the alternating Specht-class
expansions of low-degree modular irreducibles, lifts the resulting
dimensions to closed polynomials in n split by congruence class, checks
everything against a brute-force Gram-matrix oracle over F_p, and produces
prime parameter sequences from integer polynomials. All core arithmetic is
exact; every public operation is a pure function.
"""

import importlib

__version__ = "0.1.0"

# Home module of every public name.  Importing the package loads none of
# them; a module's first name to be used imports it (PEP 562), so a formula
# call never compiles the Gram oracle.
_EXPORTS = {
    "decomposition": (
        "IRREDUCIBLE",
        "SPECHT",
        "CongruencePolynomial",
        "FamilyIncomplete",
        "GrothendieckVector",
        "NotTotallyOrdered",
        "RimHookChain",
        "SizeError",
        "decompose_irreducible",
        "decompose_standard",
        "irreducible_dimension_formula",
        "irreducible_dimension_table",
        "rim_hook_chain",
    ),
    "dimensions": (
        "EmptyPartition",
        "RationalPolynomial",
        "pad_partition",
        "padding_threshold",
        "specht_dimension",
        "specht_dimension_polynomial",
    ),
    "gram": (
        "TooLarge",
        "format_gram_dump",
        "gram_matrix",
        "gram_rank_mod_p",
        "gram_rank_rational",
        "gram_ranks_mod_p",
        "integer_rank",
        "irreducible_dim_hook_family_check",
        "modular_rank",
        "modular_ranks",
        "polytabloid",
        "standard_tableaux",
    ),
    "parameters": (
        "ParameterPair",
        "SearchExhausted",
        "divisor_prime_census",
        "evaluate",
        "integer_polynomial",
        "parse_coefficients",
        "prime_parameter_sequence",
    ),
    "partitions": (
        "DEFAULT_SIZE_CAP",
        "Dominance",
        "Partition",
        "SizeMismatch",
        "addable_rim_hooks",
        "conjugate",
        "dominance_compare",
        "format_partition",
        "hook_lengths",
        "is_p_regular",
        "parse_partition",
        "partition",
        "partitions_of",
        "removable_rim_hooks",
        "tail_bounded_partitions",
    ),
    "primes": ("NotPrime",),
    "verify": ("VerificationRecord", "VerificationReport", "run_verification"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _attach(namespace: dict, home: dict[str, str]):
    """A module ``__getattr__`` (PEP 562) that imports the submodule
    ``home[name]`` on first access to ``name`` and caches the value in
    ``namespace``, the module's globals."""

    def __getattr__(name: str):
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
        namespace[name] = value
        return value

    return __getattr__


__getattr__ = _attach(globals(), _HOME)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
