"""Exact combinatorics of symmetric-group Specht modules in positive characteristic.

The package computes rim-hook chains and the alternating Specht-class
expansions of low-degree modular irreducibles, lifts the resulting
dimensions to closed polynomials in n split by congruence class, checks
everything against a brute-force Gram-matrix oracle over F_p, and produces
prime parameter sequences from integer polynomials. All core arithmetic is
exact; every public operation is a pure function.
"""

from .decomposition import (
    IRREDUCIBLE,
    SPECHT,
    CongruencePolynomial,
    FamilyIncomplete,
    GrothendieckVector,
    NotTotallyOrdered,
    RimHookChain,
    SizeError,
    decompose_irreducible,
    decompose_standard,
    irreducible_dimension_formula,
    irreducible_dimension_table,
    rim_hook_chain,
)
from .dimensions import (
    EmptyPartition,
    RationalPolynomial,
    pad_partition,
    padding_threshold,
    specht_dimension,
    specht_dimension_polynomial,
)
from .gram import (
    DEFAULT_SIZE_CAP,
    TooLarge,
    format_gram_dump,
    gram_matrix,
    gram_rank_mod_p,
    gram_rank_rational,
    integer_rank,
    irreducible_dim_hook_family_check,
    modular_rank,
    polytabloid,
    standard_tableaux,
)
from .parameters import (
    ParameterPair,
    SearchExhausted,
    divisor_prime_census,
    evaluate,
    integer_polynomial,
    parse_coefficients,
    prime_parameter_sequence,
)
from .partitions import (
    Dominance,
    NotPrime,
    Partition,
    SizeMismatch,
    addable_rim_hooks,
    conjugate,
    dominance_compare,
    format_partition,
    hook_lengths,
    is_p_regular,
    parse_partition,
    partition,
    partitions_of,
    removable_rim_hooks,
    tail_bounded_partitions,
)
from .verify import VerificationRecord, VerificationReport, run_verification

__version__ = "0.1.0"

__all__ = [
    "CongruencePolynomial",
    "DEFAULT_SIZE_CAP",
    "Dominance",
    "EmptyPartition",
    "FamilyIncomplete",
    "GrothendieckVector",
    "IRREDUCIBLE",
    "NotPrime",
    "NotTotallyOrdered",
    "ParameterPair",
    "Partition",
    "RationalPolynomial",
    "RimHookChain",
    "SPECHT",
    "SearchExhausted",
    "SizeError",
    "SizeMismatch",
    "TooLarge",
    "VerificationRecord",
    "VerificationReport",
    "addable_rim_hooks",
    "conjugate",
    "decompose_irreducible",
    "decompose_standard",
    "divisor_prime_census",
    "dominance_compare",
    "evaluate",
    "format_gram_dump",
    "format_partition",
    "gram_matrix",
    "gram_rank_mod_p",
    "gram_rank_rational",
    "hook_lengths",
    "integer_polynomial",
    "integer_rank",
    "irreducible_dim_hook_family_check",
    "irreducible_dimension_formula",
    "irreducible_dimension_table",
    "is_p_regular",
    "modular_rank",
    "pad_partition",
    "padding_threshold",
    "parse_coefficients",
    "parse_partition",
    "partition",
    "partitions_of",
    "polytabloid",
    "prime_parameter_sequence",
    "removable_rim_hooks",
    "rim_hook_chain",
    "run_verification",
    "specht_dimension",
    "specht_dimension_polynomial",
    "standard_tableaux",
    "tail_bounded_partitions",
]
