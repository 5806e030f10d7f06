"""In-memory spans around the library's layer boundaries.

The tracer replaces module attributes of ``specht`` with thin wrappers while
it is installed, so every call that goes through one of the boundaries in
``BOUNDARIES`` records a span (name, start, end, parent, operation).  The
library's files are not touched: the wrappers live here and are removed by
``uninstall``.  Counts are computed from the values the wrapped calls return.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# Prefix of the stderr line on which a traced CLI child reports its trace.
TRACE_MARKER = "PERFBENCH-TRACE "

# (module, attribute, layer).  A layer is named "<module>.<stage>" after the
# library module that does the work; several attributes can feed one layer
# because each caller module holds its own reference to the function.
BOUNDARIES = (
    ("specht.gram", "_standard_tableaux", "gram.tableaux"),
    ("specht.gram", "polytabloid", "gram.polytabloid"),
    ("specht.gram", "_gram_matrix_cached", "gram.assembly"),
    ("specht.gram", "modular_rank", "gram.elimination"),
    ("specht.gram", "integer_rank", "gram.rational_rank"),
    ("specht", "run_verification", "verify.run"),
    ("specht.cli", "run_verification", "verify.run"),
    ("specht.verify", "irreducible_dimension_formula", "verify.formula"),
    ("specht.verify", "gram_rank_mod_p", "verify.oracle"),
    ("specht", "irreducible_dimension_table", "decomposition.table"),
    ("specht.cli", "irreducible_dimension_table", "decomposition.table"),
    ("specht.decomposition", "irreducible_dimension_formula", "decomposition.formula"),
    ("specht.decomposition", "rim_hook_chain", "decomposition.chain"),
    ("specht.cli", "rim_hook_chain", "decomposition.chain"),
    ("specht.decomposition", "specht_dimension_polynomial", "dimensions.polynomial"),
    ("specht.cli", "specht_dimension_polynomial", "dimensions.polynomial"),
    ("specht.cli", "main", "cli.main"),
    ("specht.cli", "prime_parameter_sequence", "parameters.sequence"),
    ("specht.parameters", "prime_factors", "primes.factor"),
)

COUNTS = (
    "gram.tableaux_count",
    "gram.incidence_nnz",
    "gram.tabloids",
    "gram.pairs",
    "gram.elimination_calls",
    "gram.rank_sum",
    "gram.workspace_bytes",
    "verify.records",
    "verify.window_records",
    "verify.errors",
    "decomposition.chain_len_sum",
    "decomposition.degenerate_residues",
    "dimensions.polynomial_calls",
    "primes.factor_calls",
)


class Tracer:
    """Collects spans and counts while installed; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: dict[str, int] = {name: 0 for name in COUNTS}
        self.op = -1
        # Span id -> seconds of counting done inside it (None: outside any).
        self.bookkeeping: dict[int | None, float] = defaultdict(float)
        self._stack: list[tuple[int, str]] = []
        self._patches: list[tuple[object, str, object]] = []
        self._tabloids: set = set()
        # Layer -> count(result, args, missed), run after the layer's call
        # returns; ``missed`` is False when a cached function hit its cache.
        self._counters = {
            "gram.tableaux": self._count_tableaux,
            "gram.polytabloid": self._count_polytabloid,
            "gram.assembly": self._count_assembly,
            "gram.elimination": self._count_elimination,
            "verify.run": self._count_verification,
            "decomposition.table": self._count_table,
            "decomposition.chain": self._count_chain,
            "dimensions.polynomial": self._count_polynomial,
            "primes.factor": self._count_factor,
        }

    # -- spans -------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span.  A call re-entering the span it is
        already in (recursion through a module attribute) is not split."""
        if self._stack and self._stack[-1][1] == name:
            return fn(*args, **kwargs)
        sid = len(self.spans) + len(self._stack)
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def install(self) -> None:
        for module_name, attr, layer in BOUNDARIES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrapper(layer, original))
            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrapper(self, layer: str, original):
        count = self._counters.get(layer)
        cache_info = getattr(original, "cache_info", None)

        def wrapper(*args, **kwargs):
            nested = bool(self._stack) and self._stack[-1][1] == layer
            if count is None or nested:
                return self.span(layer, original, *args, **kwargs)
            t0 = time.perf_counter()
            misses = cache_info().misses if cache_info else 0
            t1 = time.perf_counter()
            result = self.span(layer, original, *args, **kwargs)
            t2 = time.perf_counter()
            missed = cache_info is None or cache_info().misses > misses
            count(result, args, missed)
            # The counting ran inside the caller's span; bill it to
            # "trace.count", not to the caller's self time.
            parent = self._stack[-1][0] if self._stack else None
            self.bookkeeping[parent] += (t1 - t0) + (time.perf_counter() - t2)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    # -- counts from returned values -------------------------------------

    def _count_tableaux(self, result, args, missed) -> None:
        self.counts["gram.tableaux_count"] += len(result)

    def _count_polytabloid(self, result, args, missed) -> None:
        self.counts["gram.incidence_nnz"] += len(result)
        self._tabloids.update(result)

    def _count_assembly(self, result, args, missed) -> None:
        if missed:
            d = len(result)
            self.counts["gram.pairs"] += d * (d + 1) // 2
            self.counts["gram.tabloids"] += len(self._tabloids)
        self._tabloids.clear()

    def _count_elimination(self, result, args, missed) -> None:
        rows = args[0]
        d_rows = len(rows)
        d_cols = len(rows[0]) if d_rows else 0
        self.counts["gram.elimination_calls"] += 1
        self.counts["gram.rank_sum"] += result
        self.counts["gram.workspace_bytes"] += 8 * d_rows * d_cols

    def _count_table(self, result, args, missed) -> None:
        self.counts["decomposition.degenerate_residues"] += len(result.cases)

    def _count_chain(self, result, args, missed) -> None:
        self.counts["decomposition.chain_len_sum"] += len(result.elements)

    def _count_polynomial(self, result, args, missed) -> None:
        self.counts["dimensions.polynomial_calls"] += 1

    def _count_factor(self, result, args, missed) -> None:
        self.counts["primes.factor_calls"] += 1

    def _count_verification(self, report, args, missed) -> None:
        self.counts["verify.records"] += report.summary["records"]
        self.counts["verify.errors"] += report.summary["errors"]
        self.counts["verify.window_records"] += sum(
            1 for r in report.grid if r.in_regime and r.hypothesis
        )

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds each layer spent outside its child spans and the tracer's
        counting, summed; the counting itself is "trace.count"."""
        child_time: dict[int, float] = defaultdict(float, self.bookkeeping)
        for _sid, _name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, name, start, end, _parent, _op in self.spans:
            out[name] += (end - start) - child_time[sid]
        out["trace.count"] = sum(self.bookkeeping.values())
        return dict(out)
