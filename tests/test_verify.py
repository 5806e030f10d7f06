"""The formula-vs-oracle verification grid."""

import pytest

import specht.verify as verify_mod
from specht import NotPrime, gram_rank_mod_p, pad_partition, run_verification


def _record(report, mu, p, n):
    for rec in report.grid:
        if rec.mu == mu and rec.p == p and rec.n == n:
            return rec
    raise AssertionError(f"no record for {mu}, {p}, {n}")


def test_small_grid_passes():
    report = run_verification([(), (1,)], [5], range(6, 10))
    assert report.passed
    assert report.summary["records"] == 8
    assert report.summary["matches"] == 8
    assert report.summary["mismatches"] == 0
    assert report.summary["errors"] == 0
    assert report.summary["in_regime"] + report.summary["out_of_regime"] == 8


def test_known_values_on_the_grid():
    report = run_verification([(2,)], [5], [7, 12])
    first = _record(report, (2,), 5, 7)
    assert (first.formula_dim, first.oracle_dim, first.match) == (8, 8, True)
    second = _record(report, (2,), 5, 12)
    assert (second.formula_dim, second.oracle_dim, second.match) == (43, 43, True)


def test_trivial_tail_on_the_grid():
    report = run_verification([()], [7], [9])
    rec = _record(report, (), 7, 9)
    assert (rec.formula_dim, rec.oracle_dim, rec.match) == (1, 1, True)


def test_record_bookkeeping():
    report = run_verification([(1,)], [5], [6, 12])
    rec = _record(report, (1,), 5, 12)
    assert rec.m == 2 and rec.k == 1
    assert rec.hypothesis  # 5 > 1 and 12 > 4
    assert rec.in_regime  # 12 > 5 and (11,1) is 5-regular


def test_records_below_p_are_out_of_regime():
    report = run_verification([(1,)], [7], [5, 6, 7])
    for n in (5, 6, 7):
        assert not _record(report, (1,), 7, n).in_regime


def test_p_singular_shapes_are_out_of_regime():
    # (2,2) padded at n = 4 is (2,2): two repeats, 2-singular
    report = run_verification([(2,)], [2], [4])
    rec = _record(report, (2,), 2, 4)
    assert not rec.in_regime


def test_oracle_errors_are_recorded_not_raised():
    report = run_verification([(1,)], [5], [6], size_cap=3)
    rec = _record(report, (1,), 5, 6)
    assert rec.error is not None and "oracle" in rec.error
    assert rec.oracle_dim is None and rec.match is None
    assert report.summary["errors"] == 1
    # the record sits inside the hypothesis window, so the run cannot pass
    assert rec.in_regime and rec.hypothesis
    assert not report.passed


def _record_oracle_calls(monkeypatch):
    """Wrap the Gram oracle verify calls; the returned list gets (shape,
    primes) per call."""
    calls = []
    ranks = verify_mod.gram_ranks_mod_p

    def record(lam, primes, size_cap):
        calls.append((lam, list(primes)))
        return ranks(lam, primes, size_cap)

    monkeypatch.setattr(verify_mod, "gram_ranks_mod_p", record)
    return calls


def test_oracle_is_called_once_per_cell(monkeypatch):
    calls = _record_oracle_calls(monkeypatch)
    report = run_verification([(3,), (1,)], [11, 5, 7], range(4, 9))
    # (n - 3, 3) is a partition only from n = 6: no oracle call before.
    assert calls == [((n - 1, 1), [5, 7, 11]) for n in range(4, 9)] + [
        ((n - 3, 3), [5, 7, 11]) for n in range(6, 9)
    ]
    for rec in report.grid:
        if rec.mu == (3,) and rec.n < 6:
            assert rec.error.startswith("shape: ") and rec.oracle_dim is None
        else:
            lam = pad_partition(rec.mu, rec.n)
            assert rec.oracle_dim == gram_rank_mod_p(lam, rec.p)


def test_size_capped_cell_records_the_error_at_every_prime(monkeypatch):
    calls = _record_oracle_calls(monkeypatch)
    report = run_verification([(1,)], [5, 7], [6], size_cap=3)
    assert len(calls) == 1
    for rec in report.grid:
        assert rec.error == "oracle: |[5,1]| = 6 exceeds the size cap 3"
        assert rec.formula_dim is not None
        assert rec.oracle_dim is None and rec.match is None
    assert report.summary["errors"] == 2


def test_composite_prime_raises_unless_the_cap_refuses_first():
    with pytest.raises(NotPrime, match="^4 is not prime$"):
        run_verification([(1,)], [5, 4, 6], [6])
    # 9 > n: out of regime without a regularity check, which would raise
    report = run_verification([(1,)], [5, 9], [6], size_cap=3)
    assert [rec.error for rec in report.grid] == [
        "oracle: |[5,1]| = 6 exceeds the size cap 3"
    ] * 2
    with pytest.raises(NotPrime, match="^9 is not prime$"):
        run_verification([(1,)], [5, 9], [6])


def test_grid_order_is_mu_then_p_then_n():
    report = run_verification([(1,), ()], [7, 5], [7, 6])
    keys = [(r.mu, r.p, r.n) for r in report.grid]
    assert keys == [
        ((), 5, 6),
        ((), 5, 7),
        ((), 7, 6),
        ((), 7, 7),
        ((1,), 5, 6),
        ((1,), 5, 7),
        ((1,), 7, 6),
        ((1,), 7, 7),
    ]


def test_json_shape():
    report = run_verification([()], [5], [6])
    obj = report.to_json_obj()
    assert set(obj) == {"grid", "summary"}
    rec = obj["grid"][0]
    assert rec["mu"] == [] and rec["p"] == 5 and rec["n"] == 6
    assert rec["match"] is True
    assert obj["summary"]["records"] == 1


def test_render_text():
    report = run_verification([()], [5], [6, 7])
    text = report.render_text()
    assert text.splitlines()[0].startswith("mu")
    assert "verdict: PASS" in text
    assert "conjecture_mismatches: 0" in text
