"""Arithmetic of the benchmark: the tail rule, spreads, miss plausibility."""

import math

import pytest

from metrics import (
    MC_MISS_RATE,
    binomial_upper_tail,
    implausible_misses,
    quartile_spread,
    ratio,
    tail,
)


@pytest.mark.parametrize(
    "n, percentile, value",
    [
        (1000, 99.0, 990),  # p99 of 1000 passes: 10 beyond it
        (100, 90.0, 90),
        (20, 50.0, 10),
        (11, 100.0 / 11, 1),  # the smallest sample still has 10 beyond it
        (10, 100.0, 10),  # too few passes: the maximum
        (1, 100.0, 1),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile, value):
    samples = list(range(n, 0, -1))  # order must not matter
    got_pct, got = tail(samples)
    assert got == value
    assert got_pct == pytest.approx(percentile)
    if n > 10:
        assert sum(s > got for s in samples) == 10


def test_tail_rejects_empty():
    with pytest.raises(ValueError):
        tail([])


def test_quartile_spread_is_iqr_over_median():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9]) == pytest.approx((7.5 - 2.5) / 5)


def test_binomial_tail_matches_direct_sum():
    n, p = 12, 0.3
    for k in range(n + 2):
        direct = sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))
        assert binomial_upper_tail(k, n, p) == pytest.approx(direct, rel=1e-12, abs=1e-300)


def test_mc_miss_rate_is_two_sided_three_sigma():
    assert MC_MISS_RATE == pytest.approx(0.0026998, rel=1e-4)


def mc_run(seeds, checks_per_seed, missed):
    """Distinct (seed, experiment, check) outcomes of a Monte-Carlo run."""
    checked = {(seed, "mse", f"additivity_{k}") for seed in seeds for k in range(checks_per_seed)}
    return checked, {c for c in checked if (c[0], c[2]) in missed}


def test_one_miss_in_192_distinct_checks_is_plausible():
    checked, missed = mc_run(range(12), 16, {(7, "additivity_4")})
    assert len(checked) == 192 and len(missed) == 1
    assert implausible_misses(checked, missed) == []
    assert implausible_misses(set(), set()) == []


def test_one_check_missing_at_every_seed_of_an_8_pass_run_is_flagged():
    checked, missed = mc_run(range(8), 16, {(seed, "additivity_3") for seed in range(8)})
    reasons = implausible_misses(checked, missed)
    assert any("mse:additivity_3 misses at 8 of 8 seeds" in r for r in reasons)


def test_one_check_missing_at_three_of_eight_seeds_is_flagged():
    checked, missed = mc_run(range(8), 16, {(seed, "additivity_3") for seed in (1, 4, 6)})
    assert implausible_misses(checked, missed)
    checked, missed = mc_run(range(8), 16, {(seed, "additivity_3") for seed in (1, 4)})
    assert implausible_misses(checked, missed) == []


def test_many_misses_spread_over_checks_are_flagged():
    checked, missed = mc_run(range(8), 16, {(seed, f"additivity_{seed}") for seed in range(6)})
    reasons = implausible_misses(checked, missed)
    assert len(reasons) == 1 and reasons[0].startswith("6 misses in 128 distinct checks")


def test_ratio_reads_zero_on_empty_base():
    assert ratio(3.0, 0) == 0.0
    assert ratio(3.0, 2) == 1.5
