"""Arithmetic shared by the benchmark: percentiles, spreads, miss plausibility.

Standard library only, so the parent process can use it without importing
numpy or fracstoch.
"""

from __future__ import annotations

import math
import statistics

# Two-sided probability that a correct 3-standard-error check misses.
MC_MISS_RATE = 2.0 * (1.0 - statistics.NormalDist().cdf(3.0))
# A miss count whose binomial upper tail is below this is flagged.
MC_IMPLAUSIBLE_P = 1e-4


def tail(samples, beyond: int = 10) -> tuple[float, float]:
    """(percentile, value) of the highest order statistic with ``beyond``
    samples above it.

    With n samples that is the (n - beyond)-th smallest, at percentile
    100 (n - beyond) / n.  When n <= beyond no sample qualifies and the
    maximum is returned at percentile 100.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= beyond:
        return 100.0, xs[-1]
    return 100.0 * (n - beyond) / n, xs[n - beyond - 1]


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p), summed in log space."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for i in range(k, n + 1):
        log_term = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        total += math.exp(log_term)
    return min(total, 1.0)


def implausible_misses(checked, missed) -> list[str]:
    """Why the 3-SE misses are too many for chance; empty when they are not.

    ``checked`` and ``missed`` are sets of (seed, experiment, check), so a
    check that ran twice at one seed (warm-up and pass 0, or an untraced
    and a traced pass) counts once: its outputs are fixed by the seed.
    Flagged are a total miss count over all distinct checks, and a single
    check missing at several distinct seeds, whose binomial upper tail is
    below ``MC_IMPLAUSIBLE_P``.
    """
    reasons = []
    p_all = binomial_upper_tail(len(missed), len(checked), MC_MISS_RATE)
    if p_all < MC_IMPLAUSIBLE_P:
        reasons.append(f"{len(missed)} misses in {len(checked)} distinct checks (p={p_all:.2g})")
    seeds_run, seeds_missed = {}, {}
    for seed, experiment, check in checked:
        seeds_run.setdefault((experiment, check), set()).add(seed)
    for seed, experiment, check in missed:
        seeds_missed.setdefault((experiment, check), set()).add(seed)
    for (experiment, check), seeds in sorted(seeds_missed.items()):
        n = len(seeds_run.get((experiment, check), seeds))
        p_one = binomial_upper_tail(len(seeds), n, MC_MISS_RATE)
        if p_one < MC_IMPLAUSIBLE_P:
            reasons.append(f"{experiment}:{check} misses at {len(seeds)} of {n} seeds (p={p_one:.2g})")
    return reasons


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` is a sequence of objects with ``start``, ``end`` and
    ``parent`` (the index of the enclosing span in the same sequence, or
    -1).  Children never overlap each other, so their durations add.
    """
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def ratio(num: float, den: float) -> float:
    """num / den, reading 0 when the base is 0."""
    return num / den if den else 0.0
