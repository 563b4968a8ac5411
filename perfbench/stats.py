"""Statistics the benchmark reports, kept apart so they can be self-tested.

Every timing is reported as a median plus the highest percentile that
still has at least ten samples beyond it, and the per-layer ledger must
account for the serving wall time the same way scripts/check_trace_json.py
accounts for a submit: disjoint child phases may not overshoot their
parent by more than 5% and must cover at least half of it.
"""

import math
import statistics

TAIL_CANDIDATES = (99.99, 99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10
SHARE_TOLERANCE = 0.05
MIN_COVERAGE = 0.5


def median(values):
    """Median of a non-empty sequence (mean of the middle pair if even)."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def tail_percentile(values):
    """Returns (percentile, value): the highest percentile in
    TAIL_CANDIDATES whose nearest-rank order statistic has at least
    MIN_BEYOND samples ranked above it. None when there are too few
    samples for even the median to qualify."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_CANDIDATES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def check_shares(parts, total, tolerance=SHARE_TOLERANCE,
                 min_coverage=MIN_COVERAGE):
    """Checks that disjoint phase times `parts` (name -> seconds) account
    for `total` seconds: their sum may exceed it by at most `tolerance`
    and must cover at least `min_coverage` of it. Returns (ok, shares),
    where shares maps each part and "unaccounted" to its share of total
    and the shares sum to 1."""
    if total <= 0:
        return False, {}
    shares = {name: seconds / total for name, seconds in parts.items()}
    covered = sum(shares.values())
    shares["unaccounted"] = 1.0 - covered
    ok = min_coverage <= covered <= 1.0 + tolerance
    return ok, shares


def mean_z(errors):
    """Mean of `errors` over its standard error; 0 for constant input."""
    n = len(errors)
    if n < 2:
        raise ValueError("need at least two errors")
    sd = statistics.stdev(errors)
    if sd == 0:
        return 0.0
    return statistics.fmean(errors) / (sd / math.sqrt(n))
