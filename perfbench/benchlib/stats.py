"""Summary statistics for timing samples.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, with the sample count, so a tail figure is
never read off a handful of points.
"""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

# Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(n, p):
    """1-based nearest rank of the `p`-th percentile of `n` samples (the
    small slack keeps `99.9 * 10000 / 100` from rounding up a rank)."""
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def nearest_rank(samples, p):
    """The nearest-rank `p`-th percentile of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), p) - 1]


def samples_beyond(n, p):
    """How many of `n` samples lie strictly above the nearest-rank `p`-th
    percentile."""
    return n - _rank(n, p)


def high_percentile(samples):
    """The highest percentile of `TAIL_PERCENTILES` with at least
    `MIN_BEYOND` samples beyond it, as `(p, value)`; `None` when the
    sample is too small for any of them."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p, nearest_rank(samples, p)
    return None


def summarize(samples):
    """Median, tail percentile and count of a non-empty sample."""
    tail = high_percentile(samples)
    return {
        "n": len(samples),
        "median": statistics.median(samples),
        "tail_p": tail[0] if tail else None,
        "tail": tail[1] if tail else None,
    }


def render(name, unit, samples):
    """One summary line: name, unit, count, median and tail percentile."""
    s = summarize(samples)
    tail = (
        f"p{s['tail_p']:g} {s['tail']:.6g}"
        if s["tail_p"] is not None
        else f"no tail (needs >= {2 * MIN_BEYOND} samples)"
    )
    return f"{name:<22} {unit:<6} n={s['n']:<6} median {s['median']:.6g}  {tail}"
