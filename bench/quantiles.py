"""Percentiles of per-job timings.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples lie
strictly above it; fewer would make the figure one or two unlucky jobs.
"""

from __future__ import annotations

import numpy as np

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """Not enough samples lie beyond the requested percentile."""


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of a non-empty sample."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise TooFewSamples("no samples")
    return float(np.percentile(arr, q))


def tail_percentile(values, q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Percentile ``q``, refused unless ``min_beyond`` samples exceed it."""
    value = percentile(values, q)
    beyond = int(np.count_nonzero(np.asarray(values, dtype=float) > value))
    if beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it, "
            f"need {min_beyond}"
        )
    return value


def min_samples_for(q: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest count of distinct samples that leaves ``min_beyond`` above p``q``."""
    n = min_beyond
    while n - 1 - np.floor(q / 100.0 * (n - 1)) < min_beyond:
        n += 1
    return n
