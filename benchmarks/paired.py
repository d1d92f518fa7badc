"""Paired A/B timing shared by the overhead gates."""

from __future__ import annotations

import statistics
import timeit


def paired_ratio(fn_ref, fn_new, repeats: int = 15, number: int = 3) -> tuple[float, float, float]:
    """Median of per-round ``new/ref`` ratios, plus min per-call times.

    Each round times both candidates back to back (order alternating),
    so multiplicative noise — CPU-frequency drift, noisy neighbours —
    hits the pair together and cancels in the ratio; the median across
    rounds discards the spikes that straddle a pair anyway.
    """
    ref_t, new_t = timeit.Timer(fn_ref), timeit.Timer(fn_new)
    ratios = []
    best = [float("inf"), float("inf")]
    for round_no in range(repeats):
        pair = (ref_t, new_t) if round_no % 2 == 0 else (new_t, ref_t)
        first = pair[0].timeit(number=number) / number
        second = pair[1].timeit(number=number) / number
        t_ref, t_new = (first, second) if round_no % 2 == 0 else (second, first)
        ratios.append(t_new / t_ref)
        best[0] = min(best[0], t_ref)
        best[1] = min(best[1], t_new)
    return statistics.median(ratios), best[0], best[1]
