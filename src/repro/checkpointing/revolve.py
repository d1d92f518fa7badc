"""Optimal binomial checkpointing (Revolve, Griewank & Walther Alg. 799).

For a homogeneous chain of ``l`` steps reversed with ``c`` checkpoint
slots (slot count *includes* the slot holding a segment's input), the
minimal number of pure forward executions ``P(l, c)`` satisfies

    P(1, c) = 0
    P(l, 1) = l(l-1)/2
    P(l, c) = min_{1<=m<l} [ m + P(l-m, c-1) + P(m, c) ]

with the closed form (Griewank & Walther 2000, Prop. 1): with
``β(c, r) = C(c+r, c)`` and ``r`` the unique repetition number such that
``β(c, r-1) < l <= β(c, r)``,

    P(l, c) = r·l − β(c+1, r−1).

Every adjoint step additionally replays its own forward (Revolve
semantics), so a chain always executes at least one forward per step;
:func:`extra_forwards` subtracts the mandatory single sweep, giving the
*recomputation overhead* that the paper's recompute factor ρ prices:
``time = (l + extra)·u_f + l·u_b`` against the store-all baseline
``l·u_f + l·u_b``.  With ``u_f = u_b`` the paper's budget "2ρl total
computations" is exactly ``extra ≤ 2l(ρ−1)``.

:func:`revolve_schedule` materializes the optimal schedule as an
executable :class:`~.schedule.Schedule`; the simulator verifies that its
measured forward count equals ``P(l, c)`` (see tests).
"""

from __future__ import annotations

import math
import threading

from ..errors import PlanningError, ScheduleError
from .actions import Action, adjoint, advance, free, restore, snapshot
from .schedule import Schedule

__all__ = [
    "beta",
    "repetition_number",
    "opt_forwards",
    "opt_forwards_dp",
    "extra_forwards",
    "min_slots_for_extra",
    "revolve_schedule",
    "store_all_schedule",
]


def beta(c: int, r: int) -> int:
    """β(c, r) = C(c+r, c): max chain length reversible with c slots and
    at most r repetitions per step."""
    if c < 0 or r < 0:
        return 0
    return math.comb(c + r, c)


def repetition_number(l: int, c: int) -> int:
    """Minimal r with l <= β(c, r).

    β(c, r) is strictly increasing in r, so the answer is found by
    doubling r until β(c, r) >= l and binary-searching the bracket —
    O(log r) β evaluations instead of the naive O(r) scan, which matters
    for deep-chain sweeps at small c (r grows like l at c = 1).
    """
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if beta(c, 0) >= l:
        return 0
    hi = 1
    while beta(c, hi) < l:
        hi *= 2
    lo = hi // 2  # beta(c, lo) < l: either hi's predecessor bracket or 0
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if beta(c, mid) < l:
            lo = mid
        else:
            hi = mid
    return hi


def opt_forwards(l: int, c: int) -> int:
    """Closed-form minimal pure forward executions P(l, c)."""
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    if c < 1:
        raise ScheduleError("slot count must be >= 1")
    if l == 1:
        return 0
    r = repetition_number(l, c)
    return r * l - beta(c + 1, r - 1)


#: One process-wide DP table, ``cost[c][l]`` and argmin ``split[c][l]``
#: (row 0 unused).  Entries do not depend on the table's bounds, so rows
#: are only ever extended; each row grows to the longest length asked of
#: it, so a deep single-slot request does not lengthen the other rows.
_COST: list[list[int]] = [[]]
_SPLIT: list[list[int]] = [[]]
_TABLE_LOCK = threading.Lock()


def _dp_tables(l_max: int, c_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """Bottom-up DP: cost[c][l] and argmin split point m[c][l].

    cost[c][l] is valid for 1-based c in 1..c_max and l in 0..l_max;
    split[c][l] is 0 where no split applies (l <= 1 or c == 1).  The
    returned lists are the shared table: read them, never mutate them.
    """
    with _TABLE_LOCK:
        while len(_COST) <= c_max:
            _COST.append([])
            _SPLIT.append([])
        # Row c reads row c-1 up to l-1, so growing rows in ascending c
        # to the same length keeps every read inside filled entries.
        for c in range(1, c_max + 1):
            cost, split, prev = _COST[c], _SPLIT[c], _COST[c - 1]
            for l in range(len(cost), l_max + 1):
                if c == 1:
                    cost.append(l * (l - 1) // 2)
                    split.append(0)
                    continue
                best = float("inf")
                best_m = 0
                for m in range(1, l):
                    val = m + prev[l - m] + cost[m]
                    if val < best:
                        best = val
                        best_m = m
                cost.append(int(best) if l >= 2 else 0)
                split.append(best_m)
    return _COST, _SPLIT


def opt_forwards_dp(l: int, c: int) -> int:
    """DP value of P(l, c) — cross-checks the closed form in tests."""
    if l < 1 or c < 1:
        raise ScheduleError("require l >= 1 and c >= 1")
    c_eff = min(c, max(1, l - 1))  # extra slots beyond l-1 are useless
    cost, _ = _dp_tables(l, c_eff)
    return cost[c_eff][l]


def extra_forwards(l: int, c: int) -> int:
    """Recomputation overhead beyond the mandatory single forward sweep.

    Zero when ``c >= l - 1`` (store-all); ``(l-1)(l-2)/2`` when ``c = 1``.
    """
    if l == 1:
        return 0
    if c >= l - 1:
        return 0
    return opt_forwards(l, c) - (l - 1)


def min_slots_for_extra(l: int, max_extra: float) -> int:
    """Smallest slot count whose recompute overhead is <= ``max_extra``.

    ``extra_forwards`` is non-increasing in c, so binary search applies.
    Raises :class:`~repro.errors.PlanningError` for negative budgets.
    """
    if max_extra < 0:
        raise PlanningError(f"extra-forwards budget must be >= 0, got {max_extra}")
    lo, hi = 1, max(1, l - 1)
    if extra_forwards(l, lo) <= max_extra:
        return lo
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if extra_forwards(l, mid) <= max_extra:
            hi = mid
        else:
            lo = mid
    return hi


def _emit_reverse(
    actions: list[Action],
    base: int,
    length: int,
    base_slot: int,
    pool: list[int],
    split_for: "_SplitFn",
) -> None:
    """Emit actions reversing steps ``base+1 .. base+length``.

    ``x_base`` is stored in ``base_slot``; ``pool`` holds free slot ids.
    Tail-iterates on the left segment to bound recursion depth by the
    slot count rather than the chain length.
    """
    while True:
        if length == 0:
            return
        if length == 1:
            actions.append(restore(base_slot))
            actions.append(adjoint(base + 1))
            return
        if not pool:
            # Single-slot quadratic reversal of this segment.
            for b in range(length, 0, -1):
                actions.append(restore(base_slot))
                if b > 1:
                    actions.append(advance(base + b - 1))
                actions.append(adjoint(base + b))
            return
        avail = 1 + len(pool)
        m = split_for(length, avail)
        actions.append(restore(base_slot))
        actions.append(advance(base + m))
        s = pool.pop()
        actions.append(snapshot(s))
        _emit_reverse(actions, base + m, length - m, s, pool, split_for)
        actions.append(free(s))
        pool.append(s)
        length = m


class _SplitFn:
    """Optimal split-point lookup backed by the DP tables."""

    def __init__(self, l: int, c: int) -> None:
        c_eff = min(c, max(1, l - 1))
        self._cost, self._split = _dp_tables(l, c_eff)
        self._c_max = c_eff

    def __call__(self, length: int, avail: int) -> int:
        if length == 2:
            return 1  # the only possible split
        avail = min(avail, self._c_max, length - 1)
        m = self._split[avail][length]
        if m < 1:
            # avail == 1 is handled by the caller's no-pool branch; for
            # length 3+ with avail >= 2 the DP always records a split.
            raise ScheduleError(f"no split recorded for length={length}, avail={avail}")
        return m


def revolve_schedule(l: int, c: int) -> Schedule:
    """Generate the optimal Revolve schedule for ``l`` steps, ``c`` slots.

    The measured pure-forward count of the returned schedule equals
    :func:`opt_forwards`\\ ``(l, c)`` and its peak slot usage is ``<= c``.
    """
    if l < 1 or c < 1:
        raise ScheduleError("require l >= 1 and c >= 1")
    c_eff = min(c, max(1, l - 1))
    actions: list[Action] = []
    pool = list(range(c_eff))
    s0 = pool.pop(0)
    actions.append(snapshot(s0))  # cursor holds x_0 at start
    split_for = _SplitFn(l, c_eff)
    _emit_reverse(actions, base=0, length=l, base_slot=s0, pool=pool, split_for=split_for)
    return Schedule(strategy="revolve", length=l, slots=c_eff, actions=tuple(actions))


def store_all_schedule(l: int) -> Schedule:
    """The no-recomputation schedule: snapshot every prefix activation.

    Uses ``l`` slots (x_0 .. x_{l-1}); the final activation is consumed
    directly from the cursor.  Pure forward count is ``l - 1`` — the
    mandatory sweep — so :func:`extra_forwards` measures 0 against it.
    """
    if l < 1:
        raise ScheduleError("chain length must be >= 1")
    actions: list[Action] = [snapshot(0)]
    for i in range(1, l):
        actions.append(advance(i))
        actions.append(snapshot(i))
    actions.append(adjoint(l))
    for b in range(l - 1, 0, -1):
        actions.append(restore(b - 1))
        actions.append(adjoint(b))
    return Schedule(strategy="store_all", length=l, slots=l, actions=tuple(actions))
