"""Memory-over-time traces: shapes and consistency with the simulator."""

import pytest

from repro.checkpointing import (
    ChainSpec,
    memory_timeline,
    revolve_schedule,
    simulate,
    store_all_schedule,
    timeline_ascii,
    uniform_schedule,
)
from repro.errors import ExecutionError


class TestTimeline:
    def test_peak_matches_simulator(self):
        spec = ChainSpec.homogeneous(20, act_bytes=3)
        for sch in (revolve_schedule(20, 4), uniform_schedule(20, 4), store_all_schedule(20)):
            trace = memory_timeline(sch, spec)
            stats = simulate(sch, spec)
            assert max(p.live_bytes for p in trace) == stats.peak_bytes
            assert max(p.live_slot_bytes for p in trace) == stats.peak_slot_bytes

    def test_backwards_progress_monotone(self):
        trace = memory_timeline(revolve_schedule(15, 3))
        done = [p.backwards_done for p in trace]
        assert done == sorted(done)
        assert done[-1] == 15

    def test_store_all_triangle(self):
        """Store-all climbs to the peak, then strictly never grows."""
        l = 12
        trace = memory_timeline(store_all_schedule(l))
        peak_at = max(range(len(trace)), key=lambda i: trace[i].live_bytes)
        after = [p.live_bytes for p in trace[peak_at:]]
        assert all(a <= trace[peak_at].live_bytes for a in after)
        assert trace[peak_at].live_bytes == l + 1  # l slots + cursor

    def test_revolve_sawtooth_stays_low(self):
        """Revolve's trace never approaches the store-all peak."""
        l = 30
        lean = memory_timeline(revolve_schedule(l, 3))
        assert max(p.live_bytes for p in lean) <= 3 + 1
        fat = memory_timeline(store_all_schedule(l))
        assert max(p.live_bytes for p in fat) == l + 1

    def test_revolve_trace_is_a_sawtooth(self):
        """LinearResNet-50 under Revolve c=5 oscillates: its live bytes
        change direction more than ten times, bounded by c + 1."""
        trace = memory_timeline(revolve_schedule(50, 5))
        live = [p.live_bytes for p in trace]
        assert max(live) <= 5 + 1
        moves = [b - a for a, b in zip(live, live[1:]) if b != a]
        assert sum(1 for a, b in zip(moves, moves[1:]) if a * b < 0) > 10

    def test_one_point_per_action(self):
        sch = revolve_schedule(10, 2)
        assert len(memory_timeline(sch)) == len(sch.actions)

    def test_invalid_schedule_rejected(self):
        from repro.checkpointing import Schedule, snapshot

        bad = Schedule(strategy="bad", length=2, slots=1, actions=(snapshot(0),))
        with pytest.raises(ExecutionError):
            memory_timeline(bad)


class TestAsciiTimeline:
    def test_renders_all_series(self):
        text = timeline_ascii(
            {
                "revolve": revolve_schedule(20, 3),
                "store_all": store_all_schedule(20),
            }
        )
        assert "revolve" in text
        assert "store_all" in text
        assert "execution progress" in text

    def test_empty_rejected(self):
        with pytest.raises(ExecutionError):
            timeline_ascii({})
