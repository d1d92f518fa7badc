"""The flat program IR: round-trip, differential and cache-layer tests.

The compiler must be a lossless, validation-complete lowering: compile →
decompile reproduces the exact Schedule for every strategy family, the
vectorized sim path is bit-identical to per-action dispatch of the same
program, backend tier ledgers agree with the program's static tier
usage, every invariant violation fails in the compiler before the
backend sees a call, and each schedule object compiles at most once.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.checkpointing import (
    ChainSpec,
    Schedule,
    schedule_cache_info,
    simulate,
    slots_for_rho,
    slots_for_rhos,
)
from repro.checkpointing.actions import Action, ActionKind
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.edge.storage import SD_CARD
from repro.engine import (
    SimBackend,
    TieredBackend,
    compile_schedule,
    decompile,
    execute,
)
from repro.errors import ExecutionError

from .conftest import RecordingBackend

FAMILIES = available_strategies()


def _noop(step) -> None:
    """An ``on_step`` hook that forces the VM's per-action loop."""


def _random_spec(l: int, seed: int) -> ChainSpec:
    rng = np.random.default_rng(seed)
    return ChainSpec(
        name=f"h{seed}",
        act_bytes=tuple(int(b) for b in rng.integers(1, 2048, l + 1)),
        fwd_cost=tuple(float(f) for f in rng.uniform(0.1, 3.0, l)),
        bwd_cost=tuple(float(f) for f in rng.uniform(0.1, 3.0, l)),
    )


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        l=st.integers(min_value=2, max_value=12),
        slots=st.integers(min_value=1, max_value=8),
    )
    def test_compile_decompile_is_identity(self, family, l, slots):
        strat = get_strategy(family)
        assume(strat.feasible(l, slots))
        sch = strat.build_schedule(l, slots)
        assert decompile(compile_schedule(sch)) == sch

    def test_digest_depends_on_actions(self):
        a = compile_schedule(get_strategy("revolve").build_schedule(13, 3))
        b = compile_schedule(get_strategy("revolve").build_schedule(13, 4))
        assert a.digest != b.digest


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        l=st.integers(min_value=2, max_value=10),
        slots=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sim_stats_bit_identical(self, family, l, slots, seed):
        """Vectorized ``run_compiled_sim`` == per-action SimBackend calls."""
        strat = get_strategy(family)
        assume(strat.feasible(l, slots))
        sch = strat.build_schedule(l, slots)
        for spec in (ChainSpec.homogeneous(l), _random_spec(l, seed)):
            vectorized = execute(sch, SimBackend(spec))
            per_action = execute(sch, SimBackend(spec), on_step=_noop)
            assert vectorized == per_action

    @pytest.mark.parametrize("family", FAMILIES)
    def test_tier_stats_bit_identical(self, family):
        """The backend's tier ledger matches the program's static usage."""
        strat = get_strategy(family)
        l, slots = 13, 3
        if not strat.feasible(l, slots):
            l, slots = 13, 12
        sch = strat.build_schedule(l, slots)
        spec = ChainSpec.homogeneous(l, act_bytes=4096)
        run = execute(sch, TieredBackend(spec, disk=SD_CARD))
        ledger = {t.name: (t.writes, t.reads, t.peak_slots) for t in run.tiers}
        for tier, snaps, reads, peak in sch.program.tier_usage:
            assert ledger.pop(("memory", "disk")[tier]) == (snaps, reads, peak)
        assert all(row == (0, 0, 0) for row in ledger.values())

    def test_traced_step_stats_identical_shapes(self):
        sch = get_strategy("revolve").build_schedule(13, 3)
        program = sch.program
        spec = ChainSpec.homogeneous(13)
        steps = []
        traced = execute(sch, SimBackend(spec), on_step=steps.append)
        assert traced == execute(sch, SimBackend(spec))
        assert [s.pos for s in steps] == list(range(len(sch.actions)))
        assert [s.cursor for s in steps] == program.cursor_after.tolist()
        assert [s.occupied_slots for s in steps] == program.occupied_after.tolist()
        assert steps[-1].backwards_done == 13

    def test_mismatched_program_is_rejected(self):
        sch = get_strategy("revolve").build_schedule(8, 3)
        other = compile_schedule(get_strategy("revolve").build_schedule(8, 4))
        with pytest.raises(ExecutionError, match="does not match schedule"):
            execute(sch, SimBackend(ChainSpec.homogeneous(8)), compiled=other)


def _sched(l, slots, *actions):
    return Schedule(strategy="bad", length=l, slots=slots, actions=actions)


_A = ActionKind.ADVANCE
_S = ActionKind.SNAPSHOT
_R = ActionKind.RESTORE
_F = ActionKind.FREE
_J = ActionKind.ADJOINT


class TestErrorParity:
    """``execute`` fails with the compiler's message, before any backend call."""

    BAD = [
        _sched(3, 1, Action(_A, 2), Action(_A, 1)),  # backwards advance
        _sched(3, 1, Action(_A, 4)),  # past the chain
        _sched(3, 1, Action(_S, 1)),  # slot over budget
        _sched(3, 2, Action(_S, 0), Action(_A, 1), Action(_S, 0)),  # occupied
        _sched(3, 1, Action(_R, 0)),  # restore empty
        _sched(3, 1, Action(_F, 0)),  # free empty
        _sched(3, 1, Action(_A, 3), Action(_J, 2)),  # adjoint out of order
        _sched(3, 1, Action(_A, 1), Action(_J, 3)),  # cursor not parked
        _sched(3, 1, Action(_A, 3), Action(_J, 3)),  # backwards left pending
    ]

    @pytest.mark.parametrize("bad", BAD)
    def test_same_message_compiled_and_interpreted(self, bad):
        backend = RecordingBackend(ChainSpec.homogeneous(bad.length))
        with pytest.raises(ExecutionError) as executed:
            execute(bad, backend)
        with pytest.raises(ExecutionError) as compiled:
            compile_schedule(bad)
        assert str(compiled.value) == str(executed.value)
        assert backend.calls == []


@pytest.mark.usefixtures("fresh_schedule_cache")
class TestCompileOnce:
    """Each Schedule object is compiled at most once per process."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        import repro.engine.program as program_module

        calls = []
        original = program_module.compile_schedule

        def counting(schedule):
            calls.append(schedule)
            return original(schedule)

        monkeypatch.setattr(program_module, "compile_schedule", counting)
        return calls

    def test_repeated_runs_compile_once(self, compiles):
        from repro.autodiff import DenseLayer, SequentialNet, run_schedule

        rng = np.random.default_rng(0)
        net = SequentialNet([DenseLayer(4, 4, rng, name=f"d{i}") for i in range(6)])
        x, y = rng.normal(size=(3, 4)), rng.integers(0, 4, size=3)
        sch = get_strategy("revolve").build_schedule(6, 2)
        for _ in range(3):
            simulate(sch)
            run_schedule(net, sch, x, y)
            execute(sch, TieredBackend(ChainSpec.homogeneous(6)))
        assert compiles == [sch]

    def test_strategy_compiled_then_execute_compiles_once(self, compiles):
        strat = get_strategy("revolve")
        program = strat.compiled(13, 3)
        execute(strat.schedule(13, 3), TieredBackend(ChainSpec.homogeneous(13)))
        strat.measured(13, 3)
        assert len(compiles) == 1
        assert strat.schedule(13, 3).program is program

    def test_invalid_schedule_is_not_memoized(self, compiles):
        bad = _sched(3, 1, Action(_R, 0))
        for _ in range(2):
            with pytest.raises(ExecutionError):
                simulate(bad)
        assert len(compiles) == 2


@pytest.mark.usefixtures("fresh_schedule_cache")
class TestProgramCache:
    def test_compiled_seeds_schedule_cache(self):
        strat = get_strategy("revolve")
        program = strat.compiled(13, 3)
        assert schedule_cache_info().schedules == 1
        assert program is strat.schedule(13, 3).program

    def test_measured_matches_direct_simulation(self):
        strat = get_strategy("disk_revolve")
        direct = simulate(strat.build_schedule(21, 3))
        assert strat.measured(21, 3) == direct


class TestBatchedPlanner:
    @pytest.mark.parametrize("l", [1, 2, 3, 5, 18, 34, 152])
    def test_matches_scalar_inversion(self, l):
        rhos = [1.0, 1.001, 1.05, 1.2, 1.5, 2.0, 3.0, 10.0]
        assert slots_for_rhos(l, rhos) == [slots_for_rho(l, r) for r in rhos]

    def test_rejects_rho_below_one(self):
        from repro.errors import PlanningError

        with pytest.raises(PlanningError, match="recompute factor"):
            slots_for_rhos(10, [1.5, 0.9])

    def test_empty_grid(self):
        assert slots_for_rhos(10, []) == []
