"""Failure injection: corrupted schedules must fail loudly, never
silently compute wrong gradients.

Strategy: take a known-correct Revolve schedule, mutate it (drop an
action, duplicate one, swap two, retarget a slot), then require that
either (a) the simulator/executor rejects it, or (b) — if the mutation
happened to leave a valid schedule — the executor's gradients are still
bit-identical to store-all.  There is no third outcome.  A rejection
always comes from the compiler, before the backend has seen any call.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.autodiff import DenseLayer, SequentialNet, run_schedule
from repro.checkpointing import ChainSpec, Schedule, revolve_schedule, simulate
from repro.checkpointing.actions import Action, ActionKind
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.engine import execute
from repro.errors import ExecutionError, ReproError, ScheduleError

from .conftest import RecordingBackend


def mutate(actions: tuple[Action, ...], kind: int, pos: int, slot: int) -> tuple[Action, ...]:
    acts = list(actions)
    pos %= len(acts)
    if kind == 0:  # drop
        del acts[pos]
    elif kind == 1:  # duplicate
        acts.insert(pos, acts[pos])
    elif kind == 2:  # swap adjacent
        if pos + 1 < len(acts):
            acts[pos], acts[pos + 1] = acts[pos + 1], acts[pos]
    elif kind == 3:  # retarget slot/arg
        a = acts[pos]
        acts[pos] = Action(a.kind, max(0, (a.arg + 1 + slot) % (len(actions) + 2)))
    return tuple(acts)


def build_net(depth: int) -> tuple[SequentialNet, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(0)
    layers = [DenseLayer(5, 5, rng, name=f"f{i}") for i in range(depth - 1)]
    layers.append(DenseLayer(5, 2, rng, name="head"))
    net = SequentialNet(layers)
    return net, rng.normal(size=(3, 5)), rng.integers(0, 2, size=3)


@given(
    l=st.integers(2, 10),
    c=st.integers(1, 4),
    kind=st.integers(0, 3),
    pos=st.integers(0, 200),
    slot=st.integers(0, 5),
)
@settings(max_examples=120, deadline=None)
def test_simulator_mutation_soundness(l, c, kind, pos, slot):
    """Mutated schedules either raise or still satisfy all invariants."""
    good = revolve_schedule(l, c)
    mutated = Schedule(
        strategy="mutated",
        length=l,
        slots=good.slots + 8,  # keep slot budget from masking arg errors
        actions=mutate(good.actions, kind, pos, slot),
    )
    try:
        stats = simulate(mutated)
    except ReproError:
        return  # rejected: correct behaviour
    # Accepted: then all backwards ran in order and every step executed.
    assert stats.replay_steps == l
    assert all(e >= 1 for e in stats.executions)


@given(
    l=st.integers(2, 8),
    c=st.integers(1, 3),
    kind=st.integers(0, 3),
    pos=st.integers(0, 100),
    slot=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_executor_mutation_soundness(l, c, kind, pos, slot):
    """On real tensors: rejected, or gradients identical to store-all."""
    net, x, y = build_net(l)
    good = revolve_schedule(l, c)
    mutated = Schedule(
        strategy="mutated",
        length=l,
        slots=good.slots + 8,
        actions=mutate(good.actions, kind, pos, slot),
    )
    loss_ref, grads_ref, _ = net.train_step(x, y)
    try:
        res = run_schedule(net, mutated, x, y)
    except (ExecutionError, ScheduleError, KeyError, IndexError):
        return
    assert res.loss == loss_ref
    for k in grads_ref:
        assert np.array_equal(res.grads[k], grads_ref[k])


@given(
    family=st.sampled_from(available_strategies()),
    l=st.integers(2, 10),
    c=st.integers(1, 6),
    kind=st.integers(0, 3),
    pos=st.integers(0, 400),
    slot=st.integers(0, 5),
)
@settings(max_examples=200, deadline=None)
def test_invalid_mutants_fail_before_any_backend_call(family, l, c, kind, pos, slot):
    """Every family's mutants: rejected with an empty call log, or valid."""
    strat = get_strategy(family)
    assume(strat.feasible(l, c))
    good = strat.build_schedule(l, c)
    mutated = Schedule(
        strategy="mutated",
        length=l,
        slots=good.slots,
        actions=mutate(good.actions, kind, pos, slot),
    )
    backend = RecordingBackend(ChainSpec.homogeneous(l))
    try:
        run = execute(mutated, backend)
    except ExecutionError:
        assert backend.calls == []
        return
    assert run.replay_steps == l
    assert all(e >= 1 for e in run.executions)
    assert len(backend.calls) == 1 + len(mutated.actions)


def test_truncated_schedule_always_rejected():
    """Cutting the tail off always leaves pending backwards -> rejected."""
    good = revolve_schedule(6, 2)
    for cut in range(1, len(good.actions)):
        truncated = Schedule(
            strategy="cut", length=6, slots=good.slots, actions=good.actions[:cut]
        )
        with pytest.raises(ExecutionError):
            simulate(truncated)


def test_reordered_adjoints_rejected():
    """Reversing the adjoint order violates the backward dependency."""
    good = revolve_schedule(4, 3)
    adjoints = [a for a in good.actions if a.kind is ActionKind.ADJOINT]
    swapped = []
    it = iter(reversed(adjoints))
    for a in good.actions:
        swapped.append(next(it) if a.kind is ActionKind.ADJOINT else a)
    bad = Schedule(strategy="re", length=4, slots=good.slots, actions=tuple(swapped))
    with pytest.raises(ExecutionError):
        simulate(bad)
