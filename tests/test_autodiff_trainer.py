"""The schedule-aware Trainer."""

import numpy as np
import pytest

from repro.autodiff import (
    DenseLayer,
    DropoutLayer,
    Momentum,
    ReLULayer,
    SequentialNet,
    Trainer,
    TrainerConfig,
    gaussian_blobs,
)
from repro.checkpointing import resolve_strategy_name, revolve_schedule
from repro.errors import MemoryBudgetError


def make_net(rng, depth=6, width=12, classes=3, dropout=False):
    layers = []
    prev = 6
    for i in range(depth - 1):
        layers.append(DenseLayer(prev, width, rng, name=f"fc{i}"))
        if dropout and i == 1:
            layers.append(DropoutLayer(0.2, seed=4, name="drop"))
        layers.append(ReLULayer(name=f"r{i}"))
        prev = width
    layers.append(DenseLayer(prev, classes, rng, name="head"))
    return SequentialNet(layers)


@pytest.fixture
def rng():
    return np.random.default_rng(2)


@pytest.fixture
def data(rng):
    return gaussian_blobs(40, 3, 6, rng, spread=0.6, separation=6.0)


class TestStrategies:
    def test_store_all_default(self, rng, data):
        net = make_net(rng)
        t = Trainer(net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=5))
        t.fit(data)
        assert t.schedule_strategy == "store_all"
        assert t.evaluate(data) > 0.9

    def test_rho_target_resolves_to_revolve(self, rng, data):
        net = make_net(rng)
        t = Trainer(net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=3, rho=1.5))
        t.fit(data)
        assert t.schedule_strategy == "revolve"

    def test_explicit_schedule_wins(self, rng, data):
        net = make_net(rng)
        sch = revolve_schedule(len(net), 1)
        t = Trainer(
            net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=2, rho=1.1, schedule=sch)
        )
        t.fit(data)
        assert t._schedule is sch

    def test_activation_budget_resolves(self, rng, data):
        net = make_net(rng)
        sizes = net.activation_bytes(data.x[:16])
        budget = 4 * max(sizes)
        t = Trainer(
            net,
            Momentum(net.layers, lr=0.02),
            TrainerConfig(epochs=2, activation_budget_bytes=budget),
        )
        t.fit(data)
        assert t.schedule_strategy == "revolve"
        assert t.peak_bytes > 0

    def test_hopeless_budget_raises(self, rng, data):
        net = make_net(rng)
        t = Trainer(
            net,
            Momentum(net.layers, lr=0.02),
            TrainerConfig(epochs=1, activation_budget_bytes=8),
        )
        with pytest.raises(MemoryBudgetError):
            t.fit(data)

    def test_any_registered_strategy_name(self, rng, data):
        """The trainer builds schedules through the registry: every
        homogeneous-chain family trains to the same losses as store-all
        (the executor guarantees gradient equivalence)."""
        reference = None
        for name in ("revolve", "uniform", "sqrt", "store_all", "hetero", "budget"):
            net = make_net(np.random.default_rng(11))
            t = Trainer(
                net,
                Momentum(net.layers, lr=0.02),
                TrainerConfig(epochs=2, strategy=name),
            )
            t.fit(data)
            assert resolve_strategy_name(t.schedule_strategy) == name
            losses = [r.mean_loss for r in t.history]
            if reference is None:
                reference = losses
            else:
                assert losses == pytest.approx(reference)

    def test_strategy_with_explicit_slots(self, rng, data):
        net = make_net(rng)
        t = Trainer(
            net,
            Momentum(net.layers, lr=0.02),
            TrainerConfig(epochs=1, strategy="uniform", slots=7),
        )
        t.fit(data)
        assert t.schedule_strategy.startswith("uniform")
        assert t._schedule.snapshot_count > 0

    def test_unknown_strategy_fails_fast(self):
        with pytest.raises(Exception, match="unknown strategy"):
            TrainerConfig(strategy="nope")

    def test_infeasible_strategy_raises_budget_error(self, rng, data):
        net = make_net(rng)
        t = Trainer(
            net,
            Momentum(net.layers, lr=0.02),
            TrainerConfig(epochs=1, strategy="store_all", slots=1),
        )
        with pytest.raises(MemoryBudgetError):
            t.fit(data)


class TestEquivalence:
    def test_checkpointed_history_identical_to_store_all(self, rng, data):
        a_net = make_net(np.random.default_rng(7))
        b_net = make_net(np.random.default_rng(7))
        a = Trainer(a_net, Momentum(a_net.layers, lr=0.02), TrainerConfig(epochs=4))
        b = Trainer(b_net, Momentum(b_net.layers, lr=0.02), TrainerConfig(epochs=4, rho=2.0))
        a.fit(data)
        b.fit(data)
        assert [r.mean_loss for r in a.history] == pytest.approx(
            [r.mean_loss for r in b.history], rel=1e-12
        )

    def test_checkpointed_peak_not_higher(self, rng, data):
        a_net = make_net(np.random.default_rng(7), depth=10, width=64)
        b_net = make_net(np.random.default_rng(7), depth=10, width=64)
        full = Trainer(
            a_net, Momentum(a_net.layers, lr=0.02),
            TrainerConfig(epochs=1, schedule=revolve_schedule(len(a_net), len(a_net) - 1)),
        )
        lean = Trainer(
            b_net, Momentum(b_net.layers, lr=0.02),
            TrainerConfig(epochs=1, schedule=revolve_schedule(len(b_net), 1)),
        )
        full.fit(data)
        lean.fit(data)
        assert lean.peak_bytes <= full.peak_bytes

    def test_dropout_steps_bumped(self, rng, data):
        net = make_net(rng, dropout=True)
        drop = next(l for l in net.layers if isinstance(l, DropoutLayer))
        t = Trainer(net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=2))
        t.fit(data)
        assert drop._step > 0


class TestGradientAccumulation:
    def test_accumulated_equals_full_batch(self, rng, data):
        """n_i/N-weighted micro-batch gradients reproduce the full-batch
        step (up to float summation order)."""
        a_net = make_net(np.random.default_rng(9))
        b_net = make_net(np.random.default_rng(9))
        full = Trainer(a_net, Momentum(a_net.layers, lr=0.02), TrainerConfig(epochs=3))
        accum = Trainer(
            b_net,
            Momentum(b_net.layers, lr=0.02),
            TrainerConfig(epochs=3, micro_batch_size=4),
        )
        full.fit(data)
        accum.fit(data)
        assert [r.mean_loss for r in accum.history] == pytest.approx(
            [r.mean_loss for r in full.history], rel=1e-9
        )
        checked = 0
        for la, lb in zip(a_net.layers, b_net.layers, strict=True):
            assert la.name == lb.name and la.params.keys() == lb.params.keys()
            for p in la.params:
                assert np.allclose(la.params[p], lb.params[p], rtol=1e-9), (la.name, p)
                checked += 1
        assert checked == sum(len(layer.params) for layer in a_net.layers) > 1

    def test_micro_batches_cut_peak_memory(self, rng, data):
        net = make_net(rng, depth=8, width=64)
        full = Trainer(net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=1, batch_size=32))
        full.fit(data)
        net2 = make_net(rng, depth=8, width=64)
        micro = Trainer(
            net2,
            Momentum(net2.layers, lr=0.02),
            TrainerConfig(epochs=1, batch_size=32, micro_batch_size=4),
        )
        micro.fit(data)
        assert micro.peak_bytes < full.peak_bytes

    def test_composes_with_checkpointing(self, rng, data):
        """Micro-batching + Revolve: both levers applied together."""
        net = make_net(rng, depth=8, width=32)
        t = Trainer(
            net,
            Momentum(net.layers, lr=0.02),
            TrainerConfig(epochs=2, micro_batch_size=4, rho=1.5),
        )
        t.fit(data)
        assert t.schedule_strategy == "revolve"
        assert t.evaluate(data) > 0.5

    def test_memory_knobs_share_one_trajectory(self):
        """Full batch, micro-batches of 8, Revolve and both combined follow
        one loss trajectory (no BatchNorm, exact recombination); each
        knob cuts the measured peak, and combining them cuts it most."""
        data = gaussian_blobs(
            80, 3, 8, np.random.default_rng(0), spread=0.8, separation=5.0
        )
        configs = {
            "full": TrainerConfig(epochs=3, batch_size=64),
            "micro8": TrainerConfig(epochs=3, batch_size=64, micro_batch_size=8),
            "revolve": TrainerConfig(epochs=3, batch_size=64, rho=2.0),
            "micro8+revolve": TrainerConfig(
                epochs=3, batch_size=64, micro_batch_size=8, rho=2.0
            ),
        }
        peaks, losses = {}, {}
        for name, cfg in configs.items():
            r = np.random.default_rng(1)
            layers, prev = [], 8
            for i in range(9):
                layers += [DenseLayer(prev, 96, r, name=f"fc{i}"), ReLULayer(name=f"r{i}")]
                prev = 96
            net = SequentialNet(layers + [DenseLayer(prev, 3, r, name="head")])
            t = Trainer(net, Momentum(net.layers, lr=0.005), cfg)
            t.fit(data)
            peaks[name], losses[name] = t.peak_bytes, [h.mean_loss for h in t.history]
        for name in ("micro8", "revolve", "micro8+revolve"):
            assert losses[name] == pytest.approx(losses["full"], rel=1e-9)
            assert losses[name][-1] < losses[name][0]
        assert peaks["micro8"] < peaks["full"]
        assert peaks["revolve"] < peaks["full"]
        assert peaks["micro8+revolve"] == min(peaks.values())

    def test_batchnorm_breaks_exactness_but_checkpointing_does_not(self, rng, data):
        """The documented caveat: per-micro-batch BN statistics make
        accumulation inexact, while checkpointing stays bit-exact."""
        from repro.autodiff import BatchNormLayer, SequentialNet

        def bn_net(seed):
            r = np.random.default_rng(seed)
            return SequentialNet(
                [
                    DenseLayer(6, 16, r, name="fc0"),
                    BatchNormLayer(16, name="bn"),
                    ReLULayer("r0"),
                    DenseLayer(16, 3, r, name="head"),
                ]
            )

        x, y = data.x[:32], data.y[:32]
        ref_net = bn_net(5)
        loss_ref, grads_ref, _ = ref_net.train_step(x, y)

        # Checkpointing: exact.
        from repro.checkpointing import revolve_schedule
        from repro.autodiff import run_schedule

        res = run_schedule(ref_net, revolve_schedule(4, 2), x, y)
        assert res.loss == loss_ref

        # Accumulation: BN statistics differ per micro-batch => inexact.
        acc_net = bn_net(5)
        t = Trainer(
            acc_net,
            Momentum(acc_net.layers, lr=1e-9),  # ~no parameter movement
            TrainerConfig(epochs=1, batch_size=32, micro_batch_size=8, shuffle_seed=0),
        )
        from repro.autodiff.data import Dataset

        t.fit(Dataset(x, y))
        assert t.history[0].mean_loss != pytest.approx(loss_ref, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(batch_size=8, micro_batch_size=16)
        with pytest.raises(ValueError):
            TrainerConfig(micro_batch_size=0)


class TestLoop:
    def test_history_per_epoch(self, rng, data):
        net = make_net(rng)
        t = Trainer(net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=7))
        hist = t.fit(data)
        assert len(hist) == 7
        assert [h.epoch for h in hist] == list(range(7))

    def test_loss_decreases(self, rng, data):
        net = make_net(rng)
        t = Trainer(net, Momentum(net.layers, lr=0.02), TrainerConfig(epochs=10))
        hist = t.fit(data)
        assert hist[-1].mean_loss < hist[0].mean_loss

    def test_early_stop(self, rng, data):
        net = make_net(rng)
        t = Trainer(
            net,
            Momentum(net.layers, lr=0.05),
            TrainerConfig(epochs=50, early_stop_loss=0.2),
        )
        hist = t.fit(data)
        assert len(hist) < 50
        assert hist[-1].mean_loss <= 0.2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainerConfig(rho=0.5)
