"""Compression-aware checkpointing: the compressed slot band, the codec
model, the CompressedBackend, the program IR, and the frontier claims.

The acceptance properties: compressed schedules compile -> decompile
exactly, the Tiered/Compressed backends' tier and codec ledgers match
the program's compile-time accounting across every registered family x
random (l, slots, seed), lossless (ratio 1, zero-cost) settings collapse
exactly onto the pure families, and on a deep Figure-1 panel at least
one compressed family strictly reduces peak bytes vs revolve at
equal-or-better wall time within the codec's declared fidelity bound.
"""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.checkpointing import (
    COMPRESS_SLOT_BASE,
    ChainSpec,
    EnergyObjective,
    TIER_SLOT_STRIDE,
    TimeObjective,
    UnitCostObjective,
    compressed_slot,
    compressed_variant,
    is_compressed_slot,
    joint_cost,
    joint_plan,
    joint_schedule,
    measure_frontier,
    storage_slot,
    tier_of_slot,
    tier_slot,
    validate,
)
from repro.checkpointing.actions import ActionKind
from repro.checkpointing.revolve import revolve_schedule
from repro.checkpointing.strategies import available_strategies, get_strategy
from repro.edge.storage import (
    BITTRAIN_SPARSE,
    EMMC,
    FP16_CAST,
    LOSSLESS,
    SD_CARD,
    CompressionModel,
    compression_models,
)
from repro.engine import (
    CompressedBackend,
    SimBackend,
    TieredBackend,
    compile_schedule,
    decompile,
    execute,
)

FAMILIES = available_strategies()


def _random_spec(l: int, seed: int, max_bytes: int = 4096) -> ChainSpec:
    rng = random.Random(seed)
    return ChainSpec(
        name=f"z{seed}",
        act_bytes=tuple(rng.randint(1, max_bytes) for _ in range(l + 1)),
        fwd_cost=tuple(rng.uniform(0.1, 3.0) for _ in range(l)),
        bwd_cost=tuple(rng.uniform(0.1, 3.0) for _ in range(l)),
    )


class TestCompressedBand:
    def test_flag_roundtrip(self):
        for slot in (0, 1, 7, tier_slot(1, 3), COMPRESS_SLOT_BASE - 1):
            flagged = compressed_slot(slot)
            assert flagged == COMPRESS_SLOT_BASE + slot
            assert is_compressed_slot(flagged)
            assert not is_compressed_slot(slot)
            assert storage_slot(flagged) == slot
            assert storage_slot(slot) == slot

    def test_tier_helpers_strip_the_flag(self):
        flagged = compressed_slot(tier_slot(1, 5))
        assert tier_of_slot(flagged) == 1
        assert tier_of_slot(compressed_slot(2)) == 0

    def test_compressed_slot_rejects_out_of_band(self):
        from repro.errors import ScheduleError

        with pytest.raises(ScheduleError):
            compressed_slot(-1)
        with pytest.raises(ScheduleError):
            compressed_slot(COMPRESS_SLOT_BASE)

    def test_band_is_above_every_tier_band(self):
        assert COMPRESS_SLOT_BASE >= 2 * TIER_SLOT_STRIDE
        # Flagged tier-banded ids still fit comfortably in int32 space
        assert compressed_slot(tier_slot(1, TIER_SLOT_STRIDE - 1)) < 2**31


class TestCompressionModel:
    def test_identity_default_is_lossless_and_free(self):
        assert LOSSLESS.lossless
        assert LOSSLESS.compressed_bytes(1234) == 1234
        assert LOSSLESS.compress_seconds(10**9) == 0.0
        assert LOSSLESS.decompress_seconds(10**9) == 0.0

    def test_ratio_bounds_enforced(self):
        with pytest.raises(ValueError):
            CompressionModel(ratio=0.0)
        with pytest.raises(ValueError):
            CompressionModel(ratio=1.5)
        with pytest.raises(ValueError):
            CompressionModel(fidelity_loss=-0.1)

    @pytest.mark.parametrize(
        "field",
        (
            "compress_bytes_per_s",
            "decompress_bytes_per_s",
            "compress_latency_s",
            "decompress_latency_s",
            "fidelity_loss",
        ),
    )
    def test_nan_fields_rejected(self, field):
        with pytest.raises(ValueError, match="must be"):
            CompressionModel(**{field: float("nan")})

    def test_infinite_bandwidth_is_free(self):
        m = CompressionModel(compress_bytes_per_s=float("inf"))
        assert m.compress_seconds(10**9) == m.decompress_seconds(10**9) == 0.0

    def test_compressed_bytes_floor(self):
        m = CompressionModel(name="tiny", ratio=0.001)
        assert m.compressed_bytes(0) == 0
        assert m.compressed_bytes(10) == 1  # never rounds a payload to nothing
        assert m.compressed_bytes(10**6) == 1000

    def test_seconds_are_bandwidth_plus_latency(self):
        m = CompressionModel(
            name="m",
            ratio=0.5,
            compress_bytes_per_s=1e6,
            decompress_bytes_per_s=2e6,
            compress_latency_s=0.01,
            decompress_latency_s=0.02,
        )
        assert m.compress_seconds(1_000_000) == pytest.approx(1.01)
        assert m.decompress_seconds(1_000_000) == pytest.approx(0.52)

    def test_registry_presets(self):
        models = compression_models()
        assert set(models) == {"lossless", "bittrain", "fp16"}
        assert models["bittrain"] is BITTRAIN_SPARSE and BITTRAIN_SPARSE.lossless
        assert models["fp16"] is FP16_CAST and FP16_CAST.fidelity_loss > 0


class TestCompressedDifferential:
    """Every backend agrees with the program's compile-time accounting
    for every registered family, zip ones included."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        l=st.integers(min_value=2, max_value=10),
        slots=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_compiled_matches_interpreter_on_every_backend(
        self, family, l, slots, seed
    ):
        strat = get_strategy(family)
        assume(strat.feasible(l, slots))
        sch = strat.build_schedule(l, slots)
        program = compile_schedule(sch)
        assert decompile(program) == sch
        for spec in (ChainSpec.homogeneous(l), _random_spec(l, seed)):
            sim = execute(sch, SimBackend(spec))
            for backend in (
                TieredBackend(spec, disk=SD_CARD),
                CompressedBackend(spec, BITTRAIN_SPARSE, disk=SD_CARD),
            ):
                run = execute(sch, backend)
                assert (run.forward_steps, run.executions, run.peak_slots) == (
                    sim.forward_steps, sim.executions, sim.peak_slots
                )
                assert sum(t.writes for t in run.tiers) == program.snapshots_taken
                assert sum(t.reads for t in run.tiers) == program.restores
            z = run.compression
            assert (z.compress_calls, z.decompress_calls) == program.compression_usage

    def test_zip_families_report_compression(self):
        spec = ChainSpec.homogeneous(13, act_bytes=1 << 20)
        sch = get_strategy("revolve_zip").build_schedule(13, 3)
        run = execute(sch, CompressedBackend(spec, BITTRAIN_SPARSE, disk=SD_CARD))
        z = run.compression
        assert z is not None and z.codec == "bittrain-sparse"
        assert z.compress_calls == run.snapshots_taken
        assert z.decompress_calls == run.restores
        assert z.bytes_saved > 0
        assert run.transfer_seconds >= z.codec_seconds

    def test_plain_backend_executes_zip_schedules(self):
        """The flag travels in the plan: backends without a codec treat
        compressed-band slots as ordinary tier-0 storage."""
        sch = get_strategy("revolve_zip").build_schedule(13, 3)
        spec = ChainSpec.homogeneous(13)
        plain = execute(revolve_schedule(13, 3), SimBackend(spec))
        zipped = execute(sch, SimBackend(spec))
        assert zipped.forward_steps == plain.forward_steps
        assert zipped.peak_bytes == plain.peak_bytes


class TestLosslessCollapse:
    """ratio = 1 with zero codec cost must collapse exactly onto the
    existing pure families — measurements and plans alike."""

    def test_revolve_zip_measures_exactly_revolve(self):
        spec = _random_spec(13, 5)
        raw = execute(revolve_schedule(13, 3), TieredBackend(spec, disk=SD_CARD))
        zipped = execute(
            compressed_variant(revolve_schedule(13, 3), "revolve_zip"),
            CompressedBackend(spec, LOSSLESS, disk=SD_CARD),
        )
        assert zipped.peak_bytes == raw.peak_bytes
        assert zipped.transfer_seconds == raw.transfer_seconds
        assert zipped.forward_cost == raw.forward_cost
        assert [t.peak_bytes for t in zipped.tiers] == [
            t.peak_bytes for t in raw.tiers
        ]
        assert zipped.compression.bytes_saved == 0
        assert zipped.compression.codec_seconds == 0.0
        assert zipped.compression.fidelity_loss == 0.0

    @given(l=st.integers(1, 30), c=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_joint_zip_plan_collapses_to_plain_joint(self, l, c):
        """With the identity codec the compress option never strictly
        improves on plain paging, so the DP's tie-break keeps the pure
        plan — action-for-action."""
        spec = ChainSpec.homogeneous(l)
        plain = joint_schedule(spec, c, UnitCostObjective(spec, 1.0, 1.0))
        zipped = joint_schedule(
            spec, c, UnitCostObjective(spec, 1.0, 1.0, codec=LOSSLESS)
        )
        assert zipped.actions == plain.actions
        assert joint_cost(
            spec, c, UnitCostObjective(spec, 1.0, 1.0, codec=LOSSLESS)
        ) == joint_cost(spec, c, UnitCostObjective(spec, 1.0, 1.0))

    def test_frontier_collapses_pointwise(self):
        from repro.experiments.figure1 import COMPRESSED_FAMILIES

        spec = _random_spec(21, 9)
        pts = {
            p.strategy: p
            for p in measure_frontier(
                spec, 3, COMPRESSED_FAMILIES, codec=LOSSLESS, unit_seconds=1e-6
            )
        }
        r, z = pts["revolve"], pts["revolve_zip"]
        assert (z.slots, z.extra_forwards, z.peak_bytes, z.wall_seconds) == (
            r.slots,
            r.extra_forwards,
            r.peak_bytes,
            r.wall_seconds,
        )
        jt, jz = pts["joint_time"], pts["joint_zip"]
        assert (jz.extra_forwards, jz.peak_bytes, jz.wall_seconds) == (
            jt.extra_forwards,
            jt.peak_bytes,
            jt.wall_seconds,
        )


class TestPlannedEqualsMeasured:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "codec,objective",
        (
            (BITTRAIN_SPARSE, TimeObjective),
            (FP16_CAST, TimeObjective),
            (BITTRAIN_SPARSE, EnergyObjective),
            (FP16_CAST, EnergyObjective),
        ),
        ids=("bittrain-sparse", "fp16-cast", "energy-bittrain-sparse", "energy-fp16-cast"),
    )
    def test_time_objective_with_codec(self, seed, codec, objective):
        """The DP's priced cost for a compressed plan equals executing
        that plan on a CompressedBackend, codec seconds included — in
        seconds, and in joules with the rail held at ``io_w`` through
        every transfer.

        Steps cost enough, activations are large enough and slots are
        tight enough that every case stores splits through the codec.
        """
        rng = random.Random(seed)
        l = rng.randint(2, 18)
        spec = _random_spec(l, 1000 + seed, max_bytes=1 << 16)
        c = min(rng.randint(1, 4), l // 2)
        unit_s = 0.1
        obj = objective(spec, SD_CARD, unit_s, codec=codec)
        assert joint_plan(spec, c, obj).compressed_splits > 0
        sched = joint_schedule(spec, c, obj, family="joint_zip")
        assert validate(sched)
        run = execute(sched, CompressedBackend(spec, codec, disk=SD_CARD))
        measured = (
            (run.forward_cost + run.replay_cost) * unit_s + obj.io_w * run.transfer_seconds
        )
        planned = joint_cost(spec, c, obj) + run.replay_cost * unit_s
        assert measured == pytest.approx(planned, rel=1e-6)
        assert run.tier("memory").peak_slots <= c


class TestOnePrice:
    """The objectives and the backend price a transfer through one
    function, so the planned and measured floats are equal, not close."""

    @settings(max_examples=60, deadline=None)
    @given(
        l=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**16),
        disk=st.sampled_from((SD_CARD, EMMC)),
        codec=st.sampled_from((LOSSLESS, BITTRAIN_SPARSE, FP16_CAST)),
    )
    def test_objective_prices_equal_backend_charges(self, l, seed, disk, codec):
        rng = random.Random(seed)
        spec = ChainSpec(
            name=f"p{seed}",
            act_bytes=tuple(rng.randint(1, 1 << 24) for _ in range(l + 1)),
            fwd_cost=tuple(rng.uniform(0.1, 3.0) for _ in range(l)),
            bwd_cost=tuple(rng.uniform(0.1, 3.0) for _ in range(l)),
        )
        obj = TimeObjective(spec, disk=disk, codec=codec)
        backend = CompressedBackend(spec, codec, disk=disk)
        backend.begin()
        for band in obj.paged_tiers:
            for i in range(l + 1):
                assert obj.write_cost(band, i) == backend.snapshot(band, i)
                assert obj.read_cost(band, i) == backend.restore(band, i)
                backend.free(band, i)


class TestProgramCompressionIR:
    def test_zip_program_reports_usage(self):
        sch = get_strategy("revolve_zip").build_schedule(13, 3)
        program = compile_schedule(sch)
        assert program.compressed
        snaps = sum(1 for a in sch.actions if a.kind is ActionKind.SNAPSHOT)
        restores = sum(1 for a in sch.actions if a.kind is ActionKind.RESTORE)
        assert program.compression_usage == (snaps, restores)

    def test_plain_program_reports_none(self):
        program = compile_schedule(get_strategy("revolve").build_schedule(13, 3))
        assert not program.compressed
        assert program.compression_usage == (0, 0)


class TestFrontierDominance:
    """The figure1_compressed acceptance claim, checked at its cheapest
    qualifying point: depth 34, batch 8, image 224."""

    @pytest.fixture(scope="class")
    def panel_points(self):
        from repro.edge.device import ODROID_XU4
        from repro.experiments.figure1 import COMPRESSED_FAMILIES, _joint_spec

        spec = _joint_spec(34, 8, 224)
        return {
            p.strategy: p
            for p in measure_frontier(
                spec,
                3,
                COMPRESSED_FAMILIES,
                codec=BITTRAIN_SPARSE,
                unit_seconds=1.0 / ODROID_XU4.flops_per_s,
            )
        }

    def test_a_compressed_family_strictly_dominates_revolve(self, panel_points):
        base = panel_points["revolve"]
        dominating = [
            p
            for name, p in panel_points.items()
            if name in ("revolve_zip", "joint_zip")
            and p.peak_bytes < base.peak_bytes
            and p.wall_seconds <= base.wall_seconds
        ]
        assert dominating, panel_points

    def test_fidelity_within_declared_bound(self, panel_points):
        for p in panel_points.values():
            assert 0.0 <= p.fidelity_loss <= BITTRAIN_SPARSE.fidelity_loss

    def test_fp16_lever_carries_its_fidelity_cost(self):
        from repro.experiments.figure1 import figure1_compressed_panel

        rows = figure1_compressed_panel("b", codec="fp16", depths=(34,))
        (row,) = rows
        zipped = row["strategies"]["revolve_zip"]
        assert zipped["fidelity_loss"] == FP16_CAST.fidelity_loss
        assert row["strategies"]["revolve"]["fidelity_loss"] == 0.0
