"""The command-line interface regenerates every artifact."""

import pytest

from repro.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nope"])


class TestTables:
    def test_table1_default(self, capsys):
        out = run(capsys, "table1")
        assert "Table I" in out
        assert "ResNet152" in out

    def test_table1_csv(self, capsys):
        out = run(capsys, "table1", "--csv")
        assert out.splitlines()[0].startswith("batch,")

    def test_table1_paper_source(self, capsys):
        out = run(capsys, "table1", "--source", "paper")
        assert "230.05" in out

    def test_table1_compare(self, capsys):
        out = run(capsys, "table1", "--compare")
        assert "x)" in out

    def test_table2(self, capsys):
        out = run(capsys, "table2", "--source", "paper")
        assert "1500" in out

    def test_table3(self, capsys):
        out = run(capsys, "table3", "--source", "paper")
        assert "GB" in out


class TestOtherArtifacts:
    def test_section5(self, capsys):
        out = run(capsys, "section5")
        assert "Mem(l, s)" in out

    def test_figure1_ascii(self, capsys):
        out = run(capsys, "figure1", "--panel", "a")
        assert "Figure 1a" in out

    def test_figure1_csv(self, capsys):
        out = run(capsys, "figure1", "--panel", "b", "--csv")
        lines = out.splitlines()
        assert lines[0] == "model,rho,memory_mb"
        assert len(lines) > 100

    def test_ablation(self, capsys):
        out = run(capsys, "ablation")
        assert "revolve" in out

    def test_ablation_covers_all_registered_strategies(self, capsys):
        from repro.checkpointing import available_strategies

        out = run(capsys, "ablation")
        for name in available_strategies():
            assert name in out

    def test_ablation_strategy_restriction(self, capsys):
        out = run(capsys, "ablation", "--strategy", "revolve", "--strategy", "sqrt")
        header = out.splitlines()[1]
        assert "revolve" in header and "sqrt" in header
        assert "uniform" not in out and "disk_revolve" not in out

    def test_ablation_rejects_unknown_strategy(self):
        with pytest.raises(SystemExit):
            main(["ablation", "--strategy", "nope"])

    def test_strategies_listing(self, capsys):
        from repro.checkpointing import available_strategies

        out = run(capsys, "strategies", "--length", "24", "--budget", "6")
        for name in available_strategies():
            assert name in out
        assert "schedule cache:" in out
        assert "feasible" in out

    def test_strategies_infeasible_marked(self, capsys):
        out = run(capsys, "strategies", "--length", "50", "--budget", "2")
        line = next(l for l in out.splitlines() if l.startswith("store_all"))
        assert "no" in line and "inf" in line

    def test_batch_tradeoff(self, capsys):
        out = run(capsys, "batch-tradeoff", "--model", "18", "--images", "1000")
        assert "ResNet18" in out

    def test_viewpoint_small(self, capsys):
        out = run(capsys, "viewpoint", "--subjects", "20", "--epochs", "3")
        assert "teacher" in out
        assert "recovery" in out

    def test_summary(self, capsys):
        out = run(capsys, "summary")
        assert "Table I" in out
        assert "Figure 1b" in out


class TestExtensionCommands:
    def test_pareto(self, capsys):
        out = run(capsys, "pareto", "--length", "50")
        assert "Pareto" in out
        assert "slots" in out

    def test_pareto_elides_long_frontier(self, capsys):
        out = run(capsys, "pareto", "--length", "152")
        assert "elided" in out

    def test_disk_revolve(self, capsys):
        out = run(capsys, "disk-revolve", "--length", "50", "--mem-slots", "2")
        assert "two-level optimal cost" in out

    @pytest.mark.parametrize(
        "argv,expected",
        (
            (
                ("--length", "50", "--mem-slots", "2"),
                "Two-level checkpointing: l=50, memory slots=2, disk I/O cost=1.0\n"
                "  memory-only Revolve cost : 285\n"
                "  two-level optimal cost   : 112.0\n"
                "  disk checkpoints         : 16 (peak 16 resident)\n"
                "  peak memory slots        : 2\n"
                "  pure forward steps       : 81\n",
            ),
            (
                ("--length", "152", "--mem-slots", "3", "--disk-cost", "0.25"),
                "Two-level checkpointing: l=152, memory slots=3, disk I/O cost=0.25\n"
                "  memory-only Revolve cost : 886\n"
                "  two-level optimal cost   : 225.2\n"
                "  disk checkpoints         : 149 (peak 149 resident)\n"
                "  peak memory slots        : 3\n"
                "  pure forward steps       : 151\n",
            ),
            (
                ("--length", "20", "--mem-slots", "2", "--disk-cost", "inf"),
                "Two-level checkpointing: l=20, memory slots=2, disk I/O cost=inf\n"
                "  memory-only Revolve cost : 65\n"
                "  two-level optimal cost   : 65.0\n"
                "  disk checkpoints         : 0 (peak 0 resident)\n"
                "  peak memory slots        : 2\n"
                "  pure forward steps       : 65\n",
            ),
        ),
        ids=("l50-c2", "l152-c3-d0.25", "l20-c2-never-page"),
    )
    def test_disk_revolve_output_pinned(self, capsys, argv, expected):
        assert run(capsys, "disk-revolve", *argv) == expected

    def test_disk_revolve_rejects_nan_cost(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["disk-revolve", "--length", "10", "--mem-slots", "2", "--disk-cost", "nan"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.err == "repro-edge: error: param 'disk_cost' must not be NaN\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv,message",
        (
            (("fleet", "--nodes", "0"), "need n_nodes >= 1 and days >= 1"),
            (("fleet", "--crash-rate", "nan"), "param 'crash_rate' must not be NaN"),
            (("energy", "--gflops", "nan"), "param 'gflops' must not be NaN"),
            (("campaign", "--crossings", "nan"), "param 'crossings' must not be NaN"),
            (
                ("resilience", "--mtbf-hours", "nan", "--trials", "3"),
                "param 'mtbf_hours' must not be NaN",
            ),
            (
                ("run", "table1", "--param", "source=bogus"),
                "param 'source': 'bogus' not in ['ours', 'paper']",
            ),
            (("profile", "--top", "-1"), "param 'top' must be >= 1, got -1"),
            (("viewpoint", "--subjects", "0"), "param 'subjects' must be >= 1, got 0"),
            (("batch-tradeoff", "--images", "0"), "param 'images' must be >= 1, got 0"),
            (("campaign", "--crossings", "-5"), "param 'crossings' must be >= 0, got -5.0"),
            (("energy", "--gflops", "-1"), "inference_flops_per_frame must be non-negative"),
            (("energy", "--image-kb", "-1"), "fps, frame_bytes and seconds must be positive"),
            (("resilience", "--mtbf-hours", "-1"), "MTBF and snapshot cost must be positive"),
            (("resilience", "--trials", "0"), "trials must be >= 1"),
            (
                ("campaign", "--crossings", "inf"),
                "crossings_per_day must be finite and >= 0, got inf",
            ),
            (
                ("resilience", "--work-hours", "-1"),
                "work_seconds must be finite and >= 0, got -3600.0",
            ),
            (
                ("resilience", "--restart-s", "-1"),
                "restart_seconds must be finite and >= 0, got -1.0",
            ),
            (("resilience", "--snapshot-mb", "-1"), "byte count must be non-negative"),
            (("campaign", "--target", "2"), "target_accuracy must be in [0, 1], got 2.0"),
            (("viewpoint", "--epochs", "0"), "epochs must be finite and >= 1, got 0"),
            (("energy", "--image-kb", "inf"), "image_kb must be finite, got inf"),
            (
                ("resilience", "--seed", "-1", "--trials", "1"),
                "seed must be finite and >= 0, got -1",
            ),
            (
                ("resilience", "--snapshot-mb", "inf", "--trials", "1"),
                "snapshot_mb must be finite, got inf",
            ),
            (
                ("exec", "--act-kb", "inf", "--length", "5", "--slots", "2"),
                "act_kb must be finite and >= 0, got inf",
            ),
            (
                ("exec", "--act-kb", "inf", "--length", "5", "--slots", "2", "--compile"),
                "act_kb must be finite and >= 0, got inf",
            ),
            (
                ("exec", "--act-kb", "nan", "--length", "5", "--slots", "2"),
                "act_kb must be finite and >= 0, got nan",
            ),
            (("ablation", "--length", "0"), "chain length must be >= 1, got 0"),
        ),
        ids=(
            "fleet-nodes0", "fleet-crash-nan", "energy-gflops-nan",
            "campaign-crossings-nan", "resilience-mtbf-nan", "run-bad-param-value",
            "profile-top-negative", "viewpoint-subjects0", "batch-tradeoff-images0",
            "campaign-crossings-negative", "energy-gflops-negative",
            "energy-image-kb-negative", "resilience-mtbf-negative", "resilience-trials0",
            "campaign-crossings-inf", "resilience-work-negative", "resilience-restart-negative",
            "resilience-snapshot-negative", "campaign-target-above-1", "viewpoint-epochs0",
            "energy-image-kb-inf", "resilience-seed-negative", "resilience-snapshot-inf",
            "exec-act-kb-inf", "exec-act-kb-inf-compile", "exec-act-kb-nan",
            "ablation-length0",
        ),
    )
    def test_bad_input_exits_2_without_traceback(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().err == f"repro-edge: error: {message}\n"

    def test_campaign(self, capsys):
        out = run(capsys, "campaign", "--crossings", "200", "--target", "0.8")
        assert "target reached" in out

    def test_energy(self, capsys):
        out = run(capsys, "energy")
        assert "breakeven" in out
        assert "Streaming" in out

    def test_sensitivity(self, capsys):
        out = run(capsys, "sensitivity")
        assert "sensitivity" in out

    def test_extended(self, capsys):
        out = run(capsys, "extended")
        assert "MobileNetV2" in out

    def test_profile(self, capsys):
        out = run(capsys, "profile", "--model", "18", "--top", "4")
        assert "activation holders" in out

    def test_fleet(self, capsys):
        out = run(capsys, "fleet", "--nodes", "4", "--days", "10")
        assert "isolated" in out and "federated" in out

    def test_fleet_seed_flag(self, capsys):
        a = run(capsys, "fleet", "--nodes", "4", "--days", "10", "--seed", "5")
        b = run(capsys, "fleet", "--nodes", "4", "--days", "10", "--seed", "5")
        c = run(capsys, "fleet", "--nodes", "4", "--days", "10", "--seed", "6")
        assert a == b
        assert a != c

    def test_fleet_crash_rate(self, capsys):
        out = run(
            capsys, "fleet", "--nodes", "6", "--days", "30",
            "--crash-rate", "0.1", "--seed", "3",
        )
        assert "faults" in out and "crashes" in out and "samples lost" in out

    @pytest.mark.parametrize(
        "argv,expected",
        (
            (
                (),
                "Fleet of 10 nodes over 30 days (transfer value 0.15, seed 0):\n"
                "  isolated : mean 0.943  worst 0.711  radio 0.0 GB\n"
                "  federated: mean 0.967  worst 0.938  radio 5.6 GB (period 5 days)\n",
            ),
            (
                ("--nodes", "6", "--days", "30", "--crash-rate", "0.05",
                 "--period", "3", "--seed", "2"),
                "Fleet of 6 nodes over 30 days (transfer value 0.15, seed 2):\n"
                "  isolated : mean 0.970  worst 0.970  radio 0.0 GB\n"
                "  federated: mean 0.970  worst 0.970  radio 5.6 GB (period 3 days)\n"
                "  faults   : rate 0.050/node/day -> 10 crashes, 21366 samples lost, "
                "10 node-days down (isolated run)\n",
            ),
        ),
        ids=("defaults", "n6-crash0.05-p3-s2"),
    )
    def test_fleet_output_pinned(self, capsys, argv, expected):
        assert run(capsys, "fleet", *argv) == expected


class TestSpecCommands:
    """The edge-analysis commands are lab specs with their old stdout."""

    #: sha256 of stdout captured from the hand-written handlers these
    #: specs replaced, at defaults and at one non-default flag set.
    #: ``viewpoint --subjects 20 --epochs 3`` was re-pinned when the
    #: student moved onto ``Trainer.fit``, whose batch order is drawn per
    #: epoch from ``(shuffle_seed, epoch)``.
    STDOUT_SHA256 = {
        "profile": "63875d565cbf593480d155c7b0c95821ee03269dcce2d4ac475893e837f48745",
        "profile --model 18 --top 4":
            "b14dc6c7f7598ce2202f6858e9893d6d9a1867dbe2df73b8f29cb063c0b170f8",
        "pareto": "0a6c082a05479167639a6997c6b5ac53b0d29be17163ae99008bbd0ea7950389",
        "pareto --length 50":
            "f1a4542dda30280f8fc0c10fc092abafb8b983646b6b598017928f51e56f6a14",
        "disk-revolve": "8f3606c60e8fc375db38bf85da8e56dea2f6f813b1989c8c44d1016f09a7314e",
        "campaign": "bb7c1eee051deadacea93e29a61d5ba78c88ca2ec47707bb6d66bc5578b69ca7",
        "campaign --crossings 200 --target 0.8 --seed 1":
            "194a5a96d407d1909896d614254654091fe3207d55bf4d85f72d625020e31232",
        "resilience": "eda54ea15cdf2a1af5b8e8a293e88cad7d92a5ab8f5faa2d370c0af1d7883d2a",
        "resilience --mtbf-hours 6 --work-hours 12 --snapshot-mb 20 --storage emmc "
        "--restart-s 30 --trials 5 --seed 2":
            "5d4f388b63070ddbc37a4d2bd5635f57fb33a37cb8418f31044576a2d1317cf4",
        "energy": "2a9aa80bb6c83b337dda06d499647aacb7cfc456be596d3c9fae54103de05064",
        "energy --image-kb 20 --gflops 1.5":
            "e1bb0714bdc5bb1aeb09154613bf61ec70191ac1027a9b334ddc3874f4f661b6",
        "batch-tradeoff": "37f13d226cca3a912dbc765b9dd3e3001b676889a3ef0caed74882071d97d05d",
        "batch-tradeoff --model 18 --device RaspberryPi4 --images 1000":
            "fbafe76454518f72cc3cbd796ef7f3ea80b57ddfeef7cadc979a815995b83a13",
        "viewpoint --subjects 20 --epochs 3":
            "4d9bbe39ba9544bc732c213b22c891eb1186a1502542415dbf30a32175876245",
        "viewpoint --subjects 20 --epochs 3 --seed 1":
            "8035d209fc9ad85353e8fcfb524f2e81361ac0ddd7db8a138ad5fe12ce65b225",
    }

    @pytest.mark.parametrize("argv", sorted(STDOUT_SHA256))
    def test_stdout_pinned(self, capsys, argv):
        import hashlib

        out = run(capsys, *argv.split())
        assert hashlib.sha256(out.encode()).hexdigest() == self.STDOUT_SHA256[argv]

    @pytest.mark.parametrize(
        "name,params",
        (
            ("profile", ()), ("pareto", ()), ("disk-revolve", ()),
            ("campaign", ()), ("fleet", ()), ("resilience", ("trials=3",)),
            ("energy", ()), ("batch-tradeoff", ()),
            ("viewpoint", ("subjects=20", "epochs=3")),
        ),
    )
    def test_run_json_is_cached(self, capsys, tmp_path, name, params):
        import json

        argv = ["run", name, "--outdir", str(tmp_path), "--format", "json"]
        for param in params:
            argv += ["--param", param]
        body, _, summary = run(capsys, *argv).rstrip("\n").rpartition("\n")
        assert isinstance(json.loads(body), dict)
        assert summary.startswith("lab cache: 0 hits / 1 misses")
        again = run(capsys, *argv)
        assert again.startswith(body) and "lab cache: 1 hits / 0 misses" in again

    @pytest.mark.parametrize(
        "argv",
        (
            ("disk-revolve", "--param", "length=20", "--param", "mem_slots=2",
             "--param", "disk_cost=Infinity"),
            ("energy", "--param", "gflops=Infinity"),
        ),
        ids=("disk-revolve-never-page", "energy-gflops-inf"),
    )
    def test_infinite_param_is_cached(self, capsys, tmp_path, argv):
        """inf round-trips through the cache key, the stored payload and
        back: the second run is a hit that renders the same text."""
        argv = ("run", argv[0], "--outdir", str(tmp_path), *argv[1:])
        first = run(capsys, *argv)
        assert "lab cache: 0 hits / 1 misses" in first
        again = run(capsys, *argv)
        assert "lab cache: 1 hits / 0 misses" in again
        assert again.rpartition("lab cache")[0] == first.rpartition("lab cache")[0]
        # ...and the run's manifest records the inf param and validates.
        from repro import lab

        assert lab.check_manifests(lab.ArtifactStore(tmp_path)) == 1

    def test_energy_infinite_gflops(self, capsys):
        assert "local inf kJ -> ship wins" in run(capsys, "energy", "--gflops", "inf")


class TestMegafleet:
    def test_summary_output(self, capsys):
        out = run(capsys, "megafleet", "--devices", "5000", "--days", "15")
        assert "Megafleet: 5,000 devices over 15 days" in out
        assert "pi3-sd" in out and "jetson-emmc" in out
        assert "totals:" in out

    def test_jobs_do_not_change_the_output(self, capsys):
        argv = ("megafleet", "--devices", "9000", "--days", "12",
                "--federation-period", "4", "--seed", "2")
        serial = run(capsys, *argv, "--jobs", "1", "--shard-devices", "4096")
        sharded = run(capsys, *argv, "--jobs", "2", "--shard-devices", "4096")
        assert serial == sharded

    def test_uniform_preset_and_csv(self, capsys):
        out = run(
            capsys, "megafleet", "--preset", "uniform", "--devices", "2000",
            "--days", "10", "--report-every", "2", "--format", "csv",
        )
        lines = out.strip().splitlines()
        assert lines[0] == "day,mean_accuracy,min_accuracy,devices_up,radio_bytes_total"
        assert len(lines) == 6  # days 2,4,6,8,10

    def test_matches_cached_run_path(self, capsys):
        """The hand-written command and ``run megafleet`` agree."""
        direct = run(capsys, "megafleet", "--devices", "3000", "--days", "10",
                     "--jobs", "2")
        via_run = run(capsys, "run", "megafleet", "--param", "devices=3000",
                      "--param", "days=10")
        assert direct == via_run


class TestResilience:
    def test_report_recovers_young_daly(self, capsys):
        out = run(capsys, "resilience", "--trials", "10")
        assert "tau*" in out
        assert "Young/Daly optimum recovered" in out
        assert "Overhead vs fault rate" in out

    def test_seeded_runs_reproduce(self, capsys):
        a = run(capsys, "resilience", "--trials", "5", "--seed", "4")
        b = run(capsys, "resilience", "--trials", "5", "--seed", "4")
        assert a == b

    def test_storage_choice_changes_delta(self, capsys):
        sd = run(capsys, "resilience", "--trials", "2", "--storage", "sd-card")
        emmc = run(capsys, "resilience", "--trials", "2", "--storage", "emmc")
        delta = lambda s: float(s.split("delta = ")[1].split(" s")[0])  # noqa: E731
        assert delta(emmc) < delta(sd)

    def test_resilience_trace_flag(self, capsys, tmp_path):
        import json

        path = tmp_path / "res.json"
        run(capsys, "resilience", "--trials", "3", "--trace", str(path))
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert "recovery" in cats

    def test_all_writes_artifacts(self, capsys, tmp_path):
        out = run(capsys, "all", "--outdir", str(tmp_path))
        assert out.count("wrote") >= 20
        assert (tmp_path / "table1_ours.txt").exists()
        assert (tmp_path / "figure1_b.csv").exists()


class TestTrace:
    def test_trace_figure1_chrome_categories(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.json"
        out = run(capsys, "trace", "figure1", "--out", str(path))
        assert "Figure 1" in out  # wrapped command output still printed
        assert "trace written to" in out
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"epoch", "batch", "action", "cache"} <= cats

    def test_trace_passes_wrapped_flags(self, capsys, tmp_path):
        path = tmp_path / "t.json"
        out = run(capsys, "trace", "figure1", "--panel", "a", "--out", str(path))
        assert "Figure 1a" in out
        assert path.exists()

    def test_trace_jsonl_format(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        run(capsys, "trace", "strategies", "--out", str(path), "--format", "jsonl")
        lines = path.read_text().splitlines()
        assert lines
        assert all(json.loads(line) for line in lines)

    def test_trace_summary_format(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        run(capsys, "trace", "strategies", "--out", str(path), "--format", "summary")
        assert "category" in path.read_text()

    def test_trace_no_probe_skips_training(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.json"
        run(capsys, "trace", "strategies", "--out", str(path), "--no-probe")
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert "cache" in cats and "epoch" not in cats

    def test_trace_of_trace_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "trace", "figure1"])

    def test_tracer_restored_after_trace(self, capsys, tmp_path):
        from repro.obs import NullTracer, get_tracer

        run(capsys, "trace", "strategies", "--out", str(tmp_path / "t.json"))
        assert isinstance(get_tracer(), NullTracer)

    def test_ablation_trace_flag(self, capsys, tmp_path):
        import json

        path = tmp_path / "abl.json"
        out = run(capsys, "ablation", "--strategy", "revolve", "--trace", str(path))
        assert "trace written to" in out
        doc = json.loads(path.read_text())
        cells = [e for e in doc["traceEvents"] if e["name"] == "cell"]
        # one span per (length, budget) cell of the ablation grid
        assert len(cells) == 5 * 5
        assert all(e["cat"] == "ablation" for e in cells)

    def test_viewpoint_trace_flag(self, capsys, tmp_path):
        import json

        path = tmp_path / "vp.json"
        out = run(capsys, "viewpoint", "--subjects", "20", "--epochs", "3", "--trace", str(path))
        assert "recovery" in out
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert {"campaign", "stage"} <= cats


class TestExecCommand:
    def test_sim_backend_default(self, capsys):
        out = run(capsys, "exec", "--strategy", "revolve", "--length", "12", "--slots", "3")
        assert "backend=sim" in out
        assert "forward steps" in out
        assert "peak slots        : 3" in out

    def test_tensor_backend_reports_loss(self, capsys):
        out = run(capsys, "exec", "--backend", "tensor", "--length", "6", "--slots", "2")
        assert "backend=tensor" in out
        assert "loss" in out
        assert "peak live bytes" in out

    def test_tiered_backend_reports_per_tier_costs(self, capsys):
        out = run(
            capsys, "exec", "--strategy", "disk_revolve", "--backend", "tiered",
            "--length", "20", "--slots", "2", "--storage", "emmc",
        )
        assert "backend=tiered" in out
        assert "transfer time" in out
        assert "memory tier:" in out
        assert "disk   tier:" in out
        assert "[emmc]" in out

    def test_infeasible_strategy_reports_cleanly(self, capsys):
        out = run(capsys, "exec", "--strategy", "store_all", "--length", "10", "--slots", "2")
        assert "cannot reverse l=10 within 2 slots" in out

    def test_trace_flag_writes_action_spans(self, capsys, tmp_path):
        import json

        path = tmp_path / "exec.json"
        out = run(
            capsys, "exec", "--strategy", "disk_revolve", "--backend", "tiered",
            "--length", "20", "--slots", "2", "--trace", str(path),
        )
        assert "trace written to" in out
        doc = json.loads(path.read_text())
        actions = [e for e in doc["traceEvents"] if e["cat"] == "action"]
        assert actions
        kinds = {e["name"] for e in actions}
        assert {"ADVANCE", "SNAPSHOT", "RESTORE", "ADJOINT"} <= kinds

    def test_sim_backend_trace_uses_sim_events(self, capsys, tmp_path):
        import json

        path = tmp_path / "sim.json"
        run(capsys, "exec", "--strategy", "revolve", "--length", "12", "--slots", "3",
            "--trace", str(path))
        doc = json.loads(path.read_text())
        cats = {e["cat"] for e in doc["traceEvents"]}
        assert "sim" in cats

    def test_compile_prints_the_schedules_program(self, capsys):
        from repro.checkpointing import get_strategy

        out = run(capsys, "exec", "--compile", "--strategy", "revolve",
                  "--length", "10", "--slots", "3")
        program = get_strategy("revolve").build_schedule(10, 3).program
        assert out.startswith("Compiled program: strategy=revolve l=10 slots=3\n")
        assert "ops               : 45 (ADVANCE 9, SNAPSHOT 6, RESTORE 15, " \
               "FREE 5, ADJOINT 10)" in out
        assert f"digest            : sha256:{program.digest}" in out

    @pytest.mark.parametrize(
        "argv,expected",
        (
            (
                ("--strategy", "joint_zip", "--backend", "tiered", "--compress", "bittrain",
                 "--length", "20", "--slots", "2"),
                'Engine run: strategy=joint_zip(c=2) l=20 slots=2 backend=compressed(bittrain)\n'
                '  forward steps     : 19 (cost 19)\n'
                '  adjoint replays   : 20\n'
                '  peak slots        : 20, peak bytes 2,107,632\n'
                '  snapshots/restores: 37/38\n'
                '  transfer time     : 0.620 s\n'
                '    memory tier: write 19 ops / 4,980,736 B / 0.000 s | '
                'read 21 ops / 5,505,024 B / 0.000 s | '
                'peak 2 slots (524,288 B)\n'
                '    disk   tier: write 18 ops / 1,321,200 B / 0.306 s | '
                'read 17 ops / 1,247,800 B / 0.289 s | '
                'peak 18 slots (1,321,200 B) [sd-card]\n'
                '  compression       : bittrain-sparse (ratio 0.28) — '
                '18 compress / 17 decompress, 3,397,392 B saved, codec time 0.025 s\n'
            ),
            (
                ("--strategy", "revolve", "--compress", "fp16", "--length", "12",
                 "--slots", "3"),
                'Engine run: strategy=revolve l=12 slots=3 backend=compressed(fp16)\n'
                '  forward steps     : 21 (cost 21)\n'
                '  adjoint replays   : 12\n'
                '  peak slots        : 3, peak bytes 655,360\n'
                '  snapshots/restores: 6/17\n'
                '  transfer time     : 0.004 s\n'
                '    memory tier: write 6 ops / 786,432 B / 0.000 s | '
                'read 17 ops / 2,228,224 B / 0.000 s | '
                'peak 3 slots (393,216 B)\n'
                '    disk   tier: write 0 ops / 0 B / 0.000 s | '
                'read 0 ops / 0 B / 0.000 s | '
                'peak 0 slots (0 B) [sd-card]\n'
                '  compression       : fp16-cast (ratio 0.5) — '
                '6 compress / 17 decompress, 786,432 B saved, codec time 0.004 s\n'
                '  fidelity loss     : 0.001\n'
            ),
        ),
        ids=("joint-zip-bittrain-tiered", "revolve-fp16"),
    )
    def test_compressed_exec_output_pinned(self, capsys, argv, expected):
        """The codec-priced tiered run, byte for byte: per-tier bytes and
        seconds plus the codec ledger."""
        assert run(capsys, "exec", *argv) == expected

    def test_compile_with_compress_prints_the_compressed_program(self, capsys):
        from repro.checkpointing import compressed_variant, get_strategy

        out = run(capsys, "exec", "--compile", "--compress", "fp16",
                  "--strategy", "revolve", "--length", "10", "--slots", "3")
        plain = get_strategy("revolve").build_schedule(10, 3)
        program = compressed_variant(plain, "revolve").program
        assert program.digest != plain.program.digest
        assert f"digest            : sha256:{program.digest}" in out
