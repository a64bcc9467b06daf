"""Tests for the command-line interface."""

import pytest

import repro.cli
from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_attack_options(self):
        args = build_parser().parse_args(
            ["attack", "s5378", "--key-bits", "8", "--lock-seed", "3"]
        )
        assert args.benchmark == "s5378"
        assert args.key_bits == 8
        assert args.lock_seed == 3

    def test_profile_choice_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table2", "--profile", "huge"])

    @pytest.mark.parametrize(
        "argv",
        [["serve", "--port", "0"], ["submit", "table2"]],
        ids=["serve", "submit"],
    )
    def test_http_job_commands_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["attack", "s5378"],
            ["table1"],
            ["table2"],
            ["table3"],
            ["scaling"],
            ["ablation"],
            ["matrix"],
            ["opt-bench"],
            ["farm", "run"],
            ["run", "table2"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_removed_json_log_flag_is_a_usage_error(self, argv, capsys):
        # Spelled in two pieces: the flag no longer exists anywhere else.
        flag = "--log" + "-json"
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, flag, "-"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s35932" in out and "b17" in out

    def test_info(self, capsys):
        assert main(["info", "s5378", "--scale", "16"]) == 0
        out = capsys.readouterr().out
        assert "paper flops  : 160" in out

    def test_selftest(self, capsys):
        assert main(["selftest"]) == 0
        assert "success=True" in capsys.readouterr().out

    def test_attack_small(self, capsys):
        code = main(
            ["attack", "s5378", "--scale", "64", "--key-bits", "4",
             "--timeout", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "success          : True" in out
        assert "timed out        : False" in out

    def test_attack_out_of_time_says_so(self, capsys):
        # The budget is spent before the first solve starts.
        code = main(
            ["attack", "s5378", "--scale", "64", "--key-bits", "4",
             "--timeout", "1e-9"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "success          : False" in out
        assert "timed out        : True" in out

    @pytest.mark.parametrize("budget", ["0", "-1", "nan", "soon"])
    def test_attack_timeout_must_be_positive(self, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "s5378", "--timeout", budget])
        assert exc.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["0", "-1"])
    @pytest.mark.parametrize("command", ["info", "export", "attack", "opt"])
    def test_scale_must_be_positive(self, command, scale, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "s5378", "--scale", scale])
        assert exc.value.code == 2
        assert "--scale: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["info", "s9999"],
            ["export", "s9999"],
            ["attack", "s9999"],
            ["opt", "s9999"],
            ["table2", "s5378", "s9999"],
            ["table3", "s9999"],
            ["opt-bench", "--benchmarks", "s9999"],
            ["run", "table2", "--benchmarks", "s9999"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unknown_benchmark_exits_2(self, argv, capsys, monkeypatch):
        import repro.api
        import repro.runner.scheduler

        def no_work(*args, **kwargs):
            raise AssertionError("an unknown benchmark must stop the command")

        for owner, name in (
            (repro.api, "run_attack"),
            (repro.api, "run_grid"),
            (repro.runner.scheduler, "run_jobs"),
            (repro.cli, "build_benchmark_netlist"),
        ):
            monkeypatch.setattr(owner, name, no_work)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "dynunlock: unknown benchmark(s): s9999; known: " in err
        assert "s5378" in err


class TestRunnerSurfaces:
    """The --jobs/--resume/--emit-json flags and the `run` subcommand."""

    def test_runner_flags_parse_with_defaults(self):
        # Parse leaves runner flags as None sentinels so config-file
        # resolution can tell "unset" from an explicit flag; applying
        # the (empty) config fills in the built-in defaults.
        from repro.config import apply_config

        args = build_parser().parse_args(["table2", "s5378"])
        assert args.jobs is None
        assert args.resume is None
        apply_config(args, "grid")
        assert args.jobs == 1
        assert args.resume is True
        assert args.cache_dir is None
        assert args.emit_json is None

    def test_no_resume_and_jobs(self):
        args = build_parser().parse_args(
            ["table2", "s5378", "--jobs", "4", "--no-resume"]
        )
        assert args.jobs == 4
        assert args.resume is False

    def test_run_requires_known_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "tableX"])

    def test_table2_emits_artifacts_and_caches(self, tmp_path, capsys):
        argv = [
            "table2", "s5378", "--profile", "quick",
            "--cache-dir", str(tmp_path / "cache"),
            "--emit-json", str(tmp_path / "results"),
        ]
        assert main(argv) == 0
        assert (tmp_path / "results" / "BENCH_table2.json").is_file()
        assert (tmp_path / "results" / "BENCH_table2.csv").is_file()
        first = capsys.readouterr().out
        assert main(argv) == 0  # second run: served from cache
        assert capsys.readouterr().out == first

    def test_run_subcommand_table2_subset(self, tmp_path, capsys):
        assert main(
            ["run", "table2", "--benchmarks", "s5378",
             "--cache-dir", str(tmp_path / "cache")]
        ) == 0
        assert "Table II" in capsys.readouterr().out


class TestMatrixCommand:
    """The `dynunlock matrix` surface (grid filters + paper check)."""

    def test_matrix_flags_parse_with_defaults(self):
        from repro.config import apply_config

        args = build_parser().parse_args(["matrix"])
        assert args.attacks == [] and args.defenses == []
        assert args.benchmarks == []
        assert args.check_paper is True
        assert args.jobs is None and args.resume is None
        apply_config(args, "matrix")
        assert args.jobs == 1 and args.resume is True

    def test_no_check_paper_flag(self):
        args = build_parser().parse_args(["matrix", "--no-check-paper"])
        assert args.check_paper is False

    def test_unknown_plugin_name_is_a_usage_error(self, capsys):
        assert main(["matrix", "--attacks", "nope"]) == 2
        assert "unknown attack/defense" in capsys.readouterr().err

    def test_unknown_benchmark_is_a_usage_error(self, capsys):
        assert main(["matrix", "--benchmarks", "s9999"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_filtered_matrix_runs_and_emits_artifact(self, tmp_path, capsys):
        argv = [
            "matrix", "--defenses", "eff", "--attacks", "scansat", "bruteforce",
            "--benchmarks", "s5378", "--profile", "quick",
            "--cache-dir", str(tmp_path / "cache"),
            "--emit-json", str(tmp_path / "results"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resilience matrix" in out and "broken" in out
        artifact = tmp_path / "results" / "BENCH_matrix.json"
        assert artifact.is_file()
        from repro.runner.artifacts import load_artifact

        meta = load_artifact(artifact)["meta"]
        assert meta["verdicts"]["scansat|eff"] == "broken"
        assert meta["n_paper_mismatches"] == 0
        assert main(argv) == 0  # second run: served from cache
        assert capsys.readouterr().out == out


class TestFuzzCommand:
    def test_parser_defaults(self):
        from repro.config import apply_config

        args = build_parser().parse_args(["farm", "run"])
        assert args.round_trials is None and args.seed is None
        apply_config(args, "farm")
        assert args.round_trials == 24 and args.seed == 0
        assert args.budget is None and args.max_rounds == 0
        replay = build_parser().parse_args(["fuzz-replay"])
        assert replay.corpus == ".repro_farm/corpus"
        # The one-shot command is gone: farm run is the only driver.
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fuzz"])
        assert excinfo.value.code == 2

    def test_small_campaign_is_green(self, capsys, tmp_path):
        state = tmp_path / "farm"
        code = main(
            ["farm", "run", "--round-trials", "6", "--seed", "0",
             "--cache-dir", str(tmp_path / "cache"), "--state", str(state)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "Fuzz farm" in captured.out
        assert "(6 trials, 0 violations)" in captured.err
        # A green round files no violation or crash entries.
        kinds = {path.parent.name for path in state.rglob("corpus/*/*.json")}
        assert kinds <= {"near-miss", "novel-shape"}

    def test_replay_of_a_missing_corpus_is_clean(self, capsys, tmp_path):
        assert main(["fuzz-replay", str(tmp_path / "none")]) == 0
        assert "nothing to replay" in capsys.readouterr().out

    def test_replay_of_a_damaged_corpus_reports_instead_of_crashing(
        self, capsys, tmp_path
    ):
        bad = tmp_path / "attack-replay" / "junk.json"
        bad.parent.mkdir(parents=True)
        bad.write_text("not json at all")
        assert main(["fuzz-replay", str(tmp_path)]) == 2
        assert "damaged" in capsys.readouterr().err

    def test_replay_flags_entries_that_no_longer_reproduce(
        self, capsys, tmp_path
    ):
        from repro.farm.corpus import FarmCorpus
        from repro.fuzz.campaign import sample_trial_params
        from repro.fuzz.corpus import CrashEntry
        from repro.reports.profiles import PROFILES, profile_to_dict

        # A healthy trial filed as if it once violated attack-replay:
        # replay must notice the failure is gone and exit non-zero.
        trial = sample_trial_params(0, 0)
        FarmCorpus(tmp_path).add(
            CrashEntry(
                invariant="attack-replay",
                detail="stale",
                trial=trial,
                original_trial=trial,
                profile=profile_to_dict(PROFILES["quick"]),
            ),
        )
        code = main(["fuzz-replay", str(tmp_path / "corpus"), "--verbose"])
        captured = capsys.readouterr()
        assert code == 1
        assert "NO LONGER REPRODUCES" in captured.out
        assert "no longer reproduce" in captured.err

    @pytest.mark.parametrize("invariant", ["attack-replay", "crash"])
    def test_replay_reports_an_unknown_opt_level_as_damage(
        self, capsys, tmp_path, invariant
    ):
        import json

        from repro.fuzz.campaign import sample_trial_params
        from repro.fuzz.corpus import CrashEntry
        from repro.reports.profiles import PROFILES, profile_to_dict

        # A trial recorded at an optimization level this code lacks can
        # neither reproduce nor retire its failure: the entry is damaged.
        trial = {**sample_trial_params(0, 0), "opt_level": 2}
        entry = CrashEntry(
            invariant=invariant,
            detail="recorded at level 2",
            trial=trial,
            original_trial=trial,
            profile=profile_to_dict(PROFILES["quick"]),
        )
        path = tmp_path / invariant / "level2.json"
        path.parent.mkdir()
        path.write_text(json.dumps(entry.to_dict()))
        code = main(["fuzz-replay", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert str(path) in captured.err
        assert "optimization level" in captured.err


class TestOptCommands:
    def test_opt_level_flags_parse(self):
        args = build_parser().parse_args(["table2", "--no-opt"])
        assert args.opt_level == 0
        args = build_parser().parse_args(["attack", "s5378", "--opt-level", "1"])
        assert args.opt_level == 1
        # Default is None: the attacks resolve the default level themselves.
        assert build_parser().parse_args(["farm", "run"]).opt_level is None
        assert build_parser().parse_args(["matrix"]).opt_level is None
        for argv in (
            ["table2", "--opt-level", "9"],
            ["table2", "--opt-level", "2"],
            ["opt", "s5378", "--level", "2"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(argv)
            assert excinfo.value.code == 2, argv

    def test_opt_stats_command(self, capsys, tmp_path):
        code = main(["opt", "s5378", "--scale", "32", "--emit-json", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "structhash" in captured.out and "TOTAL" in captured.out
        assert "effdyn-model" in captured.out
        assert (tmp_path / "BENCH_opt.json").exists()

    def test_attack_with_no_opt(self, capsys):
        code = main(
            ["attack", "s5378", "--scale", "64", "--key-bits", "4",
             "--timeout", "120", "--no-opt"]
        )
        assert code == 0
        assert "success          : True" in capsys.readouterr().out

    def test_opt_bench_single_benchmark(self, capsys, tmp_path):
        import json

        code = main(
            ["opt-bench", "--profile", "quick", "--benchmarks", "s5378",
             "--emit-json", str(tmp_path)]
        )
        captured = capsys.readouterr()
        # The timing gate may trip on one tiny benchmark's noise; what
        # must hold is the artifact shape and outcome stability.
        assert code in (0, 1)
        assert "Optimized vs raw attack pipeline" in captured.out
        from repro.runner.artifacts import load_artifact

        artifact = load_artifact(tmp_path / "BENCH_opt.json")
        assert artifact["meta"]["outcome_mismatches"] == []
        assert artifact["meta"]["total_no_opt_time_s"] > 0
        assert len(artifact["rows"]) == 1
