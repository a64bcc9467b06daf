"""Tests for the continuous fuzz farm (repro.farm).

The farm's load-bearing properties, pinned:

* the coverage scheduler is a pure function of (seed, corpus state) and
  demonstrably shifts sampling toward a planted always-violating cell
  -- strictly more trials than the uniform share, at a fixed seed;
* the corpus dedupes by shrunk-trial content hash, keeps exactly one
  (smallest) reproducer per failure identity, and rebuilds its index
  from disk faithfully;
* a farm killed at ANY point -- mid-corpus-write, mid-round, SIGTERM
  from outside -- resumes from its checkpoint and converges on state
  byte-identical to an uninterrupted run at the same (seed, rounds);
* farm corpus entries replay through the stock ``fuzz-replay`` command,
  whose exit codes (0 ok / 1 stale / 2 damaged) are part of the CLI
  contract;
* farm rounds stream through the observability session and render in
  ``dynunlock top``.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.farm.corpus import (
    ENTRY_KINDS,
    FarmCorpus,
    content_hash,
    entry_identity,
    trial_size,
)
from repro.farm.driver import (
    FarmConfig,
    FarmDriver,
    FarmStateError,
    load_status,
)
from repro.farm.schedule import (
    BUCKET_FLOP_RANGES,
    SHAPE_BUCKETS,
    FarmScheduler,
    cell_key,
    sample_config_in_bucket,
    shape_bucket,
)
from repro.fuzz.campaign import sample_trial_params
from repro.fuzz.corpus import CrashEntry
from repro.fuzz.invariants import KEY_EQUIVALENCE
from repro.matrix.registry import (
    AttackOutcome,
    applicable_pairs,
    register_attack,
    temporary_registrations,
)
from repro.observability.top import load_snapshot, render_top
from repro.reports.profiles import PROFILES, profile_to_dict
from repro.util.rng import hash_label

QUICK = PROFILES["quick"]


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` as relative-path -> exact bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def _liar(lock, *, profile, timeout_s):
    """Planted always-violating attack: forged key, forged verified bit."""
    return AttackOutcome(
        success=True,
        recovered_key=[1] * int(getattr(lock, "key_bits", 1)),
        iterations=1,
        queries=0,
        runtime_s=0.0,
        verified=True,
        detail="planted",
    )


def liar_config(state_dir, **overrides) -> FarmConfig:
    """A small, fast farm config pinned to the planted liar cell."""
    settings = dict(
        seed=0,
        round_trials=3,
        concurrency=1,
        state_dir=str(state_dir),
        stability_every=0,
        shrink_limit=1,
        shrink_evals=4,
        opt_level=1,
        attacks=["liar"],
        defenses=["eff"],
    )
    settings.update(overrides)
    return FarmConfig(**settings)


class TestShapeBuckets:
    def test_bucket_boundaries(self):
        assert shape_bucket(3) == "small"
        assert shape_bucket(6) == "small"
        assert shape_bucket(7) == "medium"
        assert shape_bucket(10) == "medium"
        assert shape_bucket(11) == "large"
        assert shape_bucket(14) == "large"
        # Out-of-range flop counts clamp instead of crashing.
        assert shape_bucket(2) == "small"
        assert shape_bucket(20) == "large"

    def test_buckets_partition_the_generator_range(self):
        covered = set()
        for lo, hi in BUCKET_FLOP_RANGES.values():
            covered.update(range(lo, hi + 1))
        assert covered == set(range(3, 15))

    @pytest.mark.parametrize("bucket", SHAPE_BUCKETS)
    def test_sample_config_in_bucket_stays_in_bucket(self, bucket):
        lo, hi = BUCKET_FLOP_RANGES[bucket]
        for draw in range(25):
            config = sample_config_in_bucket(random.Random(draw), bucket)
            assert lo <= config.n_flops <= hi
            assert shape_bucket(config.n_flops) == bucket


class TestScheduler:
    def _pairs(self, n=10):
        return [("atk", f"d{index}") for index in range(n)]

    def test_cells_are_pairs_times_buckets(self):
        scheduler = FarmScheduler(self._pairs(10))
        assert len(scheduler.cells) == 30
        assert scheduler.coverage() == (0, 30)

    def test_planted_violating_cell_outdraws_uniform(self):
        # The tentpole property: an always-violating cell must receive
        # strictly more trials than uniform sampling would give it.
        # Fully deterministic: fixed seed, hash_label-derived draws.
        scheduler = FarmScheduler(self._pairs(10), bias=4.0)
        planted = ("atk", "d0", "small")
        rounds, per_round = 40, 30
        counts: Counter = Counter()
        for round_index in range(rounds):
            scheduler.begin_round()
            frozen = scheduler.weights()
            picks = []
            for index in range(per_round):
                rng = random.Random(
                    hash_label(11, f"bias/{round_index}/{index}")
                )
                picks.append(scheduler.sample_cell(rng, frozen))
            for cell in picks:
                counts[cell] += 1
                lo, _hi = BUCKET_FLOP_RANGES[cell[2]]
                scheduler.record_trial(
                    {"attack": cell[0], "defense": cell[1], "n_flops": lo},
                    1 if cell == planted else 0,
                )
        uniform_share = rounds * per_round / len(scheduler.cells)
        assert counts[planted] > uniform_share
        assert counts.most_common(1)[0][0] == planted
        # Exploration floor: the bias must not starve other cells.
        assert scheduler.coverage() == (30, 30)

    def test_hot_score_decays_per_round(self):
        scheduler = FarmScheduler(self._pairs(2))
        scheduler.record_trial(
            {"attack": "atk", "defense": "d0", "n_flops": 4}, 2
        )
        key = cell_key("atk", "d0", "small")
        assert scheduler.stats[key]["hot"] == 2.0
        scheduler.begin_round()
        assert scheduler.stats[key]["hot"] == 1.0

    def test_violating_cell_outweighs_fresh_cell(self):
        scheduler = FarmScheduler(self._pairs(2))
        scheduler.record_trial(
            {"attack": "atk", "defense": "d0", "n_flops": 4}, 1
        )
        weights = dict(zip(scheduler.cells, scheduler.weights()))
        assert weights[("atk", "d0", "small")] > weights[("atk", "d1", "small")]

    def test_out_of_filter_trial_gets_its_own_cell(self):
        scheduler = FarmScheduler(self._pairs(1))
        scheduler.record_trial(
            {"attack": "other", "defense": "dX", "n_flops": 12}, 0
        )
        assert scheduler.stats[cell_key("other", "dX", "large")]["trials"] == 1

    def test_novel_shape_fires_once_per_signature(self):
        scheduler = FarmScheduler(self._pairs(1))
        trial = {
            "n_flops": 5,
            "gates_per_flop": 2.0,
            "max_fanin": 3,
            "locality": 8,
        }
        signature = scheduler.novel_shape(trial)
        assert signature is not None and "small" in signature
        assert scheduler.novel_shape(dict(trial, n_flops=4)) is None  # same sig
        assert scheduler.novel_shape(dict(trial, max_fanin=4)) is not None

    def test_round_trip_through_dict(self):
        scheduler = FarmScheduler(self._pairs(3), bias=2.0, explore=0.5)
        scheduler.record_trial(
            {"attack": "atk", "defense": "d1", "n_flops": 8}, 1
        )
        scheduler.novel_shape(
            {"n_flops": 8, "gates_per_flop": 2.0, "max_fanin": 3, "locality": 8}
        )
        clone = FarmScheduler.from_dict(scheduler.to_dict())
        assert clone.to_dict() == scheduler.to_dict()
        assert clone.weights() == scheduler.weights()
        assert clone.seen_shapes == scheduler.seen_shapes

    def test_plan_round_is_deterministic_and_campaign_shaped(self):
        scheduler = FarmScheduler(applicable_pairs(None, None))
        first = scheduler.plan_round(0, 0, 4, 1)
        again = scheduler.plan_round(0, 0, 4, 1)
        assert first == again
        assert first != scheduler.plan_round(0, 1, 4, 1)
        assert first != FarmScheduler(
            applicable_pairs(None, None)
        ).plan_round(1, 0, 4, 1)
        # Same flat JSON-safe shape as sample_trial_params' trials, so
        # farm trials run and replay through identical machinery.
        campaign_keys = set(sample_trial_params(0, 0))
        for params in first:
            assert set(params) == campaign_keys
            json.dumps(params)
            assert params["key_bits"] < params["n_flops"]


def make_entry(invariant=KEY_EQUIVALENCE, detail="planted", **trial_overrides):
    trial = dict(
        attack="atk",
        defense="d0",
        key_bits=4,
        opt_level=1,
        trial_seed=7,
        n_flops=8,
        n_inputs=3,
        n_outputs=2,
        gates_per_flop=2.0,
        max_fanin=3,
        locality=8,
    )
    trial.update(trial_overrides)
    return CrashEntry(
        invariant=invariant,
        detail=detail,
        trial=trial,
        original_trial=dict(trial),
        profile=profile_to_dict(QUICK),
        meta={},
    )


class TestFarmCorpus:
    def test_trial_size_tracks_shrinking(self):
        big = make_entry().trial
        assert trial_size(dict(big, n_flops=4)) < trial_size(big)
        assert trial_size(dict(big, key_bits=1)) < trial_size(big)
        assert trial_size(dict(big, n_inputs=1)) < trial_size(big)

    def test_add_dispositions(self, tmp_path):
        corpus = FarmCorpus(tmp_path)
        cell = "atk|d0|medium"
        assert corpus.add(make_entry(), cell=cell) == "new"
        assert corpus.add(make_entry(), cell=cell) == "duplicate"
        # A strictly smaller reproducer replaces the bigger one ...
        assert corpus.add(make_entry(n_flops=4), cell=cell) == "minimized"
        assert len(corpus) == 1
        # ... and the replaced file is actually gone from disk.
        files = list((tmp_path / "corpus").rglob("*.json"))
        assert len(files) == 1
        small_hash = content_hash(
            KEY_EQUIVALENCE, make_entry(n_flops=4).trial
        )
        assert files[0].name == f"{small_hash}.json"
        # A bigger reproducer for a covered identity is ignored.
        assert corpus.add(make_entry(n_flops=9), cell=cell) == "ignored"
        # A different invariant is a different identity.
        assert corpus.add(make_entry(invariant="crash"), cell=cell) == "new"
        assert len(corpus) == 2

    def test_journal_records_adds_and_replacements(self, tmp_path):
        corpus = FarmCorpus(tmp_path)
        corpus.add(make_entry(), cell="atk|d0|medium", round_index=0)
        corpus.add(make_entry(), cell="atk|d0|medium")  # duplicate: no line
        corpus.add(make_entry(n_flops=4), cell="atk|d0|medium", round_index=1)
        lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert [record["op"] for record in lines] == ["add", "replace"]
        assert lines[0]["round"] == 0
        assert lines[1]["replaced"] == lines[0]["hash"]
        assert (tmp_path / lines[1]["path"]).is_file()

    def test_index_rebuilds_from_disk(self, tmp_path):
        first = FarmCorpus(tmp_path)
        first.add(make_entry(), cell="atk|d0|medium")
        first.add(make_entry(invariant="crash"), kind="crash", cell="a|b|small")
        reloaded = FarmCorpus(tmp_path)
        assert len(reloaded) == 2
        assert reloaded.add(make_entry(), cell="atk|d0|medium") == "duplicate"
        assert (
            reloaded.add(make_entry(n_flops=9), cell="atk|d0|medium")
            == "ignored"
        )
        assert reloaded.stats() == first.stats()
        stats = reloaded.stats()
        assert stats["entries"] == 2
        assert stats["by_kind"] == {"crash": 1, "violation": 1}
        assert set(stats["by_kind"]) <= set(ENTRY_KINDS)

    def test_identity_override_keeps_signatures_apart(self, tmp_path):
        # novel-shape entries key on their signature, not their cell:
        # two different shapes in one cell must both survive.
        corpus = FarmCorpus(tmp_path)
        cell = "atk|d0|medium"
        assert (
            corpus.add(
                make_entry(invariant="novel-shape"),
                kind="novel-shape",
                cell=cell,
                identity="novel-shape|sigA",
            )
            == "new"
        )
        assert (
            corpus.add(
                make_entry(invariant="novel-shape", max_fanin=4),
                kind="novel-shape",
                cell=cell,
                identity="novel-shape|sigB",
            )
            == "new"
        )
        assert len(corpus) == 2

    def test_default_identity_shape(self):
        entry = make_entry()
        assert entry_identity("violation", entry, "atk|d0|medium") == (
            f"violation|{KEY_EQUIVALENCE}|atk|d0|medium"
        )


class TestDriverState:
    def test_seed_mismatch_is_a_state_error(self, tmp_path):
        (tmp_path / "state.json").write_text(json.dumps({"seed": 5}))
        with pytest.raises(FarmStateError, match="seed"):
            FarmDriver(QUICK, FarmConfig(seed=0, state_dir=str(tmp_path)))

    def test_pair_filter_mismatch_is_a_state_error(self, tmp_path):
        (tmp_path / "state.json").write_text(
            json.dumps({"seed": 0, "pairs": [["x", "y"]]})
        )
        with pytest.raises(FarmStateError, match="filters"):
            FarmDriver(QUICK, FarmConfig(seed=0, state_dir=str(tmp_path)))

    def test_cli_reports_state_errors_as_exit_2(self, tmp_path, capsys):
        state = tmp_path / "farm"
        state.mkdir()
        (state / "state.json").write_text(json.dumps({"seed": 5}))
        code = main(
            ["farm", "run", "--state", str(state), "--seed", "0",
             "--max-rounds", "1", "--no-resume"]
        )
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_junk_corpus_entry_exits_2_without_a_traceback(
        self, tmp_path, capsys
    ):
        state = tmp_path / "farm"
        junk = state / "corpus" / "attack-replay" / "junk.json"
        junk.parent.mkdir(parents=True)
        junk.write_text("not json")
        for argv in (
            ["farm", "run", "--state", str(state), "--round-trials", "1",
             "--no-resume"],
            ["farm", "status", str(state)],
        ):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert str(junk) in err
            assert "Traceback" not in err

    def test_malformed_state_json_makes_status_exit_2(self, tmp_path, capsys):
        (tmp_path / "state.json").write_text("{not json")
        with pytest.raises(FarmStateError, match="unreadable"):
            load_status(tmp_path)
        for argv in (
            ["farm", "status", str(tmp_path)],
            ["farm", "status", str(tmp_path), "--json"],
        ):
            assert main(argv) == 2, argv
            assert "state.json" in capsys.readouterr().err

    #: Damage to one field of a real checkpoint, by case name.
    DAMAGE = {
        "seed-only": lambda data: {"seed": 0},
        "no-scheduler": lambda data: {
            key: value for key, value in data.items() if key != "scheduler"
        },
        "scheduler-without-pairs": lambda data: {
            **data, "scheduler": {"stats": 3}
        },
        "rounds-not-an-int": lambda data: {**data, "rounds": "x"},
    }

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_state_field_exits_2_without_a_traceback(
        self, tmp_path, capsys, damage
    ):
        state = tmp_path / "farm"
        path = state / "state.json"
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            FarmDriver(QUICK, liar_config(state, max_rounds=1)).run()
            path.write_text(
                json.dumps(self.DAMAGE[damage](json.loads(path.read_text())))
            )
            for argv in (
                ["farm", "run", "--state", str(state), "--seed", "0",
                 "--round-trials", "1", "--attacks", "liar",
                 "--defenses", "eff", "--no-resume"],
                ["farm", "status", str(state)],
            ):
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert "state.json" in err
                assert "Traceback" not in err

    def test_status_of_missing_state(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert load_status(missing)["exists"] is False
        assert main(["farm", "status", str(missing)]) == 1
        assert "no farm state" in capsys.readouterr().out
        assert main(["farm", "status", str(missing), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["exists"] is False


class TestFarmEndToEnd:
    """Liar-cell farms: fast, violation-rich, fully deterministic."""

    def test_resume_is_byte_identical(self, tmp_path):
        # One farm run to rounds=2 straight, another stopped at 1 and
        # resumed to 2: corpus, journal and checkpoint must be equal
        # byte for byte.
        straight, split = tmp_path / "straight", tmp_path / "split"
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            report = FarmDriver(QUICK, liar_config(straight, max_rounds=2)).run()
            assert report.total_rounds == 2
            assert report.stopped == "rounds"
            assert report.violations_this_run > 0

            first = FarmDriver(QUICK, liar_config(split, max_rounds=1)).run()
            assert first.total_rounds == 1
            resumed = FarmDriver(QUICK, liar_config(split, max_rounds=2)).run()
            assert resumed.total_rounds == 2
            assert len(resumed.rounds) == 1  # only round 1 ran now
        assert tree_bytes(straight) == tree_bytes(split)
        # max_rounds is a lifetime cap: a third invocation is a no-op.
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            again = FarmDriver(QUICK, liar_config(split, max_rounds=2)).run()
        assert again.rounds == []
        assert tree_bytes(straight) == tree_bytes(split)

        status = load_status(split)
        assert status["exists"] and status["rounds"] == 2
        assert status["totals"]["trials"] == 6
        assert status["corpus"]["entries"] == len(list(
            (split / "corpus").rglob("*.json")
        ))

    def test_torn_corpus_commit_recovers_byte_identically(self, tmp_path):
        # Kill the farm mid-corpus-write (after one entry landed, before
        # the round committed): the resume replays the torn round and
        # converges on the uninterrupted run's exact bytes.
        reference, torn = tmp_path / "reference", tmp_path / "torn"
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            FarmDriver(QUICK, liar_config(reference, max_rounds=1)).run()

            driver = FarmDriver(QUICK, liar_config(torn, max_rounds=1))
            real_add = driver.corpus.add
            calls = Counter()

            def bomb(entry, **kwargs):
                calls["n"] += 1
                if calls["n"] >= 2:
                    raise RuntimeError("torn mid-commit")
                return real_add(entry, **kwargs)

            driver.corpus.add = bomb
            with pytest.raises(RuntimeError, match="torn"):
                driver.run()
            assert calls["n"] >= 2  # one write landed, then the tear
            assert not (torn / "state.json").is_file()  # round not committed

            recovered = FarmDriver(QUICK, liar_config(torn, max_rounds=1)).run()
            assert recovered.total_rounds == 1
        assert tree_bytes(reference) == tree_bytes(torn)

    def test_interrupt_mid_run_checkpoints_completed_rounds(self, tmp_path):
        # KeyboardInterrupt (what SIGTERM is rebound to) between rounds:
        # completed rounds stay committed, the report says interrupted.
        state = tmp_path / "farm"
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            driver = FarmDriver(QUICK, liar_config(state, max_rounds=3))
            real_round = driver.run_round
            rounds_run = Counter()

            def interrupted_round():
                if rounds_run["n"] >= 1:
                    raise KeyboardInterrupt
                rounds_run["n"] += 1
                return real_round()

            driver.run_round = interrupted_round
            report = driver.run()
            assert report.stopped == "interrupted"
            assert report.total_rounds == 1
            resumed = FarmDriver(QUICK, liar_config(state, max_rounds=3)).run()
            assert resumed.total_rounds == 3
            assert len(resumed.rounds) == 2

    def test_budgetless_run_is_exactly_one_round(self, tmp_path):
        # No --budget and no --max-rounds: each invocation runs one
        # round, the next one resuming at the following round index.
        state = tmp_path / "farm"
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            first = FarmDriver(QUICK, liar_config(state)).run()
            assert [r.index for r in first.rounds] == [0]
            assert first.total_rounds == 1 and first.stopped == "rounds"
            second = FarmDriver(QUICK, liar_config(state)).run()
            assert [r.index for r in second.rounds] == [1]
            assert second.total_rounds == 2
        assert load_status(state)["rounds"] == 2

    def test_corpus_replays_through_fuzz_replay(self, tmp_path, capsys):
        # The farm corpus is CrashEntry-compatible: attack-replay
        # entries reproduce, near-miss/novel-shape entries are skipped.
        state = tmp_path / "farm"
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            report = FarmDriver(QUICK, liar_config(state, max_rounds=2)).run()
            assert report.violations_this_run > 0
            assert main(["fuzz-replay", str(state / "corpus")]) == 0
        out = capsys.readouterr().out
        assert "reproduced" in out
        assert "0 stale" in out

    def test_replay_skips_a_novel_shape_for_recording_no_failure(
        self, tmp_path, capsys
    ):
        entry = make_entry(invariant="novel-shape", detail="first shape")
        FarmCorpus(tmp_path).add(
            entry, kind="novel-shape", identity="novel-shape|sig"
        )
        assert main(["fuzz-replay", str(tmp_path / "corpus")]) == 0
        out = capsys.readouterr().out
        assert "novel-shape ... SKIP (records no failure)" in out
        assert "pool/store" not in out
        assert "1 skipped" in out

    def test_farm_cli_run_emits_artifact_and_metrics(self, tmp_path, capsys):
        # Full CLI path: --config supplies the farm section, the run
        # exits 1 (violations found), the artifact carries config
        # provenance, and the round streams into top's metrics view.
        state = tmp_path / "farm"
        metrics = tmp_path / "metrics"
        out_dir = tmp_path / "out"
        config = tmp_path / "farm.toml"
        config.write_text(
            "[farm]\nround_trials = 3\nstability_every = 0\n"
            "shrink_limit = 1\n"
        )
        with temporary_registrations():
            register_attack("liar", _liar, applicable_to=("eff",))
            code = main(
                ["farm", "run", "--config", str(config),
                 "--state", str(state), "--seed", "0", "--max-rounds", "1",
                 "--jobs", "1", "--no-resume", "--opt-level", "1",
                 "--attacks", "liar", "--defenses", "eff",
                 "--metrics-dir", str(metrics),
                 "--emit-json", str(out_dir)]
            )
        assert code == 1  # violations found this run
        captured = capsys.readouterr()
        assert "Fuzz farm" in captured.out
        assert "liar" in captured.out

        artifact = json.loads((out_dir / "BENCH_farm.json").read_text())
        meta = artifact["payload"]["meta"]
        assert meta["rounds_this_run"] == 1
        assert meta["trials_this_run"] == 3
        assert meta["violations_this_run"] > 0
        assert meta["config"]["path"] == str(config)
        assert meta["config"]["values"]["farm.round_trials"] == 3

        records = [
            json.loads(line)
            for line in (metrics / "spans.jsonl").read_text().splitlines()
        ]
        (farm_round,) = [r for r in records if r.get("kind") == "farm_round"]
        assert farm_round["trials"] == 3
        assert farm_round["violations"] == meta["violations_this_run"]
        assert farm_round["corpus_entries"] == meta["corpus"]["entries"]

        assert main(["top", str(metrics), "--once"]) == 0
        frame = capsys.readouterr().out
        assert "farm: round 1 done, 3 trials" in frame
        assert "hot cell liar|eff|" in frame

        status_code = main(["farm", "status", str(state)])
        status_out = capsys.readouterr().out
        assert status_code == 0
        assert "rounds       : 1" in status_out

    def test_fuzz_replay_flags_stale_entries_exit_1(self, tmp_path, capsys):
        # A corpus entry whose bug has been "fixed" (here: a healthy
        # trial planted as a key-equivalence reproducer) must flip the
        # exit code to 1 and list the stale file.
        corpus = tmp_path / "corpus"
        params = sample_trial_params(0, 0)
        entry = CrashEntry(
            invariant=KEY_EQUIVALENCE,
            detail="planted stale entry",
            trial=dict(params),
            original_trial=dict(params),
            profile=profile_to_dict(QUICK),
            meta={},
        )
        assert FarmCorpus(tmp_path).add(entry, cell="a|b|small") == "new"
        [path] = list(corpus.rglob("*.json"))
        assert main(["fuzz-replay", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert "NO LONGER REPRODUCES" in captured.out
        assert "1 stale" in captured.out
        assert str(path) in captured.err


class TestTopFarmSection:
    def test_render_includes_farm_lines(self, tmp_path):
        (tmp_path / "run.json").write_text(
            json.dumps(
                {"run_id": "r1", "command": "farm", "started_unix": 100.0}
            )
        )
        record = {
            "kind": "farm_round",
            "run_id": "r1",
            "round": 1,
            "trials": 12,
            "violations": 2,
            "trials_total": 24,
            "violations_total": 3,
            "corpus_entries": 7,
            "cells_covered": 9,
            "n_cells": 30,
            "trials_per_s": 4.0,
            "hot_cells": [["scansat|eff|small", 6, 3]],
            "t": 130.0,
        }
        (tmp_path / "spans.jsonl").write_text(json.dumps(record) + "\n")
        snapshot = load_snapshot(tmp_path)
        assert snapshot.farm_rounds == [record]
        frame = render_top(snapshot, now=140.0)
        assert "farm: round 2 done, 24 trials, 3 violation(s)" in frame
        assert "corpus 7, cells 9/30, 4.0 trials/s" in frame
        assert "hot cell scansat|eff|small: 6 trials, 3 violation(s)" in frame

    def test_render_without_farm_rounds_is_unchanged(self, tmp_path):
        (tmp_path / "run.json").write_text(
            json.dumps({"run_id": "r1", "command": "fuzz"})
        )
        frame = render_top(load_snapshot(tmp_path), now=1.0)
        assert "farm:" not in frame


class TestSigtermResume:
    """The acceptance test: SIGTERM a real farm process mid-run, resume
    it, and demand byte-identical state vs an uninterrupted run."""

    def _spawn(self, state, config, cwd, extra=()):
        command = [
            sys.executable, "-c",
            "import sys; from repro.cli import main; "
            "sys.exit(main(sys.argv[1:]))",
            "farm", "run", "--config", str(config), "--state", str(state),
            "--seed", "0", "--max-rounds", "3", "--jobs", "1",
            "--no-resume", "--opt-level", "1", *extra,
        ]
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            command, cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def test_sigterm_mid_run_resumes_byte_identically(self, tmp_path):
        config = tmp_path / "farm.toml"
        config.write_text(
            "[farm]\nround_trials = 4\nstability_every = 0\n"
            "shrink_limit = 1\n"
        )
        interrupted = tmp_path / "interrupted"
        reference = tmp_path / "reference"

        # Uninterrupted reference run: 3 rounds straight through.
        process = self._spawn(reference, config, tmp_path)
        assert process.wait(timeout=300) in (0, 1)

        # Interrupted run: SIGTERM as soon as the first checkpoint
        # lands (so the kill hits a later round mid-flight).
        process = self._spawn(interrupted, config, tmp_path)
        state_path = interrupted / "state.json"
        deadline = time.monotonic() + 240
        while time.monotonic() < deadline:
            if state_path.is_file() or process.poll() is not None:
                break
            time.sleep(0.02)
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=300) in (0, 1)

        # Resume to the same lifetime round cap, then compare trees.
        process = self._spawn(interrupted, config, tmp_path)
        assert process.wait(timeout=300) in (0, 1)
        state = json.loads(state_path.read_text())
        assert state["rounds"] == 3
        assert tree_bytes(reference) == tree_bytes(interrupted)
