"""Tests for the differential-fuzzing subsystem (repro.fuzz).

The properties pinned here are the subsystem's contract:

* sampling and trial cells are pure functions of (seed, index, params);
* a farm round -- the seeded single-round campaign -- leaves a
  byte-identical state dir at any ``jobs`` level, on reruns, and when
  served from a shared result store;
* all built-in defenses/attacks satisfy the invariants at fuzz sizes
  (a green quick round);
* planted soundness bugs -- a lying attack, a broken oracle, a crashing
  cell -- are detected, minimized by the shrinker, persisted to the
  corpus, and reproduced by replay;
* the crash corpus round-trips byte-for-byte and tolerates nothing.
"""

import json
import re
from pathlib import Path

import pytest

from repro.bench_suite.generator import (
    GeneratorConfig,
    SAMPLE_FLOP_RANGE,
    config_from_dict,
    config_to_dict,
    sample_config,
)
from repro.farm.corpus import FarmCorpus, content_hash
from repro.farm.driver import FarmConfig, FarmDriver
from repro.fuzz.campaign import fuzz_cell, sample_trial_params
from repro.fuzz.corpus import (
    CorpusError,
    CrashEntry,
    load_corpus,
    replay_entry,
)
from repro.fuzz.invariants import (
    ATTACK_REPLAY,
    CRASH,
    EXEC_STABILITY,
    KEY_EQUIVALENCE,
    check_key_equivalence,
)
from repro.fuzz.shrink import (
    PARAM_FLOORS,
    candidate_reductions,
    shrink_trial,
    trial_fails,
)
from repro.locking.eff import EffStaticLock, lock_with_eff
from repro.matrix.registry import (
    AttackOutcome,
    get_attack,
    get_defense,
    is_applicable,
    register_attack,
    register_defense,
    sample_applicable_pair,
    temporary_registrations,
)
from repro.reports.profiles import PROFILES
from repro.runner.spec import JobSpec
from repro.scan.oracle import ScanResponse

import random

QUICK = PROFILES["quick"]


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


def tree_bytes(root) -> dict[str, bytes]:
    """Every file under ``root`` as relative-path -> exact bytes."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def farm_round(state_dir, *, trials, seed, progress=None, store=None, **config):
    """One budgetless farm round: the seeded ``trials``-trial campaign."""
    return FarmDriver(
        QUICK,
        FarmConfig(
            seed=seed, round_trials=trials, state_dir=str(state_dir), **config
        ),
        store=store,
        progress=progress,
    ).run()


def findings(state_dir) -> list[tuple]:
    """(path, entry) for every violation or crash a round filed."""
    return [
        (path, entry)
        for path, entry in load_corpus(state_dir / "corpus")
        if entry.invariant not in ("near-miss", "novel-shape")
    ]


class TestSampling:
    def test_sample_config_is_deterministic_and_in_bounds(self):
        a = sample_config(random.Random(5))
        b = sample_config(random.Random(5))
        assert a == b
        assert SAMPLE_FLOP_RANGE[0] <= a.n_flops <= SAMPLE_FLOP_RANGE[1]

    def test_config_dict_round_trip(self):
        config = sample_config(random.Random(11))
        assert config_from_dict(config_to_dict(config)) == config

    def test_sample_applicable_pair_is_deterministic_and_valid(self):
        a = sample_applicable_pair(random.Random(3))
        assert a == sample_applicable_pair(random.Random(3))
        attack, defense = a
        assert is_applicable(get_attack(attack), get_defense(defense))

    def test_trial_params_depend_on_seed_and_index(self):
        p0 = sample_trial_params(0, 0)
        assert p0 == sample_trial_params(0, 0)
        assert p0 != sample_trial_params(0, 1)
        assert p0 != sample_trial_params(1, 0)

    def test_specs_are_flat_and_hash_stable(self):
        def specs():
            return [
                JobSpec.make("fuzz", QUICK, **sample_trial_params(42, index))
                for index in range(3)
            ]

        first, again = specs(), specs()
        assert [s.spec_hash for s in first] == [s.spec_hash for s in again]
        for spec in first:
            assert spec.experiment == "fuzz"
            json.dumps(spec.params)  # flat and JSON-safe


class TestFuzzCell:
    def test_cell_is_a_pure_function_of_its_params(self):
        params = sample_trial_params(0, 2)
        a = fuzz_cell(QUICK, **params)
        b = fuzz_cell(QUICK, **params)
        assert canonical(a) == canonical(b)

    def test_cell_result_carries_no_wall_clock(self):
        params = sample_trial_params(0, 0)
        result = fuzz_cell(QUICK, **params)
        assert not any("time" in key or key.endswith("_s") for key in result)

    def test_unbuildable_shape_is_a_skip_not_a_crash(self):
        # scramble on 5 flops with a 1-bit key splits into chains of
        # lengths (3, 2): no equal-length pair exists, so the lock
        # cannot be built at this shape.
        result = fuzz_cell(
            QUICK,
            attack="scramble-sat",
            defense="scramble",
            key_bits=1,
            trial_seed=123,
            n_flops=5,
            n_inputs=2,
            n_outputs=1,
            gates_per_flop=2.0,
            max_fanin=2,
            locality=8,
        )
        assert result["built"] is False
        assert result["skip_reason"]
        assert result["violations"] == []


class TestBuiltinsSatisfyInvariants:
    def test_quick_campaign_is_green(self, tmp_path):
        report = farm_round(tmp_path, trials=16, seed=0)
        assert report.violations_this_run == 0
        assert report.trials_this_run == 16
        assert findings(tmp_path) == []

    def test_key_equivalence_across_all_defenses(self):
        from repro.bench_suite.generator import generate_circuit
        from repro.matrix.registry import defense_names

        for name in defense_names():
            rng = random.Random(name)  # str seeds are process-stable
            config = GeneratorConfig(n_flops=8, n_inputs=3, n_outputs=2)
            netlist = generate_circuit(config, rng, name=f"eq-{name}")
            spec = get_defense(name)
            key_bits = min(spec.default_key_bits or 4, 4)
            lock = spec.build(netlist, key_bits, rng)
            assert check_key_equivalence(lock, rng) == [], name


class TestCampaignDeterminism:
    def test_serial_equals_parallel_equals_rerun(self, tmp_path, capsys):
        # A budgetless `farm run` is one seeded round; its whole state
        # dir -- corpus, journal, checkpoint -- must not depend on
        # --jobs, nor change on a rerun.
        from repro.cli import main

        trees = []
        for run, jobs in enumerate((1, 2, 1)):
            state = tmp_path / f"run{run}"
            assert main(
                ["farm", "run", "--profile", "quick", "--round-trials", "10",
                 "--seed", "3", "--jobs", str(jobs), "--no-resume",
                 "--state", str(state)]
            ) == 0
            trees.append(tree_bytes(state))
        capsys.readouterr()
        assert trees[0] == trees[1] == trees[2]
        assert "state.json" in trees[0] and "journal.jsonl" in trees[0]

    def test_resume_through_store_is_byte_identical(self, tmp_path):
        from repro.runner.stores import JsonFileStore

        store = JsonFileStore(tmp_path / "cache")
        fresh = farm_round(tmp_path / "fresh", trials=8, seed=5, store=store)
        cached = farm_round(tmp_path / "cached", trials=8, seed=5, store=store)
        assert fresh.rounds[0].n_computed == 8
        assert cached.rounds[0].n_cached == 8
        assert cached.rounds[0].n_computed == 0
        assert fresh.violations_this_run == cached.violations_this_run == 0
        assert tree_bytes(tmp_path / "fresh") == tree_bytes(tmp_path / "cached")


class _LyingAttack:
    """Claims success with an all-ones key and a forged verified bit."""

    @staticmethod
    def run(lock, *, profile, timeout_s):
        return AttackOutcome(
            success=True,
            recovered_key=[1] * int(getattr(lock, "key_bits", 1)),
            iterations=1,
            queries=0,
            runtime_s=0.0,
            verified=True,
            detail="planted",
        )


class _BrokenEffLock(EffStaticLock):
    """EFF whose 'authorized' path corrupts one response bit."""

    def make_oracle(self):
        inner = super().make_oracle()

        class _Corrupting:
            def __init__(self, oracle):
                self._oracle = oracle
                self.query_count = 0

            def __getattr__(self, name):
                return getattr(self._oracle, name)

            def query(self, *a, **kw):
                self.query_count += 1
                return self._oracle.query(*a, **kw)

            def unlocked_query(self, *a, **kw):
                response = self._oracle.unlocked_query(*a, **kw)
                flipped = list(response.scan_out)
                flipped[0] ^= 1
                return ScanResponse(
                    scan_out=flipped,
                    primary_outputs=response.primary_outputs,
                )

        return _Corrupting(inner)


def _broken_eff_factory(netlist, key_bits, rng):
    lock = lock_with_eff(netlist, key_bits, rng)
    return _BrokenEffLock(
        netlist=lock.netlist, spec=lock.spec, secret_key=lock.secret_key
    )


def _crashing_attack(lock, *, profile, timeout_s):
    raise RuntimeError("planted crash")


class TestPlantedBugsAreCaught:
    """Each planted bug runs one farm round pinned to its own pair."""

    def _round_with(self, state_dir, register, attack, **config):
        with temporary_registrations():
            register()
            return farm_round(
                state_dir, trials=6, seed=7, attacks=[attack], **config
            )

    def test_lying_attack_fails_attack_replay(self, tmp_path):
        def register():
            register_attack(
                "liar", _LyingAttack.run, applicable_to=("eff", "effdyn")
            )

        report = self._round_with(tmp_path, register, "liar")
        assert report.violations_this_run
        entries = findings(tmp_path)
        assert entries
        assert all(entry.invariant == ATTACK_REPLAY for _p, entry in entries)
        # Shrunk trials are no larger than the originals, floors hold.
        for _path, entry in entries:
            shrunk, original = entry.trial, entry.original_trial
            for name, floor in PARAM_FLOORS.items():
                assert floor <= shrunk[name] <= original[name]
        # Corpus entries replay to the same failure.
        with temporary_registrations():
            register()
            for _path, entry in entries:
                assert replay_entry(entry) is True

    def test_broken_oracle_fails_key_equivalence(self):
        # Direct cell call (no sampling) so the planted pair is always hit.
        with temporary_registrations():
            register_defense(
                "broken-eff",
                _broken_eff_factory,
                oracle_model="scan-static-broken",
            )
            register_attack(
                "noop-scan",
                lambda lock, *, profile, timeout_s: AttackOutcome(
                    False, None, 0, 0, 0.0, False, "noop"
                ),
                applicable_to=("broken-eff",),
            )
            result = fuzz_cell(
                QUICK,
                attack="noop-scan",
                defense="broken-eff",
                key_bits=3,
                trial_seed=77,
                n_flops=8,
                n_inputs=3,
                n_outputs=2,
                gates_per_flop=2.0,
                max_fanin=3,
                locality=8,
            )
        assert result["violations"]
        assert all(
            v["invariant"] == KEY_EQUIVALENCE for v in result["violations"]
        )

    def test_crashing_attack_is_a_crash_violation_and_shrinks(self, tmp_path):
        def register():
            register_attack(
                "boom", _crashing_attack, applicable_to=("eff", "effdyn")
            )

        report = self._round_with(tmp_path, register, "boom")
        assert report.violations_this_run
        crashes = [e for _p, e in findings(tmp_path) if e.invariant == CRASH]
        assert crashes
        with temporary_registrations():
            register()
            for entry in crashes:
                assert trial_fails(entry.trial, CRASH, QUICK)

    def test_double_violations_share_one_shrink_and_corpus_entry(
        self, tmp_path
    ):
        # success=True + verified=False yields TWO attack-replay
        # violations from one trial (missing verified bit, diverging
        # key); they must share one shrink and one corpus file.  The
        # round's progress log names each violation and its file.
        def lying_unverified(lock, *, profile, timeout_s):
            return AttackOutcome(
                success=True,
                recovered_key=[1] * int(getattr(lock, "key_bits", 1)),
                iterations=1,
                queries=0,
                runtime_s=0.0,
                verified=False,
                detail="planted",
            )

        messages: list[str] = []
        self._round_with(
            tmp_path,
            lambda: register_attack(
                "liar2", lying_unverified, applicable_to=("eff", "effdyn")
            ),
            "liar2",
            progress=messages.append,
        )
        groups: dict[str, list] = {}
        for message in messages:
            found = re.match(
                r"round 0: trial (\d+) violated attack-replay: .*?"
                r"(?: -> (\S+))?$",
                message,
            )
            if found:
                groups.setdefault(found[1], []).append(found[2])
        assert any(len(paths) >= 2 for paths in groups.values())
        for paths in groups.values():
            assert len(set(paths)) == 1  # one file (or none: deduped)
        shared = [
            paths[0] for paths in groups.values() if len(paths) >= 2
        ]
        assert any(shared)
        for path in filter(None, shared):
            detail = json.loads(Path(path).read_text())["detail"]
            assert "; " in detail
        entries = findings(tmp_path)
        assert entries
        assert all(entry.invariant == ATTACK_REPLAY for _p, entry in entries)

    def test_nondeterministic_cell_fails_exec_stability(
        self, monkeypatch, tmp_path
    ):
        from repro.reports import cells

        calls = {"n": 0}

        def flaky_cell(profile, **params):
            calls["n"] += 1
            return {"tick": calls["n"], "violations": []}

        monkeypatch.setitem(cells.CELL_RUNNERS, "fuzz", flaky_cell)
        report = farm_round(tmp_path, trials=2, seed=0, stability_every=1)
        assert report.violations_this_run
        assert any(
            entry.invariant == EXEC_STABILITY
            for _p, entry in findings(tmp_path)
        )

    def test_rerun_crash_is_a_violation_not_an_abort(
        self, monkeypatch, tmp_path
    ):
        from repro.reports import cells

        calls = {"n": 0}

        def crash_on_rerun(profile, **params):
            calls["n"] += 1
            if calls["n"] > 1:  # scheduler run succeeds, probe rerun dies
                raise RuntimeError("nondeterministic crash")
            return {"violations": []}

        monkeypatch.setitem(cells.CELL_RUNNERS, "fuzz", crash_on_rerun)
        report = farm_round(tmp_path, trials=1, seed=0, stability_every=1)
        assert report.rounds[0].index == 0  # the round committed
        stability = [
            entry
            for _p, entry in findings(tmp_path)
            if entry.invariant == EXEC_STABILITY
        ]
        assert stability
        assert "raised although" in stability[0].detail


class TestShrinker:
    def test_candidates_are_deterministic_and_smaller(self):
        params = sample_trial_params(0, 4)
        first = list(candidate_reductions(params))
        assert first == list(candidate_reductions(params))
        for candidate in first:
            assert candidate.keys() == params.keys()
            changed = [
                k for k in params if candidate[k] != params[k]
            ]
            assert len(changed) == 1
            assert candidate[changed[0]] < params[changed[0]]

    def test_floors_are_never_crossed(self):
        params = dict(
            sample_trial_params(0, 4),
            n_flops=3,
            key_bits=1,
            n_inputs=1,
            n_outputs=1,
            max_fanin=2,
            locality=4,
            gates_per_flop=1.0,
        )
        assert list(candidate_reductions(params)) == []

    def test_shrink_of_a_healthy_trial_returns_it_unchanged(self):
        params = sample_trial_params(0, 2)
        shrunk, evals = shrink_trial(
            params, ATTACK_REPLAY, QUICK, max_evals=6
        )
        assert shrunk == params
        assert evals <= 6


class TestCorpus:
    def _entry(self, **overrides):
        trial = sample_trial_params(0, 0)
        fields = dict(
            invariant=ATTACK_REPLAY,
            detail="test entry",
            trial=trial,
            original_trial=trial,
            profile={"name": "quick"},
            shrink_evals=3,
        )
        fields.update(overrides)
        return CrashEntry(**fields)

    def test_write_load_round_trip(self, tmp_path):
        entry = self._entry()
        assert FarmCorpus(tmp_path).add(entry, cell="a|b|small") == "new"
        [(loaded_path, loaded)] = load_corpus(tmp_path / "corpus")
        digest = content_hash(entry.invariant, entry.trial)
        assert loaded_path == tmp_path / "corpus" / ATTACK_REPLAY / (
            f"{digest}.json"
        )
        assert loaded.to_dict() == entry.to_dict()

    def test_rewrite_is_byte_identical(self, tmp_path):
        entry = self._entry()
        first, second = tmp_path / "first", tmp_path / "second"
        FarmCorpus(first).add(entry, cell="a|b|small", round_index=0)
        FarmCorpus(second).add(entry, cell="a|b|small", round_index=0)
        # Re-adding to a reloaded corpus is a no-op, not a rewrite.
        assert FarmCorpus(first).add(entry, cell="a|b|small") == "duplicate"
        assert tree_bytes(first) == tree_bytes(second)

    def test_missing_root_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_malformed_entry_raises_corpus_error(self, tmp_path):
        bad = tmp_path / ATTACK_REPLAY / "0.json"
        bad.parent.mkdir(parents=True)
        bad.write_text("[1, 2]")
        with pytest.raises(CorpusError):
            load_corpus(tmp_path)
        bad.write_text('{"invariant": "x"}')
        with pytest.raises(CorpusError):
            load_corpus(tmp_path)

    def test_stability_entries_are_not_replayable(self):
        entry = self._entry(invariant=EXEC_STABILITY)
        assert entry.replayable is False
        assert replay_entry(entry) is None
