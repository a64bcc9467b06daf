"""Tests for the differential-fuzzing subsystem (repro.fuzz).

The properties pinned here are the subsystem's contract:

* sampling and trial cells are pure functions of (seed, index, params);
* campaigns aggregate identically at any ``jobs`` level and on reruns;
* all built-in defenses/attacks satisfy the invariants at fuzz sizes
  (a green quick campaign);
* planted soundness bugs -- a lying attack, a broken oracle, a crashing
  cell -- are detected, minimized by the shrinker, persisted to the
  corpus, and reproduced by replay;
* the crash corpus round-trips byte-for-byte and tolerates nothing.
"""

import json

import pytest

from repro.bench_suite.generator import (
    GeneratorConfig,
    SAMPLE_FLOP_RANGE,
    config_from_dict,
    config_to_dict,
    sample_config,
)
from repro.fuzz.campaign import (
    CampaignReport,
    campaign_rows,
    fuzz_cell,
    fuzz_trial_specs,
    run_campaign,
    sample_trial_params,
)
from repro.fuzz.corpus import (
    CorpusError,
    CrashEntry,
    entry_path,
    load_corpus,
    replay_entry,
    write_entry,
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
from repro.scan.oracle import ScanResponse

import random

QUICK = PROFILES["quick"]


def canonical(result) -> str:
    return json.dumps(result, sort_keys=True, separators=(",", ":"))


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
        specs = fuzz_trial_specs(QUICK, 3, 42)
        again = fuzz_trial_specs(QUICK, 3, 42)
        assert [s.spec_hash for s in specs] == [s.spec_hash for s in again]
        for spec in specs:
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
    def test_quick_campaign_is_green(self):
        report = run_campaign(QUICK, trials=16, seed=0, jobs=1)
        assert report.ok, report.violations
        assert report.n_trials == 16
        assert len(report.outcomes) == 16

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
    def test_serial_equals_parallel_equals_rerun(self):
        a = run_campaign(QUICK, trials=10, seed=3, jobs=1)
        b = run_campaign(QUICK, trials=10, seed=3, jobs=2)
        c = run_campaign(QUICK, trials=10, seed=3, jobs=1)
        keys = lambda r: [canonical(o.result) for o in r.outcomes]  # noqa: E731
        assert keys(a) == keys(b) == keys(c)
        assert campaign_rows(a) == campaign_rows(b) == campaign_rows(c)

    def test_resume_through_store_is_byte_identical(self, tmp_path):
        from repro.runner.stores import JsonFileStore

        store = JsonFileStore(tmp_path)
        fresh = run_campaign(QUICK, trials=8, seed=5, jobs=1, store=store)
        cached = run_campaign(QUICK, trials=8, seed=5, jobs=1, store=store)
        assert cached.n_cached == 8 and cached.n_computed == 0
        assert [canonical(o.result) for o in fresh.outcomes] == [
            canonical(o.result) for o in cached.outcomes
        ]
        assert fresh.ok and cached.ok

    def test_time_budget_stops_dispatch_after_a_chunk(self):
        report = run_campaign(
            QUICK, trials=20, seed=1, jobs=1, time_budget_s=0.0
        )
        assert 0 < len(report.outcomes) < 20
        assert report.n_not_run == 20 - len(report.outcomes)
        # The run count is the dispatched count, never a negative
        # double-subtraction of the not-run tail.
        assert f"{len(report.outcomes)}/20 trial(s) run" in report.summary()


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
    def _campaign_with(self, register, trials=24, seed=7, **kwargs):
        with temporary_registrations():
            register()
            return run_campaign(
                QUICK, trials=trials, seed=seed, jobs=1, **kwargs
            )

    def test_lying_attack_fails_attack_replay(self, tmp_path):
        corpus = tmp_path / "corpus"
        report = self._campaign_with(
            lambda: register_attack(
                "liar", _LyingAttack.run, applicable_to=("eff", "effdyn")
            ),
            corpus_dir=str(corpus),
        )
        liar_violations = [
            v for v in report.violations if v["trial"]["attack"] == "liar"
        ]
        assert liar_violations
        assert all(
            v["invariant"] == ATTACK_REPLAY for v in liar_violations
        )
        # Shrunk trials are no larger than the originals, floors hold.
        for violation in liar_violations:
            shrunk, original = violation["shrunk_trial"], violation["trial"]
            for name, floor in PARAM_FLOORS.items():
                assert floor <= shrunk[name] <= original[name]
        # Corpus entries exist and replay to the same failure.
        entries = load_corpus(corpus)
        assert entries
        with temporary_registrations():
            register_attack(
                "liar", _LyingAttack.run, applicable_to=("eff", "effdyn")
            )
            for _path, entry in entries:
                if entry.original_trial["attack"] == "liar":
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
        corpus = tmp_path / "corpus"
        report = self._campaign_with(
            lambda: register_attack(
                "boom", _crashing_attack, applicable_to=("eff", "effdyn")
            ),
            corpus_dir=str(corpus),
        )
        crashes = [v for v in report.violations if v["invariant"] == CRASH]
        assert crashes
        with temporary_registrations():
            register_attack(
                "boom", _crashing_attack, applicable_to=("eff", "effdyn")
            )
            for violation in crashes:
                assert trial_fails(violation["shrunk_trial"], CRASH, QUICK)

    def test_double_violations_share_one_shrink_and_corpus_entry(
        self, tmp_path
    ):
        # success=True + verified=False yields TWO attack-replay
        # violations from one trial (missing verified bit, diverging
        # key); they must share one shrink and one corpus file.
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

        corpus = tmp_path / "corpus"
        with temporary_registrations():
            register_attack(
                "liar2", lying_unverified, applicable_to=("eff", "effdyn")
            )
            report = run_campaign(
                QUICK, trials=24, seed=7, jobs=1, corpus_dir=str(corpus)
            )
        groups: dict[int, list] = {}
        for violation in report.violations:
            if violation["trial"]["attack"] == "liar2":
                groups.setdefault(violation["index"], []).append(violation)
        assert groups
        assert any(len(g) >= 2 for g in groups.values())
        for group in groups.values():
            assert len({v["corpus_path"] for v in group}) == 1
            assert len({canonical(v["shrunk_trial"]) for v in group}) == 1
        entries = load_corpus(corpus)
        assert len(entries) == len(groups)  # one file per (trial, invariant)
        by_index = {e.meta["index"]: e for _p, e in entries}
        for index, group in groups.items():
            if len(group) >= 2:
                assert "; " in by_index[index].detail

    def test_nondeterministic_cell_fails_exec_stability(self, monkeypatch):
        from repro.reports import cells

        calls = {"n": 0}

        def flaky_cell(profile, **params):
            calls["n"] += 1
            return {"tick": calls["n"], "violations": []}

        monkeypatch.setitem(cells.CELL_RUNNERS, "fuzz", flaky_cell)
        report = run_campaign(
            QUICK, trials=2, seed=0, jobs=1, stability_every=1
        )
        assert any(
            v["invariant"] == EXEC_STABILITY for v in report.violations
        )

    def test_rerun_crash_is_a_violation_not_an_abort(self, monkeypatch):
        from repro.reports import cells

        calls = {"n": 0}

        def crash_on_rerun(profile, **params):
            calls["n"] += 1
            if calls["n"] > 1:  # scheduler run succeeds, probe rerun dies
                raise RuntimeError("nondeterministic crash")
            return {"violations": []}

        monkeypatch.setitem(cells.CELL_RUNNERS, "fuzz", crash_on_rerun)
        report = run_campaign(
            QUICK, trials=1, seed=0, jobs=1, stability_every=1
        )
        stability = [
            v
            for v in report.violations
            if v["invariant"] == EXEC_STABILITY
        ]
        assert stability
        assert "raised although" in stability[0]["detail"]


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
        path = write_entry(tmp_path, entry)
        assert path == entry_path(tmp_path, entry)
        assert path.parent.name == ATTACK_REPLAY
        [(loaded_path, loaded)] = load_corpus(tmp_path)
        assert loaded_path == path
        assert loaded.to_dict() == entry.to_dict()

    def test_rewrite_is_byte_identical(self, tmp_path):
        entry = self._entry()
        path = write_entry(tmp_path, entry)
        first = path.read_bytes()
        write_entry(tmp_path, entry)
        assert path.read_bytes() == first

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


class TestCampaignReportSurface:
    def test_summary_mentions_the_interesting_counts(self):
        report = CampaignReport(seed=0, n_trials=4, n_not_run=2)
        text = report.summary()
        assert "2 not run" in text and "0 violation(s)" in text

    def test_rows_group_by_pair(self):
        report = run_campaign(QUICK, trials=12, seed=0, jobs=1)
        rows = campaign_rows(report)
        assert rows == sorted(rows)
        assert sum(r[2] for r in rows) == 12
        assert sum(r[3] for r in rows) == report.n_skipped_builds
