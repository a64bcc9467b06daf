"""Tests for the parallel experiment runner (spec, store, scheduler).

The guarantees pinned down here are the ones the CI pipeline leans on:
stable spec hashes, cache hit/miss semantics across profile
and code-version changes, parallel-equals-serial row equality for the
real Table II path, resumability after a simulated interrupt, failure
recording, and the JSON/CSV artifact round-trip.
"""

import json
import multiprocessing
import os

import pytest

from repro import api
from repro.reports.cells import CELL_RUNNERS
from repro.matrix.grid import matrix_specs
from repro.reports.experiments import table1_specs, table2_specs
from repro.reports.profiles import (
    PROFILES,
    ExperimentProfile,
    profile_from_dict,
    profile_to_dict,
)
from repro.runner.artifacts import load_artifact, write_artifact
from repro.runner.scheduler import RunnerError, run_jobs
from repro.runner.spec import JobSpec, _fingerprint_source_tree, code_version
from repro.runner.stores import JsonFileStore

QUICK = PROFILES["quick"]

TINY = ExperimentProfile(
    name="tiny",
    scale=64,
    key_bits=6,
    n_seeds=1,
    timeout_s=120.0,
    table3_key_sizes=(6,),
)


def spec_of(payload="x", **extra):
    return JobSpec.make("selfcheck", TINY, payload=payload, **extra)


def _dying_cell(profile, **params):
    os._exit(1)  # a worker killed mid-cell (a crash, the OOM killer)


class TestJobSpec:
    def test_hash_is_stable_across_instances(self):
        a = JobSpec.make("table2", QUICK, benchmark="s5378", seed_index=0)
        b = JobSpec.make("table2", QUICK, benchmark="s5378", seed_index=0)
        assert a.spec_hash == b.spec_hash
        assert a.canonical() == b.canonical()

    def test_hash_ignores_param_order(self):
        a = JobSpec("e", {"x": 1, "y": 2}, profile_to_dict(TINY))
        b = JobSpec("e", {"y": 2, "x": 1}, profile_to_dict(TINY))
        assert a.spec_hash == b.spec_hash

    def test_hash_changes_with_any_field(self):
        base = JobSpec.make("table2", QUICK, benchmark="s5378", seed_index=0)
        assert (
            base.spec_hash
            != JobSpec.make("table3", QUICK, benchmark="s5378", seed_index=0).spec_hash
        )
        assert (
            base.spec_hash
            != JobSpec.make("table2", QUICK, benchmark="s5378", seed_index=1).spec_hash
        )
        assert (
            base.spec_hash
            != JobSpec.make("table2", TINY, benchmark="s5378", seed_index=0).spec_hash
        )

    def test_profile_fields_all_participate(self):
        other = ExperimentProfile(
            name="tiny", scale=64, key_bits=6, n_seeds=1,
            timeout_s=60.0, table3_key_sizes=(6,),
        )
        assert (
            JobSpec.make("e", TINY, x=1).spec_hash
            != JobSpec.make("e", other, x=1).spec_hash
        )

    def test_round_trips_through_dict(self):
        spec = JobSpec.make("table2", QUICK, benchmark="s5378", seed_index=3)
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.spec_hash == spec.spec_hash

    def test_rejects_non_json_values(self):
        with pytest.raises(TypeError):
            JobSpec.make("e", TINY, bad=object())

    def test_profile_dict_round_trip(self):
        assert profile_from_dict(profile_to_dict(QUICK)) == QUICK

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)

    def test_fingerprint_covers_c_sources(self, tmp_path):
        # The native solver core is C: editing it must orphan results.
        (tmp_path / "mod.py").write_text("x = 1\n")
        core = tmp_path / "sat" / "core.c"
        core.parent.mkdir()
        core.write_text("int f(void) { return 1; }\n")
        before = _fingerprint_source_tree(tmp_path)
        core.write_text("int f(void) { return 2; }\n")
        assert _fingerprint_source_tree(tmp_path) != before


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = JsonFileStore(tmp_path)
        spec = spec_of()
        assert store.get(spec) is None
        store.put(spec, {"value": 42}, duration_s=0.1)
        assert store.get(spec) == {"value": 42}
        assert len(store) == 1

    def test_profile_change_is_a_miss(self, tmp_path):
        store = JsonFileStore(tmp_path)
        store.put(JobSpec.make("e", TINY, x=1), {"value": 1})
        assert store.get(JobSpec.make("e", QUICK, x=1)) is None

    def test_code_version_change_is_a_miss(self, tmp_path):
        old = JsonFileStore(tmp_path, version="a" * 20)
        old.put(spec_of(), {"value": 1})
        new = JsonFileStore(tmp_path, version="b" * 20)
        assert new.get(spec_of()) is None
        assert len(new) == 0

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        store = JsonFileStore(tmp_path)
        spec = spec_of()
        store.put(spec, {"value": 1})
        store.path_for(spec).write_text("{not json")
        assert store.get(spec) is None

    def test_non_dict_json_degrades_to_miss(self, tmp_path):
        store = JsonFileStore(tmp_path)
        spec = spec_of()
        store.put(spec, {"value": 1})
        store.path_for(spec).write_text("[1, 2]")
        assert store.get(spec) is None

    def test_tampered_spec_degrades_to_miss(self, tmp_path):
        store = JsonFileStore(tmp_path)
        spec = spec_of()
        store.put(spec, {"value": 1})
        entry = json.loads(store.path_for(spec).read_text())
        entry["spec"] = "something else"
        store.path_for(spec).write_text(json.dumps(entry))
        assert store.get(spec) is None

    def test_prune_drops_other_versions_only(self, tmp_path):
        old = JsonFileStore(tmp_path, version="a" * 20)
        old.put(spec_of(), {"value": 1})
        new = JsonFileStore(tmp_path, version="b" * 20)
        new.put(spec_of(), {"value": 2})
        assert new.prune() == 1
        assert new.get(spec_of()) == {"value": 2}
        assert old.get(spec_of()) is None


class TestResultStoreEdgeCases:
    """Degraded-input regressions: every failure mode must be a miss,
    never an exception -- an interrupted writer or a foreign cache tree
    must not take down the grid that trips over it."""

    def test_truncated_entry_degrades_to_miss(self, tmp_path):
        store = JsonFileStore(tmp_path)
        spec = spec_of()
        store.put(spec, {"value": 1})
        path = store.path_for(spec)
        intact = path.read_bytes()
        # Simulate a torn write: every strict prefix must read as a miss.
        for cut in (0, 1, len(intact) // 2, len(intact) - 1):
            path.write_bytes(intact[:cut])
            assert store.get(spec) is None, f"cut at {cut} bytes"
        path.write_bytes(intact)
        assert store.get(spec) == {"value": 1}

    def test_prune_a_foreign_version_tree_with_nesting(self, tmp_path):
        mine = JsonFileStore(tmp_path, version="m" * 20)
        mine.put(spec_of(), {"value": 1})
        # A foreign version left behind by another checkout: nested
        # experiment directories, entries, and a stray non-JSON file.
        foreign = tmp_path / ("f" * 20)
        deep = foreign / "table2" / "extra"
        deep.mkdir(parents=True)
        (foreign / "table2" / "aa.json").write_text("{}")
        (deep / "bb.json").write_text("{}")
        (deep / "notes.txt").write_text("leftover")
        assert mine.prune() == 3
        assert not foreign.exists()
        assert mine.get(spec_of()) == {"value": 1}

    def test_prune_ignores_stray_files_in_the_root(self, tmp_path):
        store = JsonFileStore(tmp_path, version="m" * 20)
        store.put(spec_of(), {"value": 1})
        stray = tmp_path / "README.txt"
        stray.write_text("not a version directory")
        assert store.prune() == 0
        assert stray.exists()

    def test_prune_on_a_missing_root(self, tmp_path):
        store = JsonFileStore(tmp_path / "never-created")
        assert store.prune() == 0

    def test_len_on_a_missing_version_dir(self, tmp_path):
        assert len(JsonFileStore(tmp_path, version="x" * 20)) == 0


class TestScheduler:
    def test_serial_runs_and_stores(self, tmp_path):
        store = JsonFileStore(tmp_path)
        specs = [spec_of(payload=i) for i in range(3)]
        report = run_jobs(specs, jobs=1, store=store)
        assert report.n_computed == 3 and report.n_cached == 0
        assert [o.result["payload"] for o in report.outcomes] == [0, 1, 2]
        again = run_jobs(specs, jobs=1, store=store)
        assert again.n_cached == 3 and again.n_computed == 0

    def test_outcomes_preserve_spec_order_in_parallel(self):
        specs = [spec_of(payload=i) for i in range(6)]
        report = run_jobs(specs, jobs=2)
        assert [o.result["payload"] for o in report.outcomes] == list(range(6))

    def test_progress_sees_every_outcome(self):
        seen = []
        run_jobs([spec_of(payload=i) for i in range(3)], progress=seen.append)
        assert sorted(o.result["payload"] for o in seen) == [0, 1, 2]

    def test_failed_cell_records_the_error(self):
        bad = JobSpec.make("no-such-experiment", TINY)
        report = run_jobs([bad], jobs=1)
        outcome = report.outcomes[0]
        assert not outcome.ok
        assert "no-such-experiment" in outcome.error
        with pytest.raises(RunnerError):
            report.raise_on_error()

    @pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork",
        reason="the pool's workers must inherit the test's cell registry",
    )
    def test_a_dying_worker_fails_the_grid_without_raising(self, monkeypatch):
        # The dead worker breaks the pool: the cells it held and every
        # cell not yet submitted land as failures, and nothing raises.
        monkeypatch.setitem(CELL_RUNNERS, "dying", _dying_cell)
        specs = [JobSpec.make("dying", TINY)]
        specs += [spec_of(payload=i, duration_s=0.3) for i in range(5)]
        report = run_jobs(specs, jobs=2)
        assert report.n_failed == 6
        assert all("BrokenProcessPool" in o.error for o in report.outcomes)

    def test_resume_after_interrupt(self, tmp_path):
        store = JsonFileStore(tmp_path)
        specs = [spec_of(payload=i) for i in range(4)]
        # Simulated interrupt: only half the grid finished last time.
        run_jobs(specs[:2], jobs=1, store=store)
        report = run_jobs(specs, jobs=1, store=store)
        assert [o.cached for o in report.outcomes] == [True, True, False, False]
        assert report.results == [o.result for o in report.outcomes]

    def test_selfcheck_is_a_registered_cell(self):
        assert "selfcheck" in CELL_RUNNERS


class TestTable2ThroughRunner:
    """The acceptance path: real table2 cells through the scheduler."""

    BENCH = ["s5378"]

    @staticmethod
    def _key(row):
        # Everything except the wall-clock column, which is measured.
        return (
            row.benchmark,
            row.n_scan_flops,
            row.key_bits,
            row.n_seed_candidates,
            row.n_iterations,
            row.success_rate,
            row.exact_seed_rate,
        )

    def _rows(self, **kwargs):
        return api.run_grid(
            "table2", profile=QUICK, benchmarks=self.BENCH, **kwargs
        ).rows

    def test_parallel_rows_equal_serial_rows(self):
        serial = self._rows(jobs=1)
        parallel = self._rows(jobs=2)
        assert [self._key(r) for r in serial] == [self._key(r) for r in parallel]

    def test_cached_rerun_is_identical_including_times(self, tmp_path):
        store = JsonFileStore(tmp_path)
        first = self._rows(store=store)
        events = []
        second = self._rows(store=store, progress=events.append)
        assert first == second  # byte-identical rows, time column included
        assert events and all("[cached]" in e for e in events)

    def test_profile_change_misses_the_cache(self, tmp_path):
        store = JsonFileStore(tmp_path)
        self._rows(store=store)
        specs = table2_specs(TINY, self.BENCH)
        assert all(store.get(s) is None for s in specs)


class TestTimedOutCellsAreNotStored:
    """A verdict that depends on the machine's speed never enters the store."""

    class RacingClock:
        """Stands in for the attack's ``time`` module: each reading is an
        hour after the last, so the wall-clock budget is spent at once."""

        def __init__(self):
            self.now = 0.0

        def perf_counter(self):
            self.now += 3600.0
            return self.now

    #: Table II, Table I, and every SAT-based attack of the matrix on
    #: one benchmark.
    SPECS = {
        "II": lambda: table2_specs(QUICK, ["s5378"]),
        "I": lambda: table1_specs(QUICK),
        "matrix": lambda: matrix_specs(
            QUICK,
            attacks=[
                "scansat", "shift-and-leak", "scansat-dyn", "dynunlock",
                "sat", "scramble-sat",
            ],
            benchmarks=["s5378"],
        ),
    }

    @pytest.mark.parametrize("experiment", list(SPECS))
    def test_timed_out_cell_is_reported_but_not_stored(
        self, tmp_path, monkeypatch, experiment
    ):
        from repro.attack import satattack

        monkeypatch.setattr(satattack, "time", self.RacingClock())
        store = JsonFileStore(tmp_path)
        specs = self.SPECS[experiment]()
        report = run_jobs(specs, jobs=1, store=store)
        assert report.n_computed == len(specs)
        for outcome in report.outcomes:
            assert outcome.ok
            assert outcome.result["timed_out"] is True
            if experiment != "I":  # Table I cells count no iterations
                assert outcome.result["iterations"] == 0
            assert store.get(outcome.spec) is None
        assert len(store) == 0

    def test_cell_within_budget_is_stored(self, tmp_path):
        store = JsonFileStore(tmp_path)
        specs = table2_specs(QUICK, ["s5378"])
        report = run_jobs(specs, jobs=1, store=store)
        for outcome in report.outcomes:
            assert outcome.result["timed_out"] is False
            assert store.get(outcome.spec) == outcome.result
        assert len(store) == len(specs)


class TestArtifacts:
    HEADERS = ["Benchmark", "Time (s)"]
    ROWS = [["s5378", 1.25], ["b17", 2.5]]

    def test_json_and_csv_round_trip(self, tmp_path):
        path = write_artifact(
            tmp_path, "table2", self.HEADERS, self.ROWS,
            title="Table II (test)", profile="quick",
            meta={"total_attack_time_s": 3.75},
        )
        assert path.name == "BENCH_table2.json"
        data = load_artifact(path)
        assert data["headers"] == self.HEADERS
        assert data["rows"] == self.ROWS
        assert data["meta"]["total_attack_time_s"] == 3.75
        csv_lines = (tmp_path / "BENCH_table2.csv").read_text().splitlines()
        assert csv_lines[0] == "Benchmark,Time (s)"
        assert len(csv_lines) == 3

    def test_load_rejects_foreign_json(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text('{"rows": []}')
        with pytest.raises(ValueError):
            load_artifact(bad)
