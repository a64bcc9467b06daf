"""Tests for repro.observability: spans, sessions, and `top`.

Covers the contracts docs/observability.md makes:

* span timing monotonicity on real scheduler runs (serial + parallel)
  and on a real end-to-end attack (phase coverage, DIP and solver
  counts);
* a metrics directory holds run.json, spans.jsonl and the BENCH_obs
  pair, and nothing else;
* off-by-default invariance -- with no session, results AND cache
  entry bytes are identical to an instrumented run (modulo the
  pre-existing nondeterministic wall-time field);
* the artifact schema_version/run provenance contract, and `top`
  rendering from canned metrics directories.
"""

import json
import sys

import pytest

from repro.cli import main
from repro.observability import (
    RunObserver,
    aggregate_spans,
    begin_job_span,
    end_job_span,
    end_session,
    start_session,
)
from repro.observability import spans as obs
from repro.observability.top import load_snapshot, render_top, watch
from repro.reports.profiles import ExperimentProfile
from repro.runner.artifacts import (
    ARTIFACT_FORMAT,
    ARTIFACT_SCHEMA_VERSION,
    load_artifact,
    write_artifact,
)
from repro.runner.scheduler import run_jobs
from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore

TINY = ExperimentProfile(
    name="tiny",
    scale=64,
    key_bits=6,
    n_seeds=1,
    timeout_s=120.0,
    table3_key_sizes=(6,),
)


def tiny_specs(n=3, duration_s=0.0):
    return [
        JobSpec.make("selfcheck", TINY, payload=f"p{i}", duration_s=duration_s)
        for i in range(n)
    ]


@pytest.fixture(autouse=True)
def _no_leaked_session():
    """Every test must leave the process-global session and span clear."""
    yield
    end_session()
    obs._CURRENT = None


# ---------------------------------------------------------------------------
# Worker-side spans
# ---------------------------------------------------------------------------


class TestSpans:
    def test_noop_when_inactive(self):
        assert not obs.active()
        obs.incr("dips")  # must not raise
        obs.add_phase("solve", 0.1)
        with obs.phase("solve"):
            pass
        # The off-path context manager is a single shared instance.
        assert obs.phase("a") is obs.phase("b")

    def test_span_record_timing_monotonic(self):
        span = begin_job_span("demo", "demo[x=1]", spec_hash="abc")
        assert obs.active()
        with obs.phase("solve"):
            sum(range(1000))
        obs.incr("dips", 4)
        record = end_job_span(span)
        assert not obs.active()
        assert record["experiment"] == "demo"
        assert record["ended_unix"] >= record["started_unix"]
        assert record["duration_s"] >= record["phases"]["solve"] >= 0.0
        assert record["counts"] == {"dips": 4}

    def test_phase_times_accumulate(self):
        span = begin_job_span("demo", "demo")
        obs.add_phase("solve", 0.25)
        obs.add_phase("solve", 0.25)
        record = end_job_span(span)
        assert record["phases"]["solve"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Session + scheduler integration
# ---------------------------------------------------------------------------


class TestSessionWithScheduler:
    def run_instrumented(self, tmp_path, *, jobs):
        store = JsonFileStore(tmp_path / "cache")
        session = start_session(metrics_dir=tmp_path / "metrics", command="test")
        observer = RunObserver(session)
        report = run_jobs(
            tiny_specs(duration_s=0.005), jobs=jobs, store=store, observer=observer
        )
        rerun = run_jobs(
            tiny_specs(duration_s=0.005), jobs=jobs, store=store, observer=observer
        )
        end_session()
        return session, report, rerun

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_spans_cover_run_and_monotone(self, tmp_path, jobs):
        session, report, rerun = self.run_instrumented(tmp_path, jobs=jobs)
        assert report.n_computed == 3 and rerun.n_cached == 3
        assert len(session.spans) == 6
        computed = [s for s in session.spans if s["status"] == "computed"]
        cached = [s for s in session.spans if s["status"] == "cached"]
        assert len(computed) == 3 and len(cached) == 3
        for span in computed:
            assert span["ended_unix"] >= span["started_unix"]
            assert span["queue_s"] >= 0.0
            assert span["duration_s"] >= 0.005
            assert all(v >= 0.0 for v in span["phases"].values())

    def test_metrics_and_files(self, tmp_path):
        self.run_instrumented(tmp_path, jobs=1)
        metrics_dir = tmp_path / "metrics"
        for name in ("run.json", "spans.jsonl", "BENCH_obs.json", "BENCH_obs.csv"):
            assert (metrics_dir / name).is_file(), name

        records = [
            json.loads(line)
            for line in (metrics_dir / "spans.jsonl").read_text().splitlines()
        ]
        spans = [r for r in records if r["kind"] == "span"]
        assert sorted(s["status"] for s in spans) == ["cached"] * 3 + ["computed"] * 3
        assert sum(r["kind"] == "submitted" for r in records) == 3
        computed = [s for s in spans if s["status"] == "computed"]
        assert sum(s["duration_s"] for s in computed) >= 3 * 0.005

    def test_submitted_jobs_never_outnumber_workers(self, tmp_path):
        # ``top`` counts a job as running from its ``submitted`` record
        # until its ``span``, so at most ``jobs`` may be open at once.
        session = start_session(metrics_dir=tmp_path, command="test")
        run_jobs(
            tiny_specs(n=6, duration_s=0.05), jobs=2, observer=RunObserver(session)
        )
        end_session()
        open_jobs: set[int] = set()
        most = 0
        for line in (tmp_path / "spans.jsonl").read_text().splitlines():
            record = json.loads(line)
            if record["kind"] == "submitted":
                open_jobs.add(record["job_id"])
            elif record["kind"] == "span":
                open_jobs.discard(record["job_id"])
            most = max(most, len(open_jobs))
        assert most == 2 and not open_jobs

    def test_obs_artifact_summarises_phases(self, tmp_path):
        self.run_instrumented(tmp_path, jobs=1)
        artifact = load_artifact(tmp_path / "metrics" / "BENCH_obs.json")
        assert artifact["headers"][0] == "Experiment"
        (row,) = artifact["rows"]
        assert row[0] == "selfcheck"
        assert row[1] == 6  # jobs: 3 computed + 3 cached
        total = row[-1]
        assert total >= 3 * 0.005
        assert artifact["meta"]["n_spans"] == 6
        assert set(artifact["meta"]) == {"run_id", "command", "wall_s", "n_spans"}
        assert artifact["run"]["run_id"] == artifact["meta"]["run_id"]

    def test_only_one_session_at_a_time(self, tmp_path):
        start_session(command="one")
        with pytest.raises(RuntimeError):
            start_session(command="two")


class TestOffByDefaultInvariance:
    """Metrics off must change neither results nor cache entry bytes."""

    @staticmethod
    def entries_of(store):
        out = {}
        version_dir = store.root / store.version
        for path in sorted(version_dir.rglob("*.json")):
            doc = json.loads(path.read_bytes())
            # duration_s is nondeterministic wall time in *every* run,
            # instrumented or not -- exclude it, compare the rest exactly.
            doc.pop("duration_s")
            out[path.relative_to(version_dir)] = doc
        return out

    def test_results_and_cache_bytes_identical(self, tmp_path):
        specs = tiny_specs()
        plain_store = JsonFileStore(tmp_path / "plain")
        plain = run_jobs(specs, jobs=1, store=plain_store)

        session = start_session(metrics_dir=tmp_path / "metrics", command="test")
        observed = run_jobs(
            specs, jobs=1, store=JsonFileStore(tmp_path / "obs"), observer=RunObserver(session)
        )
        end_session()

        assert [o.result for o in plain.outcomes] == [
            o.result for o in observed.outcomes
        ]
        plain_entries = self.entries_of(plain_store)
        obs_entries = self.entries_of(JsonFileStore(tmp_path / "obs"))
        assert plain_entries == obs_entries
        for doc in obs_entries.values():
            assert set(doc) == {"label", "result", "spec"}  # no span leakage

    def test_cache_written_with_metrics_replays_without(self, tmp_path):
        specs = tiny_specs()
        store = JsonFileStore(tmp_path / "cache")
        session = start_session(command="test")
        run_jobs(specs, jobs=1, store=store, observer=RunObserver(session))
        end_session()
        replay = run_jobs(specs, jobs=1, store=store)
        assert replay.n_cached == len(specs)


# ---------------------------------------------------------------------------
# End-to-end: a real attack produces a phase-covering span
# ---------------------------------------------------------------------------


class TestRealAttackSpan:
    def test_cli_attack_records_attack_phases(self, tmp_path, capsys):
        code = main(
            [
                "attack",
                "s5378",
                "--scale",
                "64",
                "--key-bits",
                "4",
                "--timeout",
                "120",
                "--metrics-dir",
                str(tmp_path / "m"),
            ]
        )
        assert code == 0
        assert "success          : True" in capsys.readouterr().out
        snapshot = load_snapshot(tmp_path / "m")
        (span,) = snapshot.spans
        assert span["experiment"] == "attack"
        phases = span["phases"]
        # The attack pipeline must account for model building, CNF
        # encoding, and SAT solving at minimum; oracle time exists
        # whenever the DIP loop iterated.
        for name in ("model", "encode", "solve"):
            assert phases.get(name, 0.0) >= 0.0 and name in phases
        counts = span["counts"]
        assert counts["dips"] >= 1
        assert counts["oracle_queries"] >= 1
        assert counts["rounds"] >= 1
        assert counts["solver_propagations"] > 0

    def test_run_json_records_the_parsed_arguments(
        self, tmp_path, capsys, monkeypatch
    ):
        # Called in-process, as from ``python -c``: the interpreter's
        # own argv is not the command's.
        monkeypatch.setattr(sys, "argv", ["-c"])
        argv = [
            "attack",
            "s5378",
            "--key-bits",
            "4",
            "--scale",
            "64",
            "--metrics-dir",
            str(tmp_path / "m"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        run = json.loads((tmp_path / "m" / "run.json").read_text())
        assert run["argv"] == argv

    def test_grid_command_emits_metrics_and_identical_rows(self, tmp_path, capsys):
        args = [
            "table2",
            "s5378",
            "--profile",
            "quick",
            "--cache-dir",
            str(tmp_path / "cache"),
        ]
        assert main([*args, "--metrics-dir", str(tmp_path / "m")]) == 0
        with_metrics = capsys.readouterr()
        assert f"wrote metrics to {tmp_path / 'm'}" in with_metrics.err
        assert main(args) == 0
        without_metrics = capsys.readouterr().out
        assert with_metrics.out == without_metrics
        snapshot = load_snapshot(tmp_path / "m")
        assert snapshot.run["command"] == "table2"
        computed = [s for s in snapshot.spans if s["status"] == "computed"]
        assert computed and all(
            s["phases"].get("solve", 0.0) >= 0.0 for s in computed
        )
        # The artifact's run block joins back to this metrics dir.
        artifact = load_artifact(tmp_path / "m" / "BENCH_obs.json")
        assert artifact["run"]["run_id"] == snapshot.run["run_id"]

    def test_metrics_dir_holds_only_the_span_files(self, tmp_path, capsys):
        metrics_dir = tmp_path / "m"
        argv = ["table2", "s5378", "--profile", "quick", "--no-resume"]
        assert main([*argv, "--metrics-dir", str(metrics_dir)]) == 0
        capsys.readouterr()
        assert sorted(path.name for path in metrics_dir.iterdir()) == [
            "BENCH_obs.csv",
            "BENCH_obs.json",
            "run.json",
            "spans.jsonl",
        ]

    def test_fuzz_metrics(self, tmp_path, capsys):
        code = main(
            [
                "farm",
                "run",
                "--profile",
                "quick",
                "--round-trials",
                "2",
                "--seed",
                "0",
                "--no-resume",
                "--state",
                str(tmp_path / "farm"),
                "--metrics-dir",
                str(tmp_path / "m"),
            ]
        )
        assert code == 0
        capsys.readouterr()
        (farm_round,) = load_snapshot(tmp_path / "m").farm_rounds
        assert farm_round["trials"] == 2
        assert farm_round["violations"] == 0
        assert farm_round["trials_total"] == 2


# ---------------------------------------------------------------------------
# top
# ---------------------------------------------------------------------------


def canned_metrics_dir(tmp_path):
    root = tmp_path / "m"
    root.mkdir()
    (root / "run.json").write_text(
        json.dumps(
            {
                "schema_version": 1,
                "run_id": "deadbeef0123",
                "command": "table2",
                "started_unix": 1000.0,
            }
        )
    )
    records = [
        {"kind": "submitted", "job_id": 0, "label": "a@quick", "t": 1001.0},
        {"kind": "submitted", "job_id": 1, "label": "b@quick", "t": 1002.0},
        {"kind": "submitted", "job_id": 2, "label": "c@quick", "t": 1003.0},
        {
            "kind": "span",
            "job_id": 0,
            "experiment": "table2",
            "label": "a@quick",
            "status": "computed",
            "queue_s": 0.5,
            "duration_s": 4.0,
            "started_unix": 1001.5,
            "ended_unix": 1005.5,
            "phases": {"solve": 2.5, "encode": 1.0},
            "counts": {"dips": 7, "solver_propagations": 5_000_000},
        },
        {
            "kind": "span",
            "job_id": 1,
            "experiment": "table2",
            "label": "b@quick",
            "status": "cached",
            "queue_s": 0.0,
            "duration_s": 0.0,
            "phases": {},
            "counts": {},
        },
    ]
    with (root / "spans.jsonl").open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
        fh.write('{"kind": "span", "job_id": 99, "trunc')  # torn live write
    return root


class TestTop:
    def test_snapshot_tolerates_torn_lines_and_finds_running(self, tmp_path):
        snapshot = load_snapshot(canned_metrics_dir(tmp_path))
        assert snapshot.run["run_id"] == "deadbeef0123"
        assert len(snapshot.spans) == 2
        (running,) = snapshot.running
        assert running["job_id"] == 2

    def test_render_frame(self, tmp_path):
        snapshot = load_snapshot(canned_metrics_dir(tmp_path))
        frame = render_top(snapshot, now=1010.0)
        assert "run deadbeef0123 (table2)  up 10s" in frame
        assert "jobs: 2 done (1 cached, 0 failed), 1 running" in frame
        assert "Where the time went" in frame
        assert "#2 c@quick" in frame  # the running job, with its age
        assert "a@quick — 4.00s" in frame
        assert "dips=7" in frame
        assert "props/s=2.00M" in frame  # 5M propagations in 2.5 s of solve

    def test_render_empty_dir(self, tmp_path):
        frame = render_top(load_snapshot(tmp_path), now=0.0)
        assert "run ?" in frame

    def test_watch_once_and_missing_dir(self, tmp_path, capsys):
        root = canned_metrics_dir(tmp_path)
        assert watch(root, once=True) == 0
        assert "Where the time went" in capsys.readouterr().out
        assert watch(tmp_path / "absent", once=True) == 2
        assert "no metrics directory" in capsys.readouterr().err

    def test_cli_top_once(self, tmp_path, capsys):
        root = canned_metrics_dir(tmp_path)
        assert main(["top", str(root), "--once"]) == 0
        assert "run deadbeef0123" in capsys.readouterr().out

    def test_aggregate_folds_queue_and_other(self):
        headers, rows = aggregate_spans(
            [
                {
                    "experiment": "e",
                    "status": "computed",
                    "queue_s": 1.0,
                    "duration_s": 10.0,
                    "phases": {"solve": 4.0, "opt": 2.0},
                }
            ]
        )
        row = dict(zip(headers, rows[0]))
        assert row["Queue (s)"] == 1.0
        assert row["Solve (s)"] == 4.0
        # Other = opt (non-summary phase) + 4s unaccounted.
        assert row["Other (s)"] == pytest.approx(6.0)
        assert row["Total (s)"] == 10.0


# ---------------------------------------------------------------------------
# Artifact schema_version / run provenance
# ---------------------------------------------------------------------------


class TestArtifactSchema:
    def test_v3_layout_pinned(self, tmp_path):
        path = write_artifact(tmp_path, "demo", ["A"], [[1]], title="t")
        data = json.loads(path.read_text())
        assert data["format"] == ARTIFACT_FORMAT
        assert data["schema_version"] == ARTIFACT_SCHEMA_VERSION == 3
        assert data["kind"] == "demo"
        run = data["run"]
        assert set(run) == {
            "run_id",
            "created_unix",
            "python",
            "platform",
            "code_version",
            "solver_core",
        }
        assert len(run["run_id"]) == 12
        assert len(run["code_version"]) == 20
        # The experiment data lives under one payload block on disk...
        assert set(data["payload"]) == {
            "experiment",
            "title",
            "profile",
            "headers",
            "rows",
            "meta",
        }
        assert data["payload"]["rows"] == [[1]]
        # ...and load_artifact flattens it to the v1/v2-style view.
        loaded = load_artifact(path)
        assert loaded["rows"] == [[1]]
        assert loaded["experiment"] == "demo"
        assert loaded["kind"] == "demo"
        assert "payload" not in loaded

    def test_v2_shape_normalizes_with_kind_default(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(
            json.dumps(
                {
                    "format": ARTIFACT_FORMAT,
                    "schema_version": 2,
                    "experiment": "demo",
                    "headers": ["A"],
                    "rows": [[1]],
                    "meta": {},
                }
            )
        )
        loaded = load_artifact(path)
        assert loaded["rows"] == [[1]]
        assert loaded["kind"] == "demo"

    def test_artifact_inherits_session_run_id(self, tmp_path):
        session = start_session(command="test")
        path = write_artifact(tmp_path, "demo", ["A"], [[1]])
        end_session()
        assert json.loads(path.read_text())["run"]["run_id"] == session.run_id

    def test_legacy_v1_without_schema_version_loads(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(
            json.dumps(
                {"format": ARTIFACT_FORMAT, "headers": ["A"], "rows": [[1]], "meta": {}}
            )
        )
        assert load_artifact(path)["rows"] == [[1]]

    def test_checked_in_baselines_still_load(self):
        data = load_artifact("benchmarks/baselines/table2_quick.json")
        assert data["experiment"] == "table2"

    def test_future_schema_rejected(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(
            json.dumps(
                {
                    "format": ARTIFACT_FORMAT,
                    "schema_version": ARTIFACT_SCHEMA_VERSION + 1,
                    "rows": [],
                }
            )
        )
        with pytest.raises(ValueError, match="upgrade"):
            load_artifact(path)

    @pytest.mark.parametrize("bad", [0, -1, "2", 1.5, True])
    def test_invalid_schema_version_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"format": ARTIFACT_FORMAT, "schema_version": bad, "rows": []}
            )
        )
        with pytest.raises(ValueError, match="schema_version"):
            load_artifact(path)
