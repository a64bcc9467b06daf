"""Tests for repro.observability: metrics, spans, sessions, and `top`.

Covers the four contracts docs/observability.md makes:

* counter/histogram semantics and deterministic Prometheus rendering;
* span timing monotonicity on real scheduler runs (serial + parallel)
  and on a real end-to-end attack (phase coverage, DIP counts);
* off-by-default invariance -- with no session, results AND cache
  entry bytes are identical to an instrumented run (modulo the
  pre-existing nondeterministic wall-time field);
* the artifact schema_version/run provenance contract, and `top`
  rendering from canned metrics directories.
"""

import json

import pytest

from repro.cli import main
from repro.observability import (
    JsonLogger,
    MetricsRegistry,
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
from repro.runner.stores import open_store

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
# Metrics registry
# ---------------------------------------------------------------------------


class TestCounter:
    def test_inc_and_value_by_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x")
        c.inc(experiment="a")
        c.inc(2, experiment="a")
        c.inc(experiment="b")
        assert c.value(experiment="a") == 3
        assert c.value(experiment="b") == 1
        assert c.value(experiment="missing") == 0

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_label_order_does_not_matter(self):
        c = MetricsRegistry().counter("repro_x_total", "x")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(b="2", a="1") == 2

    def test_get_or_create_returns_same_instance(self):
        reg = MetricsRegistry()
        assert reg.counter("repro_x_total", "x") is reg.counter("repro_x_total", "x")

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("repro_x_total", "x")
        with pytest.raises(ValueError):
            reg.histogram("repro_x_total", "x")


class TestHistogram:
    def test_observe_stats(self):
        h = MetricsRegistry().histogram("repro_d_seconds", "d")
        h.observe(0.02, experiment="a")
        h.observe(0.2, experiment="a")
        count, total = h.stats(experiment="a")
        assert count == 2
        assert total == pytest.approx(0.22)

    def test_render_buckets_are_cumulative(self):
        h = MetricsRegistry().histogram("repro_d_seconds", "d", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        text = "\n".join(h.render())
        assert 'le="0.1"} 1' in text
        assert 'le="1"} 2' in text
        assert 'le="+Inf"} 3' in text
        assert "repro_d_seconds_count 3" in text

    def test_render_prom_is_deterministic_and_sorted(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("repro_b_total", "b").inc(z="1")
            reg.counter("repro_b_total", "b").inc(a="1")
            reg.counter("repro_a_total", "a").inc()
            reg.histogram("repro_h_seconds", "h").observe(0.3)
            return reg.render_prom()

        first, second = build(), build()
        assert first == second
        # Family order is name-sorted regardless of registration order.
        assert first.index("repro_a_total") < first.index("repro_b_total")

    def test_int_values_render_without_decimal_point(self):
        reg = MetricsRegistry()
        reg.counter("repro_n_total", "n").inc(3)
        assert "repro_n_total 3\n" in reg.render_prom()


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
        obs.annotate(note="hi")
        record = end_job_span(span)
        assert not obs.active()
        assert record["experiment"] == "demo"
        assert record["ended_unix"] >= record["started_unix"]
        assert record["duration_s"] >= record["phases"]["solve"] >= 0.0
        assert record["counts"] == {"dips": 4}
        assert record["attrs"] == {"note": "hi"}

    def test_phase_times_accumulate(self):
        span = begin_job_span("demo", "demo")
        obs.add_phase("solve", 0.25)
        obs.add_phase("solve", 0.25)
        record = end_job_span(span)
        assert record["phases"]["solve"] == pytest.approx(0.5)


class TestJsonLogger:
    def test_line_shape(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with path.open("w") as fh:
            logger = JsonLogger(fh, run_id="r1")
            logger.log("hello", level="warn", n=2, odd=object())
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        line = lines[0]
        assert line["event"] == "hello"
        assert line["level"] == "warn"
        assert line["run_id"] == "r1"
        assert line["n"] == 2
        assert "object object" in line["odd"]  # str() fallback
        assert line["ts"] > 0


# ---------------------------------------------------------------------------
# Session + scheduler integration
# ---------------------------------------------------------------------------


class TestSessionWithScheduler:
    def run_instrumented(self, tmp_path, *, jobs):
        # $REPRO_CACHE_BACKEND may pick any backend; the store counter
        # assertions read the resolved name back.
        store = open_store(tmp_path / "cache")
        self.backend = store.name
        session = start_session(
            metrics_dir=tmp_path / "metrics",
            log_json=tmp_path / "log.jsonl",
            command="test",
            argv=["test"],
        )
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
        session, _, _ = self.run_instrumented(tmp_path, jobs=1)
        metrics_dir = tmp_path / "metrics"
        for name in (
            "run.json",
            "spans.jsonl",
            "metrics.prom",
            "BENCH_obs.json",
            "BENCH_obs.csv",
        ):
            assert (metrics_dir / name).is_file(), name

        jobs_total = session.metrics.counter("repro_jobs_total", "")
        assert jobs_total.value(experiment="selfcheck", status="computed") == 3
        assert jobs_total.value(experiment="selfcheck", status="cached") == 3
        store_reqs = session.metrics.counter("repro_store_requests_total", "")
        assert store_reqs.value(backend=self.backend, event="miss") == 3
        assert store_reqs.value(backend=self.backend, event="put") == 3
        assert store_reqs.value(backend=self.backend, event="hit") == 3
        count, total = session.metrics.histogram(
            "repro_job_duration_seconds", ""
        ).stats(experiment="selfcheck")
        assert count == 3 and total >= 3 * 0.005

        prom = (metrics_dir / "metrics.prom").read_text()
        assert 'repro_jobs_total{experiment="selfcheck",status="computed"} 3' in prom
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "log.jsonl").read_text().splitlines()
        ]
        assert events[0] == "run_started" and events[-1] == "run_finished"
        assert events.count("job_finished") == 6

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
        for entry in store.iterate():
            doc = json.loads(entry.raw.decode())
            # duration_s is nondeterministic wall time in *every* run,
            # instrumented or not -- exclude it, compare the rest exactly.
            doc.pop("duration_s")
            out[(entry.experiment, entry.key)] = doc
        return out

    def test_results_and_cache_bytes_identical(self, tmp_path):
        specs = tiny_specs()
        plain_store = open_store(tmp_path / "plain")
        plain = run_jobs(specs, jobs=1, store=plain_store)

        session = start_session(metrics_dir=tmp_path / "metrics", command="test")
        observed = run_jobs(
            specs, jobs=1, store=open_store(tmp_path / "obs"), observer=RunObserver(session)
        )
        end_session()

        assert [o.result for o in plain.outcomes] == [
            o.result for o in observed.outcomes
        ]
        plain_entries = self.entries_of(plain_store)
        obs_entries = self.entries_of(open_store(tmp_path / "obs"))
        assert plain_entries == obs_entries
        for doc in obs_entries.values():
            assert set(doc) == {"label", "result", "spec"}  # no span leakage

    def test_cache_written_with_metrics_replays_without(self, tmp_path):
        specs = tiny_specs()
        store = open_store(tmp_path / "cache")
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
                "--log-json",
                str(tmp_path / "log.jsonl"),
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
        assert span["counts"]["dips"] >= 1
        assert span["counts"]["oracle_queries"] >= 1
        assert span["counts"]["rounds"] >= 1
        prom = (tmp_path / "m" / "metrics.prom").read_text()
        assert 'repro_dips_total{experiment="attack"}' in prom
        assert 'repro_solver_propagations_total{experiment="attack"}' in prom
        events = [
            json.loads(line)["event"]
            for line in (tmp_path / "log.jsonl").read_text().splitlines()
        ]
        assert "run_started" in events and "run_finished" in events

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
        with_metrics = capsys.readouterr().out
        assert "wrote metrics to" in capsys.readouterr().err or True
        assert main(args) == 0
        without_metrics = capsys.readouterr().out
        assert with_metrics == without_metrics
        snapshot = load_snapshot(tmp_path / "m")
        assert snapshot.run["command"] == "table2"
        computed = [s for s in snapshot.spans if s["status"] == "computed"]
        assert computed and all(
            s["phases"].get("solve", 0.0) >= 0.0 for s in computed
        )
        # The artifact's run block joins back to this metrics dir.
        artifact = load_artifact(tmp_path / "m" / "BENCH_obs.json")
        assert artifact["run"]["run_id"] == snapshot.run["run_id"]

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
        prom = (tmp_path / "m" / "metrics.prom").read_text()
        assert 'repro_fuzz_trials_total{disposition="ran"} 2' in prom
        assert "repro_fuzz_violations_total 0" in prom


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
