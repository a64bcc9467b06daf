"""Tests for the attack-as-a-service subsystem (repro.service).

Everything here runs against a real ThreadingHTTPServer on a loopback
port -- submit/poll/fetch over actual HTTP round-trips -- because the
service's value is precisely its wire behavior: dedupe under
concurrent submission, 4xx (never 500) on malformed input, retry and
batching semantics in the clients, and results byte-identical to the
in-process :mod:`repro.api` path.
"""

import json
import threading
import time

import pytest

from repro import api
from repro.reports.profiles import ExperimentProfile
from repro.runner.spec import JobSpec
from repro.runner.stores import JsonFileStore
from repro.service import (
    MAX_BATCH_SPECS,
    BatchingClient,
    ReproService,
    ServiceClient,
    ServiceError,
    WireError,
)
from repro.service.schema import (
    WIRE_SCHEMA_VERSION,
    check_envelope,
    decode_body,
    envelope,
    parse_submission,
)

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


@pytest.fixture
def service(tmp_path):
    store = JsonFileStore(tmp_path / "cache")
    svc = ReproService(
        port=0, jobs=1, store=store, metrics_dir=str(tmp_path / "metrics")
    ).start()
    try:
        yield svc
    finally:
        svc.close()


@pytest.fixture
def client(service):
    return ServiceClient(service.url, retries=2, backoff_s=0.01)


class TestWireSchema:
    def test_decode_plain_and_deflate_bodies(self):
        import zlib

        raw = json.dumps({"a": 1}).encode()
        assert decode_body(raw) == {"a": 1}
        assert decode_body(raw, "identity") == {"a": 1}
        assert decode_body(zlib.compress(raw), "deflate") == {"a": 1}

    def test_bad_deflate_is_400(self):
        with pytest.raises(WireError) as err:
            decode_body(b"not-compressed", "deflate")
        assert err.value.status == 400

    def test_unknown_encoding_is_415(self):
        with pytest.raises(WireError) as err:
            decode_body(b"{}", "gzip")
        assert err.value.status == 415

    def test_non_object_bodies_rejected(self):
        with pytest.raises(WireError):
            decode_body(b"[1, 2]")
        with pytest.raises(WireError):
            decode_body(b"definitely not json")

    def test_envelope_version_checks(self):
        good = envelope("submit", jobs=[])
        assert good["schema_version"] == WIRE_SCHEMA_VERSION
        check_envelope(good, kind="submit")
        for bad in (
            {"kind": "submit"},
            {"schema_version": True, "kind": "submit"},
            {"schema_version": WIRE_SCHEMA_VERSION + 1, "kind": "submit"},
            {"schema_version": 0, "kind": "submit"},
            {"schema_version": 1, "kind": "other"},
        ):
            with pytest.raises(WireError):
                check_envelope(bad, kind="submit")

    def test_parse_submission_round_trips_spec_hash(self):
        spec = spec_of("hello")
        parsed = parse_submission(envelope("submit", jobs=[spec.to_dict()]))
        assert parsed[0].spec_hash == spec.spec_hash

    def test_parse_submission_rejects_garbage(self):
        for jobs in ([], "nope", [42], [{"experiment": ""}],
                     [{"experiment": "no-such-cell"}],
                     [{"experiment": "selfcheck", "params": "x"}]):
            with pytest.raises(WireError):
                parse_submission(envelope("submit", jobs=jobs))

    def test_parse_submission_caps_batch_size(self):
        jobs = [spec_of(i).to_dict() for i in range(2)] * (
            MAX_BATCH_SPECS // 2 + 1
        )
        with pytest.raises(WireError):
            parse_submission(envelope("submit", jobs=jobs))


class TestHTTPEndpoints:
    def test_healthz(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["schema_version"] == WIRE_SCHEMA_VERSION
        assert set(health["jobs"]) == {"queued", "running", "done", "failed"}

    def test_submit_poll_fetch(self, service, client):
        spec = spec_of("round-trip")
        (view,) = client.submit([spec])
        assert view["deduped"] is False
        assert view["job_id"] == spec.spec_hash[:16]
        done = client.wait([view["job_id"]], timeout_s=30)
        assert done[view["job_id"]]["status"] == "done"
        result = client.result(view["job_id"])
        assert result["payload"] == "round-trip"
        listed = client.jobs()
        assert view["job_id"] in {v["job_id"] for v in listed}

    def test_result_before_done_is_409(self, service, client):
        spec = spec_of("slow", duration_s=2.0)
        (view,) = client.submit([spec])
        with pytest.raises(ServiceError) as err:
            client.result(view["job_id"])
        assert err.value.status == 409
        client.wait([view["job_id"]], timeout_s=30)
        assert client.result(view["job_id"])["payload"] == "slow"

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("deadbeef")
        assert err.value.status == 404

    def test_unknown_endpoints_are_404(self, client):
        for method, path in (("GET", "/v2/jobs"), ("POST", "/v1/nope")):
            with pytest.raises(ServiceError) as err:
                client.request_raw(method, path, {} if method == "POST" else None)
            assert err.value.status == 404

    def test_malformed_body_is_400_not_500(self, service):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            service.url + "/v1/jobs",
            data=b"this is not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400

    def test_unknown_schema_version_is_400(self, service, client):
        payload = {
            "schema_version": WIRE_SCHEMA_VERSION + 1,
            "kind": "submit",
            "jobs": [spec_of().to_dict()],
        }
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/jobs", payload, kind="submitted")
        assert err.value.status == 400

    def test_unknown_experiment_is_400(self, service, client):
        payload = envelope(
            "submit", jobs=[{"experiment": "no-such-cell", "params": {}}]
        )
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/v1/jobs", payload, kind="submitted")
        assert err.value.status == 400

    def test_spans_and_metrics_exposed(self, service, client):
        (view,) = client.submit([spec_of("observed")])
        client.wait([view["job_id"]], timeout_s=30)
        spans = client.spans()
        assert any(
            s.get("kind") == "span" and s.get("experiment") == "selfcheck"
            for s in spans
        )
        metrics = client.metrics_text()
        assert "repro_jobs_total" in metrics
        assert "repro_service_requests_total" in metrics


class TestDedupe:
    def test_concurrent_identical_submissions_compute_once(
        self, service, client
    ):
        """The acceptance criterion: N identical submissions, one solve."""
        spec = spec_of("stampede")
        n_clients = 100
        barrier = threading.Barrier(n_clients)
        errors = []

        def submit_one():
            try:
                barrier.wait(timeout=30)
                client.submit([spec])
            except Exception as exc:  # pragma: no cover - diagnostic aid
                errors.append(exc)

        threads = [threading.Thread(target=submit_one) for _ in range(n_clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        service.registry.wait([spec.spec_hash[:16]], timeout_s=30)

        # Exactly one store entry and one computed job.
        assert len(service.store) == 1
        metrics = service.session.metrics
        computed = metrics.counter("repro_jobs_total").value(
            experiment="selfcheck", status="computed"
        )
        assert computed == 1
        new = metrics.counter("repro_service_jobs_total").value(
            disposition="new"
        )
        deduped = metrics.counter("repro_service_jobs_total").value(
            disposition="deduped"
        )
        assert new == 1
        assert deduped == n_clients - 1

    def test_failed_job_reruns_on_resubmission(self, service, client, tmp_path):
        spec = spec_of("flaky", fail_marker=str(tmp_path / "marker"))
        (view,) = client.submit([spec])
        done = client.wait([view["job_id"]], timeout_s=30)
        assert done[view["job_id"]]["status"] == "failed"
        with pytest.raises(ServiceError) as err:
            client.result(view["job_id"])
        assert err.value.status == 409
        # Resubmitting a failed spec is the retry surface: the marker
        # now exists, so the second run succeeds.
        (view2,) = client.submit([spec])
        assert view2["deduped"] is False
        done = client.wait([view2["job_id"]], timeout_s=30)
        assert done[view2["job_id"]]["status"] == "done"

    def test_service_results_byte_identical_to_in_process(
        self, service, client
    ):
        specs = [spec_of(f"cell-{i}") for i in range(3)]
        views = client.submit(specs)
        client.wait([v["job_id"] for v in views], timeout_s=30)
        remote = [client.result(v["job_id"]) for v in views]
        # The in-process path against the same store serves the same
        # entries; identical bytes proves the service stored exactly
        # what api.submit_jobs would have produced and reused.
        report = api.submit_jobs(specs, jobs=1, store=service.store)
        assert all(o.cached for o in report.outcomes)
        for outcome, fetched in zip(report.outcomes, remote):
            assert json.dumps(outcome.result, sort_keys=True) == json.dumps(
                fetched, sort_keys=True
            )


class TestClientRetry:
    def test_retries_injected_503s(self, service):
        service.inject_failures(2)
        client = ServiceClient(service.url, retries=3, backoff_s=0.01)
        assert client.health()["status"] == "ok"

    def test_no_retries_surfaces_503(self, service):
        service.inject_failures(1)
        client = ServiceClient(service.url, retries=0)
        with pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 503

    def test_4xx_is_never_retried(self, service):
        client = ServiceClient(service.url, retries=5, backoff_s=0.01)
        start = time.perf_counter()
        with pytest.raises(ServiceError) as err:
            client.job("nope")
        assert err.value.status == 404
        # Five retries with backoff would take visibly longer than one
        # immediate failure; 4xx must fail fast.
        assert time.perf_counter() - start < 1.0

    def test_connection_error_after_retries(self):
        client = ServiceClient(
            "http://127.0.0.1:9", retries=1, backoff_s=0.01, timeout_s=0.5
        )
        with pytest.raises(ServiceError):
            client.health()


class TestBatchingClient:
    def test_flushes_when_batch_fills(self, service):
        batcher = BatchingClient(
            service.url, batch_size=2, linger_s=30.0, queue_size=8
        )
        try:
            batcher.submit(spec_of("b0"))
            batcher.submit(spec_of("b1"))
            # linger is effectively infinite, so only the size trigger
            # can have sent these.
            deadline = time.monotonic() + 10
            while len(batcher.job_views) < 2:
                assert time.monotonic() < deadline
                time.sleep(0.01)
        finally:
            batcher.close()

    def test_flushes_remainder_on_close(self, service):
        with BatchingClient(service.url, batch_size=100, linger_s=30.0) as batcher:
            batcher.submit(spec_of("tail"))
            assert batcher.job_views == {}
        assert len(batcher.job_views) == 1
        with pytest.raises(RuntimeError):
            batcher.submit(spec_of("after-close"))

    def test_flush_surfaces_background_errors(self, service):
        service.inject_failures(10)
        client = ServiceClient(service.url, retries=0)
        batcher = BatchingClient(client=client, batch_size=1, linger_s=0.01)
        try:
            batcher.submit(spec_of("doomed"))
            with pytest.raises(ServiceError):
                batcher.flush()
        finally:
            service.inject_failures(-10)
            batcher.close()

    def test_explicit_flush_then_results(self, service):
        client = ServiceClient(service.url, retries=2, backoff_s=0.01)
        with BatchingClient(client=client, batch_size=50) as batcher:
            specs = [spec_of(f"f{i}") for i in range(5)]
            for spec in specs:
                batcher.submit(spec)
            batcher.flush()
            job_ids = batcher.job_ids()
        assert len(job_ids) == 5
        done = client.wait(job_ids, timeout_s=30)
        assert {v["status"] for v in done.values()} == {"done"}


class TestServiceLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        svc = ReproService(
            port=0, store=None, metrics_dir=str(tmp_path / "m")
        ).start()
        svc.close()
        svc.close()
        # The session finalized exactly once and wrote its artifacts.
        assert (tmp_path / "m" / "metrics.prom").exists()
        assert (tmp_path / "m" / "BENCH_obs.json").exists()

    def test_serves_without_a_store(self, tmp_path):
        with ReproService(port=0, store=None).start() as svc:
            client = ServiceClient(svc.url, retries=1, backoff_s=0.01)
            (view,) = client.submit([spec_of("storeless")])
            client.wait([view["job_id"]], timeout_s=30)
            assert client.result(view["job_id"])["payload"] == "storeless"

    def test_server_session_never_clobbers_a_newer_one(self, tmp_path):
        from repro.observability import (
            current_session,
            end_session,
            start_session,
        )

        end_session()  # clear any leaked session so install succeeds
        assert current_session() is None
        svc = ReproService(port=0, store=None)
        assert current_session() is svc.session
        # Simulate the hazard: the service's session is replaced (e.g. a
        # test fixture grabbed the slot after the server released it).
        end_session()
        newer = start_session(command="newer")
        try:
            svc.close()  # must finalize its own session, not clear `newer`
            assert current_session() is newer
        finally:
            end_session()
