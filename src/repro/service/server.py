"""The attack-as-a-service HTTP server (stdlib only, no frameworks).

:class:`ReproService` owns everything one long-lived server process
needs: an :class:`~repro.observability.session.ObsSession` spanning
the server's lifetime, a shared result store, the
:class:`~repro.service.jobs.JobRegistry`, and a
:class:`~http.server.ThreadingHTTPServer` speaking the
:mod:`repro.service.schema` wire protocol:

========  ======================  =========================================
method    path                    meaning
========  ======================  =========================================
POST      ``/v1/jobs``            submit a batch of specs (dedupes; 202)
GET       ``/v1/jobs``            list every job record
GET       ``/v1/jobs/<id>``       one job's status view
GET       ``/v1/jobs/<id>/result``  the result payload (409 until done)
GET       ``/v1/spans``           the session's span records as NDJSON
GET       ``/metrics``            Prometheus text exposition
GET       ``/healthz``            liveness + per-status job counts
========  ======================  =========================================

Handler threads only ever touch the registry through its lock and the
session through its thread-safe sinks; all solving happens on the
registry's single worker thread (scheduler processes underneath), so a
slow solve never blocks a status poll.

The session is published process-wide via
:func:`~repro.observability.session.install_session` when the slot is
free, so store hit/miss counters flow into the server's metrics; at
:meth:`ReproService.close` the session is ended with the targeted form
of :func:`~repro.observability.session.end_session`, which can never
clobber a newer session installed after ours.

``inject_failures`` is the chaos hook: it makes the next N requests
answer 503 so client retry paths can be exercised against a real
server instead of a mock transport.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from repro.observability import ObsSession, end_session, install_session
from repro.runner.stores import JsonFileStore
from repro.service.jobs import JobRegistry
from repro.service.schema import WireError, envelope, decode_body, parse_submission


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    #: socketserver's default listen backlog is 5; a submission
    #: stampede (the dedupe acceptance test sends 100 concurrent
    #: POSTs) gets connection resets instead of queueing.
    request_queue_size = 128
    #: Set by :class:`ReproService` right after construction.
    service: "ReproService"


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes one request; all state lives on ``self.server.service``."""

    server_version = "dynunlock-service"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> "ReproService":
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        # Default stderr chatter off; structured access log when the
        # session has a JSON logger.
        self.service.session.log(
            "http_access", client=self.address_string(), line=format % args
        )

    def _respond(
        self, status: int, body: bytes, content_type: str, route: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        self.service.count_request(self.command, route, status)

    def _send_json(self, status: int, obj: dict, *, route: str) -> None:
        body = (json.dumps(obj, sort_keys=True) + "\n").encode("utf-8")
        self._respond(status, body, "application/json", route)

    def _send_error_envelope(
        self, status: int, message: str, *, route: str
    ) -> None:
        self._send_json(
            status, envelope("error", status=status, error=message), route=route
        )

    def _dispatch(self, router) -> None:
        injected = self.service.take_injected_failure()
        if injected is not None:
            self._send_error_envelope(
                injected, "injected failure (chaos hook)", route="injected"
            )
            return
        path = urlsplit(self.path).path.rstrip("/") or "/"
        try:
            router(path)
        except WireError as exc:
            self._send_error_envelope(exc.status, str(exc), route=path)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to answer
        except Exception as exc:
            self.service.session.log(
                "http_internal_error", level="error", path=path, error=repr(exc)
            )
            self._send_error_envelope(
                500, f"internal error: {type(exc).__name__}", route=path
            )

    # -- routes --------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch(self._route_get)

    def do_POST(self) -> None:  # noqa: N802 (http.server naming)
        self._dispatch(self._route_post)

    def _route_get(self, path: str) -> None:
        service = self.service
        if path == "/healthz":
            counts = service.registry.counts()
            self._send_json(
                200,
                envelope(
                    "health",
                    status="ok",
                    run_id=service.session.run_id,
                    uptime_s=round(time.time() - service.started_unix, 3),
                    jobs=counts,
                ),
                route="/healthz",
            )
            return
        if path == "/metrics":
            self._respond(
                200,
                service.session.metrics.render_prom().encode("utf-8"),
                "text/plain; version=0.0.4",
                "/metrics",
            )
            return
        if path == "/v1/spans":
            lines = [
                json.dumps(span, sort_keys=True)
                for span in list(service.session.spans)
            ]
            body = ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")
            self._respond(200, body, "application/x-ndjson", "/v1/spans")
            return
        if path == "/v1/jobs":
            records = service.registry.list()
            self._send_json(
                200,
                envelope("jobs", jobs=[r.describe() for r in records]),
                route="/v1/jobs",
            )
            return
        parts = path.split("/")
        if len(parts) in (4, 5) and parts[1] == "v1" and parts[2] == "jobs":
            record = service.registry.get(parts[3])
            if record is None:
                raise WireError(f"unknown job {parts[3]!r}", status=404)
            if len(parts) == 4:
                self._send_json(
                    200,
                    envelope("job", job=record.describe()),
                    route="/v1/jobs/{id}",
                )
                return
            if parts[4] == "result":
                if record.status != "done":
                    raise WireError(
                        f"job {record.job_id} is {record.status}, not done",
                        status=409,
                    )
                self._send_json(
                    200,
                    envelope(
                        "result", job=record.describe(), result=record.result
                    ),
                    route="/v1/jobs/{id}/result",
                )
                return
        raise WireError(f"no such endpoint: GET {path}", status=404)

    def _route_post(self, path: str) -> None:
        if path != "/v1/jobs":
            raise WireError(f"no such endpoint: POST {path}", status=404)
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise WireError("bad Content-Length") from None
        data = decode_body(
            self.rfile.read(length), self.headers.get("Content-Encoding")
        )
        specs = parse_submission(data)
        views = self.service.registry.submit(specs)
        self._send_json(
            202,
            envelope(
                "submitted",
                run_id=self.service.session.run_id,
                jobs=[
                    {**record.describe(), "deduped": deduped}
                    for record, deduped in views
                ],
            ),
            route="/v1/jobs",
        )


class ReproService:
    """One server process: session + store + registry + HTTP listener.

    Constructing binds the socket (``port=0`` picks a free one) but
    does not serve; call :meth:`serve_forever` (blocking, the CLI) or
    :meth:`start` (background thread, tests/embedding).  ``close`` is
    idempotent and tears everything down in dependency order.  The
    service takes ownership of ``store`` and closes it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        jobs: int = 1,
        store: JsonFileStore | None = None,
        metrics_dir: str | None = None,
        log_json: str | None = None,
        argv: list[str] | None = None,
    ) -> None:
        self.session = ObsSession(
            metrics_dir=metrics_dir,
            log_json=log_json,
            command="serve",
            argv=list(argv) if argv is not None else ["dynunlock", "serve"],
        )
        install_session(self.session)
        self.store = store
        self.registry = JobRegistry(store=store, session=self.session, jobs=jobs)
        self.started_unix = time.time()
        self._httpd = _ServiceHTTPServer((host, port), ServiceHandler)
        self._httpd.service = self
        self._thread: threading.Thread | None = None
        self._serving_evt = threading.Event()
        self._closed = False
        self._fault_lock = threading.Lock()
        self._inject_left = 0
        self._inject_status = 503

    # -- addressing ----------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- serving -------------------------------------------------------------

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (or C-c)."""
        self._serving_evt.set()
        self.session.log("service_started", url=self.url)
        self._httpd.serve_forever(poll_interval=0.1)

    def start(self) -> "ReproService":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-service", daemon=True
        )
        self._thread.start()
        # Don't return (and especially don't let close() run) before the
        # serve loop exists; shutdown on a never-served socket hangs.
        self._serving_evt.wait(5.0)
        return self

    def close(self) -> None:
        """Stop serving, drain jobs, end the session."""
        if self._closed:
            return
        self._closed = True
        if self._serving_evt.is_set():
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.registry.close()
        end_session(self.session)

    def __enter__(self) -> "ReproService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request accounting + chaos ------------------------------------------

    def count_request(self, method: str, route: str, status: int) -> None:
        self.session.metrics.counter(
            "repro_service_requests_total",
            "HTTP requests by method, route, and status code",
        ).inc(method=method, route=route, code=status)

    def inject_failures(self, n: int, *, status: int = 503) -> None:
        """Make the next ``n`` requests fail with ``status`` (chaos hook)."""
        with self._fault_lock:
            self._inject_left += n
            self._inject_status = status

    def take_injected_failure(self) -> int | None:
        with self._fault_lock:
            if self._inject_left > 0:
                self._inject_left -= 1
                return self._inject_status
        return None
