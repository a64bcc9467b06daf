#!/usr/bin/env python
"""End-to-end smoke test for the attack-as-a-service stack (CI gate).

Usage::

    PYTHONPATH=src python scripts/service_smoke.py \
        [--workdir .service_smoke] [--experiment table2] \
        [--benchmarks s5378] [--profile quick] [--jobs 1]

Starts a :class:`repro.service.ReproService` in-process on a free port
with a fresh result store, then exercises the full client stack the way
a real deployment would:

1. enumerate a small experiment grid via ``repro.api.grid_specs``;
2. push every spec through a :class:`BatchingClient` (background
   thread, batched POSTs) and wait for completion over HTTP;
3. push the *same* specs again and require the server to dedupe every
   one of them against the live/finished records -- the second pass
   must not compute anything;
4. replay the specs through the in-process ``repro.api.submit_jobs``
   path against the *same* store and require byte-identical results
   (every outcome a cache hit serving the bytes the service stored);
5. cross-check the dedupe accounting in the server's Prometheus
   metrics (``repro_service_jobs_total`` / ``repro_jobs_total``).

The server's ``metrics.prom``/``spans.jsonl`` land in ``--workdir`` so
CI can upload them as artifacts.  Exit code 1 on any violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro import api
from repro.runner.stores import JsonFileStore
from repro.service import BatchingClient, ReproService, ServiceClient

FAILURES: list[str] = []


def check(condition: bool, message: str) -> None:
    """Record (and print) one assertion; the exit code folds them up."""
    status = "ok" if condition else "FAIL"
    print(f"[{status}] {message}")
    if not condition:
        FAILURES.append(message)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workdir",
        type=Path,
        default=Path(".service_smoke"),
        help="store + metrics live here (default .service_smoke)",
    )
    parser.add_argument("--experiment", default="table2")
    parser.add_argument(
        "--benchmarks",
        nargs="+",
        default=["s5378"],
        help="benchmark subset for the grid (default s5378)",
    )
    parser.add_argument("--profile", default="quick")
    parser.add_argument(
        "--jobs", type=int, default=1, help="scheduler processes on the server"
    )
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--wait-timeout", type=float, default=600.0)
    args = parser.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    specs = api.grid_specs(
        args.experiment, args.profile, benchmarks=args.benchmarks
    )
    print(
        f"grid {args.experiment} (profile={args.profile}, "
        f"benchmarks={','.join(args.benchmarks)}): {len(specs)} spec(s)"
    )

    store = JsonFileStore(args.workdir / "cache")
    service = ReproService(
        port=0,
        jobs=args.jobs,
        store=store,
        metrics_dir=str(args.workdir),
    ).start()
    print(f"service listening on {service.url}")
    try:
        sync = ServiceClient(service.url, timeout_s=60.0)

        # Pass 1: batching client, fresh store -- everything computes.
        with BatchingClient(
            client=sync, batch_size=args.batch_size, linger_s=0.05
        ) as batching:
            for spec in specs:
                batching.submit(spec)
            batching.flush(timeout_s=args.wait_timeout)
            job_ids = batching.job_ids()
        check(
            len(job_ids) == len(specs),
            f"first pass created {len(job_ids)} distinct job(s) "
            f"for {len(specs)} spec(s)",
        )
        views = sync.wait(job_ids, timeout_s=args.wait_timeout, poll_s=0.1)
        check(
            all(v["status"] == "done" for v in views.values()),
            "every first-pass job finished 'done'",
        )

        # Pass 2: identical resubmission -- the server must dedupe all.
        second = sync.submit(specs)
        check(
            all(view["deduped"] for view in second),
            "second submission of identical specs deduped every job",
        )
        check(
            len(service.store) == len(specs),
            f"store holds exactly {len(specs)} entr(ies) after both passes "
            f"(found {len(service.store)})",
        )

        # Byte-identical: the in-process facade against the same store
        # must replay every cell from cache, serving the stored bytes.
        results = {job_id: sync.result(job_id) for job_id in job_ids}
        report = api.submit_jobs(specs, store=service.store)
        check(
            all(outcome.cached for outcome in report.outcomes),
            "in-process replay was served entirely from the service's store",
        )
        mismatches = [
            spec.spec_hash[:16]
            for spec, outcome in zip(specs, report.outcomes)
            if json.dumps(results[spec.spec_hash[:16]], sort_keys=True)
            != json.dumps(outcome.result, sort_keys=True)
        ]
        check(
            not mismatches,
            "service results byte-identical to the in-process api path"
            + (f" (mismatched: {', '.join(mismatches)})" if mismatches else ""),
        )

        # The server's own accounting must agree with what we observed.
        metrics = service.session.metrics
        jobs_total = metrics.counter("repro_service_jobs_total")
        check(
            jobs_total.value(disposition="new") == len(specs),
            f"repro_service_jobs_total{{disposition=new}} == {len(specs)}",
        )
        check(
            jobs_total.value(disposition="deduped") == len(specs),
            f"repro_service_jobs_total{{disposition=deduped}} == {len(specs)}",
        )
        check(
            metrics.counter("repro_jobs_total").value(
                experiment=args.experiment, status="computed"
            )
            == len(specs),
            f"repro_jobs_total{{status=computed}} == {len(specs)} "
            "(the second pass computed nothing)",
        )
        prom = sync.metrics_text()
        check(
            "repro_service_requests_total" in prom,
            "/metrics exposes the request counter",
        )
        check(len(sync.spans()) > 0, "/v1/spans streams the session's spans")
    finally:
        service.close()

    check(
        (args.workdir / "metrics.prom").is_file(),
        f"server left metrics.prom under {args.workdir} for CI upload",
    )
    if FAILURES:
        print(f"\nservice smoke: {len(FAILURES)} failure(s)", file=sys.stderr)
        for failure in FAILURES:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nservice smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
