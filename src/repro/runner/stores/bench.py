"""Head-to-head result-store benchmark (the ``dynunlock store-bench`` core).

Generates one deterministic synthetic workload -- N experiment cells
with JSON payloads of roughly the requested size, shaped like real
attack results (nested dicts, float timings, compressible key streams)
-- and pushes the identical workload through every backend: bulk put,
hit-path get, miss-path get, full iterate, then a size accounting of
what landed on disk.

The emitted ``BENCH_store.json`` meta block carries per-backend timings
plus ``default_total_s`` (put+get of the default ``json`` backend),
which CI gates against ``benchmarks/baselines/store_quick.json`` with
the same ``scripts/check_bench_regression.py`` used for Table II.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from repro.runner.spec import JobSpec
from repro.runner.stores import BACKENDS, DEFAULT_BACKEND, open_store

BENCH_VERSION = "storebench" + "0" * 10  # fixed: timings, not cache reuse

HEADERS = [
    "Backend",
    "Entries",
    "Put (s)",
    "Get hit (s)",
    "Get miss (s)",
    "Iterate (s)",
    "Disk bytes",
    "B/entry",
]


def synthetic_workload(
    entries: int, payload_bytes: int, seed: int = 0
) -> list[tuple[JobSpec, dict]]:
    """Deterministic ``(spec, result)`` pairs; same seed => same bytes."""
    rng = random.Random(seed)
    workload = []
    for index in range(entries):
        # A handful of experiments so the per-experiment fan-out gets
        # exercised, not one giant directory.
        experiment = f"bench{index % 4}"
        spec = JobSpec(
            experiment=experiment,
            params={"index": index, "nonce": rng.getrandbits(32)},
            profile={"name": "storebench", "payload_bytes": payload_bytes},
        )
        filler = "".join(
            rng.choice("0123456789abcdef") * rng.randint(1, 8)
            for _ in range(max(1, payload_bytes // 8))
        )[:payload_bytes]
        result = {
            "success": True,
            "time_s": rng.random(),
            "iterations": rng.randint(1, 64),
            "keystream": filler,
        }
        workload.append((spec, result))
    return workload


def bench_backend(
    backend: str, root: Path, workload: list[tuple[JobSpec, dict]]
) -> dict:
    """Time one backend over the shared workload; returns a metrics dict."""
    store = open_store(root, backend=backend, version=BENCH_VERSION)
    try:
        started = time.perf_counter()
        for spec, result in workload:
            store.put(spec, result, duration_s=result["time_s"])
        put_s = time.perf_counter() - started

        started = time.perf_counter()
        hits = sum(1 for spec, _ in workload if store.get(spec) is not None)
        get_hit_s = time.perf_counter() - started

        misses = [
            JobSpec("benchmiss", {"index": i}, {"name": "storebench"})
            for i in range(len(workload))
        ]
        started = time.perf_counter()
        found = sum(1 for spec in misses if store.get(spec) is not None)
        get_miss_s = time.perf_counter() - started

        started = time.perf_counter()
        iterated = sum(1 for _ in store.iterate())
        iterate_s = time.perf_counter() - started

        if hits != len(workload) or found != 0 or iterated != len(workload):
            raise RuntimeError(
                f"{backend}: benchmark store misbehaved "
                f"(hits={hits}, phantom={found}, iterated={iterated}, "
                f"expected {len(workload)})"
            )
    finally:
        # Close before sizing so SQLite checkpoints its WAL -- otherwise
        # the journal, not the data, dominates the disk accounting.
        store.close()
    disk_bytes = sum(
        path.stat().st_size for path in root.rglob("*") if path.is_file()
    )
    return {
        "backend": backend,
        "entries": len(workload),
        "put_s": put_s,
        "get_hit_s": get_hit_s,
        "get_miss_s": get_miss_s,
        "iterate_s": iterate_s,
        "disk_bytes": disk_bytes,
        "bytes_per_entry": disk_bytes / len(workload) if workload else 0.0,
        "total_s": put_s + get_hit_s,
    }


def run_store_bench(
    workdir: Path,
    *,
    entries: int = 1500,
    payload_bytes: int = 1024,
    seed: int = 0,
    backends: list[str] | None = None,
) -> tuple[list[str], list[list], dict]:
    """Run the head-to-head; returns ``(headers, rows, meta)`` for emission."""
    names = list(backends) if backends else sorted(BACKENDS)
    workload = synthetic_workload(entries, payload_bytes, seed)
    metrics = {}
    for name in names:
        root = Path(workdir) / f"store-{name}"
        metrics[name] = bench_backend(name, root, workload)
    rows = [
        [
            m["backend"],
            m["entries"],
            f"{m['put_s']:.3f}",
            f"{m['get_hit_s']:.3f}",
            f"{m['get_miss_s']:.3f}",
            f"{m['iterate_s']:.3f}",
            m["disk_bytes"],
            f"{m['bytes_per_entry']:.0f}",
        ]
        for m in (metrics[name] for name in names)
    ]
    meta = {
        "entries": entries,
        "payload_bytes": payload_bytes,
        "seed": seed,
        "backends": metrics,
        "default_backend": DEFAULT_BACKEND,
        # The CI gate metric: regressions of the default backend's
        # put+get path fail the build (see Makefile `store-bench`).
        "default_total_s": metrics[DEFAULT_BACKEND]["total_s"]
        if DEFAULT_BACKEND in metrics
        else None,
    }
    return HEADERS, rows, meta
