#!/usr/bin/env python
"""Gate CI on benchmark timing: fail when a run regresses past a baseline.

Usage::

    python scripts/check_bench_regression.py \
        benchmarks/baselines/table2_quick.json results/BENCH_table2.json \
        [--threshold 0.25] [--metric total_attack_time_s]

Compares the chosen metric of a freshly emitted runner artifact (the
``meta`` block of a ``BENCH_*.json`` written by ``dynunlock ... --emit-json``)
against a checked-in baseline JSON of the same shape.  Exit code 1 when

    current > baseline * (1 + threshold)

The baseline also pins the row-shape invariants (benchmark names and
the Success column) so a regression in *what* was computed -- not just
how fast -- fails too.  Refresh the baseline with ``make
refresh-baseline`` (see docs/reproducing.md).

Stdlib only: CI calls this before the package's dependencies matter.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_meta(path: Path) -> dict:
    """Read an artifact/baseline JSON, flattening the v3 envelope.

    Schema v3 artifacts nest headers/rows/meta under ``payload``;
    earlier versions (including checked-in baselines) keep them at the
    top level.  Both normalise to the flat view here, so a baseline and
    a fresh artifact from different schema generations stay comparable.
    """
    data = json.loads(path.read_text())
    payload = data.get("payload")
    if isinstance(payload, dict):
        flat = {k: v for k, v in data.items() if k != "payload"}
        flat.update(payload)
        data = flat
    if "meta" not in data:
        raise SystemExit(f"{path}: no 'meta' block -- not a runner artifact")
    return data


def row_shape(data: dict) -> list:
    """Per-row (name, success) pairs: what must not change between runs.

    The first cell of every row is the benchmark name; the success
    column, when present, is located through the headers.  A run that
    got faster by *failing* must not pass the timing gate.
    """
    headers = data.get("headers", [])
    success_index = headers.index("Success") if "Success" in headers else None
    return [
        (row[0], None if success_index is None else row[success_index])
        for row in data.get("rows", [])
    ]


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--metric",
        default="total_attack_time_s",
        help="meta key to compare (default total_attack_time_s)",
    )
    args = parser.parse_args(argv)

    baseline = load_meta(args.baseline)
    current = load_meta(args.current)

    base_value = baseline["meta"].get(args.metric)
    cur_value = current["meta"].get(args.metric)
    if base_value is None or cur_value is None:
        raise SystemExit(f"metric {args.metric!r} missing from meta block(s)")

    failures = []
    if row_shape(baseline) != row_shape(current):
        failures.append(
            f"row set or success column changed: baseline "
            f"{row_shape(baseline)} vs current {row_shape(current)}"
        )
    n_cached = current["meta"].get("n_cached", 0)
    if n_cached:
        # Cached cells replay the per-cell attack times *measured when
        # they were computed*, and the result store namespaces entries
        # by the src/repro fingerprint -- so the timing metric still
        # reflects the current code and stays comparable.  Note it for
        # the log rather than failing (CI keys its actions/cache on the
        # same fingerprint, so doc-only pushes are fully cached).
        print(
            f"note: {n_cached}/{current['meta'].get('n_jobs_total', '?')} "
            "cell(s) replayed from the result store (times as measured "
            "when first computed)"
        )

    limit = base_value * (1.0 + args.threshold)
    ratio = cur_value / base_value if base_value else float("inf")
    print(
        f"{args.metric}: baseline={base_value:.2f}s current={cur_value:.2f}s "
        f"({ratio:.2f}x, limit {limit:.2f}s at +{args.threshold:.0%})"
    )
    if cur_value > limit:
        failures.append(
            f"{args.metric} regressed: {cur_value:.2f}s > {limit:.2f}s "
            f"(baseline {base_value:.2f}s + {args.threshold:.0%})"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: within budget")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
