#!/usr/bin/env python
"""Gate CI on benchmark timing: fail when runs regress past a baseline.

Usage::

    python scripts/check_bench_regression.py \
        benchmarks/baselines/table2_quick.json \
        run1/BENCH_table2.json [run2/BENCH_table2.json ...] \
        [--threshold 0.25] [--metric total_attack_time_s]

Compares the chosen metric of one or more freshly emitted runner
artifacts (the ``meta`` block of a ``BENCH_*.json`` written by
``dynunlock ... --emit-json``) against a checked-in baseline JSON of the
same shape.  Given several artifacts of repeated runs, the gate takes
the median of their metric, so one run slowed by a noisy neighbour does
not fail it.  Exit code 1 when

    median(current) > baseline * (1 + threshold)

The baseline also pins the row-shape invariants (benchmark names and
the Success column), checked for every artifact, so a regression in
*what* was computed -- not just how fast -- fails too.  Refresh the
baseline with ``make refresh-baseline`` (see docs/reproducing.md).

Stdlib only: CI calls this before the package's dependencies matter.
"""

from __future__ import annotations

import argparse
import json
import statistics
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
    parser.add_argument(
        "current",
        type=Path,
        nargs="+",
        help="artifact(s) of the run(s) to check; the gate uses their median",
    )
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
    base_value = baseline["meta"].get(args.metric)
    if base_value is None:
        raise SystemExit(f"metric {args.metric!r} missing from {args.baseline}")

    failures = []
    values = []
    for path in args.current:
        current = load_meta(path)
        value = current["meta"].get(args.metric)
        if value is None:
            raise SystemExit(f"metric {args.metric!r} missing from {path}")
        values.append(value)
        if row_shape(baseline) != row_shape(current):
            failures.append(
                f"{path}: row set or success column changed: baseline "
                f"{row_shape(baseline)} vs current {row_shape(current)}"
            )
        n_cached = current["meta"].get("n_cached", 0)
        if n_cached:
            # Cached cells replay the per-cell attack times *measured when
            # they were computed*, and the result store namespaces entries
            # by the src/repro fingerprint -- so the timing metric still
            # reflects the current code and stays comparable.  Note it for
            # the log rather than failing.
            print(
                f"note: {path}: {n_cached}/"
                f"{current['meta'].get('n_jobs_total', '?')} cell(s) replayed "
                "from the result store (times as measured when first computed)"
            )

    cur_value = statistics.median(values)
    limit = base_value * (1.0 + args.threshold)
    ratio = cur_value / base_value if base_value else float("inf")
    runs = ", ".join(f"{v:.2f}s" for v in values)
    print(
        f"{args.metric}: baseline={base_value:.2f}s current={cur_value:.2f}s "
        f"(median of {len(values)}: {runs}; {ratio:.2f}x, "
        f"limit {limit:.2f}s at +{args.threshold:.0%})"
    )
    if cur_value > limit:
        failures.append(
            f"{args.metric} regressed: median {cur_value:.2f}s > {limit:.2f}s "
            f"(baseline {base_value:.2f}s + {args.threshold:.0%})"
        )

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("OK: within budget")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
