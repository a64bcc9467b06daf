"""Layer-diff report: which layer's self time moved between two result sets.

A result set is a directory of saved standard outputs of traced runs,
one file per run, each named after its workload: ``<workload>.<tag>``,
for example::

    python3 perfbench/run.py --workload fuzz-mix --seed 3 --seconds 20 --trace 1 \\
        > base/fuzz-mix.3.out

Run it on the parent and on the change, then::

    python3 perfbench/diff.py base head

For every workload in both sets it prints each layer's median self time
on both sides and the difference, and names the layer that moved most.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layers import LAYERS  # noqa: E402


def self_time_metric(layer: str) -> str:
    """The per-layer metric holding ``layer``'s self time."""
    return "unattributed_s" if layer == "unattributed" else f"{layer}.s"


def load(directory: str | Path) -> dict[str, list[dict[str, float]]]:
    """Per-layer metric values of every traced run, by workload."""
    runs: dict[str, list[dict[str, float]]] = {}
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        if self_time_metric("solve") not in values:
            continue  # an untraced run: no layer metrics
        runs.setdefault(path.name.split(".")[0], []).append(values)
    return runs


def layer_deltas(
    base: list[dict[str, float]], head: list[dict[str, float]]
) -> list[tuple[str, float, float]]:
    """``(layer, base median self s, head median self s)`` per layer."""
    rows = []
    for layer in LAYERS:
        metric = self_time_metric(layer)
        rows.append(
            (
                layer,
                statistics.median(run[metric] for run in base),
                statistics.median(run[metric] for run in head),
            )
        )
    return rows


def moved_most(rows: list[tuple[str, float, float]]) -> str:
    """The layer whose self time changed by the most seconds."""
    return max(rows, key=lambda row: abs(row[2] - row[1]))[0]


def report(
    base: dict[str, list[dict[str, float]]],
    head: dict[str, list[dict[str, float]]],
) -> dict[str, str]:
    """Print the per-workload layer table; returns the top mover per workload."""
    movers = {}
    for workload in sorted(set(base) & set(head)):
        rows = layer_deltas(base[workload], head[workload])
        print(f"{workload} ({len(base[workload])} base, {len(head[workload])} head run(s))")
        print(f"  {'layer':<13}{'base s':>10}{'head s':>10}{'delta s':>10}{'delta':>9}")
        for layer, was, now in rows:
            relative = f"{(now - was) / was:+.1%}" if was else "n/a"
            print(f"  {layer:<13}{was:>10.3f}{now:>10.3f}{now - was:>+10.3f}{relative:>9}")
        movers[workload] = moved_most(rows)
        print(f"  moved most: {movers[workload]}")
    return movers


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[0]), load(argv[1])
    if not set(base) & set(head):
        print("no workload has traced runs in both result sets", file=sys.stderr)
        return 1
    report(base, head)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
