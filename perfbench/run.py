"""The repository benchmark: one workload, timed end to end or by layer.

Run from the repository root::

    python3 perfbench/run.py --workload table2-quick --seed 0 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``.  Set-up (imports plus
building the netlists, locks and trial specs) is timed in fresh
processes, several times, and reported as the median ``setup_s``.  The
workload then runs in passes of every cell, serially in this process;
another pass starts only while it is expected to end within
``--seconds``, and each cell's time is its median over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then one pass with every layer wrapped from outside
(``layers.py``), and prints the per-layer metrics: self time per layer,
solver counter deltas, the time no layer covers, and the tracing
overhead.  The traced pass must reproduce the untraced outcomes exactly,
solver counters included.

Every cell's outcome is checked (``workloads.check``) and the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status is 0 when the run completed,
whether or not outcomes were correct, and 2 when the program to
benchmark cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

#: Fresh processes timed per run for ``setup_s``.
SETUP_PROBES = 7


@dataclass
class Pass:
    """One run of every cell: times, outcomes and the cells that failed."""

    times: dict[str, float] = field(default_factory=dict)
    outcomes: dict[str, dict] = field(default_factory=dict)
    failed: dict[str, list[str]] = field(default_factory=dict)

    @property
    def attack_s(self) -> float:
        return sum(self.times.values())

    @property
    def oracle_queries(self) -> int:
        return sum(o.get("oracle_queries", 0) for o in self.outcomes.values())


def run_pass(cells, check, call=lambda fn: fn()) -> Pass:
    """Run every cell once; ``call`` runs a cell (the tracer opens a span)."""
    result = Pass()
    for cell in cells:
        started = time.perf_counter()
        try:
            outcome = call(cell.run)
        except Exception:  # a crashed cell is a failure, not an abort
            result.times[cell.id] = time.perf_counter() - started
            result.failed[cell.id] = ["crashed: " + traceback.format_exc(limit=3)]
            continue
        result.times[cell.id] = time.perf_counter() - started
        result.outcomes[cell.id] = outcome
        problems = check(cell, outcome)
        if problems:
            result.failed[cell.id] = problems
    return result


def run_passes(cells, check, seconds: float) -> list[Pass]:
    """Passes until the next one would end after ``seconds`` (at least one)."""
    started = time.perf_counter()
    passes = [run_pass(cells, check)]
    while time.perf_counter() - started + passes[-1].attack_s <= seconds:
        passes.append(run_pass(cells, check))
    return passes


def mark_nondeterminism(reference: Pass, other: Pass) -> None:
    """Fail every cell of ``other`` whose outcome differs from ``reference``."""
    for cell_id, outcome in other.outcomes.items():
        if reference.outcomes.get(cell_id, outcome) != outcome:
            other.failed.setdefault(cell_id, []).append(
                "outcome differs from the first, untraced pass"
            )


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh process until its inputs are built."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        stdout=subprocess.PIPE,
        text=True,
    ) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
    return elapsed


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    """End-to-end metrics; a cell's time is its median over the passes.

    Interference from other work on the machine only ever slows a
    cell, in bursts of a second or so, so the per-cell median discards
    a burst that hit a cell in one pass where a median of pass totals
    would keep it.  The typical cell time is the geometric mean over
    cells, as in SPEC: a median or maximum of ten Table II cells is the
    time of one or two single cells and inherits their burst noise (on a
    shared 2-vCPU VM, 30% and 17% spread between runs, against 9% for
    the total).
    """
    cell_s = [
        statistics.median(p.times[cell_id] for p in passes)
        for cell_id in passes[0].times
    ]
    return {
        "attack_s": sum(cell_s),
        "cell_s_gmean": statistics.geometric_mean(cell_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Identical in every pass; a pass that differs has failed cells.
        "oracle_queries": passes[0].oracle_queries,
    }


def traced(build, seed: int, check, untraced: Pass):
    """Set up and run one pass under the tracer; returns (pass, metrics)."""
    from layers import LAYERS, Tracer

    with Tracer() as tracer:
        cells = build(seed)
        result = run_pass(
            cells, check, call=lambda fn: tracer.span("unattributed", fn)
        )
    mark_nondeterminism(untraced, result)
    metrics = tracer.layer_metrics()
    metrics["unattributed_frac"] = metrics["unattributed_s"] / result.attack_s
    metrics["trace.overhead_frac"] = result.attack_s / untraced.attack_s - 1.0
    print(f"traced pass: attack_s {result.attack_s:.3f} "
          f"(untraced {untraced.attack_s:.3f})")
    print(f"{'layer':<13}{'self s':>10}{'share':>8}{'calls':>9}")
    for layer in LAYERS:
        print(f"{layer:<13}{tracer.self_s[layer]:>10.3f}"
              f"{tracer.self_s[layer] / result.attack_s:>8.1%}"
              f"{tracer.calls[layer]:>9}")
    return result, metrics


def report(passes: list[Pass], workload_name: str) -> None:
    from workloads import digest, recorded_digest

    first = passes[0]
    for cell_id, problems in sorted(
        {k: v for p in passes for k, v in p.failed.items()}.items()
    ):
        print(f"FAIL {cell_id}: {'; '.join(problems)}")
    got = digest(first.outcomes)
    want = recorded_digest(workload_name)
    verdict = "none recorded" if want is None else (
        "matches recorded" if got == want else f"differs from recorded {want}"
    )
    print(f"outcome digest {got}: {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="build the inputs, print 'ready' and exit")
    args = parser.parse_args(argv)

    try:
        from workloads import WORKLOADS, check
    except ImportError as exc:
        print(f"cannot import the program to benchmark: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload; choose from {', '.join(WORKLOADS)}")
    build = WORKLOADS[args.workload]

    if args.setup_probe:
        build(args.seed)
        print("ready", flush=True)
        return 0

    print(f"workload {args.workload} seed {args.seed}; nproc {os.cpu_count()}, "
          f"Python {platform.python_version()}, {platform.machine()}")
    setup_s = 0.0
    if not args.trace:
        setup_s = statistics.median(
            probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)
        )
    cells = build(args.seed)
    passes = run_passes(cells, check, 0.0 if args.trace else args.seconds)
    for later in passes[1:]:
        mark_nondeterminism(passes[0], later)
    print(f"{len(passes)} pass(es) of {len(cells)} cell(s), attack_s "
          + ", ".join(f"{p.attack_s:.3f}" for p in passes))

    if args.trace:
        traced_pass, metrics = traced(build, args.seed, check, passes[0])
        passes.append(traced_pass)
    else:
        metrics = end_to_end(passes, setup_s)
    report(passes, args.workload)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    if args.trace:
        metrics["fail_rate"] = failed / attempted
    for name, value in metrics.items():
        print(f"{name} = {value}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        },
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name.endswith("props_per_s"):
        return "1/s"
    if name.endswith("_s") or name.endswith(".s") or "_s_" in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name == "fail_rate":
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
