"""Self-tests of the benchmark's own machinery.

Run from the repository root::

    python3 perfbench/selftest.py

* determinism: one small Table II cell run untraced and then traced
  gives identical outcomes, solver counters and oracle queries, and the
  tracer's solver counters and oracle-query count equal the attack's
  own, so the wrappers neither change nor miss search work;
* layer diff: a delay planted from outside on ``ScanOracle.query``
  makes the layer-diff report name ``oracle``;
* recorded outcomes: the Table II cells in ``expected.json`` agree with
  the repository's Table II baseline rows, when that file is present.

Prints one line per check and exits 1 if any check failed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from diff import report  # noqa: E402
from layers import Tracer  # noqa: E402
from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402

SMALL_CELL = "s5378@0"
PLANTED_DELAY_S = 0.02
BASELINE = HERE.parent / "benchmarks" / "baselines" / "table2_quick.json"


def small_cell():
    (cell,) = [c for c in WORKLOADS["table2-quick"](0) if c.id == SMALL_CELL]
    return cell


def traced_run(cell) -> tuple[dict, dict]:
    with Tracer() as tracer:
        outcome = tracer.span("unattributed", cell.run)
    return outcome, tracer.layer_metrics()


def check_determinism() -> list[str]:
    cell = small_cell()
    untraced = cell.run()
    traced, metrics = traced_run(cell)
    problems = []
    if traced != untraced:
        problems.append(f"traced outcome {traced} != untraced {untraced}")
    work = untraced["work"]
    if len(work["rounds"]) != 1:
        problems.append("the small cell needs one round for the counter check")
        return problems
    solver_totals = {
        "conflicts": work["rounds"][0][0],
        "decisions": work["decisions"],
        "propagations": work["propagations"],
    }
    for name, total in solver_totals.items():
        if metrics[f"solve.{name}"] != total:
            problems.append(
                f"tracer solve.{name}={metrics[f'solve.{name}']}, solver {total}"
            )
    if metrics["oracle.queries"] != untraced["oracle_queries"]:
        problems.append(
            f"tracer oracle.queries={metrics['oracle.queries']}, "
            f"attack counted {untraced['oracle_queries']}"
        )
    return problems


def check_planted_delay() -> list[str]:
    from repro.scan.oracle import ScanOracle

    cell = small_cell()
    _, base = traced_run(cell)
    original = ScanOracle.query

    def slow_query(*args, **kwargs):
        time.sleep(PLANTED_DELAY_S)
        return original(*args, **kwargs)

    ScanOracle.query = slow_query
    try:
        _, head = traced_run(cell)
    finally:
        ScanOracle.query = original
    movers = report({"planted": [base]}, {"planted": [head]})
    if movers["planted"] != "oracle":
        return [f"planted oracle delay reported as {movers['planted']!r}"]
    return []


def check_recorded_table2() -> list[str]:
    if not BASELINE.exists():
        print(f"  ({BASELINE.name} not present; skipped)")
        return []
    recorded = json.loads(EXPECTED_PATH.read_text())["table2-quick"]["cells"]
    problems = []
    for row in json.loads(BASELINE.read_text())["rows"]:
        name, _, key_bits, candidates, _, _, success, exact = row
        want = {
            "key_bits": key_bits,
            "n_seed_candidates": candidates,
            "exact_seed": exact == "100%",
        }
        if success != "100%":
            problems.append(f"baseline row {name} is not a success")
        if recorded.get(f"{name}@0") != want:
            problems.append(f"{name}: expected.json {recorded.get(f'{name}@0')}, baseline {want}")
    return problems


def main() -> int:
    failed = False
    for check in (check_determinism, check_planted_delay, check_recorded_table2):
        problems = check()
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'ok'}   {check.__name__}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
