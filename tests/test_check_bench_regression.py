"""The Table II timing gate (scripts/check_bench_regression.py).

CI regenerates Table II several times and passes every artifact; the
gate compares the median of their metric against the checked-in
baseline and checks each artifact's row shape.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.runner.artifacts import write_artifact

REPO = Path(__file__).resolve().parent.parent

HEADERS = ["Benchmark", "# Key bits", "Exec time (s)", "Success"]
ROWS = [["s5378", 15, 0.06, "100%"], ["b17", 16, 0.2, "100%"]]


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "check_bench_regression", REPO / "scripts" / "check_bench_regression.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GATE = load_gate()


def flat_baseline(tmp_path: Path, total: float, rows=ROWS) -> Path:
    """The checked-in layout: payload keys at the top level."""
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "experiment": "table2",
                "headers": HEADERS,
                "rows": rows,
                "meta": {"total_attack_time_s": total},
            }
        )
    )
    return path


def envelope(tmp_path: Path, name: str, total: float, rows=ROWS) -> Path:
    """A fresh schema-v3 artifact, as ``--emit-json`` writes it."""
    return write_artifact(
        tmp_path / name,
        "table2",
        HEADERS,
        rows,
        meta={"total_attack_time_s": total, "n_cached": 0},
    )


def run_gate(baseline: Path, *current: Path) -> int:
    return GATE.main([str(baseline), *map(str, current), "--threshold", "0.25"])


class TestMedianOfRuns:
    def test_median_within_limit_passes_despite_one_slow_run(self, tmp_path, capsys):
        baseline = flat_baseline(tmp_path, 1.0)
        runs = [envelope(tmp_path, f"r{i}", t) for i, t in enumerate((0.9, 2.0, 1.2))]
        assert run_gate(baseline, *runs) == 0
        out = capsys.readouterr().out
        assert "current=1.20s" in out and "median of 3" in out

    def test_median_over_limit_fails_despite_one_fast_run(self, tmp_path, capsys):
        baseline = flat_baseline(tmp_path, 1.0)
        runs = [envelope(tmp_path, f"r{i}", t) for i, t in enumerate((1.3, 0.5, 1.4))]
        assert run_gate(baseline, *runs) == 1
        assert "regressed: median 1.30s > 1.25s" in capsys.readouterr().err

    def test_single_artifact_still_accepted(self, tmp_path):
        baseline = flat_baseline(tmp_path, 1.0)
        assert run_gate(baseline, envelope(tmp_path, "r0", 1.1)) == 0
        assert run_gate(baseline, envelope(tmp_path, "r1", 1.3)) == 1


class TestRowShape:
    def test_changed_success_column_fails_even_when_fast(self, tmp_path, capsys):
        baseline = flat_baseline(tmp_path, 1.0)
        failed = [ROWS[0], ["b17", 16, 0.2, "0%"]]
        runs = [
            envelope(tmp_path, "r0", 0.5),
            envelope(tmp_path, "r1", 0.5, rows=failed),
            envelope(tmp_path, "r2", 0.5),
        ]
        assert run_gate(baseline, *runs) == 1
        err = capsys.readouterr().err
        assert "r1" in err and "row set or success column changed" in err

    def test_dropped_row_fails(self, tmp_path):
        baseline = flat_baseline(tmp_path, 1.0)
        assert run_gate(baseline, envelope(tmp_path, "r0", 0.5, rows=ROWS[:1])) == 1


class TestEnvelopes:
    def test_v3_envelope_against_flat_baseline(self, tmp_path):
        baseline = flat_baseline(tmp_path, 1.0)
        current = envelope(tmp_path, "r0", 1.0)
        assert "payload" in json.loads(current.read_text())
        assert GATE.load_meta(current)["rows"] == GATE.load_meta(baseline)["rows"]
        assert run_gate(baseline, current) == 0

    def test_artifact_without_meta_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"rows": []}))
        with pytest.raises(SystemExit, match="no 'meta' block"):
            run_gate(flat_baseline(tmp_path, 1.0), path)

    def test_checked_in_baseline_passes_against_itself(self):
        baseline = REPO / "benchmarks" / "baselines" / "table2_quick.json"
        assert run_gate(baseline, baseline, baseline, baseline) == 0
