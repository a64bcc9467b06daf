"""Tests for the typed programmatic facade (repro.api).

The CLI tests pin that the command surface still behaves; these pin
the facade's own contract -- the one the CLI, the benchmarks and
external callers program against: ValueError (not KeyError) on bad
names, structured results, and parity between facade calls and the raw
building blocks.
"""

import pytest

from repro import api
from repro.reports.profiles import PROFILES, ExperimentProfile
from repro.runner.spec import JobSpec

TINY = ExperimentProfile(
    name="tiny",
    scale=64,
    key_bits=6,
    n_seeds=1,
    timeout_s=120.0,
    table3_key_sizes=(6,),
)


class TestResolveProfile:
    def test_none_uses_active(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert api.resolve_profile(None).name == "quick"
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert api.resolve_profile(None).name == "full"

    def test_name_and_instance_pass_through(self):
        assert api.resolve_profile("paper") is PROFILES["paper"]
        assert api.resolve_profile(TINY) is TINY

    def test_unknown_name_is_value_error(self):
        with pytest.raises(ValueError, match="unknown profile"):
            api.resolve_profile("huge")


class TestGridEnumeration:
    def test_grid_specs_match_profile(self):
        specs = api.grid_specs("table2", "quick", benchmarks=["s5378"])
        assert specs
        assert all(isinstance(s, JobSpec) for s in specs)
        assert all(s.experiment == "table2" for s in specs)
        assert all(s.profile["name"] == "quick" for s in specs)
        assert {s.params["benchmark"] for s in specs} == {"s5378"}

    def test_unknown_grid_is_value_error(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            api.grid_specs("table9")


class TestSubmitJobs:
    def spec_of(self, payload):
        return JobSpec.make("selfcheck", TINY, payload=payload)

    def test_runs_specs_and_reports(self):
        report = api.submit_jobs([self.spec_of("a"), self.spec_of("b")])
        assert len(report.outcomes) == 2
        assert [o.result["payload"] for o in report.outcomes] == ["a", "b"]

    def test_progress_receives_strings(self):
        lines = []
        api.submit_jobs([self.spec_of("p")], progress=lines.append)
        assert lines and all(isinstance(line, str) for line in lines)

    def test_failures_land_in_report_not_raise(self, tmp_path):
        # A one-shot failing cell: the report carries the error.
        spec = JobSpec.make(
            "selfcheck", TINY, fail_marker=str(tmp_path / "m")
        )
        report = api.submit_jobs([spec])
        assert report.n_failed == 1
        assert "injected" in report.outcomes[0].error


class TestRunGrid:
    def test_run_grid_returns_structured_result(self):
        grid = api.run_grid("table2", profile="quick", benchmarks=["s5378"])
        assert grid.name == "table2"
        assert grid.headers[0] == "Benchmark"
        assert len(grid.rows) == 1
        cells = grid.as_cells()
        assert cells[0][0] == "s5378"
        assert grid.report.n_failed == 0

    @pytest.mark.parametrize("name", ["table1", "scaling"])
    def test_grid_rows_render_to_their_headers(self, name):
        grid = api.run_grid(name, profile=TINY)
        assert grid.report.n_failed == 0
        assert grid.rows
        for cells in grid.as_cells():
            assert len(cells) == len(grid.headers)


class TestRunAttack:
    def test_attack_small_benchmark(self):
        run = api.run_attack(
            "s5378", profile=TINY, key_bits=4, scale=64, timeout_s=120.0
        )
        assert run.success
        assert run.benchmark == "s5378"
        assert run.key_bits == 4
        assert run.n_scan_flops > 0

    def test_unknown_profile_rejected_before_work(self):
        with pytest.raises(ValueError, match="unknown profile"):
            api.run_attack("s5378", profile="huge")

    def test_zero_scale_is_value_error_not_the_profile_scale(self):
        with pytest.raises(ValueError, match="scale"):
            api.run_attack("s5378", profile=TINY, key_bits=4, scale=0)

    def test_timeout_none_takes_the_profile_budget(self, monkeypatch):
        import repro.core.dynunlock

        budgets = []
        real = repro.core.dynunlock.dynunlock

        def spy(netlist, view, oracle, config):
            budgets.append(config.timeout_s)
            return real(netlist, view, oracle, config)

        monkeypatch.setattr(repro.core.dynunlock, "dynunlock", spy)
        api.run_attack("s5378", profile=TINY, key_bits=4, scale=64)
        spent = api.run_attack(
            "s5378", profile=TINY, key_bits=4, scale=64, timeout_s=0.0
        )
        assert budgets == [TINY.timeout_s, 0.0]
        assert spent.result.timed_out and not spent.success
