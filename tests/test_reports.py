"""Tests for table rendering, profiles, and fast experiment runners."""

import pytest

from repro import api
from repro.reports.profiles import PROFILES, active_profile
from repro.reports.tables import render_table


class TestTables:
    def test_alignment(self):
        text = render_table(["a", "long_header"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        text = render_table(["x"], [[1]], title="T")
        assert text.splitlines()[0] == "T"

    def test_float_formatting(self):
        text = render_table(["x"], [[1.23456]])
        assert "1.23" in text

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [[1]])


class TestProfiles:
    def test_known_profiles(self):
        assert set(PROFILES) == {"quick", "full", "paper"}
        assert PROFILES["paper"].key_bits == 128
        assert PROFILES["paper"].n_seeds == 10
        assert PROFILES["paper"].scale == 1
        assert PROFILES["paper"].table3_key_sizes[0] == 144
        assert PROFILES["paper"].table3_key_sizes[-1] == 368

    def test_active_profile_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert active_profile().name == "quick"

    def test_active_profile_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "full")
        assert active_profile().name == "full"

    def test_active_profile_bad_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "huge")
        with pytest.raises(KeyError):
            active_profile()

    def test_effective_key_bits_clamps(self):
        profile = PROFILES["quick"]
        assert profile.effective_key_bits(10) == 9
        assert profile.effective_key_bits(100) == profile.key_bits
        assert profile.effective_key_bits(100, requested=4) == 4


class TestExperimentRunners:
    """Smoke-level runs on tiny circuits (the benches do the real sizes)."""

    def _tiny_profile(self):
        from repro.reports.profiles import ExperimentProfile

        return ExperimentProfile(
            name="tiny",
            scale=64,
            key_bits=6,
            n_seeds=1,
            timeout_s=120.0,
            table3_key_sizes=(6,),
        )

    def test_run_table2_row(self):
        (row,) = api.run_grid(
            "table2", profile=self._tiny_profile(), benchmarks=["s5378"]
        ).rows
        assert row.benchmark == "s5378"
        assert row.success_rate == 1.0
        assert row.n_seed_candidates >= 1

    def test_run_table3_cell(self):
        (row,) = api.run_grid(
            "table3",
            profile=self._tiny_profile(),
            benchmarks=["s5378"],
            key_sizes=[6],
        ).rows
        assert row.key_bits == 6
        assert row.success_rate == 1.0

    def test_run_nonlinear_ablation(self):
        rows = api.run_grid(
            "ablation", profile=self._tiny_profile(), n_flops=8, key_bits=4
        ).rows
        by_name = {r.prng: r for r in rows}
        assert by_name["lfsr"].modeled_correctly
        assert by_name["lfsr"].attack_success
        assert not by_name["nonlinear-filter"].modeled_correctly
        assert not by_name["nonlinear-filter"].attack_success
