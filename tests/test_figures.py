"""Tests for ASCII chart rendering."""

import pytest

from repro.reports.figures import ascii_bar_chart


class TestBarChart:
    def test_basic_shape(self):
        chart = ascii_bar_chart(["a", "bb"], [1.0, 2.0], width=10, title="T")
        lines = chart.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 3
        # The larger value gets the full width.
        assert "#" * 10 in lines[2]

    def test_zero_values(self):
        chart = ascii_bar_chart(["x"], [0.0])
        assert "#" not in chart

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ascii_bar_chart(["a"], [1.0, 2.0])

    def test_empty(self):
        assert ascii_bar_chart([], [], title="nothing") == "nothing"

    def test_unit_suffix(self):
        chart = ascii_bar_chart(["a"], [3.5], unit="s")
        assert "3.5s" in chart
