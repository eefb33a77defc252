"""Table rendering and CSV export."""

import pytest

from repro.core.report import Table, render_table
from repro.errors import AnalysisError


@pytest.fixture
def table():
    t = Table(title="T", header=["a", "b", "c"])
    t.add_row("x", 1, 2.5)
    t.add_row("y", 10, 3.25e-7)
    return t


class TestTable:
    def test_add_row_width_checked(self, table):
        with pytest.raises(AnalysisError):
            table.add_row("only-one")

    def test_column_extraction(self, table):
        assert table.column("b") == [1, 10]
        with pytest.raises(AnalysisError):
            table.column("z")

    def test_render_contains_everything(self, table):
        text = table.render()
        assert "T" in text
        assert "a" in text and "b" in text
        assert "x" in text and "y" in text

    def test_scientific_formatting_for_extremes(self, table):
        text = table.render()
        assert "3.250e-07" in text

    def test_render_empty_table(self):
        t = Table(title="E", header=["a"])
        assert "a" in render_table(t)


class TestCsv:
    def test_roundtrip_text(self, table):
        csv_text = table.to_csv()
        lines = csv_text.strip().splitlines()
        assert lines[0] == "a,b,c"
        assert len(lines) == 3
