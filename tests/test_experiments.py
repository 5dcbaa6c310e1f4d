"""Tests for the experiment harness's result table (the FIGURES rows are
covered by tests/test_figures.py)."""

import pytest

from repro.experiments import ResultTable


class TestResultTable:
    def test_add_row_and_column(self):
        table = ResultTable("t", ["a", "b"])
        table.add_row(a=1, b=2.5)
        table.add_row(a=3)
        assert table.column("a") == [1, 3]
        assert table.column("b") == [2.5, None]

    def test_to_text_contains_all_cells(self):
        table = ResultTable("My title", ["name", "value"])
        table.add_row(name="alpha", value=0.123456)
        text = table.to_text()
        assert "My title" in text
        assert "alpha" in text
        assert "0.1235" in text

    def test_whole_floats_print_as_integers(self):
        table = ResultTable("t", ["count", "ratio"])
        table.add_row(count=14168.0, ratio=0.5)
        assert "14168" in table.to_text() and "e+04" not in table.to_text()

    def test_to_text_empty(self):
        table = ResultTable("empty", ["x"])
        assert "empty" in table.to_text()

    def test_to_csv_raw_values_and_blanks(self):
        table = ResultTable("t", ["name", "value"])
        table.add_row(name="alpha", value=0.123456789)
        table.add_row(name="beta")
        lines = table.to_csv().splitlines()
        assert lines[0] == "name,value"
        assert lines[1] == "alpha,0.123456789"  # unrounded, unlike to_text
        assert lines[2] == "beta,"

    def test_to_markdown_shape(self):
        table = ResultTable("My table", ["a", "b"])
        table.add_row(a=1, b=2.5)
        text = table.to_markdown()
        lines = text.splitlines()
        assert lines[0] == "### My table"
        assert lines[2] == "| a | b |"
        assert set(lines[3]) <= {"|", "-", " "}
        assert "| 1 | 2.5 |" in lines

    def test_render_unknown_format(self):
        table = ResultTable("t", ["a"])
        with pytest.raises(ValueError):
            table.render("yaml")

    def test_save_relative_path_lands_in_results_dir(self, tmp_path):
        table = ResultTable("t", ["a"])
        table.add_row(a=1)
        written = table.save("sub/table.md", results_dir=tmp_path)
        assert written == tmp_path / "sub" / "table.md"
        assert written.read_text().startswith("### t")

    def test_save_absolute_path_honoured(self, tmp_path):
        table = ResultTable("t", ["a"])
        table.add_row(a=1)
        target = tmp_path / "out.csv"
        written = table.save(target)
        assert written == target
        assert written.read_text().splitlines()[0] == "a"
