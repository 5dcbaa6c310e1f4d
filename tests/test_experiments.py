"""Tests for the experiment harness and (smoke-level) the figure drivers."""

import pytest

from repro.datagen import NetworkTraceConfig
from repro.experiments import (
    ResultTable,
    TKIJRunConfig,
    build_query,
    figure7_score_distribution,
    figure12_network_distribution,
    network_collections,
    run_tkij,
    statistics_collection_times,
)
from repro.experiments.harness import summarize
from repro.mapreduce import ClusterConfig
from repro.plan import ExecutionContext


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


class TestRunConfig:
    def test_plan_knobs_apply_settings(self):
        config = TKIJRunConfig(
            num_granules=7, strategy="two-phase", assigner="lpt", kernel="vector"
        )
        knobs = config.plan_knobs()
        assert knobs["num_granules"] == 7
        assert knobs["strategy"] == "two-phase"
        assert knobs["assigner"] == "lpt"
        assert knobs["kernel"] == knobs["join_config"].kernel == "vector"

    def test_run_tkij_and_summarize(self, tiny_collections):
        query = build_query("Qb,b", tiny_collections, "P1", k=5)
        with ExecutionContext(cluster=ClusterConfig(num_reducers=2)) as context:
            result = run_tkij(query, TKIJRunConfig(num_granules=3), context=context)
        assert len(result.results) == 5
        table = summarize({"run": result}, ["seconds_total", "min_kth_score"])
        assert table.column("run") == ["run"]
        assert table.column("seconds_total")[0] > 0


class TestFigureDrivers:
    def test_figure7_small(self):
        table = figure7_score_distribution(size=60, ranks=(1, 10))
        assert len(table.rows) == 4
        predicates = table.column("predicate")
        assert "s-before" in predicates
        # before has by far the most perfect-scoring pairs (paper Figure 7).
        perfect = dict(zip(predicates, table.column("perfect_scores")))
        assert perfect["s-before"] >= perfect["s-starts"]

    def test_figure12_distribution(self):
        table = figure12_network_distribution(
            NetworkTraceConfig(num_sessions=300), seed=3, num_bins=5
        )
        percentages = [row for row in table.column("start_pct_tuples") if row is not None]
        assert sum(percentages) == pytest.approx(100.0, abs=1.0)

    def test_network_collections_copies(self):
        copies = network_collections(NetworkTraceConfig(num_sessions=120), seed=2, copies=3)
        assert len(copies) == 3
        assert len(copies[0]) == len(copies[1]) == len(copies[2])
        assert copies[0].name != copies[1].name

    def test_statistics_collection_times(self):
        table = statistics_collection_times(sizes=(200, 400), num_granules=5)
        assert table.column("size") == [200, 400]
        assert all(seconds >= 0 for seconds in table.column("seconds"))
