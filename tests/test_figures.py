"""Every ``FIGURES`` row at miniature scale, plus the table's contracts.

These do not judge the paper's claims (REPRODUCTION.md does, at the rows'
reduced scale); they check that every row runs end to end, yields its columns
and one verdict per claim, that no verdict reads a wall-clock column, and that
the CLI maps each figure name to exactly one row.
"""

from dataclasses import replace

import pytest

from repro.experiments import FIGURES, ResultTable, reproduction, run_figure
from repro.experiments.cli import EXPERIMENTS, main

MINIATURE = {"size": (40, 60), "k": (5, 10), "g": (3, 4), "n": (2, 3)}
"""Miniature values of every swept or pinned setting (one value when pinned)."""


def miniature(figure) -> dict[str, tuple]:
    """CLI-style overrides shrinking ``figure`` to a few seconds."""
    overrides = {
        name: values if name == figure.sweep else values[:1]
        for name, values in MINIATURE.items()
        if name in figure.settings
    }
    if figure.data == "network":
        # A network row's size counts trace sessions, not intervals.
        overrides["size"] = tuple(4 * size for size in overrides["size"])
    return overrides


def shrunk(figure):
    """``figure`` itself rewritten at its miniature scale."""
    return replace(figure, settings=figure.resolve(miniature(figure)))


@pytest.mark.parametrize("figure", FIGURES, ids=lambda figure: figure.name)
def test_every_row_runs_and_gives_a_verdict_per_claim(figure):
    table = run_figure(figure, overrides=miniature(figure))
    assert table.columns == [*figure.columns, *figure.timings]
    assert table.rows
    for column in table.columns:
        assert any(row.get(column) is not None for row in table.rows), column
    # No verdict reads a wall-clock column: scrubbing them changes nothing.
    scrubbed = ResultTable(
        table.title,
        list(figure.columns),
        [{k: v for k, v in row.items() if k not in figure.timings} for row in table.rows],
    )
    for statement, check in figure.claims:
        holds, reason = check(figure, table)
        assert isinstance(holds, bool) and reason, statement
        assert check(figure, scrubbed) == (holds, reason), statement


def test_every_cli_figure_name_is_exactly_one_row():
    names = [figure.name for figure in FIGURES]
    assert len(names) == len(set(names))
    assert set(EXPERIMENTS) == {*names, "run", "streaming"}
    for figure in FIGURES:
        assert EXPERIMENTS[figure.name].reads == figure.reads


def test_reproduction_is_byte_stable_and_free_of_wall_clock():
    rows = [shrunk(figure) for figure in FIGURES if figure.name in ("fig10", "fig11", "statistics")]
    document = reproduction(rows)
    assert document == reproduction(rows)
    assert "seconds" not in document
    for figure in rows:
        assert f"## {figure.name}: " in document
    assert document.count("- **holds**") + document.count("- **does not hold**") == sum(
        len(figure.claims) for figure in rows
    )


def test_a_second_sweep_of_a_pinned_setting_is_a_user_error(capsys):
    assert main(["fig9", "--sizes", "40,60"]) == 1
    assert "fig9 sweeps n, not size" in capsys.readouterr().err


def test_cli_flags_pin_or_replace_the_sweep(capsys):
    assert main(["fig10", "--size", "40", "--granules", "3", "--k", "5"]) == 0
    out = capsys.readouterr().out
    assert "(g=(3,), size=40, k=5, params=P1, seed=7)" in out
    assert "total_seconds" in out
