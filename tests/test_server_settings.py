"""The server settings table: one check per setting, the same at every entry point.

``QueryServer``, ``ServerSupervisor``, ``python -m repro.serving.worker`` and
``serve`` all build their settings through :class:`ServerSettings`, so a bad
value is refused by each of them with the same message naming its flag —
before any socket is bound, directory made or process spawned.
"""

import asyncio
import subprocess
import tempfile
from dataclasses import fields

import pytest

from repro.experiments.cli import main as experiments_main
from repro.serving import QueryServer, ServerSupervisor
from repro.serving import worker
from repro.serving.server import SERVER_FLAGS, ServerSettings, server_settings

#: Values each setting must refuse when passed from Python.
BAD_VALUES = {
    "--max-inflight": [0, -1, True, "4", None],
    "--max-queue": [-1, True, "4", None],
    "--default-deadline-ms": [0, -1, True, "4"],
    "--drain-timeout": [0, -1, True, "4", None, float("nan"), 10**400],
    "--stats-cache-entries": [0, -1, True, "4"],
    "--plan-cache-entries": [-1, True, "4", None],
}

#: Text each flag must refuse on a command line.
BAD_TEXT = {
    "--max-inflight": ["0", "-1", "True", "x", "2.5"],
    "--max-queue": ["-1", "True", "x"],
    "--default-deadline-ms": ["0", "-5", "x"],
    "--drain-timeout": ["0", "-1", "True", "nan"],
    "--stats-cache-entries": ["0", "-1", "x"],
    "--plan-cache-entries": ["-1", "None"],
}

#: A value different from the default for every setting.
NON_DEFAULT = {
    "max_inflight": 3,
    "max_queue": 0,
    "default_deadline_ms": 250,
    "drain_timeout": 2.5,
    "stats_cache_entries": 5,
    "plan_cache_entries": 0,
}

PYTHON_CASES = [(flag, value) for flag, values in BAD_VALUES.items() for value in values]
TEXT_CASES = [(flag, text) for flag, texts in BAD_TEXT.items() for text in texts]


@pytest.fixture()
def nothing_started(monkeypatch):
    """Fail the test if a check lets the entry point bind, mkdir or spawn."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a bad setting must be refused before any side effect")

    monkeypatch.setattr(asyncio, "start_server", forbidden)
    monkeypatch.setattr(subprocess, "Popen", forbidden)
    monkeypatch.setattr(tempfile, "mkdtemp", forbidden)


def test_every_flag_has_bad_values_and_a_non_default():
    assert set(BAD_VALUES) == set(SERVER_FLAGS) == set(BAD_TEXT)
    assert set(NON_DEFAULT) == {field.name for field in fields(ServerSettings)}


@pytest.mark.parametrize("entry", [QueryServer, ServerSupervisor])
@pytest.mark.parametrize("flag, value", PYTHON_CASES)
def test_python_entry_points_refuse_bad_settings(entry, flag, value, nothing_started):
    with pytest.raises(ValueError, match=f"^{flag} "):
        entry(**{SERVER_FLAGS[flag].field: value})


def serve(argv):
    return experiments_main(["serve", *argv])


@pytest.mark.parametrize("run", [worker.main, serve], ids=["worker", "serve"])
@pytest.mark.parametrize("flag, text", TEXT_CASES)
def test_command_lines_refuse_bad_settings(run, flag, text, nothing_started, capsys):
    assert run([flag, text]) == 1
    err = capsys.readouterr().err
    assert f"error: {flag} " in err
    assert "Traceback" not in err


def test_default_deadline_ms_zero_no_longer_refuses_deadline_less_queries(capsys):
    # It used to answer every query without its own deadline_ms with
    # BAD_REQUEST about a field the client never sent.
    with pytest.raises(ValueError, match="--default-deadline-ms must be a positive integer"):
        QueryServer(default_deadline_ms=0)
    with pytest.raises(ValueError, match="--default-deadline-ms"):
        ServerSupervisor(default_deadline_ms=0)
    assert worker.main(["--default-deadline-ms", "-5"]) == 1
    assert "error: --default-deadline-ms" in capsys.readouterr().err


def test_stats_cache_entries_zero_no_longer_disables_the_statistics_cache():
    # It used to set max_entries to 0 behind StatisticsCache's own check,
    # so nothing was ever cached.
    with pytest.raises(ValueError, match="--stats-cache-entries must be a positive integer"):
        QueryServer(stats_cache_entries=0)
    server = QueryServer(stats_cache_entries=1)
    assert server.context.statistics.max_entries == 1
    server.context.close()


def test_settings_round_trip_through_the_worker_command_line():
    settings = ServerSettings(**NON_DEFAULT)
    defaults = ServerSettings()
    for row in SERVER_FLAGS.values():
        assert getattr(settings, row.field) != getattr(defaults, row.field), row.field
    parsed = server_settings(worker._build_parser().parse_args(settings.argv()))
    assert parsed == settings
    assert server_settings(worker._build_parser().parse_args([])) == defaults


def test_int_drain_timeout_is_normalised():
    settings = ServerSettings(drain_timeout=5)
    assert settings.drain_timeout == 5.0 and isinstance(settings.drain_timeout, float)


def test_unknown_setting_is_a_type_error():
    with pytest.raises(TypeError):
        QueryServer(max_inflights=2)
