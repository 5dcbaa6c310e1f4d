"""Tests for the experiment command-line interface."""

import json

import pytest

from repro.experiments.cli import (
    EXPERIMENTS,
    OPTION_GROUPS,
    build_parser,
    list_algorithms_table,
    load_fault_plan,
    main,
    run_experiment,
)
from repro.mapreduce import FaultPlan
from repro.plan import available_algorithms


class TestParser:
    def test_all_experiments_are_choices(self):
        parser = build_parser()
        args = parser.parse_args(["fig7", "--size", "50"])
        assert args.experiment == "fig7"
        assert args.size == 50

    def test_sizes_argument_parsing(self):
        parser = build_parser()
        args = parser.parse_args(["fig11", "--sizes", "100,200,300"])
        assert args.sizes == (100, 200, 300)

    def test_unknown_experiment_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["not-an-experiment"])

    def test_every_registered_experiment_has_a_driver(self):
        expected = {
            "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14",
            "effect-k", "statistics", "run", "streaming",
            "ablation-assigners", "ablation-local-join",
        }
        assert set(EXPERIMENTS) == expected

    def test_stream_batch_options(self):
        parser = build_parser()
        args = parser.parse_args(
            ["streaming", "--stream-batches", "5,10", "--stream-batch-size", "40"]
        )
        assert args.stream_batches == (5, 10)
        assert args.stream_batch_size == (40,)

    def test_algorithm_and_plan_options(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--algorithm", "naive", "--plan", "auto"])
        assert args.algorithm == "naive"
        assert args.plan == "auto"

    def test_unknown_algorithm_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--algorithm", "not-an-algorithm"])


class TestExecution:
    def test_run_experiment_fig7(self):
        parser = build_parser()
        args = parser.parse_args(["fig7", "--size", "40"])
        table = run_experiment("fig7", args)
        assert len(table.rows) == 4

    def test_main_prints_and_writes_output(self, tmp_path, capsys):
        output = tmp_path / "fig7.txt"
        code = main(["fig7", "--size", "40", "--output", str(output)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Figure 7" in captured.out
        assert "Figure 7" in output.read_text()

    def test_main_relative_output_lands_under_benchmarks_results(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(["fig7", "--size", "40", "--output", "fig7.csv"])
        assert code == 0
        written = tmp_path / "benchmarks" / "results" / "fig7.csv"
        assert written.exists()
        first_line = written.read_text().splitlines()[0]
        assert first_line.startswith("predicate,")

    def test_main_statistics_experiment(self, capsys):
        code = main(["statistics", "--sizes", "200,400", "--granules", "5"])
        assert code == 0
        assert "Statistics collection" in capsys.readouterr().out


class TestRegistryDispatch:
    def test_list_algorithms(self, capsys):
        code = main(["--list-algorithms"])
        assert code == 0
        out = capsys.readouterr().out
        for name in available_algorithms():
            assert name in out

    def test_list_algorithms_table_covers_registry(self):
        table = list_algorithms_table()
        assert table.column("name") == available_algorithms()

    def test_missing_experiment_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_run_experiment_with_algorithm(self, capsys):
        code = main(["run", "--algorithm", "naive", "--size", "30", "--k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Naive" in out
        assert "total_seconds" in out

    def test_run_experiment_auto_plan_prints_explanation(self, capsys):
        code = main(["run", "--size", "40", "--k", "5", "--plan", "auto"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan_strategy" in out
        assert "plan_reason_0" in out

    def test_run_experiment_boolean_algorithm_uses_pb(self, capsys):
        code = main(
            ["run", "--algorithm", "allmatrix", "--query", "Qb,b", "--size", "30", "--k", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "All-Matrix" in out
        assert "PB" in out


@pytest.fixture()
def chaos_plan_file(tmp_path):
    path = tmp_path / "chaos.json"
    path.write_text(
        json.dumps(
            {
                "seed": 7,
                "failure_rate": 0.4,
                "max_failures_per_task": 2,
                "rules": [
                    {"action": "fail", "phase": "map", "task": 0, "attempts": [0]}
                ],
            }
        )
    )
    return path


class TestFaultOptions:
    """Error paths and the chaos-demo happy path of the fault-tolerance flags."""

    def test_fault_experiment_sets_are_consistent(self):
        fault = {name for name, entry in EXPERIMENTS.items() if "fault" in entry.reads}
        engineless = {name for name, entry in EXPERIMENTS.items() if not entry.reads}
        assert fault == {"run", "streaming"}
        assert engineless == {"fig7", "fig12"}
        # Every group an experiment reads is a known group, and reading the
        # fault or plan group implies running the engine.
        for entry in EXPERIMENTS.values():
            assert entry.reads <= set(OPTION_GROUPS)
            assert not entry.reads or "engine" in entry.reads

    def test_load_fault_plan_passthrough(self, chaos_plan_file):
        plan = load_fault_plan(chaos_plan_file)
        assert isinstance(plan, FaultPlan)
        assert load_fault_plan(plan) is plan
        assert load_fault_plan(None) is None

    def test_run_with_fault_plan_reports_chaos_metrics(self, chaos_plan_file, capsys):
        code = main(
            ["run", "--size", "30", "--k", "5", "--fault-plan", str(chaos_plan_file)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failed_attempts" in out
        assert "retried_tasks" in out

    def test_streaming_with_fault_plan_runs(self, chaos_plan_file, capsys):
        code = main(
            [
                "streaming",
                "--stream-batches", "3",
                "--stream-batch-size", "10",
                "--k", "5",
                "--granules", "5",
                "--fault-plan", str(chaos_plan_file),
            ]
        )
        assert code == 0
        assert "Streaming" in capsys.readouterr().out

    def test_missing_fault_plan_file_errors(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--fault-plan", str(tmp_path / "missing.json")])
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_invalid_fault_plan_json_errors(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SystemExit):
            main(["run", "--fault-plan", str(path)])
        assert "not valid JSON" in capsys.readouterr().err

    def test_unknown_fault_plan_keys_error(self, tmp_path, capsys):
        path = tmp_path / "keys.json"
        path.write_text('{"failure_rte": 0.5}')
        with pytest.raises(SystemExit):
            main(["run", "--fault-plan", str(path)])
        assert "unknown fault-plan keys" in capsys.readouterr().err

    def test_fault_plan_conflicts_with_engineless_experiment(self, chaos_plan_file, capsys):
        with pytest.raises(SystemExit):
            main(["fig7", "--fault-plan", str(chaos_plan_file)])
        assert "never runs the engine" in capsys.readouterr().err

    def test_fault_plan_conflicts_with_sweep_experiments(self, chaos_plan_file, capsys):
        with pytest.raises(SystemExit):
            main(["fig11", "--fault-plan", str(chaos_plan_file)])
        assert "only supported by" in capsys.readouterr().err

    def test_max_task_attempts_conflicts_outside_fault_experiments(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig8", "--max-task-attempts", "2"])
        assert "--max-task-attempts" in capsys.readouterr().err

    def test_explicitly_passing_the_default_budget_still_conflicts(self, capsys):
        # Passing the flag counts as using it, even at its default value.
        with pytest.raises(SystemExit):
            main(["fig8", "--max-task-attempts", "4"])
        assert "--max-task-attempts" in capsys.readouterr().err

    def test_speculative_slowdown_conflicts_with_serial_backend(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--speculative-slowdown", "2.0"])
        assert "pool backend" in capsys.readouterr().err

    def test_speculative_slowdown_must_exceed_one(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--backend", "thread", "--speculative-slowdown", "0.5"])
        assert "greater than 1.0" in capsys.readouterr().err

    def test_max_task_attempts_must_be_positive(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--max-task-attempts", "0"])
        assert "positive integer" in capsys.readouterr().err


class TestOptionGroups:
    """Each experiment reads the engine/plan/fault option groups its record names
    and rejects a passed flag of any other group instead of ignoring it."""

    @pytest.mark.parametrize(
        "experiment, flags",
        [
            ("fig10", ["--kernel", "vector"]),
            ("fig10", ["--plan", "auto"]),
            ("fig8", ["--plan", "manual"]),
            ("fig9", ["--kernel", "sweep"]),
            ("statistics", ["--plan", "auto"]),
            ("fig7", ["--backend", "process"]),
            ("fig7", ["--transfer", "pickle"]),
            ("fig12", ["--max-workers", "2"]),
            ("fig12", ["--kernel", "vector"]),
            ("fig11", ["--backend", "thread", "--speculative-slowdown", "2.0"]),
        ],
    )
    def test_flag_the_experiment_does_not_read_is_rejected(self, experiment, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([experiment, *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert flags[-2] in err
        assert "Traceback" not in err

    DRIVERS = ("run_figure", "figure_streaming", "run_single_query")

    def test_every_engine_experiment_receives_the_built_cluster(self, monkeypatch, capsys):
        from repro.experiments import cli
        from repro.experiments.harness import ResultTable
        from repro.mapreduce import ClusterConfig

        calls = []

        def spy(name):
            def driver(*args, **kwargs):
                calls.append((name, kwargs))
                return ResultTable(name, ["metric"])

            return driver

        for name in self.DRIVERS:
            monkeypatch.setattr(cli, name, spy(name))
        flags = ["--backend", "thread", "--max-workers", "2"]
        flags += ["--transfer", "pickle", "--memory-budget", "64k"]
        expected = ClusterConfig(
            backend="thread", max_workers=2, transfer="pickle", memory_budget_bytes=64 << 10
        )
        assert cli.engine_cluster(build_parser().parse_args(["fig8", *flags])) == expected
        engine_experiments = [n for n, e in EXPERIMENTS.items() if "engine" in e.reads]
        assert len(engine_experiments) == 12
        for experiment in engine_experiments:
            calls.clear()
            assert main([experiment, *flags]) == 0
            assert len(calls) == 1, experiment
            assert calls[0][1]["cluster"] == expected, experiment
        capsys.readouterr()


class TestErrorExitCodes:
    """Runtime failures exit non-zero with a message on stderr, not a traceback."""

    def test_invalid_k_exits_nonzero_with_stderr_message(self, capsys):
        code = main(["run", "--size", "30", "--k", "0"])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "k must be positive" in captured.err
        assert "Traceback" not in captured.err


class TestServeDispatch:
    """The serve/load subcommands route to the serving layer CLI."""

    def test_serve_rejects_negative_queue(self, capsys):
        code = main(["serve", "--max-queue", "-1"])
        assert code == 1
        assert "--max-queue" in capsys.readouterr().err

    def test_serve_rejects_unreadable_fault_plan(self, tmp_path, capsys):
        code = main(["serve", "--fault-plan", str(tmp_path / "missing.json")])
        assert code == 1
        assert "cannot read fault plan" in capsys.readouterr().err

    def test_serve_rejects_mistyped_fault_plan_field(self, tmp_path, capsys, monkeypatch):
        import asyncio

        def forbidden(*args, **kwargs):
            raise AssertionError("a bad fault plan must be refused before serving")

        monkeypatch.setattr(asyncio, "start_server", forbidden)
        path = tmp_path / "plan.json"
        path.write_text('{"rules": [{"action": "delay", "delay_seconds": 0.1, "delay_once": "x"}]}')
        code = main(["serve", "--fault-plan", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "delay_once must be a boolean" in err

    def test_serve_rejects_nonpositive_drain_timeout(self, capsys):
        code = main(["serve", "--drain-timeout", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--drain-timeout" in err
        assert "Traceback" not in err

    def test_serve_rejects_engine_flags_with_multiple_workers(self, capsys):
        code = main(["serve", "--workers", "2", "--backend", "thread"])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--backend" in err
        assert "--workers" in err
        assert "Traceback" not in err

    def test_serve_rejects_negative_plan_cache_entries(self, capsys):
        code = main(["serve", "--plan-cache-entries", "-1"])
        assert code == 1
        err = capsys.readouterr().err
        assert "--plan-cache-entries" in err
        assert "Traceback" not in err

    def test_serve_rejects_passed_engine_flag_at_its_default_with_multiple_workers(
        self, capsys
    ):
        # Passing the flag counts as using it, even at its default value (as
        # for the experiments CLI's --max-task-attempts).
        code = main(["serve", "--workers", "2", "--max-task-attempts", "4"])
        assert code == 1
        assert "--max-task-attempts" in capsys.readouterr().err

    def test_serve_reports_bind_failure_cleanly(self, capsys):
        import socket

        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            port = holder.getsockname()[1]
            code = main(["serve", "--port", str(port)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "Traceback" not in err

    def test_load_rejects_empty_names(self, capsys):
        code = main(["load", "--names", ","])
        assert code == 1
        assert "at least one collection" in capsys.readouterr().err

    def test_load_reports_unreachable_server(self, capsys):
        # Port 1 on localhost is never listening in the test environment.
        code = main(["load", "--port", "1", "--names", "R"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_load_registers_collections_on_a_live_server(self, capsys):
        from repro.serving import BackgroundServer, QueryClient, QueryServer

        server = QueryServer()
        with BackgroundServer(server) as (host, port):
            code = main(
                ["load", "--host", host, "--port", str(port), "--names", "R,S", "--size", "25"]
            )
            assert code == 0
            out = capsys.readouterr().out
            assert "loaded R: 25 intervals (static)" in out
            assert "loaded S: 25 intervals (static)" in out
            with QueryClient(host, port) as client:
                names = [c["name"] for c in client.collections()["collections"]]
        assert names == ["R", "S"]
