"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    EXIT_OK,
    EXIT_SOLVER_ERROR,
    EXIT_VALIDATION_ERROR,
    EXIT_VERIFICATION_ERROR,
    build_parser,
    main,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.topology == "waxman"
        assert args.method == "conflict_free"
        assert args.switches == 50

    def test_experiment_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["exec", "fig5", "--workers", "0"],
            ["experiment", "fig5", "--workers", "0"],
            ["exec", "fig5", "--cache-size", "0"],
        ],
    )
    def test_counts_below_one_are_validation_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == EXIT_VALIDATION_ERROR
        assert "must be >= 1, got 0" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "solvers" in out and "waxman" in out

    def test_solve_small(self, capsys):
        code = main(
            [
                "solve",
                "--switches",
                "10",
                "--users",
                "4",
                "--seed",
                "3",
                "--show-channels",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MUERPSolution" in out
        assert "Channel[" in out

    def test_solve_with_optimal(self, capsys):
        code = main(
            ["solve", "--method", "optimal", "--switches", "8", "--users", "3"]
        )
        assert code == 0

    def test_experiment_reduced(self, capsys):
        code = main(
            ["experiment", "fig6b", "--networks", "1", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "n_switches" in out
        assert "Alg-2" in out

    def test_experiment_ablation(self, capsys):
        code = main(
            [
                "experiment",
                "ablation-fusion-penalty",
                "--networks",
                "1",
                "--seed",
                "2",
            ]
        )
        assert code == 0
        assert "mu=" in capsys.readouterr().out


class TestNewCommands:
    def test_stats(self, capsys):
        code = main(["stats", "--switches", "10", "--users", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "degree histogram" in out
        assert "connected" in out

    def test_montecarlo_consistent(self, capsys):
        code = main(
            [
                "montecarlo",
                "--switches",
                "10",
                "--users",
                "3",
                "--trials",
                "5000",
                "--seed",
                "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "consistent:           yes" in out

    def test_admit_overload_demo(self, capsys):
        code = main(
            [
                "admit",
                "--switches",
                "15",
                "--users",
                "6",
                "--horizon",
                "20",
                "--arrival-rate",
                "4",
                "--seed",
                "5",
                "--verify-determinism",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "admission stats:" in out
        assert "capacity overbooked: no" in out
        assert "unattributed requests: none" in out
        assert "baseline (no admission):" in out
        assert "determinism check: ok" in out

    def test_admit_shed_policy_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["admit", "--shed-policy", "coin-flip"]
            )

    def test_admit_metrics_snapshot(self, capsys, tmp_path):
        metrics_file = tmp_path / "admit-metrics.json"
        code = main(
            [
                "admit",
                "--switches",
                "12",
                "--users",
                "5",
                "--horizon",
                "12",
                "--arrival-rate",
                "5",
                "--seed",
                "2",
                "--no-baseline",
                "--metrics",
                str(metrics_file),
            ]
        )
        assert code == EXIT_OK
        snapshot = json.loads(metrics_file.read_text())
        counters = snapshot["counters"]
        assert any(
            key.startswith("sim.online.admission.") for key in counters
        )

    def test_serve_multitenant_demo(self, capsys):
        code = main(
            [
                "serve",
                "--switches",
                "15",
                "--users",
                "6",
                "--horizon",
                "20",
                "--arrival-rate",
                "3",
                "--faults",
                "6",
                "--seed",
                "5",
                "--verify-determinism",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "tenant serving report" in out
        assert "capacity overbooked: no" in out
        assert "unattributed requests: none" in out
        assert "determinism check: ok" in out

    def test_serve_json_output(self, capsys):
        code = main(
            [
                "serve",
                "--switches",
                "12",
                "--users",
                "5",
                "--horizon",
                "12",
                "--arrival-rate",
                "3",
                "--faults",
                "0",
                "--seed",
                "2",
                "--json",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out[: out.index("capacity overbooked")])
        assert "jain_index" in payload
        assert "tenants" in payload

    def test_experiment_markdown(self, capsys):
        code = main(
            ["experiment", "fig8b", "--networks", "1", "--seed", "2", "--markdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("### experiment fig8b")
        assert "| swap_prob |" in out

    def test_experiment_markdown_edge_removal(self, capsys):
        code = main(
            ["experiment", "fig7b", "--networks", "1", "--seed", "2", "--markdown"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "removed ratio" in out


class TestExitCodes:
    """Regression: each failure class owns a distinct nonzero exit code."""

    def test_constants_are_distinct(self):
        codes = {
            EXIT_OK,
            EXIT_VALIDATION_ERROR,
            EXIT_SOLVER_ERROR,
            EXIT_VERIFICATION_ERROR,
        }
        assert len(codes) == 4
        assert EXIT_OK == 0

    def test_unknown_solver_exits_3(self, capsys):
        code = main(
            ["solve", "--method", "prmi", "--switches", "8", "--users", "3"]
        )
        assert code == EXIT_SOLVER_ERROR
        err = capsys.readouterr().err
        assert "solver error" in err
        assert "prim" in err  # did-you-mean suggestion surfaces

    def test_validation_error_exits_2(self, capsys):
        code = main(
            [
                "solve",
                "--switches",
                "8",
                "--users",
                "3",
                "--swap-prob",
                "1.5",
            ]
        )
        assert code == EXIT_VALIDATION_ERROR
        err = capsys.readouterr().err
        assert "validation error" in err
        assert "swap_prob" in err

    def test_nan_parameter_exits_2_with_message(self, capsys):
        code = main(
            [
                "solve",
                "--switches",
                "8",
                "--users",
                "3",
                "--swap-prob",
                "nan",
            ]
        )
        assert code == EXIT_VALIDATION_ERROR
        assert "NaN" in capsys.readouterr().err

    def test_resume_without_checkpoint_exits_2(self, capsys):
        code = main(
            ["experiment", "fig6b", "--networks", "1", "--resume"]
        )
        assert code == EXIT_VALIDATION_ERROR
        assert "--checkpoint" in capsys.readouterr().err


#: Small serving scenarios, gated on overbooking and attribution.
_GATED_RUNS = {
    "resilience": [
        "resilience", "--switches", "12", "--users", "4",
        "--horizon", "10", "--faults", "3", "--seed", "5",
    ],
    "admit": [
        "admit", "--switches", "12", "--users", "5", "--horizon", "10",
        "--arrival-rate", "3", "--seed", "2", "--no-baseline",
    ],
    "serve": [
        "serve", "--switches", "12", "--users", "5", "--horizon", "10",
        "--arrival-rate", "3", "--faults", "2", "--seed", "2",
    ],
}

#: Small runs of every subcommand gated by --verify-determinism.
_DETERMINISM_RUNS = {
    **_GATED_RUNS,
    "exec": ["exec", "fig6b", "--networks", "2", "--seed", "2"],
    "incremental": [
        "incremental", "--switches", "16", "--users", "4", "--events", "20",
    ],
    "bounds": [
        "bounds", "--switches", "12", "--users", "4", "--qubits", "2",
        "--backend", "simplex",
    ],
}


def _drift(monkeypatch, command):
    """Make a same-seed rerun of ``command`` differ from its first run."""
    calls = iter(range(1_000_000))
    if command == "exec":
        import repro.exec.engine as engine

        real_payload = engine.result_payload
        monkeypatch.setattr(
            engine,
            "result_payload",
            lambda result: {**real_payload(result), "drift": next(calls)},
        )
    elif command == "incremental":
        import repro.sim.workload as workload

        real_churn = workload.generate_churn

        def drifting_churn(network, spec=None, rng=None):
            # The incremental run and its from-scratch reference get the
            # same stream; the replay loses its last event.
            events = real_churn(network, spec, rng=rng)
            return events if next(calls) < 2 else events[:-1]

        monkeypatch.setattr(workload, "generate_churn", drifting_churn)
    elif command == "bounds":
        import dataclasses

        import repro.bounds.rounding as rounding

        real_rounding = rounding.solve_lp_rounding

        def drifting_rounding(*args, **kwargs):
            solution = real_rounding(*args, **kwargs)
            return dataclasses.replace(
                solution,
                extra_log_rate=solution.extra_log_rate - next(calls),
            )

        monkeypatch.setattr(rounding, "solve_lp_rounding", drifting_rounding)
    else:
        from repro.resilience.report import ResilienceReport

        real_to_dict = ResilienceReport.to_dict
        monkeypatch.setattr(
            ResilienceReport,
            "to_dict",
            # Every summary differs from the last: a replay can never
            # match the first run.
            lambda self: {**real_to_dict(self), "drift": next(calls)},
        )


class TestSafetyGateExitCodes:
    """A failed safety gate exits with the verification-failure code."""

    @pytest.mark.parametrize("command", sorted(_DETERMINISM_RUNS))
    def test_determinism_mismatch_exits_4(self, command, monkeypatch, capsys):
        _drift(monkeypatch, command)
        code = main(_DETERMINISM_RUNS[command] + ["--verify-determinism"])
        assert code == EXIT_VERIFICATION_ERROR
        out = capsys.readouterr().out
        assert out.count("determinism check: FAILED (") == 1
        assert "determinism check: ok" not in out

    @pytest.mark.parametrize("command", sorted(_GATED_RUNS))
    def test_overbooked_switch_exits_4(self, command, monkeypatch, capsys):
        from dataclasses import replace

        from repro.sim.online import OnlineScheduler

        real_run = OnlineScheduler.run

        def overbooking_run(self, requests):
            result = real_run(self, requests)
            peaks = {s: 10**6 for s in result.peak_qubit_usage}
            return replace(result, peak_qubit_usage=peaks)

        monkeypatch.setattr(OnlineScheduler, "run", overbooking_run)
        code = main(_GATED_RUNS[command])
        assert code == EXIT_VERIFICATION_ERROR
        assert "capacity overbooked: YES" in capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(_GATED_RUNS))
    def test_unattributed_request_exits_4(self, command, monkeypatch, capsys):
        from repro.resilience.report import ResilienceReport

        monkeypatch.setattr(
            ResilienceReport, "close_request", lambda self, disposition: None
        )
        code = main(_GATED_RUNS[command])
        assert code == EXIT_VERIFICATION_ERROR
        assert "unattributed requests: YES" in capsys.readouterr().out

    def test_unattributed_is_two_way(self):
        """A disposition without an outcome is unattributed too."""
        from repro.resilience.report import ResilienceReport
        from repro.sim.online import OnlineResult

        report = ResilienceReport()
        report.dispositions["ghost"] = object()
        assert OnlineResult((), 0, {}, report).unattributed() == ["ghost"]


class TestRobustSolveCommand:
    def test_robust_prints_audit(self, capsys):
        code = main(
            [
                "solve",
                "--robust",
                "--switches",
                "10",
                "--users",
                "4",
                "--seed",
                "3",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "solve audit" in out
        assert "winner: conflict_free" in out

    def test_robust_with_fallback(self, capsys):
        code = main(
            [
                "solve",
                "--robust",
                "--method",
                "prim",
                "--fallback",
                "conflict_free",
                "--switches",
                "10",
                "--users",
                "4",
                "--seed",
                "3",
            ]
        )
        assert code == EXIT_OK
        assert "prim" in capsys.readouterr().out


class TestExperimentCheckpointFlags:
    def test_checkpoint_and_resume_round_trip(self, tmp_path, capsys):
        path = tmp_path / "trials.jsonl"
        code = main(
            [
                "experiment",
                "fig6b",
                "--networks",
                "2",
                "--seed",
                "2",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == EXIT_OK
        first = capsys.readouterr().out
        assert path.exists()
        recorded = path.read_text().count("\n")
        assert recorded > 0
        # Every line carries the integrity envelope.
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"entry", "sha256"}

        code = main(
            [
                "experiment",
                "fig6b",
                "--networks",
                "2",
                "--seed",
                "2",
                "--checkpoint",
                str(path),
                "--resume",
            ]
        )
        assert code == EXIT_OK
        second = capsys.readouterr().out
        assert "resuming" in second
        # Identical tables: the resumed run replays recorded trials.
        assert first.splitlines()[-5:] == [
            line for line in second.splitlines() if "resuming" not in line
        ][-5:]

    def test_fresh_run_discards_stale_checkpoint(self, tmp_path):
        path = tmp_path / "trials.jsonl"
        path.write_text("garbage that would fail integrity checks\n")
        code = main(
            [
                "experiment",
                "fig6b",
                "--networks",
                "1",
                "--seed",
                "2",
                "--checkpoint",
                str(path),
            ]
        )
        assert code == EXIT_OK


class TestIncrementalCommand:
    def test_equivalence_and_determinism_pass(self, capsys):
        code = main(
            [
                "incremental",
                "--switches",
                "16",
                "--users",
                "4",
                "--events",
                "20",
                "--verify-determinism",
            ]
        )
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "equivalence check: ok" in out
        assert "determinism check: ok" in out
