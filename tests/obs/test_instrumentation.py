"""Integration tests for the observability subsystem's two guarantees.

1. **No result drift** — enabling collection never changes solver
   output, and counters are deterministic across same-seed runs.
2. **No-op cheapness** — the hooks add < 5% (budget overridable via
   ``REPRO_OBS_OVERHEAD_BUDGET``) to a 40-switch robust solve.  The
   test times the *enabled* path against the disabled one; the disabled
   path only pays a ``None`` check, so bounding the enabled overhead
   bounds the disabled overhead a fortiori.

Plus end-to-end coverage of every instrumented layer: core solver,
capacity ledger, robust chain, online scheduler, fault injector,
resilience runtime, experiment runner and the CLI flags.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import repro.obs.metrics as obs_metrics
import repro.obs.trace as obs_trace
from repro import cli
from repro.controller import EntanglementController
from repro.core.registry import solve_robust
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.writer import _observability_markdown
from repro.topology import TopologyConfig, waxman_network


@pytest.fixture(scope="module")
def network40():
    return waxman_network(
        TopologyConfig(n_switches=40, n_users=8), rng=3
    )


def _solution_fingerprint(solution):
    return (
        solution.method,
        solution.feasible,
        solution.rate,
        tuple(sorted(repr(c) for c in solution.channels)),
        tuple(sorted(solution.users, key=repr)),
    )


class TestNoResultDrift:
    def test_solver_output_identical_with_instrumentation(self, network40):
        bare = solve_robust(network40, rng=3).solution
        with obs_metrics.collecting(), obs_trace.tracing():
            instrumented = solve_robust(network40, rng=3).solution
        assert _solution_fingerprint(bare) == _solution_fingerprint(
            instrumented
        )

    def test_counters_identical_across_same_seed_runs(self, network40):
        def run():
            with obs_metrics.collecting() as registry:
                solve_robust(network40, rng=3)
            return registry.counters(), registry.gauges()

        first_counters, first_gauges = run()
        second_counters, second_gauges = run()
        assert first_counters == second_counters
        assert first_gauges == second_gauges
        assert first_counters["core.dijkstra.calls"] > 0

    def test_span_structure_identical_across_same_seed_runs(self, network40):
        def run():
            with obs_trace.tracing() as tracer:
                solve_robust(network40, rng=3)
            return [
                (s.name, s.span_id, s.parent_id, s.attrs)
                for s in tracer.spans
            ]

        assert run() == run()


class TestHotPathCounters:
    def test_robust_solve_publishes_solver_counters(self, network40):
        with obs_metrics.collecting() as registry:
            result = solve_robust(network40, rng=3)
        assert result.solution.feasible
        counters = registry.counters()
        assert counters["core.dijkstra.calls"] > 0
        assert counters["core.dijkstra.relaxations"] > 0
        assert counters["core.ledger.reserves"] > 0
        assert counters["solver.robust.calls"] == 1
        assert counters["solver.robust.attempts"] >= 1
        gauges = registry.gauges()
        assert gauges["core.ledger.peak_occupancy"] > 0
        summaries = registry.histogram_summaries()
        assert summaries["solver.robust.attempt_seconds"]["count"] >= 1

    def test_controller_serve_counters(self, network40):
        with obs_metrics.collecting() as registry:
            controller = EntanglementController(network40, rng=3)
            report = controller.serve()
        counters = registry.counters()
        assert counters["controller.serve.requests"] == 1
        assert counters["controller.plan.calls"] == 1
        if report.entangled:
            assert counters["controller.serve.entangled"] == 1

    def test_resilient_serve_counters(self, network40):
        with obs_metrics.collecting() as registry:
            controller = EntanglementController(network40, rng=3)
            controller.serve_resilient(request_name="req-1")
        counters = registry.counters()
        assert counters["resilience.runtime.requests"] == 1
        dispositions = [
            name
            for name in counters
            if name.startswith("resilience.runtime.dispositions.")
        ]
        assert dispositions, "no disposition counter published"

    def test_experiment_runner_counters(self):
        config = ExperimentConfig(
            n_switches=12,
            n_users=4,
            n_networks=3,
            methods=("conflict_free",),
        )
        with obs_metrics.collecting() as registry:
            run_experiment(config)
        counters = registry.counters()
        assert counters["experiments.trials"] == 3
        assert counters["experiments.solves.conflict_free"] == 3
        assert (
            registry.histogram_summaries()["experiments.trial_seconds"][
                "count"
            ]
            == 3
        )

    def test_report_writer_obs_section(self):
        assert _observability_markdown() == ""
        with obs_metrics.collecting() as registry:
            registry.inc("experiments.trials", 3)
            registry.observe("experiments.trial_seconds", 0.01)
            section = _observability_markdown()
        assert "Observability summary" in section
        assert "experiments.trials" in section
        assert "Per-trial wall time" in section


class TestOverheadGuard:
    def test_enabled_overhead_under_budget(self, network40):
        budget = float(
            os.environ.get("REPRO_OBS_OVERHEAD_BUDGET", "0.05")
        )

        def best_of(n=5):
            best = float("inf")
            for _ in range(n):
                start = time.perf_counter()
                solve_robust(network40, rng=3)
                best = min(best, time.perf_counter() - start)
            return best

        best_of(n=2)  # warm caches before timing
        # Timing comparisons at millisecond scale are noisy: take the
        # best-of-N for each mode and allow a few attempts before
        # declaring a regression.  A 1 ms absolute floor keeps tiny
        # baselines from amplifying scheduler jitter into percentages.
        attempts = []
        for _ in range(4):
            disabled = best_of()
            with obs_metrics.collecting():
                enabled = best_of()
            attempts.append((disabled, enabled))
            if enabled <= disabled * (1.0 + budget) + 1e-3:
                return
        pytest.fail(
            f"instrumentation overhead exceeded {budget:.0%} in every "
            f"attempt: {attempts}"
        )


class TestCliFlags:
    ARGS = ["solve", "--robust", "--switches", "20", "--users", "4"]

    def test_metrics_flag_writes_nonzero_solver_counters(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert cli.main(self.ARGS + ["--metrics", str(path)]) == 0
        payload = json.loads(path.read_text())
        counters = payload["counters"]
        assert counters["core.dijkstra.calls"] > 0
        assert counters["core.ledger.reserves"] > 0
        assert counters["solver.robust.attempts"] >= 1

    def test_metrics_counters_identical_across_runs(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(self.ARGS + ["--metrics", str(first)]) == 0
        assert cli.main(self.ARGS + ["--metrics", str(second)]) == 0
        a = json.loads(first.read_text())
        b = json.loads(second.read_text())
        assert a["counters"] == b["counters"]
        assert a["gauges"] == b["gauges"]

    def test_global_flag_position_works(self, tmp_path):
        path = tmp_path / "metrics.json"
        argv = ["--metrics", str(path)] + self.ARGS
        assert cli.main(argv) == 0
        assert json.loads(path.read_text())["counters"]

    def test_stdout_identical_with_and_without_metrics(
        self, tmp_path, capsys
    ):
        plain = ["solve", "--switches", "20", "--users", "4"]
        assert cli.main(plain) == 0
        bare_out = capsys.readouterr().out
        path = tmp_path / "metrics.json"
        assert cli.main(plain + ["--metrics", str(path)]) == 0
        instrumented_out = capsys.readouterr().out
        assert bare_out == instrumented_out

    def test_prometheus_format(self, tmp_path):
        path = tmp_path / "metrics.prom"
        argv = self.ARGS + [
            "--metrics", str(path), "--metrics-format", "prom",
        ]
        assert cli.main(argv) == 0
        text = path.read_text()
        assert "# TYPE repro_core_dijkstra_calls_total counter" in text

    def test_trace_flag_writes_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert cli.main(self.ARGS + ["--trace", str(path)]) == 0
        spans = [
            json.loads(line) for line in path.read_text().splitlines()
        ]
        assert any(s["name"] == "solve_robust" for s in spans)

    def test_obs_subcommand_json(self, capsys):
        argv = ["obs", "--switches", "20", "--users", "4"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counters"]["core.dijkstra.calls"] > 0

    def test_obs_subcommand_prom(self, capsys):
        argv = [
            "obs", "--switches", "20", "--users", "4", "--format", "prom",
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("# TYPE repro_")

    def test_resilience_command_publishes_fault_counters(self, tmp_path):
        path = tmp_path / "metrics.json"
        argv = [
            "resilience",
            "--switches", "16",
            "--users", "6",
            "--faults", "4",
            "--horizon", "20",
            "--metrics", str(path),
        ]
        assert cli.main(argv) == 0
        counters = json.loads(path.read_text())["counters"]
        assert counters.get("resilience.faults.injected", 0) > 0
        assert any(
            name.startswith("sim.online.") for name in counters
        )

    def test_cli_leaves_collection_disabled(self, tmp_path):
        path = tmp_path / "metrics.json"
        assert cli.main(self.ARGS + ["--metrics", str(path)]) == 0
        assert obs_metrics.active() is None
        assert obs_trace.active_tracer() is None


class TestDeprecatedAliases:
    """The pre-1.1 private names ``_dijkstra`` / ``_trace_path`` are gone."""

    def test_unknown_attribute_still_raises(self):
        import repro.core.channel as channel

        with pytest.raises(AttributeError):
            channel.no_such_name
        for name in ("_dijkstra", "_trace_path"):
            with pytest.raises(AttributeError):
                getattr(channel, name)
