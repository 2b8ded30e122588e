"""Tests for experiment configuration and the runner."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core import registry
from repro.core.problem import Channel
from repro.experiments.config import DEFAULT_METHODS, ExperimentConfig
from repro.experiments.runner import (
    CAPACITY_EXEMPT_METHODS,
    ExperimentResult,
    MethodOutcome,
    _attach_bounds,
    run_experiment,
    run_on_network,
)

FAST = ExperimentConfig(
    n_switches=12,
    n_users=4,
    avg_degree=4.0,
    n_networks=3,
    seed=5,
)


class TestConfig:
    def test_paper_defaults(self):
        config = ExperimentConfig()
        assert config.topology == "waxman"
        assert config.n_switches == 50
        assert config.n_users == 10
        assert config.avg_degree == 6.0
        assert config.qubits_per_switch == 4
        assert config.swap_prob == 0.9
        assert config.n_networks == 20
        assert config.methods == DEFAULT_METHODS

    def test_topology_config_mirror(self):
        topo = ExperimentConfig(n_users=6, alpha=2e-4).topology_config()
        assert topo.n_users == 6
        assert topo.alpha == 2e-4

    def test_replace(self):
        config = ExperimentConfig().replace(swap_prob=0.5)
        assert config.swap_prob == 0.5

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(methods=())

    def test_bad_network_count_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_networks=0)


class TestRunOnNetwork:
    def test_all_methods_reported(self, medium_waxman):
        rates = run_on_network(
            medium_waxman, ["optimal", "prim", "eqcast"], rng=0
        )
        assert set(rates) == {"optimal", "prim", "eqcast"}
        assert all(r >= 0 for r in rates.values())

    def test_optimal_is_upper_bound(self, medium_waxman):
        rates = run_on_network(medium_waxman, list(DEFAULT_METHODS), rng=0)
        for method, rate in rates.items():
            assert rate <= rates["optimal"] + 1e-12, method

    def test_capacity_exemption_set(self):
        assert "optimal" in CAPACITY_EXEMPT_METHODS
        assert "prim" not in CAPACITY_EXEMPT_METHODS

    def test_rogue_solver_raises(self, medium_waxman, monkeypatch):
        """An inflated channel rate is a library bug, even under ``-O``."""

        def rogue(network, users=None, rng=None):
            solution = registry.solve("prim", network, users=users, rng=rng)
            first = solution.channels[0]
            inflated = Channel(first.path, first.log_rate + 1.0)
            return dataclasses.replace(
                solution, channels=(inflated,) + solution.channels[1:]
            )

        monkeypatch.setitem(registry.SOLVERS, "rogue", rogue)
        monkeypatch.setitem(registry.DISPLAY_NAMES, "rogue", "rogue")
        with pytest.raises(AssertionError, match="invalid solution"):
            run_on_network(medium_waxman, ["rogue"], rng=0)

    def test_rate_above_lp_bound_raises(self, medium_waxman):
        config = FAST.replace(bound="lp", methods=("prim",))
        with pytest.raises(AssertionError, match="certified LP bound"):
            _attach_bounds(medium_waxman, config, {"prim": 2.0})


class TestRunExperiment:
    def test_structure(self):
        result = run_experiment(FAST)
        assert isinstance(result, ExperimentResult)
        assert len(result.outcomes) == len(DEFAULT_METHODS)
        for outcome in result.outcomes:
            assert len(outcome.rates) == FAST.n_networks

    def test_deterministic_given_seed(self):
        a = run_experiment(FAST)
        b = run_experiment(FAST)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert oa.rates == ob.rates

    def test_different_seeds_differ(self):
        a = run_experiment(FAST)
        b = run_experiment(FAST.replace(seed=6))
        assert any(
            oa.rates != ob.rates for oa, ob in zip(a.outcomes, b.outcomes)
        )

    def test_outcome_lookup(self):
        result = run_experiment(FAST)
        assert result.outcome("prim").method == "prim"
        with pytest.raises(KeyError):
            result.outcome("nope")

    def test_mean_rates(self):
        result = run_experiment(FAST)
        means = result.mean_rates()
        assert set(means) == set(FAST.methods)
        for outcome in result.outcomes:
            assert math.isclose(means[outcome.method], outcome.mean_rate)

    def test_to_table(self):
        result = run_experiment(FAST)
        text = result.to_table(title="fast").render()
        assert "Alg-2" in text and "N-Fusion" in text

    def test_display_names(self):
        outcome = MethodOutcome("optimal", (0.5,))
        assert outcome.display == "Alg-2"

    def test_proposed_beat_baselines_on_defaults(self):
        """The headline shape on a reduced default config."""
        config = ExperimentConfig(n_networks=5, seed=3)
        result = run_experiment(config)
        rates = result.mean_rates()
        assert rates["optimal"] >= rates["conflict_free"] - 1e-12
        assert rates["conflict_free"] > rates["eqcast"]
        assert rates["conflict_free"] > rates["nfusion"]
        assert rates["prim"] > rates["eqcast"]
        assert rates["prim"] > rates["nfusion"]
