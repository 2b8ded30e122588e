"""End-to-end integration tests across the whole stack.

These exercise the full pipeline the way the paper's evaluation does:
generate topology → route with every algorithm → validate → compare →
Monte-Carlo-verify, across all three topology generators.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ExperimentConfig,
    TopologyConfig,
    generate,
    simulate_solution,
    solve,
    validate_solution,
)
from repro.core.registry import SOLVERS
from repro.experiments.runner import CAPACITY_EXEMPT_METHODS, run_on_network

ALL_METHODS = ("optimal", "conflict_free", "prim", "eqcast", "nfusion")
TOPOLOGIES = ("waxman", "watts_strogatz", "volchenkov")

SMALL = TopologyConfig(
    n_switches=15, n_users=5, avg_degree=4.0, qubits_per_switch=4
)


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("method", ALL_METHODS)
class TestEveryMethodOnEveryTopology:
    def test_valid_solution(self, topology, method):
        for seed in range(3):
            network = generate(topology, SMALL, rng=seed)
            solution = solve(method, network, rng=seed)
            report = validate_solution(
                network,
                solution,
                enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
            )
            assert report.ok, f"{method}/{topology}/{seed}: {report}"

    def test_feasible_solutions_span(self, topology, method):
        network = generate(topology, SMALL, rng=1)
        solution = solve(method, network, rng=1)
        if solution.feasible:
            assert validate_solution(
                network,
                solution,
                enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
            ).ok


class TestCrossAlgorithmInvariants:
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_optimal_dominates_everything(self, topology):
        for seed in range(4):
            network = generate(topology, SMALL, rng=seed)
            rates = run_on_network(network, list(ALL_METHODS), rng=seed)
            for method, rate in rates.items():
                assert rate <= rates["optimal"] + 1e-12, (
                    f"{method} beat optimal on {topology}/{seed}"
                )

    def test_more_qubits_never_hurt_heuristics(self):
        for seed in range(4):
            tight = generate("waxman", SMALL.replace(qubits_per_switch=2), rng=seed)
            roomy = tight.with_switch_qubits(12)
            for method in ("conflict_free", "prim"):
                tight_rate = solve(method, tight, rng=seed).rate
                roomy_rate = solve(method, roomy, rng=seed).rate
                assert roomy_rate >= tight_rate - 1e-12

    def test_higher_swap_prob_never_hurts(self):
        from repro.network import NetworkParams

        for seed in range(3):
            network = generate("waxman", SMALL, rng=seed)
            low = network.with_params(NetworkParams(alpha=1e-4, swap_prob=0.6))
            high = network.with_params(NetworkParams(alpha=1e-4, swap_prob=0.95))
            for method in ("optimal", "conflict_free", "prim"):
                assert (
                    solve(method, high, rng=seed).rate
                    >= solve(method, low, rng=seed).rate - 1e-12
                )

    def test_alg3_matches_alg2_under_sufficient_condition(self):
        config = SMALL.replace(qubits_per_switch=2 * SMALL.n_users)
        for seed in range(4):
            network = generate("waxman", config, rng=seed)
            optimal = solve("optimal", network)
            conflict_free = solve("conflict_free", network)
            assert math.isclose(
                conflict_free.log_rate, optimal.log_rate, rel_tol=1e-9
            )


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("method", ("optimal", "prim", "nfusion"))
    def test_analytic_rate_matches_simulation(self, method):
        network = generate("waxman", SMALL, rng=3)
        solution = solve(method, network, rng=3)
        if not solution.feasible:
            pytest.skip(f"{method} infeasible on this instance")
        result = simulate_solution(network, solution, trials=50_000, rng=0)
        assert result.consistent, (
            f"{method}: empirical {result.empirical_rate:.4e} vs "
            f"analytic {result.analytic_rate:.4e}"
        )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    qubits=st.sampled_from([2, 4, 8]),
    topology=st.sampled_from(TOPOLOGIES),
)
def test_property_full_pipeline_never_produces_invalid_output(
    seed, qubits, topology
):
    """The grand invariant: any topology, any budget, every solver either
    fails cleanly (rate 0) or emits a valid capacity-respecting tree."""
    config = TopologyConfig(
        n_switches=10, n_users=4, avg_degree=4.0, qubits_per_switch=qubits
    )
    network = generate(topology, config, rng=seed)
    for method in ALL_METHODS:
        solution = solve(method, network, rng=seed)
        report = validate_solution(
            network,
            solution,
            enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
        )
        assert report.ok, f"{method}: {report}"
        if not solution.feasible:
            assert solution.rate == 0.0


class TestPublicAPI:
    def test_version(self):
        import repro

        assert repro.__version__

    def test_all_exports_resolvable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_registry_has_at_least_six_solvers(self):
        assert len(SOLVERS) >= 6

    def test_quickstart_snippet(self):
        """The README quickstart must actually work."""
        from repro import TopologyConfig, generate, solve

        network = generate("waxman", TopologyConfig(), rng=42)
        solution = solve("conflict_free", network)
        assert solution.feasible
        assert 0 < solution.rate < 1
