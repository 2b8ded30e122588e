"""Scale smoke tests: the library stays usable well beyond paper scale."""

from __future__ import annotations

import json
import time

import pytest

from repro.core.registry import solve
from repro.core.tree import validate_solution
from repro.topology import TopologyConfig, waxman_network

BIG = TopologyConfig(
    n_switches=300, n_users=20, avg_degree=6.0, qubits_per_switch=4
)


@pytest.fixture(scope="module")
def big_network():
    return waxman_network(BIG, rng=1)


class TestScale:
    def test_generation_under_limit(self):
        start = time.perf_counter()
        network = waxman_network(BIG, rng=2)
        elapsed = time.perf_counter() - start
        assert network.is_connected()
        assert elapsed < 10.0

    @pytest.mark.parametrize("method", ["optimal", "conflict_free"])
    def test_routing_300_switches_under_limit(self, big_network, method):
        start = time.perf_counter()
        solution = solve(method, big_network, rng=0)
        elapsed = time.perf_counter() - start
        assert solution.feasible
        assert elapsed < 5.0, f"{method} took {elapsed:.1f}s"
        report = validate_solution(
            big_network, solution, enforce_capacity=method != "optimal"
        )
        assert report.ok, str(report)

    def test_prim_300_switches_under_limit(self, big_network):
        start = time.perf_counter()
        solution = solve("prim", big_network, rng=0)
        elapsed = time.perf_counter() - start
        assert solution.feasible
        assert elapsed < 20.0  # |U|² Dijkstras; still interactive

    def test_20_user_tree_shape(self, big_network):
        solution = solve("conflict_free", big_network, rng=0)
        assert solution.n_channels == 19
        assert validate_solution(big_network, solution).ok
        assert 0.0 < solution.rate < 1.0


class TestOverload:
    """Flood the serving path at ~10x capacity behind admission control.

    The overload-soak acceptance gates: the capacity ledger never
    overbooks a switch, every flooded request ends in exactly one
    attributable terminal disposition, and two same-seed floods make
    byte-identical shed decisions.
    """

    SERVE = TopologyConfig(
        n_switches=20, n_users=8, avg_degree=5.0, qubits_per_switch=4
    )

    def _flood(self, network, seed: int):
        from repro.admission import AdmissionController
        from repro.sim.online import OnlineScheduler
        from repro.sim.workload import WorkloadSpec, generate_workload

        # ~20 switches x 4 qubits serve a handful of concurrent pairs;
        # 10 requests/slot with multi-slot holds is ~10x that.
        spec = WorkloadSpec(
            arrival_rate=10.0,
            horizon=30,
            mean_hold=5.0,
            max_wait=4,
            n_tenants=4,
        )
        requests = generate_workload(
            network.user_ids, spec, rng=seed + 1
        )
        admission = AdmissionController.default(
            network,
            rate=1.0,
            burst=3.0,
            bulkhead=8,
            queue_size=8,
            shed_policy="deadline-aware",
        )
        scheduler = OnlineScheduler(
            network, rng=seed, admission=admission
        )
        return scheduler.run(requests), requests

    def test_10x_flood_never_overbooks_and_attributes_everything(self):
        network = waxman_network(self.SERVE, rng=3)
        start = time.perf_counter()
        result, requests = self._flood(network, seed=11)
        elapsed = time.perf_counter() - start
        assert len(requests) >= 250  # genuinely a flood
        assert elapsed < 60.0

        # Gate 1: the ledger never overbooks a switch at any slot.
        for switch, peak in result.peak_qubit_usage.items():
            budget = network.qubits_of(switch) or 0
            assert peak <= budget, f"{switch} overbooked: {peak}/{budget}"

        # Gate 2: exactly one terminal disposition per request.
        report = result.resilience
        assert set(report.dispositions) == {r.name for r in requests}
        assert len(result.outcomes) == len(requests)
        for disposition in report.dispositions.values():
            if disposition.status == "shed":
                assert disposition.reason

        # The door actually did work under the flood.
        assert result.admission["shed_total"] > 0
        assert result.n_accepted > 0

    def test_10x_flood_is_deterministic(self):
        network = waxman_network(self.SERVE, rng=3)
        first, _ = self._flood(network, seed=11)
        second, _ = self._flood(network, seed=11)
        assert first.resilience.to_dict() == second.resilience.to_dict()
        assert json.dumps(first.admission, sort_keys=True) == json.dumps(
            second.admission, sort_keys=True
        )
