"""The online loop's ledger telemetry counts each admitted tree once.

Every request of a fault-free run ends released, so when no solve
rolls back the qubits the ledgers reserved must equal the qubits they
released.  Routing on a fork and then reserving the same tree on the
live ledger counted each admitted tree twice on the reserve side only.
"""

from __future__ import annotations

import pytest

import repro.obs.metrics as obs_metrics
from repro.sim.online import OnlineScheduler
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.tenancy import ReplicationPolicy
from repro.topology import TopologyConfig, generate


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("method", ["prim", "conflict_free"])
def test_fault_free_run_reserves_what_it_releases(method, k):
    network = generate(
        "waxman", TopologyConfig(n_switches=15, n_users=6), rng=5
    )
    requests = generate_workload(
        network.user_ids, WorkloadSpec(arrival_rate=3, horizon=6), rng=5
    )
    with obs_metrics.collecting() as registry:
        result = OnlineScheduler(
            network,
            method=method,
            rng=5,
            replication=ReplicationPolicy(k=k),
        ).run(requests)
    counters = registry.counters()
    assert result.n_accepted > 0
    assert len(result.outcomes) == len(requests)
    # A rollback publishes no release; this setup has none.
    assert counters.get("core.ledger.rollbacks", 0) == 0
    assert (
        counters["core.ledger.qubits_reserved"]
        == counters["core.ledger.qubits_released"]
    )
