"""The online loop's ledger telemetry counts each admitted tree once.

Every request of a run ends released, so when no solve rolls back the
qubits the ledgers reserved must equal the qubits they released.
Routing on a fork and then reserving the same tree on the live ledger
counted each admitted tree twice on the reserve side only.  A solve
that gets stuck rolls its reservations back, and the rollback counts
them in ``core.ledger.qubits_rolled_back``, once however deep the
transactions nest.  Faulty runs balance the same way: a repair spends
on the live ledger, so a kept tree is released once when it ends and a
refused one is rolled back, where repairs on forks published reserves
and releases that no tree kept.
"""

from __future__ import annotations

import pytest

import repro.obs.metrics as obs_metrics
from repro.core.ledger import CapacityLedger
from repro.resilience.faults import FaultInjector, random_schedule
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


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("seed", range(1, 9))
def test_faulty_run_reserves_what_it_releases_or_rolls_back(seed, k):
    network = generate(
        "waxman", TopologyConfig(n_switches=15, n_users=6), rng=seed
    )
    requests = generate_workload(
        network.user_ids, WorkloadSpec(arrival_rate=3, horizon=6), rng=seed
    )
    schedule = random_schedule(network, n_faults=4, horizon=6, rng=seed)
    with obs_metrics.collecting() as registry:
        result = OnlineScheduler(
            network,
            rng=seed,
            replication=ReplicationPolicy(k=k),
            fault_injector=FaultInjector(schedule, network),
        ).run(requests)
    counters = registry.counters()
    assert len(result.outcomes) == len(requests)
    assert (
        counters["core.ledger.qubits_reserved"]
        == counters["core.ledger.qubits_released"]
        + counters.get("core.ledger.qubits_rolled_back", 0)
    )


def test_rolled_back_solves_are_counted():
    # Seed 14 on a 15-switch Waxman network: three Prim solves reserve
    # channels, get stuck and roll them back.
    network = generate(
        "waxman", TopologyConfig(n_switches=15, n_users=6), rng=14
    )
    spec = WorkloadSpec(arrival_rate=5.0, horizon=8, mean_hold=6.0, max_wait=2)
    requests = generate_workload(network.user_ids, spec, rng=14)
    with obs_metrics.collecting() as registry:
        OnlineScheduler(network, method="prim", rng=14).run(requests)
    counters = registry.counters()
    assert counters["core.ledger.rollbacks"] > 0
    assert counters["core.ledger.qubits_rolled_back"] > 0
    assert (
        counters["core.ledger.qubits_reserved"]
        == counters["core.ledger.qubits_released"]
        + counters["core.ledger.qubits_rolled_back"]
    )


def test_nested_rollbacks_count_each_qubit_once():
    ledger = CapacityLedger({"s": 8, "t": 8})
    with obs_metrics.collecting() as registry:
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                ledger.reserve({"s": 2})
                with ledger.transaction():
                    ledger.reserve({"t": 4})
                with pytest.raises(KeyError):
                    with ledger.transaction():
                        ledger.reserve({"s": 2, "t": 2})
                        raise KeyError("inner")
                raise RuntimeError("outer")
    counters = registry.counters()
    assert ledger.as_dict() == {"s": 8, "t": 8}
    assert counters["core.ledger.rollbacks"] == 2
    # inner: 4 qubits; outer: its own 2 and the committed inner 4.
    assert counters["core.ledger.qubits_rolled_back"] == 10
    assert counters["core.ledger.qubits_reserved"] == 10
