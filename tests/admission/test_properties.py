"""Property tests: admission control never harms safety or fairness.

Two whole-stack invariants, for *any* shed policy and seed:

* **Conservativeness** — with a patient workload (every request can
  wait out the backlog), the set of requests served behind admission
  control is a subset of the set served with the door wide open.
  Admission may refuse work; it must never conjure capacity.
* **Capacity safety** — per-switch peak qubit usage never exceeds the
  switch budget Q_r, no matter how hard the front door is hammered.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.admission import SHED_POLICIES, AdmissionController
from repro.sim.online import OnlineScheduler
from repro.sim.workload import WorkloadSpec, generate_workload
from repro.topology.base import TopologyConfig
from repro.topology.waxman import waxman_network

SMALL = TopologyConfig(
    n_switches=10, n_users=4, avg_degree=4.0, qubits_per_switch=4
)

#: Patience long enough that the open-door run drains every backlog:
#: the horizon is 6 slots and holds are short, so ~200 retry slots
#: guarantee an idle network for any request that is routable at all.
PATIENCE = 200

SPEC = WorkloadSpec(
    arrival_rate=2.0,
    horizon=6,
    mean_hold=2.0,
    max_wait=PATIENCE,
    n_tenants=2,
)


def _served(result):
    return {o.request.name for o in result.outcomes if o.accepted}


def _run(network, seed, admission):
    requests = generate_workload(network.user_ids, SPEC, rng=seed + 1)
    scheduler = OnlineScheduler(network, rng=seed, admission=admission)
    return scheduler.run(requests)


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(SHED_POLICIES),
    queue_size=st.integers(1, 4),
    rate=st.floats(0.3, 1.5),
)
# Draws where the brownout tier once served part of a group that the
# network itself splits, which the open door rejects.
@example(seed=69, policy="drop-newest", queue_size=3, rate=0.75)
@example(seed=831, policy="drop-newest", queue_size=4, rate=1.0)
@example(
    seed=5870, policy="deadline-aware", queue_size=4, rate=1.4534968064866316
)
@example(
    seed=272, policy="drop-oldest", queue_size=4, rate=0.45038781490097546
)
def test_admission_is_conservative_and_capacity_safe(
    seed, policy, queue_size, rate
):
    network = waxman_network(SMALL, rng=seed)
    admission = AdmissionController.default(
        network,
        rate=rate,
        burst=2.0,
        bulkhead=3,
        queue_size=queue_size,
        shed_policy=policy,
    )
    gated = _run(network, seed, admission)
    open_door = _run(network, seed, None)

    # Conservativeness: behind the door, strictly fewer (or equal).
    assert _served(gated) <= _served(open_door)

    # Capacity safety at every slot (peak is the per-switch max over
    # the run), and exactly one terminal disposition per request.
    for switch, peak in gated.peak_qubit_usage.items():
        assert peak <= (network.qubits_of(switch) or 0)
    assert len(gated.resilience.dispositions) == len(gated.outcomes)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    policy=st.sampled_from(SHED_POLICIES),
)
def test_shed_decisions_are_reproducible(seed, policy):
    network = waxman_network(SMALL, rng=seed)

    def run_once():
        admission = AdmissionController.default(
            network,
            rate=0.5,
            burst=1.0,
            bulkhead=2,
            queue_size=2,
            shed_policy=policy,
        )
        return _run(network, seed, admission)

    first, second = run_once(), run_once()
    assert first.resilience.to_dict() == second.resilience.to_dict()
    assert first.admission == second.admission
