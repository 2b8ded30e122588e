"""k-redundant tree planning and the mid-service failover ladder."""

from __future__ import annotations

import pytest

from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.network import NetworkBuilder, NetworkParams
from repro.network.link import fiber_key
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.sim.online import EntanglementRequest, OnlineScheduler
from repro.tenancy import (
    EXHAUSTED,
    FAILOVER,
    INTACT,
    PRUNED,
    ReplicaSet,
    ReplicationPolicy,
    plan_replica_set,
)


@pytest.fixture
def diamond():
    """alice/bob joined by two fiber-disjoint one-switch corridors.

    The s0 corridor is much shorter, so the primary tree
    deterministically routes through s0 and the disjoint standby
    through s1.
    """
    params = NetworkParams(alpha=1e-4, swap_prob=0.9)
    return (
        NetworkBuilder(params)
        .user("alice", (0, 0))
        .user("bob", (200, 0))
        .switch("s0", (100, 0), qubits=8)
        .switch("s1", (100, 3000), qubits=8)
        .path(["alice", "s0", "bob"])
        .path(["alice", "s1", "bob"])
        .build()
    )


@pytest.fixture
def single_path():
    """alice - s0 - bob only: no disjoint standby exists."""
    params = NetworkParams(alpha=1e-4, swap_prob=0.9)
    return (
        NetworkBuilder(params)
        .user("alice", (0, 0))
        .user("bob", (200, 0))
        .switch("s0", (100, 0), qubits=8)
        .path(["alice", "s0", "bob"])
        .build()
    )


def _route_via(network, ledger):
    """Route on *ledger* itself, holding the tree a solve returns."""

    def route(view):
        solution = solve_prim(view, rng=0, residual=ledger)
        return solution if solution.feasible else None

    return route


def _plan(network, k=2, **policy_kwargs):
    ledger = CapacityLedger.from_network(network)
    # Routing the primary on the ledger holds it, as the scheduler does.
    primary = _route_via(network, ledger)(network)
    assert primary is not None
    policy = ReplicationPolicy(k=k, **policy_kwargs)
    rset = plan_replica_set(
        network, primary, ledger, policy, _route_via(network, ledger)
    )
    return rset, ledger


class TestPlanReplicaSet:
    def test_disjoint_standby_planned_and_reserved(self, diamond):
        rset, ledger = _plan(diamond)
        assert rset.k == 2
        assert rset.shortfall == 0
        # Replicas share no fiber: the second tree went through s1.
        fibers = [
            {
                fiber_key(u, v)
                for ch in sol.channels
                for u, v in zip(ch.path, ch.path[1:])
            }
            for sol in rset.replicas
        ]
        assert not fibers[0] & fibers[1]
        # The ledger holds exactly the replica set's combined usage.
        total = rset.total_usage()
        for switch in total:
            assert ledger.used(switch) == total[switch]

    def test_primary_prefers_the_short_corridor(self, diamond):
        rset, _ = _plan(diamond)
        assert "s0" in rset.serving_solution.switch_usage()

    def test_overlap_fallback_when_disjoint_infeasible(self, single_path):
        rset, _ = _plan(single_path)
        assert rset.k == 2  # second tree overlaps the first
        assert rset.shortfall == 0

    def test_no_overlap_means_shortfall(self, single_path):
        rset, ledger = _plan(single_path, allow_overlap=False)
        assert rset.k == 1
        assert rset.shortfall == 1
        # Only the primary is reserved.
        assert ledger.used("s0") == rset.total_usage().get("s0", 0)

    def test_capacity_shortfall_counted_not_fatal(self, single_path):
        # Budget fits one tree but not two: the standby's route fails.
        need = solve_prim(single_path, rng=0).switch_usage().get("s0", 0)
        ledger = CapacityLedger({"s0": need + need // 2})
        route = _route_via(single_path, ledger)
        primary = route(single_path)
        routed = []

        def recording_route(view):
            routed.append((view, route(view)))
            return routed[-1][1]

        rset = plan_replica_set(
            single_path,
            primary,
            ledger,
            ReplicationPolicy(k=2),
            recording_route,
        )
        assert rset.k == 1
        assert rset.shortfall == 1
        # The overlap fallback routed on the network itself and found
        # no capacity left beside the primary.
        assert routed[-1] == (single_path, None)
        assert ledger.used("s0") == need

    def test_route_exception_rolls_everything_back(self, diamond):
        ledger = CapacityLedger.from_network(diamond)
        route = _route_via(diamond, ledger)
        calls = []

        def exploding_route(view):
            # The first standby is held, then the second route crashes.
            calls.append(view)
            if len(calls) > 1:
                raise RuntimeError("mid-plan crash")
            return route(view)

        with pytest.raises(RuntimeError):
            # The caller's transaction spans routing the primary and
            # planning its standbys, as the scheduler's does.
            with ledger.transaction():
                primary = route(diamond)
                plan_replica_set(
                    diamond,
                    primary,
                    ledger,
                    ReplicationPolicy(k=3),
                    exploding_route,
                )
        assert len(calls) == 2
        assert all(ledger.used(s) == 0 for s in ledger)

    def test_route_exception_returns_only_the_standbys(self, diamond):
        ledger = CapacityLedger.from_network(diamond)
        route = _route_via(diamond, ledger)
        primary = route(diamond)
        held = ledger.as_dict()

        def exploding_route(view):
            route(view)
            raise RuntimeError("mid-plan crash")

        with pytest.raises(RuntimeError):
            plan_replica_set(
                diamond,
                primary,
                ledger,
                ReplicationPolicy(k=2),
                exploding_route,
            )
        # The caller's primary stays held; the standby is rolled back.
        assert ledger.as_dict() == held

    def test_k1_reserves_only_the_primary(self, diamond):
        rset, ledger = _plan(diamond, k=1)
        assert rset.k == 1
        assert rset.standby_count == 0
        assert sum(ledger.peak_usage().values()) == sum(
            rset.total_usage().values()
        )


class TestHandleFaults:
    def _fibers_of(self, solution):
        return {
            fiber_key(u, v)
            for ch in solution.channels
            for u, v in zip(ch.path, ch.path[1:])
        }

    def test_unrelated_fault_is_intact(self, diamond):
        rset, _ = _plan(diamond)
        event, released = rset.handle_faults(set(), {"nonexistent"})
        assert event == INTACT
        assert released == []
        assert rset.k == 2

    def test_standby_death_is_pruned(self, diamond):
        rset, _ = _plan(diamond)
        standby_fibers = self._fibers_of(rset.replicas[1])
        before_serving = rset.serving_solution
        event, released = rset.handle_faults(standby_fibers, set())
        assert event == PRUNED
        assert len(released) == 1
        assert rset.k == 1
        assert rset.serving_solution is before_serving
        assert rset.failovers == 0

    def test_serving_death_promotes_the_standby(self, diamond):
        rset, _ = _plan(diamond)
        serving_fibers = self._fibers_of(rset.serving_solution)
        standby = rset.replicas[1]
        event, released = rset.handle_faults(serving_fibers, set())
        assert event == FAILOVER
        assert len(released) == 1
        assert rset.serving_solution is standby
        assert rset.failovers == 1

    def test_total_loss_is_exhausted_but_keeps_serving_reservation(
        self, diamond
    ):
        rset, _ = _plan(diamond)
        serving = rset.serving_solution
        serving_usage = dict(rset.serving_usage)
        cuts = self._fibers_of(rset.replicas[0]) | self._fibers_of(
            rset.replicas[1]
        )
        event, released = rset.handle_faults(cuts, set())
        assert event == EXHAUSTED
        # The standby's qubits were returned; the (broken) serving
        # tree's reservation stays live for the repair ladder.
        assert len(released) == 1
        assert rset.k == 1
        assert rset.serving_solution is serving
        assert rset.serving_usage == serving_usage

    def test_usage_conservation_across_events(self, diamond):
        rset, ledger = _plan(diamond)
        total_before = sum(rset.total_usage().values())
        standby_fibers = self._fibers_of(rset.replicas[1])
        _, released = rset.handle_faults(standby_fibers, set())
        freed = sum(sum(u.values()) for u in released)
        assert sum(rset.total_usage().values()) + freed == total_before


class TestSchedulerFailover:
    def test_single_tree_fault_fails_over_without_repair(
        self, diamond, monkeypatch
    ):
        """k=2 serves straight through a serving-tree fault.

        The structural repair ladder must NOT run: failover is the
        cheaper rung below it.
        """
        import repro.extensions.recovery as recovery

        calls = []
        real_repair = recovery.repair_solution

        def counting_repair(*args, **kwargs):
            calls.append(1)
            return real_repair(*args, **kwargs)

        monkeypatch.setattr(recovery, "repair_solution", counting_repair)

        request = EntanglementRequest(
            name="r0", users=("alice", "bob"), arrival=0, hold=8
        )
        injector = FaultInjector(
            FaultSchedule([FaultEvent(2, FaultKind.SWITCH_DARK, "s0")])
        )
        scheduler = OnlineScheduler(
            diamond,
            rng=3,
            fault_injector=injector,
            replication=ReplicationPolicy(k=2),
        )
        result = scheduler.run([request])
        outcome = result.outcomes[0]
        assert outcome.accepted
        assert outcome.failovers == 1
        assert calls == []
        assert result.resilience is not None
        assert result.resilience.failovers == 1
        disposition = result.resilience.dispositions["r0"]
        assert disposition.failovers == 1

    def test_exhaustion_escalates_to_the_repair_ladder(self, diamond):
        """Killing every replica falls through to repair/degrade/abandon."""
        request = EntanglementRequest(
            name="r0", users=("alice", "bob"), arrival=0, hold=8
        )
        injector = FaultInjector(
            FaultSchedule(
                [
                    FaultEvent(2, FaultKind.SWITCH_DARK, "s0"),
                    FaultEvent(2, FaultKind.SWITCH_DARK, "s1"),
                ]
            )
        )
        scheduler = OnlineScheduler(
            diamond,
            rng=3,
            fault_injector=injector,
            replication=ReplicationPolicy(k=2),
        )
        result = scheduler.run([request])
        # No corridor survives: the request cannot be served through,
        # but it must still get exactly one attributed disposition.
        assert "r0" in result.resilience.dispositions
        assert not result.outcomes[0].accepted

    def test_planning_exception_leaks_no_qubit(self, diamond, monkeypatch):
        """The admission's transaction returns the routed primary too."""
        import repro.tenancy.replicas as replicas

        ledgers = []
        from_network = CapacityLedger.from_network.__func__

        def spying_from_network(cls, network):
            ledgers.append(from_network(cls, network))
            return ledgers[-1]

        def exploding_failures(*args, **kwargs):
            raise RuntimeError("mid-plan crash")

        monkeypatch.setattr(
            CapacityLedger, "from_network", classmethod(spying_from_network)
        )
        monkeypatch.setattr(replicas, "apply_failures", exploding_failures)
        request = EntanglementRequest(
            name="r0", users=("alice", "bob"), arrival=0, hold=8
        )
        scheduler = OnlineScheduler(
            diamond, rng=3, replication=ReplicationPolicy(k=2)
        )
        with pytest.raises(RuntimeError):
            scheduler.run([request])
        assert ledgers
        assert all(
            ledger.used(s) == 0 for ledger in ledgers for s in ledger
        )

    def test_replication_never_overbooks(self, diamond):
        requests = [
            EntanglementRequest(
                name=f"r{i}", users=("alice", "bob"), arrival=i, hold=4
            )
            for i in range(6)
        ]
        scheduler = OnlineScheduler(
            diamond, rng=5, replication=ReplicationPolicy(k=2)
        )
        result = scheduler.run(requests)
        for switch, peak in result.peak_qubit_usage.items():
            assert peak <= (diamond.qubits_of(switch) or 0)
