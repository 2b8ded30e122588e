"""Fault-aware simulation tests: engine, online scheduler, controller.

These pin down the resilient-runtime semantics end to end: permanent
faults surface as re-routable exceptions, transient flaps only delay,
retry policies bound the spend, deadlines abandon attributably, and
graceful degradation keeps serving the largest surviving user subset
without ever overbooking switch capacity.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

import repro.obs.metrics as obs_metrics
from repro.controller import EntanglementController
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.extensions import recovery
from repro.extensions.recovery import _largest_served_component
from repro.network import NetworkBuilder, NetworkParams
from repro.network.errors import DeadlineExceededError, TransientFaultError
from repro.network.link import fiber_key
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.resilience.report import (
    ABANDONED,
    DEADLINE_EXCEEDED,
    DEGRADED,
    SERVED,
)
from repro.resilience.retry import FixedRetryPolicy
from repro.sim.engine import SlottedEntanglementSimulator
from repro.sim.online import EntanglementRequest, OnlineScheduler
from repro.utils.rng import ensure_rng


def _injector(*events: FaultEvent) -> FaultInjector:
    return FaultInjector(FaultSchedule(events))


# ----------------------------------------------------------------------
# Engine: SlottedEntanglementSimulator under faults
# ----------------------------------------------------------------------
class TestEngineFaults:
    def test_permanent_cut_raises_transient_fault_error(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)
        simulator = SlottedEntanglementSimulator(
            direct_pair,
            solution,
            rng=1,
            fault_injector=_injector(
                FaultEvent(0, FaultKind.FIBER_CUT, ("alice", "bob"))
            ),
        )
        with pytest.raises(TransientFaultError) as excinfo:
            simulator.run(max_slots=10)
        fault = excinfo.value
        assert fault.fibers == (fiber_key("alice", "bob"),)
        assert fault.switches == ()
        assert fault.partial is not None
        assert not fault.partial.succeeded
        assert fault.partial.abort_reason == "faulted"
        assert fault.partial.faulted_slots == 1

    def test_dark_switch_raises_with_switch_attribution(self, line_network):
        solution = solve_prim(line_network, rng=1)
        simulator = SlottedEntanglementSimulator(
            line_network,
            solution,
            rng=1,
            fault_injector=_injector(
                FaultEvent(0, FaultKind.SWITCH_DARK, "s0")
            ),
        )
        with pytest.raises(TransientFaultError) as excinfo:
            simulator.run(max_slots=10)
        assert "s0" in excinfo.value.switches

    def test_transient_flap_delays_but_recovers(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)
        simulator = SlottedEntanglementSimulator(
            direct_pair,
            solution,
            rng=7,
            fault_injector=_injector(
                FaultEvent(
                    0, FaultKind.TRANSIENT_FLAP, ("alice", "bob"), duration=3
                )
            ),
        )
        result = simulator.run(max_slots=1000)
        assert result.succeeded
        assert result.faulted_slots == 3
        assert result.slots_used > 3  # could not finish inside the flap

    def test_flap_consumes_retry_budget(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)
        simulator = SlottedEntanglementSimulator(
            direct_pair,
            solution,
            rng=7,
            retry_policy=FixedRetryPolicy(delay=0, max_attempts=3),
            fault_injector=_injector(
                FaultEvent(
                    0, FaultKind.TRANSIENT_FLAP, ("alice", "bob"), duration=50
                )
            ),
        )
        result = simulator.run(max_slots=1000)
        assert not result.succeeded
        assert result.abort_reason == "retry-budget-exhausted"
        assert result.retries_spent == 2  # attempts 1 and 2 retried, 3 gave up
        assert result.faulted_slots == 3

    def test_deadline_raises_with_partial(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)
        simulator = SlottedEntanglementSimulator(direct_pair, solution, rng=1)
        with pytest.raises(DeadlineExceededError) as excinfo:
            simulator.run(max_slots=1000, deadline_slot=0)
        exc = excinfo.value
        assert exc.deadline == 0
        assert exc.partial is not None
        assert exc.partial.abort_reason == "deadline"
        assert exc.partial.slots_used == 0

    def test_start_slot_shifts_deadline_clock(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)
        simulator = SlottedEntanglementSimulator(
            direct_pair, solution, rng=1, start_slot=10
        )
        with pytest.raises(DeadlineExceededError):
            simulator.run(max_slots=1000, deadline_slot=10)

    def test_storm_slows_entanglement(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)

        def mean_slots(injector):
            simulator = SlottedEntanglementSimulator(
                direct_pair, solution, rng=11, fault_injector=injector
            )
            total = 0
            for _ in range(200):
                result = simulator.run(max_slots=10_000)
                assert result.succeeded
                total += result.slots_used
                if injector is not None:
                    injector.reset()
            return total / 200

        calm = mean_slots(None)
        stormy = mean_slots(
            _injector(
                FaultEvent(
                    0,
                    FaultKind.DECOHERENCE_STORM,
                    duration=100_000,
                    severity=0.8,
                )
            )
        )
        # p drops from ~0.95 to ~0.19; the mean must blow up accordingly.
        assert stormy > 2.5 * calm

    def test_all_failure_batch_is_explicit(self, params_q09):
        # A 3000 km direct fiber with alpha=1e-2: p = e^-30 — the run
        # cannot realistically succeed, and the summary must say so
        # instead of hiding behind a bare float.
        network = (
            NetworkBuilder(NetworkParams(alpha=1e-2, swap_prob=0.9))
            .user("alice", (0, 0))
            .user("bob", (3000, 0))
            .fiber("alice", "bob")
            .build()
        )
        solution = solve_prim(network, rng=1)
        simulator = SlottedEntanglementSimulator(network, solution, rng=3)
        summary = simulator.slots_to_success_summary(runs=5, max_slots=3)
        assert summary.all_failed
        assert summary.successes == 0
        assert summary.failures == 5
        assert math.isnan(summary.mean_successful_slots)
        assert math.isinf(summary.mean_slots)
        # The legacy scalar keeps its inf sentinel.
        assert math.isinf(simulator.mean_slots_to_success(runs=2, max_slots=3))

    def test_summary_counts_partial_failures(self, direct_pair):
        solution = solve_prim(direct_pair, rng=1)
        simulator = SlottedEntanglementSimulator(direct_pair, solution, rng=5)
        summary = simulator.slots_to_success_summary(runs=50, max_slots=10_000)
        assert summary.runs == 50
        assert summary.successes == 50
        assert not summary.all_failed
        assert summary.mean_slots == summary.mean_successful_slots


# ----------------------------------------------------------------------
# Online scheduler: deadlines, mid-service faults, degradation
# ----------------------------------------------------------------------
class TestSchedulerResilience:
    def test_request_deadline_validation(self):
        with pytest.raises(ValueError):
            EntanglementRequest(
                name="r", users=("a", "b"), arrival=5, deadline=3
            )
        with pytest.raises(ValueError):
            EntanglementRequest(
                name="r", users=("a", "b"), arrival=0, deadline=-1
            )
        request = EntanglementRequest(
            name="r", users=("a", "b"), arrival=1, max_wait=9, deadline=4
        )
        assert request.last_start_slot == 4  # deadline wins over max_wait

    def test_deadline_exceeded_disposition(self, star_network):
        # req-0 saturates the hub (4 qubits) for 10 slots; req-1's
        # deadline passes while it is starved of capacity.
        requests = [
            EntanglementRequest(
                name="req-0",
                users=("alice", "bob", "carol"),
                arrival=0,
                hold=10,
            ),
            EntanglementRequest(
                name="req-1",
                users=("alice", "bob"),
                arrival=1,
                deadline=3,
            ),
        ]
        scheduler = OnlineScheduler(star_network, rng=1)
        result = scheduler.run(requests)
        outcome = result.outcome_for("req-1")
        assert not outcome.accepted
        assert outcome.disposition == DEADLINE_EXCEEDED
        disposition = result.resilience.disposition_of("req-1")
        assert disposition.status == DEADLINE_EXCEEDED
        assert disposition.reason  # attributable
        assert result.outcome_for("req-0").accepted

    def test_mid_service_fault_abandons_attributably(self, line_network):
        # The only alice-bob path dies mid-hold: no repair, no 2-user
        # subset — the request must be abandoned with a cause.
        requests = [
            EntanglementRequest(
                name="req-0", users=("alice", "bob"), arrival=0, hold=10
            )
        ]
        scheduler = OnlineScheduler(
            line_network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(2, FaultKind.FIBER_CUT, ("s0", "s1"))
            ),
        )
        result = scheduler.run(requests)
        outcome = result.outcome_for("req-0")
        assert not outcome.accepted
        assert outcome.disposition == ABANDONED
        disposition = result.resilience.disposition_of("req-0")
        assert "mid-service fault at slot 2" in disposition.reason
        assert result.resilience.abandoned == 1
        # The abandoned reservation's qubits were released.
        assert all(peak <= 4 for peak in result.peak_qubit_usage.values())

    def test_degrades_to_largest_surviving_subset(self, star_network):
        users = ("alice", "bob", "carol")
        # Reproduce the admission-time route to find a leaf user (one
        # touched by exactly one channel), then cut that user's access
        # fiber: exactly one channel breaks and the other two users
        # must keep being served.
        preview = solve_prim(
            star_network,
            users,
            rng=ensure_rng(1),
            residual=CapacityLedger.from_network(star_network),
        )
        counts = {u: 0 for u in users}
        for channel in preview.channels:
            for endpoint in channel.endpoints:
                counts[endpoint] += 1
        leaf = min(users, key=lambda u: (counts[u], u))
        assert counts[leaf] == 1
        survivors = tuple(sorted(set(users) - {leaf}))

        requests = [
            EntanglementRequest(name="req-0", users=users, arrival=0, hold=10)
        ]
        scheduler = OnlineScheduler(
            star_network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(3, FaultKind.FIBER_CUT, (leaf, "hub"))
            ),
        )
        result = scheduler.run(requests)
        outcome = result.outcome_for("req-0")
        assert outcome.accepted
        assert outcome.degraded
        assert outcome.served_users == survivors
        assert outcome.solution.method.endswith("+degraded")
        disposition = result.resilience.disposition_of("req-0")
        assert disposition.status == DEGRADED
        assert disposition.served_users == survivors
        assert result.resilience.degradations == 1
        # Degraded trees still live within the switch budget.
        assert all(
            peak <= (star_network.qubits_of(s) or 0)
            for s, peak in result.peak_qubit_usage.items()
        )

    def test_degradation_can_be_disabled(self, star_network):
        users = ("alice", "bob", "carol")
        preview = solve_prim(
            star_network,
            users,
            rng=ensure_rng(1),
            residual=CapacityLedger.from_network(star_network),
        )
        counts = {u: 0 for u in users}
        for channel in preview.channels:
            for endpoint in channel.endpoints:
                counts[endpoint] += 1
        leaf = min(users, key=lambda u: (counts[u], u))

        requests = [
            EntanglementRequest(name="req-0", users=users, arrival=0, hold=10)
        ]
        scheduler = OnlineScheduler(
            star_network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(3, FaultKind.FIBER_CUT, (leaf, "hub"))
            ),
            allow_degradation=False,
        )
        result = scheduler.run(requests)
        assert result.outcome_for("req-0").disposition == ABANDONED

    def test_mid_service_repair_reroutes(self, params_q09):
        # Two disjoint 2-hop alice-bob paths; cutting the one in use
        # must re-route onto the spare, not abandon the request.
        network = (
            NetworkBuilder(params_q09)
            .user("alice", (0, 0))
            .user("bob", (1000, 0))
            .switch("s0", (500, 100), qubits=2)
            .switch("s1", (500, -100), qubits=2)
            .fiber("alice", "s0", 500)
            .fiber("s0", "bob", 500)
            .fiber("alice", "s1", 600)
            .fiber("s1", "bob", 600)
            .build()
        )
        preview = solve_prim(
            network,
            ("alice", "bob"),
            rng=ensure_rng(1),
            residual=CapacityLedger.from_network(network),
        )
        (channel,) = preview.channels
        used_switch = channel.switches[0]

        requests = [
            EntanglementRequest(
                name="req-0", users=("alice", "bob"), arrival=0, hold=10
            )
        ]
        scheduler = OnlineScheduler(
            network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(2, FaultKind.FIBER_CUT, ("alice", used_switch))
            ),
        )
        result = scheduler.run(requests)
        outcome = result.outcome_for("req-0")
        assert outcome.accepted
        assert not outcome.degraded
        assert outcome.reroutes == 1
        assert used_switch not in outcome.solution.channels[0].switches
        report = result.resilience
        assert report.reroutes == 1
        assert report.recovered == 1
        assert report.disposition_of("req-0").status == SERVED
        # Peak accounting covers both the original and repaired trees.
        assert all(
            peak <= (network.qubits_of(s) or 0)
            for s, peak in result.peak_qubit_usage.items()
        )

    def test_repaired_solution_is_verified_and_ledger_stays_consistent(
        self, params_q09
    ):
        # Same two-corridor shape as the reroute test: a repair swap
        # must (a) run the independent verifier on the repaired tree and
        # (b) move the reservation old→new atomically in the ledger, so
        # end-state residuals equal exactly the budgets minus what the
        # surviving reservation pins.
        network = (
            NetworkBuilder(params_q09)
            .user("alice", (0, 0))
            .user("bob", (1000, 0))
            .switch("s0", (500, 100), qubits=2)
            .switch("s1", (500, -100), qubits=2)
            .fiber("alice", "s0", 500)
            .fiber("s0", "bob", 500)
            .fiber("alice", "s1", 600)
            .fiber("s1", "bob", 600)
            .build()
        )
        preview = solve_prim(
            network,
            ("alice", "bob"),
            rng=ensure_rng(1),
            residual=CapacityLedger.from_network(network),
        )
        used_switch = preview.channels[0].switches[0]
        requests = [
            EntanglementRequest(
                name="req-0", users=("alice", "bob"), arrival=0, hold=10
            )
        ]
        scheduler = OnlineScheduler(
            network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(2, FaultKind.FIBER_CUT, ("alice", used_switch))
            ),
        )
        result = scheduler.run(requests)
        report = result.resilience
        assert report.reroutes == 1
        assert report.verifications >= 1
        assert report.verification_failures == 0
        # Only the spare corridor's switch may show peak usage after the
        # swap beyond the original; neither ever exceeds its 2 qubits.
        assert all(
            peak <= (network.qubits_of(s) or 0)
            for s, peak in result.peak_qubit_usage.items()
        )

    def test_verify_flag_off_skips_verifier(self, params_q09):
        network = (
            NetworkBuilder(params_q09)
            .user("alice", (0, 0))
            .user("bob", (1000, 0))
            .switch("s0", (500, 100), qubits=2)
            .switch("s1", (500, -100), qubits=2)
            .fiber("alice", "s0", 500)
            .fiber("s0", "bob", 500)
            .fiber("alice", "s1", 600)
            .fiber("s1", "bob", 600)
            .build()
        )
        preview = solve_prim(
            network,
            ("alice", "bob"),
            rng=ensure_rng(1),
            residual=CapacityLedger.from_network(network),
        )
        used_switch = preview.channels[0].switches[0]
        scheduler = OnlineScheduler(
            network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(2, FaultKind.FIBER_CUT, ("alice", used_switch))
            ),
            verify=False,
        )
        result = scheduler.run(
            [
                EntanglementRequest(
                    name="req-0", users=("alice", "bob"), arrival=0, hold=10
                )
            ]
        )
        assert result.resilience.verifications == 0
        assert result.resilience.reroutes == 1

    def test_retry_policy_paces_blocked_requests(self, star_network):
        # req-1 is blocked while req-0 holds the hub; a 1-attempt
        # policy must reject it immediately with attribution.
        requests = [
            EntanglementRequest(
                name="req-0",
                users=("alice", "bob", "carol"),
                arrival=0,
                hold=6,
            ),
            EntanglementRequest(
                name="req-1",
                users=("alice", "bob"),
                arrival=1,
                max_wait=20,
            ),
        ]
        scheduler = OnlineScheduler(
            star_network,
            rng=1,
            retry_policy=FixedRetryPolicy(delay=0, max_attempts=1),
        )
        result = scheduler.run(requests)
        disposition = result.resilience.disposition_of("req-1")
        assert disposition.status == "rejected"
        assert "retry policy exhausted" in disposition.reason

    @staticmethod
    def _contended_stream():
        # req-0 holds the whole hub for 3 slots, so req-1 (no wait) is
        # rejected and req-2, arriving as req-0 leaves, is served.
        return [
            EntanglementRequest(
                name="req-0", users=("alice", "bob", "carol"), arrival=0, hold=3
            ),
            EntanglementRequest(name="req-1", users=("alice", "bob"), arrival=1),
            EntanglementRequest(name="req-2", users=("alice", "carol"), arrival=3),
        ]

    def test_fault_free_run_has_one_disposition_each(self, star_network):
        result = OnlineScheduler(star_network, rng=1).run(
            self._contended_stream()
        )
        report = result.resilience
        statuses = {
            name: disposition.status
            for name, disposition in report.dispositions.items()
        }
        assert statuses == {
            "req-0": "served",
            "req-1": "rejected",
            "req-2": "served",
        }
        assert report.faults_injected == 0
        assert report.retries_spent == 0
        assert report.reroutes == 0
        assert [o.disposition for o in result.outcomes] == [
            "served",
            "rejected",
            "served",
        ]

    def test_rejections_counted_under_dispositions_metric(self, star_network):
        with obs_metrics.collecting() as registry:
            result = OnlineScheduler(star_network, rng=1).run(
                self._contended_stream()
            )
        rejected = sum(1 for o in result.outcomes if o.disposition == "rejected")
        assert rejected == 1
        counters = registry.counters()
        assert counters["sim.online.dispositions.rejected"] == rejected
        assert "sim.online.rejected" not in counters


class TestLargestServedComponent:
    def test_empty_when_no_pair_survives(self, star_network):
        assert _largest_served_component(("alice", "bob", "carol"), ()) == ()

    def test_picks_biggest_component(self, star_network):
        solution = solve_prim(star_network, ("alice", "bob", "carol"), rng=1)
        users = solution.users
        subset = _largest_served_component(users, solution.channels)
        assert subset == tuple(sorted(users, key=repr))


# ----------------------------------------------------------------------
# Controller: serve_resilient end to end
# ----------------------------------------------------------------------
class TestControllerResilience:
    def test_reroute_after_permanent_fault(self, two_path_network):
        controller = EntanglementController(
            two_path_network, method="prim", rng=5
        )
        plan = controller.plan(("alice", "bob"))
        (channel,) = plan.channels
        assert channel.switches == ("mid",)  # the good path wins initially

        report = controller.serve_resilient(
            ("alice", "bob"),
            injector=_injector(
                FaultEvent(0, FaultKind.FIBER_CUT, ("alice", "mid"))
            ),
        )
        assert report.entangled
        assert not report.degraded
        # The final tree avoids the cut fiber: only the direct fiber is
        # left, so no switches remain in the path.
        (final_channel,) = report.final_solution.channels
        assert final_channel.switches == ()
        assert report.report.reroutes >= 1
        assert report.report.recovered == 1
        assert report.report.disposition_of("request").status == SERVED

    def test_unrepairable_fault_abandons(self, direct_pair):
        controller = EntanglementController(direct_pair, method="prim", rng=5)
        report = controller.serve_resilient(
            ("alice", "bob"),
            injector=_injector(
                FaultEvent(0, FaultKind.FIBER_CUT, ("alice", "bob"))
            ),
        )
        assert not report.entangled
        assert report.served_users == ()
        disposition = report.report.disposition_of("request")
        assert disposition.status == ABANDONED
        assert "unrepairable" in disposition.reason

    def test_deadline_abandons_with_disposition(self, direct_pair):
        controller = EntanglementController(direct_pair, method="prim", rng=5)
        report = controller.serve_resilient(
            ("alice", "bob"), deadline_slot=0
        )
        assert not report.entangled
        disposition = report.report.disposition_of("request")
        assert disposition.status == DEADLINE_EXCEEDED
        assert "deadline" in disposition.reason

    def test_plain_serve_resilient_without_faults(self, line_network):
        controller = EntanglementController(line_network, rng=3)
        report = controller.serve_resilient(("alice", "bob"))
        assert report.entangled
        assert report.served_users == ("alice", "bob")
        assert report.report.disposition_of("request").status == SERVED
        assert report.windows_used == sum(r.slots_used for r in report.runs)


# ----------------------------------------------------------------------
# Audited recovery: a corrupted repair never re-enters service
# ----------------------------------------------------------------------
class TestAuditedRecovery:
    """Every path audits a recovered tree against the *damaged* view."""

    def test_serve_resilient_rejects_repair_missing_a_channel(
        self, two_path_network, monkeypatch
    ):
        real_repair = recovery.repair_solution

        def drop_one_channel(*args, **kwargs):
            rep = real_repair(*args, **kwargs)
            corrupted = replace(
                rep.solution, channels=rep.solution.channels[:-1]
            )
            return replace(rep, solution=corrupted)

        monkeypatch.setattr(recovery, "repair_solution", drop_one_channel)
        controller = EntanglementController(
            two_path_network, method="prim", rng=5
        )
        served = controller.serve_resilient(
            ("alice", "bob"),
            injector=_injector(
                FaultEvent(0, FaultKind.FIBER_CUT, ("alice", "mid"))
            ),
        )
        report = served.report
        assert report.verifications == 2  # the rejected repair, the replan
        assert report.verification_failures == 1
        (rejection,) = [
            line for line in report.fault_log if line.startswith("verify[")
        ]
        assert rejection.startswith("verify[request]: REJECTED")
        assert "channel-count" in rejection and "spanning" in rejection
        assert any("full replan" in line for line in report.fault_log)
        assert served.entangled
        (channel,) = served.final_solution.channels
        assert channel.switches == ()  # the direct fiber, freshly planned
        assert report.disposition_of("request").status == SERVED

    def test_online_rejects_repair_over_the_cut_fiber(
        self, two_path_network, monkeypatch
    ):
        real_repair = recovery.repair_solution

        def keep_broken_tree(network, solution, *args, **kwargs):
            rep = real_repair(network, solution, *args, **kwargs)
            stale = replace(solution, method=solution.method + "+repair")
            return replace(rep, solution=stale)

        monkeypatch.setattr(recovery, "repair_solution", keep_broken_tree)
        requests = [
            EntanglementRequest(
                name="r0", users=("alice", "bob"), arrival=0, hold=10
            )
        ]
        scheduler = OnlineScheduler(
            two_path_network,
            rng=1,
            fault_injector=_injector(
                FaultEvent(2, FaultKind.FIBER_CUT, ("alice", "mid"))
            ),
        )
        result = scheduler.run(requests)
        report = result.resilience
        assert report.verifications == 1
        assert report.verification_failures == 1
        assert any(
            line.startswith("verify[r0]: REJECTED path")
            for line in report.fault_log
        )
        # The only channel broke, so no subset survives to degrade to.
        assert result.outcome_for("r0").disposition == ABANDONED
