"""The online scheduler's slot phases run in a fixed order.

Each slot advances the fault clock (phase 0), releases completed
service (phase 1), handles mid-service faults (phase 2) and only then
routes candidates (phase 3).  Two orders are pinned here, each by a
run whose outcome would differ if they were swapped.
"""

from __future__ import annotations

from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.resilience.report import SERVED
from repro.sim.online import EntanglementRequest, OnlineScheduler


def _cut_at(slot: int, fiber) -> FaultInjector:
    return FaultInjector(
        FaultSchedule([FaultEvent(slot, FaultKind.FIBER_CUT, fiber)])
    )


def _run(network, fault_slot, fiber, request):
    scheduler = OnlineScheduler(
        network, rng=1, fault_injector=_cut_at(fault_slot, fiber)
    )
    result = scheduler.run([request])
    return result, result.outcome_for(request.name)


def test_cut_at_slot_t_is_seen_by_an_arrival_routed_at_t(two_path_network):
    # Phase 0 before phase 3: the short alice-mid-bob path is cut at
    # slot 2, so a request arriving at slot 2 routes over the long
    # direct fiber and is never hit by the fault.
    request = EntanglementRequest(
        name="req", users=("alice", "bob"), arrival=2, hold=3
    )
    result, outcome = _run(two_path_network, 2, ("alice", "mid"), request)
    assert outcome.disposition == SERVED
    assert outcome.start_slot == 2
    assert [c.path for c in outcome.solution.channels] == [("alice", "bob")]
    assert outcome.reroutes == 0
    assert result.resilience.reroutes == 0


def test_arrival_routed_before_the_cut_takes_the_short_path(two_path_network):
    # The control for the test above: a cut one slot later leaves the
    # arrival on the short path, which the cut then forces off it.
    request = EntanglementRequest(
        name="req", users=("alice", "bob"), arrival=2, hold=3
    )
    _, outcome = _run(two_path_network, 3, ("alice", "mid"), request)
    assert outcome.disposition == SERVED
    assert outcome.reroutes == 1
    assert [c.path for c in outcome.solution.channels] == [("alice", "bob")]


def test_release_at_slot_t_closes_served_before_a_fault_at_t(line_network):
    # Phase 1 before phase 2: the reservation's release slot is 2, and
    # at slot 2 its only path is cut.  It completes as served; it is
    # neither repaired nor abandoned.
    request = EntanglementRequest(
        name="req", users=("alice", "bob"), arrival=0, hold=2
    )
    result, outcome = _run(line_network, 2, ("s0", "s1"), request)
    assert outcome.release_slot == 2
    assert outcome.disposition == SERVED
    assert outcome.accepted
    assert outcome.reroutes == 0
    assert result.resilience.abandoned == 0
    assert result.resilience.reroutes == 0


def test_fault_one_slot_before_release_abandons(line_network):
    # The control: the same cut at slot 1 hits the tree mid-service.
    request = EntanglementRequest(
        name="req", users=("alice", "bob"), arrival=0, hold=2
    )
    result, outcome = _run(line_network, 1, ("s0", "s1"), request)
    assert not outcome.accepted
    assert result.resilience.abandoned == 1
