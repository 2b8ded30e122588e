"""Regression: a queue that only the SHED tier could drain stalls it.

Under the SHED brownout tier the online loop does not drain the
admission queue, yet the queue's fill keeps the load level at SHED.
With ``seed=69``, ``drop-newest`` shedding, a 3-entry queue and a
0.75 req/slot token rate, the tier stays SHED from slot 6 to slot 204,
195 of those slots with no request in service.  Once nothing is in
service, only the queue's fill can hold the tier, so a tier that does
not stall leaves SHED within ``min_dwell`` slots.  Strict ``xfail``
until the loop drains (or stops counting) the queue under SHED; see
ROADMAP.md.

The stall used to break the conservativeness property of
``test_properties.py`` too: ``req-9`` waited out the stall in the queue
and was then served degraded, although the network splits its group
and the open door rejects it.  The brownout tier now degrades only
groups that load splits, and that property pins the example.
"""

from __future__ import annotations

import pytest

from repro.admission import TIER_SHED, AdmissionController
from repro.topology.waxman import waxman_network
from tests.admission.test_properties import SMALL, _run


@pytest.mark.xfail(
    strict=True,
    reason="SHED never drains the queue whose fill holds it at SHED",
)
def test_shed_tier_does_not_stall_on_its_own_queue():
    seed = 69
    network = waxman_network(SMALL, rng=seed)
    admission = AdmissionController.default(
        network,
        rate=0.75,
        burst=2.0,
        bulkhead=3,
        queue_size=3,
        shed_policy="drop-newest",
    )
    gated = _run(network, seed, admission)

    in_service = set()
    for outcome in gated.outcomes:
        if outcome.start_slot is not None:
            in_service.update(
                range(outcome.start_slot, outcome.release_slot)
            )
    moves = dict(admission.brownout.transitions)
    tier = None
    idle_shed_slots = 0
    for slot in range(gated.slots_simulated + 1):
        tier = moves.get(slot, tier)
        if tier == TIER_SHED and slot not in in_service:
            idle_shed_slots += 1
    assert idle_shed_slots <= admission.brownout.min_dwell
