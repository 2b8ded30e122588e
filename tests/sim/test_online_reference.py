"""The online scheduler against its frozen fault-free loop.

``OnlineScheduler`` once ran fault-free streams without deadlines on a
separate loop over a bare residual dict.  That loop is frozen below as
:func:`_reference_run`, and its routing call as
:func:`_reference_route`.  With no optional input set, the scheduler's
one loop must reproduce it outcome for outcome: disposition, start and
release slot, served users, channel paths in order, ``log_rate``,
``slots_simulated`` and ``peak_qubit_usage``.

Budgets of Q ∈ {2, 4, 8} qubits per switch force rejections and waits;
``max_wait ∈ {0, 1, 3}`` covers the pure loss system and retries.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityLedger
from repro.core.prim_based import solve_prim
from repro.sim.online import (
    EntanglementRequest,
    OnlineResult,
    OnlineScheduler,
    RequestOutcome,
)
from repro.topology import (
    TopologyConfig,
    watts_strogatz_network,
    waxman_network,
)


def _reference_route(self, request, residual):
    """The scheduler's routing call on a plain residual dict."""
    budget = CapacityLedger(residual)
    if self.method == "prim":
        solution = solve_prim(
            self.network, request.users, rng=self.rng, residual=budget
        )
    else:
        solution = solve_conflict_free(
            self.network, request.users, rng=self.rng, residual=budget
        )
    return solution if solution.feasible else None


def _reference_run(self, requests) -> OnlineResult:
    """The fault-free loop on a bare residual dict, frozen."""
    metrics = obs_metrics.active()
    residual = self.network.residual_qubits()
    budgets = dict(residual)
    peak_usage: Dict[Hashable, int] = {s: 0 for s in residual}

    #: (release_slot, usage dict) of active reservations.
    active: List[Tuple[int, Dict[Hashable, int]]] = []
    #: requests waiting for capacity, with their give-up slot.
    waiting: List[Tuple[int, EntanglementRequest]] = []
    outcomes: Dict[str, RequestOutcome] = {}

    by_arrival: Dict[int, List[EntanglementRequest]] = {}
    for request in requests:
        by_arrival.setdefault(request.arrival, []).append(request)
    if not requests:
        return OnlineResult((), 0, peak_usage)
    horizon = max(r.arrival + r.max_wait for r in requests) + 1

    last_activity = 0
    for slot in range(horizon + 1):
        # 1. Release expired reservations.
        still_active = []
        for release_slot, usage in active:
            if release_slot <= slot:
                for switch, qubits in usage.items():
                    residual[switch] += qubits
            else:
                still_active.append((release_slot, usage))
        active = still_active

        # 2. Gather this slot's candidates: new arrivals + waiters.
        candidates = list(by_arrival.get(slot, []))
        retained: List[Tuple[int, EntanglementRequest]] = []
        for give_up, request in waiting:
            candidates.append(request)
        waiting = []

        # 3. Try to admit each candidate (arrival order).
        for request in candidates:
            solution = _reference_route(self, request, residual)
            if solution is not None:
                usage = solution.switch_usage()
                for switch, qubits in usage.items():
                    residual[switch] -= qubits
                    used_now = budgets[switch] - residual[switch]
                    peak_usage[switch] = max(peak_usage[switch], used_now)
                release_slot = slot + request.hold
                active.append((release_slot, usage))
                if metrics is not None:
                    metrics.inc("sim.online.admitted")
                    metrics.observe(
                        "sim.online.queue_wait_slots",
                        slot - request.arrival,
                    )
                outcomes[request.name] = RequestOutcome(
                    request=request,
                    accepted=True,
                    solution=solution,
                    start_slot=slot,
                    release_slot=release_slot,
                    disposition="served",
                    served_users=tuple(sorted(request.users, key=repr)),
                )
                last_activity = max(last_activity, release_slot)
            elif slot < request.arrival + request.max_wait:
                retained.append((request.arrival + request.max_wait, request))
            else:
                if metrics is not None:
                    metrics.inc("sim.online.rejected")
                outcomes[request.name] = RequestOutcome(
                    request=request,
                    accepted=False,
                    solution=None,
                    start_slot=None,
                    release_slot=None,
                    disposition="rejected",
                )
        waiting = retained

    ordered = tuple(outcomes[r.name] for r in requests)
    return OnlineResult(
        outcomes=ordered,
        slots_simulated=max(horizon, last_activity),
        peak_qubit_usage=peak_usage,
    )


def _outcome_fields(outcome: RequestOutcome):
    solution = outcome.solution
    return (
        outcome.request.name,
        outcome.accepted,
        outcome.disposition,
        outcome.start_slot,
        outcome.release_slot,
        outcome.served_users,
        None
        if solution is None
        else tuple(channel.path for channel in solution.channels),
        None if solution is None else solution.log_rate,
    )


def _assert_same_run(got: OnlineResult, want: OnlineResult) -> None:
    assert [_outcome_fields(o) for o in got.outcomes] == [
        _outcome_fields(o) for o in want.outcomes
    ]
    assert got.slots_simulated == want.slots_simulated
    assert list(got.peak_qubit_usage.items()) == list(
        want.peak_qubit_usage.items()
    )


@st.composite
def fault_free_runs(draw):
    generator = draw(
        st.sampled_from([waxman_network, watts_strogatz_network])
    )
    config = TopologyConfig(
        n_switches=draw(st.integers(15, 30)),
        n_users=draw(st.integers(4, 8)),
        qubits_per_switch=draw(st.sampled_from([2, 4, 8])),
    )
    network = generator(config, rng=draw(st.integers(0, 2**16)))
    users = network.user_ids
    max_wait = draw(st.sampled_from([0, 1, 3]))
    requests = []
    for index in range(draw(st.integers(0, 16))):
        group = draw(
            st.lists(
                st.sampled_from(users),
                min_size=2,
                max_size=min(5, len(users)),
                unique=True,
            )
        )
        requests.append(
            EntanglementRequest(
                name=f"r{index}",
                users=tuple(group),
                arrival=draw(st.integers(0, 5)),
                hold=draw(st.integers(1, 6)),
                max_wait=max_wait,
            )
        )
    method = draw(st.sampled_from(["prim", "conflict_free"]))
    seed = draw(st.integers(0, 2**16))
    return network, requests, method, seed


@settings(max_examples=150, deadline=None)
@given(case=fault_free_runs())
def test_scheduler_matches_frozen_fault_free_loop(case):
    network, requests, method, seed = case
    want = _reference_run(
        OnlineScheduler(network, method=method, rng=seed), requests
    )
    got = OnlineScheduler(network, method=method, rng=seed).run(requests)
    _assert_same_run(got, want)


def test_empty_stream_matches_frozen_loop():
    network = waxman_network(TopologyConfig(n_switches=15, n_users=4), rng=3)
    want = _reference_run(OnlineScheduler(network, rng=1), [])
    got = OnlineScheduler(network, rng=1).run([])
    _assert_same_run(got, want)
    assert got.outcomes == ()
