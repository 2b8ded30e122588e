"""The controller recovery paths against their frozen ladders.

``serve_resilient`` (through ``_execute_with_resilience``) and
``EntanglementController.handle_failure`` once carried their own copies
of the repair → replan → degrade ladder, without auditing what they
installed.  Both are frozen below: :func:`_reference_execute` (with its
degrade helper :func:`_reference_degrade` and the served-component
search it used) and :func:`_reference_handle_failure`.

The live paths must reproduce them case for case on small Waxman and
Watts–Strogatz networks under seeded ``random_schedule`` fault
timelines, with and without a deadline: disposition status and reason,
reroutes, retries and degradations, the final tree's channels and
method, the fault log and every segment's ``slots_used``.  The one
allowed difference is the verification records the live paths add.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
from repro.controller import EntanglementController
from repro.core.problem import MUERPSolution
from repro.extensions.recovery import apply_failures, repair_solution
from repro.network.errors import DeadlineExceededError, TransientFaultError
from repro.network import NetworkBuilder, NetworkParams
from repro.resilience.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
    random_schedule,
)
from repro.resilience.report import (
    ABANDONED,
    DEADLINE_EXCEEDED,
    DEGRADED,
    SERVED,
    SHED,
    RequestDisposition,
    ResilienceReport,
)
from repro.resilience.retry import FixedRetryPolicy
from repro.resilience.runtime import (
    ResilientServiceReport,
    execute_with_resilience,
)
from repro.sim.engine import SlottedEntanglementSimulator, SlottedRunResult
from repro.topology import (
    TopologyConfig,
    watts_strogatz_network,
    waxman_network,
)
from repro.utils.unionfind import UnionFind


def _reference_largest_served_component(users, channels):
    """Largest user subset still spanned by *channels* (deterministic).

    Ties break toward the lexicographically-smallest member set so two
    same-seed runs always degrade identically.
    """
    unions = UnionFind(sorted(users, key=repr))
    for channel in channels:
        unions.union(*channel.endpoints)
    best: Tuple[Hashable, ...] = ()
    for group in unions.groups():
        members = tuple(sorted(group, key=repr))
        if (len(members), [repr(m) for m in members]) > (
            len(best),
            [repr(m) for m in best],
        ) and len(members) >= 2:
            best = members
    return best


def _reference_degrade(
    solution: MUERPSolution, kept_channels
) -> Optional[MUERPSolution]:
    """Largest-subset degraded tree from surviving channels (or None)."""
    subset = _reference_largest_served_component(
        solution.users, kept_channels
    )
    if len(subset) < 2:
        return None
    members = set(subset)
    channels = tuple(
        c for c in kept_channels if c.endpoints[0] in members
    )
    return MUERPSolution(
        channels=channels,
        users=frozenset(subset),
        method=solution.method + "+degraded",
        feasible=True,
    )


def _reference_execute(
    controller,
    users=None,
    injector=None,
    retry_policy=None,
    max_slots: int = 100_000,
    deadline_slot: Optional[int] = None,
    request_name: str = "request",
    admission=None,
) -> ResilientServiceReport:
    """``_execute_with_resilience`` with its unaudited ladder, frozen."""
    report = ResilienceReport()
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("resilience.runtime.requests")
    if injector is not None:
        injector.reset()

    request = None
    if admission is not None:
        from repro.sim.online import EntanglementRequest

        group = (
            tuple(sorted(users, key=repr))
            if users is not None
            else tuple(sorted(controller.network.user_ids, key=repr))
        )
        request = EntanglementRequest(
            name=request_name,
            users=group,
            arrival=0,
            deadline=deadline_slot,
        )
        decision = admission.decide(request, 0)
        if not decision.admitted:
            if decision.action == "throttle":
                admission.count_shed(decision.policy or "throttle")
            report.close_request(
                RequestDisposition(
                    name=request_name,
                    status=SHED,
                    reason=(
                        f"refused by admission policy {decision.policy!r}"
                        + (
                            f": {decision.reason}"
                            if decision.reason
                            else ""
                        )
                    ),
                    slot=0,
                )
            )
            placeholder = MUERPSolution(
                channels=(),
                users=frozenset(group),
                method="unplanned",
                feasible=False,
            )
            return ResilientServiceReport(
                solution=placeholder,
                final_solution=placeholder,
                runs=(),
                report=report,
                served_users=(),
            )

    initial = controller.plan(users)
    if not initial.feasible:
        report.close_request(
            RequestDisposition(
                name=request_name,
                status=ABANDONED,
                reason="initial plan infeasible",
                slot=0,
            )
        )
        if admission is not None and request is not None:
            admission.on_closed(request, 0)
        return ResilientServiceReport(
            solution=initial,
            final_solution=initial,
            runs=(),
            report=report,
            served_users=(),
        )

    current = initial
    runs: List[SlottedRunResult] = []
    slot_offset = 0
    handled_fibers: set = set()
    handled_switches: set = set()
    reroutes_here = 0
    retries_here = 0
    faulted = False

    def _finish(status: str, reason: str) -> ResilientServiceReport:
        served: Tuple[Hashable, ...] = ()
        if status in (SERVED, DEGRADED):
            served = tuple(sorted(current.users, key=repr))
        if metrics is not None:
            metrics.inc(f"resilience.runtime.dispositions.{status}")
            metrics.inc("resilience.runtime.retries", retries_here)
            metrics.inc("resilience.runtime.reroutes", reroutes_here)
        report.close_request(
            RequestDisposition(
                name=request_name,
                status=status,
                reason=reason,
                slot=slot_offset,
                retries=retries_here,
                reroutes=reroutes_here,
                served_users=served,
            )
        )
        if status == SERVED and faulted:
            report.record_recovery(request_name)
        if admission is not None and request is not None:
            admission.on_closed(request, slot_offset)
        return ResilientServiceReport(
            solution=initial,
            final_solution=current,
            runs=tuple(runs),
            report=report,
            served_users=served,
        )

    while slot_offset < max_slots:
        simulator = SlottedEntanglementSimulator(
            controller.network,
            current,
            rng=controller.rng,
            retry_policy=retry_policy,
            fault_injector=injector,
            start_slot=slot_offset,
        )
        try:
            run = simulator.run(
                max_slots=max_slots - slot_offset,
                deadline_slot=deadline_slot,
            )
        except TransientFaultError as fault:
            faulted = True
            partial = fault.partial
            if partial is not None:
                runs.append(partial)
                slot_offset += partial.slots_used
                retries_here += partial.retries_spent
                report.record_retries(partial.retries_spent)
            if injector is not None:
                report.faults_injected = injector.faults_injected
                report.faults_repaired = injector.faults_repaired
            new_fibers = [
                f for f in fault.fibers if f not in handled_fibers
            ]
            new_switches = [
                s for s in fault.switches if s not in handled_switches
            ]
            handled_fibers.update(new_fibers)
            handled_switches.update(new_switches)
            for key in new_fibers:
                report.fault_log.append(
                    f"slot {slot_offset}: plan lost fiber {key!r}"
                )
            for switch in new_switches:
                report.fault_log.append(
                    f"slot {slot_offset}: plan lost switch {switch!r}"
                )
            rep = repair_solution(
                controller.network, current, new_fibers, new_switches
            )
            controller.absorb_failures(new_fibers, new_switches)
            if rep.repaired:
                current = rep.solution
                reroutes_here += 1
                report.record_reroute(
                    request_name,
                    f"slot {slot_offset}: incremental repair "
                    f"({len(rep.new_channels)} new channels)",
                )
                continue
            fresh = controller.plan(sorted(current.users, key=repr))
            if fresh.feasible:
                current = fresh
                reroutes_here += 1
                report.record_reroute(
                    request_name,
                    f"slot {slot_offset}: full replan after "
                    "unrepairable fault",
                )
                continue
            degraded = _reference_degrade(current, rep.kept_channels)
            if degraded is not None:
                current = degraded
                if metrics is not None:
                    metrics.inc("resilience.runtime.degradations")
                report.record_degradation(
                    request_name,
                    f"slot {slot_offset}: continuing with "
                    f"{len(degraded.users)} of {len(initial.users)} users",
                )
                continue
            return _finish(
                ABANDONED,
                f"fault at slot {slot_offset} unrepairable; no feasible "
                "replan or >=2-user subset",
            )
        except DeadlineExceededError as exc:
            partial = exc.partial
            if partial is not None:
                runs.append(partial)
                slot_offset += partial.slots_used
                retries_here += partial.retries_spent
                report.record_retries(partial.retries_spent)
            if injector is not None:
                report.faults_injected = injector.faults_injected
                report.faults_repaired = injector.faults_repaired
            return _finish(
                DEADLINE_EXCEEDED,
                f"deadline slot {exc.deadline} passed before entanglement",
            )

        runs.append(run)
        slot_offset += run.slots_used
        retries_here += run.retries_spent
        report.record_retries(run.retries_spent)
        if injector is not None:
            report.faults_injected = injector.faults_injected
            report.faults_repaired = injector.faults_repaired
        if run.succeeded:
            status = (
                DEGRADED
                if set(current.users) < set(initial.users)
                else SERVED
            )
            reason = (
                f"degraded to {len(current.users)}/{len(initial.users)} users"
                if status == DEGRADED
                else ""
            )
            return _finish(status, reason)
        if run.abort_reason == "retry-budget-exhausted":
            return _finish(
                ABANDONED,
                f"retry policy exhausted at slot {slot_offset}",
            )
        # max-slots within the segment: global budget is spent.
        break

    return _finish(
        ABANDONED, f"slot budget {max_slots} exhausted without entanglement"
    )


def _reference_handle_failure(
    self,
    solution: MUERPSolution,
    failed_fibers=(),
    failed_switches=(),
) -> MUERPSolution:
    """``EntanglementController.handle_failure``'s unaudited ladder, frozen."""
    report = repair_solution(
        self._network, solution, failed_fibers, failed_switches
    )
    self._network = apply_failures(
        self._network, failed_fibers, failed_switches
    )
    if report.repaired:
        return report.solution
    fresh = self.plan(sorted(solution.users, key=repr))
    return fresh


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
_ALL_KINDS = tuple(FaultKind)
#: Only faults that force the ladder (no flaps or storms to wait out).
_PERMANENT_KINDS = (FaultKind.FIBER_CUT, FaultKind.SWITCH_DARK)


def _network(draw):
    generator = draw(
        st.sampled_from([waxman_network, watts_strogatz_network])
    )
    config = TopologyConfig(
        n_switches=draw(st.integers(8, 16)),
        n_users=draw(st.integers(3, 6)),
        avg_degree=draw(st.sampled_from([3.0, 4.0, 6.0])),
        qubits_per_switch=draw(st.sampled_from([2, 4, 8])),
    )
    return generator(config, rng=draw(st.integers(0, 2**16)))


@st.composite
def faulted_requests(draw):
    network = _network(draw)
    users = network.user_ids
    group = tuple(
        draw(
            st.lists(
                st.sampled_from(users),
                min_size=2,
                max_size=len(users),
                unique=True,
            )
        )
    )
    schedule = random_schedule(
        network,
        n_faults=draw(st.integers(0, 60)),
        horizon=draw(st.integers(1, 12)),
        rng=draw(st.integers(0, 2**16)),
        kinds=draw(st.sampled_from([_ALL_KINDS, _PERMANENT_KINDS])),
    )
    deadline = draw(st.one_of(st.none(), st.integers(0, 40)))
    retry = draw(st.sampled_from([None, 2, 6]))
    method = draw(st.sampled_from(["conflict_free", "prim", "optimal"]))
    seed = draw(st.integers(0, 2**16))
    return network, group, schedule, deadline, retry, method, seed


def _serve(case, execute):
    network, group, schedule, deadline, retry, method, seed = case
    controller = EntanglementController(network, method=method, rng=seed)
    policy = (
        None if retry is None else FixedRetryPolicy(delay=1, max_attempts=retry)
    )
    return execute(
        controller,
        users=group,
        injector=FaultInjector(schedule, network),
        retry_policy=policy,
        max_slots=300,
        deadline_slot=deadline,
    )


def _comparable(result: ResilientServiceReport):
    summary = result.report.to_dict()
    del summary["verifications"], summary["verification_failures"]
    final = result.final_solution
    return (
        summary,
        tuple(channel.path for channel in final.channels),
        final.method,
        final.feasible,
        result.served_users,
        [run.slots_used for run in result.runs],
    )


@settings(max_examples=150, deadline=None)
@given(case=faulted_requests())
def test_serve_resilient_matches_frozen_ladder(case):
    want = _serve(case, _reference_execute)
    got = _serve(case, execute_with_resilience)
    assert _comparable(got) == _comparable(want)
    assert got.report.verification_failures == 0


def _blocked_detour_network():
    """a–m1–b plus c–m2–a, with every detour for a cut a–m1 blocked.

    All switches hold 2 qubits, so the kept channel c–m2–a fills m2 and
    repair cannot reach b.  A full replan that moves c onto m3 serves
    all three users again; conflict_free finds none and degrades.
    """
    builder = NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
    builder.user("a", (0, 0)).user("b", (2000, 0)).user("c", (0, 2000))
    builder.switch("m1", (1000, 0), qubits=2)
    builder.switch("m2", (500, 500), qubits=2)
    builder.switch("m3", (0, 1000), qubits=2)
    builder.fiber("a", "m1", 1000).fiber("m1", "b", 1000)
    builder.fiber("c", "m2", 1000).fiber("m2", "a", 800)
    builder.fiber("m2", "b", 1500)
    builder.fiber("c", "m3", 1500).fiber("m3", "a", 1500)
    return builder.build()


@pytest.mark.parametrize(
    "method, step",
    [("prim", "full replan"), ("conflict_free", "degrade[request]")],
)
def test_replan_and_degrade_steps_match_frozen_ladder(method, step):
    network = _blocked_detour_network()
    schedule = FaultSchedule(
        (FaultEvent(0, FaultKind.FIBER_CUT, ("a", "m1")),)
    )
    case = (network, None, schedule, None, None, method, 1)
    want = _serve(case, _reference_execute)
    got = _serve(case, execute_with_resilience)
    assert step in " ".join(want.report.fault_log)
    assert _comparable(got) == _comparable(want)


@st.composite
def failures(draw):
    network = _network(draw)
    method = draw(st.sampled_from(["conflict_free", "prim", "optimal"]))
    seed = draw(st.integers(0, 2**16))
    # Indices into the plan's fibers and switches, resolved once the
    # plan exists; several rounds exercise the accumulated view.
    rounds = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 2**16), max_size=3),
                st.lists(st.integers(0, 2**16), max_size=2),
            ),
            min_size=1,
            max_size=3,
        )
    )
    return network, method, seed, rounds


def _pick(solution, fiber_picks, switch_picks):
    fibers = sorted(
        {
            tuple(sorted((u, v), key=repr))
            for channel in solution.channels
            for u, v in zip(channel.path, channel.path[1:])
        },
        key=repr,
    )
    switches = sorted(
        {s for channel in solution.channels for s in channel.switches},
        key=repr,
    )
    cut = [fibers[i % len(fibers)] for i in fiber_picks] if fibers else []
    dark = (
        [switches[i % len(switches)] for i in switch_picks]
        if switches
        else []
    )
    return sorted(set(cut), key=repr), sorted(set(dark), key=repr)


def _handle(case, handle):
    network, method, seed, rounds = case
    controller = EntanglementController(network, method=method, rng=seed)
    solution = controller.plan()
    trail = []
    for fiber_picks, switch_picks in rounds:
        if not solution.feasible:
            break
        cut, dark = _pick(solution, fiber_picks, switch_picks)
        solution = handle(controller, solution, cut, dark)
        trail.append(
            (
                solution.feasible,
                solution.method,
                solution.users,
                tuple(channel.path for channel in solution.channels),
                tuple((f.u, f.v) for f in controller.network.fibers),
            )
        )
    # The rng stream both paths leave behind must match too.
    follow_up = controller.plan()
    trail.append(tuple(channel.path for channel in follow_up.channels))
    return trail


@settings(max_examples=100, deadline=None)
@given(case=failures())
def test_handle_failure_matches_frozen_ladder(case):
    want = _handle(case, _reference_handle_failure)
    got = _handle(
        case,
        lambda controller, solution, cut, dark: controller.handle_failure(
            solution, cut, dark
        ),
    )
    assert got == want
