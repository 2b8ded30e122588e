"""Discrete-event simulation of the offline-planned entanglement protocol.

Sec. II-B of the paper: a central controller collects requests, computes
routes offline, distributes the plan classically, and the network then
executes synchronized attempt slots — links generate, switches swap —
until the whole entanglement tree succeeds in a single slot.

:class:`SlottedEntanglementSimulator` plays this out event by event.  Per
slot it schedules one ``link-attempt`` event per quantum link and one
``swap-attempt`` per BSM; the slot succeeds iff all do.  The number of
slots to first success is geometric with mean ``1/P`` where ``P`` is
Eq. (2) — a relation the test suite verifies.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import MUERPSolution
from repro.network.errors import DeadlineExceededError, TransientFaultError
from repro.network.graph import QuantumNetwork
from repro.network.link import fiber_key
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultInjector
    from repro.resilience.retry import RetryPolicy

logger = logging.getLogger("repro.sim.engine")


@dataclass(order=True)
class Event:
    """A timestamped simulation event.

    Ordering is (time, sequence) so simultaneous events preserve their
    scheduling order deterministically.
    """

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: Dict = field(compare=False, default_factory=dict)


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: float, kind: str, **payload) -> Event:
        """Add an event at *time* and return it."""
        if time < 0 or not math.isfinite(time):
            raise ValueError(f"event time must be finite and >= 0, got {time}")
        event = Event(time, next(self._counter), kind, payload)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        return heapq.heappop(self._heap)


@dataclass(frozen=True)
class SlottedRunResult:
    """Outcome of a slotted protocol run.

    Attributes:
        slots_used: Attempt slots executed (== slots to first success
            when ``succeeded``).
        succeeded: Whether the tree ever fully succeeded.
        analytic_rate: Eq. (2) of the executed solution — the expected
            slots to success is its reciprocal.
        link_attempts: Total link-generation events processed.
        swap_attempts: Total BSM events processed.
        log: Event trace (only populated when tracing is enabled).
        retries_spent: Retries consumed from the retry policy (0 when
            no policy was configured).
        faulted_slots: Slots in which an injected structural fault made
            the attempt impossible (no coins were flipped).
        abort_reason: Why the run stopped without success (``None`` on
            success): ``"max-slots"`` or ``"retry-budget-exhausted"``.
    """

    slots_used: int
    succeeded: bool
    analytic_rate: float
    link_attempts: int
    swap_attempts: int
    log: Tuple[str, ...] = ()
    retries_spent: int = 0
    faulted_slots: int = 0
    abort_reason: Optional[str] = None

    @property
    def expected_slots(self) -> float:
        """Theoretical mean slots to success: ``1 / P``."""
        if self.analytic_rate <= 0.0:
            return math.inf
        return 1.0 / self.analytic_rate


@dataclass(frozen=True)
class SlotsToSuccessSummary:
    """Explicit report of repeated slots-to-success measurements.

    Unlike the bare-float mean, this keeps the failure count visible so
    an all-failure batch can never masquerade as a measurement.

    Attributes:
        runs: Number of independent protocol runs.
        successes: Runs that reached full entanglement.
        failures: Runs that hit the slot cap (or aborted) first.
        mean_successful_slots: Mean slots over the *successful* runs
            (``nan`` when none succeeded).
    """

    runs: int
    successes: int
    failures: int
    mean_successful_slots: float

    @classmethod
    def from_outcomes(
        cls, outcomes: Sequence[Tuple[bool, int]]
    ) -> "SlotsToSuccessSummary":
        """Summarize ``(succeeded, slots_used)`` pairs, one per run."""
        totals = [slots for succeeded, slots in outcomes if succeeded]
        return cls(
            runs=len(outcomes),
            successes=len(totals),
            failures=len(outcomes) - len(totals),
            mean_successful_slots=(
                float(np.mean(totals)) if totals else math.nan
            ),
        )

    @property
    def all_failed(self) -> bool:
        return self.runs > 0 and self.successes == 0

    @property
    def mean_slots(self) -> float:
        """Legacy aggregate: ``inf`` as soon as any run failed."""
        if self.failures:
            return math.inf
        return self.mean_successful_slots

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mean = (
            "n/a"
            if math.isnan(self.mean_successful_slots)
            else f"{self.mean_successful_slots:.2f}"
        )
        return (
            f"SlotsToSuccess[{self.successes}/{self.runs} succeeded, "
            f"mean {mean} slots]"
        )


class SlottedEntanglementSimulator:
    """Executes a routed solution slot by slot until it succeeds.

    Args:
        network: The quantum network the plan was computed for.
        solution: The routed entanglement tree to execute.
        rng: Random source (int seed, Generator, or None).
        slot_duration: Wall-clock length of one synchronized slot
            (arbitrary units; affects timestamps only).
        trace: Record a human-readable event log (costly; tests only).
        retry_policy: Optional :class:`~repro.resilience.retry.RetryPolicy`
            consulted after every failed slot instead of blindly
            re-attempting — failed attempts wait the policy's delay and
            the run aborts when the policy is exhausted.
        fault_injector: Optional
            :class:`~repro.resilience.faults.FaultInjector` advanced
            once per slot; cut fibers / dark switches used by the plan
            make the slot impossible, and decoherence storms scale every
            success probability.  A *permanent* fault on a planned
            element raises :class:`TransientFaultError` so the caller
            can re-route.
        start_slot: Absolute slot offset fed to the fault injector
            (lets a re-routed continuation share one fault timeline).
    """

    def __init__(
        self,
        network: QuantumNetwork,
        solution: MUERPSolution,
        rng: RngLike = None,
        slot_duration: float = 1.0,
        trace: bool = False,
        retry_policy: Optional["RetryPolicy"] = None,
        fault_injector: Optional["FaultInjector"] = None,
        start_slot: int = 0,
    ) -> None:
        if not solution.feasible:
            raise ValueError("cannot execute an infeasible solution")
        if start_slot < 0:
            raise ValueError(f"start_slot must be >= 0, got {start_slot}")
        self.network = network
        self.solution = solution
        self.rng = ensure_rng(rng)
        self.slot_duration = slot_duration
        self.trace = trace
        self.retry_policy = retry_policy
        self.fault_injector = fault_injector
        self.start_slot = start_slot
        self._links: List[Tuple[Hashable, Hashable, float]] = []
        self._swaps: List[Hashable] = []
        for channel in solution.channels:
            for u, v in zip(channel.path, channel.path[1:]):
                fiber = network.fiber_between(u, v)
                if fiber is None:
                    raise ValueError(f"plan uses missing fiber {u!r}-{v!r}")
                self._links.append(
                    (u, v, fiber.success_probability(network.params.alpha))
                )
            self._swaps.extend(channel.switches)
        self._link_keys = {fiber_key(u, v) for u, v, _ in self._links}
        self._swap_set = set(self._swaps)

    def _structural_faults(
        self,
    ) -> Tuple[Tuple[Hashable, ...], Tuple[Hashable, ...]]:
        """Planned fibers/switches currently down per the injector."""
        injector = self.fault_injector
        assert injector is not None
        cut = tuple(
            sorted(self._link_keys & injector.active_fiber_cuts, key=repr)
        )
        dark = tuple(
            sorted(self._swap_set & injector.active_dark_switches, key=repr)
        )
        return cut, dark

    def run(
        self,
        max_slots: int = 1_000_000,
        deadline_slot: Optional[int] = None,
    ) -> SlottedRunResult:
        """Run until the first fully successful slot (or *max_slots*).

        Args:
            max_slots: Cap on elapsed slots (waits included).
            deadline_slot: Absolute slot (on the ``start_slot`` clock)
                at which the run must have completed; reaching it raises
                :class:`DeadlineExceededError` with the partial result
                attached.

        Raises:
            TransientFaultError: A *permanent* injected fault killed a
                fiber or switch this plan needs; the partial result and
                the dead elements ride on the exception so the caller
                can re-route.
            DeadlineExceededError: ``deadline_slot`` passed first.
        """
        queue = EventQueue()
        log: List[str] = []
        link_attempts = 0
        swap_attempts = 0
        retries_spent = 0
        faulted_slots = 0
        failures = 0
        q = self.network.params.swap_prob
        injector = self.fault_injector

        def _partial(reason: Optional[str], slots: int) -> SlottedRunResult:
            return SlottedRunResult(
                slots_used=slots,
                succeeded=False,
                analytic_rate=self.solution.rate,
                link_attempts=link_attempts,
                swap_attempts=swap_attempts,
                log=tuple(log),
                retries_spent=retries_spent,
                faulted_slots=faulted_slots,
                abort_reason=reason,
            )

        slot = 0
        while slot < max_slots:
            absolute = self.start_slot + slot
            if deadline_slot is not None and absolute >= deadline_slot:
                logger.debug(
                    "deadline %d reached at slot %d", deadline_slot, absolute
                )
                raise DeadlineExceededError(
                    deadline_slot, absolute, partial=_partial("deadline", slot)
                )
            multiplier = 1.0
            if injector is not None:
                injector.advance(absolute)
                multiplier = injector.success_multiplier
                cut, dark = self._structural_faults()
                if cut or dark:
                    faulted_slots += 1
                    permanent_cut = tuple(
                        k for k in cut if k in injector.permanent_fiber_cuts
                    )
                    permanent_dark = tuple(
                        s
                        for s in dark
                        if s in injector.permanent_dark_switches
                    )
                    if permanent_cut or permanent_dark:
                        logger.info(
                            "slot %d: permanent fault on plan "
                            "(fibers=%r switches=%r)",
                            absolute,
                            permanent_cut,
                            permanent_dark,
                        )
                        raise TransientFaultError(
                            fibers=permanent_cut,
                            switches=permanent_dark,
                            partial=_partial("faulted", slot + 1),
                        )
                    if self.trace:
                        log.append(
                            f"t={absolute * self.slot_duration:.2f} "
                            f"slot-faulted cut={cut!r} dark={dark!r}"
                        )
                    # Transient fault: nothing can be attempted this
                    # slot; it counts as one failed attempt.
                    failures += 1
                    delay = self._consult_retry(failures)
                    if delay is None:
                        return _partial("retry-budget-exhausted", slot + 1)
                    if self.retry_policy is not None:
                        retries_spent += 1
                    slot += 1 + delay
                    continue

            slot_start = absolute * self.slot_duration
            # Phase 1: all quantum links attempt generation.
            for u, v, p in self._links:
                queue.schedule(
                    slot_start, "link-attempt", u=u, v=v, p=p * multiplier
                )
            # Phase 2 (after links): all switches attempt their BSMs.
            for switch in self._swaps:
                queue.schedule(
                    slot_start + 0.5 * self.slot_duration,
                    "swap-attempt",
                    switch=switch,
                )

            slot_ok = True
            while len(queue):
                event = queue.pop()
                if event.kind == "link-attempt":
                    link_attempts += 1
                    ok = bool(self.rng.uniform() < event.payload["p"])
                elif event.kind == "swap-attempt":
                    swap_attempts += 1
                    ok = bool(self.rng.uniform() < q * multiplier)
                else:  # pragma: no cover - no other kinds scheduled
                    raise AssertionError(f"unknown event {event.kind!r}")
                if self.trace:
                    log.append(
                        f"t={event.time:.2f} {event.kind} "
                        f"{event.payload} -> {'ok' if ok else 'fail'}"
                    )
                slot_ok &= ok
            if slot_ok:
                return SlottedRunResult(
                    slots_used=slot + 1,
                    succeeded=True,
                    analytic_rate=self.solution.rate,
                    link_attempts=link_attempts,
                    swap_attempts=swap_attempts,
                    log=tuple(log),
                    retries_spent=retries_spent,
                    faulted_slots=faulted_slots,
                )
            failures += 1
            delay = self._consult_retry(failures)
            if delay is None:
                return _partial("retry-budget-exhausted", slot + 1)
            if self.retry_policy is not None:
                retries_spent += 1
            slot += 1 + delay
        return _partial("max-slots", max_slots)

    def _consult_retry(self, failures: int) -> Optional[int]:
        """Delay before the next attempt, or None when giving up.

        Without a policy this is the paper's behavior: re-attempt every
        slot forever (delay 0).
        """
        if self.retry_policy is None:
            return 0
        return self.retry_policy.next_delay(failures)

    def mean_slots_to_success(
        self, runs: int = 100, max_slots: int = 1_000_000
    ) -> float:
        """Average slots-to-success over several runs (∞ if any fails).

        The ``inf`` sentinel means *measurement truncated*, not "takes
        forever"; a WARNING is logged when it happens.  Callers that
        need the full picture (how many runs failed, the mean over the
        successful ones) should use :meth:`slots_to_success_summary`.
        """
        totals = []
        for _ in range(runs):
            result = self.run(max_slots)
            if not result.succeeded:
                logger.warning(
                    "mean_slots_to_success: run failed within %d slots "
                    "(reason=%s); reporting inf — use "
                    "slots_to_success_summary() for the explicit report",
                    max_slots,
                    result.abort_reason,
                )
                return math.inf
            totals.append(result.slots_used)
        return float(np.mean(totals))

    def slots_to_success_summary(
        self, runs: int = 100, max_slots: int = 1_000_000
    ) -> SlotsToSuccessSummary:
        """Measure slots-to-success *runs* times with explicit failures.

        Unlike :meth:`mean_slots_to_success` this never hides an
        all-failure batch behind a bare ``inf``: the summary carries the
        success/failure split and the mean over successful runs only.
        """
        if runs < 1:
            raise ValueError(f"runs must be >= 1, got {runs}")
        outcomes = []
        for _ in range(runs):
            result = self.run(max_slots)
            outcomes.append((result.succeeded, result.slots_used))
        summary = SlotsToSuccessSummary.from_outcomes(outcomes)
        if summary.failures:
            logger.info(
                "slots_to_success_summary: %d/%d runs failed within %d slots",
                summary.failures,
                runs,
                max_slots,
            )
        return summary
