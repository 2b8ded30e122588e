"""Transactional residual-capacity accounting for switch qubits.

Every solver that spends switch qubits keeps its account here: the
paper's Algorithms 3 and 4, both baselines (E-Q-CAST, N-FUSION), the
random-tree, Steiner, exact, local-search and k-best solvers, the
redundancy, purification and fidelity extensions, LP rounding, the
online scheduler, incremental repair and the multi-group extension.
Algorithm 2 and the admission valuer search on an idle ledger without
spending from it.  :class:`CapacityLedger` is the one account, with
transaction semantics:

* **reserve / release** are all-or-nothing and raise
  :class:`CapacityError` before any partial mutation;
* **transaction()** scopes a group of reservations: leaving the block
  through an exception rolls every change inside it back, peaks
  included, leaving the account bit-identical to the entry snapshot;
* **fork()** copies the account for the trial-only searches (k-best
  spurs, N-FUSION's centers, LP rounding); solvers and repairs spend on
  the ledger they are given.

The ledger also keeps a high-water mark per switch (peak usage
telemetry).  Most ledgers live for one solve and touch a few switches,
so construction does no per-switch work: a switch's mark is recorded by
:meth:`_apply` once its usage rises above its starting usage,
:meth:`peak_usage` fills in the starting usage of the others when read,
and the global mark behind the ``core.ledger.peak_occupancy`` gauge is
computed the first time a reservation publishes it.

The ledger also keeps the channel search's blocked-switch mask (1 where
a switch holds fewer than 2 free qubits, Algorithm 1's line 11),
aligned to a :class:`~repro.network.graph.RoutingSnapshot`'s node
indices.  Apart from the channel-cache family (the cache key and the
warm-start index), this module is the only place that rule is written:
:func:`_blocked_mask` builds the mask, and :meth:`_apply` and
:meth:`_rollback`, the only writers of the availability map, flip one
byte when a switch crosses 2 qubits, so no search rebuilds it;
:meth:`blocked` rebuilds it only when it is asked for a snapshot with a
different ``index`` (a node was added, or the search runs on a damaged
view).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    NoReturn,
    Optional,
    Tuple,
)

import repro.obs.metrics as obs_metrics
from repro.core.problem import Channel, channel_usage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.graph import QuantumNetwork, RoutingSnapshot

#: Qubits one transit channel pins at a switch (Def. 3 of the paper).
QUBITS_PER_CHANNEL = 2


def _blocked_mask(
    graph: "RoutingSnapshot", qubits: Mapping[Hashable, int]
) -> bytearray:
    """Per-node flags of switches that may not relay (line 11).

    ``1`` marks a switch holding fewer than 2 of *qubits*; users are
    always ``0``.
    """
    blocked = bytearray(len(graph.ids))
    for i, switch_id in graph.switches:
        if qubits.get(switch_id, 0) < QUBITS_PER_CHANNEL:
            blocked[i] = 1
    return blocked


class CapacityError(RuntimeError):
    """A reservation or release that the ledger cannot honour.

    Attributes:
        switch: The offending switch id.
        requested: Qubits the operation asked for.
        available: Qubits actually available (or releasable headroom).
    """

    def __init__(
        self, message: str, switch: Hashable, requested: int, available: int
    ) -> None:
        super().__init__(message)
        self.switch = switch
        self.requested = requested
        self.available = available


class CapacityLedger:
    """Transactional account of residual switch qubits.

    The read side is a ``Mapping``-compatible subset (``get``,
    ``__getitem__``, ``in``, ``len``).  The channel search
    (:func:`repro.core.channel.best_channels_from`) takes a ledger as
    its residual and reads only its blocked-switch mask.

    Args:
        available: Initial free qubits per switch.
        budgets: Full per-switch budgets for peak/utilization telemetry;
            defaults to *available* (i.e. the ledger assumes it starts
            from an idle network).
    """

    def __init__(
        self,
        available: Mapping[Hashable, int],
        budgets: Optional[Mapping[Hashable, int]] = None,
    ) -> None:
        self._avail: Dict[Hashable, int] = dict(available)
        if self._avail and min(self._avail.values()) < 0:
            switch, qubits = next(
                (s, q) for s, q in self._avail.items() if q < 0
            )
            raise ValueError(
                f"negative initial capacity {qubits} for {switch!r}"
            )
        #: Availability at construction, the baseline of every peak.
        self._start: Dict[Hashable, int] = dict(self._avail)
        self._budgets: Dict[Hashable, int] = (
            dict(budgets) if budgets is not None else self._start
        )
        #: High-water mark of (budget - available), recorded only where
        #: it rose above the switch's starting usage.
        self._peak: Dict[Hashable, int] = {}
        #: Stack of journals, innermost last: (switch, delta applied,
        #: the switch's ``_peak`` entry before it) per change.
        self._journals: List[List[Tuple[Hashable, int, Optional[int]]]] = []
        #: Largest single-switch usage seen (peak-occupancy telemetry);
        #: ``None`` until a reservation first publishes it.
        self._peak_global: Optional[int] = None
        #: The snapshot the blocked-switch mask is aligned to, and the
        #: mask; both ``None`` until :meth:`blocked` first builds it.
        self._mask_graph: Optional["RoutingSnapshot"] = None
        self._blocked: Optional[bytearray] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_network(cls, network: "QuantumNetwork") -> "CapacityLedger":
        """A ledger over *network*'s full idle budgets, with its
        blocked-switch mask built over the network's routing snapshot."""
        budgets = network.residual_qubits()
        ledger = cls(budgets, budgets)
        ledger.blocked(network.routing_snapshot())
        return ledger

    def fork(self) -> "CapacityLedger":
        """A private ledger with the same free qubits and budgets.

        Spending from the fork leaves this ledger untouched; its peaks
        start from the current usage, and it copies the blocked-switch
        mask rather than rebuilding it.
        """
        fork = CapacityLedger(self._avail, self._budgets)
        if self._blocked is not None:
            fork._mask_graph = self._mask_graph
            fork._blocked = bytearray(self._blocked)
        return fork

    def blocked(self, graph: "RoutingSnapshot") -> bytearray:
        """Blocked-switch mask over *graph*'s node indices.

        ``1`` marks a switch with fewer than 2 free qubits (see
        :func:`_blocked_mask`).  The mask is the ledger's own and stays
        current as the ledger changes; callers must not write to it.
        """
        held = self._mask_graph
        if held is None or held.index is not graph.index:
            self._blocked = _blocked_mask(graph, self._avail)
            self._mask_graph = graph
        return self._blocked

    # ------------------------------------------------------------------
    # Read side (Mapping-compatible subset)
    # ------------------------------------------------------------------
    def get(self, switch: Hashable, default: int = 0) -> int:
        return self._avail.get(switch, default)

    def __getitem__(self, switch: Hashable) -> int:
        return self._avail[switch]

    def __contains__(self, switch: Hashable) -> bool:
        return switch in self._avail

    def __len__(self) -> int:
        return len(self._avail)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._avail)

    def keys(self):
        return self._avail.keys()

    def values(self):
        return self._avail.values()

    def items(self):
        return self._avail.items()

    def available(self, switch: Hashable) -> int:
        """Free qubits at *switch* (0 for unknown switches)."""
        return self._avail.get(switch, 0)

    def budget(self, switch: Hashable) -> int:
        """Full budget of *switch* (0 for unknown switches)."""
        return self._budgets.get(switch, 0)

    def used(self, switch: Hashable) -> int:
        """Qubits currently reserved at *switch*."""
        return self.budget(switch) - self.available(switch)

    def as_dict(self) -> Dict[Hashable, int]:
        """Copy of the current availability map."""
        return dict(self._avail)

    def _start_usage(self, switch: Hashable) -> int:
        """Usage of *switch* at construction (0 if it was not there)."""
        start = self._start.get(switch)
        if start is None:
            return 0
        return max(0, self._budgets.get(switch, start) - start)

    def peak_usage(self) -> Dict[Hashable, int]:
        """High-water qubit usage per switch since construction.

        The switches the ledger started with come first, in their
        order, then any other switch whose usage ever rose above 0.
        """
        peak = self._peak
        out = {
            s: peak[s] if s in peak else self._start_usage(s)
            for s in self._start
        }
        for switch, used in peak.items():
            out.setdefault(switch, used)
        return out

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    def _apply(self, switch: Hashable, delta: int) -> None:
        """Apply a signed availability delta, journalled for rollback."""
        old = self._avail.get(switch, 0)
        new = old + delta
        self._avail[switch] = new
        if (old < QUBITS_PER_CHANNEL) != (new < QUBITS_PER_CHANNEL):
            self._flip(switch, new)
        peak = self._peak.get(switch)
        if self._journals:
            self._journals[-1].append((switch, delta, peak))
        used = self._budgets.get(switch, 0) - new
        if used > (self._start_usage(switch) if peak is None else peak):
            self._peak[switch] = used
            if self._peak_global is not None and used > self._peak_global:
                self._peak_global = used

    def _flip(self, switch: Hashable, new: int) -> None:
        """Update *switch*'s mask byte after it crossed 2 free qubits."""
        blocked = self._blocked
        if blocked is not None:
            graph = self._mask_graph
            i = graph.index.get(switch)
            if i is not None and graph.is_switch[i]:
                blocked[i] = new < QUBITS_PER_CHANNEL

    def can_reserve(self, usage: Mapping[Hashable, int]) -> bool:
        """Whether every switch in *usage* has the requested headroom."""
        return all(
            self._avail.get(switch, 0) >= qubits
            for switch, qubits in usage.items()
        )

    def reserve(self, usage: Mapping[Hashable, int]) -> None:
        """Atomically reserve *usage* qubits; all-or-nothing.

        Raises :class:`CapacityError` (before mutating anything) when
        any switch lacks the headroom.
        """
        avail = self._avail
        for switch, qubits in usage.items():
            if not 0 <= qubits <= avail.get(switch, 0):
                self._refuse_reserve(usage)
        for switch, qubits in usage.items():
            if qubits:
                self._apply(switch, -qubits)
        metrics = obs_metrics.active()
        if metrics is not None:
            if self._peak_global is None:
                self._peak_global = max(
                    self.peak_usage().values(), default=0
                )
            metrics.inc("core.ledger.reserves")
            metrics.inc("core.ledger.qubits_reserved", sum(usage.values()))
            metrics.max_gauge(
                "core.ledger.peak_occupancy", self._peak_global
            )

    def _refuse_reserve(self, usage: Mapping[Hashable, int]) -> NoReturn:
        """Raise for the first switch in ``repr`` order that *usage*
        overdraws, so the error does not depend on *usage*'s order."""
        for switch in sorted(usage, key=repr):
            qubits = usage[switch]
            if qubits < 0:
                raise ValueError(
                    f"cannot reserve negative qubits ({qubits}) at {switch!r}"
                )
            free = self._avail.get(switch, 0)
            if free < qubits:
                raise CapacityError(
                    f"switch {switch!r} has {free} free qubits, "
                    f"cannot reserve {qubits}",
                    switch,
                    qubits,
                    free,
                )
        raise AssertionError("no switch overdrawn")  # pragma: no cover

    def reserve_capped(self, usage: Mapping[Hashable, int]) -> None:
        """Reserve *usage*, capped at each switch's free qubits.

        For trees a capacity-exempt solver (Algorithm 2) built, which
        may overbook a switch: the overbooked switch is left with 0 free
        qubits, so it blocks relays exactly as an overdrawn account
        would.
        """
        avail = self._avail
        self.reserve(
            {s: min(q, avail.get(s, 0)) for s, q in usage.items()}
        )

    def release(self, usage: Mapping[Hashable, int]) -> None:
        """Atomically return *usage* qubits to the account.

        Releasing above a switch's known budget is a double-release bug
        and raises :class:`CapacityError` before mutating anything.
        """
        avail, budgets = self._avail, self._budgets
        for switch, qubits in usage.items():
            budget = budgets.get(switch)
            if qubits < 0 or (
                budget is not None and qubits > budget - avail.get(switch, 0)
            ):
                self._refuse_release(usage)
        for switch, qubits in usage.items():
            if qubits:
                self._apply(switch, qubits)
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("core.ledger.releases")
            metrics.inc("core.ledger.qubits_released", sum(usage.values()))

    def _refuse_release(self, usage: Mapping[Hashable, int]) -> NoReturn:
        """Raise for the first switch in ``repr`` order that *usage*
        over-releases, so the error does not depend on *usage*'s order."""
        for switch in sorted(usage, key=repr):
            qubits = usage[switch]
            if qubits < 0:
                raise ValueError(
                    f"cannot release negative qubits ({qubits}) at {switch!r}"
                )
            budget = self._budgets.get(switch)
            if budget is not None:
                headroom = budget - self._avail.get(switch, 0)
                if qubits > headroom:
                    raise CapacityError(
                        f"release of {qubits} qubits at {switch!r} exceeds "
                        f"its outstanding reservation ({headroom})",
                        switch,
                        qubits,
                        headroom,
                    )
        raise AssertionError("no switch over-released")  # pragma: no cover

    # Channel conveniences ------------------------------------------------
    def can_host(self, channel: Channel) -> bool:
        """Whether every transit switch can fund one more channel."""
        return all(
            self._avail.get(s, 0) >= QUBITS_PER_CHANNEL
            for s in channel.switches
        )

    def reserve_channel(self, channel: Channel) -> None:
        """Reserve ``2`` qubits at each of *channel*'s transit switches."""
        self.reserve(channel_usage((channel,)))

    def release_channel(self, channel: Channel) -> None:
        """Return the qubits :meth:`reserve_channel` pinned."""
        self.release(channel_usage((channel,)))

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------
    @contextmanager
    def transaction(self) -> Iterator["CapacityLedger"]:
        """Scope a group of reservations; roll back on exception.

        Nested transactions compose: an inner rollback undoes only the
        inner block's changes; an inner commit folds them into the
        enclosing transaction (so an outer rollback still undoes them).

        A rollback publishes ``core.ledger.rollbacks`` and, as
        ``core.ledger.qubits_rolled_back``, the reserved qubits it gave
        back, each counted by the one rollback that undid it.  A
        release it undoes stays counted in ``qubits_released``.
        """
        journal: List[Tuple[Hashable, int, Optional[int]]] = []
        self._journals.append(journal)
        peak_global = self._peak_global
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc("core.ledger.transactions")
        try:
            yield self
        except BaseException:
            returned = self._rollback(journal)
            self._peak_global = peak_global
            if metrics is not None:
                metrics.inc("core.ledger.rollbacks")
                metrics.inc("core.ledger.qubits_rolled_back", returned)
            raise
        finally:
            popped = self._journals.pop()
            assert popped is journal, "transaction stack corrupted"
            if self._journals:
                # Fold surviving entries into the enclosing transaction.
                self._journals[-1].extend(journal)

    def _rollback(
        self, journal: List[Tuple[Hashable, int, Optional[int]]]
    ) -> int:
        """Undo *journal* and clear it, so an enclosing rollback does
        not undo it again; returns the reserved qubits it gave back."""
        returned = 0
        for switch, delta, peak in reversed(journal):
            if delta < 0:
                returned -= delta
            old = self._avail.get(switch, 0)
            new = old - delta
            self._avail[switch] = new
            if (old < QUBITS_PER_CHANNEL) != (new < QUBITS_PER_CHANNEL):
                self._flip(switch, new)
            if peak is None:
                self._peak.pop(switch, None)
            else:
                self._peak[switch] = peak
        journal.clear()
        return returned

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        reserved = sum(
            max(0, self._budgets.get(s, 0) - q)
            for s, q in self._avail.items()
        )
        return (
            f"CapacityLedger(switches={len(self._avail)}, "
            f"reserved={reserved}, open_txns={len(self._journals)})"
        )
