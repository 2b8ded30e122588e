"""Tests for the transactional capacity ledger.

The contract under test: no code path — success, infeasibility, or a
mid-solve crash — may leak reserved qubits into a caller's ledger
unless the solve actually committed a feasible tree.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.metrics as obs_metrics
from repro.core.channel import ChannelSearches
from repro.core.conflict_free import solve_conflict_free
from repro.core.ledger import CapacityError, CapacityLedger
from repro.core.ledger import _blocked_mask as blocked_mask
from repro.core.prim_based import solve_prim
from repro.core.problem import Channel, channel_usage
from repro.network.graph import NetworkParams, QuantumNetwork
from repro.utils.rng import ensure_rng


class TestBasicAccounting:
    def test_from_network(self, star_network):
        ledger = CapacityLedger.from_network(star_network)
        assert ledger.available("hub") == 4
        assert ledger.budget("hub") == 4
        assert ledger.used("hub") == 0

    def test_reserve_and_release(self):
        ledger = CapacityLedger({"a": 4, "b": 2})
        ledger.reserve({"a": 2, "b": 2})
        assert ledger.available("a") == 2
        assert ledger.available("b") == 0
        assert ledger.used("b") == 2
        ledger.release({"b": 2})
        assert ledger.available("b") == 2

    def test_reserve_is_all_or_nothing(self):
        ledger = CapacityLedger({"a": 4, "b": 1})
        with pytest.raises(CapacityError) as excinfo:
            ledger.reserve({"a": 2, "b": 2})
        # b lacked headroom, so a must be untouched too.
        assert ledger.as_dict() == {"a": 4, "b": 1}
        assert excinfo.value.switch == "b"
        assert excinfo.value.requested == 2
        assert excinfo.value.available == 1

    def test_reserve_capped_stops_at_zero(self):
        """An overbooking usage (a capacity-exempt tree) leaves the
        switch empty, and so blocked, rather than raising."""
        ledger = CapacityLedger({"a": 4, "b": 4})
        ledger.reserve_capped({"a": 6, "b": 2})
        assert ledger.as_dict() == {"a": 0, "b": 2}
        assert ledger.used("a") == 4

    def test_negative_amounts_rejected(self):
        ledger = CapacityLedger({"a": 4})
        with pytest.raises(ValueError):
            ledger.reserve({"a": -1})
        with pytest.raises(ValueError):
            ledger.release({"a": -1})

    def test_double_release_detected(self):
        ledger = CapacityLedger({"a": 4})
        ledger.reserve({"a": 2})
        ledger.release({"a": 2})
        with pytest.raises(CapacityError):
            ledger.release({"a": 2})

    def test_negative_initial_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacityLedger({"a": -1})
        with pytest.raises(ValueError, match="-3 for 'b'"):
            CapacityLedger({"a": 2, "b": -3})

    def test_mapping_read_side(self):
        ledger = CapacityLedger({"a": 4, "b": 2})
        assert ledger["a"] == 4
        assert ledger.get("missing", 0) == 0
        assert "b" in ledger and "missing" not in ledger
        assert len(ledger) == 2
        assert dict(ledger) == {"a": 4, "b": 2}
        assert sorted(ledger.keys()) == ["a", "b"]

    def test_peak_usage_high_water(self):
        ledger = CapacityLedger({"a": 4})
        ledger.reserve({"a": 4})
        ledger.release({"a": 4})
        ledger.reserve({"a": 2})
        assert ledger.peak_usage()["a"] == 4


class TestChannelConveniences:
    def test_reserve_channel_pins_two_per_switch(self, line_network):
        ledger = CapacityLedger.from_network(line_network)
        channel = Channel.from_path(
            line_network, ("alice", "s0", "s1", "bob")
        )
        assert ledger.can_host(channel)
        ledger.reserve_channel(channel)
        assert ledger.available("s0") == 2
        assert ledger.available("s1") == 2
        ledger.release_channel(channel)
        assert ledger.as_dict() == {"s0": 4, "s1": 4}

    def test_can_host_refuses_a_full_switch(self, tight_star_network):
        ledger = CapacityLedger.from_network(tight_star_network)
        channel = Channel.from_path(
            tight_star_network, ("alice", "hub", "bob")
        )
        assert ledger.can_host(channel)
        ledger.reserve_channel(channel)
        assert not ledger.can_host(channel)
        assert ledger.available("hub") == 0


class TestTransactions:
    def test_rollback_on_exception(self):
        ledger = CapacityLedger({"a": 4, "b": 4})
        with pytest.raises(RuntimeError, match="boom"):
            with ledger.transaction():
                ledger.reserve({"a": 2})
                ledger.reserve({"b": 4})
                raise RuntimeError("boom")
        assert ledger.as_dict() == {"a": 4, "b": 4}

    def test_commit_keeps_changes(self):
        ledger = CapacityLedger({"a": 4})
        with ledger.transaction():
            ledger.reserve({"a": 2})
        assert ledger.available("a") == 2

    def test_nested_inner_rollback_preserves_outer(self):
        ledger = CapacityLedger({"a": 8})
        with ledger.transaction():
            ledger.reserve({"a": 2})
            with pytest.raises(RuntimeError):
                with ledger.transaction():
                    ledger.reserve({"a": 4})
                    raise RuntimeError("inner")
            assert ledger.available("a") == 6
        assert ledger.available("a") == 6

    def test_nested_commit_undone_by_outer_rollback(self):
        ledger = CapacityLedger({"a": 8})
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                with ledger.transaction():
                    ledger.reserve({"a": 4})
                raise RuntimeError("outer")
        assert ledger.available("a") == 8

    def test_rollback_restores_release_too(self):
        ledger = CapacityLedger({"a": 4})
        ledger.reserve({"a": 4})
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                ledger.release({"a": 2})
                raise RuntimeError("boom")
        assert ledger.available("a") == 0

    def test_rollback_restores_peaks(self):
        ledger = CapacityLedger({"a": 4, "b": 4})
        ledger.reserve({"a": 2})
        with obs_metrics.collecting():
            ledger.reserve({"b": 2})
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                ledger.reserve({"a": 2, "b": 2})
                with ledger.transaction():
                    ledger.reserve({"x": 0})
                    ledger.release({"b": 4})
                raise RuntimeError("boom")
        assert ledger.peak_usage() == {"a": 2, "b": 2}
        with obs_metrics.collecting() as registry:
            ledger.reserve({"a": 0})
        assert registry.gauges()["core.ledger.peak_occupancy"] == 2


class TestFork:
    def test_fork_copies_free_qubits_and_budgets(self):
        ledger = CapacityLedger({"a": 4, "b": 2}, {"a": 6, "b": 2})
        fork = ledger.fork()
        assert fork.as_dict() == {"a": 4, "b": 2}
        assert fork.used("a") == 2
        assert fork.peak_usage() == {"a": 2, "b": 0}

    def test_fork_spends_privately(self):
        ledger = CapacityLedger({"a": 4})
        ledger.reserve({"a": 2})
        fork = ledger.fork()
        fork.release({"a": 2})
        fork.reserve({"a": 4})
        assert ledger.as_dict() == {"a": 2}
        assert fork.as_dict() == {"a": 0}


class TestSolversNeverLeak:
    """End-to-end: solver exceptions and failures leak no reservations."""

    # conflict_free only reaches its capacity-aware channel search in
    # Phase 2, i.e. when Phase 1's greedy retention leaves the users
    # split — which the 2-qubit hub guarantees.  prim searches from the
    # very first iteration, so the roomy star suffices.
    CRASH_CASES = (
        (solve_conflict_free, "tight_star_network"),
        (solve_prim, "star_network"),
    )

    @pytest.mark.parametrize("solver,fixture", CRASH_CASES)
    def test_mid_solve_crash_leaves_residual_untouched(
        self, solver, fixture, request, monkeypatch
    ):
        network = request.getfixturevalue(fixture)
        calls = {"n": 0}
        search = ChannelSearches._search

        def exploding(self, source, targets):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated mid-solve crash")
            return search(self, source, targets)

        monkeypatch.setattr(ChannelSearches, "_search", exploding)
        shared = CapacityLedger.from_network(network)
        before = shared.as_dict()
        with pytest.raises(RuntimeError, match="mid-solve"):
            solver(
                network,
                network.user_ids,
                rng=ensure_rng(1),
                residual=shared,
            )
        assert shared.as_dict() == before
        assert shared.peak_usage() == {s: 0 for s in before}

    @pytest.mark.parametrize("solver,fixture", CRASH_CASES)
    def test_crash_on_shared_ledger_rolls_back(
        self, solver, fixture, request, monkeypatch
    ):
        network = request.getfixturevalue(fixture)

        def exploding(self, source, targets):
            raise RuntimeError("simulated crash")

        monkeypatch.setattr(ChannelSearches, "_search", exploding)
        ledger = CapacityLedger.from_network(network)
        before = ledger.as_dict()
        with pytest.raises(RuntimeError):
            solver(
                network,
                network.user_ids,
                rng=ensure_rng(1),
                residual=ledger,
            )
        assert ledger.as_dict() == before

    @pytest.mark.parametrize("solver", [solve_conflict_free, solve_prim])
    def test_infeasible_solve_reserves_nothing(
        self, tight_star_network, solver
    ):
        shared = CapacityLedger.from_network(tight_star_network)
        before = shared.as_dict()
        solution = solver(
            tight_star_network,
            tight_star_network.user_ids,
            rng=ensure_rng(1),
            residual=shared,
        )
        assert not solution.feasible
        assert shared.as_dict() == before

    @pytest.mark.parametrize("solver", [solve_conflict_free, solve_prim])
    def test_feasible_solve_publishes_exact_usage(self, star_network, solver):
        shared = CapacityLedger.from_network(star_network)
        solution = solver(
            star_network,
            star_network.user_ids,
            rng=ensure_rng(1),
            residual=shared,
        )
        assert solution.feasible
        assert shared["hub"] == 4 - solution.switch_usage()["hub"]


class _ReferenceLedger:
    """The eager-peak ``CapacityLedger``, frozen as the reference.

    It builds every switch's high-water mark and the global peak at
    construction.  Only the parts the peak telemetry depends on are
    kept: construction, reserve/release, nested transactions, the
    ``core.ledger.peak_occupancy`` gauge and the read-outs.  A
    rollback restores the peaks along with the free qubits.
    """

    def __init__(self, available, budgets=None):
        self._avail = dict(available)
        for switch, qubits in self._avail.items():
            if qubits < 0:
                raise ValueError(
                    f"negative initial capacity {qubits} for {switch!r}"
                )
        self._budgets = (
            dict(budgets) if budgets is not None else dict(self._avail)
        )
        self._peak = {
            s: max(0, self._budgets.get(s, q) - q)
            for s, q in self._avail.items()
        }
        self._journals = []
        self._peak_global = max(self._peak.values(), default=0)

    def as_dict(self):
        return dict(self._avail)

    def peak_usage(self):
        return dict(self._peak)

    def _apply(self, switch, delta):
        new = self._avail.get(switch, 0) + delta
        self._avail[switch] = new
        if self._journals:
            self._journals[-1].append((switch, delta, dict(self._peak)))
        used = self._budgets.get(switch, 0) - new
        if used > self._peak.get(switch, 0):
            self._peak[switch] = used
            if used > self._peak_global:
                self._peak_global = used

    def reserve(self, usage):
        for switch in sorted(usage, key=repr):
            qubits = usage[switch]
            if qubits < 0:
                raise ValueError("negative reserve")
            free = self._avail.get(switch, 0)
            if free < qubits:
                raise CapacityError("short", switch, qubits, free)
        for switch, qubits in usage.items():
            if qubits:
                self._apply(switch, -qubits)
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.max_gauge("core.ledger.peak_occupancy", self._peak_global)

    def release(self, usage):
        for switch in sorted(usage, key=repr):
            qubits = usage[switch]
            if qubits < 0:
                raise ValueError("negative release")
            budget = self._budgets.get(switch)
            if budget is not None:
                headroom = budget - self._avail.get(switch, 0)
                if qubits > headroom:
                    raise CapacityError("over", switch, qubits, headroom)
        for switch, qubits in usage.items():
            if qubits:
                self._apply(switch, qubits)

    @contextmanager
    def transaction(self):
        journal = []
        self._journals.append(journal)
        peak_global = self._peak_global
        try:
            yield self
        except BaseException:
            for switch, delta, peak in reversed(journal):
                self._avail[switch] = self._avail.get(switch, 0) - delta
                self._peak = peak
            self._peak_global = peak_global
            journal.clear()
            raise
        finally:
            self._journals.pop()
            if self._journals:
                self._journals[-1].extend(journal)


#: Switches a ledger may start with, and two it never starts with.
_KNOWN = ("s0", "s1", "s2", "s3")
_UNKNOWN = ("x0", "x1")


class _ForcedRollback(Exception):
    pass


_usage = st.dictionaries(
    st.sampled_from(_KNOWN + _UNKNOWN), st.integers(0, 4), max_size=3
)
_ops = st.recursive(
    st.tuples(st.sampled_from(["reserve", "release"]), _usage),
    lambda inner: st.tuples(
        st.just("txn"), st.lists(inner, max_size=4), st.booleans()
    ),
    max_leaves=12,
)


@st.composite
def _ledger_cases(draw):
    capacities = st.integers(0, 6)
    kind = draw(st.sampled_from(["direct", "fork", "network"]))
    network = None
    if kind != "network":
        available = draw(
            st.dictionaries(st.sampled_from(_KNOWN), capacities, max_size=4)
        )
        budgets = draw(
            st.none()
            | st.dictionaries(
                st.sampled_from(_KNOWN + _UNKNOWN), capacities, max_size=5
            )
        )
    else:
        network = QuantumNetwork(NetworkParams())
        for switch in draw(st.permutations(_KNOWN)):
            network.add_switch(switch, qubits=draw(capacities))
        available = budgets = network.residual_qubits()
    ops = draw(st.lists(_ops, max_size=8))
    flags = st.lists(st.booleans(), min_size=len(ops), max_size=len(ops))
    return kind, network, available, budgets, list(
        zip(ops, draw(flags), draw(flags))
    )


def _run_op(ledger, op):
    """Apply *op*; returns the error's type name, or ``None``."""
    try:
        if op[0] == "reserve":
            ledger.reserve(op[1])
        elif op[0] == "release":
            ledger.release(op[1])
        else:
            _, inner, fail = op
            try:
                with ledger.transaction():
                    outcomes = [_run_op(ledger, o) for o in inner]
                    if fail:
                        raise _ForcedRollback
                return outcomes
            except _ForcedRollback:
                return outcomes + ["rollback"]
    except (CapacityError, ValueError) as exc:
        return type(exc).__name__
    return None


def _read_out(ledger):
    return (
        list(ledger.peak_usage().items()),
        list(ledger.as_dict().items()),
    )


@settings(max_examples=300, deadline=None)
@given(case=_ledger_cases())
def test_lazy_peaks_match_eager_reference(case):
    kind, network, available, budgets, ops = case
    if kind == "network":
        ledger = CapacityLedger.from_network(network)
    else:
        ledger = CapacityLedger(available, budgets)
        if kind == "fork":
            ledger = ledger.fork()
    reference = _ReferenceLedger(available, budgets)
    got, want = obs_metrics.MetricsRegistry(), obs_metrics.MetricsRegistry()
    for op, inspect, metered in ops:
        # Unmetered ops leave the global peak to be found later.
        with obs_metrics.collecting(want) if metered else nullcontext():
            expected = _run_op(reference, op)
        with obs_metrics.collecting(got) if metered else nullcontext():
            outcome = _run_op(ledger, op)
        assert outcome == expected
        assert got.gauges() == want.gauges()
        if inspect:
            assert _read_out(ledger) == _read_out(reference)
    assert _read_out(ledger) == _read_out(reference)


# ----------------------------------------------------------------------
# The blocked-switch mask the ledger keeps for the channel search
# ----------------------------------------------------------------------
_paths = st.lists(
    st.lists(st.sampled_from(_KNOWN), min_size=1, max_size=3, unique=True),
    max_size=3,
)
_mask_ops = st.recursive(
    st.tuples(st.sampled_from(["reserve", "release"]), _usage)
    | st.tuples(st.just("hold"), _paths),
    lambda inner: st.tuples(
        st.just("txn"), st.lists(inner, max_size=4), st.booleans()
    ),
    max_leaves=12,
)


@st.composite
def _mask_cases(draw):
    network = QuantumNetwork(NetworkParams())
    network.add_user("u0")
    for switch in draw(st.permutations(_KNOWN)):
        network.add_switch(switch, qubits=draw(st.integers(0, 6)))
    network.add_user("u1")
    if draw(st.booleans()):
        ledger = CapacityLedger.from_network(network)
    else:
        available = draw(
            st.dictionaries(
                st.sampled_from(_KNOWN + _UNKNOWN), st.integers(0, 6)
            )
        )
        ledger = CapacityLedger(available)
    ops = draw(st.lists(_mask_ops | st.just(("fork",)), max_size=8))
    return network, ledger, ops


def _run_mask_op(ledger, op):
    """Apply *op* to *ledger*; returns the ledger later ops act on."""
    if op[0] == "fork":
        return ledger.fork()
    if op[0] == "hold":
        ledger.reserve_capped(
            channel_usage(Channel(("u0", *path, "u1"), 0.0) for path in op[1])
        )
    elif op[0] == "txn":
        _, inner, fail = op
        try:
            with ledger.transaction():
                for o in inner:
                    _run_mask_op(ledger, o)
                if fail:
                    raise _ForcedRollback
        except _ForcedRollback:
            pass
    else:
        try:
            getattr(ledger, op[0])(op[1])
        except (CapacityError, ValueError):
            pass
    return ledger


@settings(max_examples=300, deadline=None)
@given(case=_mask_cases())
def test_kept_mask_matches_a_rebuilt_one(case):
    """The mask ``_apply``/``_rollback`` keep is the one a search would
    build from the ledger's free qubits, through every write path."""
    network, ledger, ops = case
    graph = network.routing_snapshot()
    ledger.blocked(graph)
    for op in ops:
        ledger = _run_mask_op(ledger, op)
        assert ledger.blocked(graph) == blocked_mask(graph, ledger.as_dict())
    network.add_user("late")
    grown = network.routing_snapshot()
    assert grown.index is not graph.index
    assert ledger.blocked(grown) == blocked_mask(grown, ledger.as_dict())
    ledger = _run_mask_op(ledger, ("release", {s: 2 for s in _KNOWN}))
    ledger = _run_mask_op(ledger, ("hold", [list(_KNOWN)]))
    assert ledger.blocked(grown) == blocked_mask(grown, ledger.as_dict())


def test_fork_copies_the_mask(line_network):
    ledger = CapacityLedger.from_network(line_network)
    graph = line_network.routing_snapshot()
    fork = ledger.fork()
    assert fork.blocked(graph) == ledger.blocked(graph)
    assert fork.blocked(graph) is not ledger.blocked(graph)
    fork.reserve({"s0": 4})
    assert fork.blocked(graph)[graph.index["s0"]] == 1
    assert ledger.blocked(graph)[graph.index["s0"]] == 0
