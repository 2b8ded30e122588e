"""DeltaBus / GraphDelta unit tests."""

from __future__ import annotations

import pytest

from repro.exec import cache as exec_cache
from repro.exec.cache import ChannelCache
from repro.incremental import delta as incremental_delta
from repro.incremental.delta import DeltaBus, GraphDelta
from repro.incremental.events import DeltaEvent
from repro.topology.extras import grid_network


@pytest.fixture(autouse=True)
def _clean_globals():
    incremental_delta.disable()
    exec_cache.disable()
    yield
    incremental_delta.disable()
    exec_cache.disable()


class TestGraphDelta:
    def test_take_drains_in_order(self):
        delta = GraphDelta()
        first = DeltaEvent.fiber_cut("a", "b")
        second = DeltaEvent.switch_dark("s")
        delta.append(first)
        delta.append(second)
        assert delta.take() == (first, second)
        assert len(delta) == 0

    def test_summary_counts_by_kind(self):
        delta = GraphDelta(
            [
                DeltaEvent.fiber_cut("a", "b"),
                DeltaEvent.fiber_cut("c", "d"),
                DeltaEvent.capacity_crossing("s", True),
            ]
        )
        assert delta.summary() == {
            "fiber-cut": 2,
            "capacity-crossing": 1,
        }
        assert len(delta.structural) == 2


class TestDeltaBus:
    def test_publish_records_and_notifies(self):
        bus = DeltaBus()
        seen = []
        bus.subscribe(seen.append)
        event = DeltaEvent.switch_dark("s0")
        assert bus.publish(event) is True
        assert seen == [event]
        assert bus.events_published == 1
        assert tuple(bus.delta) == (event,)

    def test_suspended_swallows_publishes(self):
        bus = DeltaBus()
        with bus.suspended():
            assert bus.is_suspended
            assert not bus.publish(DeltaEvent.switch_dark("s0"))
            with bus.suspended():  # re-entrant
                assert not bus.publish(DeltaEvent.switch_dark("s1"))
        assert not bus.is_suspended
        assert bus.events_published == 0
        assert bus.events_suppressed == 2

    def test_invalid_scope_rejected(self):
        with pytest.raises(ValueError, match="scope"):
            DeltaBus(scope="galaxy")

    def test_tracking_restores_prior_bus(self):
        outer = incremental_delta.enable()
        with incremental_delta.tracking() as inner:
            assert incremental_delta.active() is inner
        assert incremental_delta.active() is outer

    def test_region_scope_invalidates_only_nearby_entries(self):
        net = grid_network(4, 4)
        fingerprint = net.fingerprint(scope="routing")
        cache = ChannelCache()
        near = (fingerprint, "n0_0", frozenset({"n1_1"}), frozenset(), False)
        far = (fingerprint, "n3_3", frozenset(), frozenset(), False)
        cache.put(near, ({}, {}))
        cache.put(far, ({}, {}))
        bus = DeltaBus(scope="region", radius=1)
        with exec_cache.caching(cache):
            bus.publish(
                DeltaEvent.fiber_cut("n1_1", "n1_2"),
                network=net,
                fingerprint=fingerprint,
            )
        # The near entry holds a blocked switch inside the region; the
        # far one is untouched.
        assert cache.get(near) is None
        assert cache.get(far) is not None
        assert cache.stats().cause("switch_region") == 1

    def test_fingerprint_scope_reproduces_legacy_bump(self):
        net = grid_network(4, 4)
        fingerprint = net.fingerprint(scope="routing")
        cache = ChannelCache()
        near = (fingerprint, "n0_0", frozenset({"n1_1"}), frozenset(), False)
        far = (fingerprint, "n3_3", frozenset(), frozenset(), False)
        cache.put(near, ({}, {}))
        cache.put(far, ({}, {}))
        bus = DeltaBus(scope="fingerprint")
        with exec_cache.caching(cache):
            bus.publish(
                DeltaEvent.fiber_cut("n1_1", "n1_2"),
                network=net,
                fingerprint=fingerprint,
            )
        assert cache.get(near) is None
        assert cache.get(far) is None
        assert cache.stats().cause("graph_fingerprint") == 2

    def test_capacity_crossing_gets_no_bus_hygiene(self):
        net = grid_network(4, 4)
        fingerprint = net.fingerprint(scope="routing")
        cache = ChannelCache()
        key = (fingerprint, "n0_0", frozenset({"n1_1"}), frozenset(), False)
        cache.put(key, ({}, {}))
        bus = DeltaBus(scope="region")
        with exec_cache.caching(cache):
            bus.publish(
                DeltaEvent.capacity_crossing("n1_1", True),
                network=net,
                fingerprint=fingerprint,
            )
        # Exact keys carry the blocked set, so a crossing strands no
        # entry; the bus records the event without touching the cache.
        assert cache.get(key) is not None
        assert tuple(bus.delta)[-1].kind.value == "capacity-crossing"


class TestMutationHooks:
    def test_remove_and_add_fiber_publish_events(self):
        net = grid_network(3, 3)
        with incremental_delta.tracking() as bus:
            net.remove_fiber("n1_1", "n1_2")
            net.add_fiber("n1_1", "n1_2", 1000.0)
        kinds = [e.kind.value for e in bus.delta]
        assert kinds == ["fiber-cut", "fiber-restore"]

    def test_no_bus_means_no_events_and_no_error(self):
        net = grid_network(3, 3)
        net.remove_fiber("n1_1", "n1_2")  # must not raise
        assert incremental_delta.active() is None

    def test_apply_failures_runs_suspended(self):
        from repro.extensions.recovery import apply_failures

        net = grid_network(3, 3)
        with incremental_delta.tracking() as bus:
            apply_failures(net, [("n1_1", "n1_2")], ["n2_1"])
        assert bus.events_published == 0
        assert bus.events_suppressed > 0
