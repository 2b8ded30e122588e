"""The five seeded workloads of the routing-stack benchmark.

Each workload turns ``--seed`` into a large pool of inputs (``setup``)
and then runs the pool's items through the program in order, cycling,
until the run's time is up.  Every call is closed loop: the next one
starts when the previous one returns.

Per call the workload records into a :class:`Tally`: the wall time of
the entry-point call, how many workload units it finished (solves,
requests, events or trials), how many of those failed a check, how many
ended in a useful outcome, and a canonical line for the output digest.
Checks run outside the timed call but inside the run's wall time.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import nullcontext
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import registry
from repro.core.registry import CAPACITY_EXEMPT_METHODS
from repro.exec import cache as exec_cache
from repro.exec.cache import CacheStats, ChannelCache
from repro.incremental import IncrementalRouter
from repro.incremental import delta as incremental_delta
from repro.incremental.warmstart import WarmStartIndex
from repro.resilience.faults import FaultInjector, random_schedule
from repro.sim.engine import SlottedEntanglementSimulator
from repro.sim.online import OnlineScheduler
from repro.sim.workload import (
    ChurnSpec,
    WorkloadSpec,
    generate_churn,
    generate_workload,
)
from repro.tenancy import ReplicationPolicy, serve_tenants
from repro.tenancy.fairness import jain_index
from repro.topology import TopologyConfig, waxman_network, watts_strogatz_network
from repro.verify.verifier import SolutionVerifier

#: A run keeps calling until it has at least this many latency samples,
#: so at least ten of them lie beyond the reported p95.
MIN_CALLS = 200

#: Standard errors the Monte-Carlo mean slots may sit from 1/P.
MC_Z_LIMIT = 5.0

#: Solvers the ``plan`` workload cycles through: the paper's three
#: algorithms and its two baselines.
PLAN_METHODS = ("optimal", "conflict_free", "prim", "eqcast", "nfusion")


def _sub_seeds(seed: int, salt: int, count: int) -> List[int]:
    """*count* independent integer seeds derived from (*seed*, *salt*)."""
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _build_pool(config: TopologyConfig, seeds, alternate: bool):
    """Networks for *seeds*; Waxman, or Waxman/Watts–Strogatz in turn."""
    networks = []
    for index, net_seed in enumerate(seeds):
        generator = (
            watts_strogatz_network
            if alternate and index % 2
            else waxman_network
        )
        networks.append(generator(config, rng=net_seed))
    return networks


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in [0, 1])."""
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


class Tally:
    """What a stretch of a run did and whether it was right."""

    def __init__(self, call_span: Optional[Callable] = None) -> None:
        #: Opens the traced run's span around each timed call.
        self._call_span = call_span
        self.latencies: List[float] = []
        self.units = 0
        self.failed = 0
        self.useful = 0
        self.log_rates: List[float] = []
        self.waits: List[int] = []
        self.tenant_arrivals: Dict[str, int] = {}
        self.tenant_accepted: Dict[str, int] = {}
        self.errors: List[str] = []
        #: Layer facts the traced run reports (failovers, shed requests,
        #: cache and warm-start stats, slots and attempts).
        self.facts: Dict[str, float] = {}
        self.cache_stats = CacheStats()
        self._digest = hashlib.sha256()

    def call(self, fn: Callable, *args, **kwargs):
        """Time one entry-point call; a raise is recorded, not propagated."""
        scope = nullcontext() if self._call_span is None else self._call_span()
        with scope:
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:  # a raise is a failed operation
                self.latencies.append(time.perf_counter() - start)
                self.errors.append(f"{type(exc).__name__}: {exc}")
                return None
            self.latencies.append(time.perf_counter() - start)
        return value

    def note(self, line: str) -> None:
        self._digest.update(line.encode("utf-8"))
        self._digest.update(b"\n")

    def add_fact(self, name: str, amount: float) -> None:
        self.facts[name] = self.facts.get(name, 0) + amount

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def absorb(self, other: "Tally") -> None:
        """Fold *other* (a later stretch of the run) into this tally."""
        self.latencies.extend(other.latencies)
        self.units += other.units
        self.failed += other.failed
        self.useful += other.useful
        self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])
        for name, amount in other.facts.items():
            self.add_fact(name, amount)
        self.cache_stats = self.cache_stats.merged(other.cache_stats)
        self._digest.update(other.digest.encode("ascii"))

    def quality(self) -> Dict[str, Dict[str, object]]:
        """The outcome metrics of this tally, by name and unit."""
        out: Dict[str, Dict[str, object]] = {
            "served_fraction": {
                "value": self.useful / self.units if self.units else 0.0,
                "unit": "ratio",
            },
        }
        if self.log_rates:
            out["mean_log_rate"] = {
                "value": sum(self.log_rates) / len(self.log_rates),
                "unit": "ln",
            }
        if self.waits:
            out["wait_p95_slots"] = {
                "value": percentile(self.waits, 0.95),
                "unit": "slots",
            }
        if self.tenant_arrivals:
            fractions = [
                self.tenant_accepted.get(tenant, 0) / count
                for tenant, count in sorted(self.tenant_arrivals.items())
            ]
            out["jain_index"] = {"value": jain_index(fractions), "unit": "ratio"}
        return out


def _note_online(tally: Tally, network, requests, result) -> None:
    """Checks and tallies shared by ``online`` and ``serve`` sessions."""
    tally.units += len(requests)
    if result is None:
        tally.failed += len(requests)
        return
    outcomes = result.outcomes
    names = [o.request.name for o in outcomes]
    expected = [r.name for r in requests]
    if names != expected:
        # Every request must end with exactly one disposition.
        missing = set(expected).symmetric_difference(names)
        tally.failed += max(1, len(missing))
        tally.errors.append(f"unattributed requests: {sorted(missing)[:5]}")
    overbooked = [
        switch
        for switch, peak in sorted(result.peak_qubit_usage.items(), key=repr)
        if peak > (network.qubits_of(switch) or 0)
    ]
    if overbooked:
        tally.failed += len(overbooked)
        tally.errors.append(f"overbooked switches: {overbooked[:5]}")
    for outcome in outcomes:
        tenant = outcome.request.tenant
        if tenant:
            tally.tenant_arrivals[tenant] = (
                tally.tenant_arrivals.get(tenant, 0) + 1
            )
        if outcome.accepted:
            tally.useful += 1
            tally.log_rates.append(outcome.solution.log_rate)
            tally.waits.append(outcome.start_slot - outcome.request.arrival)
            if tenant:
                tally.tenant_accepted[tenant] = (
                    tally.tenant_accepted.get(tenant, 0) + 1
                )
        if outcome.disposition == "shed":
            tally.add_fact("shed", 1)
        tally.add_fact("failovers", outcome.failovers)
        tally.note(
            f"{outcome.request.name}|{outcome.disposition}|"
            f"{outcome.start_slot}|"
            f"{outcome.solution.log_rate if outcome.accepted else None!r}"
        )


class Workload:
    """One benchmark workload: a seeded pool of inputs, run item by item.

    A run cycles through ``state["items"]`` until its time is up.  The
    pools are large, so a run averages over many inputs and two seeds
    cost about the same.
    """

    name = ""
    unit = ""
    #: The first this-many items make up the digest and the outcome
    #: metrics, so both are fixed by the seed whatever the run length.
    prefix_items = 1

    def setup(self, seed: int):
        """Build the input pool for *seed*; returns ``(state, build_s)``."""
        raise NotImplementedError

    def run_item(self, state, item, tally: Tally) -> None:
        """Run one input of the pool, recording into *tally*."""
        raise NotImplementedError

    def warm_up(self, state) -> None:
        """Run the first input once, unrecorded, to warm the code paths."""
        self.run_item(state, state["items"][0], Tally())

    def final_checks(self, state, run: Tally) -> List[Tuple[str, bool, str]]:
        """Whole-run checks: ``(name, passed, detail)`` triples."""
        return []


class PlanWorkload(Workload):
    """Offline planning at the paper's default scale, every method."""

    name = "plan"
    unit = "solves"
    n_networks = 32
    prefix_items = n_networks * len(PLAN_METHODS)

    def setup(self, seed: int):
        seeds = _sub_seeds(seed, 1, self.n_networks)
        start = time.perf_counter()
        networks = _build_pool(TopologyConfig(), seeds, alternate=True)
        build_s = time.perf_counter() - start
        items = [
            (network, net_seed, method)
            for network, net_seed in zip(networks, seeds)
            for method in PLAN_METHODS
        ]
        return {"items": items, "verifier": SolutionVerifier()}, build_s

    def run_item(self, state, item, tally: Tally) -> None:
        # No channel cache is active here, as in ``repro solve``.
        network, net_seed, method = item
        tally.units += 1
        solution = tally.call(
            _solve_and_verify, state["verifier"], method, network, net_seed
        )
        if solution is None:
            tally.failed += 1
            return
        if solution.feasible:
            tally.useful += 1
            tally.log_rates.append(solution.log_rate)
        tally.note(
            f"{method}|{solution.feasible}|"
            f"{solution.log_rate if solution.feasible else None!r}|"
            f"{len(solution.channels)}"
        )


def _solve_and_verify(verifier, method, network, net_seed):
    """One ``plan`` call: solve, then audit a feasible tree (raises)."""
    solution = registry.solve(method, network, rng=net_seed)
    if solution.feasible:
        verifier.verify(
            network,
            solution,
            enforce_capacity=method not in CAPACITY_EXEMPT_METHODS,
        )
    return solution


class OnlineWorkload(Workload):
    """Fault-free Poisson sessions through the plain online scheduler."""

    name = "online"
    unit = "requests"
    network_seeds = range(2000, 2008)
    n_sessions = 480
    prefix_items = 64
    spec = WorkloadSpec(arrival_rate=5.0, horizon=8, mean_hold=6.0, max_wait=2)

    def setup(self, seed: int):
        start = time.perf_counter()
        networks = _build_pool(
            TopologyConfig(), self.network_seeds, alternate=False
        )
        build_s = time.perf_counter() - start
        items = []
        for index, session_seed in enumerate(
            _sub_seeds(seed, 2, self.n_sessions)
        ):
            network = networks[index % len(networks)]
            requests = generate_workload(
                network.user_ids, self.spec, rng=session_seed
            )
            items.append((network, requests, session_seed))
        return {"items": items}, build_s

    def run_item(self, state, item, tally: Tally) -> None:
        network, requests, session_seed = item
        result = tally.call(_run_online, network, requests, session_seed)
        _note_online(tally, network, requests, result)


def _run_online(network, requests, session_seed):
    return OnlineScheduler(network, method="prim", rng=session_seed).run(
        requests
    )


class ServeWorkload(Workload):
    """Overloaded multi-tenant serving under faults, as short sessions."""

    name = "serve"
    unit = "requests"
    network_seeds = range(3000, 3008)
    n_sessions = 128
    prefix_items = 48
    horizon = 6
    n_faults = 5
    config = TopologyConfig(
        n_switches=25, n_users=8, avg_degree=5.0, qubits_per_switch=4
    )
    spec = WorkloadSpec(
        arrival_rate=25.0,
        horizon=horizon,
        mean_hold=5.0,
        max_wait=4,
        n_tenants=6,
        tenant_skew=1.2,
        diurnal_amplitude=0.5,
        diurnal_period=horizon,
    )

    def setup(self, seed: int):
        seeds = _sub_seeds(seed, 3, 2 * self.n_sessions)
        start = time.perf_counter()
        networks = _build_pool(self.config, self.network_seeds, alternate=False)
        build_s = time.perf_counter() - start
        items = []
        for index in range(self.n_sessions):
            network = networks[index % len(networks)]
            request_seed = seeds[2 * index]
            fault_seed = seeds[2 * index + 1]
            requests = generate_workload(
                network.user_ids, self.spec, rng=request_seed
            )
            schedule = random_schedule(
                network, n_faults=self.n_faults, horizon=self.horizon,
                rng=fault_seed,
            )
            items.append((network, requests, schedule, request_seed))
        return {"items": items}, build_s

    def run_item(self, state, item, tally: Tally) -> None:
        network, requests, schedule, session_seed = item
        served = tally.call(_run_serve, network, requests, schedule, session_seed)
        _note_online(
            tally,
            network,
            requests,
            served.result if served is not None else None,
        )
        if served is not None and served.unattributed():
            # The resilience report must close every request too.
            tally.failed += len(served.unattributed())
            tally.errors.append(
                f"unreported requests: {served.unattributed()[:5]}"
            )


def _run_serve(network, requests, schedule, session_seed):
    return serve_tenants(
        network,
        requests,
        rng=session_seed,
        replication=ReplicationPolicy(k=2),
        fault_injector=FaultInjector(schedule, network),
        rate=1.5,
        burst=4.0,
        bulkhead=8,
        queue_size=8,
    )


class ChurnWorkload(Workload):
    """Incremental repair of one served tree under fault churn."""

    name = "churn"
    unit = "events"
    network_seeds = range(4000, 4016)
    n_streams = 384
    prefix_items = 32
    config = TopologyConfig(n_switches=50, n_users=8, qubits_per_switch=4)
    # At most two elements of a family down at once: with four, the few
    # streams that lose the tree for good (and re-solve on every later
    # event) made the work per event differ by 9% between seeds.
    spec = ChurnSpec(
        n_faults=60, fault_mix=(0.5, 0.2, 0.3), max_concurrent_down=2
    )

    def setup(self, seed: int):
        start = time.perf_counter()
        networks = _build_pool(self.config, self.network_seeds, alternate=False)
        build_s = time.perf_counter() - start
        items = []
        for index, stream_seed in enumerate(
            _sub_seeds(seed, 4, self.n_streams)
        ):
            network = networks[index % len(networks)]
            events = generate_churn(network, self.spec, rng=stream_seed)
            users = tuple(sorted(network.user_ids, key=repr))
            items.append((network, users, events, stream_seed))
        return {"items": items}, build_s

    def run_item(self, state, item, tally: Tally) -> None:
        router, stats, warm = _churn_stream(*item, tally)
        tally.cache_stats = tally.cache_stats.merged(stats)
        tally.add_fact("warm_hits", warm.hits)
        tally.add_fact("warm_lookups", warm.lookups)
        if router is not None:
            for name in ("splice", "escalate", "reacquire", "lost"):
                tally.add_fact(name, router.counters.get(f"actions.{name}", 0))

    def final_checks(self, state, run: Tally):
        # Equivalence on the first stream: the accelerated incremental
        # router must end byte-identical to the from-scratch reference.
        network, users, events, stream_seed = state["items"][0]
        router, _, _ = _churn_stream(network, users, events, stream_seed, None)
        reference = IncrementalRouter(
            network, users=users, method="prim", seed=stream_seed,
            mode="from_scratch",
        )
        reference.run(events)
        same = router is not None and router.digest() == reference.digest()
        return [("churn.equivalence", same, reference.digest())]


def _churn_stream(network, users, events, stream_seed, tally: Optional[Tally]):
    """One stream under cache + warm start + region tracking.

    With a *tally*, each ``apply`` is a timed call; without one the
    stream runs untimed (the equivalence check).
    """
    cache = ChannelCache()
    cache.warmstart = WarmStartIndex()
    with exec_cache.caching(cache), incremental_delta.tracking(
        scope="region", radius=2
    ):
        try:
            router = IncrementalRouter(
                network, users=users, method="prim", seed=stream_seed,
                mode="incremental",
            )
        except Exception as exc:  # a raise is a failed operation
            if tally is not None:
                tally.units += len(events)
                tally.failed += len(events)
                tally.errors.append(f"{type(exc).__name__}: {exc}")
            return None, cache.stats(), cache.warmstart
        for event in events:
            if tally is None:
                router.apply(event)
                continue
            tally.units += 1
            outcome = tally.call(router.apply, event)
            if outcome is None:
                tally.failed += 1
                continue
            if outcome.feasible:
                tally.useful += 1
                tally.log_rates.append(outcome.log_rate)
            tally.note(
                f"{outcome.index}|{outcome.classification}|{outcome.action}|"
                f"{outcome.log_rate!r}"
            )
    return router, cache.stats(), cache.warmstart


class MonteCarloWorkload(Workload):
    """Slot-by-slot execution of fixed, verified fig-scale trees."""

    name = "mc"
    unit = "trials"
    n_trees = 4
    prefix_items = 80
    #: The trees are fixed (the seed drives only the trials' coin flips)
    #: and chosen with 1/P <= this many slots, so one trial stays short.
    max_expected_slots = 50.0
    tree_seeds = range(1000, 1100)

    def setup(self, seed: int):
        config = TopologyConfig()
        verifier = SolutionVerifier()
        trees = []
        build_s = 0.0
        for index in self.tree_seeds:
            generator = watts_strogatz_network if index % 2 else waxman_network
            start = time.perf_counter()
            network = generator(config, rng=index)
            build_s += time.perf_counter() - start
            solution = registry.solve("prim", network, rng=index)
            if not solution.feasible:
                continue
            if 1.0 / solution.rate > self.max_expected_slots:
                continue
            verifier.verify(network, solution)
            trees.append((network, solution))
            if len(trees) == self.n_trees:
                break
        trial_seeds = _sub_seeds(seed, 5, len(trees))
        simulators = [
            SlottedEntanglementSimulator(network, solution, rng=trial_seed)
            for (network, solution), trial_seed in zip(trees, trial_seeds)
        ]
        # Per tree: [successful trials, their slots], for the 1/P check.
        slots = [[0, 0] for _ in simulators]
        return {"items": list(range(len(simulators))), "simulators": simulators,
                "slots": slots}, build_s

    def warm_up(self, state) -> None:
        # A fresh simulator, so the measured trials' rng is untouched.
        simulator = state["simulators"][0]
        SlottedEntanglementSimulator(
            simulator.network, simulator.solution, rng=0
        ).run()

    def run_item(self, state, item, tally: Tally) -> None:
        simulator = state["simulators"][item]
        tally.units += 1
        result = tally.call(simulator.run)
        if result is None or not result.succeeded:
            tally.failed += 1
            return
        tally.useful += 1
        tally.log_rates.append(simulator.solution.log_rate)
        per_tree = state["slots"][item]
        per_tree[0] += 1
        per_tree[1] += result.slots_used
        tally.add_fact("slots", result.slots_used)
        tally.add_fact("attempts", result.link_attempts + result.swap_attempts)
        tally.note(f"{item}|{result.slots_used}")

    def final_checks(self, state, run: Tally):
        checks = []
        for index, (simulator, (trials, slots)) in enumerate(
            zip(state["simulators"], state["slots"])
        ):
            rate = simulator.solution.rate
            expected = 1.0 / rate
            # Slots to success is geometric: sd = sqrt(1 - P) / P.
            stderr = math.sqrt(1.0 - rate) / rate / math.sqrt(max(trials, 1))
            mean = slots / trials if trials else math.inf
            z = abs(mean - expected) / stderr
            checks.append(
                (
                    f"mc.tree{index}.mean_slots",
                    trials > 0 and z <= MC_Z_LIMIT,
                    f"mean {mean:.3f} vs 1/P {expected:.3f} "
                    f"({z:.2f} SE over {trials} trials, limit {MC_Z_LIMIT})",
                )
            )
        return checks


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        PlanWorkload(),
        OnlineWorkload(),
        ServeWorkload(),
        ChurnWorkload(),
        MonteCarloWorkload(),
    )
}
