"""The traced run: spans around each layer's public entry points.

While a :class:`LayerTrace` is installed, every entry point listed in
:data:`ENTRY_POINTS` is replaced by a wrapper that counts the call and
records a parent-linked span on a private
:class:`repro.obs.trace.Tracer`.  Nothing under ``src/`` changes; the
wrappers are swapped in on the owning module or class and swapped back
afterwards.  Module globals are patched where the program resolves them
at call time: ``best_channels_from``/``find_best_channel`` look up
``dijkstra`` through the ``repro.core.channel`` module, and the online
loop imports ``plan_replica_set``/``repair_solution`` inside the run.

After each item the spans are rolled up into self-time per layer
(duration minus the time covered by child spans) and dropped, so memory
stays bounded however long the run is.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.obs.trace import Tracer
from repro.verify.invariants import InvariantViolation

#: (module, class or "", attribute, span name).  One span name per
#: entry point; :data:`SPAN_LAYER` maps span names onto layers.
ENTRY_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.core.channel", "", "dijkstra", "channel.dijkstra"),
    ("repro.core.registry", "", "solve", "solver"),
    # The online loop and the incremental router call the solvers they
    # imported by name, not through the registry.
    ("repro.sim.online", "", "solve_prim", "solver"),
    ("repro.sim.online", "", "solve_conflict_free", "solver"),
    ("repro.incremental.engine", "", "solve_prim", "solver"),
    ("repro.incremental.engine", "", "solve_conflict_free", "solver"),
    ("repro.core.ledger", "CapacityLedger", "reserve", "ledger.reserve"),
    ("repro.core.ledger", "CapacityLedger", "release", "ledger.release"),
    ("repro.core.ledger", "CapacityLedger", "transaction", "ledger.transaction"),
    ("repro.verify.verifier", "SolutionVerifier", "verify", "verify.verify"),
    ("repro.verify.verifier", "SolutionVerifier", "audit", "verify.audit"),
    ("repro.exec.cache", "ChannelCache", "key_for", "cache.key_for"),
    ("repro.exec.cache", "ChannelCache", "get", "cache.get"),
    ("repro.incremental.engine", "IncrementalRouter", "apply", "incremental.apply"),
    ("repro.tenancy.replicas", "", "plan_replica_set", "tenancy.replica_plan"),
    ("repro.extensions.recovery", "", "repair_solution", "recovery.repair"),
    ("repro.resilience.faults", "FaultInjector", "advance", "resilience.faults"),
    ("repro.admission.control", "AdmissionController", "begin_slot", "admission.begin_slot"),
    ("repro.admission.control", "AdmissionController", "decide", "admission.decide"),
    ("repro.sim.engine", "SlottedEntanglementSimulator", "run", "mc.run"),
    ("repro.sim.online", "OnlineScheduler", "run", "online.run"),
)

#: The benchmark's own span around each timed call; its self-time is
#: the part of a call no layer span covers.
CALL_SPAN = "bench.call"

SPAN_LAYER: Dict[str, str] = {
    name: name.split(".")[0] for _, _, _, name in ENTRY_POINTS
}
SPAN_LAYER[CALL_SPAN] = "unattributed"

#: Entry points whose return value is a context manager.
_CONTEXT_MANAGERS = {"ledger.transaction"}


class LayerTrace:
    """Counts, spans and per-layer self-time of one traced pass."""

    def __init__(self) -> None:
        self.tracer = Tracer(rng=0)
        self.calls: Dict[str, int] = defaultdict(int)
        self.raises: Dict[str, int] = defaultdict(int)
        self.violations = 0
        self.layer_self_s: Dict[str, float] = defaultdict(float)
        self.span_self_s: Dict[str, float] = defaultdict(float)
        #: Dijkstra calls made from inside a solver span.
        self.dijkstra_in_solver = 0
        self.spans = 0
        self._saved: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def install(self) -> None:
        for module_name, class_name, attr, span_name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            raw = inspect.getattr_static(owner, attr)
            is_static = isinstance(raw, staticmethod)
            original = raw.__func__ if is_static else raw
            wrapper = self._wrap(original, span_name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, original, name: str):
        span = self.tracer.span
        calls = self.calls
        raises = self.raises

        if name in _CONTEXT_MANAGERS:

            @contextlib.contextmanager
            def managed(*args, **kwargs):
                calls[name] += 1
                with span(name), original(*args, **kwargs) as value:
                    yield value

            return functools.wraps(original)(managed)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            with span(name):
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    raises[name] += 1
                    if isinstance(exc, InvariantViolation):
                        self.violations += 1
                    raise
            if name == "verify.audit":
                self.violations += len(result)
            return result

        return functools.wraps(original)(wrapper)

    # ------------------------------------------------------------------
    # Roll-up
    # ------------------------------------------------------------------
    def call_span(self):
        """The span the benchmark opens around one timed call."""
        return self.tracer.span(CALL_SPAN)

    def roll_up(self) -> None:
        """Fold the finished spans into self-times and drop them."""
        spans = self.tracer.spans
        by_id = {s.span_id: s for s in spans}
        covered: Dict[str, float] = defaultdict(float)
        for s in spans:
            if s.parent_id is not None:
                covered[s.parent_id] += s.duration_s
        for s in spans:
            own = s.duration_s - covered.get(s.span_id, 0.0)
            self.span_self_s[s.name] += own
            self.layer_self_s[SPAN_LAYER[s.name]] += own
            if s.name == "channel.dijkstra":
                parent = by_id.get(s.parent_id)
                while parent is not None:
                    if parent.name == "solver":
                        self.dijkstra_in_solver += 1
                        break
                    parent = by_id.get(parent.parent_id)
        self.spans += len(spans)
        self.tracer.reset()

    def coverage_checks(
        self, counters: Dict[str, float], run
    ) -> List[Tuple[str, bool, str]]:
        """Wrapper counts against the program's own counters.

        A call site the wrappers missed would make a layer look fast;
        these checks fail the run instead.  With a channel cache active,
        only searches that miss both the exact cache and the warm-start
        index reach the program's ``core.dijkstra.calls`` counter.
        """
        stats = run.cache_stats
        warm_hits = int(run.facts.get("warm_hits", 0))
        searched = self.calls["channel.dijkstra"] - stats.hits - warm_hits
        pairs = [
            ("coverage.dijkstra", searched, counters.get("core.dijkstra.calls", 0)),
            ("coverage.cache_lookups", self.calls["cache.get"], stats.lookups),
            (
                "coverage.cache_counters",
                stats.lookups,
                counters.get("repro.exec.cache.hits", 0)
                + counters.get("repro.exec.cache.misses", 0),
            ),
            (
                "coverage.ledger_reserves",
                self.calls["ledger.reserve"] - self.raises["ledger.reserve"],
                counters.get("core.ledger.reserves", 0),
            ),
            (
                "coverage.ledger_releases",
                self.calls["ledger.release"] - self.raises["ledger.release"],
                counters.get("core.ledger.releases", 0),
            ),
            (
                "coverage.ledger_transactions",
                self.calls["ledger.transaction"],
                counters.get("core.ledger.transactions", 0),
            ),
        ]
        return [
            (name, wrapped == counted, f"wrappers {wrapped} vs program {counted}")
            for name, wrapped, counted in pairs
        ]

    def per_layer(
        self,
        counters: Dict[str, float],
        run,
        traced_wall_s: float,
        untraced_wall_s: float,
        build_s: float,
    ):
        """The per-layer metrics of the traced pass, by name."""
        calls = self.calls
        own = self.layer_self_s
        facts = run.facts

        def ratio(top, bottom):
            return top / bottom if bottom else 0.0

        dijkstra_calls = calls["channel.dijkstra"]
        solver_calls = calls["solver"]
        slots = facts.get("slots", 0)
        stats = run.cache_stats
        values = {
            "channel.dijkstra.calls": (dijkstra_calls, "count"),
            "channel.dijkstra.self_s": (own["channel"], "s"),
            "channel.dijkstra.us_per_call": (
                ratio(own["channel"], dijkstra_calls) * 1e6, "us"),
            # Per search the program actually ran (cache hits excluded).
            "channel.dijkstra.us_per_search": (
                ratio(own["channel"], counters.get("core.dijkstra.calls", 0)) * 1e6,
                "us"),
            "channel.dijkstra.edges_per_call": (
                ratio(counters.get("core.dijkstra.edges_scanned", 0),
                      counters.get("core.dijkstra.calls", 0)), "count"),
            "channel.share": (ratio(own["channel"], traced_wall_s), "ratio"),
            "solver.calls": (solver_calls, "count"),
            "solver.self_s": (own["solver"], "s"),
            "solver.dijkstra_per_solve": (
                ratio(self.dijkstra_in_solver, solver_calls), "count"),
            "ledger.ops": (calls["ledger.reserve"] + calls["ledger.release"], "count"),
            "ledger.self_s": (own["ledger"], "s"),
            "ledger.rollbacks": (counters.get("core.ledger.rollbacks", 0), "count"),
            "ledger.transactions": (calls["ledger.transaction"], "count"),
            "verify.calls": (calls["verify.verify"] + calls["verify.audit"], "count"),
            "verify.self_s": (own["verify"], "s"),
            "verify.violations": (self.violations, "count"),
            "cache.lookups": (calls["cache.get"], "count"),
            "cache.hit_ratio": (stats.hit_rate, "ratio"),
            "cache.key_us": (
                ratio(self.span_self_s["cache.key_for"], calls["cache.key_for"]) * 1e6,
                "us"),
            "cache.invalidations": (stats.invalidations, "count"),
            "incremental.apply.self_s": (own["incremental"], "s"),
            "incremental.splices": (facts.get("splice", 0), "count"),
            "incremental.escalations": (
                facts.get("escalate", 0) + facts.get("reacquire", 0)
                + facts.get("lost", 0), "count"),
            "incremental.warmstart.reuse_ratio": (
                ratio(facts.get("warm_hits", 0), facts.get("warm_lookups", 0)),
                "ratio"),
            "online.run.self_s": (own["online"], "s"),
            "admission.self_s": (own["admission"], "s"),
            "admission.shed_ratio": (ratio(facts.get("shed", 0), run.units), "ratio"),
            "tenancy.replica_plan.self_s": (own["tenancy"], "s"),
            "tenancy.failovers": (facts.get("failovers", 0), "count"),
            "resilience.faults.self_s": (own["resilience"], "s"),
            "recovery.repair.calls": (calls["recovery.repair"], "count"),
            "recovery.repair.self_s": (own["recovery"], "s"),
            "mc.slots_per_trial": (ratio(slots, run.useful), "slots"),
            "mc.us_per_slot": (ratio(own["mc"], slots) * 1e6, "us"),
            "mc.attempts_per_slot": (ratio(facts.get("attempts", 0), slots), "count"),
            "topology.build_s": (build_s, "s"),
            "unattributed.self_s": (own["unattributed"], "s"),
            "trace.spans": (self.spans, "count"),
            "trace.wall_s": (traced_wall_s, "s"),
            "trace.untraced_wall_s": (untraced_wall_s, "s"),
            "trace.overhead_ratio": (ratio(traced_wall_s, untraced_wall_s), "ratio"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
