"""Parallel execution engine: sharded runs + channel-computation cache.

Two pillars (docs/PARALLELISM.md):

* :mod:`repro.exec.shard` / :mod:`repro.exec.engine` — deterministic
  partitioning of experiment grids into independent shards and an
  :class:`~repro.exec.engine.ExecutionEngine` that runs them serially
  (the default) or across a ``ProcessPoolExecutor``, with per-shard
  checkpoint files merged through
  :class:`~repro.experiments.checkpoint.CheckpointStore` so
  ``--workers N`` produces the same aggregates for every N.  Every
  entry point resolves its engine with
  :func:`~repro.exec.engine.engine_for`.
* :mod:`repro.exec.cache` — :class:`~repro.exec.cache.ChannelCache`, an
  exact-key LRU memo of Algorithm-1 channel searches, invalidated by
  ledger reserve/release threshold crossings, topology mutations and
  structural fault events.

This ``__init__`` stays import-light on purpose: the channel-search hot
path (:mod:`repro.core.channel`) imports :mod:`repro.exec.cache` at
module load, so pulling the engine (which imports the experiment layer)
here would create an import cycle.  Engine symbols resolve lazily via
PEP 562.
"""

from __future__ import annotations

from repro.exec.cache import CacheStats, ChannelCache, caching
from repro.exec.shard import Shard, ShardPlan

__all__ = [
    "CacheStats",
    "ChannelCache",
    "caching",
    "Shard",
    "ShardPlan",
    "ExecutionEngine",
    "EngineStats",
    "executing",
    "active_engine",
    "engine_for",
    "parallel_slots_to_success",
    "ChaosInjector",
    "ChaosSchedule",
    "DispositionReport",
    "ShardDisposition",
    "ShardExecutionError",
    "SupervisionPolicy",
]

#: Lazily-resolved engine-layer exports: name → defining submodule.
_LAZY = {
    "ExecutionEngine": "repro.exec.engine",
    "EngineStats": "repro.exec.engine",
    "executing": "repro.exec.engine",
    "active_engine": "repro.exec.engine",
    "engine_for": "repro.exec.engine",
    "parallel_slots_to_success": "repro.exec.montecarlo",
    "ChaosInjector": "repro.exec.chaos",
    "ChaosSchedule": "repro.exec.chaos",
    "DispositionReport": "repro.exec.supervisor",
    "ShardDisposition": "repro.exec.supervisor",
    "ShardExecutionError": "repro.exec.supervisor",
    "SupervisionPolicy": "repro.exec.supervisor",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)
