"""ExecutionEngine: backends, merge order, checkpoints, interrupts."""

from __future__ import annotations

import pytest

from repro.exec.cache import CacheStats
from repro.exec import cache as exec_cache
from repro.exec.engine import (
    EngineStats,
    ExecutionEngine,
    ShardResult,
    active_engine,
    engine_for,
    executing,
)
from repro.exec.shard import ShardPlan
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

SMALL = ExperimentConfig(
    n_switches=10,
    n_users=4,
    n_networks=6,
    seed=5,
    methods=("prim", "nfusion"),
)


def _rates(result):
    return {o.method: o.rates for o in result.outcomes}


def _double(x):
    """Module-level (picklable) map function for map_items tests."""
    return 2 * x


def _interrupting_trial(config, trial):
    """run_trial stand-in that simulates Ctrl-C partway into the grid."""
    if trial >= 3:
        raise KeyboardInterrupt
    return _REAL_RUN_TRIAL(config, trial)


_REAL_RUN_TRIAL = None  # set by the test before patching


class TestBackendsAgree:
    """Every backend matches the plain ``run_experiment`` call.

    The plain call runs on the uncached serial engine, the reference
    path whose digests ``test_engine_reference.py`` pins.
    """

    def test_serial_engine_matches_plain_runner(self):
        plain = run_experiment(SMALL)
        with ExecutionEngine(workers=1) as engine:
            engined = engine.run_experiment(SMALL)
        assert _rates(engined) == _rates(plain)
        assert engine.stats.items_run == SMALL.n_networks

    def test_pool_engine_matches_plain_runner(self):
        plain = run_experiment(SMALL)
        with ExecutionEngine(workers=2) as engine:
            pooled = engine.run_experiment(SMALL)
        assert _rates(pooled) == _rates(plain)

    def test_uncached_engine_matches_cached(self):
        with ExecutionEngine(workers=1, use_cache=False) as engine:
            uncached = engine.run_experiment(SMALL)
        with ExecutionEngine(workers=1, use_cache=True) as engine:
            cached = engine.run_experiment(SMALL)
        assert _rates(uncached) == _rates(cached)
        assert engine.stats.cache.hits > 0

    def test_workers_param_on_run_experiment(self):
        plain = run_experiment(SMALL)
        parallel = run_experiment(SMALL, workers=2)
        assert _rates(parallel) == _rates(plain)

    def test_ambient_engine_is_used(self):
        plain = run_experiment(SMALL)
        with ExecutionEngine(workers=1) as engine:
            with executing(engine):
                assert active_engine() is engine
                ambient = run_experiment(SMALL)
            assert active_engine() is None
        assert _rates(ambient) == _rates(plain)
        assert engine.stats.items_run == SMALL.n_networks


class TestEngineFor:
    def test_plain_call_gets_uncached_serial_engine(self):
        with engine_for(None) as engine:
            assert active_engine() is engine
            assert engine.workers == 1
            assert engine.cache is None
        assert active_engine() is None

    def test_outer_cache_scope_still_applies(self):
        with exec_cache.caching() as cache:
            run_experiment(SMALL)
        assert cache.stats().lookups > 0

    def test_ambient_engine_is_reused_and_left_open(self):
        with ExecutionEngine(workers=2) as outer:
            with executing(outer):
                outer.map_items(_double, [1, 2])
                pool = outer._pool
                with engine_for(1) as engine:
                    assert engine is outer
                assert outer._pool is pool

    def test_workers_above_one_owns_and_closes_a_pool(self):
        with ExecutionEngine(workers=1) as outer:
            with executing(outer):
                with engine_for(2) as engine:
                    assert engine is not outer
                    assert active_engine() is engine
                    assert engine.map_items(_double, [1, 2]) == [2, 4]
                assert engine._pool is None
                assert active_engine() is outer


class TestMapItems:
    def test_order_preserved_serial_and_pool(self):
        payloads = list(range(11))
        with ExecutionEngine(workers=1) as engine:
            assert engine.map_items(_double, payloads) == [
                2 * x for x in payloads
            ]
        with ExecutionEngine(workers=3) as engine:
            assert engine.map_items(_double, payloads) == [
                2 * x for x in payloads
            ]

    def test_empty_payloads(self):
        with ExecutionEngine(workers=2) as engine:
            assert engine.map_items(_double, []) == []


class TestCheckpoints:
    def test_pool_run_populates_main_store_and_cleans_shards(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl")
        with ExecutionEngine(workers=2) as engine:
            engine.run_experiment(SMALL, checkpoint=store)
        assert len(store) == SMALL.n_networks
        assert store.completed_trials(SMALL) == list(range(SMALL.n_networks))
        assert not (tmp_path / "ck.jsonl.shards").exists()

    def test_resume_skips_recorded_trials(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl")
        plain = run_experiment(SMALL, checkpoint=store)
        reloaded = CheckpointStore(tmp_path / "ck.jsonl")
        with ExecutionEngine(workers=2) as engine:
            resumed = engine.run_experiment(SMALL, checkpoint=reloaded)
        assert engine.stats.items_run == 0
        assert engine.stats.items_resumed == SMALL.n_networks
        assert _rates(resumed) == _rates(plain)

    def test_partial_resume_runs_only_missing_trials(self, tmp_path):
        full_store = CheckpointStore(tmp_path / "full.jsonl")
        plain = run_experiment(SMALL, checkpoint=full_store)
        partial = CheckpointStore(tmp_path / "partial.jsonl")
        for trial in (0, 2, 5):
            partial.record(SMALL, trial, full_store.get(SMALL, trial))
        with ExecutionEngine(workers=2) as engine:
            resumed = engine.run_experiment(SMALL, checkpoint=partial)
        assert engine.stats.items_resumed == 3
        assert engine.stats.items_run == SMALL.n_networks - 3
        assert _rates(resumed) == _rates(plain)


class TestInterrupts:
    def test_serial_interrupt_flushes_completed_trials(
        self, tmp_path, monkeypatch
    ):
        """Ctrl-C mid-shard keeps every already-finished trial on disk."""
        global _REAL_RUN_TRIAL
        from repro.experiments import runner

        _REAL_RUN_TRIAL = runner.run_trial
        monkeypatch.setattr(runner, "run_trial", _interrupting_trial)
        store = CheckpointStore(tmp_path / "ck.jsonl")
        with ExecutionEngine(workers=1) as engine:
            with pytest.raises(KeyboardInterrupt):
                engine.run_experiment(SMALL, checkpoint=store)
        # The single serial shard completed trials 0-2 before the
        # interrupt; the late-flush path must have merged them.
        assert store.completed_trials(SMALL) == [0, 1, 2]
        assert not (tmp_path / "ck.jsonl.shards").exists()
        # And the interrupted run resumes from exactly those trials.
        monkeypatch.setattr(runner, "run_trial", _REAL_RUN_TRIAL)
        reloaded = CheckpointStore(tmp_path / "ck.jsonl")
        with ExecutionEngine(workers=1) as engine:
            resumed = engine.run_experiment(SMALL, checkpoint=reloaded)
        assert engine.stats.items_resumed == 3
        assert _rates(resumed) == _rates(run_experiment(SMALL))

    def test_pool_interrupt_tears_down_and_reraises(self):
        """A worker raising KeyboardInterrupt cancels the run cleanly."""
        engine = ExecutionEngine(workers=2)
        plan = ShardPlan.build(4, 2)
        shard_args = [(shard,) for shard in plan]
        with pytest.raises(KeyboardInterrupt):
            engine.run_shards(_interrupting_shard, shard_args)
        # The pool was torn down, not orphaned; the engine is reusable.
        assert engine._pool is None
        with engine:
            assert engine.map_items(_double, [1, 2, 3]) == [2, 4, 6]


def _interrupting_shard(shard):
    """Module-level shard fn: every shard simulates a Ctrl-C."""
    raise KeyboardInterrupt


class TestPoolLifecycle:
    """No executor may outlive its run.

    A leaked ``ProcessPoolExecutor`` races interpreter shutdown against
    its executor-manager thread, printing spurious "Bad file
    descriptor" tracebacks at exit.
    """

    @staticmethod
    def _live_manager_threads():
        import concurrent.futures.process as cfp

        return [t for t in cfp._threads_wakeups if t.is_alive()]

    def test_run_experiment_workers_closes_owned_pool(self):
        before = self._live_manager_threads()
        run_experiment(SMALL, workers=2)
        assert self._live_manager_threads() == before

    def test_cli_experiment_workers_closes_owned_pool(self, capsys):
        from repro import cli

        before = self._live_manager_threads()
        assert (
            cli.main(
                ["experiment", "fig5", "--networks", "1", "--seed", "2",
                 "--workers", "2"]
            )
            == 0
        )
        capsys.readouterr()
        assert self._live_manager_threads() == before


class TestStats:
    def test_engine_stats_absorb_and_describe(self):
        stats = EngineStats()
        stats.absorb_cache(CacheStats(hits=3, misses=1))
        stats.absorb_cache(CacheStats(hits=2, misses=4))
        assert stats.cache.hits == 5
        assert stats.cache.misses == 5
        assert "5/10 hits" in stats.describe()
        assert stats.to_dict()["cache"]["hits"] == 5

    def test_shard_result_defaults(self):
        result = ShardResult(shard_index=0, results={0: 1.0})
        assert result.cache_stats == CacheStats()

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            ExecutionEngine(workers=0)
