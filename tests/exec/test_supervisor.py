"""Shard supervisor: crash/hang recovery, quarantine, self-healing."""

from __future__ import annotations

import json

import pytest

import repro.obs.metrics as obs_metrics
from repro.exec.chaos import ChaosInjector, ChaosSchedule
from repro.exec.engine import ExecutionEngine, result_payload
from repro.exec.supervisor import (
    COLLATERAL,
    CRASH,
    DEGRADED,
    ERROR,
    HANG,
    RECOVERED,
    DispositionReport,
    ShardExecutionError,
    SupervisionPolicy,
)
from repro.experiments.checkpoint import (
    CheckpointCorruption,
    CheckpointStore,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

SMALL = ExperimentConfig(
    n_switches=10,
    n_users=4,
    n_networks=6,
    seed=5,
    methods=("prim", "nfusion"),
)

#: Fast supervision for tests: negligible backoff, tight watchdog.
FAST = SupervisionPolicy(
    max_attempts=3,
    backoff_unit_s=0.01,
    hang_timeout_s=1.0,
    poll_interval_s=0.02,
)


def _rates(result):
    return {o.method: o.rates for o in result.outcomes}


def _reference_bytes():
    return json.dumps(
        result_payload(run_experiment(SMALL)), sort_keys=True
    ).encode()


def _failure_kinds(engine):
    return engine.report.failure_counts()


def _always_raises_shard(shard):
    raise ValueError(f"shard {shard.index} is poisoned")


class TestCrashRecovery:
    def test_worker_kill_retried_byte_identical(self):
        chaos = ChaosSchedule({(0, 1): "kill"})
        with ExecutionEngine(
            workers=2, supervision=FAST, chaos=chaos
        ) as engine:
            result = engine.run_experiment(SMALL)
        assert _rates(result) == _rates(run_experiment(SMALL))
        kinds = _failure_kinds(engine)
        assert kinds.get(CRASH, 0) >= 1
        assert engine.stats.retries >= 1
        shard0 = engine.report.dispositions[(1, 0)]
        assert shard0.outcome == RECOVERED
        assert shard0.attempts >= 2

    def test_every_recovery_is_attributed(self):
        chaos = ChaosSchedule({(0, 1): "kill", (1, 1): "kill"})
        with ExecutionEngine(
            workers=2, supervision=FAST, chaos=chaos
        ) as engine:
            engine.run_experiment(SMALL)
        assert not engine.report.clean
        troubled = engine.report.troubled
        assert troubled, "injected faults must appear in the report"
        for disposition in troubled:
            assert disposition.failures
            assert disposition.outcome in (RECOVERED, DEGRADED)
        rendered = engine.report.render()
        assert "crash" in rendered
        payload = engine.report.to_dict()
        assert payload["clean"] is False
        assert payload["n_recovered"] >= 1


class TestHangRecovery:
    def test_watchdog_recycles_pool_and_retries(self):
        # Hang alone (no concurrent kill) so the stale-heartbeat path —
        # not the broken-pool path — performs the recovery.  The worker
        # would sleep 30s; the 1s watchdog must cut that short.
        chaos = ChaosSchedule({(0, 1): "hang"}, hang_sleep_s=30.0)
        with ExecutionEngine(
            workers=2, supervision=FAST, chaos=chaos
        ) as engine:
            result = engine.run_experiment(SMALL)
        assert _rates(result) == _rates(run_experiment(SMALL))
        kinds = _failure_kinds(engine)
        assert kinds.get(HANG, 0) == 1
        hung = [
            d
            for d in engine.report.dispositions.values()
            if any(f.kind == HANG for f in d.failures)
        ]
        assert hung[0].outcome == RECOVERED

    def test_collateral_peers_not_charged(self):
        chaos = ChaosSchedule({(0, 1): "hang"}, hang_sleep_s=30.0)
        with ExecutionEngine(
            workers=2, supervision=FAST, chaos=chaos
        ) as engine:
            engine.run_experiment(SMALL)
        collateral = [
            d
            for d in engine.report.dispositions.values()
            if any(f.kind == COLLATERAL for f in d.failures)
        ]
        # The peer shard in flight when the pool was recycled must have
        # recovered without a quarantine (its budget was untouched).
        for disposition in collateral:
            assert not disposition.quarantined
            assert disposition.outcome == RECOVERED
        assert engine.stats.quarantines == 0


class TestQuarantine:
    def test_poison_shard_degrades_to_serial(self):
        # Kill shard 0 on every pool attempt the budget allows: the
        # shard exhausts its retries, quarantines, and completes via
        # the in-process serial fallback — byte-identical regardless.
        chaos = ChaosSchedule(
            {(0, 1): "kill", (0, 2): "kill", (0, 3): "kill"}
        )
        with obs_metrics.collecting() as registry:
            with ExecutionEngine(
                workers=2, supervision=FAST, chaos=chaos
            ) as engine:
                result = engine.run_experiment(SMALL)
        assert _rates(result) == _rates(run_experiment(SMALL))
        # The in-process fallback's cache publishes its own per-lookup
        # counters; the shard's delta must not be republished on top.
        counters = registry.counters()
        published = counters.get("repro.exec.cache.hits", 0) + counters.get(
            "repro.exec.cache.misses", 0
        )
        assert published == engine.stats.cache.lookups
        # A BrokenProcessPool cannot be attributed to one shard, so the
        # in-flight peer is charged too and may quarantine alongside
        # the poison shard — the serial fallback keeps both correct.
        assert engine.stats.quarantines >= 1
        shard0 = engine.report.dispositions[(1, 0)]
        assert shard0.quarantined
        assert shard0.outcome == DEGRADED
        assert shard0.backend == "serial"

    def test_unrecoverable_shard_raises_typed_error(self):
        from repro.exec.shard import ShardPlan

        policy = SupervisionPolicy(
            max_attempts=2, backoff_unit_s=0.0, poll_interval_s=0.02
        )
        engine = ExecutionEngine(workers=2, supervision=policy)
        plan = ShardPlan.build(4, 2)
        with pytest.raises(ShardExecutionError) as excinfo:
            engine.run_shards(
                _always_raises_shard, [(shard,) for shard in plan]
            )
        disposition = excinfo.value.disposition
        assert disposition.outcome == "failed"
        assert any(f.kind == ERROR for f in disposition.failures)
        assert "serial fallback" in disposition.failures[-1].detail
        # The pool was torn down, not orphaned; the engine is reusable.
        assert engine._pool is None
        engine.close()

    def test_quarantine_serial_disabled_fails_fast(self):
        from repro.exec.shard import ShardPlan

        policy = SupervisionPolicy(
            max_attempts=1,
            backoff_unit_s=0.0,
            poll_interval_s=0.02,
            quarantine_serial=False,
        )
        engine = ExecutionEngine(workers=2, supervision=policy)
        plan = ShardPlan.build(2, 2)
        with pytest.raises(ShardExecutionError):
            engine.run_shards(
                _always_raises_shard, [(shard,) for shard in plan]
            )
        engine.close()


class TestCheckpointSelfHealing:
    def test_truncated_shard_checkpoint_heals(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.jsonl")
        chaos = ChaosSchedule({(0, 1): "truncate"}, truncate_fraction=0.4)
        with ExecutionEngine(
            workers=2, supervision=FAST, chaos=chaos
        ) as engine:
            result = engine.run_experiment(SMALL, checkpoint=store)
        assert _rates(result) == _rates(run_experiment(SMALL))
        # The store is complete despite the torn shard file: missing
        # records were re-recorded from the in-memory shard result.
        assert store.completed_trials(SMALL) == list(
            range(SMALL.n_networks)
        )
        assert engine.stats.checkpoint_heals >= 1
        # The torn file was quarantined for post-mortems, not deleted.
        quarantine_dir = tmp_path / "ck.jsonl.shards" / "quarantine"
        assert quarantine_dir.is_dir()
        assert list(quarantine_dir.glob("shard-*.jsonl"))
        # And a fresh store resumes cleanly from the healed main file.
        reloaded = CheckpointStore(tmp_path / "ck.jsonl")
        assert reloaded.completed_trials(SMALL) == list(
            range(SMALL.n_networks)
        )

    def test_corrupt_record_skipped_and_reported(self, tmp_path):
        shard_file = tmp_path / "shard-0.jsonl"
        donor = CheckpointStore(shard_file)
        for trial in range(3):
            donor.record(SMALL, trial, {"prim": 0.5, "nfusion": 0.1})
        lines = shard_file.read_text().splitlines()
        record = json.loads(lines[1])
        record["entry"]["rates"]["prim"] = 99.0  # tamper, hash now wrong
        lines[1] = json.dumps(record)
        shard_file.write_text("\n".join(lines) + "\n")
        # Strict single-store read path keeps the typed error…
        with pytest.raises(CheckpointCorruption):
            CheckpointStore(shard_file)
        # …while the merge path skips and reports.
        target = CheckpointStore(tmp_path / "main.jsonl")
        report = target.merge_from(str(shard_file))
        assert report.absorbed == 2
        assert report.skipped == 1
        assert not report.clean
        assert report.reasons and "hash" in report.reasons[0]
        assert target.completed_trials(SMALL) == [0, 2]

    def test_torn_tail_flagged_by_merge(self, tmp_path):
        shard_file = tmp_path / "shard-0.jsonl"
        donor = CheckpointStore(shard_file)
        for trial in range(3):
            donor.record(SMALL, trial, {"prim": 0.5, "nfusion": 0.1})
        raw = shard_file.read_bytes()
        shard_file.write_bytes(raw[: int(len(raw) * 0.55)])
        target = CheckpointStore(tmp_path / "main.jsonl")
        report = target.merge_from(str(shard_file))
        assert report.torn
        assert not report.clean
        assert report.absorbed >= 1

    def test_merge_from_store_object_still_works(self, tmp_path):
        donor = CheckpointStore(tmp_path / "donor.jsonl")
        donor.record(SMALL, 0, {"prim": 0.5, "nfusion": 0.1})
        target = CheckpointStore(tmp_path / "main.jsonl")
        report = target.merge_from(donor)
        assert report.absorbed == 1
        assert report.clean
        assert target.has(SMALL, 0)

    def test_leftover_shard_files_absorbed_on_next_run(self, tmp_path):
        # Simulate a run that died between a shard's completion and its
        # merge: a valid shard file sits in <store>.shards/.
        store_path = tmp_path / "ck.jsonl"
        full = CheckpointStore(tmp_path / "full.jsonl")
        plain = run_experiment(SMALL, checkpoint=full)
        shard_dir = tmp_path / "ck.jsonl.shards"
        shard_dir.mkdir()
        leftover = CheckpointStore(shard_dir / "shard-0.jsonl")
        for trial in (0, 3):
            leftover.record(SMALL, trial, full.get(SMALL, trial))
        store = CheckpointStore(store_path)
        with ExecutionEngine(workers=1) as engine:
            resumed = engine.run_experiment(SMALL, checkpoint=store)
        assert engine.stats.items_resumed == 2
        assert engine.stats.items_run == SMALL.n_networks - 2
        assert _rates(resumed) == _rates(plain)
        assert not (shard_dir / "shard-0.jsonl").exists()

    def test_corrupt_leftover_quarantined_and_reexecuted(self, tmp_path):
        store_path = tmp_path / "ck.jsonl"
        shard_dir = tmp_path / "ck.jsonl.shards"
        shard_dir.mkdir()
        bad = shard_dir / "shard-0.jsonl"
        bad.write_text('{"entry": {"trial": 0}, "sha256": "nope"}\n{}\n')
        store = CheckpointStore(store_path)
        with ExecutionEngine(workers=1) as engine:
            result = engine.run_experiment(SMALL, checkpoint=store)
        # Nothing resumable in the corrupt file: every trial re-ran and
        # the file moved to quarantine with its skip count recorded.
        assert engine.stats.items_run == SMALL.n_networks
        assert engine.stats.checkpoint_records_skipped >= 1
        assert not bad.exists()
        assert list((shard_dir / "quarantine").glob("shard-*.jsonl"))
        assert _rates(result) == _rates(run_experiment(SMALL))


class TestInterruptSurfacing:
    def test_unflushed_trials_reported_on_interrupt(
        self, tmp_path, monkeypatch
    ):
        from repro.experiments import runner

        real_run_trial = runner.run_trial

        def interrupting(config, trial):
            if trial >= 3:
                raise KeyboardInterrupt
            return real_run_trial(config, trial)

        monkeypatch.setattr(runner, "run_trial", interrupting)
        store = CheckpointStore(tmp_path / "ck.jsonl")
        with ExecutionEngine(workers=1) as engine:
            with pytest.raises(KeyboardInterrupt):
                engine.run_experiment(SMALL, checkpoint=store)
        # Trials 0-2 were flushed by the late-merge; 3-5 never reached
        # the store and are exactly what --resume re-runs.
        assert engine.stats.unflushed_trials == [3, 4, 5]
        assert "unflushed" in engine.stats.describe()
        assert engine.stats.to_dict()["unflushed_trials"] == [3, 4, 5]

    def test_no_store_means_every_pending_trial_unflushed(
        self, monkeypatch
    ):
        from repro.experiments import runner

        def interrupting(config, trial):
            raise KeyboardInterrupt

        monkeypatch.setattr(runner, "run_trial", interrupting)
        with ExecutionEngine(workers=1) as engine:
            with pytest.raises(KeyboardInterrupt):
                engine.run_experiment(SMALL)
        assert engine.stats.unflushed_trials == list(
            range(SMALL.n_networks)
        )


class TestPolicyAndReport:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(backoff_unit_s=-1.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(hang_timeout_s=0.0)
        with pytest.raises(ValueError):
            SupervisionPolicy(poll_interval_s=0.0)

    def test_policy_retry_family_contract(self):
        policy = SupervisionPolicy(max_attempts=3).retry_policy()
        assert policy.next_delay(1) is not None
        assert policy.next_delay(2) is not None
        assert policy.next_delay(3) is None  # exhausted → quarantine

    def test_report_ensure_is_idempotent(self):
        report = DispositionReport()
        first = report.ensure(1, 0, items=5)
        again = report.ensure(1, 0)
        assert first is again
        assert first.items == 5
        assert len(report) == 1
        assert report.clean

    def test_clean_run_keeps_report_clean(self):
        with ExecutionEngine(workers=2, supervision=FAST) as engine:
            engine.run_experiment(SMALL)
        assert engine.report.clean
        assert engine.report.failure_counts() == {}
        assert engine.report.to_dict()["n_quarantined"] == 0


class TestChaosInjectors:
    def test_schedule_rejects_unknown_action(self):
        with pytest.raises(ValueError):
            ChaosSchedule({(0, 1): "meteor"})

    def test_schedule_skips_truncate_without_checkpoint(self):
        schedule = ChaosSchedule({(0, 1): "truncate"})
        assert schedule.draw(0, 1, has_checkpoint=False) is None
        assert schedule.draw(0, 1, has_checkpoint=True) == "truncate"

    def test_injector_budget_drains_deterministically(self):
        a = ChaosInjector(kills=2, hangs=1, truncations=1, seed=9, spacing=1)
        b = ChaosInjector(kills=2, hangs=1, truncations=1, seed=9, spacing=1)
        draws_a = [a.draw(i, 1, True) for i in range(6)]
        draws_b = [b.draw(i, 1, True) for i in range(6)]
        assert draws_a == draws_b
        assert sorted(d for d in draws_a if d) == [
            "hang",
            "kill",
            "kill",
            "truncate",
        ]
        assert a.exhausted
        assert a.draw(99, 1, True) is None

    def test_injector_never_touches_retries(self):
        injector = ChaosInjector(kills=5, spacing=1)
        assert injector.draw(0, 2, True) is None
        assert injector.remaining == 5

    def test_injector_spacing(self):
        injector = ChaosInjector(kills=1, spacing=3)
        assert injector.draw(0, 1, True) is not None
        injector = ChaosInjector(kills=2, spacing=3)
        injector.draw(0, 1, True)
        assert injector.draw(1, 1, True) is None
        assert injector.draw(2, 1, True) is None
        assert injector.draw(3, 1, True) == "kill"

    def test_injector_defers_truncate_until_checkpoint_exists(self):
        injector = ChaosInjector(truncations=1, kills=1, spacing=1)
        first = injector.draw(0, 1, has_checkpoint=False)
        assert first == "kill"  # truncate skipped, next action taken
        second = injector.draw(1, 1, has_checkpoint=True)
        assert second == "truncate"

    def test_injector_validation(self):
        with pytest.raises(ValueError):
            ChaosInjector(kills=-1)
        with pytest.raises(ValueError):
            ChaosInjector(spacing=0)


class TestChaosCLI:
    """The ``repro exec --chaos`` surface: validation and a small soak."""

    def test_chaos_requires_parallel_workers(self, capsys):
        from repro import cli

        code = cli.main(
            ["exec", "fig5", "--networks", "2", "--chaos", "--workers", "1"]
        )
        assert code == cli.EXIT_VALIDATION_ERROR
        assert "--workers" in capsys.readouterr().err

    def test_chaos_soak_verifies_determinism(self, capsys):
        from repro import cli

        code = cli.main(
            [
                "exec",
                "fig5",
                "--networks",
                "4",
                "--seed",
                "3",
                "--workers",
                "2",
                "--chaos",
                "--chaos-kills",
                "1",
                "--chaos-hangs",
                "0",
                "--chaos-truncations",
                "0",
                "--hang-timeout",
                "5",
                "--verify-determinism",
            ]
        )
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "chaos" in out
        assert "determinism check: ok" in out
