"""Shard supervision: crash/hang recovery, bounded retry, quarantine.

The process-pool backend of :class:`~repro.exec.engine.ExecutionEngine`
used to assume every worker stays alive and returns — one crashed or
wedged process aborted an entire fig5–fig8 sweep.  The
:class:`ShardSupervisor` applies the :mod:`repro.resilience` discipline
to the *compute substrate* itself:

* **Heartbeats.**  Every supervised shard writes a per-attempt heartbeat
  file on entry and after each completed item.  The parent polls the
  files; a heartbeat older than
  :attr:`SupervisionPolicy.hang_timeout_s` marks the shard *hung*, the
  pool's worker processes are terminated, and the shard is retried on a
  fresh pool.  Healthy shards that died alongside a hung peer are
  recorded as ``collateral`` and retried immediately without charging
  their retry budget.
* **Crash detection.**  A worker dying (``os._exit``, segfault, OOM
  kill) breaks the ``ProcessPoolExecutor``; every in-flight future then
  raises ``BrokenProcessPool``.  The supervisor records a ``crash``
  failure for each affected shard, discards the broken pool, and
  retries on a rebuilt one.
* **Bounded retry with backoff.**  Each shard owns a
  :class:`~repro.resilience.retry.RetryPolicy` (by default an
  :class:`~repro.resilience.retry.ExponentialBackoffPolicy`); delays
  are measured in slots of :attr:`SupervisionPolicy.backoff_unit_s`.
* **Poison-shard quarantine + graceful degradation.**  A shard that
  exhausts its retry budget is *quarantined*: it never touches the pool
  again and instead degrades to in-process serial execution — the same
  pure ``shard_fn`` on the same index-keyed arguments, so a successful
  degraded run is byte-identical to a healthy pool run.  Only when even
  the serial fallback raises does the sweep fail, with a typed
  :class:`ShardExecutionError` carrying the shard's full disposition.

Every recovery step is attributed in a :class:`ShardDisposition`
(collected engine-wide in a :class:`DispositionReport`) and published to
the active metrics registry under ``repro.exec.supervisor.*``.

Determinism: retries and serial degradation re-run the *same*
deterministic shard function on the same index-derived arguments, so a
sweep that survives any number of kills, hangs, and truncations merges
to byte-identical results (`tests/exec/test_supervisor_properties.py`
proves this over random fault schedules).
"""

from __future__ import annotations

import inspect
import json
import logging
import os
import shutil
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import repro.obs.metrics as obs_metrics
from repro.exec.shard import Shard
from repro.resilience.retry import ExponentialBackoffPolicy, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import ExecutionEngine, ShardResult

logger = logging.getLogger("repro.exec.supervisor")

__all__ = [
    "CRASH",
    "HANG",
    "ERROR",
    "COLLATERAL",
    "TRUNCATION",
    "DispositionReport",
    "ShardDisposition",
    "ShardExecutionError",
    "ShardFailure",
    "ShardSupervisor",
    "SupervisionPolicy",
]

#: Failure kinds recorded in :class:`ShardFailure`.
CRASH = "crash"  #: worker process died (BrokenProcessPool / nonzero exit)
HANG = "hang"  #: heartbeat went stale past the hang watchdog
ERROR = "error"  #: the shard function raised an exception
COLLATERAL = "collateral"  #: healthy shard lost when its pool was recycled
TRUNCATION = "truncation"  #: shard checkpoint was torn/corrupt; re-executed

#: Terminal shard outcomes.
PENDING = "pending"
COMPLETED = "completed"  #: first pool attempt succeeded
RECOVERED = "recovered"  #: a pool retry (or checkpoint heal) succeeded
DEGRADED = "degraded"  #: quarantined, then completed via serial fallback
FAILED = "failed"  #: even the serial fallback raised

#: Exit status used by chaos worker kills (any nonzero code works; a
#: recognizable one helps post-mortems).
_CHAOS_EXIT_CODE = 43


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the shard supervisor.

    Attributes:
        max_attempts: Pool attempts per shard before quarantine (the
            retry policy's attempt cap).
        backoff_unit_s: Seconds per backoff *slot* — the
            :class:`~repro.resilience.retry.RetryPolicy` family counts
            delays in integer slots, and the supervisor converts them
            to wall-clock with this unit.
        backoff_factor: Geometric growth factor between retries.
        backoff_cap_slots: Hard per-retry delay cap, in slots.
        hang_timeout_s: Seconds without shard progress (no heartbeat
            update) before the pool is recycled and the shard retried.
            ``None`` disables the hang watchdog.  This is a *progress*
            timeout: heartbeats tick per completed grid item, so it
            must comfortably exceed the slowest single item.
        poll_interval_s: Parent-side future/heartbeat polling cadence.
        quarantine_serial: Degrade quarantined shards to in-process
            serial execution (``True``, the default) instead of failing
            the run immediately.
    """

    max_attempts: int = 3
    backoff_unit_s: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap_slots: int = 8
    hang_timeout_s: Optional[float] = 120.0
    poll_interval_s: float = 0.05
    quarantine_serial: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_unit_s < 0:
            raise ValueError("backoff_unit_s must be >= 0")
        if self.hang_timeout_s is not None and self.hang_timeout_s <= 0:
            raise ValueError("hang_timeout_s must be > 0 (or None)")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be > 0")

    def retry_policy(self) -> RetryPolicy:
        """A fresh per-shard retry policy from the resilience family."""
        return ExponentialBackoffPolicy(
            base_delay=1,
            factor=self.backoff_factor,
            max_delay=self.backoff_cap_slots,
            max_attempts=self.max_attempts,
        )


@dataclass(frozen=True)
class ShardFailure:
    """One attributed failure of one shard attempt."""

    kind: str
    attempt: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, "attempt": self.attempt, "detail": self.detail}

    def __str__(self) -> str:
        return f"attempt {self.attempt}: {self.kind} ({self.detail})"


@dataclass
class ShardDisposition:
    """Everything that happened to one shard of one engine run.

    A healthy shard reads ``attempts=1, outcome='completed'``; every
    recovery path (pool retry, quarantine + serial degrade, checkpoint
    heal) leaves an attributable trail in :attr:`failures`.
    """

    run: int
    index: int
    items: int = 0
    attempts: int = 0
    failures: List[ShardFailure] = field(default_factory=list)
    outcome: str = PENDING
    backend: Optional[str] = None
    quarantined: bool = False
    recovery_seconds: float = 0.0
    healed_trials: int = 0

    @property
    def clean(self) -> bool:
        return not self.failures and not self.quarantined

    def to_dict(self) -> Dict[str, object]:
        return {
            "run": self.run,
            "shard": self.index,
            "items": self.items,
            "attempts": self.attempts,
            "outcome": self.outcome,
            "backend": self.backend,
            "quarantined": self.quarantined,
            "recovery_seconds": self.recovery_seconds,
            "healed_trials": self.healed_trials,
            "failures": [f.to_dict() for f in self.failures],
        }

    def describe(self) -> str:
        trail = "; ".join(str(f) for f in self.failures) or "no failures"
        extra = ""
        if self.quarantined:
            extra += ", quarantined"
        if self.healed_trials:
            extra += f", {self.healed_trials} trial(s) healed"
        return (
            f"run {self.run} shard {self.index}: {self.outcome} "
            f"via {self.backend or '-'} after {self.attempts} attempt(s)"
            f"{extra} [{trail}]"
        )


class DispositionReport:
    """Engine-lifetime ledger of per-shard dispositions.

    Keyed by ``(run sequence, shard index)`` so a sweep — many
    ``run_shards`` calls on one engine — keeps every point's story.
    """

    def __init__(self) -> None:
        self.dispositions: Dict[Tuple[int, int], ShardDisposition] = {}

    def ensure(self, run: int, index: int, items: int = 0) -> ShardDisposition:
        key = (run, index)
        disposition = self.dispositions.get(key)
        if disposition is None:
            disposition = ShardDisposition(run=run, index=index, items=items)
            self.dispositions[key] = disposition
        elif items and not disposition.items:
            disposition.items = items
        return disposition

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.dispositions)

    @property
    def clean(self) -> bool:
        return all(d.clean for d in self.dispositions.values())

    @property
    def troubled(self) -> List[ShardDisposition]:
        """Dispositions that needed any recovery, in (run, shard) order."""
        return [
            self.dispositions[key]
            for key in sorted(self.dispositions)
            if not self.dispositions[key].clean
        ]

    def failure_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for disposition in self.dispositions.values():
            for failure in disposition.failures:
                counts[failure.kind] = counts.get(failure.kind, 0) + 1
        return counts

    def to_dict(self) -> Dict[str, object]:
        return {
            "shards": [
                self.dispositions[key].to_dict()
                for key in sorted(self.dispositions)
            ],
            "failure_counts": self.failure_counts(),
            "n_quarantined": sum(
                1 for d in self.dispositions.values() if d.quarantined
            ),
            "n_recovered": sum(
                1
                for d in self.dispositions.values()
                if d.outcome in (RECOVERED, DEGRADED)
            ),
            "clean": self.clean,
        }

    def render(self, only_troubled: bool = True) -> str:
        """Human summary: one header line plus one line per shard."""
        counts = self.failure_counts()
        trail = (
            ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
            or "no failures"
        )
        lines = [
            f"shard dispositions: {len(self.dispositions)} shard(s), {trail}"
        ]
        rows = self.troubled if only_troubled else [
            self.dispositions[key] for key in sorted(self.dispositions)
        ]
        lines.extend(f"  {d.describe()}" for d in rows)
        return "\n".join(lines)


class ShardExecutionError(RuntimeError):
    """A shard failed even after quarantine's serial fallback.

    Carries the shard's :class:`ShardDisposition` so callers (and the
    CLI) can attribute exactly what was tried before giving up.
    """

    def __init__(self, disposition: ShardDisposition) -> None:
        super().__init__(
            f"shard {disposition.index} failed permanently after "
            f"{disposition.attempts} attempt(s): {disposition.describe()}"
        )
        self.disposition = disposition


# ----------------------------------------------------------------------
# Worker-side plumbing (everything submitted must be picklable).
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _TaskContext:
    """Per-submission context shipped to the worker process."""

    shard_key: int
    attempt: int
    heartbeat_path: Optional[str]
    pass_progress: bool
    chaos_action: Optional[str] = None
    hang_sleep_s: float = 0.0
    checkpoint_path: Optional[str] = None
    truncate_fraction: float = 0.5


def _write_heartbeat(path: str, items_done: int) -> None:
    """Worker-side progress tick: rewrite the heartbeat file.

    The parent only reads the file's mtime; the JSON body is for humans
    debugging a stuck run.  Heartbeat I/O must never fail a shard.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": os.getpid(), "items_done": items_done, "ts": time.time()},
                handle,
            )
    except OSError:  # pragma: no cover - heartbeat loss is tolerable
        pass


def _truncate_file(path: str, fraction: float) -> None:
    """Chaos helper: tear the tail off a checkpoint file."""
    try:
        size = os.path.getsize(path)
        with open(path, "rb+") as handle:
            handle.truncate(max(0, int(size * fraction)))
    except OSError:  # pragma: no cover - file vanished; nothing to tear
        pass


def _execute_supervised(
    ctx: _TaskContext,
    shard_fn: Callable[..., "ShardResult"],
    shard_args: Tuple,
) -> "ShardResult":
    """Pool-side wrapper: heartbeat + deterministic chaos injection.

    Chaos actions model the three real-world failure modes this module
    recovers from: ``kill`` exits the worker process with a nonzero
    status *before* any work (so retries lose nothing), ``hang`` stalls
    without heartbeating until the watchdog recycles the pool, and
    ``truncate`` tears the shard's checkpoint file *after* a successful
    run (exercising the merge-side self-healing path).
    """
    if ctx.heartbeat_path:
        _write_heartbeat(ctx.heartbeat_path, 0)
    if ctx.chaos_action == "kill":
        os._exit(_CHAOS_EXIT_CODE)
    if ctx.chaos_action == "hang":
        time.sleep(ctx.hang_sleep_s)
    kwargs: Dict[str, Any] = {}
    if ctx.pass_progress and ctx.heartbeat_path:
        heartbeat_path = ctx.heartbeat_path

        def progress(items_done: int) -> None:
            _write_heartbeat(heartbeat_path, items_done)

        kwargs["progress"] = progress
    result = shard_fn(*shard_args, **kwargs)
    if ctx.chaos_action == "truncate" and ctx.checkpoint_path:
        _truncate_file(ctx.checkpoint_path, ctx.truncate_fraction)
    return result


# ----------------------------------------------------------------------
# Parent-side supervision
# ----------------------------------------------------------------------


@dataclass
class _ShardState:
    """Parent-side bookkeeping for one shard of one run."""

    position: int
    key: int
    args: Tuple
    disposition: ShardDisposition
    policy: RetryPolicy
    heartbeat_path: Optional[str] = None
    submitted_at: float = 0.0
    ready_at: float = 0.0
    first_failure_at: Optional[float] = None
    charged_failures: int = 0
    result: Optional["ShardResult"] = None
    done: bool = False


class ShardSupervisor:
    """Runs one grid of shards on the engine's pool, with recovery.

    Created per ``run_shards`` call by
    :class:`~repro.exec.engine.ExecutionEngine`; reads the pool through
    the engine so a recycled pool is shared with subsequent runs.
    """

    def __init__(
        self,
        engine: "ExecutionEngine",
        policy: SupervisionPolicy,
        dispositions: Dict[int, ShardDisposition],
        chaos: Optional[object] = None,
        checkpoint_paths: Optional[Dict[int, str]] = None,
    ) -> None:
        self.engine = engine
        self.policy = policy
        self.dispositions = dispositions
        self.chaos = chaos
        self.checkpoint_paths = checkpoint_paths or {}
        self._shard_fn: Optional[Callable[..., "ShardResult"]] = None
        self._on_shard_done: Optional[Callable[["ShardResult"], None]] = None

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(
        self,
        shard_fn: Callable[..., "ShardResult"],
        shard_args: Sequence[Tuple],
        on_shard_done: Optional[Callable[["ShardResult"], None]] = None,
    ) -> List["ShardResult"]:
        self._shard_fn = shard_fn
        self._on_shard_done = on_shard_done
        heartbeat_dir = tempfile.mkdtemp(prefix="repro-exec-hb-")
        try:
            return self._run(heartbeat_dir, shard_fn, shard_args)
        finally:
            shutil.rmtree(heartbeat_dir, ignore_errors=True)

    def _run(
        self,
        heartbeat_dir: str,
        shard_fn: Callable[..., "ShardResult"],
        shard_args: Sequence[Tuple],
    ) -> List["ShardResult"]:
        pass_progress = self._accepts_progress(shard_fn)
        states: List[_ShardState] = []
        for position, args in enumerate(shard_args):
            first = args[0] if args else None
            key = first.index if isinstance(first, Shard) else position
            states.append(
                _ShardState(
                    position=position,
                    key=key,
                    args=tuple(args),
                    disposition=self.dispositions[key],
                    policy=self.policy.retry_policy(),
                )
            )
        waiting = list(states)
        running: Dict[Any, _ShardState] = {}
        try:
            while waiting or running:
                now = time.time()
                self._submit_ready(
                    waiting, running, heartbeat_dir, pass_progress, now
                )
                if running:
                    done, _ = wait(
                        set(running),
                        timeout=self.policy.poll_interval_s,
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    done = ()
                    time.sleep(self.policy.poll_interval_s)
                for future in done:
                    state = running.pop(future)
                    try:
                        result = future.result()
                    except Exception as exc:
                        self._handle_failure(state, exc, waiting)
                    else:
                        self._complete(state, result, backend="pool")
                self._check_hangs(running, waiting)
        except BaseException:
            # Interrupt / permanent failure: cancel what has not run,
            # terminate the pool (no orphaned or wedged worker outlives
            # the run), and propagate.
            for future in running:
                future.cancel()
            self.engine._abandon_pool(terminate=True)
            raise
        return [state.result for state in states]  # type: ignore[misc]

    @staticmethod
    def _accepts_progress(shard_fn: Callable[..., Any]) -> bool:
        try:
            return "progress" in inspect.signature(shard_fn).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtins
            return False

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _submit_ready(
        self,
        waiting: List[_ShardState],
        running: Dict[Any, _ShardState],
        heartbeat_dir: str,
        pass_progress: bool,
        now: float,
    ) -> None:
        """Move due shards into the pool, capped at one per worker.

        The in-flight cap keeps queue wait ≈ 0, which lets the hang
        watchdog measure time-since-submission fairly for shards whose
        first heartbeat never lands.
        """
        for state in list(waiting):
            if len(running) >= self.engine.workers:
                return
            if state.ready_at > now:
                continue
            if not self._submit(state, running, heartbeat_dir, pass_progress):
                return  # pool broke while submitting; rebuild next tick
            waiting.remove(state)

    def _submit(
        self,
        state: _ShardState,
        running: Dict[Any, _ShardState],
        heartbeat_dir: str,
        pass_progress: bool,
    ) -> bool:
        attempt = state.disposition.attempts + 1
        heartbeat_path = os.path.join(
            heartbeat_dir, f"hb-{state.key}-{attempt}"
        )
        checkpoint_path = self.checkpoint_paths.get(state.key)
        chaos_action = None
        if self.chaos is not None:
            chaos_action = self.chaos.draw(
                state.key, attempt, checkpoint_path is not None
            )
        ctx = _TaskContext(
            shard_key=state.key,
            attempt=attempt,
            heartbeat_path=heartbeat_path,
            pass_progress=pass_progress,
            chaos_action=chaos_action,
            hang_sleep_s=float(getattr(self.chaos, "hang_sleep_s", 0.0)),
            checkpoint_path=checkpoint_path,
            truncate_fraction=float(
                getattr(self.chaos, "truncate_fraction", 0.5)
            ),
        )
        try:
            pool = self.engine._ensure_pool()
            future = pool.submit(
                _execute_supervised, ctx, self._shard_fn, state.args
            )
        except BrokenExecutor:
            self.engine._abandon_pool(terminate=False)
            return False
        state.disposition.attempts = attempt
        state.heartbeat_path = heartbeat_path
        state.submitted_at = time.time()
        running[future] = state
        if chaos_action is not None:
            logger.info(
                "chaos: injecting %s into shard %d attempt %d",
                chaos_action,
                state.key,
                attempt,
            )
        return True

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def _handle_failure(
        self, state: _ShardState, exc: Exception, waiting: List[_ShardState]
    ) -> None:
        if isinstance(exc, BrokenExecutor):
            # The pool is unusable for everyone; drop it so the next
            # submission rebuilds.  Peers in flight fail the same way
            # and are retried through the same path.
            self.engine._abandon_pool(terminate=False)
            kind = CRASH
        else:
            kind = ERROR
        self._record_failure(
            state, kind, f"{type(exc).__name__}: {exc}", waiting
        )

    def _record_failure(
        self,
        state: _ShardState,
        kind: str,
        detail: str,
        waiting: List[_ShardState],
    ) -> None:
        now = time.time()
        if state.first_failure_at is None:
            state.first_failure_at = now
        state.disposition.failures.append(
            ShardFailure(kind=kind, attempt=state.disposition.attempts, detail=detail)
        )
        self._inc(f"repro.exec.supervisor.failures.{kind}")
        logger.warning(
            "shard %d attempt %d failed (%s): %s",
            state.key,
            state.disposition.attempts,
            kind,
            detail,
        )
        if kind == COLLATERAL:
            # The shard itself was healthy — its pool was recycled to
            # recover a peer.  Requeue immediately, budget untouched.
            state.ready_at = now
            waiting.append(state)
            return
        state.charged_failures += 1
        delay_slots = state.policy.next_delay(state.charged_failures)
        if delay_slots is None:
            self._quarantine(state)
            return
        state.ready_at = now + delay_slots * self.policy.backoff_unit_s
        self.engine.stats.retries += 1
        self._inc("repro.exec.supervisor.retries")
        waiting.append(state)

    def _quarantine(self, state: _ShardState) -> None:
        """Poison shard: leave the pool for good, degrade to serial."""
        state.disposition.quarantined = True
        self.engine.stats.quarantines += 1
        self._inc("repro.exec.supervisor.quarantines")
        logger.error(
            "shard %d quarantined after %d charged failure(s)",
            state.key,
            state.charged_failures,
        )
        if not self.policy.quarantine_serial:
            state.disposition.outcome = FAILED
            raise ShardExecutionError(state.disposition)
        state.disposition.attempts += 1
        try:
            result = self.engine._run_in_process(self._shard_fn, state.args)
        except Exception as exc:
            state.disposition.failures.append(
                ShardFailure(
                    kind=ERROR,
                    attempt=state.disposition.attempts,
                    detail=f"serial fallback: {type(exc).__name__}: {exc}",
                )
            )
            state.disposition.outcome = FAILED
            raise ShardExecutionError(state.disposition) from exc
        self._complete(state, result, backend="serial")

    # ------------------------------------------------------------------
    # Hang watchdog
    # ------------------------------------------------------------------
    def _check_hangs(
        self, running: Dict[Any, _ShardState], waiting: List[_ShardState]
    ) -> None:
        if self.policy.hang_timeout_s is None or not running:
            return
        now = time.time()
        hung: List[_ShardState] = []
        for state in running.values():
            age = self._heartbeat_age(state, now)
            self._observe("repro.exec.supervisor.heartbeat_age_seconds", age)
            if age > self.policy.hang_timeout_s:
                hung.append(state)
        if not hung:
            return
        # A wedged worker cannot be recalled individually — terminate
        # the whole pool and retry everything that was in flight.  The
        # hung shard is charged; its healthy peers are collateral.
        self.engine._abandon_pool(terminate=True)
        for future, state in list(running.items()):
            future.cancel()
            if state in hung:
                age = self._heartbeat_age(state, now)
                self._record_failure(
                    state,
                    HANG,
                    f"no heartbeat for {age:.2f}s "
                    f"(timeout {self.policy.hang_timeout_s}s)",
                    waiting,
                )
            else:
                self._record_failure(
                    state,
                    COLLATERAL,
                    "pool recycled to recover a hung peer",
                    waiting,
                )
        running.clear()

    @staticmethod
    def _heartbeat_age(state: _ShardState, now: float) -> float:
        try:
            last = os.stat(state.heartbeat_path).st_mtime
        except (OSError, TypeError):
            last = state.submitted_at
        return max(0.0, now - last)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _complete(
        self, state: _ShardState, result: "ShardResult", backend: str
    ) -> None:
        state.result = result
        state.done = True
        disposition = state.disposition
        disposition.backend = backend
        if disposition.failures:
            disposition.outcome = (
                DEGRADED if backend == "serial" else RECOVERED
            )
            if state.first_failure_at is not None:
                disposition.recovery_seconds = (
                    time.time() - state.first_failure_at
                )
                self._observe(
                    "repro.exec.supervisor.recovery_seconds",
                    disposition.recovery_seconds,
                )
        else:
            disposition.outcome = COMPLETED
        self.engine._absorb(result, in_worker=backend == "pool")
        if self._on_shard_done is not None:
            self._on_shard_done(result)

    # ------------------------------------------------------------------
    # Metrics plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _inc(name: str, amount: int = 1) -> None:
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.inc(name, amount)

    @staticmethod
    def _observe(name: str, value: float) -> None:
        metrics = obs_metrics.active()
        if metrics is not None:
            metrics.observe(name, value)
