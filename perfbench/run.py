"""Routing-stack benchmark: seeded, closed-loop workloads over ``src/repro``.

Run from the repository root::

    python3 perfbench/run.py --workload plan --seed 1 --seconds 10 --trace 0

One process, one caller: each call into the workload's entry point
starts when the previous one returns.  Workloads (see ``workloads.py``
and ``DESIGN.md``): ``plan``, ``online``, ``serve``, ``churn``, ``mc``.

``--trace 0`` measures the untraced program for ``--seconds`` and
reports the end-to-end metrics, their times stated at the machine's
nominal speed by dividing out what the speed probe (``speed.py``) read
during the same stretch.  ``--trace 1`` first runs the untraced
program for half of ``--seconds``, then replays the same items on a
fresh copy of the inputs with every layer's entry points wrapped in
spans (``layers.py``) and reports the per-layer metrics, the tracing
overhead, and the coverage cross-check against the program's own
counters.

Output: one JSON line with the run record (seed, holdout seed,
environment, output digests, outcome metrics, checks), then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``.  The exit code
is 1 when any output check failed and 2 when the program under test
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import List, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: A run sets up at least this many times and for at least
#: ``SETUP_MIN_S`` seconds; ``setup_s`` is the median set-up.
SETUP_REPEATS = 3
SETUP_MIN_S = 4.0

#: A seed no workload run uses while a change is being written: perf
#: changes confirm their claim on it afterwards.
HOLDOUT_SEED = 7919

WORKLOAD_NAMES = ("plan", "online", "serve", "churn", "mc")


def _parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def _load_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit with 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"error: imported repro from {origin}", file=sys.stderr)
        raise SystemExit(2)


def _git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` (``None`` outside git)."""
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _tree_sha256(package: Path) -> str:
    """Content hash of the program's sources (identifies non-git trees)."""
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_sha": _git_sha(ROOT),
        "src_sha256": _tree_sha256(SRC / "repro"),
    }


class Pass(NamedTuple):
    """One measured pass over the workload's items."""

    prefix: object  # tally of the first ``prefix_items`` items
    run: object  # tally of every item
    wall_s: float  # the items' wall time, probes excluded
    items: int
    steal_share: Optional[float]  # CPU time stolen by the hypervisor
    slowdown: float  # the machine's, from the speed probes (``speed.py``)
    latencies: List[float]  # per call, at nominal machine speed


def _cpu_times() -> Optional[List[int]]:
    """The machine's cumulative CPU times (Linux), or ``None``."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def _steal_share(before, after) -> Optional[float]:
    if before is None or after is None or len(before) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def _measure(
    workload, state, seconds=None, items=None, trace=None, min_calls=0,
    meter=None,
) -> Pass:
    """Run items until *seconds* and *min_calls* are reached, or *items*.

    A run always finishes the workload's prefix, whose outputs make up
    the digest and outcome metrics.  With a speed *meter*, the probe
    runs after every ``PROBE_EVERY_S`` of item time and its time is
    left out of the pass's wall time; each call's latency is then
    divided by the slowdown the probes on either side of it read.
    """
    from speed import PROBE_EVERY_S
    from workloads import Tally

    call_span = trace.call_span if trace is not None else None
    pool = state["items"]
    prefix, rest = Tally(call_span), Tally(call_span)
    done = 0
    probe_s = 0.0
    next_probe = PROBE_EVERY_S
    cpu_before = _cpu_times()
    start = time.perf_counter()
    while True:
        in_prefix = done < workload.prefix_items
        workload.run_item(state, pool[done % len(pool)], prefix if in_prefix else rest)
        done += 1
        if trace is not None:
            trace.roll_up()
        if meter is not None and time.perf_counter() - start - probe_s >= next_probe:
            probe_s += meter.tick(len(prefix.latencies) + len(rest.latencies))
            next_probe += PROBE_EVERY_S
        if items is not None:
            if done >= items:
                break
        elif (
            done >= workload.prefix_items
            and time.perf_counter() - start >= seconds
            and len(prefix.latencies) + len(rest.latencies) >= min_calls
        ):
            break
    wall_s = time.perf_counter() - start - probe_s
    steal = _steal_share(cpu_before, _cpu_times())
    run = Tally()
    run.absorb(prefix)
    run.absorb(rest)
    slowdown = meter.slowdown if meter is not None else 1.0
    latencies = run.latencies
    if meter is not None:
        latencies = [
            latency / around
            for latency, around in zip(latencies, meter.per_call(len(latencies)))
        ]
    return Pass(prefix, run, wall_s, done, steal, slowdown, latencies)


class SetUp(NamedTuple):
    """The run's set-ups: median times and the last two states."""

    setup_s: float  # at nominal machine speed
    raw_setup_s: float  # as measured
    build_s: float
    states: list


def _set_up(workload, seed: int) -> SetUp:
    """Build the inputs repeatedly, each time between speed probes.

    Short set-ups repeat more often, so that their median is as steady
    as a long set-up's.
    """
    from speed import SETUP_PROBES, SpeedMeter

    totals, raw, builds, states = [], [], [], []
    while len(raw) < SETUP_REPEATS or sum(raw) < SETUP_MIN_S:
        meter = SpeedMeter()
        meter.burst(SETUP_PROBES)
        start = time.perf_counter()
        state, build_s = workload.setup(seed)
        workload.warm_up(state)
        elapsed = time.perf_counter() - start
        meter.burst(SETUP_PROBES)
        totals.append(elapsed / meter.slowdown)
        raw.append(elapsed)
        builds.append(build_s)
        states = [*states[-1:], state]
    return SetUp(
        statistics.median(totals),
        statistics.median(raw),
        statistics.median(builds),
        states,
    )


def _end_to_end(measured: Pass, setup_s: float) -> dict:
    """The end-to-end metrics; times are at nominal machine speed."""
    from workloads import percentile

    latencies = measured.latencies
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "throughput_per_s": (
            measured.run.units * measured.slowdown / measured.wall_s, "units/s"
        ),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(argv)
    _load_program()
    env = _environment()

    import repro.obs as obs
    from layers import LayerTrace
    from speed import SpeedMeter
    from workloads import MIN_CALLS, WORKLOADS

    workload = WORKLOADS[args.workload]
    setup = _set_up(workload, args.seed)
    states = setup.states

    if args.trace == 0:
        measured = _measure(
            workload, states[-1], seconds=args.seconds, min_calls=MIN_CALLS,
            meter=SpeedMeter(),
        )
        passes = [measured]
        checks = workload.final_checks(states[-1], measured.run)
        metrics = _end_to_end(measured, setup.setup_s)
    else:
        untraced = _measure(workload, states[0], seconds=args.seconds / 2)
        trace = LayerTrace()
        with obs.collecting() as registry:
            trace.install()
            try:
                measured = _measure(
                    workload, states[1], items=untraced.items, trace=trace
                )
            finally:
                trace.uninstall()
        counters = registry.counters()
        passes = [untraced, measured]
        checks = [
            (
                "trace.digest_equal",
                measured.run.digest == untraced.run.digest,
                f"traced {measured.run.digest[:16]} vs "
                f"untraced {untraced.run.digest[:16]}",
            )
        ]
        checks += trace.coverage_checks(counters, measured.run)
        checks += workload.final_checks(states[1], measured.run)
        metrics = trace.per_layer(
            counters, measured.run, measured.wall_s, untraced.wall_s,
            setup.build_s,
        )

    attempted = sum(p.run.units for p in passes) + len(checks)
    failed = sum(p.run.failed for p in passes) + sum(
        1 for _, passed, _ in checks if not passed
    )
    quality = measured.prefix.quality()
    quality["error_fraction"] = {"value": failed / attempted, "unit": "ratio"}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "closed_loop_callers": 1,
        "unit_of_work": workload.unit,
        "calls": len(measured.run.latencies),
        "items": measured.items,
        "wall_s": measured.wall_s,
        "cpu_steal_share": measured.steal_share,
        "slowdown": measured.slowdown,
        "raw_throughput_per_s": measured.run.units / measured.wall_s,
        "raw_setup_s": setup.raw_setup_s,
        "digest": measured.prefix.digest,
        "run_digest": measured.run.digest,
        "outcomes": quality,
        "checks": [
            {"name": name, "passed": passed, "detail": detail}
            for name, passed, detail in checks
        ],
        "errors": [e for p in passes for e in p.run.errors][:10],
        "env": env,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    for name, metric in sorted(metrics.items()):
        print(f"{name:36s} {metric['value']:>14.6g} {metric['unit']}", file=sys.stderr)
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
