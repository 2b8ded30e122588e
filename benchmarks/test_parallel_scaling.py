"""Parallel execution engine scaling benchmark.

Runs a repeated-topology sweep (a fig8a-style qubit-budget sweep: the
same fiber plant regenerates at every sweep point, so channel searches
repeat across points) through the execution engine at several worker
counts, and archives the machine-readable results to
``benchmarks/results/BENCH_parallel.json``:

* **speedup vs workers** — wall-clock of the uncached serial reference
  divided by each engine run's wall-clock.  On multi-core machines the
  process pool contributes; on any machine the channel cache does (the
  searches dominate solver runtime), which is what makes the speedup
  gate meaningful even on single-core CI runners.
* **cache hit rate vs sweep size** — the hit rate grows with the number
  of sweep points sharing a fiber plant; the gate requires >= 50% on the
  full sweep.
* **divergence gate** — every engine run must serialize byte-identically
  to the uncached serial reference.

Scale knobs: ``REPRO_BENCH_WORKERS`` (default ``1,2,4``) plus the shared
``REPRO_BENCH_NETWORKS`` / ``REPRO_BENCH_SEED`` from ``conftest``.
"""

from __future__ import annotations

import json
import os
import time

from repro.exec.engine import ExecutionEngine, executing, result_payload
from repro.experiments.fig8_switch import run_fig8a

QUBIT_COUNTS = (2, 4, 6, 8)
WORKER_COUNTS = tuple(
    int(w)
    for w in os.environ.get("REPRO_BENCH_WORKERS", "1,2,4").split(",")
)

#: Acceptance gates (CI fails the job when either is violated).
MIN_SPEEDUP_AT_MAX_WORKERS = 1.5
MIN_HIT_RATE = 0.5


def _canonical(result) -> bytes:
    return json.dumps(result_payload(result), sort_keys=True).encode()


def _timed_sweep(config, qubit_counts, engine=None):
    started = time.perf_counter()
    if engine is None:
        result = run_fig8a(config, qubit_counts=qubit_counts)
    else:
        with executing(engine):
            result = run_fig8a(config, qubit_counts=qubit_counts)
    return result, time.perf_counter() - started


def test_parallel_scaling(bench_config, results_dir, capsys):
    # Paper-scale networks: the workload must be large enough that pool
    # startup amortizes, otherwise single-core runners measure only
    # process-spawn overhead.
    config = bench_config

    # Uncached serial reference: with no engine given, run_fig8a runs
    # on the uncached serial engine, which defines both the baseline
    # wall-clock and the canonical result bytes.
    reference, reference_seconds = _timed_sweep(config, QUBIT_COUNTS)
    reference_bytes = _canonical(reference)

    runs = []
    for workers in WORKER_COUNTS:
        engine = ExecutionEngine(workers=workers)
        with engine:
            result, seconds = _timed_sweep(config, QUBIT_COUNTS, engine)
        assert _canonical(result) == reference_bytes, (
            f"engine run with {workers} worker(s) diverged from the "
            "serial reference"
        )
        stats = engine.stats
        runs.append(
            {
                "workers": workers,
                "wall_seconds": seconds,
                "speedup_vs_uncached_serial": reference_seconds / seconds,
                "trials_run": stats.items_run,
                "shards_run": stats.shards_run,
                "cache": stats.cache.to_dict(),
            }
        )

    # Cache hit rate as a function of sweep size: more points over the
    # same fiber plant -> more repeated searches -> higher hit rate.
    hit_rate_by_sweep_size = []
    for n_points in (1, 2, len(QUBIT_COUNTS)):
        engine = ExecutionEngine(workers=1)
        with engine:
            _timed_sweep(config, QUBIT_COUNTS[:n_points], engine)
        hit_rate_by_sweep_size.append(
            {
                "sweep_points": n_points,
                "hit_rate": engine.stats.cache.hit_rate,
                "lookups": engine.stats.cache.lookups,
            }
        )

    payload = {
        "config": {
            "topology": config.topology,
            "n_switches": config.n_switches,
            "n_users": config.n_users,
            "n_networks": config.n_networks,
            "seed": config.seed,
            "qubit_counts": list(QUBIT_COUNTS),
            "methods": list(config.methods),
        },
        "reference": {
            "backend": "serial-uncached",
            "wall_seconds": reference_seconds,
        },
        "runs": runs,
        "hit_rate_by_sweep_size": hit_rate_by_sweep_size,
        "gates": {
            "min_speedup_at_max_workers": MIN_SPEEDUP_AT_MAX_WORKERS,
            "min_hit_rate": MIN_HIT_RATE,
        },
    }
    out_path = results_dir / "BENCH_parallel.json"
    out_path.write_text(json.dumps(payload, indent=2) + "\n")

    with capsys.disabled():
        print()
        print(f"uncached serial reference: {reference_seconds:.2f}s")
        for run in runs:
            print(
                f"  workers={run['workers']}: {run['wall_seconds']:.2f}s "
                f"({run['speedup_vs_uncached_serial']:.2f}x, "
                f"hit rate {run['cache']['hit_rate']:.1%})"
            )
        for point in hit_rate_by_sweep_size:
            print(
                f"  sweep of {point['sweep_points']} point(s): "
                f"hit rate {point['hit_rate']:.1%} "
                f"over {point['lookups']} lookups"
            )
        print(f"archived to {out_path}")

    # Gate 1: the full repeated-topology sweep must hit the cache hard.
    full_sweep = hit_rate_by_sweep_size[-1]
    assert full_sweep["hit_rate"] >= MIN_HIT_RATE, (
        f"cache hit rate {full_sweep['hit_rate']:.1%} below the "
        f"{MIN_HIT_RATE:.0%} gate on the repeated-topology sweep"
    )

    # Gate 2: wall-clock speedup at the highest worker count.
    best = max(runs, key=lambda r: r["workers"])
    assert best["speedup_vs_uncached_serial"] >= MIN_SPEEDUP_AT_MAX_WORKERS, (
        f"speedup {best['speedup_vs_uncached_serial']:.2f}x at "
        f"{best['workers']} workers below the "
        f"{MIN_SPEEDUP_AT_MAX_WORKERS}x gate"
    )
