"""Determinism gate: --workers 1/2/4 produce byte-identical reports.

The engine's contract is that parallelism is a pure wall-clock
optimization: a fig6-style sweep merged from any number of worker
shards serializes to exactly the same report JSON, byte for byte.
CI runs this gate on every push (the parallel-scaling job repeats it
at benchmark scale).
"""

from __future__ import annotations

import json

import pytest

from repro.exec.engine import ExecutionEngine, executing, result_payload
from repro.exec.montecarlo import parallel_slots_to_success
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6_scale import run_fig6a
from repro.experiments.fig7_edges import run_fig7b

SMALL = ExperimentConfig(
    n_switches=10,
    n_users=4,
    n_networks=4,
    seed=11,
    methods=("prim", "nfusion", "eqcast"),
)

WORKER_COUNTS = (1, 2, 4)


def _report_bytes(result) -> bytes:
    return json.dumps(result_payload(result), sort_keys=True).encode()


def test_fig6_sweep_byte_identical_across_worker_counts():
    reports = {}
    for workers in WORKER_COUNTS:
        result = run_fig6a(SMALL, user_counts=(3, 4), workers=workers)
        reports[workers] = _report_bytes(result)
    assert reports[2] == reports[1]
    assert reports[4] == reports[1]


def test_parallel_matches_legacy_serial_path():
    """A pool run equals the uncached serial engine's reference bytes.

    A call with no ``workers`` and no ambient engine runs on the
    uncached serial engine; ``test_engine_reference.py`` pins its
    digests.
    """
    legacy = run_fig6a(SMALL, user_counts=(3, 4))
    engine_run = run_fig6a(SMALL, user_counts=(3, 4), workers=2)
    assert _report_bytes(engine_run) == _report_bytes(legacy)


def test_cache_on_off_byte_identical():
    with ExecutionEngine(workers=2, use_cache=False) as engine:
        with executing(engine):
            uncached = run_fig6a(SMALL, user_counts=(3, 4))
    with ExecutionEngine(workers=2, use_cache=True) as engine:
        with executing(engine):
            cached = run_fig6a(SMALL, user_counts=(3, 4))
    assert _report_bytes(cached) == _report_bytes(uncached)


def test_fig7b_replicas_byte_identical_across_worker_counts():
    config = SMALL.replace(n_networks=3)
    reports = {}
    for workers in (1, 2):
        result = run_fig7b(
            config, n_edges=60, step=15, max_ratio=0.5, workers=workers
        )
        reports[workers] = _report_bytes(result)
    assert reports[2] == reports[1]


def test_montecarlo_identical_across_worker_counts():
    from repro.core.registry import solve
    from repro.topology.registry import generate
    from repro.utils.rng import ensure_rng

    net = generate("waxman", SMALL.topology_config(), ensure_rng(11))
    solution = solve("prim", net, rng=ensure_rng(12))
    if not solution.feasible:  # pragma: no cover - seed chosen feasible
        pytest.skip("seed produced an infeasible instance")
    summaries = [
        parallel_slots_to_success(
            net, solution, runs=16, seed=4, max_slots=100_000, workers=w
        )
        for w in WORKER_COUNTS
    ]
    assert summaries[1] == summaries[0]
    assert summaries[2] == summaries[0]
