"""Pinned reference outputs for every work grid the engine runs.

Experiment trials, sweep points, fig7b replicas and Monte-Carlo runs
all go through :class:`~repro.exec.engine.ExecutionEngine`; the
uncached serial engine is the reference path.  The determinism tests
only compare worker counts with each other, so a change that shifts
an RNG draw, the merge order or an aggregation on every backend at
once would pass them; it fails here as a digest mismatch.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exec.engine import result_payload
from repro.exec.montecarlo import parallel_slots_to_success
from repro.experiments.checkpoint import CheckpointStore
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig6_scale import run_fig6a
from repro.experiments.fig7_edges import run_fig7b
from repro.experiments.runner import run_experiment

SMALL = ExperimentConfig(
    n_switches=10,
    n_users=4,
    n_networks=4,
    seed=11,
    methods=("prim", "nfusion", "eqcast"),
)

FIG6A_SHA256 = (
    "550f24ce9b703baffa03e5d8c2db0b26fef26491708cd5ed43ec9fc3e5bca8be"
)
FIG7B_SHA256 = (
    "3c98f48ec92791608f784bcb9cb86a22fa8ee27031541be1abed98bead13463a"
)
MONTECARLO_SHA256 = (
    "1ca4940c93da6246fdd23192c25249712e05d953d603108fd006df946cb6c9dc"
)
CHECKPOINT_SHA256 = (
    "3c9dad424ac0cc419949361f197ac2669d45a93ae65f63b28fcb1d08b4bd7830"
)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()


@pytest.mark.parametrize("workers", [None, 2])
def test_fig6a_digest(workers):
    result = run_fig6a(SMALL, user_counts=(3, 4), workers=workers)
    assert _digest(result_payload(result)) == FIG6A_SHA256


def test_fig7b_digest():
    result = run_fig7b(
        SMALL.replace(n_networks=3), n_edges=60, step=15, max_ratio=0.5
    )
    assert _digest(result_payload(result)) == FIG7B_SHA256


@pytest.mark.parametrize("workers", [1, 2])
def test_montecarlo_digest(workers):
    from repro.core.registry import solve
    from repro.topology.registry import generate
    from repro.utils.rng import ensure_rng

    net = generate("waxman", SMALL.topology_config(), ensure_rng(11))
    solution = solve("prim", net, rng=ensure_rng(12))
    assert solution.feasible
    summary = parallel_slots_to_success(
        net, solution, runs=16, seed=4, max_slots=100_000, workers=workers
    )
    payload = [
        summary.runs,
        summary.successes,
        summary.failures,
        summary.mean_successful_slots,
    ]
    assert _digest(payload) == MONTECARLO_SHA256


def test_plain_checkpoint_bytes(tmp_path):
    path = tmp_path / "ck.jsonl"
    run_experiment(SMALL, checkpoint=CheckpointStore(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256
    assert not (tmp_path / "ck.jsonl.shards").exists()
