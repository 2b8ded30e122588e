"""Fig. 7 — impact of the fiber plant.

* Fig. 7(a): sweep the average node degree D ∈ {4, 6, 8, 10} — denser
  networks give better channel choices and higher rates.
* Fig. 7(b): the edge-removal study.  Build a 600-fiber Waxman network
  (50 switches, 10 users, Q = 4), then repeatedly remove 30 uniformly
  random fibers and re-solve, tracking each algorithm's rate as the
  removed-edge ratio climbs to 0.9.  The paper's observations — plateaus
  while non-critical edges fall, occasional *improvements* when a
  removal steers the greedy off a bad channel — emerge from the same
  procedure here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.tables import Table
from repro.core.registry import DISPLAY_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_on_network
from repro.experiments.sweeps import SweepResult, sweep
from repro.topology.registry import generate
from repro.utils.rng import spawn_rngs

DEGREES: Sequence[float] = (4.0, 6.0, 8.0, 10.0)

#: Fig. 7(b) setup: 600 fibers, 30 removed per step, ratio up to 0.9.
FIG7B_EDGES = 600
FIG7B_STEP = 30
FIG7B_MAX_RATIO = 0.9


def run_fig7a(
    base: Optional[ExperimentConfig] = None,
    degrees: Sequence[float] = DEGREES,
    workers: Optional[int] = None,
    with_bound: bool = False,
) -> SweepResult:
    """Reproduce Fig. 7(a): rate vs. average degree.

    ``with_bound`` adds per-trial certified LP bounds and
    optimality-gap columns (:mod:`repro.bounds`).
    """
    base = base or ExperimentConfig()
    if with_bound:
        base = base.replace(bound="lp")
    return sweep(base, "avg_degree", list(degrees), workers=workers)


@dataclass(frozen=True)
class EdgeRemovalResult:
    """Results of the Fig. 7(b) edge-removal study."""

    ratios: Tuple[float, ...]
    series: Dict[str, Tuple[float, ...]]  # method -> mean rate per ratio

    def to_table(self, title: Optional[str] = None) -> Table:
        methods = list(self.series)
        columns = ["removed ratio"] + [
            DISPLAY_NAMES.get(m, m) for m in methods
        ]
        table = Table(columns, title=title)
        for index, ratio in enumerate(self.ratios):
            table.add_row(
                [f"{ratio:.2f}"] + [self.series[m][index] for m in methods]
            )
        return table


def _fig7b_replica(
    payload: Tuple[ExperimentConfig, int, int, int],
) -> List[Dict[str, float]]:
    """One Fig. 7(b) replica: generate, then alternate measure/remove.

    Module-level and picklable so the execution engine can shard
    replicas across worker processes.  The replica RNG is index-seeded
    (:func:`~repro.utils.rng.spawn_rngs`), and generation, removal
    draws, and solves consume it in one fixed order — so per-replica
    rate curves are byte-identical regardless of which process computes
    them.
    """
    config, trial, step, n_ratios = payload
    network_rng = spawn_rngs(config.seed, config.n_networks)[trial]
    network = generate(config.topology, config.topology_config(), network_rng)
    working = network.copy()
    curves: List[Dict[str, float]] = []
    for index in range(n_ratios):
        if index > 0:
            _remove_random_fibers(working, step, network_rng)
        curves.append(run_on_network(working, config.methods, network_rng))
    return curves


def run_fig7b(
    base: Optional[ExperimentConfig] = None,
    n_edges: int = FIG7B_EDGES,
    step: int = FIG7B_STEP,
    max_ratio: float = FIG7B_MAX_RATIO,
    workers: Optional[int] = None,
) -> EdgeRemovalResult:
    """Reproduce Fig. 7(b): rate vs. removed-edge ratio.

    For each of the config's ``n_networks`` replicas: generate the
    600-fiber network, then alternate (measure all methods) / (remove
    *step* random fibers) until *max_ratio* of the fibers are gone.
    Mean rates over replicas are reported per ratio point.

    Replicas are independent work items mapped over the engine
    :func:`~repro.exec.engine.engine_for` resolves, so with ``workers >
    1`` (or an ambient pool engine) they shard across processes; the
    mean curves are identical for every worker count.
    """
    from repro.exec.engine import engine_for

    base = base or ExperimentConfig()
    config = base.replace(n_edges=n_edges)
    n_steps = int(np.floor(max_ratio * n_edges / step))
    ratios = tuple(step * k / n_edges for k in range(n_steps + 1))
    payloads = [
        (config, trial, step, len(ratios))
        for trial in range(config.n_networks)
    ]
    with engine_for(workers) as engine:
        replica_curves = engine.map_items(_fig7b_replica, payloads)

    accumulator: Dict[str, List[List[float]]] = {
        m: [[] for _ in ratios] for m in config.methods
    }
    for curves in replica_curves:
        for index, rates in enumerate(curves):
            for method, rate in rates.items():
                accumulator[method][index].append(rate)

    series = {
        method: tuple(float(np.mean(bucket)) for bucket in buckets)
        for method, buckets in accumulator.items()
    }
    return EdgeRemovalResult(ratios=ratios, series=series)


def _remove_random_fibers(network, count: int, rng) -> None:
    """Remove up to *count* uniformly random fibers in place."""
    fibers = network.fibers
    count = min(count, len(fibers))
    if count == 0:
        return
    chosen = rng.choice(len(fibers), size=count, replace=False)
    for index in chosen:
        fiber = fibers[int(index)]
        network.remove_fiber(fiber.u, fiber.v)
