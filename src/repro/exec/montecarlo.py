"""Sharded Monte-Carlo slots-to-success measurement.

The serial :meth:`~repro.sim.engine.SlottedEntanglementSimulator.
slots_to_success_summary` threads one RNG stream through all runs, which
is inherently order-dependent.  The parallel measurement defined here
derives each run's generator independently with
:func:`~repro.utils.rng.spawn_rngs` (index-seeded), so run *i* flips the
same coins no matter which worker executes it or in which order — the
merged :class:`~repro.sim.engine.SlotsToSuccessSummary` is identical for
every worker count, including ``workers=1``.

Only *plain* simulations parallelize: a
:class:`~repro.resilience.faults.FaultInjector` or
:class:`~repro.resilience.retry.RetryPolicy` carries mutable state
across runs (fault timelines, budgets), which breaks run independence —
those simulations must stay on the serial method.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import MUERPSolution
    from repro.network.graph import QuantumNetwork
    from repro.sim.engine import SlotsToSuccessSummary

__all__ = ["parallel_slots_to_success"]


def _run_mc_item(
    payload: Tuple["QuantumNetwork", "MUERPSolution", np.random.Generator, int],
) -> Tuple[bool, int]:
    """Execute one protocol run with its own index-seeded generator."""
    from repro.sim.engine import SlottedEntanglementSimulator

    network, solution, rng, max_slots = payload
    outcome = SlottedEntanglementSimulator(network, solution, rng=rng).run(
        max_slots
    )
    return outcome.succeeded, outcome.slots_used


def parallel_slots_to_success(
    network: "QuantumNetwork",
    solution: "MUERPSolution",
    runs: int = 100,
    seed: int = 0,
    max_slots: int = 1_000_000,
    workers: int = 1,
) -> "SlotsToSuccessSummary":
    """Measure slots-to-success over *runs* sharded protocol executions.

    Args:
        network: The network the plan was computed for.
        solution: The feasible routed tree to execute.
        runs: Independent protocol runs (each with an index-seeded RNG).
        seed: Root seed for :func:`~repro.utils.rng.spawn_rngs`.
        max_slots: Per-run slot cap; capped runs count as failures.
        workers: Shard the runs over this many processes; otherwise
            they run on the engine :func:`~repro.exec.engine.engine_for`
            resolves (the ambient one, if any).

    Returns:
        The merged summary, assembled in run-index order — identical
        for every worker count.
    """
    from repro.exec.engine import engine_for
    from repro.sim.engine import SlotsToSuccessSummary
    from repro.utils.rng import spawn_rngs

    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    payloads = [
        (network, solution, rng, max_slots)
        for rng in spawn_rngs(seed, runs)
    ]
    with engine_for(workers) as engine:
        outcomes = engine.map_items(_run_mc_item, payloads)
    return SlotsToSuccessSummary.from_outcomes(outcomes)
