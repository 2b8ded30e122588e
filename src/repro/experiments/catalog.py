"""Named catalogue of every reproducible experiment.

Maps the DESIGN.md experiment ids (fig5 … fig8b, headline, ablations) to
runnable callables, for the CLI and benchmarks.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.experiments.ablation import (
    run_fusion_penalty_ablation,
    run_prim_seed_ablation,
    run_retention_ablation,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.fig5_topology import run_fig5
from repro.experiments.fig6_scale import run_fig6a, run_fig6b
from repro.experiments.fig7_edges import run_fig7a, run_fig7b
from repro.experiments.extensions_exp import (
    run_localsearch_experiment,
    run_online_load_experiment,
)
from repro.experiments.fig8_switch import run_fig8a, run_fig8b
from repro.experiments.headline import run_headline
from repro.experiments.scaling import run_scaling

EXPERIMENTS: Dict[str, Callable] = {
    "fig5": run_fig5,
    "fig6a": run_fig6a,
    "fig6b": run_fig6b,
    "fig7a": run_fig7a,
    "fig7b": run_fig7b,
    "fig8a": run_fig8a,
    "fig8b": run_fig8b,
    "headline": run_headline,
    "ablation-retention": run_retention_ablation,
    "ablation-prim-seed": run_prim_seed_ablation,
    "ablation-fusion-penalty": run_fusion_penalty_ablation,
    "ext-localsearch": run_localsearch_experiment,
    "ext-online-load": run_online_load_experiment,
    "scaling": run_scaling,
}


def run_named(
    name: str,
    base: Optional[ExperimentConfig] = None,
    workers: Optional[int] = None,
):
    """Run the experiment registered under *name*.

    The whole experiment runs under the ambient engine
    :func:`~repro.exec.engine.engine_for` resolves for *workers*: every
    trial grid it touches (sweep points, fig7b replicas) runs on that
    one engine, so with ``workers > 1`` they share one process pool
    whose workers keep their channel caches warm across the
    experiment.  Results are identical for every worker count.
    """
    from repro.exec.engine import engine_for

    try:
        runner = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {sorted(EXPERIMENTS)}"
        ) from None
    with engine_for(workers):
        return runner(base)
