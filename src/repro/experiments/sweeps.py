"""Generic one-parameter sweeps over :class:`ExperimentConfig`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.core.registry import DISPLAY_NAMES
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult


@dataclass(frozen=True)
class SweepResult:
    """Results of sweeping one config field across several values."""

    parameter: str
    values: Tuple[object, ...]
    results: Tuple[ExperimentResult, ...]

    def series(self) -> Dict[str, List[float]]:
        """Method → list of mean rates (one per swept value)."""
        methods = self.results[0].config.methods
        return {
            method: [r.outcome(method).mean_rate for r in self.results]
            for method in methods
        }

    @property
    def has_bounds(self) -> bool:
        """Whether every sweep point carries certified LP bounds."""
        return all(r.has_bounds for r in self.results)

    def bound_series(self) -> List[float]:
        """Mean certified LP bound per swept value."""
        if not self.has_bounds:
            raise ValueError("sweep ran without bound computation")
        return [r.mean_bound for r in self.results]

    def gap_series(self) -> Dict[str, List[float]]:
        """Method → mean optimality-gap-vs-LP-bound (%) per swept value.

        Gaps are averaged per trial against that trial's own certified
        bound (capacity-exempt methods against the uncapacitated one),
        not mean-rate against mean-bound — mixing the means would let a
        lucky network mask an unsound trial.
        """
        if not self.has_bounds:
            raise ValueError("sweep ran without bound computation")
        methods = self.results[0].config.methods
        return {
            method: [
                r.gap_aggregates()[method].mean_gap_percent
                for r in self.results
            ]
            for method in methods
        }

    def to_table(self, title: Optional[str] = None) -> Table:
        """One row per swept value, one column per method.

        Bounded sweeps gain a mean certified ``LP bound`` column plus
        one optimality-gap column per method.
        """
        methods = list(self.results[0].config.methods)
        columns = [self.parameter] + [
            DISPLAY_NAMES.get(m, m) for m in methods
        ]
        gaps = None
        if self.has_bounds:
            columns.append("LP bound")
            columns += [
                f"{DISPLAY_NAMES.get(m, m)} gap%" for m in methods
            ]
            gaps = self.gap_series()
        table = Table(columns, title=title)
        for index, (value, result) in enumerate(
            zip(self.values, self.results)
        ):
            rates = result.mean_rates()
            row = [value] + [rates[m] for m in methods]
            if gaps is not None:
                row.append(result.mean_bound)
                row += [f"{gaps[m][index]:.2f}" for m in methods]
            table.add_row(row)
        return table


def sweep(
    base: ExperimentConfig,
    parameter: str,
    values: Sequence[object],
    workers: Optional[int] = None,
) -> SweepResult:
    """Run *base* once per value of *parameter* (a config field name).

    Every sweep point's trials run on the one engine
    :func:`~repro.exec.engine.engine_for` resolves for *workers* —
    sharing the engine (rather than one per point) keeps its worker
    processes and their channel caches warm across sweep points, which
    is where repeated-topology sweeps (e.g. a qubit-budget sweep over
    the same fiber plants) earn their cache hit rate.  Sweep points run
    in order, so the checkpoint layout does not depend on *workers*,
    and results are byte-identical for every worker count.
    """
    from repro.exec.engine import engine_for

    if not values:
        raise ValueError("sweep needs at least one value")
    with engine_for(workers) as engine:
        results = [
            engine.run_experiment(base.replace(**{parameter: value}))
            for value in values
        ]
    return SweepResult(
        parameter=parameter,
        values=tuple(values),
        results=tuple(results),
    )
