"""MUERP core: problem objects and the paper's Algorithms 1-4.

* :mod:`repro.core.rates` — entanglement-rate arithmetic in log space
  (Eq. 1 / Eq. 2 of the paper).
* :mod:`repro.core.channel` — Algorithm 1, the maximum-entanglement-rate
  channel between a user pair.
* :mod:`repro.core.optimal` — Algorithm 2, optimal under the sufficient
  capacity condition ``Q_r ≥ 2|U|`` (Theorem 3).
* :mod:`repro.core.conflict_free` — Algorithm 3, the conflict-resolving
  heuristic.
* :mod:`repro.core.prim_based` — Algorithm 4, the Prim-style heuristic.
"""

from repro.core.problem import Channel, MUERPSolution, infeasible_solution
from repro.core.rates import (
    channel_log_rate,
    channel_rate,
    link_log_rate,
    tree_log_rate,
    tree_rate,
)
from repro.core.channel import (
    best_channels_from,
    dijkstra,
    find_best_channel,
    trace_path,
)
from repro.core.optimal import solve_optimal
from repro.core.conflict_free import solve_conflict_free
from repro.core.prim_based import solve_prim
from repro.core.tree import ValidationReport, validate_solution
from repro.core.bruteforce import brute_force_optimal, enumerate_channels
from repro.core.exact import solve_exact
from repro.core.kbest import k_best_channels, channel_diversity
from repro.core.localsearch import improve_solution
from repro.core.registry import SOLVERS, register_solver, solve

__all__ = [
    "Channel",
    "MUERPSolution",
    "infeasible_solution",
    "channel_log_rate",
    "channel_rate",
    "link_log_rate",
    "tree_log_rate",
    "tree_rate",
    "best_channels_from",
    "dijkstra",
    "trace_path",
    "find_best_channel",
    "solve_optimal",
    "solve_conflict_free",
    "solve_prim",
    "ValidationReport",
    "validate_solution",
    "brute_force_optimal",
    "enumerate_channels",
    "solve_exact",
    "k_best_channels",
    "channel_diversity",
    "improve_solution",
    "SOLVERS",
    "register_solver",
    "solve",
]
