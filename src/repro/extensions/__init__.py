"""Extensions the paper names as future work (Sec. I / VII).

* :mod:`repro.extensions.fidelity_aware` — entanglement routing that
  accounts for Werner-state fidelity decay, via a Pareto
  label-correcting path search and a fidelity-constrained Prim growth.
* :mod:`repro.extensions.multigroup` — concurrent routing of multiple
  independent entanglement groups over a shared switch budget.
"""

from repro.extensions.fidelity_aware import (
    FidelityModel,
    ParetoChannel,
    channel_fidelity,
    pareto_channels,
    find_best_channel_with_fidelity,
    solve_fidelity_prim,
)
from repro.extensions.multigroup import (
    GroupRequest,
    GroupRoutingResult,
    route_groups,
    optimize_group_order,
)
from repro.extensions.recovery import (
    RepairReport,
    apply_failures,
    channel_broken,
    recover,
    repair_solution,
)
from repro.extensions.purification import (
    PurificationOption,
    purify_once,
    purification_success,
    purification_ladder,
    best_purified_option,
    solve_purified_prim,
)
from repro.extensions.redundancy import (
    RedundantTree,
    add_redundancy,
    simulate_redundant,
)

__all__ = [
    "FidelityModel",
    "ParetoChannel",
    "channel_fidelity",
    "pareto_channels",
    "find_best_channel_with_fidelity",
    "solve_fidelity_prim",
    "GroupRequest",
    "GroupRoutingResult",
    "route_groups",
    "optimize_group_order",
    "RepairReport",
    "apply_failures",
    "channel_broken",
    "recover",
    "repair_solution",
    "PurificationOption",
    "purify_once",
    "purification_success",
    "purification_ladder",
    "best_purified_option",
    "solve_purified_prim",
    "RedundantTree",
    "add_redundancy",
    "simulate_redundant",
]
