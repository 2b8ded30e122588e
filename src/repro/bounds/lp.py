"""MUERP LP relaxation — a certified upper bound on the tree rate.

The relaxation is the path-based (column) form of the multi-commodity
flow LP: one variable ``y_π ∈ [0, 1]`` per candidate channel ``π``
(a user–switch–…–user path), with cost ``c_π = −log rate(π)`` from
Eq. (1), minimized subject to exactly the constraints the
:class:`~repro.verify.verifier.SolutionVerifier` re-derives for
integral trees:

* **capacity** — per switch ``r``: ``Σ_π 2·[r transits π]·y_π ≤ Q_r``
  (Def. 3, two qubits per transit channel);
* **pair**     — per unordered user pair ``p``: ``Σ_{π ∈ p} y_π ≤ 1``
  (a tree never uses parallel edges);
* **coverage** — per user ``u``: ``Σ_{π ∋ u} y_π ≥ 1`` (every user has
  degree ≥ 1 in the entanglement tree);
* **tree count** — ``Σ_π y_π = |U| − 1`` (a spanning tree over ``U``).

Every verified integral solution is a 0/1 point of this polytope and
``−Σ c_π y_π`` is then exactly the Eq. (2) log rate, so the LP optimum
is a sound upper bound on any registered solver's achieved rate
(capacity-exempt methods are bounded by the ``capacitated=False``
variant, which drops the capacity rows).

Because the path universe is exponential, the LP is solved by column
generation: a restricted master over the columns found so far, priced
by an exact Dijkstra (the same weight space as Algorithm 1, plus a
per-switch penalty of ``−2·y_cap[r]`` from the capacity duals).  At
*any* round — converged or not — weak duality gives the certificate

    z_full  ≥  y·b + Σ_p min(0, c̄*_p)

for sign-corrected duals ``y`` and exact per-pair minimum reduced
costs ``c̄*_p``, hence ``log bound = −(y·b + Σ_p min(0, c̄*_p))``.
Early-stopped bounds are merely looser, never unsound.

Everything here is deterministic: users, switches and pairs are
iterated in ``repr``-sorted order, the dense simplex uses Bland's
rule, and no randomness is consumed — identical inputs produce
byte-identical certificates.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.channel import relay_search
from repro.core.ledger import CapacityLedger
from repro.core.problem import Channel, resolve_users
from repro.core.rates import swap_log_rate
from repro.network.graph import QuantumNetwork
import repro.obs.metrics as obs_metrics
from repro.bounds.simplex import LPResult, simplex_solve

__all__ = [
    "BoundCertificate",
    "LPRelaxationResult",
    "PathColumn",
    "compute_bound",
    "solve_lp",
    "solve_relaxation",
    "scipy_available",
]

#: Dual / reduced-cost tolerance for declaring column generation done.
PRICING_TOLERANCE = 1e-7

#: Column-generation round ceiling (a loose safety net; the certified
#: bound stays valid when it trips, just slightly looser).
MAX_ROUNDS = 60

#: Backends accepted by :func:`solve_lp` / :func:`solve_relaxation`.
BACKENDS = ("auto", "simplex", "scipy")

#: Cost of the restricted master's artificial columns.  It must
#: dominate the cost of any feasible fractional tree for the
#: infeasibility proof in :meth:`_Master.matrices` to hold; real
#: column costs beyond ~746 already mean rates that underflow to 0.0
#: in float, so 10⁶ dominates every tree whose rate is representable
#: while keeping master reduced costs well-conditioned.
BIG_M = 1.0e6

#: Artificial mass above this (post-solve) counts as "still positive".
_ARTIFICIAL_TOLERANCE = 1e-6


def scipy_available() -> bool:
    """Whether the optional ``scipy`` backend can be imported."""
    try:  # pragma: no cover - trivially environment-dependent
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def _resolve_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown LP backend {backend!r}; expected one of {BACKENDS}"
        )
    if backend == "auto":
        return "scipy" if scipy_available() else "simplex"
    if backend == "scipy" and not scipy_available():
        raise ImportError(
            "LP backend 'scipy' requested but scipy is not installed; "
            "install the optional dependency group (pip install "
            "repro[bounds]) or use backend='simplex'"
        )
    return backend


def solve_lp(
    c: np.ndarray,
    a_ub: Optional[np.ndarray],
    b_ub: Optional[np.ndarray],
    a_eq: Optional[np.ndarray],
    b_eq: Optional[np.ndarray],
    backend: str = "auto",
) -> LPResult:
    """Solve one dense LP with the resolved backend.

    Both backends return the same :class:`~repro.bounds.simplex.LPResult`
    shape, with duals under the ``c − y·A ≥ 0`` convention (scipy's
    HiGHS marginals already follow it).
    """
    resolved = _resolve_backend(backend)
    if resolved == "simplex":
        return simplex_solve(c, a_ub, b_ub, a_eq, b_eq)
    from scipy.optimize import linprog

    result = linprog(
        c,
        A_ub=a_ub if a_ub is not None and len(a_ub) else None,
        b_ub=b_ub if b_ub is not None and len(b_ub) else None,
        A_eq=a_eq if a_eq is not None and len(a_eq) else None,
        b_eq=b_eq if b_eq is not None and len(b_eq) else None,
        bounds=(0, None),
        method="highs",
    )
    m_ub = 0 if a_ub is None else len(a_ub)
    m_eq = 0 if a_eq is None else len(a_eq)
    if result.status == 2:
        return LPResult(
            "infeasible", np.zeros(len(c)), float("nan"),
            np.zeros(m_ub), np.zeros(m_eq), int(result.nit),
        )
    if result.status == 3:  # pragma: no cover - our LPs are bounded
        return LPResult(
            "unbounded", np.zeros(len(c)), float("nan"),
            np.zeros(m_ub), np.zeros(m_eq), int(result.nit),
        )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"scipy linprog failed: {result.message}")
    duals_ub = (
        np.asarray(result.ineqlin.marginals, dtype=float)
        if m_ub
        else np.zeros(0)
    )
    duals_eq = (
        np.asarray(result.eqlin.marginals, dtype=float)
        if m_eq
        else np.zeros(0)
    )
    return LPResult(
        "optimal",
        np.asarray(result.x, dtype=float),
        float(result.fun),
        duals_ub,
        duals_eq,
        int(result.nit),
    )


@dataclass(frozen=True)
class PathColumn:
    """One LP column: a candidate channel for a canonical user pair."""

    pair: Tuple[Hashable, Hashable]
    channel: Channel

    @property
    def cost(self) -> float:
        """LP cost ``−log rate`` (nonnegative since rates are ≤ 1)."""
        return -self.channel.log_rate


@dataclass(frozen=True)
class BoundCertificate:
    """A certified upper bound on the achievable MUERP tree rate.

    Attributes:
        log_bound: Natural-log upper bound on Eq. (2); ``−inf`` when no
            spanning tree exists at all.
        objective: The final restricted-master optimum in log space
            (equals ``log_bound`` when ``dual_feasible``).
        pricing_slack: Log-space looseness added by an early stop
            (0 when converged).
        feasible: Whether the LP is feasible (a fractional tree exists).
        dual_feasible: ``True`` when pricing found no improving column,
            i.e. the bound *is* the LP optimum of the full formulation.
        capacitated: Whether per-switch capacity rows were enforced.
        backend: Resolved LP backend (``"simplex"`` or ``"scipy"``).
        rounds: Column-generation rounds performed.
        pivots: Total LP pivots/iterations across all master solves.
        n_columns: Columns in the final restricted master.
        n_users: Size of the user set the bound certifies.
        solve_seconds: Wall-clock time spent in :func:`solve_relaxation`.
        switch_duals: Capacity shadow prices per switch (log-rate gained
            per extra qubit; empty when ``capacitated`` is ``False``).
    """

    log_bound: float
    objective: float
    pricing_slack: float
    feasible: bool
    dual_feasible: bool
    capacitated: bool
    backend: str
    rounds: int
    pivots: int
    n_columns: int
    n_users: int
    solve_seconds: float
    switch_duals: Dict[Hashable, float] = field(default_factory=dict)

    @property
    def rate_bound(self) -> float:
        """The bound in linear-rate space (0 when infeasible)."""
        if not self.feasible:
            return 0.0
        return math.exp(self.log_bound)


@dataclass(frozen=True)
class LPRelaxationResult:
    """Certificate plus the fractional solution that produced it."""

    certificate: BoundCertificate
    columns: Tuple[PathColumn, ...]
    values: Tuple[float, ...]

    def support(self, cutoff: float = 1e-9) -> List[Tuple[PathColumn, float]]:
        """Columns with mass above *cutoff*, heaviest first."""
        pairs = [
            (column, value)
            for column, value in zip(self.columns, self.values)
            if value > cutoff
        ]
        pairs.sort(key=lambda item: (-item[1], repr(item[0].pair)))
        return pairs


def _pricing_search(
    network: QuantumNetwork,
    source: Hashable,
    penalties: Dict[Hashable, float],
    blocked: bytearray,
) -> Tuple[Mapping[Hashable, float], Mapping[Hashable, Hashable]]:
    """Exact pricing: min-cost user→user paths under dual penalties.

    Runs the channel-search kernel :func:`repro.core.channel.relay_search`
    (same ``α·L − ln q`` weight space, users never relay) but charges an
    extra nonnegative ``penalties[r]`` when transiting switch ``r``.
    Switches flagged in *blocked* may not relay: the idle ledger's mask
    (switches below 2 qubits) for the capacitated universe, all zeros
    for the uncapacitated universe used to bound capacity-exempt
    methods.  The budgets never change during a relaxation, so the
    caller builds the mask once.
    """
    graph = network.routing_snapshot()
    minus_ln_q = -swap_log_rate(network.params.swap_prob)
    transit = [minus_ln_q + penalties.get(node, 0.0) for node in graph.ids]
    dist, prev, _, _, _ = relay_search(
        graph, graph.index[source], network.params.alpha, transit, blocked
    )
    return dist, prev


class _Master:
    """The restricted master LP over the columns found so far."""

    def __init__(
        self,
        users: Sequence[Hashable],
        switches: Sequence[Hashable],
        budgets: Mapping[Hashable, int],
        capacitated: bool,
    ) -> None:
        self.users = list(users)
        self.switches = list(switches) if capacitated else []
        self.budgets = budgets
        self.capacitated = capacitated
        self.pairs: List[Tuple[Hashable, Hashable]] = [
            (a, b)
            for i, a in enumerate(self.users)
            for b in self.users[i + 1:]
        ]
        self.pair_row = {pair: i for i, pair in enumerate(self.pairs)}
        self.switch_row = {s: i for i, s in enumerate(self.switches)}
        self.user_row = {u: i for i, u in enumerate(self.users)}
        self.columns: List[PathColumn] = []
        self.seen_paths: set = set()

    def canonical_pair(self, a: Hashable, b: Hashable) -> Tuple:
        return (a, b) if repr(a) <= repr(b) else (b, a)

    def add_column(self, column: PathColumn) -> bool:
        key = (column.pair, column.channel.path)
        reverse = (column.pair, tuple(reversed(column.channel.path)))
        if key in self.seen_paths or reverse in self.seen_paths:
            return False
        self.seen_paths.add(key)
        self.columns.append(column)
        return True

    def matrices(self):
        """Dense (c, A_ub, b_ub, A_eq, b_eq) for the current columns.

        Beyond the real path columns, one big-M artificial column is
        appended per coverage row and one for the tree-count row, so
        the *restricted* master is always feasible — the seed columns
        may jam a bottleneck switch even though other (not yet
        generated) paths would satisfy every row, and an infeasible
        restricted master proves nothing about the full LP.  Pricing
        then drives the artificials out; artificial mass still
        positive at *convergence* soundly proves the full LP
        infeasible (any feasible point would cost < BIG_M, below the
        converged optimum).
        """
        n = len(self.columns)
        n_cap = len(self.switches)
        n_pair = len(self.pairs)
        n_user = len(self.users)
        n_total = n + n_user + 1  # + coverage artificials + tree artificial
        m_ub = n_cap + n_pair + n_user
        c = np.full(n_total, BIG_M)
        c[:n] = [col.cost for col in self.columns]
        a_ub = np.zeros((m_ub, n_total))
        b_ub = np.empty(m_ub)
        for i, switch in enumerate(self.switches):
            b_ub[i] = float(self.budgets.get(switch, 0))
        b_ub[n_cap:n_cap + n_pair] = 1.0
        b_ub[n_cap + n_pair:] = -1.0  # coverage: −Σ y ≤ −1
        for j, col in enumerate(self.columns):
            if self.capacitated:
                for switch in col.channel.switches:
                    a_ub[self.switch_row[switch], j] += 2.0
            a_ub[n_cap + self.pair_row[col.pair], j] = 1.0
            a, b = col.pair
            a_ub[n_cap + n_pair + self.user_row[a], j] = -1.0
            a_ub[n_cap + n_pair + self.user_row[b], j] = -1.0
        for i in range(n_user):  # coverage artificials
            a_ub[n_cap + n_pair + i, n + i] = -1.0
        a_eq = np.zeros((1, n_total))
        a_eq[0, :n] = 1.0
        a_eq[0, n_total - 1] = 1.0  # tree-count artificial (deficit)
        b_eq = np.array([float(len(self.users) - 1)])
        return c, a_ub, b_ub, a_eq, b_eq


def solve_relaxation(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    *,
    backend: str = "auto",
    capacitated: bool = True,
    max_rounds: int = MAX_ROUNDS,
    tolerance: float = PRICING_TOLERANCE,
) -> LPRelaxationResult:
    """Solve the LP relaxation by column generation.

    Returns the :class:`BoundCertificate` together with the final
    fractional solution (columns + values), which
    :func:`repro.bounds.rounding.solve_lp_rounding` rounds into an
    integral tree.
    """
    started = time.perf_counter()
    resolved_backend = _resolve_backend(backend)
    user_list = sorted(resolve_users(network, users), key=repr)
    idle = CapacityLedger.from_network(network)
    switches = sorted(idle, key=repr)
    master = _Master(user_list, switches, idle, capacitated)
    graph = network.routing_snapshot()
    if capacitated:
        blocked = idle.blocked(graph)
    else:
        blocked = bytearray(len(graph.ids))

    total_pivots = 0
    rounds = 0
    dual_feasible = False
    objective_log = -math.inf
    best_bound_log = math.inf
    final_slack = math.inf
    artificial_mass = 0.0
    n_solved = 0
    solution: Optional[LPResult] = None

    zero_penalties: Dict[Hashable, float] = {}
    penalties: Dict[Hashable, float] = zero_penalties
    duals: Optional[LPResult] = None
    dual_value = 0.0

    for rounds in range(1, max_rounds + 1):
        # --- pricing: one single-source search per non-final user ----
        new_columns = 0
        slack = 0.0
        worst = 0.0
        for i, source in enumerate(user_list[:-1]):
            dist, prev = _pricing_search(
                network, source, penalties, blocked
            )
            for target in user_list[i + 1:]:
                if target not in dist:
                    continue
                pair = master.canonical_pair(source, target)
                if duals is None:
                    # Seed round: the best channel per reachable pair
                    # unconditionally (reduced costs need duals).
                    channel = prev.channel(source, target, network.params)
                    if master.add_column(PathColumn(pair, channel)):
                        new_columns += 1
                    continue
                n_cap = len(master.switches)
                n_pair = len(master.pairs)
                y_ub = duals.duals_ub
                const = (
                    -float(duals.duals_eq[0])
                    - y_ub[n_cap + master.pair_row[pair]]
                    + y_ub[n_cap + n_pair + master.user_row[source]]
                    + y_ub[n_cap + n_pair + master.user_row[target]]
                )
                reduced = dist[target] + const
                slack += min(0.0, reduced)
                worst = min(worst, reduced)
                if reduced < -tolerance:
                    channel = prev.channel(source, target, network.params)
                    if master.add_column(PathColumn(pair, channel)):
                        new_columns += 1

        if duals is not None:
            # Certified bound valid at ANY round: z ≥ y·b + Σ min(0, c̄*)
            bound_log = -(dual_value + slack)
            if bound_log < best_bound_log:
                best_bound_log = bound_log
                final_slack = -slack
            if worst >= -tolerance:
                dual_feasible = True
                break
            if new_columns == 0:
                # Numerics: pricing saw a violation but only on paths
                # already in the master.  The slack-certified bound
                # above stays valid; stop rather than loop forever.
                break

        if not master.columns:
            break  # no user pair is connected at all

        # --- restricted master solve -------------------------------
        c, a_ub, b_ub, a_eq, b_eq = master.matrices()
        n_solved = len(master.columns)
        solution = solve_lp(c, a_ub, b_ub, a_eq, b_eq, resolved_backend)
        total_pivots += solution.iterations
        if not solution.optimal:  # pragma: no cover - defensive; the
            break  # artificial columns keep the master feasible
        artificial_mass = float(np.sum(solution.x[n_solved:]))
        # Objective over the real columns only — residual artificial
        # mass up to the tolerance would otherwise leak ~BIG_M·mass.
        objective_log = -float(c[:n_solved] @ solution.x[:n_solved])
        # Sign-correct the inequality duals (valid for any y ≤ 0) and
        # compute y·b explicitly so the certificate never leans on the
        # backend's duals being exactly optimal.
        duals = LPResult(
            status=solution.status,
            x=solution.x,
            objective=solution.objective,
            duals_ub=np.minimum(solution.duals_ub, 0.0),
            duals_eq=solution.duals_eq,
            iterations=solution.iterations,
        )
        dual_value = float(
            duals.duals_ub @ b_ub + duals.duals_eq @ b_eq
        )
        penalties = {
            switch: -2.0 * float(duals.duals_ub[master.switch_row[switch]])
            for switch in master.switches
        }

    solved = solution is not None and solution.optimal
    if not solved:
        feasible = False  # not even a seed column: no pair connected
    elif artificial_mass > _ARTIFICIAL_TOLERANCE:
        # Artificial columns survived the final master solve.  At
        # convergence that *proves* the full LP infeasible — any
        # fractional tree would cost < BIG_M, strictly below the
        # converged big-M optimum.  Mid-run it proves nothing (pricing
        # might still displace them), so stay conservatively feasible
        # with the certified (possibly trivial) bound below.
        feasible = not dual_feasible
    else:
        feasible = True

    if not feasible:
        log_bound = -math.inf
        objective_log = -math.inf
        final_slack = 0.0
        dual_feasible = True  # vacuously: no tree exists, bound exact
    elif dual_feasible:
        # Converged with zero artificial mass: the master optimum is
        # the full-LP optimum.  (Rates never exceed 1, so neither does
        # the bound exceed log 1 = 0.)
        log_bound = min(objective_log, 0.0)
        final_slack = 0.0
    else:
        # Early stop: the weak-duality certificate from the best round,
        # falling back to the trivial rate ≤ 1 bound when no round
        # priced against duals.  (The restricted master optimum is NOT
        # a valid fallback — over a column subset it *under*-estimates
        # the full optimum.)
        log_bound = min(best_bound_log, 0.0)
        final_slack = (
            max(final_slack, 0.0) if math.isfinite(final_slack) else 0.0
        )

    switch_duals: Dict[Hashable, float] = {}
    if feasible and capacitated and duals is not None:
        switch_duals = {
            switch: -float(duals.duals_ub[master.switch_row[switch]])
            for switch in master.switches
            if abs(duals.duals_ub[master.switch_row[switch]]) > 1e-12
        }

    elapsed = time.perf_counter() - started
    certificate = BoundCertificate(
        log_bound=log_bound,
        objective=objective_log,
        pricing_slack=final_slack,
        feasible=feasible,
        dual_feasible=dual_feasible,
        capacitated=capacitated,
        backend=resolved_backend,
        rounds=rounds,
        pivots=total_pivots,
        n_columns=len(master.columns),
        n_users=len(user_list),
        solve_seconds=elapsed,
        switch_duals=switch_duals,
    )
    metrics = obs_metrics.active()
    if metrics is not None:
        metrics.inc("bounds.lp.solves")
        metrics.inc("bounds.lp.rounds", rounds)
        metrics.inc("bounds.lp.pivots", total_pivots)
        metrics.max_gauge("bounds.lp.columns", len(master.columns))
        metrics.observe("bounds.lp.solve_seconds", elapsed)
        if not feasible:
            metrics.inc("bounds.lp.infeasible")
        if feasible and not dual_feasible:
            metrics.inc("bounds.lp.early_stops")

    values = (
        tuple(float(v) for v in solution.x[:n_solved])
        if feasible and solution is not None
        else tuple(0.0 for _ in master.columns)
    )
    # The master can have gained columns after its last solve (the
    # final pricing round adds none when converged, but the numeric
    # early-stop path can).  Pad values to match.
    if len(values) < len(master.columns):
        values = values + tuple(
            0.0 for _ in range(len(master.columns) - len(values))
        )
    return LPRelaxationResult(
        certificate=certificate,
        columns=tuple(master.columns),
        values=values,
    )


def compute_bound(
    network: QuantumNetwork,
    users: Optional[Iterable[Hashable]] = None,
    *,
    backend: str = "auto",
    capacitated: bool = True,
    max_rounds: int = MAX_ROUNDS,
) -> BoundCertificate:
    """Certified upper bound on the MUERP tree rate (see module docs)."""
    return solve_relaxation(
        network,
        users,
        backend=backend,
        capacitated=capacitated,
        max_rounds=max_rounds,
    ).certificate
