"""Frozen references for the greedy steps the tree builders share.

LP rounding and local search grow their trees with Algorithm 3's two
greedy steps: retain the best channels that fit, then reconnect the
leftover unions with the best capacity-feasible channel.  The loops
they used to write for themselves are frozen here, and Hypothesis
compares them with the shared code on random Waxman and Watts–Strogatz
networks with 2 to 4 qubits per switch: trees, rates and repair counts
must be identical.

LP rounding repairs only when its columns cannot span the users, which
a full relaxation seldom allows, so the rounding cases cut the
relaxation's columns down to a random subset.

The last test runs the fidelity and purification Prim variants on a hub
network full of rate ties under several ``PYTHONHASHSEED`` values and
requires one tree from each.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path
from typing import Hashable, List, Optional, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
import repro.obs.metrics as obs_metrics
from repro.bounds.lp import LPRelaxationResult, solve_relaxation
from repro.bounds.rounding import (
    _MASS_FLOOR,
    DEFAULT_ATTEMPTS,
    _attempt_order,
    solve_lp_rounding,
)
from repro.core import registry
from repro.core.channel import best_channels_from
from repro.core.ledger import CapacityLedger
from repro.core.localsearch import improve_solution
from repro.core.problem import (
    Channel,
    MUERPSolution,
    channel_usage,
    infeasible_solution,
)
from repro.network.graph import QuantumNetwork
from repro.topology import TopologyConfig, waxman_network
from repro.topology import watts_strogatz_network
from repro.utils.rng import ensure_rng
from repro.utils.unionfind import UnionFind
from repro.verify.verifier import SolutionVerifier


def _network(kind: str, seed: int, switches: int, users: int, qubits: int):
    config = TopologyConfig(
        n_switches=switches,
        n_users=users,
        avg_degree=4.0,
        qubits_per_switch=qubits,
    )
    generate = waxman_network if kind == "waxman" else watts_strogatz_network
    network = generate(config, rng=seed)
    # Users must reach each other through switches.
    for fiber in network.fibers:
        if network.is_user(fiber.u) and network.is_user(fiber.v):
            network.remove_fiber(fiber.u, fiber.v)
    return network


def _digest(solution: MUERPSolution) -> Tuple:
    return (
        solution.method,
        solution.feasible,
        repr(solution.log_rate),
        tuple(c.path for c in solution.channels),
        tuple(repr(c.log_rate) for c in solution.channels),
    )


networks = st.builds(
    _network,
    kind=st.sampled_from(["waxman", "watts_strogatz"]),
    seed=st.integers(0, 10_000),
    switches=st.integers(6, 12),
    users=st.integers(3, 5),
    qubits=st.integers(2, 4),
)


# ----------------------------------------------------------------------
# LP rounding: the Kruskal pass and repair loop it ran per attempt
# ----------------------------------------------------------------------
class _FrozenAttemptFailed(Exception):
    pass


def _frozen_kruskal_pass(network, users, relaxation, order, ledger):
    unions = UnionFind(users)
    chosen: List[Channel] = []
    for j in order:
        column = relaxation.columns[j]
        a, b = column.pair
        if unions.connected(a, b):
            continue
        if ledger.can_host(column.channel):
            ledger.reserve_channel(column.channel)
            unions.union(a, b)
            chosen.append(column.channel)
        if len(chosen) == len(users) - 1:
            break
    return chosen, unions


def _frozen_repair(network, users, chosen, unions, ledger) -> int:
    added = 0
    while unions.n_components > 1:
        best: Optional[Channel] = None
        for source in users:
            targets = [u for u in users if not unions.connected(source, u)]
            if not targets:
                continue
            found = best_channels_from(network, source, targets, ledger)
            for channel in found.values():
                if best is None or channel.log_rate > best.log_rate:
                    best = channel
        if best is None:
            raise _FrozenAttemptFailed("components cannot be reconnected")
        ledger.reserve_channel(best)
        unions.union(*best.endpoints)
        chosen.append(best)
        added += 1
    return added


def frozen_lp_rounding(
    network: QuantumNetwork, relaxation: LPRelaxationResult, rng: int
) -> Tuple[MUERPSolution, int]:
    """The rounding attempt loop, with its repair-channel count."""
    user_list = sorted(network.user_ids, key=repr)
    generator = ensure_rng(rng)
    if not relaxation.certificate.feasible or not relaxation.columns:
        return infeasible_solution(user_list, "lp_rounding"), 0
    weights = np.maximum(
        np.asarray(relaxation.values, dtype=float), _MASS_FLOOR
    )
    verifier = SolutionVerifier()
    ledger = CapacityLedger.from_network(network)
    best_solution: Optional[MUERPSolution] = None
    repairs = 0
    for attempt in range(DEFAULT_ATTEMPTS):
        order = _attempt_order(attempt, relaxation, weights, generator)
        try:
            with ledger.transaction():
                chosen, unions = _frozen_kruskal_pass(
                    network, user_list, relaxation, order, ledger
                )
                if unions.n_components > 1:
                    repairs += _frozen_repair(
                        network, user_list, chosen, unions, ledger
                    )
                candidate = MUERPSolution(
                    channels=tuple(chosen),
                    users=frozenset(user_list),
                    method="lp_rounding",
                )
                if verifier.audit(
                    network, candidate, users=user_list,
                    enforce_capacity=True,
                ):
                    raise _FrozenAttemptFailed("verifier rejected candidate")
                raise _FrozenAttemptFailed("unwind")
        except _FrozenAttemptFailed as failure:
            if str(failure) != "unwind":
                continue
        if best_solution is None or candidate.log_rate > best_solution.log_rate:
            best_solution = candidate
    if best_solution is None:
        return infeasible_solution(user_list, "lp_rounding"), repairs
    return best_solution, repairs


def _cut(relaxation: LPRelaxationResult, keep: float, seed: int):
    """*relaxation* with each column kept with probability *keep*."""
    mask = np.random.default_rng(seed).random(len(relaxation.columns)) < keep
    return dataclasses.replace(
        relaxation,
        columns=tuple(c for c, k in zip(relaxation.columns, mask) if k),
        values=tuple(v for v, k in zip(relaxation.values, mask) if k),
    )


def _compare_rounding(network, relaxation, seed) -> int:
    expected, repairs = frozen_lp_rounding(network, relaxation, seed)
    with obs_metrics.collecting() as metrics:
        actual = solve_lp_rounding(network, rng=seed, relaxation=relaxation)
    assert _digest(actual) == _digest(expected)
    counted = metrics.counters().get("bounds.rounding.repair_channels", 0)
    assert counted == repairs
    return repairs


@settings(max_examples=30, deadline=None)
@given(
    network=networks,
    keep=st.floats(0.1, 1.0),
    seed=st.integers(0, 10_000),
)
def test_rounding_matches_frozen_attempt_loop(network, keep, seed):
    relaxation = solve_relaxation(network, backend="simplex")
    _compare_rounding(network, _cut(relaxation, keep, seed), seed)


def test_cut_relaxations_exercise_repair():
    """The cut columns really drive the repair step, and it matches."""
    repairs = 0
    for seed in range(6):
        network = _network("waxman", seed, 8 + seed % 4, 4, 2 + seed % 3)
        relaxation = solve_relaxation(network, backend="simplex")
        repairs += _compare_rounding(network, _cut(relaxation, 0.3, seed), seed)
    assert repairs > 0


# ----------------------------------------------------------------------
# Local search: the climber with its own reconnect search
# ----------------------------------------------------------------------
def _frozen_residual_without(network, channels, skip_index):
    ledger = CapacityLedger.from_network(network)
    ledger.reserve_capped(
        channel_usage(c for i, c in enumerate(channels) if i != skip_index)
    )
    return ledger


def _frozen_best_replacement(network, channels, index, users, residual):
    remaining = [c for i, c in enumerate(channels) if i != index]
    unions = UnionFind(users)
    for channel in remaining:
        unions.union(*channel.endpoints)
    side_a = [
        u for u in users if unions.connected(u, channels[index].endpoints[0])
    ]
    side_b = [u for u in users if u not in set(side_a)]
    if not side_a or not side_b:
        return None
    best: Optional[Channel] = None
    for source in side_a:
        found = best_channels_from(network, source, side_b, residual)
        for candidate in found.values():
            if best is None or candidate.log_rate > best.log_rate:
                best = candidate
    return best


def frozen_improve_solution(
    network: QuantumNetwork,
    solution: MUERPSolution,
    max_rounds: int = 50,
    tolerance: float = 1e-12,
) -> MUERPSolution:
    if not solution.feasible or not solution.channels:
        return solution
    channels: List[Channel] = list(solution.channels)
    users: List[Hashable] = sorted(solution.users, key=repr)
    improved_any = False
    for _ in range(max_rounds):
        best_gain = tolerance
        move: Optional[Tuple[int, Channel]] = None
        for index, channel in enumerate(channels):
            residual = _frozen_residual_without(network, channels, index)
            replacement = _frozen_best_replacement(
                network, channels, index, users, residual
            )
            if replacement is None:
                continue
            gain = replacement.log_rate - channel.log_rate
            if gain > best_gain:
                best_gain = gain
                move = (index, replacement)
        if move is None:
            break
        channels[move[0]] = move[1]
        improved_any = True
    if not improved_any:
        return solution
    return MUERPSolution(
        channels=tuple(channels),
        users=solution.users,
        method=solution.method + "+ls",
        feasible=True,
        extra_log_rate=solution.extra_log_rate,
    )


@settings(max_examples=40, deadline=None)
@given(
    network=networks,
    method=st.sampled_from(["prim", "random_tree", "optimal"]),
    seed=st.integers(0, 10_000),
)
def test_local_search_matches_frozen_climber(network, method, seed):
    base = registry.solve(method, network, rng=seed)
    expected = frozen_improve_solution(network, base)
    assert _digest(improve_solution(network, base)) == _digest(expected)


# ----------------------------------------------------------------------
# Prim variants: one tree whatever the string hash seed
# ----------------------------------------------------------------------
#: Four users around a 4-qubit hub that hosts two of the tree's three
#: channels; the third goes through a roomy relay whose fibers differ in
#: length per user.  Every hub channel has the same rate, so the first
#: two rounds are ties and the tie decides which user takes the relay.
_HUB_SCRIPT = """
from repro.extensions.fidelity_aware import solve_fidelity_prim
from repro.extensions.purification import solve_purified_prim
from repro.network import NetworkBuilder, NetworkParams

builder = NetworkBuilder(NetworkParams(alpha=1e-4, swap_prob=0.9))
builder.switch("hub", (0, 0), qubits=4).switch("relay", (0, 0), qubits=8)
for i, relay_km in enumerate((1500, 1700, 1900, 2100)):
    user = f"u{i}"
    builder.user(user, (0, 0))
    builder.fiber(user, "hub", 1000).fiber(user, "relay", relay_km)
network = builder.build()
fidelity = solve_fidelity_prim(network, min_fidelity=0.8, start="u0")
purified, rounds = solve_purified_prim(network, min_fidelity=0.8, start="u0")
for solution in (fidelity, purified):
    print(solution.feasible, repr(solution.log_rate),
          [c.path for c in solution.channels])
print(sorted(rounds.items()))
"""


def test_prim_variants_ignore_hash_seed():
    src = str(Path(repro.__file__).resolve().parent.parent)
    outputs = set()
    for hash_seed in range(6):
        result = subprocess.run(
            [sys.executable, "-c", _HUB_SCRIPT],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hash_seed)),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.add(result.stdout)
    assert len(outputs) == 1, sorted(outputs)
