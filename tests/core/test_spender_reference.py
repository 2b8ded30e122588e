"""Pin the outputs of every solver that spends switch qubits.

Each solver here keeps a free-qubit account while it builds a tree or a
channel list.  The perfbench ``plan`` digests cover the paper's three
algorithms and two baselines at the paper's default capacity, where
qubits rarely run out.  This module covers the other spenders on small
seeded Waxman networks with ``Q`` of 2 to 4 qubits per switch, so that
capacity binds and a wrong account changes a route.

Every output is reduced to canonical text lines (``repr`` of every
float, so a one-bit change shows) and hashed per solver; a failure names
the solver whose output moved.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.bounds.lp import solve_relaxation
from repro.bounds.rounding import solve_lp_rounding
from repro.core import registry
from repro.core.exact import solve_exact
from repro.core.kbest import k_best_channels
from repro.core.ledger import CapacityLedger
from repro.core.localsearch import improve_solution
from repro.core.problem import MUERPSolution
from repro.extensions.fidelity_aware import solve_fidelity_prim
from repro.extensions.purification import solve_purified_prim
from repro.extensions.redundancy import add_redundancy
from repro.network.graph import QuantumNetwork
from repro.topology import TopologyConfig, waxman_network

#: (seed, switches, users, qubits per switch) of the twelve networks.
NETWORKS = [
    (seed, 8 + seed % 5, 3 + seed % 3, 2 + seed % 3) for seed in range(12)
]


def _networks() -> Iterator[Tuple[int, QuantumNetwork]]:
    for seed, switches, users, qubits in NETWORKS:
        config = TopologyConfig(
            n_switches=switches,
            n_users=users,
            avg_degree=4.0,
            qubits_per_switch=qubits,
        )
        network = waxman_network(config, rng=seed)
        # Users must reach each other through switches.
        for fiber in network.fibers:
            if network.is_user(fiber.u) and network.is_user(fiber.v):
                network.remove_fiber(fiber.u, fiber.v)
        yield seed, network


def _solution(solution: MUERPSolution) -> str:
    paths = ";".join(repr(c.path) for c in solution.channels)
    return (
        f"{solution.method}|{solution.feasible}|{solution.log_rate!r}|"
        f"{solution.extra_log_rate!r}|{paths}"
    )


def _solved(*methods: str) -> Callable[[QuantumNetwork, int], List[str]]:
    def lines(network, seed) -> List[str]:
        return [
            _solution(registry.solve(method, network, rng=seed))
            for method in methods
        ]

    return lines


def _exact(network, seed) -> List[str]:
    return [_solution(solve_exact(network, max_paths_per_pair=2000))]


def _improve(network, seed) -> List[str]:
    return [
        _solution(
            improve_solution(network, registry.solve(method, network, rng=seed))
        )
        for method in ("prim", "random_tree", "optimal")
    ]


def _kbest(network, seed) -> List[str]:
    """Yen's k-best on a residual with a Prim tree already reserved."""
    users = network.user_ids
    ledger = CapacityLedger.from_network(network)
    tree = registry.solve("prim", network, rng=seed)
    if tree.feasible:
        ledger.reserve(tree.switch_usage())
    lines = []
    for residual in (None, ledger):
        for a, b in zip(users, users[1:]):
            channels = k_best_channels(network, a, b, 4, residual)
            lines.append(
                ";".join(f"{c.path!r}={c.log_rate!r}" for c in channels)
            )
    return lines


def _redundancy(network, seed) -> List[str]:
    lines = []
    for method in ("prim", "conflict_free", "optimal"):
        base = registry.solve(method, network, rng=seed)
        if not base.feasible:
            lines.append("infeasible")
            continue
        for cap in (None, 2):
            tree = add_redundancy(network, base, max_backups=cap)
            groups = ";".join(
                ",".join(repr(c.path) for c in group)
                for group in tree.groups
            )
            lines.append(f"{tree.n_backups}|{tree.log_rate!r}|{groups}")
    return lines


def _purified(network, seed) -> List[str]:
    lines = []
    for floor in (0.0, 0.9, 0.95):
        solution, rounds = solve_purified_prim(
            network, min_fidelity=floor, rng=seed
        )
        lines.append(f"{_solution(solution)}|{sorted(rounds.items())!r}")
    return lines


def _fidelity(network, seed) -> List[str]:
    return [
        _solution(solve_fidelity_prim(network, min_fidelity=floor, rng=seed))
        for floor in (0.0, 0.85, 0.9)
    ]


def _lp(network, seed) -> List[str]:
    lines = []
    for capacitated in (True, False):
        relaxation = solve_relaxation(
            network, backend="simplex", capacitated=capacitated
        )
        cert = relaxation.certificate
        lines.append(
            f"{capacitated}|{cert.log_bound!r}|{cert.objective!r}|"
            f"{cert.pricing_slack!r}|{cert.feasible}|{cert.dual_feasible}|"
            f"{cert.rounds}|{cert.pivots}|{cert.n_columns}|"
            f"{sorted(cert.switch_duals.items())!r}|"
            f"{[repr(v) for v in relaxation.values]}"
        )
        if capacitated:
            lines.append(
                _solution(
                    solve_lp_rounding(
                        network, rng=seed, backend="simplex",
                        relaxation=relaxation,
                    )
                )
            )
    return lines


SPENDERS: Dict[str, Callable[[QuantumNetwork, int], List[str]]] = {
    "random_tree": _solved("random_tree"),
    "steiner_naive": _solved("steiner_naive"),
    "exact": _exact,
    "improve_solution": _improve,
    "k_best_channels": _kbest,
    "add_redundancy": _redundancy,
    "solve_purified_prim": _purified,
    "solve_fidelity_prim": _fidelity,
    "lp_rounding": _lp,
    "plan_methods": _solved("optimal", "eqcast", "nfusion", "prim"),
}

EXPECTED = {
    "random_tree": (
        "84a756222d74c1d7fe8ea1d4aab81af13940c66bd582ea30349574ffc9554947"
    ),
    "steiner_naive": (
        "f30bc2cefb861a7e28c6ff6be8a3118bb829f16ef0f0cd81ddf514067ab69fa9"
    ),
    "exact": (
        "0ce1dd7f67b2d6bbad98ec8eead3dbc3f8a4a65ae62c632b4e89b6d64657d535"
    ),
    "improve_solution": (
        "96e82f853550829ddb8b802b0b3f4ca4cd2d0cdac865f7e8bcfde3cb32588d33"
    ),
    "k_best_channels": (
        "ffb500f2330ba39180a9f03e5702327be5cf390627d88abd80678bdd370600aa"
    ),
    "add_redundancy": (
        "2b4f3dd9f4950e13b496342445c6d21e0ab23d55aeaf0b3f1c41f28e7707e21a"
    ),
    "solve_purified_prim": (
        "9763984f7461a88c545b462c9670357fdd47a05e728299fa40ef72666e58a28d"
    ),
    "solve_fidelity_prim": (
        "91df18bfcd39c9cd36b0dae07439c281f607453007b3473eb0d22feafabea8c7"
    ),
    "lp_rounding": (
        "f2e4149ec28a6b38d41d21006a912e1fa9ff544c5bbb30bd4e46eaeecdf78995"
    ),
    "plan_methods": (
        "f28b19202c2c2a93e01f1b234b2761130999a7257d2cc6dfaaeb585f73825934"
    ),
}


def spender_digest(name: str) -> str:
    digest = hashlib.sha256()
    for seed, network in _networks():
        for line in SPENDERS[name](network, seed):
            digest.update(f"{seed}|{line}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(SPENDERS))
def test_spender_output_is_pinned(name):
    assert spender_digest(name) == EXPECTED[name]
