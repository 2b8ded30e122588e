"""Property test: ``validate_solution`` and ``SolutionVerifier`` agree.

The library has one definition of a valid MUERP tree.  Hypothesis
drives every registered solver over random Waxman networks, applies
each seeded mutation of :data:`MUTATIONS` to the result in turn, and
checks that:

* ``validate_solution(...).ok`` equals ``SolutionVerifier.is_valid``
  (Algorithm 2 is checked without capacity, as everywhere else);
* ``audit`` never raises, whatever the corruption;
* each corruption is rejected with its expected violation ``code``,
  and the structure-preserving one (a reversed channel) is accepted.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines  # noqa: F401 - registers baseline solvers
from repro.core.problem import Channel
from repro.core.registry import CAPACITY_EXEMPT_METHODS, SOLVERS, solve
from repro.core.tree import validate_solution
from repro.topology import TopologyConfig, waxman_network
from repro.verify import SolutionVerifier

#: Mutation name -> the violation code it must raise (None: stays valid).
MUTATIONS = {
    "none": None,
    "drop_channel": "channel-count",
    "duplicate_channel": "channel-count",
    "perturb_rate": "rate",
    "positive_extra_log_rate": "rate",
    "foreign_user": "spanning",
    "ghost_intermediate": "path",
    "reversed_path": None,
}


def _replace_channel(solution, index, channel):
    channels = list(solution.channels)
    channels[index] = channel
    return dataclasses.replace(solution, channels=tuple(channels))


def _mutate(solution, mutation):
    """*solution* with one seeded corruption (None when inapplicable)."""
    if mutation == "none":
        return solution
    if not solution.feasible or not solution.channels:
        return None
    first = solution.channels[0]
    if mutation == "drop_channel":
        return dataclasses.replace(solution, channels=solution.channels[1:])
    if mutation == "duplicate_channel":
        return dataclasses.replace(
            solution, channels=solution.channels + (first,)
        )
    if mutation == "perturb_rate":
        return _replace_channel(
            solution, 0, Channel(first.path, first.log_rate - 0.5)
        )
    if mutation == "positive_extra_log_rate":
        return dataclasses.replace(solution, extra_log_rate=0.3)
    if mutation == "foreign_user":
        return dataclasses.replace(
            solution, users=solution.users | {"stranger"}
        )
    if mutation == "reversed_path":
        return _replace_channel(solution, 0, first.reversed())
    # ghost_intermediate: a transit node that does not exist at all.
    for index, channel in enumerate(solution.channels):
        if channel.switches:
            path = (channel.path[0], "ghost") + channel.path[2:]
            return _replace_channel(
                solution, index, Channel(path, channel.log_rate)
            )
    return None


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 50_000),
    qubits=st.sampled_from([2, 4]),
    method=st.sampled_from(sorted(SOLVERS)),
)
def test_validate_solution_agrees_with_verifier(seed, qubits, method):
    config = TopologyConfig(
        n_switches=12, n_users=4, avg_degree=3.0, qubits_per_switch=qubits
    )
    network = waxman_network(config, rng=seed)
    solved = solve(method, network, rng=seed)
    enforce = method not in CAPACITY_EXEMPT_METHODS
    verifier = SolutionVerifier(enforce_capacity=enforce)
    for mutation, expected in MUTATIONS.items():
        solution = _mutate(solved, mutation)
        if solution is None:
            continue
        codes = {v.code for v in verifier.audit(network, solution)}
        report = validate_solution(network, solution, enforce_capacity=enforce)
        assert report.ok == verifier.is_valid(network, solution), mutation
        if expected is None:
            assert not codes, f"{method} {mutation}: {codes}"
        else:
            assert expected in codes, f"{method} {mutation}: {codes}"
