"""Tests for the independent solution verifier.

The core scenario: a solver (possibly third-party) *claims* a solution;
the verifier must catch seeded corruptions — dropped channels, overbooked
switches, inflated rates — with the specific typed violation, and must
pass every legitimate solver output across topologies and seeds.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.problem import Channel, MUERPSolution
from repro.core.registry import solve
from repro.topology import TopologyConfig
from repro.topology.registry import generate
from repro.verify import (
    CapacityViolation,
    ChannelCountViolation,
    CycleViolation,
    PathViolation,
    RateViolation,
    SolutionVerifier,
    SpanningViolation,
    UserSetViolation,
    VerificationError,
    verify_solution,
)


@pytest.fixture
def verifier() -> SolutionVerifier:
    return SolutionVerifier()


def _solved(network, method="prim", rng=7):
    solution = solve(method, network, rng=rng)
    assert solution.feasible
    return solution


class TestCleanSolutionsPass:
    def test_star_solution_certificate(self, star_network, verifier):
        solution = _solved(star_network)
        certificate = verifier.verify(star_network, solution)
        assert certificate.feasible
        assert certificate.n_channels == 2
        assert math.isclose(
            certificate.log_rate, solution.log_rate, rel_tol=1e-9
        )
        assert certificate.switch_usage == {"hub": 4}
        assert "capacity" in certificate.checks
        assert "spanning" in certificate.checks

    def test_functional_form(self, line_network):
        solution = _solved(line_network)
        certificate = verify_solution(line_network, solution)
        assert certificate.feasible

    def test_is_valid(self, star_network, verifier):
        assert verifier.is_valid(star_network, _solved(star_network))

    def test_infeasible_claims_pass_with_no_channels(
        self, tight_star_network, verifier
    ):
        solution = solve("prim", tight_star_network, rng=7)
        assert not solution.feasible
        certificate = verifier.verify(tight_star_network, solution)
        assert not certificate.feasible
        assert certificate.rate == 0.0


class TestSeededCorruptions:
    """Each corruption of a genuine solution maps to its typed violation."""

    def test_dropped_channel_is_caught(self, star_network, verifier):
        solution = _solved(star_network)
        corrupted = dataclasses.replace(
            solution, channels=solution.channels[:-1]
        )
        violations = verifier.audit(star_network, corrupted)
        codes = {v.code for v in violations}
        assert "channel-count" in codes
        assert "spanning" in codes
        spanning = next(v for v in violations if v.code == "spanning")
        assert "components" in (spanning.detail or "")

    def test_overbooked_switch_is_caught(self, tight_star_network, verifier):
        # Hand-build the 3-user star tree the 2-qubit hub cannot host.
        hub_tree = MUERPSolution(
            channels=(
                Channel.from_path(
                    tight_star_network, ("alice", "hub", "bob")
                ),
                Channel.from_path(
                    tight_star_network, ("bob", "hub", "carol")
                ),
            ),
            users=frozenset({"alice", "bob", "carol"}),
            method="hand",
        )
        with pytest.raises(CapacityViolation) as excinfo:
            verifier.verify(tight_star_network, hub_tree)
        violation = excinfo.value
        assert violation.subject == "hub"
        assert violation.expected == 2  # Q_r
        assert violation.actual == 4  # 2 channels x 2 qubits
        diff = violation.to_dict()
        assert diff["code"] == "capacity"

    def test_inflated_rate_is_caught(self, star_network, verifier):
        solution = _solved(star_network)
        doctored = dataclasses.replace(
            solution,
            channels=(
                dataclasses.replace(
                    solution.channels[0],
                    log_rate=solution.channels[0].log_rate + 0.5,
                ),
            )
            + solution.channels[1:],
        )
        violations = verifier.audit(star_network, doctored)
        assert any(isinstance(v, RateViolation) for v in violations)
        rate_violation = next(
            v for v in violations if isinstance(v, RateViolation)
        )
        assert rate_violation.actual > rate_violation.expected

    def test_cycle_is_caught(self, star_network, verifier):
        solution = _solved(star_network)
        # Add the closing third edge of the user triangle.
        extra = Channel.from_path(star_network, ("alice", "hub", "carol"))
        cyclic = dataclasses.replace(
            solution, channels=solution.channels + (extra,)
        )
        violations = verifier.audit(star_network, cyclic)
        codes = {v.code for v in violations}
        assert "cycle" in codes
        assert "channel-count" in codes

    def test_phantom_fiber_is_caught(self, line_network, verifier):
        ghost = MUERPSolution(
            channels=(
                Channel(path=("alice", "s1", "bob"), log_rate=-0.1),
            ),
            users=frozenset({"alice", "bob"}),
            method="hand",
        )
        violations = verifier.audit(line_network, ghost)
        assert any(isinstance(v, PathViolation) for v in violations)
        path_violation = next(
            v for v in violations if isinstance(v, PathViolation)
        )
        assert "alice" in (path_violation.detail or "")

    def test_non_user_endpoint_is_caught(self, line_network, verifier):
        fake = MUERPSolution(
            channels=(Channel(path=("s0", "s1"), log_rate=-0.1),),
            users=frozenset({"alice", "bob"}),
            method="hand",
        )
        violations = verifier.audit(line_network, fake)
        assert any(isinstance(v, PathViolation) for v in violations)

    def test_unknown_transit_node_is_reported_not_raised(
        self, star_network, verifier
    ):
        solution = _solved(star_network)
        first = solution.channels[0]
        ghosted = dataclasses.replace(
            solution,
            channels=(
                Channel((first.path[0], "ghost", first.path[-1]), first.log_rate),
            )
            + solution.channels[1:],
        )
        violations = verifier.audit(star_network, ghosted)
        messages = [str(v) for v in violations]
        assert "channel intermediate 'ghost' is not a switch" in messages
        assert "transit node 'ghost' is not a switch" in messages
        assert {v.code for v in violations} == {"path"}

    def test_wrong_user_set_is_caught(self, star_network, verifier):
        solution = _solved(star_network)
        violations = verifier.audit(
            star_network, solution, users=["alice", "bob"]
        )
        assert any(isinstance(v, UserSetViolation) for v in violations)

    def test_infeasible_with_channels_is_caught(self, star_network, verifier):
        solution = _solved(star_network)
        lying = dataclasses.replace(solution, feasible=False)
        violations = verifier.audit(star_network, lying)
        assert any(isinstance(v, ChannelCountViolation) for v in violations)

    def test_positive_extra_log_rate_is_caught(self, star_network, verifier):
        solution = _solved(star_network)
        inflated = dataclasses.replace(solution, extra_log_rate=0.25)
        violations = verifier.audit(star_network, inflated)
        assert any(isinstance(v, RateViolation) for v in violations)

    def test_multiple_violations_aggregate(self, star_network, verifier):
        solution = _solved(star_network)
        broken = dataclasses.replace(
            solution,
            channels=(
                dataclasses.replace(
                    solution.channels[0],
                    log_rate=solution.channels[0].log_rate + 1.0,
                ),
            ),
        )
        with pytest.raises(VerificationError) as excinfo:
            verifier.verify(star_network, broken)
        nested = excinfo.value.to_dict()
        assert len(excinfo.value.violations) >= 2
        assert len(nested["violations"]) == len(excinfo.value.violations)

    def test_capacity_exemption_flag(self, tight_star_network):
        lenient = SolutionVerifier(enforce_capacity=False)
        hub_tree = MUERPSolution(
            channels=(
                Channel.from_path(
                    tight_star_network, ("alice", "hub", "bob")
                ),
                Channel.from_path(
                    tight_star_network, ("bob", "hub", "carol")
                ),
            ),
            users=frozenset({"alice", "bob", "carol"}),
            method="hand",
        )
        assert lenient.audit(tight_star_network, hub_tree) == ()
        strict = SolutionVerifier()
        assert strict.audit(
            tight_star_network, hub_tree, enforce_capacity=False
        ) == ()


SOLVERS_UNDER_TEST = ("optimal", "conflict_free", "prim", "exact")
TOPOLOGIES = ("waxman", "watts_strogatz", "erdos_renyi")
SEEDS = (1, 2, 3, 4, 5)


class TestAllSolversAcrossTopologies:
    """Every registered core solver verifies cleanly on random networks."""

    @pytest.mark.parametrize("topology", TOPOLOGIES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_solver_outputs_verify(self, topology, seed):
        config = TopologyConfig(
            n_switches=9, n_users=3, avg_degree=3.0, qubits_per_switch=4
        )
        network = generate(topology, config, rng=seed)
        verifier = SolutionVerifier()
        for method in SOLVERS_UNDER_TEST:
            try:
                solution = solve(method, network, rng=seed)
            except RuntimeError:
                # The exact solver refuses instances whose path count
                # exceeds its brute-force guard rail; the polynomial
                # algorithms still cover this (topology, seed) cell.
                assert method == "exact"
                continue
            if not solution.feasible:
                assert verifier.audit(network, solution) == ()
                continue
            certificate = verifier.verify(
                network,
                solution,
                enforce_capacity=method not in ("optimal", "alg2"),
            )
            assert certificate.n_channels == len(solution.users) - 1
            assert math.isclose(
                certificate.log_rate,
                solution.log_rate,
                rel_tol=1e-9,
                abs_tol=1e-9,
            )
