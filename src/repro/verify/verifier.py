"""Independent trust-but-verify checking of MUERP solutions.

Any solver (including third-party ones registered at runtime) can claim
a solution; :class:`SolutionVerifier` re-derives every invariant **from
the raw network graph**, never trusting the solver's own bookkeeping:

1. *Path integrity* — every channel path exists fiber-by-fiber, starts
   and ends at quantum users, and transits only switches.
2. *Rate honesty* — each channel's recorded ``log_rate`` matches an
   independent Eq. (1) recomputation ``-α·ΣL + (l-1)·ln q`` from the
   fiber lengths, the tree's claimed rate matches the Eq. (2)
   product of the recomputed channel rates, and ``extra_log_rate`` is
   a log-probability (``≤ 0``).
3. *Tree structure* — exactly ``|U| - 1`` channels, acyclic at the user
   level, spanning the full user set.
4. *Capacity* — per-switch qubit usage (2 per transit channel, Def. 3)
   never exceeds the switch budget ``Q_r`` read from the graph.
5. *User set* — the solution serves exactly the requested users.

This is the library's one definition of a valid tree;
:func:`repro.core.tree.validate_solution` is its string-report view.

Violations raise the typed exceptions of
:mod:`repro.verify.invariants`, each carrying a machine-readable diff.
A clean pass returns a :class:`VerificationCertificate` with the
recomputed quantities, so downstream layers can log *what* was checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.network.errors import UnknownNodeError
from repro.utils.unionfind import UnionFind
from repro.verify.invariants import (
    CapacityViolation,
    ChannelCountViolation,
    CycleViolation,
    InvariantViolation,
    PathViolation,
    RateViolation,
    SpanningViolation,
    UserSetViolation,
    VerificationError,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.problem import Channel, MUERPSolution
    from repro.network.graph import QuantumNetwork

#: Qubits a switch spends per transit channel (Def. 3 of the paper).
QUBITS_PER_TRANSIT = 2


@dataclass(frozen=True)
class VerificationCertificate:
    """Proof-of-verification: the independently recomputed quantities.

    Attributes:
        method: The solver name recorded on the solution.
        feasible: Whether the solution claims feasibility.
        n_channels: Number of channels in the tree.
        log_rate: Recomputed Eq. (2) log-rate (``-inf`` if infeasible).
        switch_usage: Recomputed per-switch qubit consumption.
        checks: Names of the invariant checks that ran and passed.
    """

    method: str
    feasible: bool
    n_channels: int
    log_rate: float
    switch_usage: Dict[Hashable, int] = field(default_factory=dict)
    checks: Tuple[str, ...] = ()

    @property
    def rate(self) -> float:
        """Recomputed entanglement rate in linear space."""
        if not self.feasible:
            return 0.0
        return math.exp(self.log_rate)


class SolutionVerifier:
    """Independent auditor for any solver's :class:`MUERPSolution`.

    Args:
        rate_tolerance: Relative/absolute tolerance for comparing the
            claimed log-rates against the Eq. 1/2 recomputation.
        enforce_capacity: Check per-switch usage against ``Q_r``.
            Disable for Algorithm 2, whose model assumes the
            sufficient-capacity condition ``Q_r ≥ 2|U|`` (Theorem 3).
    """

    def __init__(
        self,
        rate_tolerance: float = 1e-9,
        enforce_capacity: bool = True,
    ) -> None:
        self.rate_tolerance = rate_tolerance
        self.enforce_capacity = enforce_capacity

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def verify(
        self,
        network: "QuantumNetwork",
        solution: "MUERPSolution",
        users: Optional[Iterable[Hashable]] = None,
        enforce_capacity: Optional[bool] = None,
    ) -> VerificationCertificate:
        """Verify *solution* against *network*; raise on any violation.

        A single failed invariant raises its typed
        :class:`InvariantViolation`; several failures raise a
        :class:`VerificationError` aggregating them.  A clean pass
        returns the :class:`VerificationCertificate`.
        """
        violations, certificate = self._run(
            network, solution, users, enforce_capacity
        )
        if len(violations) == 1:
            raise violations[0]
        if violations:
            raise VerificationError(tuple(violations))
        return certificate

    def audit(
        self,
        network: "QuantumNetwork",
        solution: "MUERPSolution",
        users: Optional[Iterable[Hashable]] = None,
        enforce_capacity: Optional[bool] = None,
    ) -> Tuple[InvariantViolation, ...]:
        """Collect every violation without raising (empty = valid)."""
        violations, _ = self._run(network, solution, users, enforce_capacity)
        return tuple(violations)

    def is_valid(
        self,
        network: "QuantumNetwork",
        solution: "MUERPSolution",
        users: Optional[Iterable[Hashable]] = None,
    ) -> bool:
        """Convenience wrapper: ``True`` when no invariant is violated."""
        return not self.audit(network, solution, users)

    # ------------------------------------------------------------------
    # Invariant checks (all recomputed from the raw graph)
    # ------------------------------------------------------------------
    def _run(
        self,
        network: "QuantumNetwork",
        solution: "MUERPSolution",
        users: Optional[Iterable[Hashable]],
        enforce_capacity: Optional[bool],
    ) -> Tuple[List[InvariantViolation], VerificationCertificate]:
        check_capacity = (
            self.enforce_capacity
            if enforce_capacity is None
            else enforce_capacity
        )
        violations: List[InvariantViolation] = []
        checks: List[str] = []

        expected_users = (
            frozenset(users) if users is not None else solution.users
        )
        if solution.users != expected_users:
            violations.append(
                UserSetViolation(
                    "solution serves a different user set than requested",
                    subject="users",
                    expected=sorted(expected_users, key=repr),
                    actual=sorted(solution.users, key=repr),
                )
            )
        checks.append("user-set")

        if not solution.feasible:
            if solution.channels:
                violations.append(
                    ChannelCountViolation(
                        "an infeasible solution must carry no channels",
                        subject="tree",
                        expected=0,
                        actual=len(solution.channels),
                    )
                )
            certificate = VerificationCertificate(
                method=solution.method,
                feasible=False,
                n_channels=0,
                log_rate=-math.inf,
                checks=tuple(checks),
            )
            return violations, certificate

        recomputed_logs: List[float] = []
        usage: Dict[Hashable, int] = {}
        for channel in solution.channels:
            log_rate = self._check_channel(network, channel, violations)
            if log_rate is not None:
                recomputed_logs.append(log_rate)
            for switch in channel.switches:
                usage[switch] = usage.get(switch, 0) + QUBITS_PER_TRANSIT
        checks.extend(("path-integrity", "channel-rates"))

        self._check_tree_structure(solution, violations)
        checks.extend(("channel-count", "acyclicity", "spanning"))

        if check_capacity:
            self._check_capacity(network, usage, violations)
            checks.append("capacity")

        recomputed_tree = math.fsum(recomputed_logs)
        if solution.extra_log_rate > 0.0:
            violations.append(
                RateViolation(
                    "extra_log_rate is a log-probability and must be <= 0, "
                    f"got {solution.extra_log_rate}",
                    subject="tree",
                    expected="<= 0",
                    actual=solution.extra_log_rate,
                )
            )
        elif len(recomputed_logs) == len(solution.channels):
            claimed = solution.log_rate
            expected = recomputed_tree + solution.extra_log_rate
            if not math.isclose(
                expected,
                claimed,
                rel_tol=self.rate_tolerance,
                abs_tol=self.rate_tolerance,
            ):
                violations.append(
                    RateViolation(
                        f"claimed tree log-rate {claimed} != Eq. (2) "
                        f"recomputation {expected}",
                        subject="tree",
                        expected=expected,
                        actual=claimed,
                    )
                )
        checks.append("tree-rate")

        certificate = VerificationCertificate(
            method=solution.method,
            feasible=True,
            n_channels=len(solution.channels),
            log_rate=recomputed_tree + min(solution.extra_log_rate, 0.0),
            switch_usage=usage,
            checks=tuple(checks),
        )
        return violations, certificate

    def _check_channel(
        self,
        network: "QuantumNetwork",
        channel: "Channel",
        violations: List[InvariantViolation],
    ) -> Optional[float]:
        """Validate one channel path; return its recomputed log-rate.

        Returns ``None`` when the path itself is broken (no rate can be
        recomputed for a non-existent channel).
        """
        path = channel.path
        for endpoint in (path[0], path[-1]):
            if endpoint not in network or not network.is_user(endpoint):
                violations.append(
                    PathViolation(
                        f"channel endpoint {endpoint!r} is not a quantum "
                        "user of the network",
                        subject=path,
                        expected="quantum user",
                        actual=endpoint,
                    )
                )
                return None
        for node in path[1:-1]:
            if node not in network or not network.is_switch(node):
                violations.append(
                    PathViolation(
                        f"channel intermediate {node!r} is not a switch",
                        subject=path,
                        expected="quantum switch",
                        actual=node,
                    )
                )
                return None

        # Independent Eq. (1) recomputation straight from the fibers:
        # P_Λ = q^{l-1} · exp(-α ΣL)  ⇒  ln P_Λ = (l-1)·ln q - α·ΣL.
        lengths: List[float] = []
        for u, v in zip(path, path[1:]):
            fiber = network.fiber_between(u, v)
            if fiber is None:
                violations.append(
                    PathViolation(
                        f"no fiber between {u!r} and {v!r} on channel path",
                        subject=path,
                        expected="fiber",
                        actual=None,
                        detail=f"segment {u!r}-{v!r}",
                    )
                )
                return None
            lengths.append(fiber.length)

        alpha = network.params.alpha
        swap_prob = network.params.swap_prob
        n_swaps = len(lengths) - 1
        log_links = -alpha * math.fsum(lengths)
        if n_swaps == 0:
            expected = log_links
        elif swap_prob <= 0.0:
            expected = -math.inf
        else:
            expected = log_links + n_swaps * math.log(swap_prob)

        if not math.isclose(
            expected,
            channel.log_rate,
            rel_tol=self.rate_tolerance,
            abs_tol=self.rate_tolerance,
        ):
            violations.append(
                RateViolation(
                    f"channel {path} claims log-rate {channel.log_rate} "
                    f"but Eq. (1) recomputes {expected}",
                    subject=path,
                    expected=expected,
                    actual=channel.log_rate,
                )
            )
        return expected

    def _check_tree_structure(
        self,
        solution: "MUERPSolution",
        violations: List[InvariantViolation],
    ) -> None:
        users = solution.users
        if len(solution.channels) != len(users) - 1:
            violations.append(
                ChannelCountViolation(
                    f"a spanning tree over {len(users)} users needs "
                    f"{len(users) - 1} channels, got "
                    f"{len(solution.channels)}",
                    subject="tree",
                    expected=len(users) - 1,
                    actual=len(solution.channels),
                )
            )
        unions = UnionFind(users)
        foreign = False
        for channel in solution.channels:
            a, b = channel.endpoints
            if a not in users or b not in users:
                violations.append(
                    SpanningViolation(
                        f"channel endpoints {a!r}-{b!r} fall outside the "
                        "user set",
                        subject=channel.path,
                        expected=sorted(users, key=repr),
                        actual=(a, b),
                    )
                )
                foreign = True
                continue
            if not unions.union(a, b):
                violations.append(
                    CycleViolation(
                        f"channel {channel.path} closes a cycle in the "
                        "user-level tree",
                        subject=channel.path,
                        expected="acyclic",
                        actual="cycle",
                    )
                )
        if unions.n_components != 1 and not foreign:
            components = sorted(
                (sorted(g, key=repr) for g in unions.groups()), key=repr
            )
            violations.append(
                SpanningViolation(
                    f"channels leave the users in {unions.n_components} "
                    "components",
                    subject="tree",
                    expected=1,
                    actual=unions.n_components,
                    detail=f"components: {components!r}",
                )
            )

    def _check_capacity(
        self,
        network: "QuantumNetwork",
        usage: Dict[Hashable, int],
        violations: List[InvariantViolation],
    ) -> None:
        for switch in sorted(usage, key=repr):
            used = usage[switch]
            try:
                budget = network.qubits_of(switch)
            except UnknownNodeError:
                budget = None
            if budget is None:
                violations.append(
                    PathViolation(
                        f"transit node {switch!r} is not a switch",
                        subject=switch,
                        expected="quantum switch",
                        actual=switch,
                    )
                )
            elif used > budget:
                violations.append(
                    CapacityViolation(
                        f"switch {switch!r} uses {used} qubits, over its "
                        f"budget Q_r = {budget}",
                        subject=switch,
                        expected=budget,
                        actual=used,
                    )
                )


def verify_solution(
    network: "QuantumNetwork",
    solution: "MUERPSolution",
    users: Optional[Iterable[Hashable]] = None,
    enforce_capacity: bool = True,
    rate_tolerance: float = 1e-9,
) -> VerificationCertificate:
    """Functional one-shot form of :meth:`SolutionVerifier.verify`."""
    return SolutionVerifier(
        rate_tolerance=rate_tolerance, enforce_capacity=enforce_capacity
    ).verify(network, solution, users=users)
