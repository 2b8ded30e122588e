"""Entanglement-tree validation as a list of readable issues.

:func:`validate_solution` is the string-report view of
:meth:`repro.verify.SolutionVerifier.audit`, the one checker of every
MUERP solution invariant (user set, path integrity, Eq. (1)/(2) rates,
``extra_log_rate ≤ 0``, spanning tree structure, switch capacity).
Used by tests, by the experiment runner (defence in depth: algorithms
must never emit an invalid tree) and exposed as a public API for
downstream users building their own solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.core.problem import MUERPSolution
from repro.network.graph import QuantumNetwork
from repro.verify.verifier import SolutionVerifier


@dataclass
class ValidationReport:
    """Outcome of validating a solution against a network."""

    issues: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, message: str) -> None:
        self.issues.append(message)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport:\n  " + "\n  ".join(self.issues)


def validate_solution(
    network: QuantumNetwork,
    solution: MUERPSolution,
    enforce_capacity: bool = True,
    rate_tolerance: float = 1e-9,
) -> ValidationReport:
    """Validate *solution* against *network*.

    One issue per :class:`~repro.verify.InvariantViolation` found by
    :meth:`SolutionVerifier.audit`, formatted ``"[code] message"``.
    Disable *enforce_capacity* for Algorithm 2, whose model assumes
    abundant capacity.  An infeasible solution with no channels
    validates trivially: it asserts nothing.
    """
    verifier = SolutionVerifier(
        rate_tolerance=rate_tolerance, enforce_capacity=enforce_capacity
    )
    return ValidationReport(
        [f"[{v.code}] {v}" for v in verifier.audit(network, solution)]
    )
