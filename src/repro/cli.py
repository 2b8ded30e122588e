"""Command-line interface.

Examples::

    repro list
    repro solve --topology waxman --method conflict_free --seed 42
    repro experiment fig5 --networks 5 --seed 7
    repro experiment headline --networks 3 --checkpoint out.jsonl --resume

Exit codes are distinct per failure class so scripts can branch on
them: ``0`` success, ``1`` generic failure, ``2`` invalid input
(:class:`~repro.utils.validation.ValidationError` / bad arguments),
``3`` solver failure (unknown solver, solver crash or timeout), ``4``
verification failure (a produced solution violated a MUERP invariant,
or a safety gate failed: an overbooked switch, an unattributed request
or a failed ``--verify-determinism`` check).  :func:`_safety_gate` and
:func:`_determinism_gate` are the only places that print those gates'
lines, so every gated subcommand reports them the same way.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.ascii_plot import log_bar_chart
from repro.core.registry import (
    CAPACITY_EXEMPT_METHODS,
    SOLVERS,
    SolveTimeout,
    UnknownSolverError,
    solve,
    solve_robust,
)
from repro.core.tree import validate_solution
from repro.experiments.catalog import EXPERIMENTS, run_named
from repro.experiments.config import ExperimentConfig
from repro.topology.base import TopologyConfig
from repro.topology.registry import GENERATORS, generate
from repro.utils.validation import ValidationError

#: Process exit codes, one per failure class (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_VALIDATION_ERROR = 2
EXIT_SOLVER_ERROR = 3
EXIT_VERIFICATION_ERROR = 4
#: Conventional 128+SIGINT: the run was interrupted; progress report
#: (including unflushed trials) was printed before exiting.
EXIT_INTERRUPTED = 130


def _add_obs_args(
    parser: argparse.ArgumentParser, suppress: bool = False
) -> None:
    """The ``--metrics``/``--metrics-format``/``--trace`` flags.

    The top-level parser carries them with real defaults; every
    subcommand gets a copy with ``suppress=True`` (``argparse.SUPPRESS``
    defaults) so ``repro --metrics m.json solve`` and ``repro solve
    --metrics m.json`` both work, with the subcommand position winning.
    """

    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=default(None),
        help="write solver/runtime metrics to FILE after the command",
    )
    parser.add_argument(
        "--metrics-format",
        choices=("json", "prom"),
        default=default("json"),
        help="metrics file format (default json; prom = Prometheus text)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=default(None),
        help="write spans as JSONL to FILE after the command",
    )


#: Topology flags: argparse dest -> (type, :class:`TopologyConfig` field).
_TOPOLOGY_FLAGS = {
    "switches": (int, "n_switches"),
    "users": (int, "n_users"),
    "degree": (float, "avg_degree"),
    "qubits": (int, "qubits_per_switch"),
    "swap_prob": (float, "swap_prob"),
}


#: Every topology flag at the paper's defaults (``solve``, ``bounds``).
_PAPER_TOPOLOGY = dict(
    switches=50, users=10, degree=6.0, qubits=4, swap_prob=0.9
)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be >= 1 (exit 2 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_topology_args(parser: argparse.ArgumentParser, **defaults) -> None:
    """``--topology``, ``--seed`` and the topology flags named in ``defaults``.

    ``switches=40`` adds ``--switches`` with default 40.  A flag left
    out is not added at all, so each subcommand keeps exactly the
    options it has always had, and :func:`_network` leaves the missing
    fields at their :class:`TopologyConfig` defaults.
    """
    parser.add_argument("--topology", default="waxman")
    parser.add_argument("--seed", type=int, default=7)
    for dest, default in defaults.items():
        parser.add_argument(
            "--" + dest.replace("_", "-"),
            type=_TOPOLOGY_FLAGS[dest][0],
            default=default,
        )


def _network(args: argparse.Namespace):
    """Generate the network that the topology flags in ``args`` describe."""
    config = TopologyConfig(
        **{
            field: getattr(args, dest)
            for dest, (_, field) in _TOPOLOGY_FLAGS.items()
            if hasattr(args, dest)
        }
    )
    return generate(args.topology, config, rng=args.seed)


def _add_serving_args(
    parser: argparse.ArgumentParser, switches: int, users: int
) -> None:
    """Topology flags plus ``--method`` for the online serving demos."""
    _add_topology_args(parser, switches=switches, users=users, qubits=4)
    parser.add_argument(
        "--method", default="prim", choices=("prim", "conflict_free")
    )


def _add_workload_args(
    parser: argparse.ArgumentParser, horizon: int, arrival_rate: float
) -> None:
    """Arrival horizon and rate of the serving demos' workload."""
    parser.add_argument(
        "--horizon", type=int, default=horizon, help="arrival horizon (slots)"
    )
    parser.add_argument(
        "--arrival-rate",
        type=float,
        default=arrival_rate,
        help="mean requests per slot (raise it to overload the network)",
    )


def _add_admission_args(
    parser: argparse.ArgumentParser, tenants: int, queue_size: int
) -> None:
    """Tenants, patience and per-tenant admission limits."""
    parser.add_argument(
        "--tenants",
        type=int,
        default=tenants,
        help="tenant labels for per-tenant limits (0 = untenanted)",
    )
    parser.add_argument(
        "--max-wait", type=int, default=5, help="blocked-request patience"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=1.0,
        help="token-bucket refill per tenant per slot",
    )
    parser.add_argument(
        "--burst", type=float, default=4.0, help="token-bucket capacity"
    )
    parser.add_argument(
        "--bulkhead",
        type=int,
        default=32,
        help="max in-system requests per tenant",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=queue_size,
        help="admission queue bound",
    )


#: The subcommands with ``--verify-determinism`` (checked by
#: :func:`_determinism_gate`), and what each re-runs for the check.
_DETERMINISM_RERUNS = {
    "exec": "the sweep serially (1 worker, no cache)",
    "resilience": "the scenario",
    "admit": "the scenario",
    "incremental": "the incremental replay",
    "serve": "the scenario",
    "bounds": "the relaxation and the rounding solver",
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-user entanglement routing over quantum internets "
            "(ICDCS 2024 reproduction)"
        ),
    )
    _add_obs_args(parser)
    obs_parent = argparse.ArgumentParser(add_help=False)
    _add_obs_args(obs_parent, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=summary, parents=[obs_parent])

    command("list", "list solvers, topologies and experiments")

    solve_parser = command("solve", "generate one network and route it")
    _add_topology_args(solve_parser, **_PAPER_TOPOLOGY)
    solve_parser.add_argument("--method", default="conflict_free")
    solve_parser.add_argument(
        "--show-channels", action="store_true", help="print channel paths"
    )
    solve_parser.add_argument(
        "--robust",
        action="store_true",
        help=(
            "solve through the verified fallback chain "
            "(watchdog + independent verifier) and print the audit"
        ),
    )
    solve_parser.add_argument(
        "--fallback",
        action="append",
        default=None,
        metavar="METHOD",
        help="extra solver tried when --method fails (repeatable; "
        "implies --robust semantics only when --robust is given)",
    )

    obs_parser = command(
        "obs", "run an instrumented demo solve and print its metrics"
    )
    _add_topology_args(obs_parser, switches=40, users=8, degree=6.0, qubits=4)
    obs_parser.add_argument("--method", default="conflict_free")
    obs_parser.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="stdout format for the metric snapshot",
    )

    experiment_parser = command(
        "experiment", "run a named experiment (fig5, fig6a, …)"
    )
    experiment_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment_parser.add_argument(
        "--networks", type=int, default=20, help="random networks per point"
    )
    experiment_parser.add_argument("--seed", type=int, default=7)
    experiment_parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a Markdown section instead of a text table",
    )
    experiment_parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        default=None,
        help="JSONL file receiving one atomic record per finished trial",
    )
    experiment_parser.add_argument(
        "--resume",
        action="store_true",
        help="skip trials already recorded in --checkpoint "
        "(losslessly continues a killed run)",
    )
    experiment_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        metavar="N",
        help="shard trials over N processes via the execution engine "
        "(results are byte-identical for every N; N=1 runs the "
        "engine's serial backend with channel caching on)",
    )
    experiment_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the channel-computation cache inside the engine "
        "(only meaningful with --workers)",
    )

    exec_parser = command(
        "exec",
        "run a named experiment through the parallel execution "
        "engine and report shard/cache statistics",
    )
    exec_parser.add_argument("name", choices=sorted(EXPERIMENTS))
    exec_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="worker processes (1 = in-process serial backend)",
    )
    exec_parser.add_argument(
        "--networks", type=int, default=20, help="random networks per point"
    )
    exec_parser.add_argument("--seed", type=int, default=7)
    exec_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the channel-computation cache",
    )
    exec_parser.add_argument(
        "--cache-size",
        type=_positive_int,
        default=4096,
        metavar="N",
        help="LRU bound on cached channel searches (per process)",
    )
    exec_parser.add_argument(
        "--chaos",
        action="store_true",
        help="chaos soak: deterministically inject worker kills, hangs "
        "and checkpoint truncation mid-sweep and let the shard "
        "supervisor recover (requires --workers >= 2)",
    )
    for flag, default, what in (
        ("kills", 3, "worker-kill budget"),
        ("hangs", 1, "worker-hang budget"),
        ("truncations", 1, "shard-checkpoint truncation budget"),
        ("seed", 0, "shuffle seed for the chaos action order"),
    ):
        exec_parser.add_argument(
            f"--chaos-{flag}",
            type=int,
            default=default,
            metavar="N",
            help=f"{what} for --chaos (default {default})",
        )
    exec_parser.add_argument(
        "--hang-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="supervisor hang watchdog: recycle the pool when a shard "
        "makes no progress for this long (default 120; 2 under --chaos)",
    )

    stats_parser = command(
        "stats", "generate one network and print its topology stats"
    )
    _add_topology_args(stats_parser, switches=50, users=10, degree=6.0)

    montecarlo_parser = command(
        "montecarlo", "validate a routed tree's rate by simulation"
    )
    _add_topology_args(montecarlo_parser, switches=50, users=10)
    montecarlo_parser.add_argument("--method", default="conflict_free")
    montecarlo_parser.add_argument("--trials", type=int, default=100_000)

    resilience_parser = command(
        "resilience",
        "run a chaos scenario: online service under injected faults",
    )
    _add_serving_args(resilience_parser, switches=40, users=10)
    resilience_parser.add_argument(
        "--faults", type=int, default=10, help="fault events to inject"
    )
    _add_workload_args(resilience_parser, horizon=40, arrival_rate=0.6)
    resilience_parser.add_argument(
        "--retry",
        default="backoff",
        choices=("none", "fixed", "backoff"),
        help="retry policy pacing blocked requests",
    )
    resilience_parser.add_argument(
        "--no-degradation",
        action="store_true",
        help="abandon faulted requests instead of serving user subsets",
    )

    admit_parser = command(
        "admit", "overload demo: online serving behind admission control"
    )
    _add_serving_args(admit_parser, switches=40, users=10)
    _add_workload_args(admit_parser, horizon=40, arrival_rate=3.0)
    _add_admission_args(admit_parser, tenants=3, queue_size=8)
    admit_parser.add_argument(
        "--shed-policy",
        default="drop-newest",
        choices=(
            "drop-newest",
            "drop-oldest",
            "deadline-aware",
            "lowest-rate-first",
        ),
        help="victim selection when the admission queue is full",
    )
    admit_parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the no-admission comparison run",
    )

    incremental_parser = command(
        "incremental",
        "delta-aware routing demo: replay a churn stream "
        "incrementally and against the from-scratch reference",
    )
    _add_serving_args(incremental_parser, switches=40, users=8)
    incremental_parser.add_argument(
        "--events", type=int, default=60, help="churn events to generate"
    )
    incremental_parser.add_argument(
        "--fault-mix",
        default="0.5,0.2,0.3",
        help=(
            "comma-separated weights over fiber, switch, capacity "
            "event families (default 0.5,0.2,0.3)"
        ),
    )
    incremental_parser.add_argument(
        "--radius",
        type=int,
        default=2,
        help="fiber-hop radius of the splice search region",
    )

    serve_parser = command(
        "serve",
        "multi-tenant demo: SLO-guarded serving with k-redundant "
        "trees, weighted-fair shedding and chaos faults",
    )
    _add_serving_args(serve_parser, switches=25, users=10)
    _add_workload_args(serve_parser, horizon=48, arrival_rate=2.0)
    serve_parser.add_argument(
        "--tenant-skew",
        type=float,
        default=1.1,
        help="Zipf exponent over tenant popularity (0 = uniform)",
    )
    serve_parser.add_argument(
        "--diurnal-amplitude",
        type=float,
        default=0.5,
        help="sinusoidal load swing in [0, 1] (0 = flat rate)",
    )
    serve_parser.add_argument(
        "--diurnal-period",
        type=int,
        default=24,
        help="slots per diurnal cycle",
    )
    serve_parser.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="trees reserved per admitted group (k-redundancy; 1 = off)",
    )
    serve_parser.add_argument(
        "--faults",
        type=int,
        default=12,
        help="chaos faults injected over the horizon (0 = no chaos)",
    )
    _add_admission_args(serve_parser, tenants=4, queue_size=16)
    serve_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full serving summary as JSON instead of the table",
    )

    bounds_parser = command(
        "bounds",
        "certify one network: LP relaxation bound, per-method "
        "optimality gaps and the rounding-based solver",
    )
    _add_topology_args(bounds_parser, **_PAPER_TOPOLOGY)
    bounds_parser.add_argument(
        "--backend",
        choices=("auto", "simplex", "scipy"),
        default="auto",
        help="LP backend (auto prefers scipy when installed)",
    )
    bounds_parser.add_argument(
        "--method",
        action="append",
        default=None,
        metavar="METHOD",
        help="solver to gap against the bound (repeatable; default "
        "conflict_free, prim, lp_rounding)",
    )
    bounds_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the certificate and gaps as JSON instead of a table",
    )

    for name, rerun in _DETERMINISM_RERUNS.items():
        sub.choices[name].add_argument(
            "--verify-determinism",
            action="store_true",
            help=f"re-run {rerun} and fail (exit 4) unless the results "
            "are byte-identical",
        )
    return parser


def _determinism_gate(first, rerun, canonical, ok: str, failed: str) -> int:
    """The ``--verify-determinism`` check every gated subcommand shares.

    Calls ``rerun()`` for a second result and compares ``canonical`` of
    it with ``canonical(first)``.  Prints ``determinism check: ok
    (<ok>)`` and returns ``EXIT_OK`` when they are equal; otherwise
    prints ``determinism check: FAILED (<failed>)`` and returns
    ``EXIT_VERIFICATION_ERROR``.
    """
    if canonical(rerun()) == canonical(first):
        status, code = f"ok ({ok})", EXIT_OK
    else:
        status, code = f"FAILED ({failed})", EXIT_VERIFICATION_ERROR
    print(f"determinism check: {status}")
    return code


def _safety_gate(result, network) -> int:
    """The serving safety gates of ``resilience``, ``admit`` and ``serve``.

    ``result`` is an :class:`~repro.sim.online.OnlineResult` or a
    :class:`~repro.tenancy.serving.TenantServingResult`, which both
    decide overbooking and attribution through ``OnlineResult``.
    Prints the ``capacity overbooked:`` and ``unattributed requests:``
    lines and returns ``EXIT_VERIFICATION_ERROR`` if either gate fails.
    """
    overbooked = result.overbooked_switches(network)
    unattributed = result.unattributed()
    print(
        "capacity overbooked: "
        f"{'YES ' + repr(overbooked) if overbooked else 'no'}"
    )
    print(
        "unattributed requests: "
        f"{'YES ' + repr(unattributed) if unattributed else 'none'}"
    )
    if overbooked or unattributed:
        return EXIT_VERIFICATION_ERROR
    return EXIT_OK


def _command_list(args: argparse.Namespace) -> int:
    print("solvers:     ", ", ".join(sorted(SOLVERS)))
    print("topologies:  ", ", ".join(sorted(GENERATORS)))
    print("experiments: ", ", ".join(sorted(EXPERIMENTS)))
    return EXIT_OK


def _command_solve(args: argparse.Namespace) -> int:
    network = _network(args)
    if args.robust:
        chain = (args.method,) + tuple(
            m for m in (args.fallback or ()) if m != args.method
        )
        result = solve_robust(
            network, rng=args.seed, chain=chain, timeout_s=60.0
        )
        solution, report = result.solution, result.audit.render()
        ok = result.audit.succeeded or not any(
            a.status == "invalid" for a in result.audit.attempts
        )
    else:
        solution = solve(args.method, network, rng=args.seed)
        report = validate_solution(
            network,
            solution,
            enforce_capacity=args.method not in CAPACITY_EXEMPT_METHODS,
        )
        ok = report.ok
    print(network)
    print(solution)
    # The robust audit always prints; a plain solve's report only when
    # the verifier rejected the tree.
    if args.robust or not ok:
        print(report)
    if not ok:
        return EXIT_VERIFICATION_ERROR
    if solution.feasible and args.show_channels:
        for channel in solution.channels:
            print(f"  {channel}")
    return EXIT_OK


def _command_obs(args: argparse.Namespace) -> int:
    """Instrumented demo: robust-solve one network, print the metrics.

    The metric snapshot goes to stdout (pipe it straight into a file or
    a scrape target); the network/solution summary goes to stderr.
    """
    import json

    import repro.obs as obs

    network = _network(args)
    result = solve_robust(
        network, rng=args.seed, chain=(args.method,), timeout_s=60.0
    )
    print(network, file=sys.stderr)
    print(result.solution, file=sys.stderr)
    registry = obs.active()
    if registry is None:  # pragma: no cover - main() always enables here
        print("metrics collection inactive", file=sys.stderr)
        return EXIT_FAILURE
    if args.format == "prom":
        print(obs.render_prometheus(registry), end="")
    else:
        print(json.dumps(registry.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _command_stats(args: argparse.Namespace) -> int:
    from repro.network.statistics import degree_histogram, topology_stats

    network = _network(args)
    stats = topology_stats(network)
    print(network)
    print(stats.describe())
    print("degree histogram:")
    for degree, count in sorted(degree_histogram(network).items()):
        print(f"  {degree:3d}: {'#' * count} ({count})")
    return EXIT_OK


def _command_montecarlo(args: argparse.Namespace) -> int:
    from repro.sim.protocol import simulate_solution

    network = _network(args)
    solution = solve(args.method, network, rng=args.seed)
    print(network)
    print(solution)
    if not solution.feasible:
        print("infeasible; nothing to simulate")
        return EXIT_FAILURE
    result = simulate_solution(
        network, solution, trials=args.trials, rng=args.seed
    )
    low, high = result.confidence_interval()
    print(
        f"analytic rate (Eq.2): {result.analytic_rate:.6e}\n"
        f"empirical rate:       {result.empirical_rate:.6e} "
        f"(95% CI [{low:.3e}, {high:.3e}], {args.trials} trials)\n"
        f"consistent:           {'yes' if result.consistent else 'NO'}"
    )
    return EXIT_OK if result.consistent else EXIT_FAILURE


def _command_resilience(args: argparse.Namespace) -> int:
    from repro.resilience import (
        ExponentialBackoffPolicy,
        FaultInjector,
        FixedRetryPolicy,
        random_schedule,
    )
    from repro.sim.online import OnlineScheduler
    from repro.sim.workload import WorkloadSpec, generate_workload

    network = _network(args)
    spec = WorkloadSpec(
        arrival_rate=args.arrival_rate,
        horizon=args.horizon,
        mean_hold=6.0,
        max_wait=5,
    )

    def one_run():
        requests = generate_workload(
            network.user_ids, spec, rng=args.seed + 1
        )
        schedule = random_schedule(
            network, args.faults, args.horizon, rng=args.seed + 2
        )
        injector = FaultInjector(schedule, network)
        if args.retry == "fixed":
            policy = FixedRetryPolicy(delay=1, max_attempts=8)
        elif args.retry == "backoff":
            policy = ExponentialBackoffPolicy(
                base_delay=1,
                factor=2.0,
                max_delay=8,
                max_attempts=8,
                jitter=0.25,
                rng=args.seed + 3,
            )
        else:
            policy = None
        scheduler = OnlineScheduler(
            network,
            method=args.method,
            rng=args.seed,
            fault_injector=injector,
            retry_policy=policy,
            allow_degradation=not args.no_degradation,
        )
        return scheduler.run(requests), requests

    result, requests = one_run()
    print(network)
    print(
        f"workload: {len(requests)} requests over {args.horizon} slots, "
        f"{args.faults} faults scheduled"
    )
    print(
        f"acceptance: {result.n_accepted}/{len(result.outcomes)} "
        f"({result.acceptance_ratio:.1%}), {result.n_degraded} degraded"
    )
    print(result.resilience.render())
    code = _safety_gate(result, network)
    if code != EXIT_OK or not args.verify_determinism:
        return code
    return _determinism_gate(
        result,
        lambda: one_run()[0],
        lambda run: run.resilience.to_dict(),
        ok="identical reports",
        failed="reports differ",
    )


def _command_admit(args: argparse.Namespace) -> int:
    """Overload demo: one hot workload, with and without admission."""
    import json

    from repro.admission import AdmissionController
    from repro.sim.online import OnlineScheduler
    from repro.sim.workload import WorkloadSpec, generate_workload

    network = _network(args)
    spec = WorkloadSpec(
        arrival_rate=args.arrival_rate,
        horizon=args.horizon,
        mean_hold=6.0,
        max_wait=args.max_wait,
        n_tenants=args.tenants,
    )

    def one_run(with_admission: bool):
        requests = generate_workload(
            network.user_ids, spec, rng=args.seed + 1
        )
        admission = None
        if with_admission:
            admission = AdmissionController.default(
                network,
                rate=args.rate,
                burst=args.burst,
                bulkhead=args.bulkhead,
                queue_size=args.queue_size,
                shed_policy=args.shed_policy,
            )
        scheduler = OnlineScheduler(
            network,
            method=args.method,
            rng=args.seed,
            admission=admission,
        )
        return scheduler.run(requests), requests

    result, requests = one_run(with_admission=True)
    print(network)
    print(
        f"workload: {len(requests)} requests over {args.horizon} slots "
        f"({args.arrival_rate} req/slot, {args.tenants} tenant(s))"
    )
    print(
        f"acceptance: {result.n_accepted}/{len(result.outcomes)} "
        f"({result.acceptance_ratio:.1%}), "
        f"{result.n_degraded} degraded, {result.n_shed} shed"
    )
    print("admission stats:")
    print(json.dumps(result.admission, indent=2, sort_keys=True))
    code = _safety_gate(result, network)
    if code != EXIT_OK:
        return code

    if not args.no_baseline:
        baseline, _ = one_run(with_admission=False)
        print(
            f"baseline (no admission): {baseline.n_accepted}/"
            f"{len(baseline.outcomes)} accepted "
            f"({baseline.acceptance_ratio:.1%})"
        )
    if not args.verify_determinism:
        return EXIT_OK
    return _determinism_gate(
        result,
        lambda: one_run(with_admission=True)[0],
        lambda run: (
            run.resilience.to_dict(),
            json.dumps(run.admission, sort_keys=True, default=repr),
        ),
        ok="identical shed decisions",
        failed="reports differ",
    )


def _command_serve(args: argparse.Namespace) -> int:
    """Multi-tenant demo: SLO-guarded serving over redundant trees."""
    import json

    from repro.resilience.faults import FaultInjector, random_schedule
    from repro.sim.workload import WorkloadSpec, generate_workload
    from repro.tenancy import ReplicationPolicy, serve_tenants

    network = _network(args)
    spec = WorkloadSpec(
        arrival_rate=args.arrival_rate,
        horizon=args.horizon,
        mean_hold=6.0,
        max_wait=args.max_wait,
        n_tenants=args.tenants,
        tenant_skew=args.tenant_skew,
        diurnal_amplitude=args.diurnal_amplitude,
        diurnal_period=args.diurnal_period,
    )

    def one_run():
        requests = generate_workload(
            network.user_ids, spec, rng=args.seed + 1
        )
        injector = None
        if args.faults > 0:
            schedule = random_schedule(
                network,
                n_faults=args.faults,
                horizon=args.horizon,
                rng=args.seed + 2,
            )
            injector = FaultInjector(schedule, network)
        served = serve_tenants(
            network,
            requests,
            method=args.method,
            rng=args.seed,
            replication=ReplicationPolicy(k=max(1, args.replicas)),
            fault_injector=injector,
            rate=args.rate,
            burst=args.burst,
            bulkhead=args.bulkhead,
            queue_size=args.queue_size,
        )
        return served, requests

    served, requests = one_run()
    if args.json:
        summary = served.to_dict()
        print(json.dumps(summary, indent=2, sort_keys=True, default=repr))
    else:
        print(network)
        print(
            f"workload: {len(requests)} requests over {args.horizon} "
            f"slots ({args.arrival_rate} req/slot, {args.tenants} "
            f"tenant(s), skew {args.tenant_skew})"
        )
        print(served.render())
    code = _safety_gate(served, network)
    if code != EXIT_OK or not args.verify_determinism:
        return code
    return _determinism_gate(
        served,
        lambda: one_run()[0],
        lambda run: json.dumps(run.to_dict(), sort_keys=True, default=repr),
        ok="identical serving summaries",
        failed="serving summaries differ",
    )


def _interrupted(engine) -> int:
    """Report what an interrupted sweep kept; ``engine`` may be ``None``.

    Tells ``--resume`` users exactly what state was kept: checkpointed
    trials resume for free, unflushed ones re-run.
    """
    print()
    if engine is None:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    print(f"interrupted: {engine.stats.describe()}", file=sys.stderr)
    if engine.stats.unflushed_trials:
        print(
            f"unflushed trial(s) {engine.stats.unflushed_trials} had no "
            "checkpoint on disk and will re-run on --resume",
            file=sys.stderr,
        )
    return EXIT_INTERRUPTED


def _command_experiment(args: argparse.Namespace) -> int:
    from contextlib import nullcontext

    from repro.experiments.checkpoint import CheckpointStore, checkpointing

    if args.resume and not args.checkpoint:
        print("--resume requires --checkpoint PATH", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    scope = nullcontext()
    if args.checkpoint:
        import os

        if not args.resume and os.path.exists(args.checkpoint):
            # A fresh (non-resume) run must not silently blend with a
            # previous run's records.
            os.unlink(args.checkpoint)
        store = CheckpointStore(args.checkpoint)
        if args.resume and len(store):
            print(f"resuming: {len(store)} trial(s) already checkpointed")
        scope = checkpointing(store)
    base = ExperimentConfig(n_networks=args.networks, seed=args.seed)
    engine = None
    engine_cm = nullcontext()
    engine_scope = nullcontext()
    if args.workers is not None:
        # Explicit --workers (including 1) routes through the execution
        # engine: N>1 shards trials over a process pool, N=1 runs the
        # serial backend; both enable channel caching unless --no-cache.
        # The engine itself is a context manager: leaving it joins the
        # worker pool, so no executor outlives the command.
        from repro.exec.engine import ExecutionEngine, executing

        engine_cm = engine = ExecutionEngine(
            workers=args.workers, use_cache=not args.no_cache
        )
        engine_scope = executing(engine)
    try:
        with scope, engine_cm, engine_scope:
            result = run_named(args.name, base)
    except KeyboardInterrupt:
        return _interrupted(engine)
    if args.markdown:
        from repro.analysis import report
        from repro.experiments.sweeps import SweepResult
        from repro.experiments.fig7_edges import EdgeRemovalResult

        if isinstance(result, SweepResult):
            print(report.sweep_markdown(result, f"experiment {args.name}"))
        elif isinstance(result, EdgeRemovalResult):
            print(report.edge_removal_markdown(result, f"experiment {args.name}"))
        elif hasattr(result, "to_table"):
            print(result.to_table(title=f"experiment {args.name}").render())
        return EXIT_OK
    if hasattr(result, "to_table"):
        print(result.to_table(title=f"experiment {args.name}").render())
    else:  # pragma: no cover - all catalogue entries render tables
        print(result)
    # Bonus: a terminal log-scale chart for single-point summaries.
    if hasattr(result, "results") and result.results:
        last = result.results[-1]
        chart = log_bar_chart(
            {o.display: o.mean_rate for o in last.outcomes},
            title=f"(last swept point: {result.parameter}={result.values[-1]})",
        )
        print()
        print(chart)
    return EXIT_OK


def _command_exec(args: argparse.Namespace) -> int:
    import json
    import tempfile
    import time as _time
    from contextlib import ExitStack

    from repro.exec.engine import ExecutionEngine, executing, result_payload
    from repro.exec.shard import ShardPlan

    base = ExperimentConfig(n_networks=args.networks, seed=args.seed)
    plan = ShardPlan.build(args.networks, args.workers)
    print(f"experiment {args.name}: shard plan {plan.describe()}")

    chaos = None
    supervision = None
    if args.chaos:
        if args.workers < 2:
            print(
                "--chaos needs the process backend: use --workers >= 2",
                file=sys.stderr,
            )
            return EXIT_VALIDATION_ERROR
        from repro.exec.chaos import ChaosInjector
        from repro.exec.supervisor import SupervisionPolicy

        hang_timeout = (
            args.hang_timeout if args.hang_timeout is not None else 2.0
        )
        # Tight backoff so the soak exercises recovery, not sleep.
        supervision = SupervisionPolicy(
            hang_timeout_s=hang_timeout, backoff_unit_s=0.05
        )
        chaos = ChaosInjector(
            kills=args.chaos_kills,
            hangs=args.chaos_hangs,
            truncations=args.chaos_truncations,
            seed=args.chaos_seed,
            hang_sleep_s=max(30.0, hang_timeout * 10),
        )
        print(
            f"chaos soak: budget {args.chaos_kills} kill(s), "
            f"{args.chaos_hangs} hang(s), {args.chaos_truncations} "
            f"truncation(s); hang watchdog {hang_timeout}s"
        )
    elif args.hang_timeout is not None:
        from repro.exec.supervisor import SupervisionPolicy

        supervision = SupervisionPolicy(hang_timeout_s=args.hang_timeout)

    engine = ExecutionEngine(
        workers=args.workers,
        use_cache=not args.no_cache,
        cache_size=args.cache_size,
        supervision=supervision,
        chaos=chaos,
    )
    started = _time.perf_counter()
    try:
        with ExitStack() as stack:
            if args.chaos and args.chaos_truncations > 0:
                # Truncation injection needs shard checkpoint files to
                # tear; give the soak an ephemeral store.
                from repro.experiments.checkpoint import (
                    CheckpointStore,
                    checkpointing,
                )

                chaos_dir = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-chaos-")
                )
                stack.enter_context(
                    checkpointing(
                        CheckpointStore(f"{chaos_dir}/chaos-soak.jsonl")
                    )
                )
            stack.enter_context(engine)
            stack.enter_context(executing(engine))
            result = run_named(args.name, base)
    except KeyboardInterrupt:
        return _interrupted(engine)
    elapsed = _time.perf_counter() - started

    if hasattr(result, "to_table"):
        print(result.to_table(title=f"experiment {args.name}").render())
    print()
    print(f"wall time: {elapsed:.2f}s with {args.workers} worker(s)")
    print(f"engine: {engine.stats.describe()}")
    if not engine.report.clean or args.chaos:
        print(engine.report.render())
    if chaos is not None:
        print(chaos.summary())

    if not args.verify_determinism:
        return EXIT_OK

    # With no ambient engine, run_named runs on an uncached serial
    # engine: the reference path.
    return _determinism_gate(
        result,
        lambda: run_named(args.name, base),
        lambda run: json.dumps(result_payload(run), sort_keys=True),
        ok="byte-identical to serial run",
        failed="parallel result diverges from the serial reference",
    )


def _command_incremental(args: argparse.Namespace) -> int:
    """Churn replay: incremental engine vs the from-scratch reference.

    The two modes run the same maintenance policy over the same seeded
    event stream (:func:`repro.sim.workload.generate_churn`); their
    aggregate digests must be byte-identical — a mismatch exits with
    ``EXIT_VERIFICATION_ERROR``, exactly like a failed solution audit.
    """
    from repro.incremental import IncrementalRouter
    from repro.sim.workload import ChurnSpec, generate_churn

    try:
        mix = tuple(float(w) for w in args.fault_mix.split(","))
        spec = ChurnSpec(n_faults=args.events, fault_mix=mix)
    except ValueError as exc:
        print(f"bad --fault-mix / --events: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR

    def one_run(mode: str):
        network = _network(args)
        users = tuple(sorted(network.user_ids, key=repr))
        events = generate_churn(network, spec, rng=args.seed + 1)
        router = IncrementalRouter(
            network,
            users=users,
            method=args.method,
            seed=args.seed,
            mode=mode,
            radius=args.radius,
        )
        router.run(events)
        return router

    inc = one_run("incremental")
    print(
        f"incremental: {len(inc.outcomes)} events applied, "
        f"final tree {'feasible' if inc.solution.feasible else 'INFEASIBLE'} "
        f"({inc.solution.method})"
    )
    for name in sorted(inc.counters):
        print(f"  {name}: {inc.counters[name]}")
    print(f"digest: {inc.digest()}")

    if one_run("from_scratch").digest() != inc.digest():
        print(
            "equivalence check: FAILED (incremental and from-scratch "
            "aggregates differ)"
        )
        return EXIT_VERIFICATION_ERROR
    print("equivalence check: ok (byte-identical aggregates)")
    if not args.verify_determinism:
        return EXIT_OK
    return _determinism_gate(
        inc,
        lambda: one_run("incremental"),
        lambda router: router.digest(),
        ok="identical replay",
        failed="replay digest differs",
    )


def _command_bounds(args: argparse.Namespace) -> int:
    """Certify one network and gap the requested solvers against it.

    Computes both the capacitated and the uncapacitated LP bound (the
    latter is what capacity-exempt methods are measured against), runs
    every ``--method`` plus the LP-rounding solver, and prints the gap
    table.  Any solver beating its certified bound exits with
    ``EXIT_VERIFICATION_ERROR`` — that is a library bug, never a
    legitimate outcome.  ``--verify-determinism`` re-solves relaxation
    and rounding and fails the same way unless byte-identical.
    """
    import dataclasses
    import json

    from repro.bounds.gap import SOUNDNESS_TOLERANCE, gap_percent
    from repro.bounds.lp import solve_relaxation
    from repro.bounds.rounding import solve_lp_rounding

    try:
        from repro.bounds.lp import _resolve_backend

        _resolve_backend(args.backend)
    except ImportError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR

    network = _network(args)
    relaxation = solve_relaxation(network, backend=args.backend)
    uncap = solve_relaxation(
        network, backend=args.backend, capacitated=False
    )
    certificate = relaxation.certificate

    def rounding():
        return solve_lp_rounding(network, rng=args.seed, backend=args.backend)

    def rerun():
        return solve_relaxation(network, backend=args.backend), rounding()

    def canonical(run):
        # Everything but the certificate's wall-clock solve time.
        relaxed, rounded = run
        return (
            dataclasses.replace(relaxed.certificate, solve_seconds=0.0),
            relaxed.columns,
            relaxed.values,
            rounded.channels,
            rounded.log_rate,
        )

    if args.verify_determinism:
        code = _determinism_gate(
            (relaxation, rounding()),
            rerun,
            canonical,
            ok="identical certificate and tree",
            failed="relaxation or rounding differs",
        )
        if code != EXIT_OK:
            return code

    methods = tuple(args.method or ("conflict_free", "prim", "lp_rounding"))
    rows = []
    violations = 0
    for method in methods:
        solution = solve(method, network, rng=args.seed)
        bound = (
            uncap.certificate
            if method in CAPACITY_EXEMPT_METHODS
            else certificate
        )
        gap = gap_percent(solution.rate, bound)
        if gap < -100.0 * SOUNDNESS_TOLERANCE:
            violations += 1
        rows.append((method, solution.rate, bound.rate_bound, gap))

    if args.json:
        payload = {
            "certificate": {
                **dataclasses.asdict(certificate),
                "rate_bound": certificate.rate_bound,
                "switch_duals": {
                    repr(k): v
                    for k, v in certificate.switch_duals.items()
                },
            },
            "uncapacitated_rate_bound": uncap.certificate.rate_bound,
            "gaps": [
                {
                    "method": m,
                    "rate": r,
                    "bound": b,
                    "gap_percent": g,
                }
                for m, r, b, g in rows
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(network)
        print(
            f"LP bound: rate ≤ {certificate.rate_bound:.6e} "
            f"(log {certificate.log_bound:.6f}, backend "
            f"{certificate.backend}, {certificate.rounds} round(s), "
            f"{certificate.pivots} pivot(s), "
            f"{certificate.n_columns} column(s), "
            f"{'converged' if certificate.dual_feasible else 'early stop'})"
        )
        print(
            f"uncapacitated bound: rate ≤ "
            f"{uncap.certificate.rate_bound:.6e}"
        )
        for method, rate, bound_rate, gap in rows:
            print(
                f"  {method:<16} rate {rate:.6e}  gap {gap:6.2f}%"
                + ("  [uncapacitated bound]"
                   if method in CAPACITY_EXEMPT_METHODS else "")
            )
    if violations:
        print(
            f"soundness check: FAILED ({violations} method(s) beat "
            "their certified bound)",
            file=sys.stderr,
        )
        return EXIT_VERIFICATION_ERROR
    return EXIT_OK


#: Subcommand name -> handler.
_COMMANDS = {
    "list": _command_list,
    "solve": _command_solve,
    "obs": _command_obs,
    "experiment": _command_experiment,
    "exec": _command_exec,
    "stats": _command_stats,
    "montecarlo": _command_montecarlo,
    "resilience": _command_resilience,
    "admit": _command_admit,
    "serve": _command_serve,
    "incremental": _command_incremental,
    "bounds": _command_bounds,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Failure classes map to distinct exit codes (module docstring):
    validation → 2, solver → 3, verification → 4.

    ``--metrics FILE`` / ``--trace FILE`` (global or per-subcommand)
    collect observability data around the whole command and write it
    on the way out; the informational notes go to stderr so stdout
    stays byte-identical to an uninstrumented run.
    """
    import repro.obs as obs
    from repro.verify.invariants import InvariantViolation

    args = build_parser().parse_args(argv)
    metrics_path = getattr(args, "metrics", None)
    metrics_format = getattr(args, "metrics_format", "json")
    trace_path = getattr(args, "trace", None)
    collect_metrics = bool(metrics_path) or args.command == "obs"
    registry = obs.enable() if collect_metrics else None
    tracer = obs.enable_tracer() if trace_path else None
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR
    except (UnknownSolverError, SolveTimeout) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER_ERROR
    except InvariantViolation as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_ERROR
    finally:
        if registry is not None:
            obs.disable()
            if metrics_path:
                if metrics_format == "prom":
                    obs.write_metrics_prometheus(registry, metrics_path)
                else:
                    obs.write_metrics_json(registry, metrics_path)
                print(f"metrics written to {metrics_path}", file=sys.stderr)
        if tracer is not None:
            obs.disable_tracer()
            n_spans = obs.write_trace_jsonl(tracer, trace_path)
            print(
                f"{n_spans} span(s) written to {trace_path}",
                file=sys.stderr,
            )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
