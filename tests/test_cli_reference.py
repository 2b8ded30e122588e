"""Frozen reference for the ``repro`` CLI: stdout, exit codes and options.

Each case runs one small, fixed argv through :func:`repro.cli.main` and
compares the exit code and the sha256 of stdout with pinned values, so
a change to the shared CLI plumbing (topology flags, the determinism
and safety gates, the dispatch table) cannot change what a passing run
prints.  Before hashing, lines that carry wall-clock time are dropped
(``exec``'s ``wall time:`` and the per-attempt ``ms`` column of the
robust solve audit), as is ``resilience``'s ``unattributed requests:``
line.  ``exec``'s engine line carries the channel cache's hit counts,
which move with the number of searches a solver runs although no
result does, so it is dropped from the digest and pinned literally by
its own test.  ``obs`` prints timing histograms, so only its metric
names are pinned.  ``bounds`` runs on the pure-python simplex backend so the
digest does not depend on whether scipy is installed.

The option-set test pins each subcommand's option strings, so a shared
helper cannot quietly add a flag (say ``--degree`` on ``serve``) or
drop one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re

import pytest

from repro.cli import EXIT_OK, build_parser, main

#: Lines whose content depends on wall-clock time.
_TIMED = re.compile(r"^wall time: |\d\.\d\d ms\b")

#: Extra lines dropped per subcommand before hashing.
_DROPPED = {
    "resilience": re.compile(r"^unattributed requests: "),
    "exec": re.compile(r"^engine: .*; cache: "),
}

#: ``exec``'s engine line, dropped from its digest above.
_EXEC_ENGINE_LINE = (
    "engine: 10 item(s) in 5 shard(s), 0 resumed; "
    "cache: 306/486 hits (63.0%), 0 invalidation(s), 0 eviction(s)"
)

#: name -> (argv, exit code, sha256 of the filtered stdout).
_CASES = {
    "list": (
        ["list"],
        EXIT_OK,
        "8963ca7cb8d5e2de7df95b0dd675f1f3429e55a565940cf6ae555afba25fc086",
    ),
    "solve": (
        [
            "solve", "--switches", "12", "--users", "4", "--seed", "3",
            "--show-channels",
        ],
        EXIT_OK,
        "17b989c0644ea08d862426778df049851e4fe3aabdf61c66590a072074b02cf9",
    ),
    "solve-robust": (
        [
            "solve", "--robust", "--method", "prim", "--fallback",
            "conflict_free", "--switches", "10", "--users", "4",
            "--seed", "3", "--show-channels",
        ],
        EXIT_OK,
        "9ca22c3027d8bf1df92e4b589ead1ce16cf483a0aa40f80fb9af32ba34bb322a",
    ),
    "stats": (
        ["stats", "--switches", "12", "--users", "4", "--seed", "3"],
        EXIT_OK,
        "f2444b5f1e84cb5019442b822e5121500827d2d47a1a9ead1c5b109b68737d4d",
    ),
    "montecarlo": (
        [
            "montecarlo", "--switches", "12", "--users", "4",
            "--trials", "2000", "--seed", "3",
        ],
        EXIT_OK,
        "0447fa444c99718d5f2ff1e1dc0d1a40e73758c5c6b07e326aaab4e10d7916d3",
    ),
    "experiment": (
        ["experiment", "fig6b", "--networks", "1", "--seed", "2"],
        EXIT_OK,
        "ebbd21219a9399528697b45884d87a56528a0666b382d81a72c6190485f19120",
    ),
    "exec": (
        [
            "exec", "fig6b", "--networks", "2", "--seed", "2",
            "--verify-determinism",
        ],
        EXIT_OK,
        "3082992a2c0a78ef30035066b81781f12256c8ae2bdf7ed5860ccbee5075f975",
    ),
    "resilience": (
        [
            "resilience", "--switches", "12", "--users", "4",
            "--horizon", "10", "--faults", "3", "--seed", "5",
            "--verify-determinism",
        ],
        EXIT_OK,
        "e6fa113d5559233828cf87db7a8fbbbe1a50c7aed44b6af0b398a5b80749b2fe",
    ),
    "admit": (
        [
            "admit", "--switches", "12", "--users", "5", "--horizon", "10",
            "--arrival-rate", "3", "--seed", "2", "--verify-determinism",
        ],
        EXIT_OK,
        "70cc93ad2a6e11c896ab42f11d6fe5200c2eb29cab935519610b98917c829af6",
    ),
    "serve": (
        [
            "serve", "--switches", "12", "--users", "5", "--horizon", "10",
            "--arrival-rate", "3", "--faults", "2", "--seed", "2",
            "--verify-determinism",
        ],
        EXIT_OK,
        "50502288d8cdedcd780925ec79c9d97cd9106e092282807caf2486f135f2ed2b",
    ),
    "serve-json": (
        [
            "serve", "--switches", "12", "--users", "5", "--horizon", "10",
            "--arrival-rate", "3", "--faults", "2", "--seed", "2", "--json",
        ],
        EXIT_OK,
        "663d37d9d1fd0dbd3f5d02796899914ad60b3781af84227fcc854afcd7d895f1",
    ),
    "incremental": (
        [
            "incremental", "--switches", "16", "--users", "4",
            "--events", "20", "--verify-determinism",
        ],
        EXIT_OK,
        "82f9b94a10963a3f84a138f3a836e1830054cf6b0510be68b160038eac59db5c",
    ),
    "bounds": (
        [
            "bounds", "--switches", "12", "--users", "4", "--qubits", "2",
            "--backend", "simplex", "--verify-determinism",
        ],
        EXIT_OK,
        "5bde968807084f225725163f968b415a4b99ad222e5edbe40368824893a3ac87",
    ),
}

#: Metric names ``repro obs`` emits for one small solve.
_OBS_ARGV = ["obs", "--switches", "12", "--users", "4", "--seed", "3"]
_OBS_METRICS = {
    "counters": (
        "core.channel_search.channels_found"
        " core.channel_search.single_source_calls core.dijkstra.calls"
        " core.dijkstra.edges_scanned core.dijkstra.heap_pops"
        " core.dijkstra.nodes_settled core.dijkstra.relaxations"
        " core.ledger.qubits_reserved core.ledger.reserves"
        " core.ledger.transactions solver.robust.attempts"
        " solver.robust.calls solver.robust.status.accepted"
    ),
    "gauges": "core.ledger.peak_occupancy solver.robust.fallback_depth",
    "histograms": "solver.robust.attempt_seconds",
}

_OBS_FLAGS = "--metrics --metrics-format --trace"
_TOPOLOGY_FLAGS = "--topology --switches --users --seed"
_SERVING_FLAGS = _TOPOLOGY_FLAGS + " --method --qubits"
_ADMISSION_FLAGS = "--max-wait --rate --burst --bulkhead --queue-size"

#: Option strings per subcommand (``-h``/``--help`` aside).
_OPTIONS = {
    "": _OBS_FLAGS,
    "list": _OBS_FLAGS,
    "solve": f"{_OBS_FLAGS} {_TOPOLOGY_FLAGS} --method --degree --qubits"
    " --swap-prob --show-channels --robust --fallback",
    "obs": f"{_OBS_FLAGS} {_TOPOLOGY_FLAGS} --method --degree --qubits"
    " --format",
    "experiment": f"{_OBS_FLAGS} --networks --seed --markdown --checkpoint"
    " --resume --workers --no-cache",
    "exec": f"{_OBS_FLAGS} --workers --networks --seed --no-cache"
    " --cache-size --verify-determinism --chaos --chaos-kills"
    " --chaos-hangs --chaos-truncations --chaos-seed --hang-timeout",
    "stats": f"{_OBS_FLAGS} {_TOPOLOGY_FLAGS} --degree",
    "montecarlo": f"{_OBS_FLAGS} {_TOPOLOGY_FLAGS} --method --trials",
    "resilience": f"{_OBS_FLAGS} {_SERVING_FLAGS} --faults --horizon"
    " --arrival-rate --retry --no-degradation --verify-determinism",
    "admit": f"{_OBS_FLAGS} {_SERVING_FLAGS} {_ADMISSION_FLAGS} --horizon"
    " --arrival-rate --tenants --shed-policy --no-baseline"
    " --verify-determinism",
    "incremental": f"{_OBS_FLAGS} {_SERVING_FLAGS} --events --fault-mix"
    " --radius --verify-determinism",
    "serve": f"{_OBS_FLAGS} {_SERVING_FLAGS} {_ADMISSION_FLAGS} --horizon"
    " --arrival-rate --tenants --tenant-skew --diurnal-amplitude"
    " --diurnal-period --replicas --faults --json --verify-determinism",
    "bounds": f"{_OBS_FLAGS} {_TOPOLOGY_FLAGS} --degree --qubits"
    " --swap-prob --backend --method --json --verify-determinism",
}


def _digest(command: str, out: str) -> str:
    dropped = _DROPPED.get(command)
    kept = [
        line
        for line in out.splitlines(keepends=True)
        if not _TIMED.search(line)
        and not (dropped is not None and dropped.search(line))
    ]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("parser has no subcommands")


def _option_strings(parser: argparse.ArgumentParser) -> set:
    return {
        option
        for action in parser._actions
        for option in action.option_strings
    } - {"-h", "--help"}


@pytest.mark.parametrize("case", sorted(_CASES))
def test_stdout_and_exit_code(case, capsys):
    argv, want_code, want_digest = _CASES[case]
    code = main(list(argv))
    assert code == want_code
    assert _digest(argv[0], capsys.readouterr().out) == want_digest


def test_exec_engine_line(capsys):
    argv = _CASES["exec"][0]
    assert main(list(argv)) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    engine = [line for line in lines if _DROPPED["exec"].search(line)]
    assert engine == [_EXEC_ENGINE_LINE]


def test_obs_metric_names(capsys):
    assert main(list(_OBS_ARGV)) == EXIT_OK
    snapshot = json.loads(capsys.readouterr().out)
    names = {kind: " ".join(sorted(snapshot[kind])) for kind in snapshot}
    assert names == _OBS_METRICS


def test_every_subcommand_is_covered():
    covered = {argv[0] for argv, _, _ in _CASES.values()} | {"obs"}
    assert covered == set(_subparsers(build_parser()))


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_option_set(command):
    parser = build_parser()
    if command:
        parser = _subparsers(parser)[command]
    assert _option_strings(parser) == set(_OPTIONS[command].split())
