"""Pin the output digests of the perfbench workloads' prefixes.

``perfbench/run.py`` reports, per workload, a SHA-256 over the first
``prefix_items`` items' canonical output lines.  A performance change
must leave every one of them unchanged, so they are pinned here for all
five workloads at the benchmark seed and at its holdout seed.  The
module is loaded from its file, unedited, exactly as the harness runs
it: ``setup(seed)``, ``warm_up``, then the prefix items in pool order.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"

EXPECTED = {
    (1, "plan"): (
        "402ca2d73773d0b32b839c9408a6d2225a6c2765563d7f6769b311912330e844"
    ),
    (1, "online"): (
        "a082f435ca60dbe76efc59f648e45b65099fc0fe191cddfc97615e99be3d8eb3"
    ),
    (1, "serve"): (
        "c4b463380bcb72e882729fad2dc7cf2c21b55dbc9c872dace08551ca1242b45f"
    ),
    (1, "churn"): (
        "ac7c0a978319796274823fe60a9b56719faf60ffe31f6dc6857ac759925ed5ab"
    ),
    (1, "mc"): (
        "4641ee34fca55f7f1ec97845d018427129180a7c7f57e417d578da89989fdf8c"
    ),
    (7919, "plan"): (
        "6b5f2a9111b026b0d10e216ae25ca75cf571acbaa5bbaec78d8d665676758765"
    ),
    (7919, "online"): (
        "6b26fe3e1ac636befa0af7bea18a5b59fad1b1f36ff75956c9e91835e1e3356f"
    ),
    (7919, "serve"): (
        "d0d230fbc0b277f4a4b28ae94feccea9c3aa450d6694f8d5a22d5abe54804a81"
    ),
    (7919, "churn"): (
        "791b8b91ecd4c9f07ab2bebe32e99f6114042e2d0164ad2d228648623ec5fb84"
    ),
    (7919, "mc"): (
        "e0c7552d5268232520d9e9f3247e97ffaee1d1a5b3108c17536cba61810973e2"
    ),
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", WORKLOADS_PY
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def prefix_digest(workloads, name: str, seed: int) -> str:
    workload = workloads.WORKLOADS[name]
    state, _build_s = workload.setup(seed)
    workload.warm_up(state)
    pool = state["items"]
    tally = workloads.Tally()
    for done in range(workload.prefix_items):
        workload.run_item(state, pool[done % len(pool)], tally)
    assert not tally.errors, tally.errors
    assert tally.failed == 0
    return tally.digest


@pytest.mark.parametrize("seed,name", sorted(EXPECTED))
def test_prefix_digest_is_pinned(workloads, seed, name):
    assert prefix_digest(workloads, name, seed) == EXPECTED[seed, name]
