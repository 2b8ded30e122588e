"""Pin the request and churn streams, and the generator state after them.

``generate_workload`` and ``generate_churn`` feed every online, serving
and churn study; a faster draw must emit the same stream and consume
exactly the doubles the old one did.  Each digest covers three seeds of
one spec: every request (or event) plus ``bit_generator.state`` after
the stream.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim.workload import (
    ChurnSpec,
    WorkloadSpec,
    generate_churn,
    generate_workload,
)
from repro.topology.real_world import real_world_network

SEEDS = (0, 1, 7919)
USERS = tuple(f"u{k}" for k in range(12))

WORKLOADS = {
    "default": (USERS, WorkloadSpec()),
    "hotspot": (USERS, WorkloadSpec(arrival_rate=3.0, hotspot_skew=1.2)),
    "tenants": (USERS, WorkloadSpec(arrival_rate=3.0, n_tenants=4)),
    "skewed-tenants": (
        USERS,
        WorkloadSpec(arrival_rate=3.0, n_tenants=5, tenant_skew=1.5),
    ),
    "diurnal": (
        USERS,
        WorkloadSpec(
            arrival_rate=2.0, diurnal_amplitude=0.8, diurnal_period=12
        ),
    ),
    "few-users": (
        USERS[:3],
        WorkloadSpec(arrival_rate=3.0, mean_group_size=4.0, max_group_size=5),
    ),
}

CHURNS = {
    "default": ChurnSpec(n_faults=300),
    "no-switch-family": ChurnSpec(n_faults=300, fault_mix=(0.6, 0.0, 0.4)),
}

EXPECTED = {
    ("workload", "default"): (
        "d7070ae22be86f3a49ce91c6691f48abfecb03b569ec30d1601984bf7cc2d408"
    ),
    ("workload", "hotspot"): (
        "5a232ada221224656b105542b2f9f34319d325dc4039ff766b29a9ce0964d34b"
    ),
    ("workload", "tenants"): (
        "a94c7b6edd861c8ebe17137860659b2307c196b15260900faf8929624c789dd1"
    ),
    ("workload", "skewed-tenants"): (
        "2f32f0626e9f598d6bf87520bf87f59c0c46c7a64aca1c4246713ac48ceec231"
    ),
    ("workload", "diurnal"): (
        "6369bf4413f6ede714bda4791464fb1df46f45b122b1d8fcefae886455a161d1"
    ),
    ("workload", "few-users"): (
        "22173b6ec1d6a5def6d24c8cae756428b12c959cb02ededf900a95ab7aa25823"
    ),
    ("churn", "default"): (
        "f9319d4cb717a0a68afa54b631efef38aad8e0c39bdd4a4f8a1a60f03344ed06"
    ),
    ("churn", "no-switch-family"): (
        "8f6d61930e8de69cb050d26384f4b211eafb2f686ee4c4a089cc6e31d2795482"
    ),
}


def _digest(draw) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        generator = np.random.default_rng(seed)
        for line in draw(generator):
            digest.update(f"{line!r}\n".encode())
        digest.update(repr(generator.bit_generator.state).encode())
    return digest.hexdigest()


def workload_digest(case: str) -> str:
    users, spec = WORKLOADS[case]
    return _digest(
        lambda generator: [
            (r.name, r.users, r.arrival, r.hold, r.max_wait, r.tenant)
            for r in generate_workload(users, spec, generator)
        ]
    )


def churn_digest(case: str) -> str:
    network = real_world_network("nsfnet", user_sites=("WA", "TX", "GA", "NY"))
    return _digest(
        lambda generator: [
            (e.kind.value, e.target, e.slot, e.now_blocked)
            for e in generate_churn(network, CHURNS[case], generator)
        ]
    )


@pytest.mark.parametrize("kind,case", sorted(EXPECTED))
def test_stream_digest_is_pinned(kind, case):
    digest = workload_digest(case) if kind == "workload" else churn_digest(case)
    assert digest == EXPECTED[kind, case]
