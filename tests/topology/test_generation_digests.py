"""Pin the networks the paper's three generators draw, and what they draw.

Every Fig. 5 trial generates a network and then keeps using the same
generator (Prim's seed draw, for one), so a faster generator must give
the same network *and* leave the generator in the same state.  Each
digest covers five seeds of one generator at one size: the full network
fingerprint plus ``bit_generator.state`` after the build.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.topology import TopologyConfig, generate

SEEDS = range(5)

EXPECTED = {
    ("waxman", 20): (
        "8130b74d64b02af43e32a68404f890e8f4979c2d0d1d117e8b821f3966b54706"
    ),
    ("waxman", 50): (
        "962cf1579d661daf5e1d3524ff0d602f999d158c173903f8b2433a809f0fa1a9"
    ),
    ("waxman", 100): (
        "86af711a2aa38d3de2ea94c1a14863ad2110a8200ef89f3ce36b2bc6d4a88429"
    ),
    ("watts_strogatz", 20): (
        "e776e860a14f6387ef1ba036a5abb4ed55de6d70c66ee7daa2b170c8f56602a9"
    ),
    ("watts_strogatz", 50): (
        "5007e976bb7e495966307d85ec72906662136f749e667e6bbe7fae0aed4f615d"
    ),
    ("watts_strogatz", 100): (
        "3e49566932d5ce09f40efa7a146ff32b7b12f58aaee3764eb60a1c49210dda35"
    ),
    ("volchenkov", 20): (
        "e3059831b8dcb9617f86c6f359bf758fa87d10c70755bff9821b96f34bf33614"
    ),
    ("volchenkov", 50): (
        "c3e92c5af28096a943a1afe6495113a219753090caf3047298cfc866faf879ab"
    ),
    ("volchenkov", 100): (
        "50626e84e322fd2b3b57e221c984f4865b693a95d3314f10788147277bf39d70"
    ),
}


def generation_digest(method: str, n_switches: int) -> str:
    digest = hashlib.sha256()
    for seed in SEEDS:
        generator = np.random.default_rng(seed)
        network = generate(method, TopologyConfig(n_switches=n_switches), generator)
        digest.update(network.fingerprint().encode())
        digest.update(repr(generator.bit_generator.state).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("method,n_switches", sorted(EXPECTED))
def test_generation_digest_is_pinned(method, n_switches):
    assert generation_digest(method, n_switches) == EXPECTED[method, n_switches]
