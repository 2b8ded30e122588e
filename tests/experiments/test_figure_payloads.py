"""Pin the paper's reproduced figures at their default configuration.

Figures 5–8 are the claims this repository reproduces.  Each run below
is the default ``ExperimentConfig`` (20 networks, seed 7, the scale of
EXPERIMENTS.md's tables) on the serial engine, hashed over
:func:`~repro.exec.engine.result_payload` with sorted keys, the payload
the determinism checks compare.  A change that moves any reproduced
rate fails here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.exec.engine import result_payload
from repro.experiments.catalog import run_named

PAYLOAD_SHA256 = {
    "fig5": "7524d93e2f70920fb99e8a0b0a4b16a47a61779888392b36325bcc648079a443",
    "fig6a": "f1acf64ae77fd9263fde2e3158d0e5d9da42c2ac05139c31a5ab7a0756f433a3",
    "fig6b": "6b82061ee97c400ca0eb098ca503e96e7d85e99cf76e326cfc357e50113015a5",
    "fig7a": "87a565625f8cb9b1388a94e01e36a41154c1931adf1da10588aa02a19300d41f",
    "fig7b": "f58b8b5a243a205c39fb5a762d898309d91a099423dd1ccebac4b6c3acc299f3",
    "fig8a": "fcdf1cb4ab39f0285243c85141d81c6f5a175ad8a8245901e3143677a112dbfd",
    "fig8b": "0edec8528427953b49e5e39d9df1c45bc31e420e5bba8fa5b3226f5e116193e5",
}


@pytest.mark.parametrize("name", sorted(PAYLOAD_SHA256))
def test_default_figure_payload_is_pinned(name):
    payload = result_payload(run_named(name))
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()
    if digest != PAYLOAD_SHA256[name]:
        raise AssertionError(f"{name} payload {digest}")
