"""Pin the paper's reproduced figures at their default configuration.

Figures 5–8 are the claims this repository reproduces.  Each run below
is the default ``ExperimentConfig`` (20 networks, seed 7, the scale of
EXPERIMENTS.md's tables) on the serial engine, hashed over
:func:`~repro.exec.engine.result_payload` with sorted keys, the payload
the determinism checks compare.  A change that moves any reproduced
rate fails here.

The headline (the largest finite improvement per algorithm and
baseline over every sweep) is pinned the same way over its own payload,
built here from the result's fields so the pin does not depend on the
payload code it guards.
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


HEADLINE_SHA256 = (
    "56d782ab6c81dcca03c0c47493ad28f2b4f5e0be846838cdad8d007d847d7c31"
)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _headline_payload(result):
    """The headline's fields as JSON: its configuration count and one
    ``[algorithm, baseline, percent]`` row per pair, in pair order."""
    return {
        "kind": "headline",
        "n_configurations": result.n_configurations,
        "improvements": [
            [algorithm, baseline, percent]
            for (algorithm, baseline), percent in sorted(
                result.improvements.items()
            )
        ],
    }


@pytest.fixture(scope="module")
def headline():
    return run_named("headline")


def test_default_headline_payload_is_pinned(headline):
    digest = _digest(_headline_payload(headline))
    if digest != HEADLINE_SHA256:
        raise AssertionError(f"headline payload {digest}")


def test_headline_result_payload_is_json(headline):
    payload = result_payload(headline)
    if payload != _headline_payload(headline):
        raise AssertionError(f"headline result_payload {payload!r}")
    json.dumps(payload, sort_keys=True)
