"""``WeightedIndex`` against the ``Generator.choice`` it replays.

The request, churn and Volchenkov generators draw through
:class:`repro.utils.rng.WeightedIndex` instead of ``Generator.choice``,
on the promise that both yield the same indices and leave the generator
in the same state.  These properties hold that promise against the
installed numpy, so a numpy release that changes ``choice`` fails here
first rather than silently moving every pinned stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import WeightedIndex


@st.composite
def weights(draw):
    n = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["uniform", "zipf", "zeros"]))
    if shape == "uniform":
        raw = np.ones(n)
    elif shape == "zipf":
        exponent = draw(st.floats(0.1, 3.0))
        raw = np.arange(1, n + 1, dtype=float) ** (-exponent)
    else:
        raw = np.array(
            draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        if not raw.any():
            raw[draw(st.integers(0, n - 1))] = 1.0
    return raw / raw.sum()


def twin_generators(seed: int):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(max_examples=300, deadline=None)
@given(p=weights(), seed=st.integers(0, 2**32 - 1))
def test_draw_matches_choice(p, seed):
    expected, actual = twin_generators(seed)
    picks = WeightedIndex(p)
    for _ in range(20):
        assert picks.draw(actual) == int(expected.choice(len(p), p=p))
    assert actual.bit_generator.state == expected.bit_generator.state


@settings(max_examples=300, deadline=None)
@given(p=weights(), seed=st.integers(0, 2**32 - 1))
def test_draw_distinct_matches_choice_at_every_size(p, seed):
    expected, actual = twin_generators(seed)
    picks = WeightedIndex(p)
    for size in range(int(np.count_nonzero(p)) + 1):
        want = expected.choice(len(p), size=size, replace=False, p=p)
        assert picks.draw_distinct(actual, size) == want.tolist()
        assert actual.bit_generator.state == expected.bit_generator.state


INVALID = {
    "nan": [0.5, float("nan"), 0.5],
    "negative": [0.6, -0.1, 0.5],
    "sum-above-one": [0.5, 0.5, 0.1],
    "sum-below-one": [0.2, 0.2],
    "two-dimensional": [[0.5, 0.5], [0.5, 0.5]],
    "empty": [],
}


@pytest.mark.parametrize("case", sorted(INVALID))
def test_invalid_p_raises_like_choice(case):
    p = INVALID[case]
    expected, actual = twin_generators(0)
    with pytest.raises(ValueError):
        expected.choice(len(p), p=p)
    with pytest.raises(ValueError):
        WeightedIndex(p)
    assert actual.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize(
    "p,size",
    [([0.5, 0.0, 0.5], 3), ([0.25] * 4, 5), ([0.25] * 4, -1)],
    ids=["fewer-non-zero", "above-population", "negative"],
)
def test_invalid_distinct_size_raises_like_choice(p, size):
    expected, actual = twin_generators(0)
    with pytest.raises(ValueError):
        expected.choice(len(p), size=size, replace=False, p=p)
    with pytest.raises(ValueError):
        WeightedIndex(p).draw_distinct(actual, size)
    assert actual.bit_generator.state == expected.bit_generator.state
