"""Seeded random-number plumbing.

Every stochastic component of the library (topology generation, Monte
Carlo simulation, randomized algorithm choices) takes an explicit
``numpy.random.Generator`` so experiments are reproducible bit-for-bit.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]

#: ``Generator.choice``'s tolerance on ``sum(p) == 1`` for float64 *p*.
_CHOICE_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


def ensure_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce *rng* into a ``numpy.random.Generator``.

    ``None`` yields a fresh non-deterministic generator, an ``int`` seeds
    a new one, and an existing generator is passed through unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot build rng from {type(rng).__name__}")


def spawn_rngs(rng: RngLike, count: int) -> List[np.random.Generator]:
    """Derive *count* statistically independent child generators.

    Used by the experiment runner so each of the paper's 20 random
    networks gets its own stream while the whole sweep stays reproducible
    from one seed.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    parent = ensure_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(seed)) for seed in seeds]


class WeightedIndex:
    """``Generator.choice(len(p), p=p)`` replayed draw for draw.

    ``choice`` validates *p* and rebuilds its CDF on every call (~40 µs).
    This validates float64 *p* once, keeps numpy's normalised CDF and
    consumes exactly the doubles ``choice`` would: same indices, same
    final generator state (``tests/utils/test_weighted_index.py``).
    """

    __slots__ = ("p", "cdf", "support")

    def __init__(self, p) -> None:
        p = np.array(p, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValueError("p must be a non-empty 1-dimensional array")
        if (p < 0).any() or not abs(p.sum() - 1.0) <= _CHOICE_ATOL:
            raise ValueError("p must be non-negative and sum to 1")
        self.p = p
        self.cdf = _normalised_cdf(p)
        self.support = int(np.count_nonzero(p > 0))

    def draw(self, generator: np.random.Generator) -> int:
        """``int(generator.choice(len(p), p=p))``: one double, bisected."""
        return bisect_right(self.cdf, generator.random())

    def draw_distinct(
        self, generator: np.random.Generator, size: int
    ) -> List[int]:
        """``generator.choice(len(p), size, replace=False, p=p)`` as a list.

        Each round draws one double per index still missing and keeps
        each index at its first occurrence; the next round searches a
        CDF rebuilt with the found indices' weights zeroed.
        """
        if not 0 <= size <= self.support:
            raise ValueError(f"cannot draw {size} distinct indices from p")
        found: List[int] = []
        cdf = self.cdf
        while len(found) < size:
            uniforms = generator.random(size - len(found)).tolist()
            if found:
                p = self.p.copy()
                p[found] = 0.0
                cdf = _normalised_cdf(p)
            for u in uniforms:
                index = bisect_right(cdf, u)
                if index not in found:
                    found.append(index)
        return found


def _normalised_cdf(p: np.ndarray) -> List[float]:
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf.tolist()
