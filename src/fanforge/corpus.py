"""Seeded random chain generation for property sweeps."""

from __future__ import annotations

import random

from . import gf2
from .chains import FanChain


def _random_row(rng: random.Random, width: int, pivot: int, want: int) -> int:
    # Uniform over the masks whose dot with pivot has the requested parity:
    # flipping the lowest pivot bit swaps the two halves.
    row = rng.randrange(1 << width)
    if gf2.dot(row, pivot) != want:
        row ^= pivot & -pivot
    return row


def random_transition(rng: random.Random, k_from: int, k_to: int,
                      minus_from: int, minus_to: int) -> tuple[int, ...]:
    """Uniform draw among matrices sending minus_from to minus_to."""
    return tuple(
        _random_row(rng, k_from, minus_from, minus_to >> i & 1)
        for i in range(k_to))


def random_chain(rng: random.Random, max_levels: int = 4, max_dim: int = 4) -> FanChain:
    n = rng.randint(1, max_levels)
    dims = tuple(rng.randint(1, max_dim) for _ in range(n))
    minus = tuple(rng.randrange(1, 1 << k) for k in dims)
    taus = tuple(
        random_transition(rng, dims[d], dims[d + 1], minus[d], minus[d + 1])
        for d in range(n - 1))
    return FanChain(dims, minus, taus)


def generate_corpus(seed: int, count: int = 200, max_levels: int = 4,
                    max_dim: int = 4) -> list[FanChain]:
    """count random chains drawn from seed; a negative count or a bound
    below 1 raises ValueError before anything is drawn."""
    if count < 0:
        raise ValueError(f"number of chains must be at least 0, got {count}")
    if max_levels < 1:
        raise ValueError(f"maximum level count must be at least 1, got {max_levels}")
    if max_dim < 1:
        raise ValueError(f"maximum level dimension must be at least 1, got {max_dim}")
    rng = random.Random(seed)
    return [random_chain(rng, max_levels, max_dim) for _ in range(count)]
